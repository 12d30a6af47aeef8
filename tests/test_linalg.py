import itertools
import math
from fractions import Fraction
from typing import List, NamedTuple

import pytest

from jordanet import linalg
from jordanet.errors import JordanetError, PreconditionError
from jordanet.exact import integer_poly, monomials, parse_poly, poly_eval
from jordanet.linalg import (
    Echelon,
    Mat,
    Packing,
    adjugate,
    charpoly,
    det,
    det_bareiss,
    det_laplace,
    express_in_rows,
    int_poly_matmul,
    inverse,
    inverse_or_none,
    laplace_minors,
    linear_matrix,
    mat_rank,
    rref,
)
from jordanet.prng import SplitMix64
from jordanet.spaces import (
    MatSpace,
    generic_det,
    generic_matrix,
    generic_names,
    make_space,
    sweep_rank,
    sym_dim,
    symmetric_rows,
    unvectorize,
)
from jordanet.varieties import macaulay_emptiness, rank_one_system
from oracles import (
    GaussJordanEchelon,
    MPoly,
    PrimitiveEchelon,
    UniPoly,
    adjugate_by_cofactors,
    det_bareiss_by_ring,
    det_by_gauss_jordan,
    det_laplace_by_entries,
    faddeev_leverrier,
    faddeev_leverrier_by_entries,
    generic_element,
    inverse_or_none_by_primitive_rows,
    lift,
    macaulay_rows_by_fractions,
    matmul_by_loop,
    mpoly_by_eager_decode,
    rational_spaces,
    reduce_vector,
    residue,
    rref_with_transform_by_gauss_jordan,
    rref_with_transform_by_primitive_rows,
    zero_mat,
)


def P(s):
    return lift(parse_poly(s))


def U(s):
    return UniPoly.from_mpoly(parse_poly(s), "lam")


def poly_mat(rows):
    return Mat([[P(x) if isinstance(x, str) else MPoly.const(x) for x in row] for row in rows])


def random_scalar_mat(rng, n, lo=-5, hi=5):
    return Mat.from_ints([[rng.int_between(lo, hi) for _ in range(n)] for _ in range(n)])


def random_rational_mat(rng, n):
    """Entries k / d, k in -4..4 and d in 1..6, with a zero row about one
    time in three."""
    dead = rng.int_between(0, n - 1) if n and rng.int_between(0, 2) == 0 else -1
    return Mat([[Fraction(0) if i == dead else Fraction(rng.int_between(-4, 4), rng.int_between(1, 6))
                 for _ in range(n)] for i in range(n)])


def random_int_space(rng, n, m):
    """Span of m random symmetric n x n integer matrices, drawn again while
    they are dependent."""
    while True:
        basis = [unvectorize(n, [Fraction(rng.int_between(-3, 3)) for _ in range(n * (n + 1) // 2)])
                 for _ in range(m)]
        try:
            return make_space(n, basis)
        except PreconditionError:
            continue


class Kernel(NamedTuple):
    """The integer kernel's results on a space's packed generic element X' /
    L (``generic_matrix``), converted to MPolys in t1..tm: the
    characteristic polynomial's coefficients (lowest power first), the
    adjugate, the determinant and the square X X."""

    charpoly: list
    adjugate: Mat
    det: MPoly
    square: Mat


def kernel_on_generic_element(space) -> Kernel:
    n, (_, lcm) = space.n, space.integer_basis()
    x, packing, names = generic_matrix(space, max(n, 2))
    cs, mn = faddeev_leverrier(x)

    def conv(p, den):
        return packing.mpoly(p, den, names)

    sign = 1 if n % 2 else -1
    return Kernel([conv(c, lcm ** k) for k, c in reversed(list(enumerate(cs, 1)))] + [Fraction(1)],
                  Mat([[conv(p, sign * lcm ** (n - 1)) for p in row] for row in mn]),
                  conv(laplace_minors(x)(tuple(range(n))), lcm ** n),
                  Mat([[conv(p, lcm ** 2) for p in row] for row in int_poly_matmul(x, x)]))


class FractionEchelon(NamedTuple):
    """What ``rref_by_fractions`` returns: rank, pivots, the reduced rows and
    the column count."""

    rank: int
    pivots: List[int]
    rows: List[List[Fraction]]
    cols: int

    def kernel_basis(self):
        basis = []
        for f in (j for j in range(self.cols) if j not in self.pivots):
            v = [Fraction(int(j == f)) for j in range(self.cols)]
            for row, p in zip(self.rows, self.pivots):
                v[p] = -row[f]
            basis.append(v)
        return basis

    def reduce_vector(self, v):
        """v minus v_p times each reduced row, pivot by pivot, in Fractions."""
        out = [Fraction(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if c:
                out = [a - c * b for a, b in zip(out, row)]
        return out


def rref_by_fractions(matrix):
    """Gauss-Jordan over Fractions, normalizing each pivot row to 1 (oracle for
    the integer echelon that ``rref`` grows)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return FractionEchelon(r, pivots, rows[:r], ncols)


def over(q, s):
    """The Fraction matrix Q / s."""
    return Mat([[Fraction(x, s) for x in row] for row in q])


def pivot_block_inverse(rows, pivots):
    """(Q, s) with A_P^-1 = Q / s for independent rows A on their pivot
    columns P (``inverse_or_none``, on ``integer_inverse``): the row
    transform T with T A = the reduced rows."""
    return inverse_or_none(Mat([[row[p] for p in pivots] for row in rows]))


def random_rational_rows(rng, nrows, ncols):
    """Rational rows with denominators up to 7 and numerators up to 10^6 (small
    ones half the time), mixing in zero rows, repeated rows and combinations of
    earlier rows, so that rank deficiency is common."""
    top = 10 ** 6 if rng.int_between(0, 1) else 9

    def entry():
        if rng.int_between(0, 3) == 0:
            return Fraction(0)
        return Fraction(rng.int_between(-top, top), rng.int_between(1, 7))

    rows = []
    for _ in range(nrows):
        kind = rng.int_between(0, 5)
        if kind == 0:
            row = [Fraction(0)] * ncols
        elif kind == 1 and rows:
            row = list(rows[rng.int_between(0, len(rows) - 1)])
        elif kind == 2 and rows:
            a, b = (rows[rng.int_between(0, len(rows) - 1)] for _ in range(2))
            s, t = entry(), entry()
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [entry() for _ in range(ncols)]
        rows.append(row)
    return rows


class TestIntegerRref:
    def test_empty_matrix(self):
        e = rref([])
        assert (e.rank, e.pivots, e.rows, e.cols, e.kernel_basis()) == (0, [], [], 0, [])

    def test_agrees_with_fraction_elimination(self):
        rng = SplitMix64(1968)
        deficient = 0
        for nrows in range(9):
            for ncols in range(9):
                for _ in range(3):
                    m = random_rational_rows(rng, nrows, ncols)
                    got, want = rref(m), rref_by_fractions(m)
                    assert (got.rank, got.pivots, got.rows) == (want.rank, want.pivots, want.rows)
                    assert got.kernel_basis() == want.kernel_basis()
                    deficient += got.rank < min(nrows, ncols)
                    if got.rank == nrows:  # T A = R on independent rows: T = A_P^-1
                        aug = rref_by_fractions([row + [Fraction(int(i == j)) for j in range(nrows)]
                                                 for i, row in enumerate(m)])
                        t, d = pivot_block_inverse(m, got.pivots)
                        assert d > 0 and all(type(x) is int for row in t for x in row)
                        assert over(t, d).data == tuple(tuple(row[ncols:]) for row in aug.rows)
        assert deficient > 50

    def test_integer_and_fraction_inputs_agree(self):
        # a string entry is refused (TestRrefOnIntegerRows), so 1/3 is a Fraction
        m = [[2, Fraction(1, 3), 0], [Fraction(4), Fraction(2, 3), 1]]
        assert rref(m).rows == rref_by_fractions(m).rows == [
            [1, Fraction(1, 6), 0], [0, 0, 1]]


class TestFractionProduct:
    def test_matches_the_entry_loop(self):
        # shapes 0..6 on each side, square and rectangular; zero rows come from
        # random_rational_rows, and a zero column is put into B half the time
        rng = SplitMix64(118)
        products = 0
        for p in range(7):
            for q in range(7):
                for r in range(7):
                    a = Mat(random_rational_rows(rng, p, q))
                    b_rows = random_rational_rows(rng, q, r)
                    if r and rng.int_between(0, 1):
                        zero = rng.int_between(0, r - 1)
                        b_rows = [[Fraction(0) if j == zero else x for j, x in enumerate(row)]
                                  for row in b_rows]
                    b = Mat(b_rows)
                    if a.cols != b.rows:  # a 0 x q matrix has no columns
                        continue
                    got = a @ b
                    assert got == matmul_by_loop(a, b)
                    assert all(type(x) is Fraction for row in got.data for x in row)
                    products += 1
        assert products > 250



class TestNumericOnly:
    def test_mpoly_entries_are_refused(self):
        # products, charpoly, adjugate, the determinants and the inverses
        # take Fraction matrices: an MPoly entry, alone or beside Fractions,
        # is a typed precondition error from integer_vector, never an
        # AttributeError from the integer kernel
        x = P("x")
        mixed = Mat([[x, Fraction(1, 2)], [Fraction(3), Fraction(0)]])
        poly = Mat([[x, P("y")], [P("y"), MPoly.const(2)]])
        numeric = Mat.from_ints([[1, 2], [3, 4]])
        calls = [lambda: mixed @ numeric, lambda: numeric @ mixed, lambda: poly @ poly]
        for m in (mixed, poly):
            calls += [lambda m=m, f=f: f(m) for f in (charpoly, adjugate, det, det_laplace,
                                                      det_bareiss, inverse, inverse_or_none)]
        for call in calls:
            with pytest.raises(JordanetError) as err:
                call()
            assert isinstance(err.value, PreconditionError) and err.value.code == "NOT_NUMERIC"


def integer_row(row):
    d = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(Fraction(x) * d) for x in row]


class TestRrefOnIntegerRows:
    """``rref`` adjoins a row of plain ints as it is, with no ``frac`` call
    and no Fraction, and clears any other row through ``integer_vector``."""

    def test_int_and_mixed_rows_match_their_fraction_copies(self, monkeypatch):
        rng = SplitMix64(4040)
        cases = deficient = 0
        for nrows in range(1, 8):
            for ncols in range(1, 8):
                for _ in range(3):
                    ints = [integer_row(row) for row in random_rational_rows(rng, nrows, ncols)]
                    # every other entry of every other row a Fraction, some of them p/q
                    mixed = [[Fraction(x, 1 + (j % 3)) if i % 2 and j % 2 else x
                              for j, x in enumerate(row)] for i, row in enumerate(ints)]
                    for rows in (ints, mixed):
                        want = rref([[Fraction(x) for x in row] for row in rows])
                        got = rref(rows)
                        assert (got.pivots, got.rank, got.int_rows) == (
                            want.pivots, want.rank, want.int_rows)
                        cases += 1
                    deficient += want.rank < min(nrows, ncols)
                    with monkeypatch.context() as m:  # plain ints reach the echelon as they are
                        m.setattr(linalg, "frac", lambda x: pytest.fail("frac called"))
                        m.setattr(linalg, "Fraction", lambda *a: pytest.fail("Fraction formed"))
                        got = rref(ints)
                    assert got.int_rows == rref([[Fraction(x) for x in row] for row in ints]).int_rows
        assert cases == 294 and deficient > 20

    def test_other_rows_go_through_integer_vector(self):
        # a row that is not all plain ints is cleared by integer_vector, the one
        # refusal point: Fractions and bools (0 and 1) are read, and a string,
        # a float or an MPoly entry is NOT_NUMERIC, wherever it stands
        assert rref([[Fraction(3, 2), 1], [3, 2]]).int_rows == [[3, 2]]
        assert rref([[Fraction(3, 2), 1, 0], [1, 0, Fraction(-1, 3)]]).int_rows == \
            [[3, 0, -1], [0, 2, 1]]
        assert rref([[True, False], [1, True]]).int_rows == [[1, 0], [0, 1]]
        for bad in ("3/2", "0", "1e5", "x", "1/0", 1.5, 2.0, P("x")):
            for row in ([bad, 1], [1, bad]):
                with pytest.raises(PreconditionError) as err:
                    rref([[1, 1], row])
                assert err.value.code == "NOT_NUMERIC", bad
            with pytest.raises(PreconditionError) as err:
                mat_rank(Mat([[Fraction(1), bad]]))
            assert err.value.code == "NOT_NUMERIC", bad


class TestGrowingEchelon:
    """``Echelon.adjoin``, one row at a time, against the Fraction elimination
    of the rows so far; its return value over the pivot entry d it met is the
    Fraction remainder of the row modulo the rows before it."""

    def test_adjoin_matches_rref_of_the_rows_so_far(self):
        rng = SplitMix64(1990)
        grown = 0
        for ncols in range(1, 9):
            for _ in range(6):
                ech, seen = Echelon(ncols), []
                for row in random_rational_rows(rng, 10, ncols):
                    before = rref_by_fractions(seen)
                    seen.append(row)
                    want = rref_by_fractions(seen)
                    v = integer_row(row)
                    rest = residue(ech, v)
                    assert all(rest[p] == 0 for p in ech.pivots)
                    assert any(rest) == (want.rank > ech.rank)
                    if any(rest):
                        assert rref_by_fractions(ech.rows + [rest]).rows == want.rows
                        grown += 1
                    d, out = ech.d, ech.adjoin(v)
                    if any(rest):
                        assert [Fraction(x, d) for x in out] == before.reduce_vector(v)
                    else:
                        assert out is None
                    assert (ech.rank, ech.pivots, ech.rows) == (want.rank, want.pivots, want.rows)
                    for r, p in zip(ech.int_rows, ech.pivots):
                        assert math.gcd(*r) == 1 and r[p] > 0
                        assert all(r[q] == 0 for q in ech.pivots if q != p)
        assert grown > 150

    def test_extend_stops_drawing_at_full_rank(self):
        rng = SplitMix64(1991)
        for ncols in range(1, 7):
            rows = random_rational_rows(rng, 3 * ncols, ncols)
            drawn = []

            def draw():
                for row in rows:
                    drawn.append(row)
                    yield integer_row(row)

            ech = Echelon(ncols)
            ech.extend(draw())
            want = rref_by_fractions(rows)
            assert (ech.rank, ech.pivots, ech.rows) == (want.rank, want.pivots, want.rows)
            if want.rank == ncols:
                assert rref_by_fractions(drawn).rank == ncols
                assert rref_by_fractions(drawn[:-1]).rank == ncols - 1

    def test_empty_echelon(self):
        ech = Echelon(3)
        assert (ech.rank, ech.rows, residue(ech, [0, 6, -4])) == (0, [], [0, 3, -2])
        d, out = ech.d, ech.adjoin([0, 6, -4])
        assert [Fraction(x, d) for x in out] == rref_by_fractions([]).reduce_vector([0, 6, -4])
        assert out == [0, 6, -4] and ech.int_rows == [[0, 3, -2]]

    def test_a_vector_that_hits_no_pivot_comes_back_at_scale_d(self):
        ech = Echelon(4)
        ech.extend([[2, 0, 1, 0], [0, 0, 3, 5]])
        v = [0, 7, 0, -1]
        assert all(v[p] == 0 for p in ech.pivots) and ech.d not in (0, 1)
        assert ech.eliminate(v) == ([ech.d * x for x in v], ech.d)

    def test_rank_only_callers_form_no_reduced_rows(self, monkeypatch):
        # a space's independence check and sweep ranks read the rank alone: no
        # reduced rows, no pivot-block inverse and no coordinates.  A Macaulay
        # certificate reads the reduced rows of each degree part that does not
        # span S_d, once per part, and never of the degree-D matrix: the two
        # quadrics at degree 6 back-substitute their 10 quadric columns alone,
        # not the 84 sextic ones
        def refused(*args):
            raise AssertionError("reduced rows or coordinates formed")

        monkeypatch.setattr(linalg, "_back_substitute", refused)
        monkeypatch.setattr(MatSpace, "pivot_inverse", refused)
        monkeypatch.setattr(MatSpace, "coordinates", refused)
        rng = SplitMix64(23)
        basis = [Mat.from_ints([[rng.int_between(-3, 3) for _ in range(3)] for _ in range(3)])
                 for _ in range(3)]
        sp = make_space(3, [b + b.transpose() for b in basis])
        assert sp.echelon().rank == 3
        assert sweep_rank(sp)((1, 1, 1)) <= 3
        monkeypatch.undo()
        widths, real = [], linalg._back_substitute
        monkeypatch.setattr(linalg, "_back_substitute",
                            lambda ech: widths.append(ech.cols) or real(ech))
        cert = macaulay_emptiness([integer_poly("x*y - z^2")[0], integer_poly("x^2 - w*y")[0]], 6)
        assert (cert.span_rank, cert.span_target) == (60, 84)
        assert widths == [10]
        widths.clear()
        cert = macaulay_emptiness([integer_poly(f)[0] for f in ("x*y", "x^3 + y^3", "y^2")], 4)
        assert (cert.kind, cert.span_rank, cert.span_target) == ("CERTIFIED_EMPTY", 5, 5)
        assert widths == [3, 4]


def random_integer_rows(rng, nrows, ncols):
    """``random_rational_rows`` cleared of denominators (zero, repeated and
    dependent rows, entries of either sign), a third of them times a large
    common content and a third negated."""
    rows = []
    for row in random_rational_rows(rng, nrows, ncols):
        row, kind = integer_row(row), rng.int_between(0, 2)
        if kind == 0:
            row = [x * rng.int_between(2, 9) * 10 ** 18 for x in row]
        elif kind == 1:
            row = [-x for x in row]
        rows.append(row)
    return rows


def assert_same_echelon(rows, ncols, rng):
    """The fraction-free ``Echelon`` against the primitive dense oracle: the
    canonical rows, pivots, rank, Fraction rows and kernel, every T_i an
    integer row, and the remainder out / k of ``eliminate`` on vectors inside
    and outside the span."""
    new, old = Echelon(ncols), PrimitiveEchelon(ncols)
    new.extend(rows)
    old.extend(rows)
    assert (new.int_rows, new.pivots, new.rank) == (old.int_rows, old.pivots, old.rank)
    assert new.rows == old.rows and new.kernel_basis() == old.kernel_basis()
    for row, p in zip(new.ff_rows, new.pivots):
        assert [row[q] for q in new.pivots] == [new.d * (q == p) for q in new.pivots]
    coeffs = [rng.int_between(-3, 3) for _ in rows]
    probes = [[0] * ncols, [rng.int_between(-9, 9) for _ in range(ncols)],
              [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]]
    for v in probes + rows[:4]:
        (a, k), (b, l) = new.eliminate(v), old.eliminate(v)
        assert [Fraction(x, k) for x in a] == [Fraction(x, l) for x in b]
    return new


class TestFractionFreeEchelon:
    """The fraction-free ``Echelon`` against ``PrimitiveEchelon``, the dense
    echelon that keeps every row primitive (the oracles)."""

    def test_matches_the_primitive_echelon(self):
        rng = SplitMix64(1968_19)
        deficient = 0
        for n in range(9):
            for ncols in range(1, 9):
                for _ in range(2):
                    ech = assert_same_echelon(random_integer_rows(rng, n, ncols), ncols, rng)
                    deficient += ech.rank < min(n, ncols)
        assert deficient > 40

    def test_transform_and_inverse_match_the_primitive_echelon(self):
        rng = SplitMix64(1997)
        regular = 0
        for n in range(9):
            for ncols in (n, n, rng.int_between(1, 8)):
                dense = [[Fraction(rng.int_between(-9, 9), rng.int_between(1, 3))
                          for _ in range(ncols)] for _ in range(n)]
                for m in (random_rational_rows(rng, n, ncols), dense):
                    ech = rref(m)
                    want, (t, den) = rref_with_transform_by_primitive_rows(m)
                    assert (ech.int_rows, ech.pivots) == (want.int_rows, want.pivots)
                    if ech.rank == n:
                        got = pivot_block_inverse(m, ech.pivots)
                        assert got[1] > 0 and over(*got) == over(t, den)
                    if ncols == n:
                        got = inverse_or_none(Mat(m))
                        assert got == inverse_or_none_by_primitive_rows(Mat(m))
                        regular += got is not None
        assert regular > 10

    def test_rank_one_systems(self):
        # two seeded 6-dimensional subspaces of S^4: 21 quadratic minors, times
        # the 6 linear monomials, against the 56 cubics
        rng = SplitMix64(126)
        for _ in range(2):
            while True:
                basis = [[[rng.int_between(-3, 3) for _ in range(4)] for _ in range(4)]
                         for _ in range(6)]
                basis = [Mat.from_ints([[m[min(i, j)][max(i, j)] for j in range(4)]
                                        for i in range(4)]) for m in basis]
                if rref([[b[i, j] for b in basis] for i in range(4) for j in range(4)]).rank == 6:
                    break
            system = rank_one_system(make_space(4, basis))
            rows, ncols = macaulay_rows_by_fractions(system, 3, generic_names(6))
            assert (len(rows), ncols) == (126, 56)
            assert_same_echelon([integer_row(r) for r in rows], ncols, rng)

    def test_quadrics_at_degree_ten(self):
        system = [P("x*y - z^2"), P("x^2 - w*y")]
        rows, ncols = macaulay_rows_by_fractions(system, 10, ("w", "x", "y", "z"))
        ech = assert_same_echelon([integer_row(r) for r in rows], ncols, SplitMix64(10))
        assert (ech.rank, ncols) == (246, 286)

    def test_adjoin_never_rewrites_an_earlier_row(self):
        rng = SplitMix64(1953)
        joined = 0
        for ncols in range(2, 9):
            for _ in range(6):
                ech = Echelon(ncols)
                for k, row in enumerate(random_integer_rows(rng, 10, ncols)):
                    if k % 4 == 3:
                        ech.ff_rows  # the reduced rows, read midway, are kept apart
                    before = list(ech.forward)
                    entries = [list(r) for r in before]
                    out = ech.adjoin(row)
                    assert all(a is b for a, b in zip(ech.forward, before))
                    assert [list(r) for r in before] == entries
                    assert len(ech.forward) == len(before) + (out is not None)
                    if out is not None:
                        assert ech.forward[-1] is out
                        joined += 1
        assert joined > 150


class TestForwardAgainstGaussJordan:
    """The forward echelon against ``GaussJordanEchelon``, the Gauss-Jordan
    echelon it replaced: random, rank-deficient and 10^18-scaled rows give
    the same (out, d) from ``eliminate`` on vectors inside and outside the
    span, before and after the reduced rows are read, the same remainders
    from ``adjoin``, and the same d, pivots and canonical rows; and, on
    independent rows, the same transform (``integer_inverse`` of the pivot
    block) and determinant."""

    def test_same_remainders_scales_and_rows(self):
        rng = SplitMix64(1968_23)
        deficient = 0
        for n in range(10):
            for ncols in range(1, 9):
                for _ in range(2):
                    rows = random_integer_rows(rng, n, ncols)
                    new, old = Echelon(ncols), GaussJordanEchelon(ncols)
                    for k, row in enumerate(rows):
                        coeffs = [rng.int_between(-3, 3) for _ in range(k)]
                        probes = [row, [0] * ncols, [rng.int_between(-9, 9) for _ in range(ncols)],
                                  [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]]
                        if k % 3 == 2:
                            assert new.int_rows == old.int_rows  # read midway: no remainder changes
                        for v in probes:
                            assert new.eliminate(v) == old.eliminate(v)
                        assert new.adjoin(row) == old.adjoin(row)
                        assert (new.d, new.pivots, new.rank) == (old.d, old.pivots, old.rank)
                    assert new.int_rows == old.int_rows
                    deficient += new.rank < min(n, ncols)
        assert deficient > 40

    def test_same_transform_and_determinant(self):
        rng = SplitMix64(1968_24)
        for n in range(9):
            for ncols in (n, n, rng.int_between(1, 8)):
                dense = [[Fraction(rng.int_between(-9, 9), rng.int_between(1, 3))
                          for _ in range(ncols)] for _ in range(n)]
                big = [[x * 10 ** 18 for x in row] for row in random_rational_rows(rng, n, ncols)]
                for m in (random_rational_rows(rng, n, ncols), dense, big):
                    ech = rref(m)
                    old, transform = rref_with_transform_by_gauss_jordan(m)
                    assert (ech.pivots, ech.int_rows) == (old.pivots, old.int_rows)
                    if ech.rank == n:  # independent rows: the same leading minor and T = A_P^-1
                        assert ech.d == old.d
                        assert over(*pivot_block_inverse(m, ech.pivots)) == over(*transform)
                    if ncols == n:
                        assert det_bareiss(Mat(m)) == det_by_gauss_jordan(Mat(m))


class TestIntegerReduction:
    """``Echelon.eliminate`` (through the oracles' ``reduce_vector``) and,
    over independent rows, ``express_in_rows`` against pivot elimination in
    Fractions, on vectors inside and outside the span, the zero vector and
    echelons of rank 0."""

    def test_agrees_with_fraction_elimination(self):
        rng = SplitMix64(2026)
        inside = outside = solved = refused = 0
        cases = [[], [[Fraction(0)] * 4]]
        for nrows in range(6):
            for ncols in range(1, 7):
                for _ in range(3):
                    cases.append(random_rational_rows(rng, nrows, ncols))
        for rows in cases:
            ncols = len(rows[0]) if rows else 0
            ech, want = rref(rows), rref_by_fractions(rows)
            aug = rref_by_fractions([row + [Fraction(int(i == j)) for j in range(len(rows))]
                                     for i, row in enumerate(rows)])
            combination = [Fraction(rng.int_between(-9, 9), rng.int_between(1, 7))
                           for _ in rows]
            vectors = [
                [Fraction(0)] * ncols,
                [sum((c * row[j] for c, row in zip(combination, rows)), Fraction(0))
                 for j in range(ncols)],
                [Fraction(rng.int_between(-9, 9), rng.int_between(1, 7)) for _ in range(ncols)],
            ]
            for v in vectors:
                residue = reduce_vector(ech, v)
                assert residue == want.reduce_vector(v)
                inside, outside = inside + (not any(residue)), outside + any(residue)
                if ech.rank < len(rows):
                    continue  # coordinates only over independent rows
                coords = express_in_rows(rows, v)
                if any(residue):
                    assert coords is None
                    refused += 1
                    continue
                # the transform's choice: v's entry at each pivot, times that
                # row of the transform
                expected = [Fraction(0)] * len(rows)
                for r, p in enumerate(want.pivots):
                    expected = [a + v[p] * b for a, b in zip(expected, aug.rows[r][ncols:])]
                assert coords == expected
                assert [sum((c * row[j] for c, row in zip(coords, rows)), Fraction(0))
                        for j in range(ncols)] == v
                solved += 1
        assert inside > 100 and outside > 50 and solved > 90 and refused > 15


class TestRref:
    def test_identity(self):
        e = rref(Mat.identity(3).data)
        assert e.rank == 3
        assert e.kernel_basis() == []

    def test_rank_one(self):
        e = rref(Mat.from_ints([[1, 2], [2, 4]]).data)
        assert e.rank == 1
        assert e.kernel_basis() == [[Fraction(-2), Fraction(1)]]

    def test_rank_nullity(self):
        rng = SplitMix64(3)
        for _ in range(20):
            rows = rng.int_between(1, 5)
            cols = rng.int_between(1, 5)
            m = [[rng.int_between(-3, 3) for _ in range(cols)] for _ in range(rows)]
            e = rref(m)
            assert e.rank + len(e.kernel_basis()) == cols

    def test_express_in_rows(self):
        rows = [[1, 0, 1], [0, 1, 1]]
        rows = [[Fraction(x) for x in r] for r in rows]
        assert express_in_rows(rows, [Fraction(2), Fraction(3), Fraction(5)]) == [2, 3]
        assert express_in_rows(rows, [Fraction(0), Fraction(0), Fraction(1)]) is None

    def test_express_in_dependent_rows_is_refused(self):
        rows = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(2), Fraction(0), Fraction(2)]]
        with pytest.raises(PreconditionError) as err:
            express_in_rows(rows, [Fraction(1), Fraction(0), Fraction(1)])
        assert err.value.code == "DEPENDENT_BASIS"

    def test_row_transform(self):
        rng = SplitMix64(8)
        for _ in range(30):
            nrows, ncols = rng.int_between(1, 5), rng.int_between(1, 5)
            m = [[Fraction(rng.int_between(-2, 2)) for _ in range(ncols)] for _ in range(nrows)]
            e = rref(m)
            if e.rank < nrows:
                continue
            t = over(*pivot_block_inverse(m, e.pivots))
            assert det(t) != 0
            assert t @ Mat(m) == Mat(e.rows)

    def test_coordinates_recover_the_combination(self):
        rng = SplitMix64(9)
        for _ in range(20):
            rows = [[Fraction(rng.int_between(-3, 3)) for _ in range(5)] for _ in range(3)]
            if rref(rows).rank < 3:
                continue
            c = [Fraction(rng.int_between(-3, 3), rng.int_between(1, 3)) for _ in range(3)]
            v = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(5)]
            vp = Mat([[v[p] for p in rref(rows).pivots]])
            assert vp @ over(*pivot_block_inverse(rows, rref(rows).pivots)) == Mat([c])
            assert express_in_rows(rows, v) == c


class TestDet:
    def test_small(self):
        assert det(Mat.from_ints([[1, 2], [3, 4]])) == -2

    def test_poly_double_conic(self):
        # the generic element of <E11 + E33, E12 + E34, E22 + E44> in x, y,
        # z: block-diagonal with two copies of [[x, y], [y, z]]
        sp = make_space(4, [Mat.from_ints(b) for b in (
            [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])])
        assert generic_det(sp, ("x", "y", "z")) == P("x^2*z^2 - 2*x*y^2*z + y^4")

    def test_bareiss_equals_laplace_scalar(self):
        rng = SplitMix64(17)
        for n in (2, 3, 4, 5, 6):
            m = random_scalar_mat(rng, n)
            assert det_bareiss(m) == det_laplace(m)

    def test_integer_bareiss_equals_the_ring_bareiss(self):
        # rational entries with a zero in about half the places, so that
        # pivots vanish and rows are swapped, and singular matrices occur
        rng = SplitMix64(2011)
        swaps = singular = 0
        for n in range(7):
            for _ in range(12):
                m = Mat([[Fraction(rng.int_between(-4, 4) * rng.int_between(0, 1),
                                    rng.int_between(1, 6)) for _ in range(n)] for _ in range(n)])
                got = det_bareiss(m)
                assert type(got) is Fraction and got == det_bareiss_by_ring(m) == det_laplace(m)
                swaps += n > 1 and m[0, 0] == 0
                singular += got == 0
        assert swaps > 5 and singular > 5

    def test_sign_of_the_order_the_pivots_are_made_in(self):
        # row i of a permutation matrix makes pivot perm[i], so the pivots come
        # in the permutation's order: det is its sign, times the row scales
        rng = SplitMix64(2121)
        for n in range(6):
            for perm in itertools.permutations(range(n)):
                sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                m = Mat([[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)])
                assert det_bareiss(m) == sign == det_laplace(m) == det_bareiss_by_ring(m)
                scales = [Fraction(rng.nonzero_int_between(-9, 9), rng.int_between(1, 7))
                          for _ in range(n)]
                scaled = Mat([[x * c for x in row] for row, c in zip(m.data, scales)])
                want = sign * math.prod(scales)
                assert det_bareiss(scaled) == want == det_laplace(scaled) == det_bareiss_by_ring(scaled)

    def test_permuted_triangular_zero_leading_columns_and_a_dependent_last_row(self):
        rng = SplitMix64(2122)

        def entry():
            return Fraction(rng.int_between(-6, 6), rng.int_between(1, 5))

        for n in range(1, 6):
            for _ in range(6):
                perm = list(range(n))
                for i in range(n - 1, 0, -1):
                    j = rng.int_between(0, i)
                    perm[i], perm[j] = perm[j], perm[i]
                # lower triangular rows with a nonzero diagonal, columns permuted
                tri = [[entry() if j < i else Fraction(rng.nonzero_int_between(-6, 6)) if j == i
                        else Fraction(0) for j in range(n)] for i in range(n)]
                m = Mat([[row[perm.index(j)] for j in range(n)] for row in tri])
                got = det_bareiss(m)
                assert got != 0 and got == det_laplace(m) == det_bareiss_by_ring(m)
                k = rng.int_between(1, n)
                zero_lead = Mat([[Fraction(0)] * k + [entry() for _ in range(n - k)]
                                 for _ in range(n)])
                assert det_bareiss(zero_lead) == 0 == det_laplace(zero_lead)
                coeffs = [entry() for _ in range(n - 1)]
                last = [sum((c * row[j] for c, row in zip(coeffs, m.data[:n - 1])), Fraction(0))
                        for j in range(n)]
                dependent = Mat(list(m.data[:n - 1]) + [last])
                assert det_bareiss(dependent) == 0 == det_laplace(dependent) == det_bareiss_by_ring(dependent)

    def test_bareiss_equals_laplace_poly(self):
        # Bareiss over MPoly entries against the kernel's Laplace determinant
        # of the packed generic element
        rng = SplitMix64(29)
        for n, m in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (6, 2)):
            sp = random_int_space(rng, n, m)
            assert det_bareiss_by_ring(generic_element(sp.basis)) == generic_det(sp), (n, m)

    def test_singular(self):
        assert det(Mat.from_ints([[1, 2], [2, 4]])) == 0


class TestAdjugate:
    def test_diagonal(self):
        assert adjugate(Mat.from_ints([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == \
            Mat.from_ints([[15, 0, 0], [0, 10, 0], [0, 0, 6]])
        m = Mat([[Fraction(1, 2), 0, 0], [0, Fraction(2, 3), 0], [0, 0, Fraction(5)]])
        assert adjugate(m) == Mat([[Fraction(10, 3), 0, 0], [0, Fraction(5, 2), 0],
                                   [0, 0, Fraction(1, 3)]])

    def test_identity(self):
        for n in (1, 2, 4):
            assert adjugate(Mat.identity(n)) == Mat.identity(n)

    def test_matches_cofactor_oracle(self):
        rng = SplitMix64(31)
        for n in (1, 2, 3, 4, 5):
            for m in (random_scalar_mat(rng, n), random_rational_mat(rng, n)):
                assert adjugate(m) == adjugate_by_cofactors(m)
        sp = random_int_space(rng, 5, 3)
        assert kernel_on_generic_element(sp).adjugate == \
            adjugate_by_cofactors(generic_element(sp.basis))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_n_minus_one_products(self, n, monkeypatch):
        # Faddeev-LeVerrier on the integer matrix: n - 2 products and the
        # trace of the last one, no polynomial product
        calls = []
        product = linalg.int_matmul

        def counting(a, b):
            calls.append(1)
            return product(a, b)

        monkeypatch.setattr(linalg, "int_matmul", counting)
        monkeypatch.setattr(linalg, "int_poly_matmul", None)
        m = random_rational_mat(SplitMix64(n), n)
        adjugate(m)
        assert len(calls) == max(n - 2, 0)
        charpoly(m)
        assert len(calls) == 2 * max(n - 2, 0)

    def test_fundamental_identity(self):
        rng = SplitMix64(37)
        for n in (2, 3, 4):
            m = random_scalar_mat(rng, n)
            d = det(m)
            assert m @ adjugate(m) == Mat.identity(n).scale(d)


class TestCharpoly:
    def test_swap_matrix(self):
        assert charpoly(Mat.from_ints([[0, 1], [1, 0]])) == [-1, 0, 1]

    def test_zero_matrix(self):
        assert charpoly(zero_mat(2, 2)) == [0, 0, 1]

    def test_nilpotent_tower_net(self):
        # the packed generic element of the net x*Diag(J3,1) + y*(E12+E21) +
        # z*E11; frozen value cross-checked against a cofactor-expansion
        # determinant
        sp = make_space(4, [Mat.from_ints(b) for b in (
            [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])])
        names = ("x", "y", "z")
        x, packing, _ = generic_matrix(sp, 4, names)
        cs, _ = faddeev_leverrier(x)
        cp = UniPoly("lam", [packing.mpoly(c, 1, names) for c in reversed(cs)] + [Fraction(1)])
        expected = U("lam - x") * U("lam^3 - x*lam^2 - z*lam^2 + x*z*lam - x^2*lam - y^2*lam + x^3")
        assert cp == expected
        # independent oracle: det(lam*I - M) by memoized Laplace expansion
        m, lam = generic_element(sp.basis, names), P("lam")
        shifted = Mat([
            [lam - m[i, j] if i == j else -m[i, j] for j in range(4)]
            for i in range(4)
        ])
        assert cp.to_mpoly() == det_laplace_by_entries(shifted)

    def test_matches_laplace_determinant(self):
        rng = SplitMix64(41)
        lam = P("lam")
        sp = random_int_space(rng, 5, 3)
        pairs = [(generic_element(sp.basis), kernel_on_generic_element(sp).charpoly)]
        for n in (1, 2, 3, 4, 5):
            m = random_rational_mat(rng, n)
            pairs.append((m, charpoly(m)))
        for m, cp in pairs:
            n = m.rows
            shifted = Mat([[lam - m[i, j] if i == j else -m[i, j] for j in range(n)]
                           for i in range(n)])
            assert UniPoly("lam", cp).to_mpoly() == det_laplace_by_entries(shifted)

    def test_cayley_hamilton(self):
        rng = SplitMix64(43)
        for n in (2, 3, 4, 5, 6):
            m = random_scalar_mat(rng, n, -3, 3)
            acc = zero_mat(n, n)
            power = Mat.identity(n)
            for c in charpoly(m):
                acc = acc + power.scale(c)
                power = power @ m
            assert acc == zero_mat(n, n)

    def test_constant_term_is_det(self):
        rng = SplitMix64(47)
        for n in (2, 3, 4):
            m = random_scalar_mat(rng, n)
            assert charpoly(m)[0] == (-1) ** n * det(m)

    def test_forms_no_matrix(self, monkeypatch):
        # charpoly converts its coefficients alone; only adjugate forms the
        # matrix that the same iteration leaves
        rng = SplitMix64(53)
        mats = [random_scalar_mat(rng, 3), random_rational_mat(rng, 3)]
        made = []
        real = linalg.Mat
        monkeypatch.setattr(linalg, "Mat", lambda rows: made.append(1) or real(rows))
        for m in mats:
            charpoly(m)
        assert made == []
        adjugate(mats[0])
        assert made == [1]


class TestIntegerKernel:
    """Products, charpolys, adjugates and determinants on the integer kernel,
    of packed generic elements and of Fraction matrices, against the
    entry-by-entry loops of ``oracles``."""

    def test_matches_the_entry_loops(self):
        # packed generic elements of seeded rational spaces (n = 1..5, L in
        # {1, 2, 3, 6}; not S^5 with m = 6, whose MPoly products alone take
        # 0.7 s) and of two spaces with a zero row, whose MPoly entries the
        # loops multiply in t1..tm
        zero_row = [make_space(3, [Mat.from_ints([[1, 2, 0], [2, 0, 0], [0, 0, 0]]),
                                   Mat.from_ints([[0, 1, 0], [1, 3, 0], [0, 0, 0]])]),
                    make_space(4, [Mat([[Fraction(1, 2), 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                                        [0, 0, 0, 0]])])]
        spaces = [sp for sp in rational_spaces(2026)[::3] if (sp.n, sp.m) != (5, 6)] + zero_row
        assert {sp.integer_basis()[1] for sp in spaces} == {1, 2, 3, 6}
        for sp in spaces:
            got, g = kernel_on_generic_element(sp), generic_element(sp.basis)
            cp, adj = faddeev_leverrier_by_entries(g)
            assert got.charpoly == cp, sp
            assert got.adjugate == adj, sp
            assert got.det == det_laplace_by_entries(g), sp
            assert got.square == matmul_by_loop(g, g), sp
        rng = SplitMix64(2026)
        for n in range(7):
            for _ in range(3 if n < 6 else 1):
                m = random_rational_mat(rng, n)
                cp, adj = faddeev_leverrier_by_entries(m)
                assert charpoly(m) == cp
                assert adjugate(m) == adj
                assert det_laplace(m) == det_laplace_by_entries(m)
                other = random_rational_mat(rng, n)
                assert m @ other == matmul_by_loop(m, other)

    def test_symmetric_linear_adjugate_matches_the_entry_loops(self):
        # coefficient vectors over monomials(m, n - 1), against the MPoly
        # cofactors of the generic element (seeded rational spaces, n = 1..5, one
        # with a zero row) and Faddeev-LeVerrier on the packed element; then
        # symmetric integer matrices up to 7 x 7 (m = 1), a third of them singular
        spaces = [sp for sp in rational_spaces(2028)[::4] if (sp.n, sp.m) != (5, 6)]
        spaces.append(make_space(3, [Mat.from_ints([[1, 2, 0], [2, 0, 0], [0, 0, 0]]),
                                     Mat.from_ints([[0, 1, 0], [1, 3, 0], [0, 0, 0]])]))
        assert {sp.n for sp in spaces} == {1, 2, 3, 4, 5}
        for sp in spaces:
            n, m = sp.n, sp.m
            basis, lcm = sp.integer_basis()
            adj = linalg.symmetric_linear_adjugate(basis)
            names = generic_names(m)
            monos = [dict(zip(names, mono)) for mono in monomials(m, n - 1)]
            want = adjugate_by_cofactors(generic_element(sp.basis, names))
            for i in range(n):
                for j in range(n):
                    entry = want[i, j] if isinstance(want[i, j], MPoly) else MPoly.const(want[i, j])
                    assert adj[i][j] == [entry.coefficient(mono) * lcm ** (n - 1)
                                         for mono in monos], (n, m, i, j)
            x, packing, _ = generic_matrix(sp, n)
            sign = 1 if n % 2 else -1
            keys = [packing.key(mono) for mono in monomials(m, n - 1)]
            assert adj == [[[sign * p.get(key, 0) for key in keys] for p in row]
                           for row in faddeev_leverrier(x)[1]]
        rng = SplitMix64(2028)
        for n in range(1, 8):
            for k in range(3):
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = rng.int_between(-4, 4)
                if k == 2 and n > 1:  # the last row and column twice the first
                    rows[-1] = [2 * x for x in rows[0]]
                    for i in range(n):
                        rows[i][-1] = rows[-1][i]
                    rows[-1][-1] = 4 * rows[0][0]
                got = linalg.symmetric_linear_adjugate([rows])
                assert Mat([[Fraction(p[0]) for p in row] for row in got]) == \
                    adjugate_by_cofactors(Mat.from_ints(rows)), (n, k)

    def test_symmetric_linear_adjugate_on_unit_matrices(self):
        # bases of symmetric unit matrices, each position once or, as in the
        # generic net's 18 products of a weight and an entry, three times:
        # the coefficient vectors against the MPoly recurrence, entry by entry
        for n, copies in ((1, 3), (2, 1), (2, 3), (3, 1), (3, 3), (4, 1)):
            units = [symmetric_rows(n, [int(q == v) for q in range(sym_dim(n))])
                     for v in range(sym_dim(n))] * copies
            names = generic_names(len(units))
            _, want = faddeev_leverrier_by_entries(
                generic_element([Mat.from_ints(u) for u in units], names))
            monos = [dict(zip(names, mono)) for mono in monomials(len(units), n - 1)]
            adj = linalg.symmetric_linear_adjugate(units)
            for i in range(n):
                for j in range(n):
                    entry = want[i, j] if isinstance(want[i, j], MPoly) else MPoly.const(want[i, j])
                    assert adj[i][j] == [entry.coefficient(mono) for mono in monos], (n, copies)

    def test_shift_tables_are_built_once_per_degree(self, monkeypatch):
        # the index and shift tables depend on (m, k) alone: a second adjugate
        # of the same shape builds none
        bases = [sp.integer_basis()[0] for sp in rational_spaces(4141) if (sp.n, sp.m) == (5, 3)]
        calls = []
        real = linalg.monomials
        monkeypatch.setattr(linalg, "monomials", lambda m, k: calls.append((m, k)) or real(m, k))
        linalg._degree_shifts.cache_clear()
        assert len(bases) == 2
        linalg.symmetric_linear_adjugate(bases[0])
        assert {k for _, k in calls} == {1, 2, 3, 4}
        built = len(calls)
        linalg.symmetric_linear_adjugate(bases[1])
        assert len(calls) == built

    def test_fraction_matrices_give_fractions(self):
        rng = SplitMix64(2027)
        for n in range(1, 6):
            m = Mat([[Fraction(rng.int_between(-9, 9), rng.int_between(1, 8)) for _ in range(n)]
                     for _ in range(n)])
            d = det_laplace(m)
            assert type(d) is Fraction and d == det_bareiss(m) == det_laplace_by_entries(m)
            adj = adjugate(m)
            assert all(type(x) is Fraction for row in adj.data for x in row)
            assert m @ adj == Mat.identity(n).scale(d)
            assert charpoly(m) == faddeev_leverrier_by_entries(m)[0]

    def test_exponent_fields_do_not_carry(self, monkeypatch):
        # det = b^8 - a^2 reaches the exponent bound n * (entry degree) = 8,
        # which fills all four bits of b's field, the bottom one, next to a's
        def packed():
            packing = Packing(2, 8)
            x = linear_matrix([(packing.key((0, 4)), [[1, 0], [0, 1]]),
                               (packing.key((1, 0)), [[0, 1], [1, 0]])])
            cs, _ = faddeev_leverrier(x)
            return (packing.mpoly(laplace_minors(x)((0, 1)), 1, ("a", "b")),
                    [packing.mpoly(c, 1, ("a", "b")) for c in reversed(cs)] + [Fraction(1)])

        m = poly_mat([["b^4", "a"], ["a", "b^4"]])
        expected = det_laplace_by_entries(m)
        cp, _ = faddeev_leverrier_by_entries(m)
        assert packed() == (expected, cp) and expected == P("b^8 - a^2")
        # the generic determinant t1^2 - t2^2 fills t2's two-bit field; at
        # degree 3 in x, y, z, x*z^2 and y^3 would share a key one bit
        # narrower, and x*y*z alone is outside <x^2, y^2, z^2>
        space = make_space(2, [Mat.identity(2), Mat.from_ints([[0, 1], [1, 0]])])
        assert generic_det(space) == P("t1^2 - t2^2")
        squares = [integer_poly(f"{v}^2")[0] for v in "xyz"]
        assert macaulay_emptiness(squares, 3).span_rank == 9
        width = linalg._field_width
        monkeypatch.setattr(linalg, "_field_width", lambda bound: width(bound) - 1)
        narrow_det, narrow_cp = packed()
        assert narrow_det != expected
        assert narrow_cp != cp
        assert generic_det(space) != P("t1^2 - t2^2")
        assert macaulay_emptiness(squares, 3).span_rank != 9

    def test_generic_chow_determinant(self):
        from jordanet.chow import chow_det_generic
        from oracles import chow_matrix_generic_by_mpoly

        value = chow_det_generic(3)
        expected = det_laplace_by_entries(chow_matrix_generic_by_mpoly(3))
        assert (value.total_degree(), value.term_count()) == (12, 22659)
        assert value.vars == expected.vars and value.terms == expected.terms


class TestPackedMPoly:
    """``Packing.mpoly`` keeps the packed polynomial and reads its terms off
    it when they are first read; the eager decode is the oracle."""

    @staticmethod
    def packed_cases():
        rng = SplitMix64(3701)
        for k in range(1, 21):
            for bound in (1, 2, 3, 7, 12, 100):
                packing = Packing(k, bound)
                names = [f"v{i}" for i in range(k)]
                for i in range(k - 1, 0, -1):  # a seeded shuffle: field i holds names[i]
                    j = rng.int_between(0, i)
                    names[i], names[j] = names[j], names[i]
                p = {}
                for t in range(rng.int_between(0, 12)):
                    # every field at the bound fills it: the largest total degree, k * bound
                    exps = [bound] * k if t == 0 and rng.int_between(0, 1) else \
                        [rng.int_between(0, bound) * rng.int_between(0, 1) for _ in range(k)]
                    p[packing.key(exps)] = rng.nonzero_int_between(-50, 50)
                den = 1 if rng.int_between(0, 1) else rng.int_between(2, 30)
                yield packing, p, den, names
        for k in (0, 1, 5, 20):  # constants, the zero polynomial, and one with no variable
            packing = Packing(k, 4)
            for p in ({}, {0: 7}, {0: -3, packing.units[0]: 2} if k else {0: 4}):
                yield packing, p, 6, [f"v{i}" for i in range(k)]

    def test_matches_the_eager_decode(self):
        cases = list(self.packed_cases())
        assert len(cases) > 120 and sum(len(p) > 1 and den > 1 for _, p, den, _ in cases) > 30
        assert sum(not p for _, p, _, _ in cases) > 4
        for packing, p, den, names in cases:
            want = mpoly_by_eager_decode(packing, p, den, names)
            # the statistics first, off the packed polynomial, then the terms
            got = packing.mpoly(p, den, names)
            assert (got.term_count(), got.is_zero(), got.total_degree()) == \
                (want.term_count(), want.is_zero(), want.total_degree()), (p, den, names)
            assert got.vars == want.vars and got.terms == want.terms
            assert got.support_vars() == want.support_vars() and str(got) == str(want)
            assert got == want and want == got
            # the terms first, then the statistics off them
            got = packing.mpoly(p, den, names)
            assert str(got) == str(want) and got == want and want == got
            assert (got.term_count(), got.is_zero(), got.total_degree()) == \
                (want.term_count(), want.is_zero(), want.total_degree())

    def test_values_are_summed_on_the_packed_keys(self, monkeypatch):
        # poly_eval of a packed polynomial at seeded rationals (zeros, signs,
        # denominators 1..4, so every value shares one) against its value on
        # the eager decode; no term is formed, across chunks of the keys
        monkeypatch.setattr(Packing, "terms", None)
        rng = SplitMix64(3901)
        cases = list(self.packed_cases())
        for packing, p, den, names in cases:
            want = mpoly_by_eager_decode(packing, p, den, names)
            for _ in range(2):
                point = {v: Fraction(rng.int_between(-4, 4), rng.int_between(1, 4)) for v in names}
                assert poly_eval(packing.mpoly(p, den, names), point) == poly_eval(want, point), \
                    (p, den, names, point)

    def test_terms_are_formed_once_when_first_read(self, monkeypatch):
        decoded = []
        terms = Packing.terms
        monkeypatch.setattr(Packing, "terms", lambda *args: decoded.append(1) or terms(*args))
        packing = Packing(3, 4)
        p = packing.mpoly({packing.key((1, 2, 0)): 3, packing.key((0, 0, 4)): -1}, 2, "xyz")
        assert (p.term_count(), p.is_zero(), p.total_degree(), decoded) == (2, False, 4, [])
        assert str(p) == "-1/2*z^4 + 3/2*x*y^2" and p.terms is p.terms and decoded == [1]


class TestInverse:
    def test_round_trip(self):
        rng = SplitMix64(59)
        found = 0
        while found < 5:
            m = random_scalar_mat(rng, 4)
            if det(m) == 0:
                continue
            found += 1
            assert m @ inverse(m) == Mat.identity(4)

    def test_one_elimination_decides_and_inverts(self):
        # oracle: the determinant; singular matrices are P^T diag(d, 0) P
        rng = SplitMix64(2010)
        for n in range(1, 6):
            seen = set()
            for k in range(16):
                if k % 2:
                    d = [rng.int_between(-3, 3) for _ in range(n - 1)] + [0]
                    p = random_scalar_mat(rng, n, -2, 2)
                    m = p.transpose() @ Mat.from_ints([[d[i] if i == j else 0 for j in range(n)]
                                                       for i in range(n)]) @ p
                else:
                    m = random_scalar_mat(rng, n, -3, 3)
                    m = m + m.transpose()
                got = inverse_or_none(m)
                regular = det_bareiss(m) != 0
                assert (got is not None) == regular == (mat_rank(m) == n)
                if regular:
                    got = over(*got)
                    assert m @ got == Mat.identity(n) == got @ m
                seen.add(regular)
            assert seen == {True, False}

    def test_integer_inverse_in_lowest_terms(self):
        # oracle: Gauss-Jordan on [M | I] in Fractions; row i is scaled by
        # 1 / (i + 2), so the rows' denominators differ and d_i != 1
        rng = SplitMix64(2020)
        regular = singular = 0
        for n in range(7):
            for _ in range(24):
                m = Mat([[x / (i + 2) for x in row]
                         for i, row in enumerate(random_rational_rows(rng, n, n))])
                got = inverse_or_none(m)
                assert (got is None) == (det_bareiss(m) == 0)
                if got is None:
                    singular += 1
                    continue
                regular += 1
                q, s = got
                assert type(s) is int and s > 0 and all(type(x) is int for row in q for x in row)
                assert math.gcd(s, *(x for row in q for x in row)) == 1
                aug = rref_by_fractions([list(row) + [Fraction(int(i == j)) for j in range(n)]
                                         for i, row in enumerate(m.data)])
                assert aug.pivots == list(range(n))
                assert over(q, s).data == tuple(tuple(row[n:]) for row in aug.rows)
        assert regular > 40 and singular > 40

    def test_singular_raises(self):
        from jordanet.errors import PreconditionError

        with pytest.raises(PreconditionError):
            inverse(Mat.from_ints([[1, 2], [2, 4]]))
