import json
from fractions import Fraction
from pathlib import Path

import pytest

from jordanet.catalog import canonical, catalog_ids
from jordanet.classify import NET_LABELS
from jordanet.errors import PreconditionError
from jordanet.exact import frac_str
from jordanet.io import parse_space_data
from jordanet.jordan import (
    _doubled_product,
    check_reciprocal_identity,
    is_associative,
    is_jordan,
    jordan_closure,
    peirce,
    rad_square_dim,
    radical,
    structure_constants,
)
from jordanet.linalg import (
    Echelon,
    Mat,
    det,
    express_in_rows,
    int_matmul,
    inverse,
    inverse_or_none,
    rref,
)
from jordanet.prng import SplitMix64, derive_seed
from jordanet.spaces import (
    MatSpace,
    congruence_transform,
    contains,
    find_invertible,
    is_regular,
    make_space,
    sample_congruent,
    sym_dim,
    sym_pairs,
    unit_point,
    unvectorize,
    vectorize,
)
from oracles import (
    basis_products_by_fractions,
    closure_space,
    integer_matrix,
    is_associative_by_unit_vectors,
    jordan_product_by_fractions,
    multiply_coords_by_fractions,
    rad_square_dim_by_fractions,
    radical_by_fractions,
    residue_mod_space,
    zero_mat,
)


def E(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    m[j - 1][i - 1] = 1
    return Mat.from_ints(m)


def diag(*vals):
    n = len(vals)
    return Mat.from_ints([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def antidiag(n):
    return Mat.from_ints([[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])


def intro_L1():
    bw = Mat.from_ints([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return make_space(4, [E(4, 1, 1), E(4, 1, 2), E(4, 2, 2), bw])


def intro_L2(flip=False):
    s = 1 if flip else -1
    bw = Mat.from_ints([
        [0, 0, 0, 1],
        [0, 0, s, 0],
        [0, s, 0, 0],
        [1, 0, 0, 0],
    ])
    bx = diag(1, 0, 1, 0)
    by = Mat.from_ints([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    bz = diag(0, 1, 0, 1)
    return make_space(4, [bx, by, bz, bw])


def full_space(n):
    return make_space(n, [E(n, i + 1, j + 1) for i, j in sym_pairs(n)])


def net_rank8():
    bx = Mat.from_ints([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    by = diag(1, -1, 0, 0)
    bz = Mat.from_ints([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    return make_space(4, [bx, by, bz])


def spin_net():
    # 1_2 (x) S^2: two identical 2x2 blocks
    bx = diag(1, 0, 1, 0)
    by = Mat.from_ints([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    bz = diag(0, 1, 0, 1)
    return make_space(4, [bx, by, bz])


def fraction_product(x, y, uinv):
    """(A + A^T) / 2 with A = X U^-1 Y, entry by entry on Fractions: the
    oracle for the integer Jordan products."""
    n = x.rows
    xu = [[sum(x[i, k] * uinv[k, j] for k in range(n)) for j in range(n)] for i in range(n)]
    a = [[sum(xu[i][k] * y[k, j] for k in range(n)) for j in range(n)] for i in range(n)]
    return Mat([[Fraction(a[i][j] + a[j][i], 2) for j in range(n)] for i in range(n)])


def jordan_product(x, y, u):
    """X * Y with unit U, by the Fraction oracle on U^-1 = Q / s."""
    return jordan_product_by_fractions(x, y, *inverse_or_none(u))


def tensor_of(a):
    """The structure tensor as Fractions: c / den."""
    return tuple(tuple(tuple(Fraction(x, a.den) for x in vec) for vec in row) for row in a.c)


def random_rational_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.int_between(-4, 4), rng.int_between(1, 5))
    return Mat(m)


class TestJordanProduct:
    def test_idempotent(self):
        u = Mat.identity(2)
        assert jordan_product(E(2, 1, 1), E(2, 1, 1), u) == E(2, 1, 1)

    def test_orthogonal_idempotents(self):
        u = Mat.identity(2)
        assert jordan_product(E(2, 1, 1), E(2, 2, 2), u) == zero_mat(2, 2)

    def test_nilpotent_for_antidiagonal_unit(self):
        u = E(2, 1, 2)
        assert jordan_product(E(2, 1, 1), E(2, 1, 1), u) == zero_mat(2, 2)

    def test_singular_unit_rejected(self):
        # a singular U has no inverse Q / s to take the product with
        assert inverse_or_none(E(2, 1, 1)) is None

    def test_unit_law_and_commutativity(self):
        rng = SplitMix64(3)
        u = Mat.from_ints([[2, 1], [1, 1]])
        for _ in range(10):
            x = Mat.from_ints([[rng.int_between(-3, 3) for _ in range(2)] for _ in range(2)])
            x = (x + x.transpose()).scale(Fraction(1, 2))
            y = Mat.from_ints([[rng.int_between(-3, 3) for _ in range(2)] for _ in range(2)])
            y = (y + y.transpose()).scale(Fraction(1, 2))
            assert jordan_product(u, x, u) == x
            assert jordan_product(x, y, u) == jordan_product(y, x, u)

    def test_matches_the_two_term_formula(self):
        rng = SplitMix64(17)
        for n in (2, 3, 4):
            for _ in range(6):
                x, y, u = (random_symmetric(rng, n) for _ in range(3))
                if det(u) == 0:
                    continue
                uinv = inverse(u)
                two_terms = (x @ uinv @ y + y @ uinv @ x).scale(Fraction(1, 2))
                assert jordan_product(x, y, u) == two_terms


    def test_integer_products_match_the_fraction_product(self):
        rng = SplitMix64(2011)
        tried = 0
        for n in (1, 2, 3, 4):
            for _ in range(8):
                x, y, u = (random_rational_symmetric(rng, n) for _ in range(3))
                inv = inverse_or_none(u)
                if inv is None:
                    continue
                tried += 1
                (q, s), (xi, dx), (yi, dy) = inv, integer_matrix(x), integer_matrix(y)
                want = fraction_product(x, y, Mat([[Fraction(v, s) for v in row] for row in q]))
                assert jordan_product(x, y, u) == want
                # the closure's product: 2s (X * Y) for integer X, Y and U^-1 = Q / s
                pairs = sym_pairs(n)
                doubled = _doubled_product(int_matmul(xi, q), yi, pairs)
                assert doubled == [2 * s * dx * dy * v for v in vectorize(want)]
        assert tried > 20

    def test_unit_inverse_is_kept_as_integers(self):
        # the identity is not in this space and its second basis element is
        # singular: the unit is the sweep point B_1 = diag(1/3, 2/3, 1)
        sp = make_space(3, [diag(1, 2, 3).scale(Fraction(1, 3)), diag(1, 1, 0).scale(Fraction(1, 2))])
        unit = unit_point(sp)
        q, s = unit.inverse
        assert unit.mat == sp.basis[0] and s == 2
        assert all(type(v) is int for row in q for v in row)
        assert Mat([[Fraction(v, s) for v in row] for row in q]) == inverse(unit.mat)
        assert list(unit.coords) == contains(sp, unit.mat) == [1, 0]
        assert unit_point(sp) is unit and unit.inverse is unit.inverse

    def test_unit_keeps_the_coordinates_it_was_found_at(self):
        # the sweep finds the 3b1 image's unit at integer coordinates and the
        # unit keeps that tuple of ints; a space holding the identity keeps
        # the identity test's Fractions.  Both equal a membership test's answer
        sp = sample_congruent(canonical("s4/3b1"), 7)
        u, coords = find_invertible(sp)
        unit = unit_point(sp)
        assert unit.mat is u and unit.coords is coords
        assert all(type(c) is int for c in coords) and list(coords) == contains(sp, u)
        sp = intro_L1()
        unit = unit_point(sp)
        assert unit.mat == Mat.identity(4) and all(type(c) is Fraction for c in unit.coords)
        assert list(unit.coords) == contains(sp, unit.mat)


class TestIsJordan:
    def test_intro_spaces(self):
        ok1, _ = is_jordan(intro_L1())
        ok2, _ = is_jordan(intro_L2())
        assert ok1 and ok2

    def test_sign_flip_breaks_it(self):
        ok, witness = is_jordan(intro_L2(flip=True))
        assert not ok
        assert witness is not None
        assert contains(intro_L2(flip=True), witness.product) is None
        assert any(x != 0 for row in witness.residue.data for x in row)

    def test_full_space(self):
        for n in (2, 3):
            ok, _ = is_jordan(full_space(n))
            assert ok

    def test_default_unit(self):
        ok, _ = is_jordan(intro_L1())
        assert ok

    def test_not_regular(self):
        with pytest.raises(PreconditionError) as err:
            is_jordan(make_space(2, [E(2, 1, 1)]))
        assert err.value.code == "NOT_REGULAR"

    def test_unit_choice_does_not_matter(self):
        # one invertible U suffices: the answer for the space's own unit is
        # the Fraction oracle's at several other units
        from jordanet.spaces import integer_sweep

        for space, expected in [(intro_L1(), True), (intro_L2(), True),
                                (intro_L2(flip=True), False), (spin_net(), True)]:
            assert is_jordan(space)[0] is expected
            units = 0
            for tup in integer_sweep(space.m):
                u = space.element(tup)
                if det(u) == 0 or u == unit_point(space).mat:
                    continue
                units += 1
                got = basis_products_by_fractions(space, u)
                assert isinstance(got[0], tuple) is expected  # a tensor, or a witness (i, j, ...)
                if units >= 4:
                    break


class TestClosure:
    def test_fixed_point(self):
        sp = intro_L1()
        assert closure_space(jordan_closure(sp), sp.n) == sp

    def test_closure_fills_everything(self):
        sp = net_rank8()
        clo = closure_space(jordan_closure(sp), sp.n)
        assert clo.m == 10
        assert clo == full_space(4)

    def test_powers_of_three_eigenvalues(self):
        sp = make_space(3, [Mat.identity(3), diag(1, 2, 3)])
        clo = closure_space(jordan_closure(sp), sp.n)
        assert clo.m == 3
        assert contains(clo, diag(1, 4, 9)) is not None

    def test_unit_independence_on_catalog_like_spaces(self):
        # the closure's dimension for the space's own unit is the round
        # oracle's at several other units
        from jordanet.spaces import integer_sweep

        for sp in (net_rank8(), spin_net(), intro_L2(flip=True)):
            dim = jordan_closure(sp).rank
            units = 0
            for tup in integer_sweep(sp.m):
                u = sp.element(tup)
                if det(u) == 0 or u == unit_point(sp).mat:
                    continue
                units += 1
                assert len(closure_by_rounds(sp, u)) == dim
                if units >= 3:
                    break


    def test_only_the_rank_is_formed(self):
        # the closure's callers read its rank: no reduced, canonical or Fraction rows
        grew = 0
        for sp in (net_rank8(), spin_net(), intro_L1(), intro_L2(flip=True),
                   make_space(3, [Mat.identity(3), diag(1, 2, 3)])):
            ech = jordan_closure(sp)
            assert isinstance(ech, Echelon) and ech.cols == sym_dim(sp.n)
            assert ech._ff is None and ech._rows is None and ech._int_rows is None
            assert ech.rank == closure_space(ech, sp.n).m >= sp.m
            grew += ech.rank > sp.m
        assert grew == 3


def closure_by_rounds(space, u):
    """Echelon rows of the closure by saturation rounds: adjoin every pairwise
    product of the current basis (``fraction_product``), re-echelonize, and repeat
    until a round adds nothing.  The oracle for ``jordan_closure``."""
    uinv = inverse(u)
    rows = rref([vectorize(b) for b in space.basis]).rows
    while True:
        basis = [unvectorize(space.n, r) for r in rows]
        products = [fraction_product(x, y, uinv) for i, x in enumerate(basis) for y in basis[i:]]
        grown = rref(rows + [vectorize(p) for p in products])
        if grown.rank == len(rows):
            return rows
        rows = grown.rows


def golden_spaces():
    """The seeded random spaces recorded with their analyze goldens."""
    cases = json.loads((Path(__file__).parent / "data" / "cli_goldens.json").read_text())
    return [parse_space_data(c["space"]) for c in cases if "space" in c]


def closure_oracle_spaces():
    spaces = [intro_L1(), intro_L2(flip=True), net_rank8(), spin_net()]
    spaces += [canonical(cid) for cid in catalog_ids() if isinstance(canonical(cid), MatSpace)]
    spaces += golden_spaces()
    rng = SplitMix64(99)
    for n in (3, 4, 5):
        made = 0
        while made < 4:
            m = rng.int_between(2, sym_dim(n) - 2)
            try:
                sp = make_space(n, [random_symmetric(rng, n) for _ in range(m)])
            except PreconditionError:
                continue
            spaces.append(sp)
            made += 1
    return [sp for sp in spaces if is_regular(sp)]


def has_fractional_unit(space):
    """Whether the space's own unit (``find_invertible``) has an entry that
    is not an integer."""
    return any(v.denominator > 1 for row in find_invertible(space)[0].data for v in row)


def rational_unit_spaces(seed, spaces):
    """Seeded congruence images of the spaces, each basis element then scaled
    by its own rational over a prime denominator: rational bases without the
    identity, whose own units are not integer matrices."""
    rng = SplitMix64(seed)
    out = []
    for k, sp in enumerate(spaces):
        image = sample_congruent(sp, derive_seed(seed, k))
        out.append(make_space(sp.n, [b.scale(Fraction(rng.nonzero_int_between(-9, 9),
                                                       (11, 13, 17, 19)[rng.int_between(0, 3)]))
                                     for b in image.basis]))
    assert all(has_fractional_unit(sp) for sp in out)
    return out


def rational_closure_cases():
    """Rational bases whose own unit is not an integer matrix: rescaled
    congruence images of catalog and golden spaces, and seeded random
    spaces."""
    rng = SplitMix64(2021)
    cases = rational_unit_spaces(2021, closure_oracle_spaces()[:12])
    for n in (2, 3, 4):
        made = 0
        while made < 4:
            m = rng.int_between(2, sym_dim(n) - 1)
            try:
                sp = make_space(n, [random_rational_symmetric(rng, n) for _ in range(m)])
            except PreconditionError:
                continue
            if is_regular(sp) and has_fractional_unit(sp):
                cases.append(sp)
                made += 1
    return cases


def block_congruence_image(rng, sizes):
    """A seeded congruence image P^T L P (P = 5I + entries in {-2..2}) of the
    span L of three random elements of Sym(sizes[0]) (+) Sym(sizes[1]) (+) ...:
    its closure is the image of the whole block algebra."""
    n = sum(sizes)
    basis = []
    for _ in range(3):
        m, start = [[0] * n for _ in range(n)], 0
        for k in sizes:
            for i in range(start, start + k):
                for j in range(i, start + k):
                    m[i][j] = m[j][i] = rng.int_between(-3, 3)
            start += k
        basis.append(Mat.from_ints(m))
    p = Mat.from_ints([[5 * (i == j) + rng.int_between(-2, 2) for j in range(n)] for i in range(n)])
    return congruence_transform(make_space(n, basis), p)


class TestClosureOracle:
    def test_same_echelon_rows_as_the_round_based_closure(self):
        for sp in closure_oracle_spaces():
            clo = closure_space(jordan_closure(sp), sp.n)
            assert [vectorize(b) for b in clo.basis] == closure_by_rounds(sp, unit_point(sp).mat)
            assert make_space(clo.n, clo.basis) == clo  # built unchecked, as make_space would accept

    def test_rational_bases_and_a_non_integer_unit(self):
        grew = 0
        for sp in rational_closure_cases():
            clo = closure_space(jordan_closure(sp), sp.n)
            assert [vectorize(b) for b in clo.basis] == closure_by_rounds(sp, unit_point(sp).mat)
            assert make_space(clo.n, clo.basis) == clo
            grew += clo.m > sp.m
        assert grew > 10

    def test_congruence_images_of_block_algebras_in_s6(self):
        rng = SplitMix64(606)
        for sizes, dim in (((3, 3), 12), ((4, 2), 13)):
            sp = block_congruence_image(rng, sizes)
            clo = closure_space(jordan_closure(sp), sp.n)
            assert clo.m == dim
            assert [vectorize(b) for b in clo.basis] == closure_by_rounds(sp, unit_point(sp).mat)

    def test_a_dense_net_in_s8_closes_to_everything(self):
        # the round oracle takes seconds here: the rank alone is checked
        rng = SplitMix64(808)
        sp = make_space(8, [random_symmetric(rng, 8) for _ in range(3)])
        assert jordan_closure(sp).rank == 36


class TestStructureConstants:
    def test_spin_relations(self):
        # U = 1_4, X = 1_2 (x) diag(1, -1), Y = 1_2 (x) offdiag: X*X = U, Y*Y = U, X*Y = 0
        u = Mat.identity(4)
        x = diag(1, -1, 1, -1)
        y = Mat.from_ints([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        sp = make_space(4, [u, x, y])
        a = structure_constants(sp)
        assert a.multiply_coords([0, 1, 0], [0, 1, 0]) == [1, 0, 0]
        assert a.multiply_coords([0, 0, 1], [0, 0, 1]) == [1, 0, 0]
        assert a.multiply_coords([0, 1, 0], [0, 0, 1]) == [0, 0, 0]

    def test_span_of_identity(self):
        sp = make_space(3, [Mat.identity(3)])
        a = structure_constants(sp)
        assert tensor_of(a) == (((Fraction(1),),),)

    def test_not_jordan_raises(self):
        with pytest.raises(PreconditionError) as err:
            structure_constants(intro_L2(flip=True))
        assert err.value.code == "NOT_JORDAN"

    def test_tensor_symmetry(self):
        a = structure_constants(intro_L1())
        m = a.dim
        for i in range(m):
            for j in range(m):
                assert a.c[i][j] == a.c[j][i]

    def test_tensor_multiplies_like_the_matrices(self):
        for sp in jordan_algebras():
            a = structure_constants(sp)
            rng = SplitMix64(11)
            for _ in range(3):
                x = [rng.int_between(-3, 3) for _ in range(a.dim)]
                y = [rng.int_between(-3, 3) for _ in range(a.dim)]
                assert a.space.element(a.multiply_coords(x, y)) == \
                    jordan_product(a.space.element(x), a.space.element(y), a.unit.mat)

    def test_basis_products_match_the_fraction_product(self):
        # rational bases whose units are not integral; the tensor, and a
        # witness's product and residue, keep the true scale
        for sp in rational_unit_spaces(2012, jordan_algebras() + [intro_L2(flip=True)]):
            uinv = inverse(unit_point(sp).mat)
            ok, witness = is_jordan(sp)
            if not ok:
                want = fraction_product(sp.basis[witness.i], sp.basis[witness.j], uinv)
                assert witness.product == want
                assert witness.residue == residue_mod_space(sp, want)
                continue
            tensor = tensor_of(structure_constants(sp))
            for i in range(sp.m):
                for j in range(sp.m):
                    assert sp.element(tensor[i][j]) == fraction_product(sp.basis[i], sp.basis[j], uinv)

    def test_computed_once_per_space(self):
        sp = canonical_3b1()
        a = structure_constants(sp)
        assert is_jordan(sp) == (True, None)
        assert structure_constants(sp) is a and unit_point(sp).products is a
        assert structure_constants(canonical_3b1()) is not a

    def test_witness_matches_not_jordan_error(self):
        sp = intro_L2(flip=True)
        ok, witness = is_jordan(sp)
        assert not ok
        with pytest.raises(PreconditionError) as err:
            structure_constants(sp)
        assert f"({witness.i}, {witness.j})" in str(err.value)
        # the witness is the first escaping product in (i, j) order, i <= j
        for i in range(sp.m):
            for j in range(i, sp.m):
                if (i, j) == (witness.i, witness.j):
                    break
                p = jordan_product(sp.basis[i], sp.basis[j], Mat.identity(4))
                assert contains(sp, p) is not None


class TestFractionOracle:
    """The integer tensor and the invariants read off it against the Fraction
    route: each basis product a Fraction matrix located by ``contains``, and
    the radical, associativity and the radical's square on that tensor."""

    def test_default_units_of_the_catalog_algebras(self):
        for sp in jordan_algebras():
            self.compare(sp)

    def test_rational_bases_and_units(self):
        closed = 0
        for sp in rational_unit_spaces(2013, jordan_algebras() + [intro_L2(flip=True), net_rank8()]):
            closed += self.compare(sp)
        assert closed == len(jordan_algebras())

    @staticmethod
    def compare(sp) -> bool:
        want = basis_products_by_fractions(sp, unit_point(sp).mat)
        ok, witness = is_jordan(sp)
        if not ok:
            assert tuple(witness) == want
            return False
        a = structure_constants(sp)
        assert tensor_of(a) == want
        assert radical(a) == radical_by_fractions(want)
        assert is_associative(a) == is_associative_by_unit_vectors(want)
        assert rad_square_dim(a) == rad_square_dim_by_fractions(want)
        rng = SplitMix64(sp.m)
        for _ in range(3):
            x, y = ([Fraction(rng.int_between(-5, 5), rng.int_between(1, 4)) for _ in range(sp.m)]
                    for _ in range(2))
            assert a.multiply_coords(x, y) == multiply_coords_by_fractions(want, x, y)
        return True


def canonical_3b1():
    return make_space(4, [antidiag(4), E(4, 1, 1), E(4, 2, 2)])


def canonical_3a():
    b1 = Mat.from_ints([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
    return make_space(4, [b1, E(4, 1, 2), E(4, 1, 1)])


def canonical_2b():
    b1 = Mat.from_ints([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    b2 = Mat.from_ints([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return make_space(4, [b1, b2, E(4, 1, 3)])


def canonical_1a():
    return make_space(4, [diag(1, 1, 0, 0), E(4, 3, 3), E(4, 4, 4)])


def jordan_algebras():
    """Closed catalog spaces, plus one congruence image of each S^4 net."""
    ids = ["dim4/L1", "dim4/L2", "nets/L1", "nets/L2", "copencil/L1", "copencil/L2",
           "s5/Lstar"]
    nets = [canonical(f"s4/{label}") for label in NET_LABELS]
    return [canonical(cid) for cid in ids] + nets + [sample_congruent(sp, 5) for sp in nets]


def is_ideal(a, coords):
    """Every product of a spanning vector with a basis element stays in the span."""
    for r in coords:
        for j in range(a.dim):
            basis_j = [Fraction(int(t == j)) for t in range(a.dim)]
            prod = a.multiply_coords(r, basis_j)
            if any(c != 0 for c in prod) and express_in_rows(coords, prod) is None:
                return False
    return True


def is_nilpotent(a, coords):
    """X^(k+1) = 0 for each spanning vector X, k the span's dimension."""
    for r in coords:
        power = list(r)
        for _ in range(len(coords)):
            power = a.multiply_coords(power, r)
        if any(c != 0 for c in power):
            return False
    return True


class TestJordanAxioms:
    """The unit law and the Jordan identity (X^2 * (X * Y) = X * (X^2 * Y)).

    Both are theorems here, because X -> U^{-1} X embeds the product into the
    special Jordan algebra (AB + BA) / 2; these tests guard the implementation.
    """

    def test_on_catalog_algebras_and_images(self):
        for k, sp in enumerate(jordan_algebras()):
            a = structure_constants(sp)
            rng = SplitMix64(k)
            u = a.unit.mat
            for _ in range(4):
                x = a.space.element([rng.int_between(-4, 4) for _ in range(a.dim)])
                y = a.space.element([rng.int_between(-4, 4) for _ in range(a.dim)])
                assert jordan_product(u, x, u) == x
                x2 = jordan_product(x, x, u)
                lhs = jordan_product(x2, jordan_product(x, y, u), u)
                rhs = jordan_product(x, jordan_product(x2, y, u), u)
                assert lhs == rhs

    def test_unit_inverse_embeds_into_the_special_product(self):
        rng = SplitMix64(5)
        u = Mat.from_ints([[2, 1, 0], [1, 1, 0], [0, 0, -1]])
        uinv = inverse(u)
        for _ in range(5):
            x, y = (random_symmetric(rng, 3) for _ in range(2))
            a, b = uinv @ x, uinv @ y
            assert uinv @ jordan_product(x, y, u) == (a @ b + b @ a).scale(Fraction(1, 2))


def random_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.int_between(-3, 3)
    return Mat.from_ints(m)


class TestRadical:
    def test_semisimple_diagonal(self):
        a = structure_constants(canonical_1a())
        assert radical(a) == []

    def test_spin_factor_semisimple(self):
        a = structure_constants(spin_net())
        assert len(radical(a)) == 0

    def test_two_dim_radical(self):
        a = structure_constants(canonical_3b1())
        coords = radical(a)
        assert len(coords) == 2
        assert is_ideal(a, coords)
        assert is_nilpotent(a, coords)

    def test_radical_is_a_nilpotent_ideal(self):
        # the trace-form kernel agrees with the nilpotent-ideal definition
        for sp in jordan_algebras():
            a = structure_constants(sp)
            coords = radical(a)
            assert is_ideal(a, coords)
            assert is_nilpotent(a, coords)

    def test_ideal_and_nilpotency_checks_detect_failures(self):
        a = structure_constants(canonical_3b1())
        unit = list(a.unit.coords)
        assert not is_ideal(a, [radical(a)[0], unit])
        assert not is_nilpotent(a, [unit])

    def test_one_dim_radical(self):
        a = structure_constants(canonical_2b())
        assert len(radical(a)) == 1


class TestAssociativity:
    def test_diagonal_net_is_associative(self):
        assert is_associative(structure_constants(canonical_1a()))

    def test_spin_net_is_not(self):
        assert not is_associative(structure_constants(spin_net()))

    def test_2b_is_not(self):
        assert not is_associative(structure_constants(canonical_2b()))


class TestRadSquare:
    def test_3a_has_square(self):
        assert rad_square_dim(structure_constants(canonical_3a())) == 1

    def test_3b_variants_square_to_zero(self):
        assert rad_square_dim(structure_constants(canonical_3b1())) == 0

    def test_semisimple_zero(self):
        assert rad_square_dim(structure_constants(canonical_1a())) == 0


class TestPeirce:
    def test_full_s3_diagonal_idempotents(self):
        sp = full_space(3)
        a = structure_constants(sp)
        pieces = peirce(a, [E(3, 1, 1), E(3, 2, 2), E(3, 3, 3)])
        assert len(pieces) == 6
        assert all(len(v) == 1 for v in pieces.values())
        assert contains(make_space(3, pieces[(0, 1)]), E(3, 1, 2)) is not None

    def test_single_idempotent(self):
        sp = intro_L1()
        a = structure_constants(sp)
        pieces = peirce(a, [Mat.identity(4)])
        assert len(pieces[(0, 0)]) == a.dim

    def test_2a1_dims(self):
        # Diag(x J2 + y E11, z 1_2) with orthogonal idempotents Diag(J2, 0), Diag(0, 1_2)
        j2 = Mat.from_ints([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        sp = make_space(4, [j2, E(4, 1, 1), diag(0, 0, 1, 1)])
        a = structure_constants(sp)
        assert a.unit.mat == Mat.from_ints([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        x1 = j2
        x2 = diag(0, 0, 1, 1)
        pieces = peirce(a, [x1, x2])
        dims = (len(pieces[(0, 0)]), len(pieces[(0, 1)]), len(pieces[(1, 1)]))
        assert dims == (2, 0, 1)

    def test_bad_idempotents_rejected(self):
        sp = full_space(3)
        a = structure_constants(sp)
        with pytest.raises(PreconditionError) as err:
            peirce(a, [E(3, 1, 1), E(3, 2, 2)])  # do not sum to the unit
        assert err.value.code == "NOT_ORTHOGONAL_IDEMPOTENTS"

    def test_pieces_are_joint_eigenspaces(self):
        # P^T (S^2 + S^1) P with its unit U = P^T P, not the identity, last, so
        # that U is the first sweep point, and the idempotents P^T E_ii P: in
        # this basis the multiplication operators are not symmetric
        p = Mat.from_ints([[1, 1, 0], [0, 1, 2], [1, 0, 1]])
        pt = p.transpose()
        u = pt @ p
        sp = make_space(3, [pt @ E(3, 1, 1) @ p, pt @ E(3, 1, 2) @ p, pt @ E(3, 2, 2) @ p, u])
        a = structure_constants(sp)
        assert a.unit.mat == u != Mat.identity(3)
        xs = [pt @ E(3, i, i) @ p for i in (1, 2, 3)]
        pieces = peirce(a, xs)
        assert {k: len(v) for k, v in pieces.items()} == {
            (0, 0): 1, (0, 1): 1, (0, 2): 0, (1, 1): 1, (1, 2): 0, (2, 2): 1}
        for (i, j), piece in pieces.items():
            for y in piece:
                if i == j:
                    assert jordan_product(xs[i], y, u) == y
                else:
                    assert jordan_product(xs[i], y, u).scale(2) == y
                    assert jordan_product(xs[j], y, u).scale(2) == y

    @pytest.mark.parametrize("idempotents, message", [
        ([E(3, 1, 1).scale(2), E(3, 2, 2), E(3, 3, 3)], "not idempotent"),
        ([E(3, 1, 1), E(3, 1, 1) + E(3, 2, 2), E(3, 3, 3)], "not orthogonal"),
    ])
    def test_idempotents_are_checked_in_coordinates(self, idempotents, message):
        a = structure_constants(full_space(3))
        with pytest.raises(PreconditionError, match=message):
            peirce(a, idempotents)

    def test_idempotent_outside_the_algebra(self):
        a = structure_constants(intro_L1())
        with pytest.raises(PreconditionError, match="outside the algebra"):
            peirce(a, [E(4, 1, 3), Mat.identity(4)])


class TestReciprocal:
    def test_intro_space_passes(self):
        ok, _ = check_reciprocal_identity(intro_L1())
        assert ok

    def test_flipped_fails_with_witness(self):
        ok, witness = check_reciprocal_identity(intro_L2(flip=True))
        assert not ok
        assert witness is not None and det(witness) != 0

    def test_identity_span(self):
        ok, _ = check_reciprocal_identity(make_space(3, [Mat.identity(3)]))
        assert ok


class TestConditionCoherence:
    @staticmethod
    def conditions_agree(sp):
        jordan_ok, _ = is_jordan(sp)
        recip_ok, _ = check_reciprocal_identity(sp)
        return jordan_ok == recip_ok == (closure_space(jordan_closure(sp), sp.n).m == sp.m)

    def test_three_conditions_agree(self):
        spaces = [intro_L1(), intro_L2(), intro_L2(flip=True), net_rank8(), spin_net()]
        for sp in spaces:
            for seed in range(4):
                assert self.conditions_agree(sample_congruent(sp, seed))

    def test_three_conditions_agree_on_the_analyze_goldens(self):
        # the sampled check is the oracle for the reciprocal_ok and
        # closure_dim that analyze reads off is_jordan
        spaces = [canonical(cid) for cid in catalog_ids() if not cid.startswith("degen/")]
        regular = [sp for sp in spaces + golden_spaces() if is_regular(sp)]
        assert len(regular) == 25
        for sp in regular:
            assert self.conditions_agree(sp)


class TestCodimensionBound:
    def test_proper_closures_have_large_codimension(self):
        rng = SplitMix64(2024)
        for n in (3, 4, 5):
            total = sym_dim(n)
            checked = 0
            attempts = 0
            while checked < 100 and attempts < 1000:
                attempts += 1
                m = rng.int_between(1, total - 1)
                basis = []
                try:
                    rows = []
                    for _ in range(m):
                        cand = [[0] * n for _ in range(n)]
                        for i in range(n):
                            for j in range(i, n):
                                cand[i][j] = cand[j][i] = rng.int_between(-2, 2)
                        basis.append(Mat.from_ints(cand))
                    sp = make_space(n, basis)
                    clo = closure_space(jordan_closure(sp), sp.n)
                except PreconditionError:
                    continue
                checked += 1
                if clo.m < total:
                    assert total - clo.m >= n - 1


def structure_to_json(a) -> dict:
    """JSON-ready dict of a structure: basis, unit coordinates, structure
    tensor, and the radical when it has been computed."""
    return {
        "n": a.space.n,
        "m": a.dim,
        "basis": [[[frac_str(b[i, j]) for j in range(a.space.n)]
                   for i in range(a.space.n)] for b in a.space.basis],
        "unit_coordinates": [frac_str(c) for c in a.unit.coords],
        "tensor": [[[frac_str(c) for c in row] for row in plane] for plane in tensor_of(a)],
        "radical_coordinates": None if a._radical is None
        else [[frac_str(c) for c in vec] for vec in a._radical],
    }


class TestSerialization:
    def test_structure_round_trips_through_json(self):
        import json

        a = structure_constants(spin_net())
        radical(a)  # populate the radical field
        blob = json.dumps(structure_to_json(a), sort_keys=True)
        data = json.loads(blob)
        assert data["m"] == 3 and data["n"] == 4
        # the off-diagonal block element squares to the unit
        assert data["tensor"][1][1] == data["unit_coordinates"]
        assert data["radical_coordinates"] == []
