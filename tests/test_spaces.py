import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from jordanet import spaces
from jordanet.catalog import canonical, catalog_ids
from jordanet.errors import PreconditionError
from jordanet.exact import parse_poly
from jordanet.io import parse_space_data
from jordanet.linalg import Mat, det, frac, frac_str
from jordanet.prng import SplitMix64
from jordanet.spaces import (
    MatSpace,
    congruence_transform,
    contains,
    find_invertible,
    generic_det,
    generic_matrix,
    generic_names,
    grassmann_limit,
    integer_sweep,
    nonzero_sweep,
    is_regular,
    make_space,
    orth_complement,
    plucker,
    sample_congruent,
    sym_dim,
)
from oracles import (
    MPoly,
    by_power,
    congruence_by_fractions,
    constant_value,
    coordinate_rows,
    dense_unit_points,
    det_laplace_by_entries,
    element_by_fractions,
    element_by_scale_and_add,
    family_minors_by_mpoly,
    generic_element,
    generic_element_by_scale_and_add,
    integer_sweep_by_filter,
    laplace_minors_by_entries,
    lift,
    nonzero_sweep_by_filter,
    parse_space_data_by_fractions,
    plucker_by_minors,
    plucker_valuation_by_mpoly,
    rational_spaces,
    substitution_family_by_matrices,
    sweep_for_unit_by_fractions,
    unit_mat,
    zero_mat,
)


def P(s):
    return lift(parse_poly(s))


def proportional(a, b) -> bool:
    """Whether two Pluecker vectors are nonzero multiples of each other."""
    ratio = None
    for key in set(a.values) | set(b.values):
        x, y = a[key], b[key]
        if x == 0 and y == 0:
            continue
        if x == 0 or y == 0:
            return False
        if ratio is None:
            ratio = x / y
        elif x / y != ratio:
            return False
    return ratio is not None


def space_to_json(space: MatSpace) -> dict:
    """The space-file form of a space: integers, or p/q strings."""
    def render(value: Fraction):
        return int(value) if value.denominator == 1 else frac_str(value)

    return {
        "n": space.n,
        "basis": [[[render(b[i, j]) for j in range(space.n)] for i in range(space.n)]
                  for b in space.basis],
    }


def sym(n, entries):
    return Mat.from_ints(entries)


def E(n, i, j):
    """Symmetrized unit: E_ij + E_ji for i != j, E_ii otherwise (1-based)."""
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    m[j - 1][i - 1] = 1
    return Mat.from_ints(m)


def diag(*vals):
    n = len(vals)
    return Mat.from_ints([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def intro_L1():
    # [[x, y, 0, 0], [y, z, 0, 0], [0, 0, w, 0], [0, 0, 0, w]]
    bx = E(4, 1, 1)
    by = E(4, 1, 2)
    bz = E(4, 2, 2)
    bw = Mat.from_ints([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return make_space(4, [bx, by, bz, bw])


def double_conic_net():
    # [[x, y, 0, 0], [y, z, 0, 0], [0, 0, x, y], [0, 0, y, z]]
    bx = diag(1, 0, 1, 0)
    by = Mat.from_ints([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    bz = diag(0, 1, 0, 1)
    return make_space(4, [bx, by, bz])


class TestMakeSpace:
    def test_intro_space(self):
        sp = intro_L1()
        assert (sp.n, sp.m) == (4, 4)

    def test_dependent_basis_rejected(self):
        with pytest.raises(PreconditionError) as err:
            make_space(2, [E(2, 1, 1), E(2, 1, 1)])
        assert err.value.code == "DEPENDENT_BASIS"

    def test_asymmetric_rejected(self):
        raw = Mat.from_ints([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(PreconditionError) as err:
            make_space(3, [raw])
        assert err.value.code == "NOT_SYMMETRIC"


def packed_element(space, names=None) -> Mat:
    """The package's generic element X' / L (``generic_matrix``) as a Mat of
    MPolys."""
    rows, packing, names = generic_matrix(space, 1, names)
    lcm = space.integer_basis()[1]
    return Mat([[packing.mpoly(p, lcm, names) for p in row] for row in rows])


def same_polys(got, want) -> bool:
    """Equal variables and terms, polynomial by polynomial."""
    return [(p.vars, p.terms) for p in got] == [(p.vars, p.terms) for p in want]


def plain_catalog_spaces():
    spaces = [canonical(cid) for cid in catalog_ids()]
    return [sp for sp in spaces if isinstance(sp, MatSpace)]


class TestGenericElement:
    """The packed X' = sum_k t_k B'_k over L against the MPoly element of the
    Fraction basis."""

    def test_diagonal(self):
        sp = make_space(2, [E(2, 1, 1), E(2, 2, 2)])
        g = packed_element(sp)
        assert g[0, 0] == P("t1") and g[1, 1] == P("t2") and g[0, 1] == P("0")

    def test_single_antidiagonal(self):
        sp = make_space(2, [E(2, 1, 2)])
        g = packed_element(sp)
        assert g[0, 1] == P("t1")

    def test_named_variables(self):
        g = packed_element(double_conic_net(), names=("x", "y", "z"))
        assert g[0, 0] == P("x") and g[0, 1] == P("y") and g[1, 1] == P("z")

    def test_matches_scale_and_add(self):
        # seeded rational bases, most entries zero, up to 11 matrices (t10
        # and t11 sort before t2)
        rng = SplitMix64(1509)
        for _ in range(30):
            n, m = rng.int_between(1, 4), rng.int_between(1, 11)
            basis = [Mat([[Fraction(rng.int_between(-2, 2) * rng.int_between(0, 1),
                                    rng.int_between(1, 3)) for _ in range(n)]
                          for _ in range(n)]) for _ in range(m)]
            got = packed_element(MatSpace(n, basis))
            assert got == generic_element_by_scale_and_add(basis) == generic_element(basis)
            assert all(e.vars == tuple(sorted(generic_names(m))) for row in got.data for e in row)
        names = ("z", "x", "y")
        basis = [E(2, 1, 1), E(2, 1, 2), zero_mat(2, 2)]
        assert packed_element(MatSpace(2, basis), names) == \
            generic_element_by_scale_and_add(basis, names)

    def test_one_name_per_matrix(self):
        sp = make_space(2, [E(2, 1, 1), E(2, 2, 2)])
        for names in (("x",), ("x", "y", "z"), ("x", "x")):
            with pytest.raises(PreconditionError) as err:
                generic_matrix(sp, 2, names)
            assert err.value.code == "PARSE_ERROR"


class TestGenericDet:
    def test_double_conic(self):
        d = generic_det(double_conic_net(), names=("x", "y", "z"))
        assert d == P("x^2*z^2 - 2*x*y^2*z + y^4")  # (xz - y^2)^2

    def test_copencil(self):
        # [[x, y, w], [y, z, 0], [w, 0, 0]] has determinant -w^2 z; the
        # names are not sorted, so x takes the top field and sorts second
        sp = make_space(3, [E(3, 1, 1), E(3, 1, 2), E(3, 2, 2), E(3, 1, 3)])
        d = generic_det(sp, names=("x", "y", "z", "w"))
        assert d.vars == ("w", "x", "y", "z") and d == P("-w^2*z")

    def test_default_names(self):
        d = generic_det(double_conic_net())
        assert d.vars == ("t1", "t2", "t3") and d == P("t1^2*t3^2 - 2*t1*t2^2*t3 + t2^4")

    def test_too_few_names(self):
        with pytest.raises(PreconditionError) as err:
            generic_det(double_conic_net(), names=("x", "y"))
        assert err.value.code == "PARSE_ERROR"

    def test_not_regular(self):
        sp = make_space(2, [E(2, 1, 1)])
        assert generic_det(sp).is_zero()
        assert not is_regular(sp)

    def test_matches_the_mpoly_route(self):
        # the entry loops' Laplace determinant of the MPoly element of the
        # Fraction basis; the rational spaces have L in {1, 2, 3, 6}
        for sp in plain_catalog_spaces() + rational_spaces(29):
            for names in (None, ("x", "y", "z", "w", "v", "u")[:sp.m]):
                assert same_polys([generic_det(sp, names)],
                                  [det_laplace_by_entries(generic_element(sp.basis, names))]), \
                    (sp, names)


class TestIntegerBasisOnly:
    def test_polynomial_objects_never_read_the_fraction_basis(self, monkeypatch):
        # generic_det, rank_one_system and plucker read B' and L alone, as
        # chow_matrix and the partition do
        from jordanet.chow import chow_matrix
        from jordanet.classify import generic_multiplicity_partition
        from jordanet.varieties import rank_one_system

        want = canonical("s4/2a2")
        expected = (generic_det(want), rank_one_system(want), plucker(want).values,
                    chow_matrix(want), generic_multiplicity_partition(want))

        def unread(space):
            raise AssertionError("the Fraction basis was read")

        monkeypatch.setattr(MatSpace, "basis", property(unread))
        sp = MatSpace(want.n, ints=want.integer_basis())
        assert generic_det(sp) == expected[0]
        assert rank_one_system(sp) == expected[1]
        assert plucker(sp).values == expected[2]
        assert chow_matrix(sp) == expected[3]
        assert generic_multiplicity_partition(sp) == expected[4] == (3, 1)


def bounded_sweep(m, max_norm):
    """The points of ``integer_sweep(m)`` up to max-norm ``max_norm``."""
    return itertools.takewhile(lambda t: max(map(abs, t)) <= max_norm, integer_sweep(m))


def bounded_sweep_unit(space):
    """The unit as the bounded sweep chose it, its coordinates, and its index
    among the points tried (-1 for the identity): the identity if present,
    else the first invertible point among the first ``_WITNESS_BUDGET`` sweep
    points of max-norm at most n + 1, then the seeded dense points, then the
    rest of those sweep points; None if there is none."""
    ident = Mat.identity(space.n)
    coords = contains(space, ident)
    if coords is not None:
        return ident, tuple(coords), -1
    sweep = bounded_sweep(space.m, space.n + 1)
    points = itertools.chain(itertools.islice(sweep, spaces._WITNESS_BUDGET),
                             dense_unit_points(space), sweep)
    for k, tup in enumerate(points):
        cand = space.element(tup)
        if det(cand) != 0:
            return cand, tup, k
    return None


def regularity_oracle_spaces():
    """Fresh copies of the catalog spaces, the seeded random spaces of the CLI
    goldens, and a few small singular and late-unit spaces."""
    cases = json.loads((Path(__file__).parent / "data" / "cli_goldens.json").read_text())
    out = [parse_space_data(c["space"]) for c in cases if "space" in c]
    for cid in catalog_ids():
        sp = canonical(cid)
        if isinstance(sp, MatSpace):
            out.append(MatSpace(sp.n, sp.basis))
    out.append(make_space(2, [E(2, 1, 1)]))
    out.append(make_space(3, [E(3, 1, 1), E(3, 1, 2), E(3, 2, 2), E(3, 1, 3)]))
    out.append(make_space(4, [E(4, k, k) for k in range(1, 5)]))
    return out


class TestFindInvertible:
    def test_identity_preferred(self):
        u, coords = find_invertible(intro_L1())
        assert u == Mat.identity(4)
        assert list(coords) == [1, 0, 1, 1]

    def test_sweep_small_coordinates(self):
        u, coords = find_invertible(double_conic_net())
        assert det(u) != 0
        assert max(abs(c) for c in coords) <= 2

    def test_not_regular(self):
        with pytest.raises(PreconditionError) as err:
            find_invertible(make_space(2, [E(2, 1, 1)]))
        assert err.value.code == "NOT_REGULAR"

    def test_one_decision_agrees_with_the_determinant_and_the_bounded_sweep(self):
        for sp in regularity_oracle_spaces():
            regular = not generic_det(sp).is_zero()
            assert is_regular(sp) == regular
            expected = bounded_sweep_unit(sp)
            assert (expected is not None) == regular
            if regular:
                assert find_invertible(sp) == expected[:2]

    def test_symbolic_determinant_only_past_the_witness_budget(self, monkeypatch):
        calls = []
        expand = spaces.generic_det
        monkeypatch.setattr(spaces, "generic_det",
                            lambda sp, names=None: calls.append(sp) or expand(sp, names))
        budget_passed = 0
        for sp in regularity_oracle_spaces():
            calls.clear()
            if is_regular(sp):
                find_invertible(sp)
            found = bounded_sweep_unit(sp)
            late = found is None or found[2] >= spaces._WITNESS_BUDGET + spaces._DENSE_POINTS
            budget_passed += late
            assert len(calls) == int(late)
        assert budget_passed >= 2

    def test_sweep_order(self):
        gen = integer_sweep(2)
        seq = [next(gen) for _ in range(8)]
        assert seq[0] == (0, 1)
        assert (1, 0) in seq and (1, 1) in seq
        assert all(max(abs(a), abs(b)) == 1 for a, b in seq)


def random_spaces(seed, count):
    """Seeded spaces in S^3..S^5 with small rational entries over a
    denominator of each basis matrix's own; every third one is singular
    (each basis matrix has a zero last row and column)."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        n = rng.int_between(3, 5)
        m = rng.int_between(2, 4)
        singular = len(out) % 3 == 2
        basis = []
        for _ in range(m):
            den = (1, 2, 3, 5, 7)[rng.int_between(0, 4)]
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n - singular):
                for j in range(i, n - singular):
                    rows[i][j] = rows[j][i] = Fraction(rng.int_between(-3, 3), den)
            basis.append(Mat(rows))
        try:
            out.append(make_space(n, basis))
        except PreconditionError:
            continue
    return out


class TestIntegerSweep:
    """The unit sweep ranks integer candidates and forms one Fraction unit;
    the Fraction sweep it replaced is the oracle."""

    def spaces(self):
        plain = [canonical(cid) for cid in catalog_ids() if not cid.startswith("degen/")]
        plain = [sp for sp in plain if isinstance(sp, MatSpace)]
        images = [sample_congruent(sp, seed) for sp in plain if sp.n == 4 for seed in (1, 2)]
        # diag(t1 / 2, t2, t1 / 2 - t2): invertible first at (1, 1), where
        # the basis cleared matrix by matrix, diag(t1, t2, t1 - t2), is not
        halves = make_space(3, [diag(1, 0, 1).scale(Fraction(1, 2)), diag(0, 1, -1)])
        return plain + images + [halves] + random_spaces(5, 24)

    def test_same_unit_and_coordinates_as_the_fraction_sweep(self):
        outcomes = set()
        for sp in self.spaces():
            got = spaces._sweep_for_unit(MatSpace(sp.n, sp.basis))
            got = None if got is None else (unit_mat(got), got.coords)
            expected = sweep_for_unit_by_fractions(MatSpace(sp.n, sp.basis))
            assert got == expected
            if got is not None:
                # JSON prints Fraction coordinates as strings and ints as ints
                assert [type(c) for c in got[1]] == [type(c) for c in expected[1]]
            outcomes.add("singular" if got is None else
                         "identity" if got[0] == Mat.identity(sp.n) else "sweep")
        assert outcomes == {"singular", "identity", "sweep"}

    def late_unit_spaces(self):
        """Spaces whose first sweep points are singular: the radical nets of
        S^4 and two congruence images of each, an image of Sym(3) + Sym(3)
        (its first 32 sweep points are singular, so a dense point is its
        unit), and the late-unit space of the CLI goldens."""
        nets = [canonical(f"s4/{label}") for label in ("2a1", "2a2", "2b", "3a", "3b1", "3b2")]
        blocks = [E(6, i + 1, j + 1) for s in (0, 3) for i in range(s, s + 3) for j in range(i, s + 3)]
        cases = json.loads((Path(__file__).parent / "data" / "cli_goldens.json").read_text())
        late = [parse_space_data(c["space"]) for c in cases
                if c["argv"][1] == "random_n5_late_unit.json"]
        return (nets + [sample_congruent(sp, seed) for sp in nets for seed in (1, 2)]
                + [sample_congruent(make_space(6, blocks), 3)] + late)

    def test_each_projective_point_is_ranked_once(self, monkeypatch):
        # only points with gcd 1 and a positive first nonzero entry are
        # ranked; the unit and its coordinates are the full sweep's
        ranked = []
        real = spaces._rank
        monkeypatch.setattr(spaces, "_rank", lambda rows: ranked.append(1) or real(rows))
        for sp in self.late_unit_spaces():
            got = spaces._sweep_for_unit(MatSpace(sp.n, sp.basis))
            assert (unit_mat(got), got.coords) == sweep_for_unit_by_fractions(MatSpace(sp.n, sp.basis))
            assert got.coords not in itertools.islice(integer_sweep(sp.m), 6)
        image = MatSpace(4, sample_congruent(canonical("s4/3b1"), 1).basis)  # ranks P, not a sweep point
        ranked.clear()
        assert spaces._sweep_for_unit(image).coords == (1, 0, 0)  # the 9th sweep point
        assert len(ranked) == 5

    def test_element_matches_scale_and_add(self):
        rng = SplitMix64(9)
        for sp in random_spaces(6, 6):
            coords = [Fraction(rng.int_between(-4, 4), rng.int_between(1, 4)) for _ in range(sp.m)]
            assert sp.element(coords) == element_by_scale_and_add(sp, coords)
            assert sp.element([0] * sp.m) == zero_mat(sp.n, sp.n)

    def test_element_on_the_integer_basis_matches_fractions(self):
        # rational bases over unequal denominators; int, Fraction, mixed and
        # all-zero coordinates
        rng = SplitMix64(31)
        spaces = random_spaces(12, 12)
        assert any(len({x.denominator for b in sp.basis for row in b.data for x in row}) > 2
                   for sp in spaces)
        for sp in spaces:
            cases = [[0] * sp.m, [Fraction(0)] * sp.m,
                     [rng.int_between(-4, 4) for _ in range(sp.m)],
                     [Fraction(rng.int_between(-6, 6), rng.int_between(1, 9)) for _ in range(sp.m)],
                     [Fraction(1, 3)] + [rng.int_between(-2, 2) for _ in range(sp.m - 1)]]
            for coords in cases:
                got = sp.element(coords)
                assert got == element_by_fractions(sp, coords), coords
                assert all(type(x) is Fraction for row in got.data for x in row)
                assert got.is_symmetric()


class TestNonzeroSweep:
    def test_same_order_as_filtered_sweep(self):
        # against the package's integer sweep and against the filter over
        # the whole grid {-s..s}^m that both sweeps replaced
        for m in range(1, 7):
            for max_norm in (1, 2, 3):
                filtered = [t for t in bounded_sweep(m, max_norm) if all(t)]
                assert list(nonzero_sweep(m, max_norm)) == filtered, (m, max_norm)
                assert filtered == list(nonzero_sweep_by_filter(m, max_norm)), (m, max_norm)


class TestSweepShells:
    def test_integer_sweep_matches_the_grid_filter(self):
        # shell s forms only its own tuples, in the order of the filter over
        # the whole grid {-s..s}^m
        for m in range(1, 7):
            count = 7 ** m if m < 5 else 20_000  # shells 1..3 in full up to m = 4
            assert (list(itertools.islice(integer_sweep(m), count))
                    == list(itertools.islice(integer_sweep_by_filter(m), count))), m


class TestContains:
    def test_identity_in_intro_space(self):
        coords = contains(intro_L1(), Mat.identity(4))
        assert coords == [1, 0, 1, 1]

    def test_zero_always_present(self):
        assert contains(double_conic_net(), zero_mat(4, 4)) == [0, 0, 0]

    def test_absent(self):
        sp = make_space(2, [E(2, 1, 1)])
        assert contains(sp, E(2, 2, 2)) is None


class TestOrthComplement:
    def test_copencil_complement(self):
        sp = make_space(3, [E(3, 1, 1), E(3, 1, 2), E(3, 2, 2), E(3, 1, 3)])
        comp = orth_complement(sp)
        assert comp.m == 2
        assert contains(comp, E(3, 2, 3)) is not None
        assert contains(comp, E(3, 3, 3)) is not None

    def test_involution_and_dimension(self):
        rng = SplitMix64(101)
        for _ in range(25):
            n = rng.int_between(2, 4)
            total = sym_dim(n)
            m = rng.int_between(1, total - 1)
            basis = []
            while True:
                cand = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        cand[i][j] = cand[j][i] = rng.int_between(-3, 3)
                basis.append(Mat.from_ints(cand))
                try:
                    sp = make_space(n, basis)
                except PreconditionError:
                    basis.pop()
                    continue
                if sp.m == m:
                    break
            comp = orth_complement(sp)
            assert sp.m + comp.m == total
            assert make_space(comp.n, comp.basis) == comp  # built unchecked
            assert orth_complement(comp) == sp


class TestCongruence:
    def test_identity_fixes(self):
        sp = double_conic_net()
        assert congruence_transform(sp, Mat.identity(4)) == sp

    def test_permutation_swap(self):
        sp = make_space(4, [diag(1, 1, 0, 0), diag(0, 0, 1, 0), diag(0, 0, 0, 1)])
        perm = Mat.from_ints([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        out = congruence_transform(sp, perm)
        assert out == make_space(4, [diag(1, 1, 0, 0), diag(0, 0, 0, 1), diag(0, 0, 1, 0)])

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError) as err:
            congruence_transform(double_conic_net(), zero_mat(4, 4))
        assert err.value.code == "SINGULAR_P"

    def test_a_matrix_of_another_size_is_refused(self):
        # on a space in S^4, a P that is not 4 x 4, square or not, is refused
        for p in (Mat.identity(3), Mat.identity(5), zero_mat(4, 3)):
            with pytest.raises(PreconditionError) as err:
                congruence_transform(double_conic_net(), p)
            assert err.value.code == "SIZE_MISMATCH"

    def test_integer_route_matches_the_fraction_products(self):
        # P with entries over unequal denominators, on spaces with rational
        # bases: the image's integer basis (B', L) and Fraction basis are
        # those of the Fraction products P^T B P, cleared
        rng = SplitMix64(4701)
        dens = set()
        for sp in rational_spaces(4701):
            p = Mat([[Fraction(rng.int_between(-3, 3), rng.int_between(1, 5)) for _ in range(sp.n)]
                     for _ in range(sp.n)])
            if det(p) == 0:
                continue
            got, want = congruence_transform(sp, p), congruence_by_fractions(sp, p)
            assert got.integer_basis() == want.integer_basis()
            assert got.basis == want.basis
            assert got == want and (got.n, got.m) == (sp.n, sp.m)
            dens.add(got.integer_basis()[1])
        assert len(dens) > 10  # the images' common denominators vary

    def test_composition(self):
        # with B -> P^T B P, (PQ)^T B (PQ) = Q^T (P^T B P) Q
        sp = double_conic_net()
        p = Mat.from_ints([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        q = Mat.from_ints([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        chained = congruence_transform(congruence_transform(sp, p), q)
        assert congruence_transform(sp, p @ q) == chained

    def test_sample_decides_invertibility_once(self, monkeypatch):
        # one elimination per draw: the inverse that congruence_transform
        # takes decides that P is invertible, with no rank taken before it
        from jordanet.linalg import Echelon

        source, real, calls = canonical("s4/3b1"), Echelon.extend, []
        monkeypatch.setattr(Echelon, "extend", lambda ech, rows: calls.append(1) or real(ech, rows))
        image = sample_congruent(source, 7)
        monkeypatch.undo()
        assert len(calls) == 1
        assert make_space(image.n, image.basis) == image


class TestPlucker:
    def test_count_for_s4_net(self):
        pv = plucker(double_conic_net())
        assert len(pv.values) == 120

    def test_diagonal_net_minors(self):
        sp = make_space(4, [diag(1, 1, 0, 0), E(4, 3, 3), E(4, 4, 4)])
        pv = plucker(sp)
        # columns 0 (=11), 7 (=33), 9 (=44) carry the only nonzero minor
        nz = pv.nonzero()
        assert pv[(0, 7, 9)] != 0
        # column 4 (=22) duplicates column 0's pattern for the first row
        assert pv[(4, 7, 9)] != 0
        assert all(set(k) <= {0, 4, 7, 9} for k in nz)

    def test_basis_rescale_is_projective(self):
        sp = double_conic_net()
        pv1 = plucker(sp)
        rescaled = MatSpace(4, [sp.basis[0].scale(3), sp.basis[1], sp.basis[2]])
        pv2 = plucker(rescaled)
        assert proportional(pv1, pv2)

    def test_nonzero_for_valid_space(self):
        rng = SplitMix64(13)
        for seed in range(5):
            sp = sample_congruent(double_conic_net(), seed)
            assert plucker(sp).nonzero()

    def test_integer_layers_equal_a_determinant_per_minor(self):
        # catalog spaces and their congruence images, and seeded spaces with
        # rational entries, of every dimension m from 1 to 4 in S^3, S^4 and S^5
        spaces = [canonical(cid) for cid in catalog_ids()]
        spaces = [sp for sp in spaces if isinstance(sp, MatSpace)]
        images = [sample_congruent(sp, k) for sp in spaces for k in range(2)]
        assert all(make_space(sp.n, sp.basis) == sp for sp in images)  # built unchecked
        spaces += images
        rng = SplitMix64(2012)
        for n in (3, 4, 5):
            for m in range(1, 5):
                while True:
                    basis = []
                    for _ in range(m):
                        e = [[Fraction(rng.int_between(-5, 5), rng.int_between(1, 4))
                              for _ in range(n)] for _ in range(n)]
                        basis.append(Mat([[e[min(i, j)][max(i, j)] for j in range(n)]
                                          for i in range(n)]))
                    try:
                        spaces.append(make_space(n, basis))
                        break
                    except PreconditionError:
                        continue
        for sp in spaces:
            pv = plucker(sp)
            assert list(pv.values.items()) == list(plucker_by_minors(sp).items())
            assert all(type(v) is Fraction for v in pv.values.values())

    def test_integer_minors_match_the_fraction_rows(self):
        # the minors of the vectorized B' over L^m against those of the
        # Fraction coordinate rows, on one Laplace memo each; one of the two
        # rational spaces of each shape in S^5, where the Fraction loops take
        # most of the time
        rational = [sp for k, sp in enumerate(rational_spaces(30)) if sp.n < 5 or k % 2 == 0]
        for sp in plain_catalog_spaces() + rational:
            rows = Mat(coordinate_rows(sp))
            minor = laplace_minors_by_entries(rows)
            assert plucker(sp).values == {cols: minor(cols) for cols in
                                          itertools.combinations(range(rows.cols), rows.rows)}, sp


def family_from_strings(n, mats, param="t"):
    return parse_space_data({"n": n, "parametric": True, "param": param, "basis": mats})


class TestGrassmannLimit:
    def test_constant_family(self):
        fam = family_from_strings(2, [
            [["1", "0"], ["0", "0"]],
            [["0", "0"], ["0", "1"]],
        ])
        lim = grassmann_limit(fam)
        assert lim == make_space(2, [E(2, 1, 1), E(2, 2, 2)])

    def test_diagonalizable_to_nilpotent_family(self):
        # basis {Diag(1,1,0,0), E33, (e3 + t e4)(e3 + t e4)^T}
        fam = family_from_strings(4, [
            [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "t"], ["0", "0", "t", "t^2"]],
        ])
        lim = grassmann_limit(fam)
        expected = make_space(4, [diag(1, 1, 0, 0), E(4, 3, 3), E(4, 3, 4)])
        assert lim == expected

    def test_generic_rank_guard(self):
        for mats in [
            [[["t", "0"], ["0", "0"]], [["t", "0"], ["0", "0"]]],
            # B2 = t * B1 with B1 = diag(1, t): distinct rows, dependent over
            # QQ(t), so every maximal minor vanishes; a pass would strip B2
            # to B1 and the next combination would cancel to zero
            [[["1", "0"], ["0", "t"]], [["t", "0"], ["0", "t^2"]]],
        ]:
            with pytest.raises(PreconditionError) as err:
                grassmann_limit(family_from_strings(2, mats))
            assert err.value.code == "NOT_GENERIC_RANK"

    def test_three_passes_for_plucker_valuation_three(self):
        # {E11, E11 + t E12, E11 + t E12 + t^2 E22} in S^3: the one nonzero
        # minor is t^3, so the limit takes all three passes and the fourth
        # evaluation returns; the rows' largest powers sum to B = 3, so B
        # evaluations, or a bound by the largest power alone, would stop short
        fam = family_from_strings(3, [
            [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            [["1", "t", "0"], ["t", "0", "0"], ["0", "0", "0"]],
            [["1", "t", "0"], ["t", "t^2", "0"], ["0", "0", "0"]],
        ])
        assert {k: v for k, v in plucker_limit_oracle(fam).values.items() if v} == {(0, 1, 3): 1}
        lim = grassmann_limit(fam)
        assert proportional(plucker(lim), plucker_limit_oracle(fam))
        assert lim == make_space(3, [E(3, 1, 1), E(3, 1, 2), E(3, 2, 2)])

    def test_plucker_valuation_oracle(self):
        # p(limit) must be proportional to the lowest-order t-coefficients of p(F(t))
        fam = family_from_strings(4, [
            [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "t"], ["0", "0", "t", "t^2"]],
        ])
        lim = grassmann_limit(fam)
        got = plucker(lim)
        expected = plucker_limit_oracle(fam)
        assert proportional(got, expected)

    def test_rows_over_different_denominators(self):
        fam = limit_families()["denominators 2 and 3"]
        assert plucker_valuation_by_mpoly(fam) == 2
        # rows [1/3, t/2, 0] and [2, 3t + t^2, 0]: -6 times the first plus
        # the second is t^2 E12, so the limit is <E11, E12>
        lim = grassmann_limit(fam)
        assert lim == make_space(2, [E(2, 1, 1), E(2, 1, 2)])
        assert proportional(plucker(lim), plucker_limit_oracle(fam))


def plucker_limit_oracle(fam):
    """Independent limit computation through Pluecker valuations: the
    lowest-order t-coefficients of the family's MPoly minors."""
    from jordanet.spaces import PluckerVector

    polys = family_minors_by_mpoly(fam)
    val = plucker_valuation_by_mpoly(fam)
    values = {}
    for cols, p in polys.items():
        if not isinstance(p, MPoly) or p.is_zero():
            values[cols] = Fraction(0)
            continue
        if "t" in p.vars:
            idx = p.vars.index("t")
            c = Fraction(0)
            for e, coeff in p.terms.items():
                if e[idx] == val and sum(e) - e[idx] == 0:
                    c += coeff
            values[cols] = c
        else:
            values[cols] = constant_value(p) if val == 0 else Fraction(0)
    return PluckerVector(fam.n, fam.m, values)


def limit_families():
    """Name -> family: every ``TestGrassmannLimit`` family, every degen/*
    family, and one whose rows hold entries over different denominators,
    where the minor's lowest terms cancel (t^2 / 3 from t / 2 and 1 / 3;
    their numerators alone would give t + t^2)."""
    from jordanet.catalog import degeneration_edges

    named = {
        "constant": family_from_strings(2, [
            [["1", "0"], ["0", "0"]],
            [["0", "0"], ["0", "1"]],
        ]),
        "diagonalizable to nilpotent": family_from_strings(4, [
            [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "t"], ["0", "0", "t", "t^2"]],
        ]),
        "equal rows": family_from_strings(2, [[["t", "0"], ["0", "0"]], [["t", "0"], ["0", "0"]]]),
        "dependent over Q(t)": family_from_strings(2, [[["1", "0"], ["0", "t"]],
                                                       [["t", "0"], ["0", "t^2"]]]),
        "valuation three": family_from_strings(3, [
            [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            [["1", "t", "0"], ["t", "0", "0"], ["0", "0", "0"]],
            [["1", "t", "0"], ["t", "t^2", "0"], ["0", "0", "0"]],
        ]),
        "denominators 2 and 3": family_from_strings(2, [
            [["1/3", "1/2*t"], ["1/2*t", "0"]],
            [["2", "3*t + t^2"], ["3*t + t^2", "0"]],
        ]),
    }
    for cid, _, _ in degeneration_edges():
        named[cid] = canonical(cid)
    return named


def random_family(rng: SplitMix64):
    """A seeded family in S^2..S^4 of 1-4 rows over denominators 1-3, each
    entry of t-degree at most 3.  Its power-0 parts are combinations of
    fewer vectors than rows, so that passes run, and a row may be a
    polynomial combination of the earlier ones, so that the rows are
    dependent over Q(t)."""
    n, m = rng.int_between(2, 4), rng.int_between(1, 4)
    dim = sym_dim(n)

    def coeff():
        return Fraction(rng.nonzero_int_between(-3, 3), rng.int_between(1, 3))

    heads = [[coeff() if rng.int_between(0, 1) else 0 for _ in range(dim)]
             for _ in range(rng.int_between(0, m))]
    rows = []
    for k in range(m):
        if k and rng.int_between(0, 3) == 0:
            row = [{} for _ in range(dim)]
            for earlier in rows:
                factor = {p: coeff() for p in range(2) if rng.int_between(0, 1)}
                for acc, e in zip(row, earlier):
                    for a, x in e.items():
                        for b, y in factor.items():
                            acc[a + b] = acc.get(a + b, 0) + x * y
            rows.append([{p: x for p, x in acc.items() if x} for acc in row])
            continue
        weights = [coeff() for _ in heads]
        row = []
        for c in range(dim):
            e = {p: coeff() for p in range(1, 4) if rng.int_between(0, 2) == 0}
            e[0] = sum(w * h[c] for w, h in zip(weights, heads))
            row.append({p: x for p, x in e.items() if x})
        rows.append(row)
    return spaces.ParametricBasis(n, rows)


class TestLimitAgainstMinors:
    def test_seeded_families_match_the_mpoly_minors(self):
        # NOT_GENERIC_RANK exactly when every MPoly minor vanishes, and
        # otherwise the limit's Pluecker vector is the minors' lowest-order
        # t-coefficients, on seeded families and on ``limit_families``
        rng = SplitMix64(3434)
        families = [random_family(rng) for _ in range(200)] + list(limit_families().values())
        seen = {"refused": 0, "passes": 0, "at once": 0}
        for k, fam in enumerate(families):
            valuation = plucker_valuation_by_mpoly(fam)
            if valuation is None:
                with pytest.raises(PreconditionError) as err:
                    grassmann_limit(fam)
                assert err.value.code == "NOT_GENERIC_RANK", k
                seen["refused"] += 1
                continue
            lim = grassmann_limit(fam)
            assert proportional(plucker(lim), plucker_limit_oracle(fam)), k
            seen["passes" if valuation else "at once"] += 1
        assert min(seen.values()) >= 40, seen


class TestLimitOracleOnCatalogFamilies:
    def test_all_degeneration_families(self):
        from jordanet.catalog import canonical, degeneration_edges

        assert len(degeneration_edges()) == 10
        for cid, _, _ in degeneration_edges():
            fam = canonical(cid)
            lim = grassmann_limit(fam)
            assert proportional(plucker(lim), plucker_limit_oracle(fam)), cid
            assert make_space(lim.n, lim.basis) == lim, cid  # built unchecked


class TestSubstitutionFamily:
    def test_matches_the_matrix_route(self):
        # S(t)^T M S(t) read off the quadric into the coordinate rows equals
        # the two polynomial products of the old route, vectorized and read
        # by power of t, on every degen/* family
        from jordanet.catalog import degeneration_edges, manifest, substitution_family

        for cid, source, _ in degeneration_edges():
            space, subst = canonical(source), manifest()[cid]["substitution"]
            got = substitution_family(space, subst)
            assert got.rows == [[by_power(e) for e in spaces.vectorize(b)]
                                for b in substitution_family_by_matrices(space, subst)], cid
            assert all(type(c) is Fraction for row in got.rows for e in row for c in e.values())
            assert canonical(cid).rows == got.rows, cid

    def test_rational_strings_match_the_matrix_route(self):
        # seeded strings over denominators 1..4, so each is rescaled to the common
        # lcm, with every term times I in one of two (I^2 = -1 throughout), on
        # rational spaces in S^2..S^4
        from jordanet.catalog import QUADRIC_VARS, substitution_family

        rng = SplitMix64(3233)
        cases = 0
        for space in rational_spaces(32):
            if not 2 <= space.n <= 4:
                continue
            for imaginary in ("", "I*"):
                subst = [" + ".join(f"{rng.nonzero_int_between(-3, 3)}/{rng.int_between(1, 4)}*"
                                    f"{imaginary}t^{rng.int_between(0, 2)}*{v}"
                                    for v in QUADRIC_VARS[:space.n] if rng.int_between(0, 2))
                         or f"{imaginary}a" for _ in range(space.n)]
                got = substitution_family(space, subst)
                assert got.rows == [[by_power(e) for e in spaces.vectorize(b)]
                                    for b in substitution_family_by_matrices(space, subst)], subst
                cases += 1
        assert cases == 60

    def test_terms_are_read_after_they_merge(self):
        # a term that cancels is neither an unexpected variable nor a non-linear term
        from jordanet.catalog import substitution_family

        plain = substitution_family(canonical("s4/1a"), ["a", "b", "c", "d"]).rows
        for first in ("a + t*b - t*b", "a + x - x", "a + a^2 - a^2", "a + 1/2*t*b - 2/4*t*b"):
            assert substitution_family(canonical("s4/1a"), [first, "b", "c", "d"]).rows == plain

    def test_an_odd_power_of_i_that_is_left_is_internal(self):
        from jordanet.catalog import substitution_family
        from jordanet.errors import InternalCheckError

        space = make_space(2, [E(2, 1, 1), E(2, 1, 2)])
        assert substitution_family(space, ["I*a", "I*b"]).rows == [[{0: -1}, {}, {}],
                                                                   [{}, {0: -1}, {}]]
        with pytest.raises(InternalCheckError) as err:
            substitution_family(space, ["I*a", "b"])
        assert err.value.code == "INTERNAL"

    @pytest.mark.parametrize("first", ["a + t", "a*b", "a^2", "t"])
    def test_every_term_is_linear_in_the_quadric_variables(self, first):
        from jordanet.catalog import substitution_family
        from jordanet.errors import InputError

        with pytest.raises(InputError) as err:
            substitution_family(canonical("s4/1a"), [first, "b", "c", "d"])
        assert err.value.code == "PARSE_ERROR"

    @pytest.mark.parametrize("first, message", [("a^2", "linear"), ("a + x", "unexpected")])
    def test_the_strings_are_checked_in_order(self, first, message):
        # each string is read and checked before the next is read: a bad first
        # string wins over a malformed, non-linear or foreign later one
        from jordanet.catalog import substitution_family
        from jordanet.errors import InputError

        for later in ("1/0", "b^2", "b + y", "b*"):
            with pytest.raises(InputError) as err:
                substitution_family(canonical("s4/1a"), [first, later, "c", "d"])
            assert err.value.code == "PARSE_ERROR" and message in str(err.value), later
        with pytest.raises(InputError) as err:
            substitution_family(canonical("s4/1a"), ["a + x^2", "b", "c", "d"])
        assert "unexpected variables ['x']" in str(err.value)  # before linearity


class TestFamilyFiles:
    """A family file is read once into its coordinate rows, and its full
    arrays are checked to be symmetric after every entry has parsed."""

    ASYMMETRIC = [["1", "t"], ["2*t", "0"]]

    def test_rows_by_power_in_sym_pairs_order(self):
        fam = family_from_strings(2, [[["1/3", "1/2*s"], ["1/2*s", 0]],
                                      [[2, "3*s + s^2"], ["3*s + s^2", 0]]], "s")
        assert (fam.n, fam.m) == (2, 2)
        assert fam.rows == [[{0: Fraction(1, 3)}, {1: Fraction(1, 2)}, {}],
                            [{0: 2}, {1: 3, 2: 1}, {}]]
        assert all(type(c) is Fraction for row in fam.rows for e in row for c in e.values())
        assert grassmann_limit(fam) == make_space(2, [E(2, 1, 1), E(2, 1, 2)])

    def test_asymmetric_family_is_not_symmetric(self):
        with pytest.raises(PreconditionError) as err:
            family_from_strings(2, [self.ASYMMETRIC, [[0, 0], [0, 1]]])
        assert err.value.code == "NOT_SYMMETRIC"

    def test_a_parse_error_in_a_later_matrix_wins(self):
        from jordanet.errors import InputError

        for bad in ("1/0", "x", True):
            with pytest.raises(InputError) as err:
                family_from_strings(2, [self.ASYMMETRIC, [[0, 0], [0, bad]]])
            assert err.value.code == "PARSE_ERROR", bad

    def test_limits_leave_a_memoised_family_as_it_was(self):
        # grassmann_limit replaces rows of its own copy: two limits of one
        # catalog family, shared per process, give the same space, and the
        # family's rows stay those of a fresh substitution whatever ran before
        from jordanet.catalog import degeneration_edges, manifest, substitution_family

        for cid, source, _ in degeneration_edges():
            fam = canonical(cid)
            first = grassmann_limit(fam)
            second = grassmann_limit(canonical(cid))
            assert canonical(cid) is fam
            assert [b.data for b in first.basis] == [b.data for b in second.basis], cid
            fresh = substitution_family(canonical(source), manifest()[cid]["substitution"])
            assert fam.rows == fresh.rows, cid


class TestMirroredEntries:
    """parse_space_data converts each mirrored entry once when the two raw
    values are equal and of one JSON type, and compares them as rationals
    otherwise."""

    @staticmethod
    def parse(upper, lower):
        return parse_space_data({"n": 2, "basis": [[[1, upper], [lower, 0]]]})

    @pytest.mark.parametrize("upper, lower", [("1/2", "2/4"), (1, "1"), ("1/2", "1/2"), (3, 3)])
    def test_equal_values_are_accepted(self, upper, lower):
        b = self.parse(upper, lower).basis[0]
        assert b[0, 1] == b[1, 0] == Fraction(upper)

    def test_identical_raw_values_share_one_fraction(self, monkeypatch):
        # the mirrored pair goes through frac once, and its one value fills
        # both entries of the integer basis
        from jordanet import io

        calls = []
        monkeypatch.setattr(io, "frac", lambda text: calls.append(text) or frac(text))
        space = self.parse("-7/3", "-7/3")
        assert calls == ["-7/3"]
        assert space.integer_basis() == ([[[3, -7], [-7, 0]]], 3)
        assert space.basis[0][0, 1] == space.basis[0][1, 0] == Fraction(-7, 3)

    def test_unequal_values_are_not_symmetric(self):
        with pytest.raises(PreconditionError) as err:
            self.parse("1/2", "1/3")
        assert err.value.code == "NOT_SYMMETRIC"

    @pytest.mark.parametrize("upper, lower", [(True, 1), (1, True), (1.0, 1), (1, 1.0)])
    def test_booleans_and_floats_are_parse_errors(self, upper, lower):
        from jordanet.errors import InputError

        with pytest.raises(InputError) as err:
            self.parse(upper, lower)
        assert err.value.code == "PARSE_ERROR"

    def test_first_bad_entry_in_row_major_order_is_named(self):
        from jordanet.errors import InputError

        for upper, lower, named in ((1.5, True, "1.5"), (2, 2.0, "2.0"), ("1/0", "1/0", "1/0")):
            with pytest.raises(InputError) as err:
                self.parse(upper, lower)
            assert err.value.code == "PARSE_ERROR" and named in str(err.value), (upper, lower)


def rational_space_files(seed, count):
    """Seeded plain space files in S^2..S^4 whose entries mix JSON integers
    and "p/q" strings: unreduced and signed strings ("+2", "-0", "4/2"), a
    mirror that is the same value in the other JSON type, and in the last
    file an entry of 10^3000, as a JSON integer and inside a string."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        n, m = rng.int_between(2, 4), rng.int_between(1, 3)
        basis = []
        for _ in range(m):
            raw = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    num, den = rng.int_between(-5, 5), (1, 1, 2, 3, 6)[rng.int_between(0, 4)]
                    kind = rng.int_between(0, 4)
                    if kind == 0:
                        upper = num
                    elif kind == 1:  # "+2", "-2", "+0", "-0"
                        upper = "+-"[rng.int_between(0, 1)] + str(abs(num))
                    else:
                        scale = rng.int_between(1, 3)
                        upper = f"{num * scale}/{den * scale}"
                    lower = upper
                    if i != j and rng.int_between(0, 2) == 0:  # the same value, in the other type
                        value = frac(upper)
                        lower = (frac_str(value) if isinstance(upper, int)
                                 else int(value) if value.denominator == 1 else upper)
                    raw[i][j], raw[j][i] = upper, lower
            basis.append(raw)
        if len(out) == count - 1:
            basis[0][0][0] = 10 ** 3000
            basis[-1][n - 1][n - 1] = f"-{10 ** 3000}/7"
        obj = {"n": n, "basis": basis}
        try:
            parse_space_data_by_fractions(obj)
        except PreconditionError:  # dependent: draw again
            continue
        out.append(obj)
    return out


class TestIntegerParse:
    """The parse straight into (B', L) against the Fraction parse it replaced:
    the same Fraction basis, integer basis, reduced rows, membership
    coordinates and analyze report, byte for byte."""

    def test_same_space_as_the_fraction_parse(self):
        rng = SplitMix64(2024)
        files = rational_space_files(24, 16)
        entries = {x for obj in files for b in obj["basis"] for row in b for x in row}
        assert {"+2", "-0"} <= entries and any(isinstance(x, int) for x in entries)
        assert any(type(b[i][j]) is not type(b[j][i]) for obj in files for b in obj["basis"]
                   for i in range(obj["n"]) for j in range(i))  # mirrors of the other type
        for obj in files:
            got, want = parse_space_data(obj), parse_space_data_by_fractions(obj)
            assert got.basis == want.basis
            assert got.integer_basis() == want.integer_basis()
            assert got.echelon.int_rows == want.echelon.int_rows
            coords = [Fraction(rng.int_between(-4, 4), rng.int_between(1, 3)) for _ in range(got.m)]
            member = want.element(coords)
            assert contains(got, member) == contains(want, member) == coords
            outside = Mat.identity(got.n) + member if got.m < sym_dim(got.n) else None
            if outside is not None:
                assert contains(got, outside) == contains(want, outside)

    def test_same_analyze_report(self, monkeypatch, tmp_path, capsys):
        from jordanet import cli

        codes = []
        for k, obj in enumerate(rational_space_files(25, 10)):
            path = tmp_path / f"space_{k}.json"
            path.write_text(json.dumps(obj))
            reports = []
            for load in (cli.load_space_file,
                         lambda p: parse_space_data_by_fractions(json.loads(Path(p).read_text()))):
                monkeypatch.setattr(cli, "load_space_file", load)
                code = cli.main(["analyze", str(path), "--json"])
                out = capsys.readouterr()
                reports.append((code, out.out, out.err))
            assert reports[0] == reports[1], obj
            codes.append(reports[0][0])
        # the last file's 10^3000 entry makes a result past the 4300-digit limit
        assert codes == [0] * 9 + [3]


class TestJsonRoundTrip:
    def test_space_to_json_and_back(self):
        sp = double_conic_net()
        blob = space_to_json(sp)
        assert parse_space_data(blob) == sp

    def test_fraction_entries_render_as_strings(self):
        sp = make_space(2, [Mat([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1)]])])
        blob = space_to_json(sp)
        assert blob["basis"][0][0][0] == "1/2"
        assert parse_space_data(blob) == sp
