import itertools
import math
import sys
import time
from fractions import Fraction

import pytest

from jordanet import classify
from jordanet.catalog import canonical, catalog_ids, degeneration_edges
from jordanet.classify import (
    NET_LABELS,
    PencilClass,
    classify_abstract,
    classify_copencil_S3,
    classify_net_S4,
    classify_pencil,
    decision_table,
    ejo_component_count,
    generic_multiplicity_partition,
    invariant_vector,
)
from jordanet.errors import PreconditionError
from jordanet.jordan import is_associative, is_jordan, jordan_closure, radical, structure_constants
from jordanet.linalg import Mat, express_in_rows, inverse, rref
from jordanet.prng import SplitMix64, derive_seed
from jordanet.spaces import (
    MatSpace,
    find_invertible,
    grassmann_limit,
    is_regular,
    make_space,
    sample_congruent,
    sym_dim,
    unit_point,
)
from jordanet.univariate import squarefree_decomposition
from oracles import (
    generic_element,
    matmul_by_loop,
    operator_matrix_by_fractions,
    partition_by_bivariate,
    partition_coefficients_by_mpoly,
    partition_coefficients_by_packing,
    rational_spaces,
    squarefree_by_mpoly,
    tensor_of,
    uni_charpoly,
)


def E(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    m[j - 1][i - 1] = 1
    return Mat.from_ints(m)


def diag(*vals):
    n = len(vals)
    return Mat.from_ints([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def cayley(seed, n):
    rng = SplitMix64(seed)
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.int_between(-3, 3), rng.int_between(1, 3))
            s[i][j] = v
            s[j][i] = -v
    skew = Mat(s)
    ident = Mat.identity(n)
    return (ident - skew) @ inverse(ident + skew)


def v_pencil(n, i, seed):
    """span{I, Q^T diag(3 (i times), -1 (n - i times)) Q} for a seeded Cayley
    rotation Q: a V_i pencil."""
    q = cayley(seed, n)
    return make_space(n, [Mat.identity(n), q.transpose() @ diag(*([3] * i + [-1] * (n - i))) @ q])


class TestPencil:
    def test_v2_two_double_eigenvalues(self):
        sp = make_space(4, [Mat.identity(4), diag(1, 1, -1, -1)])
        assert classify_pencil(sp) == PencilClass("diagonalizable", 2)

    def test_v1(self):
        sp = make_space(3, [Mat.identity(3), diag(2, -1, -1)])
        got = classify_pencil(sp)
        assert got == PencilClass("diagonalizable", 1)
        assert got.label == "V1"

    def test_three_distinct_eigenvalues_not_jordan(self):
        sp = make_space(3, [Mat.identity(3), diag(1, 2, 3)])
        assert classify_pencil(sp).kind == "NOT_JORDAN"

    def test_nilpotent_pencil_s2(self):
        # span{E12 + E21, E11}: E11 is nilpotent for the antidiagonal unit
        sp = make_space(2, [E(2, 1, 2), E(2, 1, 1)])
        assert classify_pencil(sp) == PencilClass("nilpotent")

    def test_nilpotent_pencil_s3(self):
        sp = make_space(3, [Mat.from_ints([[0, 0, 1], [0, 1, 0], [1, 0, 0]]), E(3, 1, 1)])
        assert classify_pencil(sp) == PencilClass("nilpotent")

    def test_realizes_floor_n_half_labels(self):
        for n in (3, 4, 5):
            labels = set()
            for i in range(1, n // 2 + 1):
                for seed in range(6):
                    got = classify_pencil(v_pencil(n, i, 9000 + 100 * n + 10 * i + seed))
                    assert got.kind == "diagonalizable"
                    labels.add(got.label)
            assert labels == {f"V{i}" for i in range(1, n // 2 + 1)}

    def test_congruence_invariance(self):
        base = make_space(4, [Mat.identity(4), diag(1, 1, -1, -1)])
        for seed in range(5):
            image = sample_congruent(base, seed)
            assert classify_pencil(image) == PencilClass("diagonalizable", 2)


class TestAbstract:
    def test_dimension_two(self):
        semi = make_space(2, [Mat.identity(2), diag(1, 0)])
        assert classify_abstract(structure_constants(semi)) == "1"
        nil = make_space(2, [E(2, 1, 2), E(2, 1, 1)])
        assert classify_abstract(structure_constants(nil)) == "2"

    def test_dimension_three_labels(self):
        expected = {
            "s4/1a": "1a", "s4/1b": "1b",
            "s4/2a1": "2a", "s4/2a2": "2a", "s4/2b": "2b",
            "s4/3a": "3a", "s4/3b1": "3b", "s4/3b2": "3b",
        }
        for cid, label in expected.items():
            a = structure_constants(canonical(cid))
            assert classify_abstract(a) == label, cid

    def test_unsupported_dimension(self):
        sp = make_space(3, [Mat.identity(3)])
        with pytest.raises(PreconditionError) as err:
            classify_abstract(structure_constants(sp))
        assert err.value.code == "UNSUPPORTED_DIM"


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(row)] = row
        at += len(b)
    return Mat.from_ints(rows)


def jordan_samples():
    """The regular Jordan spaces of the catalog; Jordan pencils <I, X>: V_i
    pencils, X^2 = 2I (an irreducible quadratic) and nilpotent ones; and
    two seeded congruence images of each."""
    found = [canonical(cid) for cid in catalog_ids()]
    found = [sp for sp in found if isinstance(sp, MatSpace) and is_regular(sp) and is_jordan(sp)[0]]
    found += [v_pencil(n, i, 7000 + 10 * n + i) for n in (2, 3, 4, 5) for i in range(1, n // 2 + 1)]
    root2 = [[1, 1], [1, -1]]  # its square is 2I
    found += [make_space(2, [Mat.identity(2), Mat.from_ints(root2)]),
              make_space(4, [Mat.identity(4), block_diag(root2, root2)]),
              make_space(2, [E(2, 1, 2), E(2, 1, 1)]),
              make_space(4, [E(4, 1, 2) + E(4, 3, 4), E(4, 1, 1) + E(4, 3, 3)])]
    return [image for sp in found for image in
            (sp, *(sample_congruent(sp, derive_seed(0, "theorem", k)) for k in range(2)))]


class TestTheorems:
    """The facts that classification relies on instead of re-checking them
    at run time, on the catalog and seeded images."""

    def test_the_unit_is_never_in_the_radical(self):
        # tr L_U = m != 0, so (U, U) = tr(L_{U * U}) is nonzero and U is not
        # in the kernel of the trace form: dim rad < m, and classify_abstract
        # needs no label for dim rad = m
        dims = set()
        for sp in jordan_samples():
            a, coords = structure_constants(sp), list(unit_point(sp).coords)
            rad = radical(a)
            assert operator_matrix_by_fractions(tensor_of(a), coords).trace() == a.dim, sp
            assert rref(rad + [coords]).rank == len(rad) + 1, sp
            if a.dim in (2, 3):
                dims.add((a.dim, len(rad)))
                assert classify_abstract(a) in ("1", "2", "1a", "1b", "2a", "2b", "3a", "3b")
        assert dims == {(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}

    def test_semisimple_jordan_pencils_have_two_parts(self):
        # U^-1 X has a squarefree quadratic minimal polynomial lam^2 - b lam
        # - a, so det(lam U - X) has two roots or one irreducible quadratic
        # factor: two parts, and classify_pencil needs no other case
        rational_roots = set()
        for sp in jordan_samples():
            if sp.m != 2 or radical(structure_constants(sp)):
                continue
            u, _ = find_invertible(sp)
            x = sp.basis[1 - unit_point(sp).drop]
            y = inverse(u) @ x
            flat = [[v for row in mat.data for v in row] for mat in (Mat.identity(sp.n), y, y @ y)]
            a, b = express_in_rows(flat[:2], flat[2])
            disc = b * b + 4 * a
            assert disc != 0, sp
            partition = generic_multiplicity_partition(sp)
            assert len(partition) == 2 and sum(partition) == sp.n, (sp, partition)
            assert classify_pencil(sp) == PencilClass("diagonalizable", min(partition))
            rational_roots.add(disc > 0 and all(math.isqrt(v) ** 2 == v
                                                for v in (disc.numerator, disc.denominator)))
        assert rational_roots == {True, False}


def partition_in_all_variables(space):
    """The oracle: squarefree decomposition of charpoly(U^-1 X(t)) over
    QQ(t1..tm), with no change of variables, by the MPoly gcd chain."""
    q, s = unit_point(space).inverse
    uinv = Mat([[Fraction(v, s) for v in row] for row in q])
    cp = uni_charpoly(matmul_by_loop(uinv, generic_element(space.basis)))
    _, factors = squarefree_by_mpoly(cp)
    parts = []
    for factor, mult in factors:
        parts.extend([mult] * int(factor.degree()))
    return tuple(sorted(parts, reverse=True))


def diagonal_net_s5():
    return make_space(5, [diag(1, 1, 0, 0, 0), diag(0, 0, 1, 1, 0), diag(0, 0, 0, 0, 1)])


def spin_net_s6():
    """Three block-diagonal copies of S^2 in S^6: semisimple, not associative."""
    blocks = []
    for pattern in ([(0, 0), (2, 2), (4, 4)], [(0, 1), (2, 3), (4, 5)], [(1, 1), (3, 3), (5, 5)]):
        m = [[0] * 6 for _ in range(6)]
        for i, j in pattern:
            m[i][j] = 1
            m[j][i] = 1
        blocks.append(Mat.from_ints(m))
    return make_space(6, blocks)


def kron(y, d):
    """The Kronecker product of two integer matrices, as a Mat."""
    k = len(d)
    return Mat.from_ints([[y[i // k][j // k] * d[i % k][j % k] for j in range(len(y) * k)]
                          for i in range(len(y) * k)])


def seeded_symmetric(rng, n):
    u = [[rng.int_between(-3, 3) for _ in range(n)] for _ in range(n)]
    return [[u[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def unit_off_the_first_element():
    """Name -> (space, partition) for two spaces whose unit, the identity,
    has coordinate 0 on the first basis element."""
    return {
        "V2 pencil, unit second": (
            make_space(4, [diag(1, 1, -1, -1), Mat.identity(4)]), (2, 2)),
        "diagonal net, unit second": (
            make_space(5, [diag(1, 1, 0, 0, 0), Mat.identity(5), diag(0, 0, 1, 1, 0)]),
            (2, 2, 1)),
    }


def oracle_spaces():
    """Named spaces for the partition oracle."""
    named = {f"s4/{label}": canonical(f"s4/{label}") for label in NET_LABELS}
    for cid in ("nets/L1", "nets/L2", "s5/Lstar", "dim4/L1", "dim4/L2",
                "copencil/L1", "copencil/L2"):
        named[cid] = canonical(cid)
    for n in range(3, 7):
        for i in range(1, n // 2 + 1):
            named[f"V{i} in S^{n}"] = v_pencil(n, i, 700 + 10 * n + i)
    named["diagonal net in S^5"] = diagonal_net_s5()
    named["nilpotent pencil in S^2"] = make_space(2, [E(2, 1, 2), E(2, 1, 1)])
    for cid, _, _ in degeneration_edges():
        named[cid] = grassmann_limit(canonical(cid))
    for name, (sp, _) in unit_off_the_first_element().items():
        named[name] = sp
    return named


def parts_bound(space):
    """The bound the partition reads its grid by: min(n, m - max(dim rad,
    [not associative])) for a Jordan space, n for any other."""
    if not is_jordan(space)[0]:
        return space.n
    a = structure_constants(space)
    return min(space.n, space.m - max(len(radical(a)), int(not is_associative(a))))


def read_points(monkeypatch, space):
    """(partition, the characteristic polynomial of each point it read, as
    handed to squarefree_decomposition)."""
    polys = []
    real = classify.squarefree_decomposition
    monkeypatch.setattr(classify, "squarefree_decomposition",
                        lambda coeffs: polys.append(list(coeffs)) or real(coeffs))
    partition = generic_multiplicity_partition(space)
    monkeypatch.undo()
    return partition, polys


def evaluate(coeffs, point):
    """{exponent tuple: int} lam-coefficients at an integer point."""
    return [sum(c * math.prod(map(pow, point, exps)) for exps, c in cp.items()) for cp in coeffs]


class TestIntegerPartition:
    """The partition read off integer points against the bivariate oracle:
    the polynomial of each point is the oracle's characteristic polynomial
    over QQ(t1..t_{m-2}) (``partition_coefficients_by_packing``, checked
    against the entry loops' ``partition_coefficients_by_mpoly``) evaluated
    at that point, the points taken in order from the grid {2 .. b (b - 1) +
    2}^(m-2) for the bound b (``parts_bound``); the last point read is the
    first with b parts, or the grid ends; and the partition is the
    oracle's."""

    def test_rational_bases_and_catalog_spaces(self, monkeypatch):
        # both rational spaces of each shape up to S^4, one in S^5, where the
        # oracle's MPoly products take most of the time
        named = {f"{sp.n}, {sp.m}, {k}": sp for k, sp in enumerate(rational_spaces(27))
                 if sp.n < 5 or k % 2 == 0}
        named.update(oracle_spaces())
        checked = set()
        for name, sp in named.items():
            if not is_regular(sp) or sp.n * math.comb(sp.n + sp.m - 1, sp.m - 1) > 700:
                continue
            partition, polys = read_points(monkeypatch, sp)
            bound = parts_bound(sp)
            if sp.m == 1 or bound == 1:
                assert polys == [] and partition == (sp.n,), name
            else:
                coeffs = partition_coefficients_by_packing(sp)
                assert coeffs == partition_coefficients_by_mpoly(sp), name
                grid = itertools.product(range(2, bound * (bound - 1) + 3), repeat=sp.m - 2)
                assert polys == [evaluate(coeffs, point) for point in
                                 itertools.islice(grid, len(polys))], name
                distinct = [sum(len(f) - 1 for f, _ in squarefree_decomposition(p)) for p in polys]
                assert bound not in distinct[:-1], name
                assert distinct[-1] == bound or len(polys) == (bound * (bound - 1) + 1) ** (sp.m - 2)
            if sp.m <= 4:
                assert partition == partition_by_bivariate(sp), name
            checked.add((sp.n, sp.m))
        assert {(n, m) for n in range(1, 6) for m in range(1, min(sym_dim(n), 6) + 1)
                if n * math.comb(n + m - 1, m - 1) <= 700} <= checked


class TestPartition:
    def test_diagonal_blocks(self):
        assert generic_multiplicity_partition(diagonal_net_s5()) == (2, 2, 1)

    def test_matches_the_all_variable_oracle(self):
        named = oracle_spaces()
        assert len(named) == 8 + 7 + 8 + 2 + 10 + 2
        for name, sp in named.items():
            assert generic_multiplicity_partition(sp) == partition_in_all_variables(sp), name
            image = sample_congruent(sp, derive_seed(0, "partition", name))
            assert generic_multiplicity_partition(image) == partition_in_all_variables(image), name

    def test_matches_the_bivariate_oracle_on_the_catalog(self):
        # every catalog space and three seeded congruence images of each
        from jordanet.catalog import catalog_ids

        for cid in catalog_ids():
            if cid.startswith("degen/") or not is_regular(canonical(cid)):
                continue
            for k in range(4):
                sp = canonical(cid) if k == 0 else \
                    sample_congruent(canonical(cid), derive_seed(0, "bivariate", cid, k))
                assert generic_multiplicity_partition(sp) == partition_by_bivariate(sp), (cid, k)

    def test_every_branch_of_the_bound(self):
        # (space, bound): dim rad = m - 1 gives 1 and no point; a semisimple
        # algebra that is not associative m - 1; the associativity term is
        # not applied on a radical (2b, the L2 copencil); a space that is not
        # Jordan n
        named = {
            "nilpotent pencil in S^2": (make_space(2, [E(2, 1, 2), E(2, 1, 1)]), 1),
            "s4/3a": (canonical("s4/3a"), 1),
            "s4/3b1": (canonical("s4/3b1"), 1),
            "s4/3b2": (canonical("s4/3b2"), 1),
            "spin net in S^6": (spin_net_s6(), 2),
            "dim4/L2": (canonical("dim4/L2"), 3),
            "s4/1b": (canonical("s4/1b"), 2),
            "s4/2b": (canonical("s4/2b"), 2),
            "copencil/L2": (canonical("copencil/L2"), 2),
            "s4/1a": (canonical("s4/1a"), 3),
            "nets/L3": (canonical("nets/L3"), 4),
        }
        for name, (sp, bound) in named.items():
            assert parts_bound(sp) == bound, name
            for image in (sp, sample_congruent(sp, derive_seed(0, "bound", name))):
                got = generic_multiplicity_partition(image)
                assert got == partition_by_bivariate(image) and len(got) <= bound, name

    def test_first_grid_points_merge_parts(self, monkeypatch):
        # diagonal nets whose eigenvalues collide at the first points: in S^3,
        # 0, t - 2 and 2 t - 6 meet in pairs at t = 2, 3 and 4; in S^4 every
        # point of the first row t1 = 2 merges t1 - 2 and 0
        named = {
            "S^3": (make_space(3, [diag(1, 1, 1), diag(0, 1, 2), diag(0, -2, -6)]), 4),
            "S^4": (make_space(4, [diag(1, 1, 1, 1), diag(1, 0, 5, 7), diag(0, 0, 1, 3),
                                   diag(-2, 0, 11, -5)]), 14),
        }
        for name, (sp, points) in named.items():
            partition, polys = read_points(monkeypatch, sp)
            assert partition == (1,) * sp.n == partition_by_bivariate(sp), name
            assert len(polys) == points, name

    def test_the_last_grid_point(self, monkeypatch):
        # S^2 (x) diag(1, -1), a Jordan net with two generic parts, unit
        # U = diag(1, -1) (x) diag(1, -1) last: relative to U, t C_1 + C_2
        # has the discriminant 16 (t - 2)(t - 3), so the two roots meet at
        # the first two points and part only at the third and last, t = 4
        d = [[1, 0], [0, -1]]
        sp = make_space(4, [kron([[4, 0], [0, 0]], d), kron([[-10, -1], [-1, 0]], d),
                            kron(d, d)])
        assert unit_point(sp).coords == (0, 0, 1) and parts_bound(sp) == 2
        partition, polys = read_points(monkeypatch, sp)
        assert partition == (2, 2) == partition_by_bivariate(sp)
        assert [len(squarefree_decomposition(p)[0][0]) - 1 for p in polys] == [1, 1, 2]

    def test_repeated_eigenvalues_read_the_grid_in_bounded_time(self, monkeypatch):
        # spaces that are not Jordan, with every eigenvalue double (X (x) I_2),
        # read the whole grid for the bound n: 31^2 points for m = 4 in S^6,
        # 91 for m = 3 in S^10
        rng = SplitMix64(5)
        ident = [[1, 0], [0, 1]]
        for n, m, points in ((3, 4, 961), (5, 3, 91)):
            sp = make_space(2 * n, [kron(seeded_symmetric(rng, n), ident) for _ in range(m)])
            assert not is_jordan(sp)[0]
            start = time.process_time()
            partition, polys = read_points(monkeypatch, sp)
            assert time.process_time() - start < 2
            assert len(polys) == points and partition == (2,) * n == partition_by_bivariate(sp)

    def test_unit_off_the_first_basis_element(self):
        # dropping B_1 regardless of the unit's coordinates gives (4,) and
        # (3, 2) here
        for name, (sp, expected) in unit_off_the_first_element().items():
            assert find_invertible(sp)[1][0] == 0, name
            assert generic_multiplicity_partition(sp) == expected, name

    def test_refused_past_the_size_bound(self):
        # a dense space of S^5 with m = 6 would not finish in a minute; it is
        # refused from (n, m) before any polynomial work
        rng = SplitMix64(2027)
        while True:
            upper = [[[rng.int_between(-3, 3) for _ in range(5)] for _ in range(5)]
                     for _ in range(6)]
            basis = [Mat.from_ints([[u[min(i, j)][max(i, j)] for j in range(5)] for i in range(5)])
                     for u in upper]
            try:
                space = make_space(5, basis)
                break
            except PreconditionError:
                continue
        start = time.process_time()
        with pytest.raises(PreconditionError) as err:
            generic_multiplicity_partition(space)
        assert err.value.code == "TOO_LARGE" and "past 700" in str(err.value)
        assert time.process_time() - start < 1

    def test_shares_the_unit_inverse_with_the_jordan_test_and_the_closure(self, monkeypatch):
        # is_jordan, jordan_closure and the partition read U^-1 = q / s off the
        # space's one Unit: U' (4 x 4, apart from the 3 x 3 pivot block) is
        # inverted once, and the unit itself inverts nothing; the inversion of
        # the congruence's P, made before, is not counted
        from jordanet import spaces

        sp = sample_congruent(canonical("s4/3b1"), 7)
        inverted, real = [], spaces.integer_inverse
        monkeypatch.setattr(spaces, "integer_inverse",
                            lambda rows, scale=1: inverted.append(rows) or real(rows, scale))
        unit = unit_point(sp)
        assert inverted == []
        assert is_jordan(sp)[0] and jordan_closure(sp).rank == sp.m
        assert generic_multiplicity_partition(sp) == (4,)
        assert inverted.count(unit.rows) == 1 and unit_point(sp) is unit

    def test_one_dimensional_space(self):
        assert generic_multiplicity_partition(make_space(3, [diag(2, 2, 2)])) == (3,)
        with pytest.raises(PreconditionError) as err:
            generic_multiplicity_partition(make_space(3, [diag(1, 1, 0)]))
        assert err.value.code == "NOT_REGULAR"

    def test_spin_net_partition(self):
        assert generic_multiplicity_partition(canonical("s4/1b")) == (2, 2)

    def test_partition_of_nilpotent_tower(self):
        assert generic_multiplicity_partition(canonical("s4/3b1")) == (4,)


class TestNetDecisionTable:
    def test_eight_distinct_vectors(self):
        table = decision_table()
        assert sorted(table.values()) == sorted(NET_LABELS)

    def test_pinned_table_matches_the_canonical_nets(self):
        rebuilt = {}
        for label in NET_LABELS:
            vec = invariant_vector(canonical(f"s4/{label}"))
            assert vec not in rebuilt, f"{label} collides with {rebuilt.get(vec)}"
            rebuilt[vec] = label
        assert rebuilt == decision_table()

    def test_canonical_nets_classify_to_themselves(self):
        for label in NET_LABELS:
            assert classify_net_S4(canonical(f"s4/{label}")) == label

    def test_congruence_invariance(self):
        for label in NET_LABELS:
            sp = canonical(f"s4/{label}")
            for seed in range(3):
                assert classify_net_S4(sample_congruent(sp, 40 + seed)) == label

    def test_radical_pencils_pass_make_space(self, monkeypatch):
        # invariant_vector builds the pencil of a two-dimensional radical
        # unchecked; make_space accepts each one as it stands
        pencils = []
        real = classify.rank_one_pencil
        monkeypatch.setattr(classify, "rank_one_pencil", lambda sp: pencils.append(sp) or real(sp))
        for label in ("3a", "3b1", "3b2"):
            for seed in range(3):
                assert classify_net_S4(sample_congruent(canonical(f"s4/{label}"), 40 + seed)) == label
        assert len(pencils) == 9
        assert all(make_space(sp.n, sp.basis) == sp for sp in pencils)

    def test_radical_vectors_are_read_as_they_are(self, monkeypatch):
        # the radical is the echelon's primitive integer kernel, and its readers
        # take those vectors as they are: during invariant_vector on the eight
        # S^4 nets, and min_rank_bounds on s4/3b1, integer_vector receives no
        # radical vector, and space.element takes the witness's ints as they are
        from jordanet import jordan, linalg, spaces, varieties

        calls, clear = [], linalg.integer_vector
        monkeypatch.setattr(linalg, "integer_vector", lambda vector: calls.append(
            (sys._getframe(1).f_code.co_name, tuple(vector))) or clear(vector))
        for module in (spaces, jordan, classify, varieties):
            if hasattr(module, "integer_vector"):
                monkeypatch.setattr(module, "integer_vector", linalg.integer_vector)

        def radical_calls(space):
            rad = {tuple(v) for v in radical(structure_constants(space))}
            assert rad
            return [caller for caller, vector in calls if vector in rad]

        nonzero = 0
        for label in NET_LABELS:
            net = canonical(f"s4/{label}")
            sp = MatSpace(net.n, ints=net.integer_basis())  # nothing cached yet
            calls.clear()
            invariant_vector(sp)
            if radical(structure_constants(sp)):
                nonzero += 1
                assert radical_calls(sp) == [], label
        assert nonzero == 6
        net = canonical("s4/3b1")
        sp = MatSpace(net.n, ints=net.integer_basis())
        calls.clear()
        varieties.min_rank_bounds(sp)
        assert radical_calls(sp) == []
        assert "element" not in [caller for caller, _ in calls]

    def test_an_unrecognized_vector_names_its_fields(self, monkeypatch):
        # the UNRECOGNIZED message prints the vector's repr
        monkeypatch.setattr(classify, "_DECISION_TABLE", {})
        with pytest.raises(PreconditionError) as err:
            classify_net_S4(canonical("s4/1a"))
        assert str(err.value).endswith(
            "invariant vector outside the table: InvariantVector(dim_rad=0, associative=True, "
            "rad_square=0, partition=(2, 1, 1), rad_rank_one=None)")

    def test_not_jordan_rejected(self):
        with pytest.raises(PreconditionError) as err:
            classify_net_S4(canonical("nets/L3"))
        assert err.value.code == "NOT_JORDAN"

    def test_only_nets_in_s4(self):
        for sp in (canonical("s5/Lstar"), canonical("dim4/L1"), make_space(4, [Mat.identity(4)])):
            with pytest.raises(PreconditionError) as err:
                classify_net_S4(sp)
            assert err.value.code == "UNSUPPORTED_DIM"

    def test_all_hasse_edges(self):
        for cid, _, target in degeneration_edges():
            lim = grassmann_limit(canonical(cid))
            assert classify_net_S4(lim) == target, cid


class TestType1Partition:
    """Diagonalizable nets in any S^n: semisimple and associative, with the
    block sizes as the generic multiplicity partition."""

    def test_diagonal_net_s5(self):
        sp = diagonal_net_s5()
        a = structure_constants(sp)
        assert radical(a) == [] and is_associative(a)
        assert generic_multiplicity_partition(sp) == (2, 2, 1)

    def test_spin_s6_is_not_type1(self):
        sp = spin_net_s6()
        a = structure_constants(sp)
        assert radical(a) == [] and not is_associative(a)

    def test_comparison_net_partition(self):
        sp = canonical("nets/L1")
        a = structure_constants(sp)
        assert radical(a) == [] and is_associative(a)
        assert generic_multiplicity_partition(sp) == (2, 1, 1)


class TestCopencils:
    def test_canonical_separation(self):
        # derived invariant check: the two canonical copencils really are
        # separated by radical dimension
        a1 = structure_constants(canonical("copencil/L1"))
        a2 = structure_constants(canonical("copencil/L2"))
        assert len(radical(a1)) == 0
        assert len(radical(a2)) > 0
        assert classify_copencil_S3(canonical("copencil/L1")) == "CLASS_L1"
        assert classify_copencil_S3(canonical("copencil/L2")) == "CLASS_L2"

    def test_congruence_invariance(self):
        for seed in range(4):
            assert classify_copencil_S3(sample_congruent(canonical("copencil/L1"), seed)) == "CLASS_L1"
            assert classify_copencil_S3(sample_congruent(canonical("copencil/L2"), seed)) == "CLASS_L2"

    def test_random_copencil_not_jordan(self):
        rng = SplitMix64(7)
        found = 0
        while found < 5:
            basis = []
            for _ in range(4):
                m = [[0] * 3 for _ in range(3)]
                for i in range(3):
                    for j in range(i, 3):
                        m[i][j] = m[j][i] = rng.int_between(-3, 3)
                basis.append(Mat.from_ints(m))
            try:
                sp = make_space(3, basis)
            except PreconditionError:
                continue
            found += 1
            assert classify_copencil_S3(sp) == "NOT_JORDAN"


def series_coefficient(n):
    """Coefficient of t^n in t^3/((1-t)(1-t^2)(1-t^3)) + t^2/(1-t^2)."""

    def geometric(k):
        return [int(j % k == 0) for j in range(n + 1)]

    def mul(a, b):
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b[:n + 1 - i]):
                out[i + j] += ai * bj
        return out

    first = mul(mul(geometric(1), geometric(2)), geometric(3))
    return first[n - 3] + int(n % 2 == 0)


class TestComponentCount:
    def test_small_values(self):
        assert ejo_component_count(3) == 1
        assert ejo_component_count(4) == 2
        assert ejo_component_count(6) == 4

    def test_range_matches_series(self):
        got = [ejo_component_count(n) for n in range(3, 13)]
        assert got == [1, 2, 2, 4, 4, 6, 7, 9, 10, 13]
        for n in range(3, 31):
            assert ejo_component_count(n) == series_coefficient(n), n

    def test_minimum_n(self):
        with pytest.raises(PreconditionError):
            ejo_component_count(2)
