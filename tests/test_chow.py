import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from jordanet import chow, linalg
from jordanet.catalog import canonical, catalog_ids
from jordanet.chow import (
    chow_det_eval_at_net,
    chow_det_generic,
    chow_kernel_forms,
    chow_matrix,
    chow_rank,
    sampled_reciprocal_span,
)
from jordanet.errors import PreconditionError
from jordanet.exact import monomials, parse_poly
from jordanet.linalg import Mat, adjugate, det_bareiss, rref
from jordanet.prng import SplitMix64
from jordanet.spaces import (
    MatSpace,
    integer_sweep,
    is_regular,
    make_space,
    sample_congruent,
    sym_dim,
    sym_pairs,
    vectorize,
)
from oracles import (
    chow_det_generic_by_packed_net,
    chow_fraction_matrix,
    chow_matrix_by_adjugate,
    chow_matrix_generic_by_mpoly,
    kernel_forms_by_mpoly,
    lift,
    mat_rank,
    mpoly_by_eager_decode,
    rational_spaces,
)


def P(s):
    return lift(parse_poly(s))


def E(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    m[j - 1][i - 1] = 1
    return Mat.from_ints(m)


def diag(*vals):
    n = len(vals)
    return Mat.from_ints([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def net_rank8():
    bx = Mat.identity(4)
    by = diag(1, -1, 0, 0)
    bz = Mat.from_ints([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    return make_space(4, [bx, by, bz])


def nets_L1():
    return make_space(4, [diag(1, 1, 0, 0), E(4, 3, 3), E(4, 4, 4)])


def nets_L2():
    by = Mat.from_ints([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return make_space(4, [diag(1, 0, 1, 0), by, diag(0, 1, 0, 1)])


def nets_L3():
    b1 = Mat.from_ints([[0, 0, 1, 0], [0, -2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    b2 = Mat.from_ints([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])
    b3 = Mat.from_ints([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -2, 0], [0, 1, 0, 0]])
    return make_space(4, [b1, b2, b3])


class TestColumns:
    def test_order_matches_display(self):
        # degree-2 monomials in three variables: x^2, xy, xz, y^2, yz, z^2
        assert list(monomials(3, 2)) == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        ]


class TestChowMatrix:
    def test_shape_for_net(self):
        # integer rows over L^(n-1) = 1, no Fraction
        rows, den = chow_matrix(nets_L2())
        assert den == 1 and (len(rows), len(rows[0])) == (10, 10)
        assert all(type(x) is int for row in rows for x in row)

    def test_single_identity_span(self):
        rows, den = chow_matrix(make_space(2, [Mat.identity(2)]))
        assert den == 1 and (len(rows), len(rows[0])) == (3, 1)
        assert [row[0] for row in rows] == [1, 0, 1]

    def test_rows_follow_sym_pairs_and_columns_monomials(self):
        # adj diag(t1, t2, t3) = diag(t2 t3, t1 t3, t1 t2); rows 11, 12, 13,
        # 22, 23, 33 and columns t1^2, t1 t2, t1 t3, t2^2, t2 t3, t3^2
        cm = chow_matrix(make_space(3, [E(3, 1, 1), E(3, 2, 2), E(3, 3, 3)]))
        expected = [[0] * 6 for _ in range(6)]
        expected[0][4] = expected[3][2] = expected[5][1] = 1
        assert cm == (expected, 1)

    def test_rows_are_the_adjugate_entries_at_sweep_points(self):
        # sum over columns of entry * monomial(t) is adj(X(t))[i][j] for the
        # row's (i, j) in sym_pairs order
        rng = SplitMix64(77)
        for n, m in ((3, 3), (4, 3), (3, 2), (4, 4)):
            sp = random_space(rng, n, m)
            cm = chow_fraction_matrix(sp)
            monos = list(monomials(m, n - 1))
            assert (cm.rows, cm.cols) == (sym_dim(n), len(monos))
            for tup in itertools.islice(integer_sweep(m), 5):
                adj = adjugate(sp.element(tup))
                values = [math.prod(t ** e for t, e in zip(tup, mono)) for mono in monos]
                for r, (i, j) in enumerate(sym_pairs(n)):
                    assert sum(c * v for c, v in zip(cm.data[r], values)) == adj[i, j]

    def test_generic_first_column_entries(self):
        # the oracle's Chow matrix of the generic net, whose determinant
        # ``chow_det_generic`` is checked against
        cm = chow_matrix_generic_by_mpoly(3)
        assert isinstance(cm, Mat) and (cm.rows, cm.cols) == (6, 6)
        assert cm[0, 0] == P("x22*x33 - x23^2")
        assert cm[1, 0] == P("x13*x23 - x12*x33")
        assert cm[2, 0] == P("x12*x23 - x13*x22")
        assert cm[0, 1] == P("x22*y33 - 2*x23*y23 + x33*y22")
        assert cm[0, 2] == P("x22*z33 - 2*x23*z23 + x33*z22")
        assert cm[0, 3] == P("y22*y33 - y23^2")


def certificates_chow_spaces():
    """The 16 seed-0 Chow inputs of the benchmark's ``certificates`` workload,
    from its own generator."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
    import gen
    from workloads import CHOW_SHAPES

    return [make_space(n, [Mat.from_ints(b) for b in
                           gen.random_space(gen.Rng(0, "chow", str(index)), n, m)])
            for index, (n, m) in enumerate(CHOW_SHAPES)]


class TestIntegerRoute:
    """The Chow matrix from Faddeev-LeVerrier on the packed integer element
    against the MPoly adjugate of the Fraction generic element."""

    def test_rational_bases(self):
        # both spaces of each shape up to S^4, one in S^5, where the oracle's
        # MPoly cofactors take most of the time
        seen = set()
        for k, sp in enumerate(rational_spaces(26)):
            if sp.n == 5 and k % 2:
                continue
            assert chow_fraction_matrix(sp) == chow_matrix_by_adjugate(sp), (sp.n, sp.m)
            seen.add((sp.n, sp.m, sp.integer_basis()[1]))
        assert {(n, m) for n, m, _ in seen} == {(n, m) for n in range(1, 6)
                                               for m in range(1, min(sym_dim(n), 6) + 1)}
        assert {lcm for _, _, lcm in seen} >= {2, 3, 6}

    def test_catalog_spaces_and_all_of_s5(self):
        full = make_space(5, [Mat.from_ints([[int((i, j) in (p, p[::-1])) for j in range(5)]
                                             for i in range(5)]) for p in sym_pairs(5)])
        spaces = [canonical(cid) for cid in catalog_ids()] + [full]
        spaces = [sp for sp in spaces if isinstance(sp, MatSpace)]
        assert len(spaces) == 19
        for sp in spaces:
            assert chow_fraction_matrix(sp) == chow_matrix_by_adjugate(sp), sp

    def test_certificates_shapes(self):
        for sp in certificates_chow_spaces():
            assert chow_fraction_matrix(sp) == chow_matrix_by_adjugate(sp), (sp.n, sp.m)

    def test_rank_and_kernel_read_one_echelon(self, monkeypatch):
        # the transpose's 10 rows, and no second elimination of the 2 kernel vectors
        calls = []
        real = chow.rref
        monkeypatch.setattr(chow, "rref", lambda rows: calls.append(len(rows)) or real(rows))
        sp = net_rank8()
        assert chow_rank(sp) == 8 == mat_rank(chow_matrix_by_adjugate(sp))
        assert len(chow_kernel_forms(sp)) == 2
        assert calls == [10]

    def test_full_rank_forms_no_reduced_rows(self, monkeypatch):
        # no free column, so no kernel vector and no back-substitution
        calls = []
        real = linalg._back_substitute
        monkeypatch.setattr(linalg, "_back_substitute", lambda ech: calls.append(1) or real(ech))
        for sp in (nets_L3(), certificates_chow_spaces()[-1]):
            assert chow_kernel_forms(sp) == [] and chow_rank(sp) == sym_dim(sp.n)
        assert calls == []

    def test_pencils_in_s10_and_s11_build_one_echelon(self, monkeypatch):
        # rational pencils: C(n, n - 1) = n columns, so the kernel has
        # dim S^n - n forms, read off the one echelon and its one
        # back-substitution, the same forms as the reduced echelon form of the kernel
        rng = SplitMix64(3333)
        for n in (10, 11):
            b = [[Fraction(0)] * n for _ in range(n)]
            for i, j in sym_pairs(n):
                b[i][j] = b[j][i] = Fraction(rng.int_between(-3, 3), rng.int_between(1, 4))
            sp = make_space(n, [Mat.identity(n), Mat(b)])
            assert is_regular(sp)
            chow_matrix(sp)  # both memoised before the count
            calls = []
            real_rref, real_back = chow.rref, linalg._back_substitute
            monkeypatch.setattr(chow, "rref", lambda rows: calls.append(len(rows)) or real_rref(rows))
            monkeypatch.setattr(linalg, "_back_substitute",
                                lambda ech: calls.append("back") or real_back(ech))
            forms = chow_kernel_forms(sp)
            assert calls == [n, "back"]
            monkeypatch.undo()
            assert len(forms) == sym_dim(n) - n
            assert chow_rank(sp) == n == mat_rank(chow_fraction_matrix(sp))
            assert [(f.vars, f.terms) for f in forms] == [
                (f.vars, f.terms) for f in kernel_forms_by_mpoly(sp)]


class TestRankAndFormsAgainstTheOracles:
    """``chow_rank`` and ``chow_kernel_forms`` against the rank and the ring's
    kernel forms of the Chow matrix read off the MPoly cofactors of the
    Fraction generic element (``chow_matrix_by_adjugate``)."""

    @staticmethod
    def assert_oracles_agree(sp):
        matrix = chow_matrix_by_adjugate(sp)
        want = [(f.vars, f.terms) for f in kernel_forms_by_mpoly(sp, matrix)]
        assert chow_rank(sp) == mat_rank(matrix) == sym_dim(sp.n) - len(want), (sp.n, sp.m)
        assert [(f.vars, f.terms) for f in chow_kernel_forms(sp)] == want, (sp.n, sp.m)

    def test_seeded_rational_spaces_for_n_up_to_5_and_m_up_to_4(self):
        # n = 1 and n = 2 included; the pencils in S^10 and S^11, where the
        # cofactors are out of reach, are in ``test_pencils_in_s10_and_s11_build_one_echelon``
        seen = set()
        for sp in rational_spaces(35):
            if sp.m <= 4 and is_regular(sp):
                self.assert_oracles_agree(sp)
                seen.add((sp.n, sp.m, sp.integer_basis()[1]))
        assert {(n, m) for n, m, _ in seen} == {(n, m) for n in range(1, 6)
                                               for m in range(1, min(sym_dim(n), 4) + 1)}
        assert {lcm for _, _, lcm in seen} >= {2, 3, 6}

    def test_reference_nets(self):
        for sp in (net_rank8(), nets_L1(), nets_L2(), nets_L3()):
            self.assert_oracles_agree(sp)
        assert chow_rank(net_rank8()) == 8

    def test_the_diagonal_net(self):
        # adj diag(t1, t2, t3) = diag(t2 t3, t1 t3, t1 t2): rank 3, and the
        # off-diagonal entries vanish on every inverse
        sp = make_space(3, [E(3, 1, 1), E(3, 2, 2), E(3, 3, 3)])
        self.assert_oracles_agree(sp)
        assert chow_rank(sp) == 3
        assert chow_kernel_forms(sp) == [P("z12"), P("z13"), P("z23")]


class TestChowRank:
    def test_rank_eight_net(self):
        assert chow_rank(net_rank8()) == 8

    def test_veronese_net_invertible(self):
        assert chow_rank(nets_L3()) == 10

    def test_jordan_net_rank_m(self):
        assert chow_rank(nets_L2()) == 3

    def test_not_regular(self):
        with pytest.raises(PreconditionError) as err:
            chow_rank(make_space(2, [E(2, 1, 1)]))
        assert err.value.code == "NOT_REGULAR"

    def test_congruence_invariance(self):
        for seed in range(5):
            assert chow_rank(sample_congruent(net_rank8(), seed)) == 8
            assert chow_rank(sample_congruent(nets_L2(), seed)) == 3


class TestKernelForms:
    def test_rank_eight_kernel(self):
        forms = chow_kernel_forms(net_rank8())
        expected = [P("2*z12 - z13 - z24"), P("z14 - z23 - z33 + z44")]
        assert forms == expected

    def test_invertible_chow_empty_kernel(self):
        assert chow_kernel_forms(nets_L3()) == []

    def test_full_s2_net_empty_kernel(self):
        sp = make_space(2, [Mat.identity(2), E(2, 1, 1), E(2, 1, 2)])
        assert chow_kernel_forms(sp) == []

    def test_matches_the_mpoly_route(self):
        # rational spaces n = 3..5, m = 2..4, and pencils in S^10 and S^11, where the
        # names do not sort in sym_pairs order (z110 < z12): a form's sign is that of
        # its alphabetically first name, not of its pivot
        rng = SplitMix64(3232)
        spaces = [random_space(rng, n, m) for n in range(3, 6) for m in range(2, 5) for _ in range(6)]
        for n in (10, 10, 11, 11):  # the identity and a matrix one in three of whose entries is nonzero
            b = [[0] * n for _ in range(n)]
            for i, j in sym_pairs(n):
                b[i][j] = b[j][i] = rng.int_between(-2, 2) if rng.int_between(0, 2) == 0 else 0
            spaces.append(make_space(n, [Mat.identity(n), Mat.from_ints(b)]))
        forms = flipped = 0
        for sp in filter(is_regular, spaces):
            got, want = chow_kernel_forms(sp), kernel_forms_by_mpoly(sp)
            assert [(f.vars, f.terms) for f in got] == [(f.vars, f.terms) for f in want], sp.n
            names = [f"z{i + 1}{j + 1}" for i, j in sym_pairs(sp.n)]
            for f in got:
                pivot = min(f.vars, key=names.index)
                flipped += f.coefficient({pivot: 1}) < 0
            forms += len(got)
        assert forms == 314 and flipped

    def test_kernel_vectors_kill_the_matrix(self):
        mat = chow_fraction_matrix(net_rank8())
        kernel = rref(mat.transpose().data).integer_kernel()
        for vec in kernel:
            for col in range(10):
                acc = sum((v * mat[r, col] for r, v in enumerate(vec)), Fraction(0))
                assert acc == 0


class TestSampledSpan:
    def test_matches_chow_rank_on_reference_nets(self):
        for sp, expected in [(net_rank8(), 8), (nets_L2(), 3), (nets_L3(), 10)]:
            assert sampled_reciprocal_span(sp, 40) == expected
            assert chow_rank(sp) == expected

    def test_jordan_net_span_is_m(self):
        assert sampled_reciprocal_span(nets_L1(), 30) == 3

    def test_rank_is_at_most_the_trials(self):
        # k inverses span at most k dimensions, and no inverse none
        assert [sampled_reciprocal_span(canonical("s4/1a"), k) for k in range(4)] == [0, 1, 2, 3]
        for sp in (net_rank8(), nets_L3()):
            assert all(sampled_reciprocal_span(sp, k) <= k for k in range(6))

    def test_a_negative_count_is_refused(self):
        for k in (-1, -5):
            with pytest.raises(PreconditionError) as err:
                sampled_reciprocal_span(canonical("s4/1a"), k)
            assert err.value.code == "NEGATIVE_TRIALS"

    def test_a_singular_space_is_refused(self):
        with pytest.raises(PreconditionError) as err:
            sampled_reciprocal_span(make_space(3, [E(3, 1, 1), E(3, 1, 2)]), 3)
        assert err.value.code == "NOT_REGULAR"


def stacked_adjugate_span(space, trials):
    """Rank of stacked adjugates at the first ``trials`` sweep points with a
    nonzero determinant (oracle for ``sampled_reciprocal_span``)."""
    rows = []
    for tup in integer_sweep(space.m):
        x = space.element(tup)
        if det_bareiss(x) == 0:
            continue
        rows.append(vectorize(adjugate(x)))
        if len(rows) >= trials:
            break
    return rref(rows).rank


def random_space(rng, n, m):
    """An independent m-dimensional space in S^n with small rational
    entries, one in seven of them zero."""
    while True:
        basis = []
        for _ in range(m):
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(rng.int_between(-3, 3),
                                                       rng.int_between(1, 4))
            basis.append(Mat(rows))
        try:
            return make_space(n, basis)
        except PreconditionError:
            pass


def random_regular_nets(seed, n, count):
    rng = SplitMix64(seed)
    nets = []
    while len(nets) < count:
        basis = []
        for _ in range(3):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.int_between(-2, 2)
            basis.append(Mat.from_ints(m))
        try:
            sp = make_space(n, basis)
        except PreconditionError:
            continue
        if is_regular(sp):
            nets.append(sp)
    return nets


class TestSampledSpanOracle:
    NETS = ["netrank8", "nets/L1", "nets/L2", "nets/L3", "s4/1a", "s4/1b", "s4/2a1",
            "s4/2a2", "s4/2b", "s4/3a", "s4/3b1", "s4/3b2", "s5/Lstar"]

    @pytest.mark.parametrize("cid", NETS)
    def test_catalog_nets(self, cid):
        sp = canonical(cid)
        for trials in (1, 4, 3 * sym_dim(sp.n)):
            assert sampled_reciprocal_span(sp, trials) == stacked_adjugate_span(sp, trials)

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_nets(self, n):
        for sp in random_regular_nets(1203 + n, n, 8):
            for trials in (2, 3 * sym_dim(n)):
                assert sampled_reciprocal_span(sp, trials) == stacked_adjugate_span(sp, trials)


class TestMinors:
    def test_jordan_membership_via_rank(self):
        assert chow_rank(nets_L1()) <= 3
        assert chow_rank(nets_L2()) <= 3
        assert not chow_rank(nets_L3()) <= 3

    def test_rank_eight_thresholds(self):
        assert chow_rank(net_rank8()) <= 8
        assert not chow_rank(net_rank8()) <= 7


@pytest.fixture(scope="module")
def generic_det():
    return chow_det_generic(3)


class TestGenericDet:
    def test_degree_and_term_count(self, generic_det):
        assert generic_det.total_degree() == 12
        assert generic_det.term_count() == 22659

    def test_evaluation_needs_a_net_in_s3(self):
        for sp in (make_space(3, [E(3, 1, 1), E(3, 2, 2)]), canonical("s4/1a")):
            with pytest.raises(PreconditionError) as err:
                chow_det_eval_at_net(sp)
            assert err.value.code == "UNSUPPORTED_DIM"

    def test_equals_the_packed_net_route(self):
        # a fresh determinant, still packed, decoded eagerly, against the
        # packed generic net w1 X + w2 Y + w3 Z through the packed
        # Faddeev-LeVerrier recurrence, its cells read off the weight fields
        got = chow_det_generic.__wrapped__(3)
        packing, p, den, _ = got._packed
        names = [f"{c}{i + 1}{j + 1}" for c in "xyz" for i, j in sym_pairs(3)]
        eager = mpoly_by_eager_decode(packing, p, den, names)
        want = chow_det_generic_by_packed_net(3)
        assert (want.total_degree(), want.term_count()) == (12, 22659)
        assert got.vars == eager.vars == want.vars
        assert got.terms == eager.terms == want.terms

    def test_two_layers_of_minors_at_most_are_kept(self):
        # the layered expansion keeps the 6 minors of size 5 (20 106 terms)
        # beside the determinant it sums (22 659), not the memo of every
        # layer; once it returns only the determinant is kept
        tracemalloc.start()
        try:
            det = chow_det_generic.__wrapped__(3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert det.term_count() == 22659
        assert peak < 4e6 and kept < 2.6e6, (peak, kept)

    def test_vanishes_on_rank_one_containing_net(self, generic_det):
        sp = make_space(3, [E(3, 1, 1), E(3, 2, 2), E(3, 3, 3)])
        assert chow_det_eval_at_net(sp) == 0

    def test_nonzero_on_generic_integer_net(self, generic_det):
        sp = make_space(3, [
            Mat.from_ints([[1, 1, 0], [1, 0, 1], [0, 1, 2]]),
            Mat.from_ints([[0, 1, 1], [1, 1, 0], [1, 0, 1]]),
            Mat.from_ints([[2, 0, 1], [0, 1, 1], [1, 1, 0]]),
        ])
        value = chow_det_eval_at_net(sp)
        assert (value != 0) == (mat_rank(chow_fraction_matrix(sp)) == 6)
        assert value != 0

    def test_equals_numeric_chow_det(self, generic_det):
        # symbolic determinant evaluated at a net equals det of the numeric Chow matrix
        from jordanet.linalg import det as _det

        sp = make_space(3, [
            Mat.from_ints([[1, 0, 1], [0, 2, 0], [1, 0, 0]]),
            Mat.from_ints([[0, 1, 0], [1, 0, 1], [0, 1, 1]]),
            Mat.from_ints([[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
        ])
        assert chow_det_eval_at_net(sp) == _det(chow_fraction_matrix(sp))

    def test_unsupported_size(self):
        with pytest.raises(PreconditionError):
            chow_det_generic(4)

    def test_values_at_the_verify_nets(self, generic_det):
        # the two nets of ``verify``'s chow subset: the form's value there is
        # the determinant of the numeric Chow matrix, 0 and -1
        from jordanet.linalg import det as _det

        diag_net = make_space(3, [E(3, 1, 1), E(3, 2, 2), E(3, 3, 3)])
        probe = make_space(3, [
            Mat.from_ints([[1, 0, 1], [0, 2, 0], [1, 0, 0]]),
            Mat.from_ints([[0, 1, 0], [1, 0, 1], [0, 1, 1]]),
            Mat.from_ints([[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
        ])
        for sp, value in ((diag_net, 0), (probe, -1)):
            assert chow_det_eval_at_net(sp) == value == _det(chow_fraction_matrix(sp))


class TestRankDropEquivalence:
    def test_invertible_chow_means_no_low_rank_elements(self):
        # sampled: a net with invertible Chow matrix shows no element of
        # rank <= n - 2 among 1000 deterministic sweep points
        from jordanet.spaces import integer_sweep

        sp = nets_L3()
        count = 0
        for tup in integer_sweep(3):
            x = sp.element(tup)
            assert mat_rank(x) >= 3, tup
            count += 1
            if count >= 1000:
                break

    def test_low_rank_element_forces_singular_chow(self):
        sp = make_space(3, [E(3, 1, 1), E(3, 2, 2), E(3, 3, 3)])
        assert mat_rank(chow_fraction_matrix(sp)) < 6


class TestRankThreeIffClosed:
    def test_on_catalog_nets_and_images(self):
        from jordanet.catalog import canonical
        from jordanet.jordan import is_jordan

        ids = ["netrank8", "nets/L1", "nets/L2", "nets/L3",
               "s4/1a", "s4/1b", "s4/2a1", "s4/2a2", "s4/2b",
               "s4/3a", "s4/3b1", "s4/3b2"]
        for cid in ids:
            sp = canonical(cid)
            for seed in (None, 0, 1):
                image = sp if seed is None else sample_congruent(sp, seed)
                jordan_ok, _ = is_jordan(image)
                assert (chow_rank(image) == 3) == jordan_ok, (cid, seed)
