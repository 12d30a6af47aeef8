import hashlib
import json
from fractions import Fraction

import pytest

from jordanet.catalog import canonical, catalog_ids
from jordanet.errors import InputError, PreconditionError
from jordanet import cli, exact, modular, spaces, varieties
from jordanet.exact import integer_poly, monomials, parse_poly, poly_eval
from jordanet.jordan import radical, structure_constants
from jordanet.linalg import Echelon, Mat, frac_str, inverse, rref
from jordanet.prng import SplitMix64
from jordanet.spaces import (
    MatSpace,
    PluckerVector,
    generic_names,
    make_space,
    plucker,
    rank_one_pencil,
    sample_congruent,
)
from jordanet.varieties import (
    CATALOGS,
    DATA_DIR,
    catalog_eval,
    catalog_polynomials,
    macaulay_emptiness,
    min_rank_bounds,
    rank_one_locus_certificate,
    rank_one_system,
)
from oracles import (
    MPoly,
    UniPoly,
    constant_value,
    is_constant,
    lift,
    macaulay_emptiness_by_exact_parts,
    macaulay_rank_by_fractions,
    min_rank_bounds_by_fractions,
    mpoly_from_terms,
    mpoly_gcd_by_mpoly,
    parse_poly_by_tokens,
    rank_one_locus_certificate_by_mpoly,
    rank_one_minors_by_mpoly,
    rational_spaces,
    uni_exact_div,
)


def P(s):
    return lift(parse_poly(s))


def I(s):
    return integer_poly(s)[0]


def integer_system(polys):
    """Each MPoly as the integer polynomial ``emptiness`` reads off its text."""
    return [integer_poly(str(p))[0] for p in polys]


def E(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    m[j - 1][i - 1] = 1
    return Mat.from_ints(m)


def diag(*vals):
    n = len(vals)
    return Mat.from_ints([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def eval_poly_at(p, point):
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for name, e in zip(p.vars, exps):
            if e:
                term *= point[name] ** e
        total += term
    return total


def cayley_orthogonal(seed, n):
    """Rational orthogonal matrix via the Cayley transform of a skew matrix."""
    rng = SplitMix64(seed)
    while True:
        s = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.int_between(-3, 3), rng.int_between(1, 3))
                s[i][j] = v
                s[j][i] = -v
        skew = Mat(s)
        ident = Mat.identity(n)
        try:
            return (ident - skew) @ inverse(ident + skew)
        except PreconditionError:
            continue


class TestMacaulay:
    def test_two_squares_degree_three(self):
        cert = macaulay_emptiness([I("x^2"), I("y^2")], 3)
        assert cert.kind == "CERTIFIED_EMPTY"

    def test_two_squares_degree_two(self):
        cert = macaulay_emptiness([I("x^2"), I("y^2")], 2)
        assert cert.kind == "UNKNOWN"
        assert cert.span_rank == 2 and cert.span_target == 3  # xy is missed

    def test_inhomogeneous_rejected(self):
        with pytest.raises(PreconditionError) as err:
            macaulay_emptiness([I("x^2 + y")], 3)
        assert err.value.code == "NOT_HOMOGENEOUS"

    def test_empty_system_and_undeclared_variable_rejected(self):
        for system, vars in (([], None), ([I("x^2")], ("y",)), ([I("x*y")], ("x", "z"))):
            with pytest.raises(PreconditionError) as err:
                macaulay_emptiness(system, 2, vars)
            assert err.value.code == "NOT_HOMOGENEOUS", (system, vars)

    def test_negative_degree_rejected(self):
        # x*y = 0 has solutions; an empty degree -1 span must not certify anything
        for degree in (-1, -3):
            with pytest.raises(PreconditionError) as err:
                macaulay_emptiness([I("x*y")], degree)
            assert err.value.code == "NEGATIVE_DEGREE"

    def test_degree_zero_is_not_a_certificate(self):
        cert = macaulay_emptiness([I("x*y")], 0)
        assert cert.kind == "UNKNOWN" and (cert.span_rank, cert.span_target) == (0, 1)

    def test_variable_universe_matters(self):
        # {x^2} alone is empty in P^0 but has the solution (0 : 1) in P^1
        assert macaulay_emptiness([I("x^2")], 2).kind == "CERTIFIED_EMPTY"
        assert macaulay_emptiness([I("x^2")], 2, vars=("x", "y")).kind == "UNKNOWN"

    def test_certificate_soundness_sampled(self):
        system = [P("x^2 + y^2"), P("x*y")]
        cert = macaulay_emptiness(integer_system(system), 3)
        assert cert.kind == "CERTIFIED_EMPTY"
        rng = SplitMix64(5)
        for _ in range(500):
            point = {
                "x": Fraction(rng.int_between(-6, 6), rng.int_between(1, 4)),
                "y": Fraction(rng.int_between(-6, 6), rng.int_between(1, 4)),
            }
            if all(v == 0 for v in point.values()):
                continue
            assert any(eval_poly_at(p, point) != 0 for p in system)

    def test_integer_rows_match_the_fraction_rows(self):
        # seeded systems with rational coefficients: as many dense forms as
        # variables (empty, certified from the Macaulay bound on), or fewer
        rng = SplitMix64(2014)
        kinds = set()
        for k in range(36):
            vars = ("w", "x", "y", "z")[: 2 + k % 3]
            system = []
            for _ in range(len(vars) - (k % 4 == 3)):
                terms = {mono: Fraction(rng.int_between(-9, 9), rng.int_between(1, 5))
                         for mono in monomials(len(vars), rng.int_between(1, 3))}
                if not any(terms.values()):
                    terms[next(iter(terms))] = Fraction(1)
                system.append(mpoly_from_terms(vars, terms))
            degree = rng.int_between(0, 5)
            cert = macaulay_emptiness(integer_system(system), degree, vars=vars)
            assert (cert.span_rank, cert.span_target) == macaulay_rank_by_fractions(
                system, degree, vars)
            kinds.add(cert.kind)
        assert kinds == {"CERTIFIED_EMPTY", "UNKNOWN"}

    def test_reduced_parts_match_the_fraction_rows(self):
        # seeded systems of constants, linear, quadric and cubic forms together,
        # in a declared set of variables that is sometimes wider than the names
        # used, each degree part sometimes with dependent forms (a combination
        # of its first two forms placed second, so that its first rank(V_d)
        # forms need not span V_d) and sometimes spanning all of
        # S_d (every monomial of degree d), at every D from 0 to 4, so that D
        # is below, equal to and above every degree in the system
        rng = SplitMix64(3301)
        seen = {"dependent": 0, "spanning": 0, "wider": 0, "constant": 0, "above": 0}
        kinds = set()
        for k in range(40):
            names = ("w", "x", "y", "z")[: 1 + k % 4]
            vars = names + ("v",) if k % 5 == 4 else names
            system = []
            for d in sorted({rng.int_between(0 if k % 7 == 0 else 1, 3) for _ in range(3)}):
                if rng.int_between(0, 3) == 0:
                    forms = [mpoly_from_terms(names, {mono: Fraction(rng.nonzero_int_between(-4, 4))})
                             for mono in monomials(len(names), d)]
                    seen["spanning"] += 1
                else:
                    forms = []
                    for _ in range(rng.int_between(2, 3)):
                        terms = {mono: Fraction(rng.int_between(-5, 5), rng.int_between(1, 3))
                                 for mono in monomials(len(names), d) if rng.int_between(0, 1)}
                        if not any(terms.values()):
                            terms[next(monomials(len(names), d))] = Fraction(1)
                        forms.append(mpoly_from_terms(names, terms))
                    if rng.int_between(0, 1):
                        combo = forms[0].scale(Fraction(rng.nonzero_int_between(-3, 3))) + \
                            forms[1].scale(Fraction(rng.int_between(-1, 1), 2))
                        if combo.terms:
                            forms.insert(1, combo)
                            seen["dependent"] += 1
                system += forms
            degrees = {int(p.total_degree()) for p in system}
            seen["wider"] += vars != names
            seen["constant"] += 0 in degrees
            for degree in range(5):
                seen["above"] += max(degrees) > degree
                cert = macaulay_emptiness(integer_system(system), degree, vars=vars)
                assert (cert.span_rank, cert.span_target) == macaulay_rank_by_fractions(
                    system, degree, vars), (system, degree, vars)
                kinds.add(cert.kind)
        assert kinds == {"CERTIFIED_EMPTY", "UNKNOWN"}
        assert min(seen.values()) >= 3, seen

    def test_span_mod_p_matches_the_exact_parts(self, monkeypatch):
        # a part with at least as many forms as monomials is first ranked mod
        # P, and the exact echelon runs only when that rank falls short.
        # Seeded systems at D = 2 and 3: the rank-one minors of dense
        # subspaces of S^4..S^6 (those of k = 6 in S^4 span 20 of the 21
        # quadrics), the same times P (rank 0 mod P, so the exact echelon
        # answers), and forms of rational coefficients in mixed degrees, each
        # part with fewer, as many or more forms than monomials, sometimes
        # one of them a combination of two others
        answers = []
        spans = modular.spans
        monkeypatch.setattr(modular, "spans",
                            lambda rows, cols: answers.append(spans(rows, cols)) or answers[-1])
        rng = SplitMix64(4904)
        systems = []
        for n, k in ((4, 3), (4, 4), (4, 6), (5, 4), (5, 5), (6, 4), (6, 6)):
            space = make_space(n, [Mat.from_ints([[m[min(i, j)][max(i, j)] for j in range(n)]
                                                  for i in range(n)])
                                   for m in (random_rows(rng, n, n) for _ in range(k))])
            system = integer_system(rank_one_system(space))
            systems += [(system, generic_names(k)),
                        ([{mono: modular.P * c for mono, c in p.items()} for p in system],
                         generic_names(k))]
        for case in range(16):
            names = ("w", "x", "y", "z")[: 2 + case % 3]
            forms = []
            for d in sorted({rng.int_between(1, 3) for _ in range(2)}):
                cols = list(monomials(len(names), d))
                part = []
                for _ in range(max(1, len(cols) + rng.int_between(-2, 1))):
                    terms = {mono: Fraction(rng.int_between(-9, 9), rng.int_between(1, 4))
                             for mono in cols}
                    if not any(terms.values()):
                        terms[cols[0]] = Fraction(1)
                    part.append(mpoly_from_terms(names, terms))
                if case % 2 and len(part) > 1:
                    part.append(part[0].scale(Fraction(-2, 3)) + part[1])
                forms += part
            systems.append((integer_system(forms), names))
        kinds = set()
        for system, vars in systems:
            for degree in (2, 3):
                cert = macaulay_emptiness(system, degree, vars=vars)
                assert (cert.kind, cert.span_rank, cert.span_target) == \
                    macaulay_emptiness_by_exact_parts(system, degree, vars), (system, degree)
                kinds.add(cert.kind)
        assert kinds == {"CERTIFIED_EMPTY", "UNKNOWN"}
        assert answers.count(True) >= 10 and answers.count(False) >= 10

    def test_files_match_the_fraction_rows(self, tmp_path, capsys):
        # seeded files of rational coefficients, each term split into two
        # with reordered factors (a repeated monomial), a pair of terms that
        # cancels, and v^0 factors: v is no variable, nor is a name whose
        # terms all cancel
        rng = SplitMix64(2033)
        path = tmp_path / "system.txt"
        kinds = set()
        for k in range(40):
            text = rational_system_text(rng, ("w", "x", "y", "z")[: 2 + k % 3])
            path.write_text(text)
            degree = rng.int_between(0, 4)
            assert cli.main(["emptiness", str(path), "--degree", str(degree), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            system = [parse_poly_by_tokens(line) for line in text.splitlines()]
            vars = sorted({v for p in system for v in p.support_vars()})
            assert "v" not in vars and "u" not in vars
            assert (report["span_rank"], report["span_target"]) == macaulay_rank_by_fractions(
                system, degree, vars), text
            kinds.add(report["kind"])
        assert kinds == {"CERTIFIED_EMPTY", "UNKNOWN"}

    def test_size_is_estimated_before_the_matrix_is_built(self, monkeypatch):
        # the benchmark's widest certificate: 3 quadrics in 12 variables, each
        # times the 12 linear monomials, against the 364 cubic monomials
        system = integer_system(catalog_polynomials("jordan_net_quadrics"))
        cert = macaulay_emptiness(system, 3)
        assert (cert.span_rank, cert.span_target) == (36, 364)
        monkeypatch.setattr(varieties, "MAX_MACAULAY_CELLS", 36 * 364 - 1)
        with pytest.raises(PreconditionError) as err:
            macaulay_emptiness(system, 3)
        assert err.value.code == "TOO_LARGE" and "36 x 364" in str(err.value)


def random_rows(rng, count, cols):
    return [[rng.int_between(-3, 3) for _ in range(cols)] for _ in range(count)]


def rational_system_text(rng, vars):
    """As many homogeneous forms as variables, or one more or fewer, one per
    line, over ``vars``, in the text grammar: each coefficient p/q written
    as two terms of one monomial, the second with its factors reversed, one
    pair of terms that cancels (``u*z - z*u``, say) and ``v^0``
    factors, then -3/4 times the first line as ``str`` prints it."""
    lines = []
    for _ in range(len(vars) + rng.int_between(-1, 1)):
        degree = rng.int_between(1, 3)
        terms = []
        for mono in monomials(len(vars), degree):
            c, part = (Fraction(rng.int_between(-9, 9), rng.int_between(1, 6)) for _ in range(2))
            if not (c or terms):
                c = Fraction(1)
            factors = [f"{v}^{e}" for v, e in zip(vars, mono) if e] + ["v^0"] * rng.int_between(0, 1)
            terms += [f"{frac_str(part)}*{'*'.join(factors)}",
                      f"{frac_str(c - part)}*{'*'.join(reversed(factors))}"]
        pair = ["u"] + [vars[-1]] * (degree - 1)
        terms.insert(rng.int_between(0, len(terms)),
                     f"2/3*{'*'.join(pair)} - 2/3*{'*'.join(reversed(pair))}")
        lines.append(" + ".join(terms))
    lines.append(str(parse_poly_by_tokens(lines[0]).scale(Fraction(-3, 4))))  # no new rows
    return "\n".join(lines) + "\n"


def test_rank_one_certificate_matches_the_mpoly_route():
    # the sweep on the integer minors (times L^2) against MPoly minors and
    # Fraction rows, degree by degree: seeded spaces in S^2..S^4, the
    # catalog's nets in S^4, and two spaces in which t1 is in no minor, so
    # that the locus lies in P^1 and P^2, not in the P^0 and P^1 of the
    # minors' own variables
    spaces = [sp for sp in rational_spaces(2034) if 2 <= sp.n <= 4 and sp.m <= 4]
    spaces += [canonical(f"s4/{label}") for label in ("1a", "1b", "2a1", "2a2", "2b", "3a")]
    spaces += [make_space(2, [E(2, 1, 1), E(2, 1, 2)]),
               make_space(3, [E(3, 1, 1), E(3, 1, 2), E(3, 1, 3)])]
    kinds = set()
    for sp in spaces:
        cert = rank_one_locus_certificate(sp)
        assert (cert.kind, cert.degree, cert.span_rank, cert.span_target) == \
            rank_one_locus_certificate_by_mpoly(sp), sp
        kinds.add(cert.kind)
    assert kinds == {"CERTIFIED_EMPTY", "UNKNOWN"}


class TestRankOneSystem:
    def test_diagonal_pencil(self):
        system = rank_one_system(make_space(2, [E(2, 1, 1), E(2, 2, 2)]))
        assert len(system) == 1 and system[0] == P("t1*t2")

    def test_identity_line(self):
        assert rank_one_system(make_space(2, [Mat.identity(2)])) == [P("t1^2")]

    def test_lstar_contains_expected_minors(self):
        system = rank_one_system(canonical("s5/Lstar"))
        strs = {str(p) for p in system} | {str(-lift(p)) for p in system}
        assert "t1^2" in strs
        assert "t1^2 + t1*t2" in strs

    def test_matches_the_mpoly_route(self):
        # the integer minors of X' over L^2 against MPoly products of the
        # Fraction generic element, in the same order; with m = 11 the
        # sorted names put t10 and t11 between t1 and t2
        spaces = [canonical(cid) for cid in catalog_ids()]
        spaces = [sp for sp in spaces if isinstance(sp, MatSpace)] + rational_spaces(31)
        rng = SplitMix64(1011)
        spaces.append(make_space(5, [Mat([[x / (1 + k % 3) for x in row]
                                          for row in random_symmetric(rng, 5).data])
                                     for k in range(11)]))
        assert spaces[-1].m == 11 and spaces[-1].integer_basis()[1] == 6
        for sp in spaces:
            got, want = rank_one_system(sp), rank_one_minors_by_mpoly(sp)
            assert [(p.vars, p.terms) for p in got] == [(p.vars, p.terms) for p in want], sp
        assert got[0].vars == ("t1", "t10", "t11") + generic_names(9)[1:]

    def test_the_certificate_forms_no_mpoly(self, monkeypatch):
        # rank_one_locus_certificate reads the integer minors
        # (spaces.rank_one_minors), and no MPoly stands between
        made = []
        init = exact.MPoly.__init__
        monkeypatch.setattr(exact.MPoly, "__init__",
                            lambda self, *args: made.append(args) or init(self, *args))
        sp = canonical("s4/2b")
        system = rank_one_system(sp)
        assert system and len(made) == len(system)  # the count sees each one
        made.clear()
        assert rank_one_locus_certificate(sp).kind == "CERTIFIED_EMPTY"
        assert made == []


class TestRankOnePencil:
    def test_only_pencils(self):
        for basis in ([E(2, 1, 1)], [E(2, 1, 1), E(2, 1, 2), E(2, 2, 2)]):
            with pytest.raises(PreconditionError) as err:
                rank_one_pencil(make_space(2, basis))
            assert err.value.code == "UNSUPPORTED_DIM"

    def test_two_points(self):
        assert rank_one_pencil(make_space(2, [E(2, 1, 1), E(2, 2, 2)])) == 2

    def test_one_point(self):
        assert rank_one_pencil(make_space(3, [E(3, 1, 1), E(3, 1, 3)])) == 1

    def test_zero_points(self):
        assert rank_one_pencil(make_space(3, [E(3, 1, 2), E(3, 1, 3)])) == 0

    def test_conjugate_pair_counts_projectively(self):
        # det(t1 Diag(1,2) + t2 offdiag) = 2 t1^2 - t2^2: two irrational roots
        sp = make_space(2, [diag(1, 2), E(2, 1, 2)])
        assert rank_one_pencil(sp) == 2

    def test_matches_root_scan_oracle(self):
        counts, dims = set(), set()
        for sp in oracle_pencils():
            got = rank_one_pencil(sp)
            assert got == rank_one_count_oracle(sp)
            counts.add(got)
            dims.add(minor_span_dim(sp))
        assert counts == {0, 1, 2} and dims == {1, 2, 3}

    def test_no_pencil_lies_in_the_rank_one_locus(self):
        # the rank-one matrices contain no line: v v^T + w w^T has rank 2 for
        # independent v, w, so the minors of every pencil span V != 0 and
        # rank_one_pencil needs no answer for V = 0; on the seeded pencils
        # and the radical pencils of the catalog and of seeded images
        pencils = oracle_pencils()
        for cid in ("s4/3a", "s4/3b1", "s4/3b2"):
            net = canonical(cid)
            for sp in (net, sample_congruent(net, 60), sample_congruent(net, 61)):
                rad = radical(structure_constants(sp))
                pencils.append(make_space(sp.n, [sp.element(c) for c in rad]))
        for sp in pencils:
            assert rank_one_minors_by_mpoly(sp), sp
            assert rank_one_pencil(sp) == rank_one_count_oracle(sp)

    def test_each_distinct_nonzero_minor_is_adjoined_once(self, monkeypatch):
        # the seeded pencils have zero and repeated 2 x 2 minors (diagonal
        # pencils, sums of v v^T over a shared pool): each distinct nonzero
        # one reaches the echelon once, all of them while its rank is below 3,
        # and the count is still the root scan's
        adjoined = []

        class Recording(Echelon):
            def adjoin(self, v):
                adjoined.append(tuple(v))
                return super().adjoin(v)

        monkeypatch.setattr(spaces, "Echelon", Recording)
        zeros = repeats = 0
        for sp in oracle_pencils():
            adjoined.clear()
            got = rank_one_pencil(sp)
            rows = list(adjoined)
            assert got == rank_one_count_oracle(sp)
            minors = minor_vectors_by_fractions(sp)
            distinct = set(minors) - {(0, 0, 0)}
            zeros += minors.count((0, 0, 0))
            repeats += len(minors) - len(set(minors))
            assert (0, 0, 0) not in rows and len(set(rows)) == len(rows) <= len(distinct)
            if rref([list(v) for v in distinct]).rank < 3:
                assert len(rows) == len(distinct)
        assert zeros > 100 and repeats > 100, (zeros, repeats)


def minor_vectors_by_fractions(sp):
    """The 2 x 2 minors of t1 P + t2 Q on the Fraction basis, rows (i, j)
    and columns (k, l) >= (i, j), each as (a, b, c) for a t1^2 + b t1 t2 + c
    t2^2, zero ones included."""
    p, q = sp.basis
    pairs = [(i, j) for i in range(sp.n) for j in range(i + 1, sp.n)]
    out = []
    for r, (i, j) in enumerate(pairs):
        for k, l in pairs[r:]:
            out.append((p[i, k] * p[j, l] - p[i, l] * p[j, k],
                        p[i, k] * q[j, l] + q[i, k] * p[j, l] - p[i, l] * q[j, k] - q[i, l] * p[j, k],
                        q[i, k] * q[j, l] - q[i, l] * q[j, k]))
    return out


def minor_span_dim(sp):
    """Dimension of the span of the 2 x 2 minors, as binary quadratics."""
    rows = [[p.coefficient({"t1": 2 - k, "t2": k}) for k in range(3)]
            for p in rank_one_system(sp)]
    return rref(rows).rank if rows else 0


def random_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.int_between(-3, 3)
    return Mat.from_ints(m)


def random_vector(rng, n):
    return [rng.int_between(-2, 2) for _ in range(n)]


def sum_of_squares(n, terms):
    """sum of s v v^T over the (sign s, vector v) terms."""
    return Mat.from_ints([[sum(s * v[i] * v[j] for s, v in terms) for j in range(n)]
                          for i in range(n)])


def oracle_pencils():
    """Seeded pencils: diagonal ones in S^3, and one with two different
    denominators; in S^3..S^5 random symmetric
    pairs, and signed sums of v v^T over a pool of three vectors and a sum
    of two of them, which share rank-one members and so reach every count
    and span dimension; half of these are re-based, which moves their
    rank-one points off the axes t1 = 0 and t2 = 0."""
    rng = SplitMix64(77)
    out = []

    def add(n, basis):
        try:
            out.append(make_space(n, basis))
        except PreconditionError:
            pass

    for _ in range(12):
        a, b = rng.nonzero_int_between(-3, 3), rng.int_between(-3, 3)
        c, d = rng.int_between(-2, 2), rng.nonzero_int_between(-3, 3)
        add(3, [diag(a, b, 0), diag(c, d, 0)])
    add(3, [diag(1, 2, 0).scale(Fraction(1, 2)), E(3, 1, 2).scale(Fraction(1, 3))])
    # [[t1, t1 + t2], [t1 + t2, 0]]: one double point, off both axes
    add(3, [E(3, 1, 1) + E(3, 1, 2), E(3, 1, 2)])
    for n in (3, 4, 5):
        for _ in range(4):
            add(n, [random_symmetric(rng, n) for _ in range(2)])
        for _ in range(16):
            v, w, x = (random_vector(rng, n) for _ in range(3))
            pool = [v, w, x, [p + q for p, q in zip(v, w)]]
            x, y = (sum_of_squares(n, [(pick_sign(rng), pool[rng.int_between(0, 3)])
                                       for _ in range(rng.int_between(1, 3))])
                    for _ in range(2))
            add(n, [x, y] if rng.int_between(0, 1) else [x + y, x.scale(2) - y])
    return out


def pick_sign(rng):
    return 1 if rng.int_between(0, 1) else -1


def rank_one_count_oracle(sp):
    """Distinct projective rank-one points via rational root scanning plus a
    discriminant check on the deflated remainder (independent of the
    squarefree-part route used by rank_one_pencil)."""
    minors = rank_one_system(sp)
    if not minors:
        return "ALL"
    g = MPoly.zero()
    for m in minors:
        g = mpoly_gcd_by_mpoly(g, m)
    if is_constant(g):
        return 0
    count = 0
    i2 = g.vars.index("t2") if "t2" in g.vars else None
    if i2 is not None and min(e[i2] for e in g.terms) > 0:
        count += 1  # root at (1 : 0)
    # dehomogenize at t2 = 1
    w = UniPoly("t1", [MPoly.const(poly_eval(c, {"t2": 1}))
                       for c in UniPoly.from_mpoly(g, "t1").coeffs])
    # deflate rational roots found by scanning small heights
    for num in range(-24, 25):
        for den in range(1, 9):
            r = Fraction(num, den)
            value = sum(
                (constant_value(c) * r ** k for k, c in enumerate(w.coeffs)), Fraction(0))
            if value == 0:
                count += 1
                root = UniPoly("t1", [MPoly.const(-r), MPoly.const(1)])
                while True:
                    q = uni_exact_div(w, root)
                    if q is None:
                        break
                    w = q
    if w.degree() == 2:
        a2 = constant_value(w.coeffs[2])
        a1 = constant_value(w.coeffs[1])
        a0 = constant_value(w.coeffs[0])
        if a1 * a1 - 4 * a2 * a0 != 0:
            count += 2
        else:
            count += 1
    elif w.degree() not in (0, 2):
        raise AssertionError("oracle cannot handle this leftover degree")
    return count


class TestCatalogFiles:
    def test_checksums(self):
        import json
        from pathlib import Path

        frozen = json.loads((Path(__file__).parent / "data" / "catalog_checksums.json").read_text())
        for fname, sha in frozen.items():
            digest = hashlib.sha256((DATA_DIR / fname).read_bytes()).hexdigest()
            assert digest == sha, f"{fname} changed: {digest}"
        listed = {meta[0] for meta in CATALOGS.values()}
        assert listed == set(frozen)

    def test_counts(self):
        assert len(catalog_polynomials("double_eigenvalue_cubics")) == 7
        assert len(catalog_polynomials("jordan_net_quadrics")) == 3
        for cid in CATALOGS:
            if cid.startswith("plucker"):
                assert len(catalog_polynomials(cid)) == 1

    def test_unknown_id(self):
        with pytest.raises(InputError):
            catalog_polynomials("nope")


class TestCatalogEval:
    def test_cubics_vanish_on_double_eigenvalue_matrix(self):
        assert catalog_eval("double_eigenvalue_cubics", diag(2, -1, -1)) == [0] * 7

    def test_cubics_nonzero_on_three_distinct(self):
        assert any(v != 0 for v in catalog_eval("double_eigenvalue_cubics", diag(1, 2, -3)))

    def test_cubics_vanish_on_conjugated_samples(self):
        for k in range(10):
            q = cayley_orthogonal(300 + k, 3)
            x = q.transpose() @ diag(2, -1, -1) @ q
            assert catalog_eval("double_eigenvalue_cubics", x) == [0] * 7

    def test_unknown_id(self):
        with pytest.raises(InputError) as err:
            catalog_eval("nope", diag(1, -1, 0))
        assert err.value.code == "UNKNOWN_ID"

    def test_every_convention_mismatch(self):
        s4_pencil = make_space(4, [E(4, 1, 1), E(4, 2, 2)])
        # a net, a 2 x 2 and a non-symmetric matrix for the traceless 3 x 3 one
        cases = {"double_eigenvalue_cubics": [canonical("s4/1a"), diag(1, -1), Mat.from_ints(
                     [[0, 1, 0], [0, 0, 0], [0, 0, 0]])],
                 "jordan_net_quadrics": [diag(1, -1, 0), canonical("s4/1a"),
                                         make_space(3, [Mat.identity(3), E(3, 1, 2)])],
                 "plucker_spin_orbit_quadric": [s4_pencil, canonical("s5/Lstar"), diag(1, -1, 0),
                                                plucker(s4_pencil), plucker(make_space(
                                                    3, [E(3, 1, 1), E(3, 2, 2), E(3, 3, 3)]))]}
        for catalog_id, values in cases.items():
            for value in values:
                with pytest.raises(PreconditionError) as err:
                    catalog_eval(catalog_id, value)
                assert err.value.code == "CONVENTION_MISMATCH", (catalog_id, value)

    def test_trace_convention_enforced(self):
        with pytest.raises(PreconditionError) as err:
            catalog_eval("double_eigenvalue_cubics", diag(1, 1, 1))
        assert err.value.code == "CONVENTION_MISMATCH"

    def test_quadrics_vanish_on_orthogonal_frame_net(self):
        q = cayley_orthogonal(42, 3)
        rows = [Mat([[q[k, i] * q[k, j] for j in range(3)] for i in range(3)]) for k in range(3)]
        net = make_space(3, [Mat.identity(3), rows[0], rows[1]])
        assert catalog_eval("jordan_net_quadrics", net) == [0, 0, 0]

    def test_quadrics_nonzero_on_random_net(self):
        x = Mat.from_ints([[1, 2, 0], [2, 0, 1], [0, 1, 1]])
        y = Mat.from_ints([[0, 1, 1], [1, 1, 0], [1, 0, 2]])
        net = make_space(3, [Mat.identity(3), x, y])
        assert any(v != 0 for v in catalog_eval("jordan_net_quadrics", net))

    def test_quadrics_need_identity_first(self):
        net = make_space(3, [E(3, 1, 1), E(3, 2, 2), E(3, 3, 3)])
        with pytest.raises(PreconditionError) as err:
            catalog_eval("jordan_net_quadrics", net)
        assert err.value.code == "CONVENTION_MISMATCH"

    def test_spin_quadric_on_orbits(self):
        spin = canonical("s4/1b")
        for seed in range(5):
            assert catalog_eval("plucker_spin_orbit_quadric", sample_congruent(spin, seed)) == [0]
        diag_net = canonical("s4/1a")
        witnesses = [
            catalog_eval("plucker_spin_orbit_quadric", sample_congruent(diag_net, s))[0]
            for s in range(6)
        ]
        assert any(v != 0 for v in witnesses)

    def test_veronese_quadric(self):
        l3 = canonical("nets/L3")
        for seed in range(5):
            assert catalog_eval("plucker_veronese_orbit_quadric", sample_congruent(l3, seed)) == [0]

    def test_plucker_vector_input(self):
        pv = plucker(canonical("s4/1b"))
        assert catalog_eval("plucker_spin_orbit_quadric", pv) == [0]

    def test_missing_plucker_coordinates_read_as_zero(self):
        for cid in ("s4/1a", "s4/2a1", "s4/3b1"):
            full = plucker(sample_congruent(canonical(cid), 3))
            sparse = PluckerVector(4, 3, full.nonzero())
            assert len(sparse.values) < len(full.values)
            for catalog_id in CATALOGS:
                if catalog_id.startswith("plucker"):
                    assert catalog_eval(catalog_id, sparse) == catalog_eval(catalog_id, full)

    def test_only_the_120_coordinate_names_get_values(self, monkeypatch):
        # an unsorted index, a short one or another letter is no coordinate of
        # a net in S^4, so it has no value and poly_eval cannot read it
        pv = plucker(canonical("s4/1b"))
        for name in ("p210", "p01", "q012", "p0123", "pabc"):
            polys = [parse_poly(f"p012 + {name}")]
            monkeypatch.setattr(varieties, "catalog_polynomials", lambda _: polys)
            with pytest.raises(KeyError):
                catalog_eval("plucker_spin_orbit_quadric", pv)
        monkeypatch.setattr(varieties, "catalog_polynomials", lambda _: [parse_poly("p012 + p789")])
        assert catalog_eval("plucker_spin_orbit_quadric", pv) == [pv[(0, 1, 2)] + pv[(7, 8, 9)]]


class TestMinRank:
    def test_lstar_tau_two(self):
        bounds = min_rank_bounds(canonical("s5/Lstar"))
        assert bounds.upper == 2 and bounds.lower == 2
        assert bounds.tau == 2
        assert bounds.certificate.kind == "CERTIFIED_EMPTY"
        assert bounds.certificate.degree <= 6

    def test_diagonalizable_s5_net_tau_one(self):
        sp = make_space(5, [diag(1, 1, 0, 0, 0), diag(0, 0, 1, 1, 0), diag(0, 0, 0, 0, 1)])
        bounds = min_rank_bounds(sp)
        assert bounds.upper == 1
        assert bounds.tau == 1

    def test_integer_sweep_matches_the_fraction_candidates(self):
        # seeded spaces in S^3..S^5 whose basis matrices are rational
        # combinations of the same n terms v v^T, so that some sweep points
        # cancel terms and rank below every basis matrix
        plain = [canonical(cid) for cid in catalog_ids() if not cid.startswith("degen/")]
        rng = SplitMix64(31)
        seeded = []
        while len(seeded) < 12:
            n = rng.int_between(3, 5)
            vs = [[rng.int_between(-2, 2) for _ in range(n)] for _ in range(n)]
            basis = []
            for _ in range(rng.int_between(2, 3)):
                c = [Fraction(rng.int_between(-2, 2), rng.int_between(1, 4)) for _ in range(n)]
                basis.append(Mat([[sum(ck * v[i] * v[j] for ck, v in zip(c, vs)) for j in range(n)]
                                  for i in range(n)]))
            try:
                seeded.append(make_space(n, basis))
            except PreconditionError:
                continue
        swept = 0
        for sp in plain + seeded:
            got = min_rank_bounds(sp)
            assert (got.upper, got.lower, got.witness) == min_rank_bounds_by_fractions(sp)
            swept += all(got.witness is not b for b in sp.basis)
        assert swept >= 3

    def test_identity_line_tau_n(self):
        for n in (2, 3, 5):
            assert min_rank_bounds(make_space(n, [Mat.identity(n)])).tau == n

    def test_2b_net_certified(self):
        cert = rank_one_locus_certificate(canonical("s4/2b"))
        assert cert.kind == "CERTIFIED_EMPTY" and cert.degree == 2

    def test_rank_one_certificate_soundness_sampled(self):
        sp = canonical("s4/2b")
        system = rank_one_system(sp)
        assert rank_one_locus_certificate(sp).kind == "CERTIFIED_EMPTY"
        rng = SplitMix64(17)
        for _ in range(500):
            point = {f"t{k + 1}": Fraction(rng.int_between(-5, 5), rng.int_between(1, 3))
                     for k in range(3)}
            if all(v == 0 for v in point.values()):
                continue
            assert any(eval_poly_at(p, point) != 0 for p in system)
