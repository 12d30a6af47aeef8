import json
from fractions import Fraction
from pathlib import Path

import pytest

from jordanet import univariate
from jordanet.chow import chow_det_generic
from jordanet.exact import NEG_INF, integer_poly, monomials, parse_poly, parse_poly_lines, poly_eval
from jordanet.errors import InputError
from jordanet.prng import SplitMix64
from jordanet.univariate import mpoly_gcd, squarefree_decomposition, subresultant_gcd
from oracles import (
    MPoly,
    UniPoly,
    constant_value,
    exact_div,
    from_recursive,
    integer_coefficients,
    is_constant,
    lift,
    mpoly_from_terms,
    mpoly_gcd_by_recursive,
    parse_outcome,
    parse_poly_by_tokens,
    poly_eval_by_fractions,
    poly_eval_by_mpoly,
    squarefree_by_mpoly,
    squarefree_by_recursive,
    subresultant_gcd_by_recursive,
    subresultant_sequence,
    to_recursive,
    uni_exact_div,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "jordanet" / "data"


def P(s):
    return lift(parse_poly(s))


def U(s, var="lam"):
    return UniPoly.from_mpoly(parse_poly(s), var)


def R(s, names=("lam", "t")):
    """A polynomial text in the recursive dense form of the gcds."""
    return to_recursive(parse_poly(s), names)


def divides(g: MPoly, f: MPoly) -> bool:
    return exact_div(f, g) is not None


def lam_free_cofactor(p: UniPoly, factors, names) -> MPoly:
    """p / prod(factor ** multiplicity); asserts it is exact and free of lam."""
    rebuilt = MPoly.const(1)
    for factor, mult in factors:
        rebuilt = rebuilt * from_recursive(factor, names) ** mult
    cofactor = exact_div(p.to_mpoly(), rebuilt)
    assert cofactor is not None and "lam" not in cofactor.support_vars()
    return cofactor


def random_poly(rng, vars=("x", "y", "z"), nterms=4, maxdeg=3, coeff=5):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.int_between(0, maxdeg) for _ in vars)
        terms[exps] = Fraction(rng.int_between(-coeff, coeff), rng.int_between(1, 3))
    return mpoly_from_terms(vars, terms)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P("x+y") * P("x-y") == P("x^2-y^2")

    def test_additive_identity(self):
        p = P("3*x^2*y - 1/2")
        assert p + P("0") == p
        assert p + 0 == p

    def test_double_conic_square(self):
        sq = P("x*z-y^2") * P("x*z-y^2")
        assert sq == P("x^2*z^2 - 2*x*y^2*z + y^4")
        assert sq.term_count() == 3
        assert sq.total_degree() == 4

    def test_mixed_variable_sets(self):
        assert P("x") + P("y") == P("y + x")
        assert P("x*w") * P("z") == P("w*x*z")

    def test_pow(self):
        assert P("x+1") ** 3 == P("x^3+3*x^2+3*x+1")
        assert P("x") ** 0 == P("1")

    def test_distributivity_randomized(self):
        rng = SplitMix64(7)
        for _ in range(25):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r

    def test_scale_and_content(self):
        p = P("4*x - 6*y")
        assert p.content() == 2
        assert p.sign_normalized() == P("2*x - 3*y")
        assert (-p).sign_normalized() == P("2*x - 3*y")


class TestEval:
    def test_full_assignment_gives_scalar(self):
        assert poly_eval(P("x^2+y"), {"x": 2, "y": 3}) == 7

    def test_conic_at_point(self):
        assert poly_eval(P("x*z-y^2"), {"x": 1, "z": 1, "y": 0}) == 1

    def test_matches_substitution(self):
        rng = SplitMix64(534)
        polys = [P("0"), P("7"), MPoly.const(Fraction(-2, 3), ("x", "y")), MPoly.zero(("z",))]
        polys += [random_poly(rng, vars=vs) for vs in (("x",), ("x", "y"), ("x", "y", "z"))
                  for _ in range(10)]
        for p in polys:
            # names p lacks ("w" always, others sometimes); zero values too
            pt = {v: Fraction(rng.int_between(-3, 3), rng.int_between(1, 3)) for v in "xyzw"}
            got = poly_eval(p, pt)
            assert isinstance(got, Fraction) and got == poly_eval_by_mpoly(p, pt)

    def test_every_variable_takes_a_rational(self):
        with pytest.raises(KeyError):
            poly_eval(P("x^2+y"), {"x": 2, "w": 1})
        with pytest.raises(InputError):
            poly_eval(P("x^2+y"), {"x": MPoly.var("t"), "y": 1})

    def test_eval_is_ring_hom(self):
        rng = SplitMix64(11)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            pt = {v: Fraction(rng.int_between(-4, 4), rng.int_between(1, 3)) for v in "xyz"}
            assert poly_eval(p * q, pt) == poly_eval(p, pt) * poly_eval(q, pt)
            assert poly_eval(p + q, pt) == poly_eval(p, pt) + poly_eval(q, pt)


class TestPolyEval:
    """``poly_eval`` sums integers over one common denominator B of the
    values and C of the coefficients; ``poly_eval_by_fractions`` is the
    Fraction term loop it replaced."""

    def test_terms_of_lower_degree_are_scaled_by_the_common_denominator(self):
        # x^2 + y at (1/2, 1/3): B = 6, so 3^2 + 2 * 6 over 6^2, not 3^2 + 2
        # (no B^(D - |t|)) and not 1 + 1 * 6 (numerators not rescaled to B)
        assert poly_eval(parse_poly("x^2 + y"), {"x": Fraction(1, 2), "y": Fraction(1, 3)}) \
            == Fraction(7, 12)
        assert poly_eval(parse_poly("3/4*x*y - 5/6*x + 1/10"),
                         {"x": Fraction(-2, 3), "y": Fraction(5, 2)}) == Fraction(-107, 180)

    def test_matches_the_fraction_sum_on_seeded_polynomials(self):
        # non-homogeneous polynomials with coefficient denominators 1..7 and
        # values over denominators 1..5, each its own, zero and negative ones
        # among them; constants and zero polynomials, with and without variables
        rng = SplitMix64(3601)
        polys = [parse_poly("0"), parse_poly("-5/6"), MPoly.const(Fraction(7, 4), ("x", "y")),
                 MPoly.zero(("z",))]
        for k in range(80):
            vars = ("w", "x", "y", "z")[: 1 + k % 4]
            terms = {tuple(rng.int_between(0, 3) for _ in vars):
                     Fraction(rng.int_between(-9, 9), rng.int_between(1, 7))
                     for _ in range(1 + k % 6)}
            polys.append(mpoly_from_terms(vars, terms))
        assert sum(len({sum(e) for e in p.terms}) > 1 for p in polys) > 50
        for p in polys:
            for _ in range(3):
                pt = {v: Fraction(rng.int_between(-4, 4), rng.int_between(1, 5)) for v in "wxyz"}
                got = poly_eval(p, pt)
                assert type(got) is Fraction and got == poly_eval_by_fractions(p, pt), (str(p), pt)

    def test_matches_the_fraction_sum_on_the_generic_chow_determinant(self):
        det = chow_det_generic(3)
        rng = SplitMix64(3602)
        for _ in range(2):
            pt = {v: Fraction(rng.int_between(-3, 3), rng.int_between(1, 4)) for v in det.vars}
            assert poly_eval(det, pt) == poly_eval_by_fractions(det, pt)


class TestStats:
    def test_basic(self):
        p = P("x^2*z^2 - 2*x*y^2*z + y^4")
        assert (p.total_degree(), p.term_count()) == (4, 3)

    def test_zero_poly(self):
        p = P("0")
        assert (p.total_degree(), p.term_count()) == (NEG_INF, 0)

    def test_coefficient_of_monomial(self):
        p = P("x^2*z^2 - 2*x*y^2*z + y^4")
        assert p.coefficient({"x": 1, "y": 2, "z": 1}) == -2
        assert p.coefficient({"x": 3}) == 0
        assert p.coefficient({"y": 4}) == 1
        assert p.coefficient({"w": 1}) == 0


class TestMonomials:
    def test_matches_the_filtered_product(self):
        # oracle: filter all (D+1)^k exponent tuples, sort descending
        import itertools

        for k in range(6):
            for degree in range(-1, 5):
                oracle = sorted((e for e in itertools.product(range(degree + 1), repeat=k)
                                 if sum(e) == degree), reverse=True)
                assert list(monomials(k, degree)) == oracle, (k, degree)

    def test_twelve_variables_degree_three(self):
        got = list(monomials(12, 3))
        assert len(got) == 364 and got[0] == (3,) + (0,) * 11 and got[-1] == (0,) * 11 + (3,)

    def test_more_variables_than_the_recursion_limit(self):
        k = 1200
        assert list(monomials(k, 0)) == [(0,) * k]
        got = list(monomials(k, 1))
        assert got == [tuple(int(i == j) for i in range(k)) for j in range(k)]


class TestGrammar:
    def test_round_trip(self):
        samples = [
            "x^2*z^2 - 2*x*y^2*z + y^4",
            "-3/2*a*b + 7",
            "0",
            "t1^3 - t2",
            "p012*p457",
        ]
        for s in samples:
            p = P(s)
            assert str(p) == s or P(str(p)) == p
            assert P(str(p)) == p

    def test_canonical_graded_lex_order(self):
        # same degree: x^2 before x*y before x*z before y^2 before y*z before z^2
        p = P("z^2 + y*z + y^2 + x*z + x*y + x^2")
        assert str(p) == "x^2 + x*y + x*z + y^2 + y*z + z^2"

    def test_rational_coefficients(self):
        p = P("1/3*x - 2/7")
        assert p.coefficient({"x": 1}) == Fraction(1, 3)
        assert str(p) == "1/3*x - 2/7"

    def test_rejects_garbage(self):
        for bad in ["x +", "* x", "x ^ y", "2x"]:
            with pytest.raises(InputError):
                P(bad)

    def test_an_exponent_is_a_string_of_digits(self):
        # the old tokenizer read x^4/2 as x^2; the only intended difference
        for text in ["x^4/2", "x^2/1", "x^ 6/3*y", "x^1/0", "x^-1", "x^+2", "x^y", "x^"]:
            assert parse_outcome(parse_poly, text) == "PARSE_ERROR", text
        assert parse_poly_by_tokens("x^4/2") == P("x^2")
        assert P("x^02 * x ^ 1") == P("x^3")

    EDGE_CASES = [
        "", "   ", "x +", "* x", "x *", "x**y", "x ^ y", "2x", "x y", "--x + -+y", "+x",
        "1/0*x", "0/0", "5/00", "3/2/5", "3 / 2", "3/ 2", "(x)", "x#", "x.5", "1e5", "0*x + y",
        "x^0", "x^0*y^00", "2*3/4*x*x", "-0", "x - x", "\u0663*x", "\u00b2*x", "x\u00a0+\ty",
        "1" * 4300 + "*x", "1" * 4301 + "*x", "x^" + "1" * 4301, "1/" + "7" * 4301,
        "_a1*B_2 - 7/3*_", "p012*p457 + p012^2",
    ]

    def test_matches_the_token_oracle_on_edge_cases(self):
        for text in self.EDGE_CASES:
            assert parse_outcome(parse_poly, text) == parse_outcome(parse_poly_by_tokens, text), text

    def test_matches_the_token_oracle_on_the_data_files(self):
        texts = []
        for path in sorted((DATA / "polynomials").glob("*.txt")):
            texts += [line.strip() for line in path.read_text().splitlines()
                      if line.strip() and not line.startswith("#")]

        def strings(obj):
            if isinstance(obj, str):
                yield obj
            elif isinstance(obj, list):
                for x in obj:
                    yield from strings(x)
            elif isinstance(obj, dict):
                for x in obj.values():
                    yield from strings(x)

        for path in sorted((DATA / "catalog").glob("*.json")):
            texts += list(strings(json.loads(path.read_text())))
        parsed = 0
        for text in texts:
            got = parse_outcome(parse_poly, text)
            assert got == parse_outcome(parse_poly_by_tokens, text), text
            parsed += got != "PARSE_ERROR"
        assert parsed > 60

    def test_matches_the_token_oracle_on_seeded_polynomials(self):
        # printed forms, and the same terms rewritten: spaces, repeated signs,
        # split and reordered factors and coefficients, repeated monomials
        rng = SplitMix64(2013)
        for k in range(300):
            p = random_poly(rng, vars=("x", "y", "z", "t1")[: 1 + k % 4], nterms=1 + k % 6,
                            coeff=10 ** (k % 5))
            texts = [str(p)]
            chunks = []
            for exps, c in p.terms.items():
                factors = [f"{v}^{e}" if rng.int_between(0, 1) else "*".join([v] * e)
                           for v, e in zip(p.vars, exps) if e]
                factors += [str(abs(c.numerator)), f"1/{c.denominator}"]
                factors = [factors[i] for i in sorted(range(len(factors)),
                                                      key=lambda i: rng.int_between(0, 99))]
                sign = "-" if c < 0 else pick_sign(rng)
                chunks.append(sign + " " * rng.int_between(0, 2) + " * ".join(factors))
            if chunks:
                texts.append(" ".join(chunks))
                texts.append(" + ".join(chunks) + " - " + chunks[0].lstrip("+-"))
            for text in texts:
                got = parse_outcome(parse_poly, text)
                assert got != "PARSE_ERROR" and got == parse_outcome(parse_poly_by_tokens, text)
            assert P(texts[0]) == p


    def test_a_leading_number_is_read_before_the_rest(self):
        # the first malformed factor in reading order names the error, also
        # when the rest of its term is read from the memo
        for bad in ["x^", "(x)", "x y", "5/0"]:
            for text in ("9" * 4301 + "*" + bad, "y - " + "9" * 4301 + " * " + bad):
                for parse in (parse_poly, integer_poly):
                    with pytest.raises(InputError, match="bad number"):
                        parse(text)
        for parse in (parse_poly, integer_poly):
            with pytest.raises(InputError, match="expected a number"):
                parse("x^*" + "9" * 4301)

    def test_files_that_repeat_one_monomial_match_the_token_oracle(self):
        # one monomial text recurs on every line behind leading, middle and
        # trailing coefficients, p/q, sign runs and blanks, with blank and
        # comment lines between; read as MPolys and as integer polynomials
        rng = SplitMix64(3603)
        for k in range(60):
            factors = [["x", "y^2"], ["t1^2", "t2", "t3"], ["p012"], ["x^0", "y"]][k % 4]
            lines = []
            for _ in range(rng.int_between(2, 6)):
                chunks = []
                for j in range(rng.int_between(1, 4)):
                    body = list(factors)
                    c = pick(rng, ["", "3", "007", "2/5", "1/1", "12/7"])
                    if c:
                        body.insert(rng.int_between(0, len(body)), c)
                    blank = pick(rng, ["", " ", "  ", "\t"])
                    sign = pick(rng, ["", "-", "- -"] if not j else ["+", "-", "- -", "+-", "--"])
                    chunks.append(sign + pick(rng, ["", " "]) + f"{blank}*{blank}".join(body))
                lines.append(" ".join(chunks))
                lines += [""] if rng.int_between(0, 2) == 0 else []
            text = "# a file\n" + "\n".join(lines) + "\n"
            kept = [line.strip() for line in lines if line.strip()]
            got = parse_poly_lines(text)
            want = [parse_poly_by_tokens(line) for line in kept]
            assert [(p.vars, p.terms) for p in got] == [(p.vars, p.terms) for p in want], text
            for (p, d), q in zip(parse_poly_lines(text, integer_poly), want):
                assert frozenset((mono, Fraction(c, d)) for mono, c in p.items()) == \
                    q._signature(), text


def pick(rng, options):
    return options[rng.int_between(0, len(options) - 1)]


def pick_sign(rng):
    return ["+", "+-+-", "- -"][rng.int_between(0, 2)]


class TestExactDiv:
    def test_exact(self):
        p = P("x^2 - y^2")
        assert exact_div(p, P("x - y")) == P("x + y")

    def test_not_divisible(self):
        assert exact_div(P("x^2 + 1"), P("x + 1")) is None

    def test_randomized_products(self):
        rng = SplitMix64(5)
        for _ in range(15):
            a, b = random_poly(rng, nterms=3), random_poly(rng, nterms=3)
            if a.is_zero() or b.is_zero():
                continue
            assert exact_div(a * b, b) == a


def ints(p: UniPoly):
    """A UniPoly in lam alone as the package's integer coefficient list."""
    return [c.get((), 0) for c in integer_coefficients(p.coeffs)]


def L(s):
    return ints(U(s))


class TestGcd:
    """The package's gcds on integer polynomials in lam, and the bivariate
    oracle's (``subresultant_gcd_by_recursive``) on Z[t][lam]."""

    def test_gcd_linear(self):
        assert subresultant_gcd(L("lam^2 - 4"), L("lam - 2")) == L("lam - 2")
        assert subresultant_gcd_by_recursive(R("lam^2 - t^2"), R("lam - t")) == R("lam - t")

    def test_gcd_with_itself(self):
        assert subresultant_gcd(L("lam^2 + 1"), L("lam^2 + 1")) == L("lam^2 + 1")
        assert subresultant_gcd(L("lam^2 + 1"), []) == L("lam^2 + 1")

    def test_gcd_hand_factorization(self):
        # lam^3 - lam = lam(lam-1)(lam+1); lam^2 - 1 = (lam-1)(lam+1)
        assert subresultant_gcd(L("lam^3 - lam"), L("lam^2 - 1")) == L("lam^2 - 1")
        assert subresultant_gcd(L("lam^3 - lam"), L("lam^2 + 1")) == [1]

    def test_gcd_divides_inputs(self):
        rng = SplitMix64(23)
        for _ in range(10):
            h = P("lam^2 + t*lam + 1")
            f = h * P(f"lam + {rng.int_between(1, 5)}*t")
            g = h * P(f"lam - {rng.int_between(1, 5)}")
            d = from_recursive(subresultant_gcd_by_recursive(to_recursive(f, ("lam", "t")),
                                                             to_recursive(g, ("lam", "t"))),
                               ("lam", "t"))
            assert divides(d, f) and divides(d, g)
            assert divides(h, d)  # h itself divides the gcd
            # at t = 3, on the package's integer polynomials in lam
            h3 = U("lam^2 + 3*lam + 1")
            f3, g3 = h3 * U(f"lam + {3 * rng.int_between(1, 5)}"), h3 * U(f"lam - {rng.int_between(1, 5)}")
            d3 = UniPoly("lam", subresultant_gcd(ints(f3), ints(g3)))
            assert uni_exact_div(f3, d3) is not None and uni_exact_div(g3, d3) is not None
            assert uni_exact_div(d3, h3) is not None

    def test_gcd_nonmonic_content(self):
        # gcd must survive polynomial contents in the coefficients
        # t(lam-1)(lam+1) and t(lam-1); 6(lam-1)(lam+1) and -4(lam-1)
        assert subresultant_gcd_by_recursive(R("t*lam^2 - t"), R("t*lam - t")) == R("lam - 1")
        assert subresultant_gcd(L("6*lam^2 - 6"), L("-4*lam + 4")) == L("lam - 1")

    def test_remainder_sequence_matches_the_oracle(self, monkeypatch):
        # the sequence of a wrong psi still ends in the same primitive gcd,
        # but its elements are multiples of the subresultants; first-step degree
        # gaps of 0 to 4 give normal and abnormal sequences
        rng = SplitMix64(29)
        real = univariate._prem
        for df, dg in [(6, 5), (6, 4), (5, 3), (7, 3), (4, 4)]:
            f, g = ([rng.int_between(-5, 5) for _ in range(d)] + [rng.nonzero_int_between(-5, 5)]
                    for d in (df, dg))
            seen = []
            monkeypatch.setattr(univariate, "_prem", lambda a, b: seen.append(b) or real(a, b))
            subresultant_gcd(f, g)
            monkeypatch.undo()
            expected = [r for r in subresultant_sequence(UniPoly("lam", f), UniPoly("lam", g))[1:]
                        if r.degree() > 0]
            assert len(expected) >= 3
            assert [UniPoly("lam", b) for b in seen] == expected

    def test_mpoly_gcd(self):
        # contents are kept: gcd(6(lam-1)(lam+1), -4(lam-1)) = 2(lam-1)
        assert mpoly_gcd(L("6*lam^2 - 6"), L("-4*lam + 4")) == L("2*lam - 2")
        assert mpoly_gcd([], L("-2*lam")) == L("2*lam") and mpoly_gcd([], []) == []
        assert mpoly_gcd_by_recursive(R("t2*t1", ("t1", "t2")), R("t2^2", ("t1", "t2"))) == \
            R("t2", ("t1", "t2"))
        xy = ("x", "y")
        assert mpoly_gcd_by_recursive(R("x^2-y^2", xy), R("x^2+2*x*y+y^2", xy)) == R("x+y", xy)
        assert mpoly_gcd_by_recursive(R("0", xy), R("-2*x", xy)) == R("2*x", xy)


def sqf(p: UniPoly):
    """The bivariate oracle's decomposition of a UniPoly in lam, read off its
    coefficients cleared of denominators; when lam is its one variable, the
    package's decomposition of the same integers is the same."""
    coeffs = integer_coefficients(p.coeffs)
    factors = squarefree_by_recursive(coeffs)
    if all(set(c) <= {()} for c in coeffs):
        assert squarefree_decomposition([c.get((), 0) for c in coeffs]) == factors
    return factors


class TestSquarefree:
    def test_square_times_linear(self):
        p = U("lam - t") * U("lam - t") * U("lam + 1")
        factors = sqf(p)
        assert factors == [(R("lam + 1"), 1), (R("lam - t"), 2)]
        assert lam_free_cofactor(p, factors, ("lam", "t")) == 1

    def test_already_squarefree(self):
        assert sqf(U("lam^2 - 1")) == [(R("lam^2 - 1"), 1)]

    def test_block_double_eigenvalues(self):
        # the quartic (lam^2 - (x+z)lam + (xz - y^2))^2 coming from a
        # two-identical-blocks matrix decomposes with multiplicity two
        names = ("lam", "x", "y", "z")
        q = U("lam^2 - x*lam - z*lam + x*z - y^2")
        assert sqf(q * q) == [(to_recursive(q.to_mpoly(), names), 2)]

    def test_reconstruction_randomized(self):
        rng = SplitMix64(41)
        for _ in range(10):
            f1 = U(f"lam + {rng.int_between(-3, 3)}")
            f2 = U(f"lam^2 + {rng.nonzero_int_between(-3, 3)}*t")
            m1 = rng.int_between(1, 3)
            m2 = rng.int_between(1, 2)
            p = UniPoly.from_const("lam", rng.nonzero_int_between(-4, 4))
            for _ in range(m1):
                p = p * f1
            for _ in range(m2):
                p = p * f2
            factors = sqf(p)
            lam_free_cofactor(p, factors, ("lam", "t"))
            # one factor per multiplicity, in the increasing order Yun's loop
            # finds them (f1 and f2 merge when m1 == m2)
            mults = [mult for _, mult in factors]
            assert all(a < b for a, b in zip(mults, mults[1:]))
            assert set(mults) == {m1, m2}

    def test_content_extraction(self):
        p = (U("lam - 1") * U("lam - 1")).scale(P("6*t"))
        factors = sqf(p)
        assert factors == [(R("lam - 1"), 2)]
        assert lam_free_cofactor(p, factors, ("lam", "t")) == P("6*t")
        # factors that are not monic: lc(p) = 3 t^2 holds lc(t*lam - 1)^2
        p = (U("t*lam - 1") * U("t*lam - 1") * U("lam + 1")).scale(P("3"))
        factors = sqf(p)
        assert factors == [(R("lam + 1"), 1), (R("t*lam - 1"), 2)]
        assert lam_free_cofactor(p, factors, ("lam", "t")) == 3

    def test_the_oracle_on_the_same_products(self):
        # the MPoly chain kept in the tests returns the content as well
        p = (U("t*lam - 1") * U("t*lam - 1") * U("lam + 1")).scale(P("3"))
        content, factors = squarefree_by_mpoly(p)
        assert content == P("3")
        assert factors == [(U("lam + 1"), 1), (U("t*lam - 1"), 2)]


def linear_form(rng, params):
    """A random integer affine form in the parameters."""
    terms = [f"{rng.nonzero_int_between(-3, 3)}*{v}" for v in params]
    return P(" + ".join(terms + [str(rng.int_between(-3, 3))]))


class TestYunOnIntegerPolynomials:
    """Seeded products c * f1 * f2^2 * f3^3 with known squarefree, pairwise
    coprime factors, over Q, Q(t) and Q(t1, t2): c is a negative rational
    (an integer content and a denominator to clear), f1 = a*lam - l and
    f3 = a*lam - l - k (k != 0) are linear in lam with different roots, and
    f2 = (lam - s)^2 - l' is irreducible (l' a non-square integer, or a form
    with every parameter in it).  Over Q the package's decomposition runs
    too (``sqf``)."""

    PARAMS = [(), ("t",), ("t1", "t2")]

    def products(self):
        rng = SplitMix64(2027)
        lam = P("lam")
        for params in self.PARAMS:
            for _ in range(6 if len(params) < 2 else 2):  # the oracle: 1.3 s a product in two
                a1 = rng.int_between(1, 3)
                l1 = linear_form(rng, params)
                f1 = lam.scale(a1) - l1
                f3 = lam.scale(a1) - l1 - rng.nonzero_int_between(-3, 3)
                if params:
                    l2 = linear_form(rng, params)
                else:
                    l2 = MPoly.const([2, 3, 5, 6, 7, -1, -2][rng.int_between(0, 6)])
                f2 = (lam - rng.int_between(-2, 2)) ** 2 - l2
                c = Fraction(-6 * rng.int_between(1, 3), rng.int_between(1, 5))
                p = UniPoly.from_mpoly((f1 * f2 ** 2 * f3 ** 3).scale(c), "lam")
                yield params, p, [(f1, 1), (f2, 2), (f3, 3)]

    def test_multiplicities_degrees_and_reconstruction(self):
        seen = set()
        for params, p, known in self.products():
            names = ("lam",) + tuple(sorted(params))
            assert p.lc().leading_coeff() < 0
            factors = sqf(p)
            shape = [(len(f) - 1, k) for f, k in factors]
            assert shape == [(1, 1), (2, 2), (1, 3)]
            _, oracle = squarefree_by_mpoly(p)
            assert shape == [(int(f.degree()), k) for f, k in oracle]
            for (factor, _), (f, _) in zip(factors, known):
                ratio = exact_div(f, from_recursive(factor, names))
                assert ratio is not None and is_constant(ratio) and not ratio.is_zero()
            cofactor = lam_free_cofactor(p, factors, names)
            assert is_constant(cofactor) and constant_value(cofactor) < 0
            seen.add(len(params))
        assert seen == {0, 1, 2}

    def test_degree_zero_and_zero(self):
        assert squarefree_decomposition([-7]) == [] == squarefree_by_recursive([{(): -7}])
        assert squarefree_by_recursive(integer_coefficients([P("t^2 + 1")])) == []
        with pytest.raises(ValueError):
            squarefree_decomposition([0, 0])
        with pytest.raises(ValueError):
            squarefree_by_recursive(integer_coefficients([Fraction(0), MPoly.zero(("t",))]))


class TestUniPolyDivision:
    def test_exact_division(self):
        f = U("lam^2 - t^2")
        assert uni_exact_div(f, U("lam - t")) == U("lam + t")
        assert uni_exact_div(f, U("lam + 1")) is None
