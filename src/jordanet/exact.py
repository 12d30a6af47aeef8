"""Exact scalars and sparse multivariate polynomials.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, which is
always reduced with a positive denominator).  Polynomials are sparse dicts
mapping exponent tuples to nonzero rational coefficients, with a fixed
alphabetical variable order and graded-lexicographic term order for all
canonical output.  ``UniPoly`` layers a distinguished main variable on top,
with coefficients that are polynomials in the remaining variables; that is
the form used by characteristic polynomials, GCDs and squarefree
decompositions.  ``poly_eval`` evaluates a polynomial at rationals only:
every variable gets a value, and the result is a Fraction.

Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

from .errors import InputError, InternalCheckError, PreconditionError

Scalar = Fraction

NEG_INF = float("-inf")

#: the text form of a rational: an integer or p/q, no decimals or exponents
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def frac(value) -> Fraction:
    """Coerce ints, strings like '3' or '-2/7', and Fractions to Fraction.

    Strings must be an integer or p/q: ``Fraction`` would also expand
    exponent notation, so an 11-byte '1e999999999' would build an integer of
    a billion digits."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise InputError("PARSE_ERROR", f"bad rational {value!r}: expected an integer or p/q")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("PARSE_ERROR", f"bad rational {value!r}") from exc
    raise InputError("PARSE_ERROR", f"cannot coerce {value!r} to a rational")


def frac_str(value: Fraction) -> str:
    try:  # str() refuses integers past Python's 4300-digit conversion limit
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise PreconditionError("RESULT_TOO_LARGE", "a result has a rational of over 4300 digits") from exc


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd on rationals: gcd of numerators over lcm of denominators."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(a.numerator, b.numerator)
    den = (a.denominator * b.denominator) // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def monomials(k: int, degree: int) -> Iterator[Tuple[int, ...]]:
    """Exponent tuples of length k and total degree ``degree``, in descending
    lexicographic order (t1 > t2 > ...); none for a negative degree.

    A monomial is a multiset of ``degree`` variable indices; the sorted index
    tuples come in lexicographic order, which is descending lexicographic
    order on their exponent tuples.  No recursion: k may be in the
    thousands."""
    if degree < 0:
        return
    for indices in itertools.combinations_with_replacement(range(k), degree):
        exps = [0] * k
        for i in indices:
            exps[i] += 1
        yield tuple(exps)


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class MPoly:
    """Sparse multivariate polynomial over the rationals.

    ``vars`` is a sorted tuple of variable names; ``terms`` maps exponent
    tuples (one entry per variable) to nonzero coefficients.  Binary
    operations merge variable sets automatically.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: dict):
        # internal constructor: assumes vars sorted, terms clean
        self.vars = vars
        self.terms = terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value, vars: tuple = ()) -> "MPoly":
        value = frac(value)
        if value == 0:
            return MPoly(tuple(vars), {})
        return MPoly(tuple(vars), {(0,) * len(vars): value})

    @staticmethod
    def zero(vars: tuple = ()) -> "MPoly":
        return MPoly(tuple(vars), {})

    @staticmethod
    def var(name: str) -> "MPoly":
        return MPoly((name,), {(1,): Fraction(1)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def term_count(self) -> int:
        return len(self.terms)

    def support_vars(self) -> tuple:
        used = [False] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def coefficient(self, monomial: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial given as {var: exponent}."""
        for name in monomial:
            if name not in self.vars and monomial[name]:
                return Fraction(0)
        key = tuple(monomial.get(v, 0) for v in self.vars)
        return self.terms.get(key, Fraction(0))

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _signature(self):
        sig = set()
        for exps, coeff in self.terms.items():
            mono = tuple((v, e) for v, e in zip(self.vars, exps) if e)
            sig.add((mono, coeff))
        return frozenset(sig)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        return self._signature() == other._signature()

    __hash__ = None

    # -- variable alignment -------------------------------------------

    def with_vars(self, vars: tuple) -> "MPoly":
        """Re-express over a superset of the current variables (sorted)."""
        if vars == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in vars:
                raise ValueError(f"cannot drop variable {v}")
            pos.append(vars.index(v))
        terms = {}
        for exps, coeff in self.terms.items():
            key = [0] * len(vars)
            for p, e in zip(pos, exps):
                key[p] = e
            terms[tuple(key)] = coeff
        return MPoly(vars, terms)

    def trimmed(self) -> "MPoly":
        """Drop variables that never occur."""
        keep = self.support_vars()
        if keep == self.vars:
            return self
        idx = [self.vars.index(v) for v in keep]
        return MPoly(keep, {tuple(e[i] for i in idx): c for e, c in self.terms.items()})

    @staticmethod
    def _align(a: "MPoly", b: "MPoly"):
        if a.vars == b.vars:
            return a, b
        merged = tuple(sorted(set(a.vars) | set(b.vars)))
        return a.with_vars(merged), b.with_vars(merged)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other, self.vars)
        if isinstance(other, MPoly):
            return other
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = MPoly._align(self, other)
        out = dict(a.terms)
        for exps, coeff in b.terms.items():
            acc = out.get(exps)
            tot = coeff if acc is None else acc + coeff
            if tot == 0:
                out.pop(exps, None)
            else:
                out[exps] = tot
        return MPoly(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = MPoly._align(self, other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        out = {}
        get = out.get
        for eb, cb in b.terms.items():
            for ea, ca in a.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                coeff = ca * cb
                acc = get(key)
                tot = coeff if acc is None else acc + coeff
                if tot == 0:
                    out.pop(key, None)
                else:
                    out[key] = tot
        return MPoly(a.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "MPoly":
        c = frac(c)
        if c == 0:
            return MPoly.zero(self.vars)
        return MPoly(self.vars, {e: coeff * c for e, coeff in self.terms.items()})

    # -- leading data (graded lex, earlier-alphabet variable is larger) --

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=lambda e: (sum(e), tuple(e)))

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def content(self) -> Fraction:
        """Positive rational content (gcd of all coefficients), 0 for zero."""
        acc = Fraction(0)
        for coeff in self.terms.values():
            acc = frac_gcd(acc, coeff)
        return acc

    def sign_normalized(self) -> "MPoly":
        """Divide by rational content and make the leading coefficient positive."""
        if not self.terms:
            return self
        c = self.content()
        if self.leading_coeff() < 0:
            c = -c
        return self.scale(Fraction(1) / c)

    def abs_normalized(self) -> "MPoly":
        """Flip the sign if the leading coefficient is negative; keep content."""
        if self.terms and self.leading_coeff() < 0:
            return -self
        return self

    def split_by_vars(self, names: Iterable[str]) -> dict:
        """Group terms by their exponents in ``names``.

        Returns {exponent tuple over names: MPoly in the remaining vars}.
        Used to read coefficient rows out of adjugates of generic elements.
        """
        names = tuple(names)
        idx = [self.vars.index(v) if v in self.vars else None for v in names]
        rest = tuple(v for v in self.vars if v not in names)
        rest_idx = [self.vars.index(v) for v in rest]
        grouped: dict = {}
        for exps, coeff in self.terms.items():
            key = tuple(0 if i is None else exps[i] for i in idx)
            rest_key = tuple(exps[i] for i in rest_idx)
            bucket = grouped.setdefault(key, {})
            bucket[rest_key] = bucket.get(rest_key, Fraction(0)) + coeff
        return {k: MPoly(rest, {e: c for e, c in v.items() if c != 0}) for k, v in grouped.items()}

    # -- output ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.vars, exps)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = frac_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([frac_str(mag)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"MPoly({self})"


# -- text grammar -------------------------------------------------------

#: a variable name of the text grammar
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: one token: digits with an optional "/" and digits, a name, or any other
#: non-space character (an operator, or an error the parser reports)
_TOKEN = re.compile(rf"(\d+)(?:/(\d+))?|({NAME.pattern})|(\S)")

_SIGNS = ("+", "-")


def parse_poly(text: str) -> MPoly:
    """Parse the polynomial text grammar.

    Terms are products like ``-3/2*x^2*y`` joined by ``+``/``-``: factors are
    an unsigned integer or ``p/q``, or a name with an optional power ``^k``,
    where ``k`` is a string of digits (``x^4/2`` is an error, not ``x^2``).
    The parser is the exact inverse of ``str(poly)``.

    The line is tokenized in one pass.  A term keeps its coefficient as an
    integer numerator and denominator, and one Fraction is formed per term at
    the end.  Every malformed line is a PARSE_ERROR, including a zero
    denominator and a number past Python's 4300-digit conversion limit.
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise InputError("PARSE_ERROR", "empty polynomial string")
    collected = []  # (exponent by name, numerator, denominator) per term
    i, n = 0, len(tokens)
    try:
        while i < n:
            num = 1
            while i < n and tokens[i][3] in _SIGNS:
                if tokens[i][3] == "-":
                    num = -num
                i += 1
            if i >= n:
                raise InputError("PARSE_ERROR", "dangling sign")
            den = 1
            exps: dict = {}
            expect_factor = True
            while i < n:
                digits, q, name, op = tokens[i]
                if op in _SIGNS:
                    break
                if op == "*":
                    if expect_factor:
                        raise InputError("PARSE_ERROR", "misplaced '*'")
                    i += 1
                    expect_factor = True
                    continue
                if not expect_factor:
                    raise InputError("PARSE_ERROR", "missing '*' between factors")
                i += 1
                if digits:
                    num *= int(digits)
                    if q:
                        den *= int(q)
                        if not den:
                            raise InputError("PARSE_ERROR", f"zero denominator in {digits}/{q}")
                elif name:
                    power = 1
                    if i < n and tokens[i][3] == "^":
                        if i + 1 >= n or not tokens[i + 1][0] or tokens[i + 1][1]:
                            raise InputError("PARSE_ERROR", "exponent must be a string of digits")
                        power = int(tokens[i + 1][0])
                        i += 2
                    exps[name] = exps.get(name, 0) + power
                else:
                    raise InputError("PARSE_ERROR", f"unexpected token {op!r}")
                expect_factor = False
            if expect_factor:
                raise InputError("PARSE_ERROR", "trailing operator")
            collected.append((exps, num, den))
    except ValueError as exc:  # int() refuses more than 4300 digits
        raise InputError("PARSE_ERROR", f"bad number: {exc}") from exc
    all_vars = tuple(sorted({v for exps, _, _ in collected for v in exps}))
    terms: dict = {}
    for exps, num, den in collected:
        key = tuple(exps.get(v, 0) for v in all_vars)
        coeff = Fraction(num) if den == 1 else Fraction(num, den)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return MPoly(all_vars, {k: c for k, c in terms.items() if c})


def parse_poly_lines(text: str) -> List[MPoly]:
    """One polynomial per line of a text; blank lines and ``#`` comments are
    skipped."""
    stripped = (line.strip() for line in text.splitlines())
    return [parse_poly(line) for line in stripped if line and not line.startswith("#")]


def poly_eval(p: MPoly, assignment: Mapping[str, object]) -> Fraction:
    """The value of p at rationals, one for each of its variables (names
    that are not variables of p are ignored), as a sum of its terms with no
    intermediate polynomials."""
    values = [frac(assignment[v]) for v in p.vars]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for x, e in zip(values, exps):
            if e:
                term *= x ** e
                if not term:
                    break
        total += term
    return total


# -- exact division ------------------------------------------------------

def exact_div(p: MPoly, q: MPoly) -> Optional[MPoly]:
    """Exact quotient p/q, or None when q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return MPoly.zero(p.vars)
    a, b = MPoly._align(p, q)
    lead_b = b.leading_monomial()
    lc_b = b.terms[lead_b]
    rem = dict(a.terms)
    out = {}
    while rem:
        lead_r = max(rem, key=lambda e: (sum(e), tuple(e)))
        shift = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(e < 0 for e in shift):
            return None
        c = rem[lead_r] / lc_b
        out[shift] = c
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(shift, eb))
            acc = rem.get(key, Fraction(0)) - c * cb
            if acc == 0:
                rem.pop(key, None)
            else:
                rem[key] = acc
    return MPoly(a.vars, out)


# -- univariate layer ------------------------------------------------------

class UniPoly:
    """Polynomial in one main variable with MPoly coefficients.

    ``coeffs[k]`` is the coefficient of ``var**k``; the list never ends in a
    zero (the zero polynomial has an empty list).
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    @staticmethod
    def from_mpoly(p: MPoly, var: str) -> "UniPoly":
        if var not in p.vars:
            return UniPoly(var, [p])
        buckets = p.split_by_vars((var,))
        deg = max((k[0] for k in buckets), default=-1)
        coeffs = [buckets.get((k,), MPoly.zero()) for k in range(deg + 1)]
        return UniPoly(var, coeffs)

    @staticmethod
    def from_const(var: str, value) -> "UniPoly":
        return UniPoly(var, [MPoly.const(value)])

    def to_mpoly(self) -> MPoly:
        acc = MPoly.zero((self.var,))
        x = MPoly.var(self.var)
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            acc = acc + c * x ** k
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lc(self) -> MPoly:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> MPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else MPoly.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and list(self.coeffs) == list(other.coeffs)

    __hash__ = None

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.var, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.var, [self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly(self.var, [])
        out = [MPoly.zero() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.var, out)

    def scale(self, c: MPoly) -> "UniPoly":
        return UniPoly(self.var, [co * c for co in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly(self.var, [c.scale(k) for k, c in enumerate(self.coeffs)][1:])

    def _check(self, other: "UniPoly"):
        if self.var != other.var:
            raise ValueError(f"mixed main variables {self.var!r} vs {other.var!r}")

    def __str__(self) -> str:
        return str(self.to_mpoly())

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def uni_prem(f: UniPoly, g: UniPoly) -> UniPoly:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f modulo g."""
    if g.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    df, dg = f.degree(), g.degree()
    if f.is_zero() or df < dg:
        return f
    lg = g.lc()
    steps = int(df - dg + 1)
    r = f
    while not r.is_zero() and r.degree() >= dg:
        s = UniPoly(f.var, [MPoly.zero()] * int(r.degree() - dg) + [r.lc()])
        r = r.scale(lg) - s * g
        steps -= 1
    for _ in range(steps):
        r = r.scale(lg)
    return r


def uni_exact_div(f: UniPoly, g: UniPoly) -> Optional[UniPoly]:
    """Exact quotient in the coefficient ring, or None."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return UniPoly(f.var, [])
    if f.degree() < g.degree():
        return None
    lg = g.lc()
    r = f
    out = [MPoly.zero()] * int(f.degree() - g.degree() + 1)
    while not r.is_zero() and r.degree() >= g.degree():
        c = exact_div(r.lc(), lg)
        if c is None:
            return None
        k = int(r.degree() - g.degree())
        out[k] = c
        r = r - (UniPoly(f.var, [MPoly.zero()] * k + [c]) * g)
    if not r.is_zero():
        return None
    return UniPoly(f.var, out)


def uni_content(f: UniPoly) -> MPoly:
    """GCD of the coefficients (an MPoly; the full polynomial content)."""
    acc = MPoly.zero()
    for c in f.coeffs:
        acc = mpoly_gcd(acc, c)
    return acc


def uni_primitive(f: UniPoly) -> UniPoly:
    """Primitive part with canonical sign (positive leading coefficient)."""
    if f.is_zero():
        return f
    cont = uni_content(f)
    parts = [exact_div(c, cont) for c in f.coeffs]
    if any(p is None for p in parts):
        raise InternalCheckError("INTERNAL", "content does not divide coefficients")
    g = UniPoly(f.var, parts)
    if g.lc().leading_coeff() < 0:
        g = -g
    return g


def _subresultant_last(f: UniPoly, g: UniPoly) -> UniPoly:
    """Last nonzero element of the subresultant pseudo-remainder sequence.

    Standard beta/psi bookkeeping; every division is exact in the coefficient
    ring, which the helper asserts.
    """
    if f.degree() < g.degree():
        f, g = g, f
    delta = int(f.degree() - g.degree())
    beta = MPoly.const((-1) ** (delta + 1))
    psi = MPoly.const(-1)
    rprev, rcur = f, g
    while True:
        rem = uni_prem(rprev, rcur)
        if rem.is_zero():
            return rcur
        coeffs = [exact_div(c, beta) for c in rem.coeffs]
        if any(c is None for c in coeffs):
            raise InternalCheckError("INTERNAL", "subresultant division failed")
        rnext = UniPoly(f.var, coeffs)
        lc_prev = rcur.lc()
        delta_prev = delta
        rprev, rcur = rcur, rnext
        if rcur.degree() == 0:
            return rcur
        delta = int(rprev.degree() - rcur.degree())
        neg_lc = -lc_prev
        if delta_prev > 0:
            num = neg_lc ** delta_prev
            psi_new = exact_div(num, psi ** (delta_prev - 1)) if delta_prev > 1 else num
            if psi_new is None:
                raise InternalCheckError("INTERNAL", "subresultant psi update failed")
            psi = psi_new
        beta = (-lc_prev) * psi ** delta


def subresultant_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Primitive GCD in the main variable over the coefficient fraction field."""
    if p.var != q.var:
        raise ValueError("mixed main variables")
    if p.is_zero() and q.is_zero():
        return UniPoly(p.var, [])
    if p.is_zero():
        return uni_primitive(q)
    if q.is_zero():
        return uni_primitive(p)
    if p.degree() == 0 or q.degree() == 0:
        return UniPoly.from_const(p.var, 1)
    g = _subresultant_last(p, q)
    if g.degree() == 0:
        return UniPoly.from_const(p.var, 1)
    return uni_primitive(g)


def mpoly_gcd(p: MPoly, q: MPoly) -> MPoly:
    """GCD of multivariate polynomials (used for contents and primitive parts).

    Recurses one variable at a time through primitive subresultant sequences;
    the result is sign-normalized (positive leading coefficient, content 1
    over ZZ after clearing denominators).
    """
    if p.is_zero():
        return q.abs_normalized()
    if q.is_zero():
        return p.abs_normalized()
    support = tuple(sorted(set(p.support_vars()) | set(q.support_vars())))
    if not support:
        return MPoly.const(frac_gcd(p.constant_value(), q.constant_value()))
    v = support[-1]
    fp = UniPoly.from_mpoly(p.trimmed(), v)
    fq = UniPoly.from_mpoly(q.trimmed(), v)
    cont_p = uni_content(fp)
    cont_q = uni_content(fq)
    cont_g = mpoly_gcd(cont_p, cont_q)
    pp_p = uni_primitive(fp)
    pp_q = uni_primitive(fq)
    pp_g = subresultant_gcd(pp_p, pp_q)
    return (cont_g * pp_g.to_mpoly()).abs_normalized()


def squarefree_decomposition(p: UniPoly):
    """Yun decomposition p = content * prod(factor_i ** mult_i).

    Returns (content: MPoly, [(factor: UniPoly, multiplicity: int), ...]) with
    squarefree, pairwise-coprime, primitive factors, one per multiplicity, in
    increasing multiplicity (the order Yun's loop finds them).  Since
    p = content * prod(f_i ** k_i), the content is lc(p) divided exactly by
    prod(lc(f_i) ** k_i); the tests check the reconstruction.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    if p.degree() == 0:
        return p.coeffs[0], []
    pp = uni_primitive(p)
    dp = pp.derivative()
    g = subresultant_gcd(pp, dp)
    c = uni_exact_div(pp, g)
    d = uni_exact_div(dp, g) - c.derivative()
    factors = []
    mult = 1
    while c.degree() > 0:
        a = subresultant_gcd(c, d) if not d.is_zero() else uni_primitive(c)
        if a.degree() > 0:
            factors.append((a, mult))
        c_next = uni_exact_div(c, a)
        d = uni_exact_div(d, a) - c_next.derivative()
        c = c_next
        mult += 1
    lead = math.prod((factor.lc() ** k for factor, k in factors), start=MPoly.const(1))
    return exact_div(p.lc(), lead), factors
