"""Exact scalars and sparse multivariate polynomials.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, which is
always reduced with a positive denominator).  Polynomials are sparse dicts
mapping exponent tuples to nonzero rational coefficients, with a fixed
alphabetical variable order and graded-lexicographic term order for all
canonical output.  ``poly_eval`` evaluates a polynomial at rationals only:
every variable gets a value, and the result is a Fraction.

The text grammar has one reader, ``scan_terms``, which splits a line on its
sign runs and ``*`` into integer terms.  ``parse_poly`` makes one Fraction per
term; ``integer_poly`` makes none and clears denominators by one lcm: 55
rank-one quadrics in t1..t6 are read in 3.4 ms, against 6.9 ms as MPolys
(CPU, Xeon, Python 3.11.7).

Squarefree decomposition (the generic multiplicity partition) runs on
integer polynomials in recursive dense form: an int, or the list of
coefficients in a main variable, each a polynomial in one variable fewer.
``squarefree_decomposition`` (Yun) reads integer characteristic-polynomial
coefficients, {exponent tuple: int}, into that form; its gcds
are ``mpoly_gcd`` (contents, then primitive parts) and ``subresultant_gcd``
(the subresultant pseudo-remainder sequence, with exact integer divisions).
The same code runs in any number of variables.

Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .errors import InputError, InternalCheckError, PreconditionError

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

    The successor of an exponent tuple e: take the last j < k - 1 with
    e_j > 0, move one unit from e_j to e_(j+1) and the whole last entry there
    too, e_(j+1) = e_(k-1) + 1.  The next such j is j + 1, unless that is
    k - 1, when it is found by a scan to the left that the steps after it
    repay, so each tuple costs O(k) whatever the degree.  No recursion: k
    may be in the thousands and the degree in the billions."""
    if degree < 0 or (k == 0 and degree):
        return
    exps = [degree] + [0] * (k - 1) if k else []
    j = 0 if k > 1 and degree else -1  # the last index below k - 1 with a nonzero entry
    while True:
        yield tuple(exps)
        if j < 0:
            return
        rest, exps[-1] = exps[-1], 0
        exps[j] -= 1
        exps[j + 1] = rest + 1
        if j + 2 < k:
            j += 1
        else:
            while j >= 0 and not exps[j]:
                j -= 1


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

    def split_by_vars(self, names: Iterable[str]) -> dict:
        """Group terms by their exponents in ``names``.

        Returns {exponent tuple over names: MPoly in the remaining vars}.
        Used to read a substituted quadric by monomial in the quadric
        variables (``catalog.substitution_family``).
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

#: a run of signs, with the blanks between them: what separates two terms
_SIGN_RUN = re.compile(r"([+-][\s+-]*)")

#: one factor of a term, with the blanks around it: digits with an optional
#: "/" and digits, or a name with an optional power "^" and digits
_FACTOR = re.compile(rf"\s*(?:(\d+)(?:/(\d+))?|({NAME.pattern})(?:\s*\^\s*(\d+))?)\s*")


@functools.lru_cache(maxsize=1024)  # 98% of a file's factor texts repeat: half the scan time
def _factor(text: str) -> Tuple[Optional[str], int, int]:
    """(name, power, 1) or (None, numerator, denominator) of one factor."""
    match = _FACTOR.fullmatch(text)
    if not match:
        raise InputError("PARSE_ERROR", f"expected a number, p/q or name^k, found {text.strip()!r}")
    digits, q, name, power = match.groups()
    if name:
        return name, int(power) if power else 1, 1
    if q and not int(q):
        raise InputError("PARSE_ERROR", f"zero denominator in {digits}/{q}")
    return None, int(digits), int(q) if q else 1


def scan_terms(text: str) -> List[Tuple[Dict[str, int], int, int]]:
    """The terms of one line of the text grammar as integers: (exponent by
    name, numerator, denominator) each, a name of power 0 kept.

    Terms are products like ``-3/2*x^2*y`` joined by ``+``/``-``: factors are
    an unsigned integer or ``p/q``, or a name with an optional power ``^k``,
    where ``k`` is a string of digits (``x^4/2`` is an error, not ``x^2``).
    The line is split on its sign runs (an odd number of ``-`` negates the
    term after it), each term on ``*``, and each factor is one regex match.
    Every malformed line is a PARSE_ERROR, including a zero denominator and
    a number past Python's 4300-digit conversion limit."""
    parts = _SIGN_RUN.split("+" + text)  # "", then each sign run and its term
    terms = []
    try:
        for run, body in zip(parts[1::2], parts[2::2]):
            num, den, exps = -1 if run.count("-") % 2 else 1, 1, {}
            for factor in body.split("*"):
                name, a, b = _factor(factor)
                if name:
                    exps[name] = exps.get(name, 0) + a
                else:
                    num, den = num * a, den * b
            terms.append((exps, num, den))
    except ValueError as exc:  # int() refuses more than 4300 digits
        raise InputError("PARSE_ERROR", f"bad number: {exc}") from exc
    return terms


def parse_poly(text: str) -> MPoly:
    """The polynomial of one line (``scan_terms``), one Fraction per term:
    the exact inverse of ``str(poly)``."""
    collected = scan_terms(text)
    all_vars = tuple(sorted({v for exps, _, _ in collected for v in exps}))
    terms: dict = {}
    for exps, num, den in collected:
        key = tuple(exps.get(v, 0) for v in all_vars)
        coeff = Fraction(num) if den == 1 else Fraction(num, den)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return MPoly(all_vars, {k: c for k, c in terms.items() if c})


def integer_poly(text: str) -> Dict[tuple, int]:
    """The polynomial of one line (``scan_terms``) times the lcm of its
    denominators, with no Fraction formed, as an integer polynomial over
    names: {monomial: nonzero int}, a monomial the (name, exponent) pairs of
    its positive exponents, in name order."""
    collected = scan_terms(text)
    lcm = math.lcm(*(den for _, _, den in collected))
    terms: dict = {}
    for exps, num, den in collected:
        key = tuple(sorted(exps.items()))
        if 0 in exps.values():
            key = tuple(pair for pair in key if pair[1])
        terms[key] = terms.get(key, 0) + num * (lcm // den)
    return {key: c for key, c in terms.items() if c}


def parse_poly_lines(text: str, parse: Callable[[str], object] = parse_poly) -> list:
    """``parse`` of each line of a text; blank lines and ``#`` comments are
    skipped."""
    stripped = (line.strip() for line in text.splitlines())
    return [parse(line) for line in stripped if line and not line.startswith("#")]


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


# -- integer polynomials in recursive dense form -------------------------------
#
# A polynomial is an int, or the list of its coefficients in the main
# variable (lowest degree first, no trailing 0), each a polynomial in one
# variable fewer.  [c] is written c, so 0 is the one zero and an int is a
# constant at any depth; [p] is p as a constant in the main variable.

def _trim(p: list):
    while p and not p[-1]:
        p.pop()
    return p[0] if len(p) == 1 and isinstance(p[0], int) else p or 0


def _coeffs(p) -> list:
    return p if isinstance(p, list) else [p]


def _degree(p) -> int:
    """Degree in the main variable (0 for a constant and for 0)."""
    return len(p) - 1 if isinstance(p, list) else 0


def _add(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    return _trim([_add(x, y) for x, y in itertools.zip_longest(_coeffs(a), _coeffs(b),
                                                               fillvalue=0)])


def _mul(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    a, b = _coeffs(a), _coeffs(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _add(out[i + j], _mul(x, y))
    return _trim(out)


def _sub(a, b):
    return _add(a, _mul(b, -1))


def _power(a, k: int):
    return functools.reduce(_mul, [a] * k, 1)


def _div(a, b):
    """The exact quotient a / b; a remainder is a bug and raises."""
    if b == 1:
        return a
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
    else:
        r, b = list(_coeffs(a)), _coeffs(b)
        q = [0] * max(len(r) - len(b) + 1, 0)
        for k in reversed(range(len(q))):
            q[k] = _div(r[k + len(b) - 1], b[-1])
            for j, y in enumerate(b):
                r[k + j] = _sub(r[k + j], _mul(q[k], y))
        q, r = _trim(q), any(r)
    if r:
        raise InternalCheckError("INTERNAL", "inexact integer polynomial division")
    return q


def _derivative(p):
    return _trim([_mul(x, k) for k, x in enumerate(p)][1:]) if isinstance(p, list) else 0


def _prem(a, b):
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, deg b >= 1."""
    lb, db = [b[-1]], len(b) - 1
    for _ in range(_degree(a) - db + 1):
        top = [0] * (_degree(a) - db) + [_mul(a[-1], y) for y in b] if _degree(a) >= db else 0
        a = _sub(_mul(lb, a), top)
    return a


def _sign(p) -> int:
    """The sign of the innermost leading coefficient."""
    while isinstance(p, list):
        p = p[-1]
    return -1 if p < 0 else 1


def _content(p):
    """The positive gcd of the coefficients in the main variable."""
    return functools.reduce(mpoly_gcd, _coeffs(p), 0)


def _primitive(p):
    """p over its content, with a positive innermost leading coefficient."""
    return _div(p, [_mul(_content(p), _sign(p))])


def mpoly_gcd(p, q):
    """The gcd of two integer polynomials (positive innermost leading
    coefficient): the gcd of their contents times that of their primitive parts."""
    if not p or not q:
        return _mul(p or q, _sign(p or q))
    if p == 1 or q == 1:
        return 1
    if isinstance(p, int) and isinstance(q, int):
        return math.gcd(p, q)
    return _mul([mpoly_gcd(_content(p), _content(q))],
                subresultant_gcd(_primitive(p), _primitive(q)))


def subresultant_gcd(p, q):
    """The primitive gcd of p and q in the main variable over the fraction
    field of the coefficients, with a positive innermost leading coefficient:
    the last element of the subresultant pseudo-remainder sequence, each
    pseudo-remainder divided exactly by beta (Brown-Traub's beta/psi)."""
    if not p or not q:
        return _primitive(p or q) if p or q else 0
    if _degree(p) < _degree(q):
        p, q = q, p
    delta = _degree(p) - _degree(q)
    beta, psi = (-1) ** (delta + 1), -1
    while _degree(q):
        rem = _prem(p, q)
        if not rem:
            return _primitive(q)
        p, q = q, _div(rem, [beta])
        lc = _mul(p[-1], -1)
        if delta:
            psi = _div(_power(lc, delta), _power(psi, delta - 1))
        delta = _degree(p) - _degree(q)
        beta = _mul(lc, _power(psi, delta))
    return 1


def _nest(terms: dict, k: int):
    """{exponent tuple: int} as a polynomial in the variables k, k + 1, ..."""
    exps = next(iter(terms))
    if k == len(exps):
        return terms[exps]
    by_power: dict = {}
    for exps, c in terms.items():
        by_power.setdefault(exps[k], {})[exps] = c
    return _trim([_nest(by_power[e], k + 1) if e in by_power else 0
                  for e in range(max(by_power) + 1)])


def squarefree_decomposition(coeffs):
    """Yun's squarefree decomposition of p = sum_k coeffs[k] * lam^k over the
    fraction field of its coefficients, integer polynomials given as
    {exponent tuple: int} over one tuple of variables (what
    ``classify.generic_multiplicity_partition`` reads off the packed
    characteristic polynomial).

    They are read into the recursive form, lam first, then their variables
    in order.  Returns [(factor, multiplicity), ...], one squarefree
    primitive factor per multiplicity, in increasing multiplicity; a factor
    is the list of its lam-coefficients, of lam-degree ``len(factor) - 1``.
    p over prod(factor ** multiplicity) is free of lam."""
    p = _trim([_nest(c, 0) if c else 0 for c in coeffs])
    if not p:
        raise ValueError("zero polynomial has no squarefree decomposition")
    c = _primitive(p)
    d, factors = _derivative(c), []
    for mult in itertools.count():  # the pass with multiplicity 0 divides out gcd(p, p')
        if not _degree(c):
            return factors
        a = subresultant_gcd(c, d)
        if mult and _degree(a):
            factors.append((a, mult))
        c = _div(c, a)
        d = _sub(_div(d, a), _derivative(c))
