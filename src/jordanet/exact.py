"""Exact scalars and sparse multivariate polynomials.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, which is
always reduced with a positive denominator).  Polynomials are sparse dicts
mapping exponent tuples to nonzero rational coefficients, with a fixed
alphabetical variable order and graded-lexicographic term order for all
canonical output.  An ``MPoly`` is a value: it is parsed, printed, compared
and evaluated, and has no arithmetic; every polynomial product in the
package runs on ``linalg``'s packed integer kernel.  ``poly_eval``
evaluates a polynomial at rationals only: every variable gets a value, the
sum is taken on integers over one common denominator, and the result is a
Fraction.

The text grammar has one reader, ``scan_terms``, which splits a line into its
terms with one regex, each a sign run, a leading integer and the rest, and
reads each distinct rest once (a memo).  ``parse_poly`` makes one Fraction
per term; ``integer_poly`` makes none and returns the polynomial cleared of
denominators by one lcm, with that lcm: 55 rank-one quadrics in t1..t6 are
read in 2.2 ms, against 3.9 ms as MPolys (Xeon, Python 3.11.7).

Squarefree decomposition (the generic multiplicity partition) runs on one
integer polynomial in lam at a time, the list of its coefficients:
``squarefree_decomposition`` (Yun) takes its gcds by ``mpoly_gcd`` (the
gcd of the coefficients times the primitive gcd) and ``subresultant_gcd``
(the subresultant pseudo-remainder sequence, with exact integer divisions).

Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

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
    """Sparse multivariate polynomial over the rationals, as a value.

    ``vars`` is a sorted tuple of variable names; ``terms`` maps exponent
    tuples (one entry per variable) to nonzero coefficients.  Two
    polynomials over different variable tuples are equal when their nonzero
    terms are.  There is no arithmetic: a polynomial is built whole, by
    ``parse_poly``, ``linalg.Packing.mpoly`` or its constructor.

    A polynomial from ``Packing.mpoly`` keeps the packed integer polynomial
    and forms ``terms`` when it is first read, once: ``term_count``,
    ``is_zero``, ``total_degree`` and ``poly_eval`` read the packed one, so
    the 22659 terms of ``chow.chow_det_generic(3)`` are counted, its degree
    read and its values taken without one exponent tuple or Fraction.  The
    total degree is computed once.
    """

    __slots__ = ("vars", "_terms", "_packed", "_degree")

    def __init__(self, vars: tuple, terms: Optional[dict], packed: Optional[tuple] = None):
        # internal constructor: assumes vars sorted, terms clean; packed is
        # (packing, p, den, fields) for ``Packing.mpoly``, with terms None
        self.vars = vars
        self._terms, self._packed, self._degree = terms, packed, None

    @property
    def terms(self) -> dict:
        if self._terms is None:
            packing, p, den, fields = self._packed
            self._terms, self._packed = packing.terms(p, den, fields), None
        return self._terms

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value, vars: tuple = ()) -> "MPoly":
        value = frac(value)
        if value == 0:
            return cls(tuple(vars), {})
        return cls(tuple(vars), {(0,) * len(vars): value})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.term_count()

    def total_degree(self):
        """Total degree; -inf for the zero polynomial."""
        if self._degree is None:
            if self._packed is not None:
                self._degree = self._packed[0].degree(self._packed[1])
            else:
                self._degree = max(map(sum, self._terms), default=NEG_INF)
        return self._degree

    def term_count(self) -> int:
        return len(self._terms if self._packed is None else self._packed[1])

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


# -- text grammar -------------------------------------------------------

#: a variable name of the text grammar
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: one term of a line that starts with a sign: its sign run (with the blanks
#: between the signs), an optional leading unsigned integer and "*", and the
#: rest up to the next sign
_TERM = re.compile(r"([+-][\s+-]*)(?:(\d+)\s*\*)?([^+-]*)")

#: one factor of a term, with the blanks around it: digits with an optional
#: "/" and digits, or a name with an optional power "^" and digits
_FACTOR = re.compile(rf"\s*(?:(\d+)(?:/(\d+))?|({NAME.pattern})(?:\s*\^\s*(\d+))?)\s*")


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


@functools.lru_cache(maxsize=1024)  # 55 rank-one quadrics in t1..t6: 1088 terms, 22 rests
def _monomial(text: str) -> Tuple[Tuple[tuple, tuple], int, int]:
    """((pairs, key), numerator, denominator) of a term's factors joined by
    ``*``: pairs are its (name, power) in name order, a power 0 kept, and
    key the same with the powers 0 dropped."""
    num, den, exps = 1, 1, {}
    for factor in text.split("*"):
        name, a, b = _factor(factor)
        if name:
            exps[name] = exps.get(name, 0) + a
        else:
            num, den = num * a, den * b
    pairs = tuple(sorted(exps.items()))
    return (pairs, tuple(pair for pair in pairs if pair[1])), num, den


def scan_terms(text: str) -> List[Tuple[Tuple[tuple, tuple], int, int]]:
    """The terms of one line of the text grammar as integers: ((pairs, key),
    numerator, denominator) each, pairs the term's (name, power) in name
    order with a power 0 kept, key the same without them.

    Terms are products like ``-3/2*x^2*y`` joined by ``+``/``-``: factors are
    an unsigned integer or ``p/q``, or a name with an optional power ``^k``,
    where ``k`` is a string of digits (``x^4/2`` is an error, not ``x^2``).
    One ``findall`` splits the line into its sign runs (an odd number of
    ``-`` negates the term after it), each with the term's leading integer
    and ``*``, if any, and the rest; the rest is read once per distinct text
    (``_monomial``), on ``*``, each factor one regex match.  Every malformed
    line is a PARSE_ERROR, including a zero denominator and a number past
    Python's 4300-digit conversion limit, the first in reading order."""
    terms = []
    try:
        for run, lead, rest in _TERM.findall("+" + text):
            sign = -1 if run.count("-") % 2 else 1
            lead = int(lead) if lead else 1  # read before the rest, which may be malformed too
            mono, num, den = _monomial(rest)
            terms.append((mono, sign * lead * num, den))
    except ValueError as exc:  # int() refuses more than 4300 digits
        raise InputError("PARSE_ERROR", f"bad number: {exc}") from exc
    return terms


def parse_poly(text: str) -> MPoly:
    """The polynomial of one line (``scan_terms``), one Fraction per term:
    the exact inverse of ``str(poly)``."""
    collected = scan_terms(text)
    all_vars = tuple(sorted({v for (pairs, _), _, _ in collected for v, _ in pairs}))
    index = {v: i for i, v in enumerate(all_vars)}
    terms: dict = {}
    for (pairs, _), num, den in collected:
        exps = [0] * len(all_vars)
        for v, e in pairs:
            exps[index[v]] = e
        key, coeff = tuple(exps), Fraction(num) if den == 1 else Fraction(num, den)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return MPoly(all_vars, {k: c for k, c in terms.items() if c})


def integer_poly(text: str) -> Tuple[Dict[tuple, int], int]:
    """(p', d) for the polynomial p = p' / d of one line (``scan_terms``), d
    the lcm of its denominators, with no Fraction formed: p' is an integer
    polynomial over names, {monomial: nonzero int}, a monomial the (name,
    exponent) pairs of its positive exponents, in name order."""
    collected = scan_terms(text)
    lcm = math.lcm(*(den for _, _, den in collected))
    terms: dict = {}
    for (_, key), num, den in collected:
        terms[key] = terms.get(key, 0) + num * (lcm // den)
    return {key: c for key, c in terms.items() if c}, lcm


def parse_poly_lines(text: str, parse: Callable[[str], object] = parse_poly) -> list:
    """``parse`` of each line of a text; blank lines and ``#`` comments are
    skipped."""
    stripped = (line.strip() for line in text.splitlines())
    return [parse(line) for line in stripped if line and not line.startswith("#")]


def poly_eval(p: MPoly, assignment: Mapping[str, object]) -> Fraction:
    """The value of p at rationals, one for each of its variables (names
    that are not variables of p are ignored), summed on integers: with the
    values a_i / B over their common denominator B, the coefficients c'_t / C
    over theirs, and D the total degree of p, it is the sum of c'_t prod
    a_i^(t_i) B^(D - |t|) over C B^D, one Fraction in all.  A polynomial
    that is still packed (``linalg.Packing.mpoly``) is summed on its packed
    keys (``Packing.evaluate``), B^(D - t_i) per variable, over C B^(kD) for
    k variables: no term is decoded."""
    values = [frac(assignment[v]) for v in p.vars]
    if p.is_zero():
        return Fraction(0)
    b = math.lcm(*(x.denominator for x in values))
    nums = [x.numerator * (b // x.denominator) for x in values]
    top = p.total_degree()
    if p._packed is not None:
        packing, packed, c, fields = p._packed
        total = packing.evaluate(packed, fields, nums, b, top)
        return Fraction(total, c * b ** (top * len(nums)))
    c = math.lcm(*(coeff.denominator for coeff in p.terms.values()))
    total = 0
    for exps, coeff in p.terms.items():
        term = coeff.numerator * (c // coeff.denominator) * math.prod(map(pow, nums, exps))
        total += term * b ** (top - sum(exps))
    return Fraction(total, c * b ** top)


# -- integer polynomials in one variable ----------------------------------------
#
# A polynomial in lam is the list of its integer coefficients, lowest degree
# first, with no trailing 0: [] is 0.

def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _derivative(p: list) -> list:
    return [k * x for k, x in enumerate(p)][1:]


def _sub(a: list, b: list) -> list:
    return _trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _div(a: list, b: list) -> list:
    """The exact quotient a / b; a remainder is a bug and raises."""
    if b == [1]:
        return a
    r, db = list(a), len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in reversed(range(len(q))):
        q[k] = c = r[k + db] // b[-1]
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    if any(r):
        raise InternalCheckError("INTERNAL", "inexact integer polynomial division")
    return _trim(q)


def _prem(a: list, b: list) -> list:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, deg b >= 1."""
    lb, db = b[-1], len(b) - 1
    steps = len(a) - db
    while steps > 0 and len(a) > db:
        lead, shift = a[-1], len(a) - 1 - db
        a = [lb * x for x in a]
        for j, y in enumerate(b):
            a[shift + j] -= lead * y
        a, steps = _trim(a), steps - 1
    return [lb ** steps * x for x in a] if steps > 0 else a


def _primitive(p: list) -> list:
    """p over its content, with a positive leading coefficient."""
    g = math.gcd(*p)
    return [x // (g if p[-1] > 0 else -g) for x in p]


def mpoly_gcd(p: list, q: list) -> list:
    """The gcd of two integer polynomials, with a positive leading
    coefficient: the gcd of their coefficients times ``subresultant_gcd``."""
    if not p or not q:
        return [-x for x in p or q] if (p or q) and (p or q)[-1] < 0 else list(p or q)
    g = math.gcd(*p, *q)
    return [g * x for x in subresultant_gcd(p, q)] if g > 1 else subresultant_gcd(p, q)


def subresultant_gcd(p: list, q: list) -> list:
    """The primitive gcd of two integer polynomials with a positive leading
    coefficient: the last element of the subresultant pseudo-remainder
    sequence, each pseudo-remainder divided exactly by beta (Brown-Traub's
    beta/psi)."""
    if not p or not q:
        return _primitive(p or q) if p or q else []
    if len(p) < len(q):
        p, q = q, p
    delta = len(p) - len(q)
    beta, psi = (-1) ** (delta + 1), -1
    while len(q) > 1:
        rem = _prem(p, q)
        if not rem:
            return _primitive(q)
        p, q = q, _div(rem, [beta])
        lc = -p[-1]
        if delta:
            psi = _div([lc ** delta], [psi ** (delta - 1)])[0]
        delta = len(p) - len(q)
        beta = lc * psi ** delta
    return [1]


def squarefree_decomposition(coeffs: List[int]) -> List[Tuple[List[int], int]]:
    """Yun's squarefree decomposition of the integer polynomial p = sum_k
    coeffs[k] * lam^k (a characteristic polynomial at an integer point, in
    ``classify.generic_multiplicity_partition``), its gcds by ``mpoly_gcd``.

    Returns [(factor, multiplicity), ...], one squarefree primitive factor
    per multiplicity, in increasing multiplicity; a factor is the list of
    its coefficients, of degree ``len(factor) - 1``.  p over
    prod(factor ** multiplicity) is an integer."""
    p = _trim(list(coeffs))
    if not p:
        raise ValueError("zero polynomial has no squarefree decomposition")
    c = _primitive(p)
    d, factors = _derivative(c), []
    for mult in itertools.count():  # the pass with multiplicity 0 divides out gcd(p, p')
        if len(c) == 1:
            return factors
        a = mpoly_gcd(c, d)
        if mult and len(a) > 1:
            factors.append((a, mult))
        c = _div(c, a)
        d = _sub(_div(d, a), _derivative(c))
