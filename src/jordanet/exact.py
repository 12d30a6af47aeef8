"""Sparse multivariate polynomials and the packed integer polynomial kernel.

This is the polynomial layer, above ``linalg``, whose rational scalars
(``linalg.frac``, ``linalg.frac_str``) it reads and writes.  Polynomials
are sparse dicts mapping exponent tuples to nonzero rational coefficients,
with a fixed alphabetical variable order and graded-lexicographic term
order for all canonical output.  An ``MPoly`` is a value: it is parsed,
printed, compared and evaluated, and has no arithmetic.  ``poly_eval``
evaluates a polynomial at rationals only: every variable gets a value, the
sum is taken on integers over one common denominator, and the result is a
Fraction.

Every polynomial product in the package runs on one integer kernel, and
this module is the one that knows its format: an entry of a polynomial
matrix is {packed exponent: int coefficient} (``IntPoly``), the exponents
packed by ``Packing``, the one place that shifts or masks them, so that a
monomial product is one integer addition.  ``linear_matrix`` forms sum_k
x^(e_k) M_k from integer matrices M_k (a space's generic element,
``spaces.generic_matrix``), ``laplace_det`` its determinant (Laplace
expansion one layer of minors at a time: at most two layers are kept, and
zero coefficients are pruned in place), ``int_poly_matmul`` products, and
``Packing.mpoly`` wraps a result in an ``MPoly`` that reads its terms off
the packed polynomial when they are first read.
``symmetric_linear_adjugate`` runs Faddeev-LeVerrier on a symmetric matrix
linear in t_1..t_m, upper triangles only, each entry a coefficient vector
over the monomials of its degree: a space's Chow matrix, and the generic
net's (``chow.chow_det_generic``), which is linear in the products of a
weight and an entry variable.

The text grammar has one reader, ``scan_terms``, which splits a line into its
terms with one regex, each a sign run, a leading integer and the rest, and
reads each distinct rest once (a memo).  ``parse_poly`` makes one Fraction
per term; ``integer_poly`` makes none and returns the polynomial cleared of
denominators by one lcm, with that lcm: 55 rank-one quadrics in t1..t6 are
read in 2.2 ms, against 3.9 ms as MPolys (Xeon, Python 3.11.7).

Yun's squarefree decomposition and its gcds on integer polynomials in one
variable are ``univariate``'s, which classification imports without this
module.  Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError
from .linalg import frac, frac_str
# aliases: the benchmark's tracer looks these functions up in this module
from .univariate import mpoly_gcd, squarefree_decomposition, subresultant_gcd  # noqa: F401

NEG_INF = float("-inf")

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
    ``parse_poly``, ``Packing.mpoly`` or its constructor.

    A polynomial from ``Packing.mpoly`` keeps the packed integer polynomial
    and forms ``terms`` when it is first read, once, and then drops the
    packed one: ``term_count``, ``is_zero``, ``total_degree`` and
    ``poly_eval`` read the packed one while it is kept, so the 22659 terms of
    ``chow.chow_det_generic(3)`` are counted, its degree read and its values
    taken without one exponent tuple or Fraction.  A polynomial never changes
    once built, so ``terms`` and the total degree are
    ``functools.cached_property`` values.
    """

    __slots__ = ("vars", "_packed", "__dict__")

    def __init__(self, vars: tuple, terms: Optional[dict], packed: Optional[tuple] = None):
        # internal constructor: assumes vars sorted, terms clean; packed is
        # (packing, p, den, fields) for ``Packing.mpoly``, with terms None
        self.vars, self._packed = vars, packed
        if terms is not None:
            self.terms = terms

    @functools.cached_property
    def terms(self) -> dict:
        packing, p, den, fields = self._packed
        terms = packing.terms(p, den, fields)
        self._packed = None
        return terms

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
        return self._degree

    @functools.cached_property
    def _degree(self):
        if self._packed is not None:
            return self._packed[0].degree(self._packed[1])
        return max(map(sum, self.terms), default=NEG_INF)

    def term_count(self) -> int:
        return len(self.terms if self._packed is None else self._packed[1])

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


# -- integer polynomial matrices -------------------------------------------

#: a polynomial with integer coefficients: {packed exponent: nonzero coefficient}
IntPoly = Dict[int, int]


def _field_width(bound: int) -> int:
    """Bits per packed exponent field, enough for every exponent up to bound."""
    return bound.bit_length()


class Packing:
    """Exponent tuples of k variables as one int, the first variable in the
    top field, each ``_field_width(bound)`` bits wide: a monomial product is
    one integer addition, and no field carries while no exponent of a result
    exceeds ``bound`` (n times the largest entry degree for an n x n
    determinant, charpoly or adjugate; the degree of a Macaulay column).
    ``units[i]`` is the key of the i-th variable."""

    __slots__ = ("fields", "mask", "units")

    def __init__(self, k: int, bound: int):
        width = _field_width(bound)
        self.fields = [width * (k - 1 - i) for i in range(k)]
        self.mask = (1 << width) - 1
        self.units = [1 << f for f in self.fields]

    def key(self, exps: Sequence[int]) -> int:
        return sum(map(mul, exps, self.units))

    def exps(self, key: int) -> Tuple[int, ...]:
        return tuple((key >> f) & self.mask for f in self.fields)

    def mpoly(self, p: IntPoly, den: int, names: Sequence[str]) -> MPoly:
        """p / den over the sorted names, field i holding names[i]: an
        ``MPoly`` that keeps p and reads its terms off it (``terms``) when
        they are first read, its degree (``degree``) when that is."""
        vars = tuple(sorted(names))
        return MPoly(vars, None, (self, p, den, [self.fields[names.index(v)] for v in vars]))

    def exponents(self, p: IntPoly, fields: Sequence[int]) -> Iterable[tuple]:
        """The exponent tuple of each key of p in turn, entry i read off field
        ``fields[i]``: one pass over p per field."""
        columns = [[key >> f & self.mask for key in p] for f in fields]
        return zip(*columns) if columns else itertools.repeat((), len(p))

    def terms(self, p: IntPoly, den: int, fields: Sequence[int]) -> Dict[tuple, Fraction]:
        """{exponent tuple: Fraction} of p / den (``exponents``)."""
        coeffs = map(Fraction, p.values()) if den == 1 else (Fraction(c, den) for c in p.values())
        return dict(zip(self.exponents(p, fields), coeffs))

    def evaluate(self, p: IntPoly, fields: Sequence[int], values: Sequence[int], scale: int,
                 top: int) -> int:
        """The sum over the terms c x^e of p of c prod_i values[i]^e_i
        scale^(top - e_i), e_i read off field ``fields[i]`` (at most top).
        Keys are cut into chunks of six fields and each distinct chunk is
        read once, into the product of its fields' powers, kept in one memo
        per chunk: a term costs a shift, a lookup and a product per chunk,
        and no key is decoded.  The terms are read 4096 at a time, as in
        ``degree``, so no list of all of them is made."""
        width, mask = self.mask.bit_length(), self.mask
        powers = {f: [v ** e * scale ** (top - e) for e in range(min(top, mask) + 1)]
                  for f, v in zip(fields, values)}
        span = 6 * width
        cut = (1 << span) - 1
        chunks = [(low, [(f - low, powers[f]) for f in fields if low <= f < low + span], {})
                  for low in range(0, max(fields, default=-1) + 1, span)]
        total, keys, coeffs = 0, iter(p), iter(p.values())
        while batch := list(itertools.islice(keys, 4096)):
            terms = list(itertools.islice(coeffs, len(batch)))
            for low, inside, value in chunks:
                parts = [key >> low & cut for key in batch]
                for part in set(parts).difference(value):
                    value[part] = math.prod(table[part >> f & mask] for f, table in inside)
                terms = list(map(mul, terms, map(value.__getitem__, parts)))
            total += sum(terms)
        return total

    def degree(self, p: IntPoly):
        """The largest sum of a key's fields, -inf when p is 0.  Adjacent
        fields are summed in pairs into fields twice as wide until the k
        fields left, each at most v, fit k v in one field; then the product
        of a key with sum(2^(w i) for i < k) holds the sum of all k in field
        k - 1, the fields below it the sums of the first few, none carrying.
        The keys are read 4096 at a time, so no list of all of them is made."""
        k, w, v = len(self.fields) or 1, self.mask.bit_length(), self.mask
        pairings = []  # (mask of the even fields, their width) per halving
        while k > 1 and (k * v) >> w:
            pairings.append((sum(((1 << w) - 1) << (2 * w * i) for i in range((k + 1) // 2)), w))
            k, w, v = (k + 1) // 2, 2 * w, 2 * v
        ones, mask, top = sum(1 << (w * i) for i in range(k)), (1 << w) - 1, w * (k - 1)
        best, keys = NEG_INF, iter(p)
        while chunk := list(itertools.islice(keys, 4096)):
            for even, width in pairings:
                chunk = [(key & even) + (key >> width & even) for key in chunk]
            best = max(best, max(key * ones >> top & mask for key in chunk))
        return best


def _mul_add(acc: IntPoly, a: IntPoly, b: IntPoly, sign: int = 1) -> None:
    """acc += sign * a * b, in place; may leave zero coefficients in acc."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ea, ca in a.items():
        ca *= sign
        for eb, cb in b.items():
            key = ea + eb
            acc[key] = get(key, 0) + ca * cb


def _prune(p: IntPoly) -> IntPoly:
    """p with its zero coefficients deleted, in place: no copy of p is made."""
    for key in [key for key, c in p.items() if not c]:
        del p[key]
    return p


def int_poly_matmul(a_rows: Sequence[Sequence[IntPoly]],
                    b_rows: Sequence[Sequence[IntPoly]]) -> List[List[IntPoly]]:
    """The product A B of integer polynomial matrices given by their rows."""
    b_cols = list(zip(*b_rows))
    out = []
    for a_row in a_rows:
        row = []
        for col in b_cols:
            acc: IntPoly = {}
            for x, y in zip(a_row, col):
                if x and y:
                    _mul_add(acc, x, y)
            row.append(_prune(acc))
        out.append(row)
    return out


def _expand(row: Sequence[IntPoly], k: int, cols: tuple,
            minor: Callable[[tuple, None], Optional[IntPoly]]) -> IntPoly:
    """The minor of the first k + 1 rows of a matrix on columns cols, by
    Laplace expansion along row k (``row``): minor(S, None) is the minor of
    the first k rows on S, or None when it is 0."""
    acc: IntPoly = {}
    for idx, c in enumerate(cols):
        if row[c]:
            sub = minor(cols[:idx] + cols[idx + 1:], None)
            if sub:
                _mul_add(acc, row[c], sub, -1 if (k + idx) % 2 else 1)
    return _prune(acc)


def _next_layer(row: Sequence[IntPoly], k: int, layer: Dict[tuple, IntPoly]
                ) -> Dict[tuple, IntPoly]:
    """The nonzero minors of the first k + 1 rows on every (k + 1)-subset of
    columns, off ``layer``, those of the first k rows (``_expand``)."""
    subsets = itertools.combinations(range(len(row)), k + 1)
    return {cols: p for cols in subsets if (p := _expand(row, k, cols, layer.get))}


def laplace_det(a: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """The determinant of a square integer polynomial matrix by Laplace
    expansion, layer by layer: layer k holds the nonzero minors of the
    first k rows on the k-subsets of columns, each expanded along row k - 1
    into layer k - 1, which is dropped once layer k is built
    (``_next_layer``).  The last layer is the determinant alone, summed in
    place as each minor of the layer below is popped, so at most two layers
    are kept at a time."""
    n = len(a)
    if not n:
        return {0: 1}
    layer: Dict[tuple, IntPoly] = {(): {0: 1}}
    for k in range(n - 1):
        layer = _next_layer(a[k], k, layer)
    return _expand(a[n - 1], n - 1, tuple(range(n)), layer.pop)


def linear_matrix(terms: Sequence[Tuple[int, Sequence[Sequence[int]]]]) -> List[List[IntPoly]]:
    """The rows of sum_k x^(e_k) M_k, for distinct packed monomials e_k and
    integer n x n matrices M_k given by their rows."""
    n = len(terms[0][1])
    return [[{e: mat[i][j] for e, mat in terms if mat[i][j]} for j in range(n)] for i in range(n)]


@functools.lru_cache(maxsize=None)
def _degree_shifts(m: int, k: int) -> Tuple[int, List[List[int]]]:
    """(the number of monomials of degree k in m variables, shifts):
    shifts[q][p] is the index, in ``monomials(m, k)`` order, of t_q
    times the p-th monomial of degree k - 1.  Built once per (m, k) and
    shared; callers must not mutate it."""
    index = {mono: p for p, mono in enumerate(monomials(m, k))}
    shifts = [[index[mono[:q] + (mono[q] + 1,) + mono[q + 1:]] for mono in monomials(m, k - 1)]
              for q in range(m)]
    return len(index), shifts


def symmetric_linear_adjugate(mats: Sequence[Sequence[Sequence[int]]]) -> List[List[List[int]]]:
    """adj(A) for A = t_1 M_1 + ... + t_m M_m, the M_q symmetric integer n x n
    matrices given by their rows: entry (i, j) as its coefficients over the
    monomials of degree n - 1 in t, in ``monomials(m, n - 1)`` order.

    The recurrence of ``linalg.int_faddeev_leverrier`` on coefficient
    vectors: M_k is homogeneous of degree k - 1, and t_q times the p-th
    monomial of degree k - 1 is the shift_q[p]-th monomial of degree k
    (``_degree_shifts``).  M_2 = A + c_1 I needs no product, and each M_k is
    a polynomial in A, so A M_k is symmetric and only its upper triangle is
    formed: entry (i, j) adds, at shift_q[p], row i of M_q times the p-th
    coefficients of M_k's row j.  n - 2 half products; adj(A) = (-1)^(n-1)
    M_n."""
    n, m = len(mats[0]), len(mats)
    if n == 1:
        return [[[1]]]
    trace = [sum(mat[i][i] for i in range(n)) for mat in mats]
    mk = [[[mat[i][j] - (t if i == j else 0) for mat, t in zip(mats, trace)] for j in range(n)]
          for i in range(n)]
    for k in range(2, n):
        size, shifts = _degree_shifts(m, k)
        columns = [list(zip(*row)) for row in mk]  # row j's p-th coefficients, over l
        upper = []
        for i in range(n):
            rows = [(mat[i], shift) for mat, shift in zip(mats, shifts) if any(mat[i])]
            upper.append([])
            for cols in columns[i:]:
                out = [0] * size
                for row, shift in rows:
                    for r, col in zip(shift, cols):
                        out[r] += sum(map(mul, row, col))
                upper[i].append(out)
        c = [-sum(col) // k for col in zip(*(row[0] for row in upper))]
        for row in upper:
            row[0] = [x + y for x, y in zip(row[0], c)]
        mk = [[upper[j][i - j] for j in range(i)] + upper[i] for i in range(n)]
    return mk if n % 2 else [[[-x for x in p] for p in row] for row in mk]


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


def packed_integer_poly(p: MPoly) -> Tuple[Dict[tuple, int], int]:
    """(p', d) for a polynomial p = p' / d that is still packed
    (``Packing.mpoly``), in ``integer_poly``'s form, read off the packed
    keys: no term of p is formed."""
    packing, packed, den, fields = p._packed
    return {tuple((v, e) for v, e in zip(p.vars, exps) if e): c
            for exps, c in zip(packing.exponents(packed, fields), packed.values())}, den


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
    that is still packed (``Packing.mpoly``) is summed on its packed
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
