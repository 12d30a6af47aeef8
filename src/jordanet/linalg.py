"""Exact dense linear algebra over the rationals, and integer polynomial matrices.

Matrices are immutable and hold rationals (``Fraction``): ``integer_vector``,
which clears every row of denominators, is the one place that refuses any
other entry (an ``MPoly``, a string, a float) with NOT_NUMERIC; ``rref`` and
``mat_rank`` take a row of plain ints as it is and clear any other row
through it.  A product of two matrices is one integer product
(``int_matmul``) of A's rows and B's columns cleared of denominators, with
one Fraction formed per entry of the result.  There is one row reduction,
``Echelon``: integer rows grown by forward fraction-free elimination
(Bareiss), each step an exact division by the previous pivot entry
(Sylvester's identity), no row rewritten once appended; the reduced rows and
primitive rows are formed by back-substitution only when read.  ``rref``
adjoins a matrix's rows, integer or cleared of denominators,
``integer_inverse`` the rows [M' | diag(d)] of a square matrix,
``det_bareiss`` a square matrix's rows (its determinant is the last pivot
entry, signed and over the denominators), and ``jordan_closure`` products as
it finds them.  There is one linear solve, ``integer_inverse``: coordinates
over independent rows A are those of v_P A_P^-1 on A's pivot columns P
(``express_in_rows``, ``spaces.MatSpace.coordinates``).

Polynomial matrices are built from integers, never from ``MPoly`` entries:
an entry is {packed exponent: int coefficient}, the exponents packed by
``Packing``, the one place that shifts or masks them, so that a monomial
product is one integer addition.  ``linear_matrix`` forms sum_k x^(e_k) M_k
from integer matrices M_k (a space's generic element,
``spaces.generic_matrix``), ``laplace_minors`` (memoized over column
subsets) its determinant and minors, and ``Packing.mpoly`` wraps a result
in an ``MPoly`` that reads its terms off the packed polynomial when they are
first read; ``det_laplace`` runs ``laplace_minors`` on the constant matrix
``linear_matrix([(0, M')])``.

Characteristic polynomials and adjugates come from two runs of one
recurrence, Faddeev-LeVerrier (n - 1 matrix products, exact divisions by
1..n).  ``int_faddeev_leverrier`` runs it on a plain integer matrix:
``charpoly`` and ``adjugate`` take it of M' for M = M' / d, and the
multiplicity partition at each integer point.
``symmetric_linear_adjugate`` runs it on a symmetric matrix linear in
t_1..t_m, upper triangles only, each entry a coefficient vector over the
monomials of its degree: a space's Chow matrix, and the generic net's
(``chow.chow_det_generic``), which is linear in the products of a weight
and an entry variable.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .exact import NEG_INF, MPoly, frac, monomials


class Mat:
    """Dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Fraction]]):
        self.data = tuple(tuple(row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def from_ints(data) -> "Mat":
        return Mat([[frac(x) for x in row] for row in data])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    __hash__ = None

    def __add__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        return Mat([[x + y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        return Mat([[x - y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        return _fraction_product(self, other)

    def scale(self, c) -> "Mat":
        return Mat([[x * c for x in row] for row in self.data])

    def transpose(self) -> "Mat":
        return Mat([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self) -> Fraction:
        acc = self.data[0][0]
        for i in range(1, min(self.rows, self.cols)):
            acc = acc + self.data[i][i]
        return acc

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.data == tuple(zip(*self.data))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _shape_check(self, other: "Mat"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


# -- integer products ------------------------------------------------------

def int_matmul(a_rows: Sequence[Sequence[int]], b_cols: Sequence[Sequence[int]]) -> List[List[int]]:
    """The integer product A B, given the rows of A and the columns of B (for a
    symmetric B, its rows)."""
    return [[sum(map(mul, row, col)) for col in b_cols] for row in a_rows]


def integer_vector(vector: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(v', d) with v = v' / d, d the lcm of the entries' denominators; an
    entry with no numerator and denominator (an ``MPoly``, a string, a
    float) is refused with NOT_NUMERIC."""
    try:
        d = math.lcm(*(x.denominator for x in vector))
        return [x.numerator * (d // x.denominator) for x in vector], d
    except AttributeError:
        raise PreconditionError("NOT_NUMERIC", "linear algebra takes rational entries") from None


def _fraction_product(a: Mat, b: Mat) -> Mat:
    """A B for Fraction matrices: with A's row i equal to A'_i / d_i and B's
    column j equal to B'_j / e_j, entry (i, j) is (A'_i . B'_j) / (d_i e_j)."""
    left = [integer_vector(row) for row in a.data]
    right = [integer_vector(col) for col in zip(*b.data)]
    prod = int_matmul([r for r, _ in left], [c for c, _ in right])
    return Mat([[Fraction(x, d * e) for x, (_, e) in zip(prow, right)]
                for prow, (_, d) in zip(prod, left)])


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

    def terms(self, p: IntPoly, den: int, fields: Sequence[int]) -> Dict[tuple, Fraction]:
        """{exponent tuple: Fraction} of p / den, entry i of a tuple read off
        field ``fields[i]``: one pass over p per field, then one per term."""
        mask = self.mask
        columns = [[key >> f & mask for key in p] for f in fields]
        exps = zip(*columns) if columns else itertools.repeat((), len(p))
        coeffs = map(Fraction, p.values()) if den == 1 else (Fraction(c, den) for c in p.values())
        return dict(zip(exps, coeffs))

    def evaluate(self, p: IntPoly, fields: Sequence[int], values: Sequence[int], scale: int,
                 top: int) -> int:
        """The sum over the terms c x^e of p of c prod_i values[i]^e_i
        scale^(top - e_i), e_i read off field ``fields[i]`` (at most top).
        Keys are cut into chunks of six fields and each distinct chunk is
        read once, into the product of its fields' powers: a term costs a
        shift, a lookup and a product per chunk, and no key is decoded."""
        width, mask = self.mask.bit_length(), self.mask
        powers = {f: [v ** e * scale ** (top - e) for e in range(min(top, mask) + 1)]
                  for f, v in zip(fields, values)}
        keys, totals = list(p), list(p.values())
        span = 6 * width
        for low in range(0, max(fields, default=-1) + 1, span):
            inside = [(f - low, powers[f]) for f in fields if low <= f < low + span]
            parts = [key >> low & ((1 << span) - 1) for key in keys]
            value = {part: math.prod(table[part >> f & mask] for f, table in inside)
                     for part in set(parts)}
            totals = list(map(mul, totals, map(value.__getitem__, parts)))
        return sum(totals)

    def degree(self, p: IntPoly):
        """The largest sum of a key's fields, -inf when p is 0.  Adjacent
        fields are summed in pairs into fields twice as wide until the k
        fields left, each at most v, fit k v in one field; then the product
        of a key with sum(2^(w i) for i < k) holds the sum of all k in field
        k - 1, the fields below it the sums of the first few, none carrying."""
        keys, k, w, v = list(p), len(self.fields) or 1, self.mask.bit_length(), self.mask
        while k > 1 and (k * v) >> w:
            even = sum(((1 << w) - 1) << (2 * w * i) for i in range((k + 1) // 2))
            keys = [(key & even) + (key >> w & even) for key in keys]
            k, w, v = (k + 1) // 2, 2 * w, 2 * v
        ones, mask = sum(1 << (w * i) for i in range(k)), (1 << w) - 1
        return max((key * ones >> w * (k - 1) & mask for key in keys), default=NEG_INF)


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


def _nonzero(p: IntPoly) -> IntPoly:
    return {key: c for key, c in p.items() if c}


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
            row.append(_nonzero(acc))
        out.append(row)
    return out


# -- reduced row echelon form over the rationals --------------------------

class Echelon:
    """A row space over Q grown fraction-free one integer row at a time by
    forward elimination (Bareiss 1968), its reduced row echelon form formed
    by back-substitution when first read.

    ``forward`` holds the rows F_1 .. F_r in the order they joined and
    ``order`` their pivot columns c_k, each row's first nonzero column;
    ``pivots`` are the same columns sorted.  F_k is d_{k-1} times the
    remainder of the k-th row that joined modulo the rows before it, where
    d_k = F_k[c_k] is the leading minor of the first k rows on the columns
    c_1 .. c_k (d_0 = 1), so every entry of F_k is a k x k minor of those
    rows (Sylvester's identity), an integer.  ``d`` is d_r.  A row, once
    appended, is never rewritten.

    The reduced form is read as ``ff_rows``, the rows T_i = d times the
    reduced row with pivot p_i, sorted by pivot and integers by Cramer's
    rule; as ``int_rows``, each T_i over its content with a positive pivot
    entry; and as the Fraction ``rows``.  Each is formed on first read and
    dropped when a row joins.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.forward: List[List[int]] = []
        self.order: List[int] = []
        self.pivots: List[int] = []
        self.d = 1
        self._ff = self._int_rows = self._rows = None  # once read

    @property
    def rank(self) -> int:
        return len(self.order)

    @property
    def ff_rows(self) -> List[List[int]]:
        if self._ff is None:
            self._ff = _back_substitute(self)
        return self._ff

    @property
    def int_rows(self) -> List[List[int]]:
        if self._int_rows is None:
            self._int_rows = [_primitive(row, self.d < 0) for row in self.ff_rows]
        return self._int_rows

    @property
    def rows(self) -> List[List[Fraction]]:
        if self._rows is None:
            self._rows = [[Fraction(x, row[p]) for x in row] for row, p in zip(self.int_rows, self.pivots)]
        return self._rows

    def kernel_basis(self) -> List[List[Fraction]]:
        basis = []
        for f in (j for j in range(self.cols) if j not in self.pivots):
            v = [Fraction(int(j == f)) for j in range(self.cols)]
            for row, p in zip(self.rows, self.pivots):
                v[p] = -row[f]
            basis.append(v)
        return basis

    def eliminate(self, v: Sequence[int]) -> Tuple[List[int], int]:
        """(d v - sum v[p_i] T_i, d): d times v's remainder modulo the row
        space (d may be negative), forward over the rows in the order they
        joined, each step out = (d_k out - out[c_k] F_k) / d_(k-1) exact.  A
        row whose column holds 0 only scales out by d_k / d_(k-1); those
        scales telescope, so such rows are skipped, the next step divides by
        the last d_k used, and out is rescaled once at the end."""
        d = self.d
        out, last = list(v), 1
        for row, c in zip(self.forward, self.order):
            f = out[c]
            if f:
                p = row[c]
                out = ([p * x - f * y for x, y in zip(out, row)] if last == 1
                       else [(p * x - f * y) // last for x, y in zip(out, row)])
                last = p
        return (out if last == d else [x * d // last for x in out]), d

    def extend(self, rows: Iterable[Sequence[int]]) -> None:
        """Adjoin each integer row in turn, until the rank reaches the column
        count; rows after that are not drawn."""
        rows = iter(rows)
        while self.rank < self.cols and (row := next(rows, None)) is not None:
            self.adjoin(row)

    def adjoin(self, v: Sequence[int]) -> Optional[List[int]]:
        """Add an integer row and return its remainder out = d v - sum ...
        (``eliminate``), or return None when it lies in the row space.  out is
        appended as the next forward row, with pivot c its leading column and
        d = out[c]; no earlier row is touched."""
        out, _ = self.eliminate(v)
        c = next((j for j, x in enumerate(out) if x), None)
        if c is None:
            return None
        self.forward.append(out)
        self.order.append(c)
        bisect.insort(self.pivots, c)
        self.d = out[c]
        self._ff = self._int_rows = self._rows = None
        return out


def _back_substitute(ech: Echelon) -> List[List[int]]:
    """The rows T_i of ``Echelon.ff_rows``, from the last row that joined
    back to the first: T_k = (d F_k - sum_(j > k) F_k[c_j] T_j) / d_k, exact.
    T_k is d at c_k and 0 at every other pivot, so only the free columns are
    computed."""
    d, pivots = ech.d, set(ech.order)
    free = [j for j in range(ech.cols) if j not in pivots]
    done: Dict[int, List[int]] = {}  # pivot column -> T's entries on the free columns
    for row, c in zip(reversed(ech.forward), reversed(ech.order)):
        acc = [d * row[j] for j in free]
        for cj, t in done.items():
            f = row[cj]
            if f:
                acc = [x - f * y for x, y in zip(acc, t)]
        p = row[c]
        done[c] = [x // p for x in acc]
    out = []
    for c in ech.pivots:
        row = [0] * ech.cols
        row[c] = d
        for j, x in zip(free, done[c]):
            row[j] = x
        out.append(row)
    return out


def _primitive(v: List[int], negate: bool) -> List[int]:
    """A nonzero integer vector over its content, negated when asked."""
    g = -math.gcd(*v) if negate else math.gcd(*v)
    return v if g == 1 else [x // g for x in v]


def rref(matrix: Sequence[Sequence[Fraction]]) -> Echelon:
    """Reduced row echelon form: one integer echelon extended by the rows.
    A row of plain ints is adjoined as it is; any other row is taken times
    the lcm of its denominators (``integer_vector``, NOT_NUMERIC on an entry
    that is not rational).  Scaling rows keeps the row space and so the
    (unique) reduced form."""
    ech = Echelon(len(matrix[0]) if matrix else 0)
    ech.extend(row if {int}.issuperset(map(type, row)) else integer_vector(row)[0] for row in matrix)
    return ech


def mat_rank(m: Mat) -> int:
    return rref(m.data).rank


def integer_inverse(rows: Sequence[Sequence[int]],
                    scales: Optional[Sequence[int]] = None) -> Optional[Tuple[List[List[int]], int]]:
    """(Q, s) with M^-1 = Q / s in lowest terms (integer Q, s > 0,
    gcd(s, Q) = 1) for the square matrix M with rows M'_i / d_i (integer
    rows M'_i, d_i = ``scales[i]``, 1 by default), or None when it is
    singular: the one invertibility decision and the one linear solve.  The
    rows [M'_i | d_i e_i], d_i times those of [M | I], are adjoined to one
    echelon; M is regular when its n pivots all lie in the left block, and
    then the reduced rows are e [I | M^-1], e the echelon's ``d``, so the
    right block over e is M^-1, divided once by its gcd with e."""
    n = len(rows)
    aug = Echelon(2 * n)
    aug.extend(list(row) + [d if i == j else 0 for j in range(n)]
               for i, (row, d) in enumerate(zip(rows, scales or [1] * n)))
    if any(p >= n for p in aug.pivots):
        return None
    e = aug.d
    g = math.gcd(e, *(x for row in aug.ff_rows for x in row[n:]))
    g = -g if e < 0 else g
    return [[x // g for x in row[n:]] for row in aug.ff_rows], e // g


def inverse_or_none(m: Mat) -> Optional[Tuple[List[List[int]], int]]:
    """``integer_inverse`` of a square Fraction matrix, its rows cleared of
    denominators."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "inverse needs a square matrix")
    cleared = [integer_vector(row) for row in m.data]
    return integer_inverse([row for row, _ in cleared], [d for _, d in cleared])


def inverse(m: Mat) -> Mat:
    """Inverse of a square Fraction matrix; raises on singular input."""
    inv = inverse_or_none(m)
    if inv is None:
        raise PreconditionError("SINGULAR", "matrix is singular")
    q, s = inv
    return Mat([[Fraction(x, s) for x in row] for row in q])


# -- determinants ----------------------------------------------------------

def det_bareiss(m: Mat) -> Fraction:
    """Determinant of a Fraction matrix from its echelon: the rows cleared of
    denominators, row i = R'_i / d_i, adjoined in order to one ``Echelon``;
    0 at the first row that does not join.  Otherwise the last pivot entry d
    is det(M') with its columns taken in the order their pivots were made
    (``order``), so det(M) = sign d / (d_1 ... d_n), with sign the parity of
    the inversions of that order."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "determinant needs a square matrix")
    cleared = [integer_vector(row) for row in m.data]
    ech = Echelon(m.rows)
    for row, _ in cleared:
        if ech.adjoin(row) is None:
            return Fraction(0)
    swaps = sum(a > b for a, b in itertools.combinations(ech.order, 2))
    return Fraction(-ech.d if swaps % 2 else ech.d, math.prod(d for _, d in cleared))


def laplace_minors(a: Sequence[Sequence[IntPoly]]) -> Callable[[tuple], IntPoly]:
    """The minor of the first |S| rows of an integer polynomial matrix on
    columns S, by Laplace expansion along row |S| - 1 into the minors on the
    subsets of S one column smaller, each computed once and shared."""
    memo: Dict[tuple, IntPoly] = {(): {0: 1}}

    def minor(cols: tuple) -> IntPoly:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = len(cols) - 1
        acc: IntPoly = {}
        for idx, c in enumerate(cols):
            e = a[row][c]
            if not e:
                continue
            sub = minor(cols[:idx] + cols[idx + 1:])
            if sub:
                _mul_add(acc, e, sub, -1 if (row + idx) % 2 else 1)
        memo[cols] = acc = _nonzero(acc)
        return acc

    return minor


def det_laplace(m: Mat) -> Fraction:
    """Determinant of a Fraction matrix M = M' / d by ``laplace_minors`` of
    the constant matrix M' (``linear_matrix``): det(M') / d^n."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "determinant needs a square matrix")
    n = m.rows
    flat, d = integer_vector([x for row in m.data for x in row])
    a = linear_matrix([(0, [flat[i * n:(i + 1) * n] for i in range(n)])])
    return Fraction(laplace_minors(a)(tuple(range(n))).get(0, 0), d ** n)


def det(m: Mat) -> Fraction:
    """Exact determinant of a Fraction matrix, off its echelon
    (``det_bareiss``)."""
    return det_bareiss(m)


# -- Faddeev-LeVerrier: characteristic polynomial and adjugate ------------

def linear_matrix(terms: Sequence[Tuple[int, Sequence[Sequence[int]]]]) -> List[List[IntPoly]]:
    """The rows of sum_k x^(e_k) M_k, for distinct packed monomials e_k and
    integer n x n matrices M_k given by their rows."""
    n = len(terms[0][1])
    return [[{e: mat[i][j] for e, mat in terms if mat[i][j]} for j in range(n)] for i in range(n)]


@functools.lru_cache(maxsize=None)
def _degree_shifts(m: int, k: int) -> Tuple[int, List[List[int]]]:
    """(the number of monomials of degree k in m variables, shifts):
    shifts[q][p] is the index, in ``exact.monomials(m, k)`` order, of t_q
    times the p-th monomial of degree k - 1.  Built once per (m, k) and
    shared; callers must not mutate it."""
    index = {mono: p for p, mono in enumerate(monomials(m, k))}
    shifts = [[index[mono[:q] + (mono[q] + 1,) + mono[q + 1:]] for mono in monomials(m, k - 1)]
              for q in range(m)]
    return len(index), shifts


def symmetric_linear_adjugate(mats: Sequence[Sequence[Sequence[int]]]) -> List[List[List[int]]]:
    """adj(A) for A = t_1 M_1 + ... + t_m M_m, the M_q symmetric integer n x n
    matrices given by their rows: entry (i, j) as its coefficients over the
    monomials of degree n - 1 in t, in ``exact.monomials(m, n - 1)`` order.

    The recurrence of ``int_faddeev_leverrier`` on coefficient vectors: M_k
    is homogeneous of degree k - 1, and t_q times the p-th monomial of
    degree k - 1 is the shift_q[p]-th monomial of degree k
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


def int_faddeev_leverrier(a: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]]]:
    """([c_1 .. c_n], M_n) for a plain integer n x n matrix A (its rows), by
    Faddeev-LeVerrier: with M_1 = I, c_k = -trace(A M_k) / k and M_(k+1) =
    A M_k + c_k I.  The c_k are the coefficients of det(lam I - A) = lam^n
    + c_1 lam^(n-1) + ... + c_n, integers, so each division by k is exact,
    and adj(A) = (-1)^(n-1) M_n.  Each product A M_k is taken as M_k A on
    A's columns (M_k is a polynomial in A): n - 2 products of ints and the
    trace of one more."""
    n, cols = len(a), list(zip(*a))
    mk, cs = [[int(i == j) for j in range(n)] for i in range(n)], []
    for k in range(1, n):
        mk = int_matmul(mk, cols) if k > 1 else [list(row) for row in a]
        cs.append(-sum(mk[i][i] for i in range(n)) // k)
        for i in range(n):
            mk[i][i] += cs[-1]
    cs += [-sum(sum(map(mul, row, col)) for row, col in zip(mk, cols)) // n] if n else []
    return cs, mk


def charpoly(m: Mat) -> List[Fraction]:
    """The monic characteristic polynomial det(lam*I - M) of a Fraction
    matrix as its n + 1 coefficients c_0 .. c_n = 1 of lam^0 .. lam^n:
    ``int_faddeev_leverrier`` of the integer matrix M' for M = M' / d,
    whose coefficient of lam^(n-k), c'_k, is d^k times M's."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "characteristic polynomial needs a square matrix")
    n = m.rows
    flat, d = integer_vector([x for row in m.data for x in row])
    cs, _ = int_faddeev_leverrier([flat[i * n:(i + 1) * n] for i in range(n)])
    return [Fraction(c, d ** k) for k, c in reversed(list(enumerate(cs, 1)))] + [Fraction(1)]


def adjugate(m: Mat) -> Mat:
    """Adjugate of a Fraction matrix, M @ adj(M) = det(M) * I: for M = M' /
    d, adj(M) = (-1)^(n-1) M'_n / d^(n-1), M'_n the matrix that
    ``int_faddeev_leverrier`` of M' leaves."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "adjugate needs a square matrix")
    n = m.rows
    flat, d = integer_vector([x for row in m.data for x in row])
    _, mk = int_faddeev_leverrier([flat[i * n:(i + 1) * n] for i in range(n)])
    den = (1 if n % 2 else -1) * d ** max(n - 1, 0)
    return Mat([[Fraction(x, den) for x in row] for row in mk])


def express_in_rows(rows: List[List[Fraction]], v: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Coefficients c with sum(c_i * rows_i) = v, or None when v is outside;
    dependent rows raise DEPENDENT_BASIS.  On the pivot columns P, c A_P =
    v_P, so with v = v' / d and A_P^-1 = Q / s (``inverse_or_none``), c =
    v'_P Q / (d s)."""
    ech = rref(rows)
    if ech.rank < len(rows):
        raise PreconditionError("DEPENDENT_BASIS", "rows are dependent")
    vi, d = integer_vector(v)
    if any(ech.eliminate(vi)[0]):
        return None
    q, s = inverse_or_none(Mat([[row[p] for p in ech.pivots] for row in rows]))
    return [Fraction(sum(vi[p] * x for p, x in zip(ech.pivots, col)), d * s) for col in zip(*q)]
