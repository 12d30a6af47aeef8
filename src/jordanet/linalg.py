"""Exact dense linear algebra over rationals and over polynomial rings.

Matrices are immutable and ring-homogeneous: every entry is either a
``Fraction`` or an ``MPoly``.  A product of two Fraction matrices is one
integer product (``int_matmul``) of A's rows and B's columns cleared of
denominators, with one Fraction formed per entry of the result.  There is one
row reduction, ``Echelon``: the reduced row echelon form kept as primitive
integer rows and grown one row at a time.  ``rref`` (rank, kernels, row
transforms, inverses, membership) adjoins a matrix's rows, cleared of
denominators, and ``jordan_closure`` adjoins products as it finds them;
Fractions are formed only for results.  Determinants of polynomial matrices
default to Laplace expansion memoized over column subsets; a fraction-free
Bareiss routine is kept alongside and the two are cross-checked in the test
suite.  Characteristic polynomials and adjugates come from the
Faddeev-LeVerrier iteration, whose only divisions are by the integers 1..n
and which takes n - 1 matrix products.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple, Union

from .errors import InternalCheckError, PreconditionError
from .exact import MPoly, UniPoly, exact_div, frac

Entry = Union[Fraction, MPoly]

LAMBDA = "lam"


def _is_poly(x) -> bool:
    return isinstance(x, MPoly)


def _zero_like(x) -> Entry:
    return MPoly.zero(x.vars) if _is_poly(x) else Fraction(0)


def _one_like(x) -> Entry:
    return MPoly.const(1, x.vars) if _is_poly(x) else Fraction(1)


def _entry_is_zero(x) -> bool:
    return x.is_zero() if _is_poly(x) else x == 0


def _ring_div(num: Entry, den: Entry) -> Entry:
    """Exact division; raises if the division is not exact."""
    if _is_poly(num) or _is_poly(den):
        if not _is_poly(num):
            num = MPoly.const(num)
        if not _is_poly(den):
            den = MPoly.const(den)
        q = exact_div(num, den)
        if q is None:
            raise InternalCheckError("INTERNAL", "inexact division in fraction-free elimination")
        return q
    return num / den


class Mat:
    """Dense matrix with Fraction or MPoly entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Entry]]):
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

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat([[Fraction(0)] * cols for _ in range(rows)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self.data[i][j] == other.data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    __hash__ = None

    def __add__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        return Mat([
            [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
            for i in range(self.rows)
        ])

    def __sub__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        return Mat([
            [self.data[i][j] - other.data[i][j] for j in range(self.cols)]
            for i in range(self.rows)
        ])

    def __neg__(self) -> "Mat":
        return Mat([[-x for x in row] for row in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        if _all_fractions(self) and _all_fractions(other):
            return _fraction_product(self, other)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    a = self.data[i][k]
                    b = other.data[k][j]
                    if _entry_is_zero(a) or _entry_is_zero(b):
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:
                    acc = _zero_like(self.data[i][0]) if self.cols else Fraction(0)
                row.append(acc)
            out.append(row)
        return Mat(out)

    def scale(self, c) -> "Mat":
        return Mat([[x * c for x in row] for row in self.data])

    def transpose(self) -> "Mat":
        return Mat([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self) -> Entry:
        acc = self.data[0][0]
        for i in range(1, min(self.rows, self.cols)):
            acc = acc + self.data[i][i]
        return acc

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _shape_check(self, other: "Mat"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def map(self, fn) -> "Mat":
        return Mat([[fn(x) for x in row] for row in self.data])

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.data) + "]"

    def __repr__(self) -> str:
        return f"Mat({self})"


# -- integer products ------------------------------------------------------

def int_matmul(a_rows: Sequence[Sequence[int]], b_cols: Sequence[Sequence[int]]) -> List[List[int]]:
    """The integer product A B, given the rows of A and the columns of B (for a
    symmetric B, its rows)."""
    return [[sum(map(mul, row, col)) for col in b_cols] for row in a_rows]


def _all_fractions(m: Mat) -> bool:
    return all(type(x) is Fraction for row in m.data for x in row)


def _clear_denominators(vector: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(v', d) with v = v' / d, d the lcm of the entries' denominators."""
    d = math.lcm(*(x.denominator for x in vector))
    return [x.numerator * (d // x.denominator) for x in vector], d


def _fraction_product(a: Mat, b: Mat) -> Mat:
    """A B for Fraction matrices: with A's row i equal to A'_i / d_i and B's
    column j equal to B'_j / e_j, entry (i, j) is (A'_i . B'_j) / (d_i e_j)."""
    left = [_clear_denominators(row) for row in a.data]
    right = [_clear_denominators(col) for col in zip(*b.data)]
    prod = int_matmul([r for r, _ in left], [c for c, _ in right])
    return Mat([[Fraction(x, d * e) for x, (_, e) in zip(prow, right)]
                for prow, (_, d) in zip(prod, left)])


def integer_matrix(m: Mat) -> Tuple[List[List[int]], int]:
    """(M', d) with M = M' / d for a Fraction matrix: d is the lcm of all its
    denominators and M' has integer entries."""
    d = math.lcm(*(x.denominator for row in m.data for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m.data], d


# -- reduced row echelon form over the rationals --------------------------

def _primitive(v: List[int]) -> List[int]:
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


class Echelon:
    """A row space over Q in reduced row echelon form, grown one integer row
    at a time.

    ``int_rows`` are primitive integer vectors, sorted by pivot column, each
    with a positive entry in its own pivot column and zeros in every other
    row's: the reduced rows, each scaled to integers.  ``rows`` divides each
    by its pivot entry, forming Fractions once, when it is first read.  An
    echelon made by ``rref_with_transform`` also holds ``transform``: the
    square row transform T with T @ A = the reduced rows, padded with zero
    rows.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.int_rows: List[List[int]] = []
        self.pivots: List[int] = []
        self.transform: Optional[List[List[Fraction]]] = None
        self._rows: Optional[List[List[Fraction]]] = None

    @property
    def rank(self) -> int:
        return len(self.int_rows)

    @property
    def rows(self) -> List[List[Fraction]]:
        if self._rows is None:
            self._rows = [[Fraction(x, row[p]) for x in row]
                          for row, p in zip(self.int_rows, self.pivots)]
        return self._rows

    def kernel_basis(self) -> List[List[Fraction]]:
        free = [j for j in range(self.cols) if j not in self.pivots]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, p in enumerate(self.pivots):
                v[p] = -self.rows[r][f]
            basis.append(v)
        return basis

    def _eliminate(self, v: Sequence[int]) -> Tuple[List[int], int]:
        """(L v minus, for each pivot p where v is nonzero, v_p (L / r_p) times
        that pivot's row r; L), with L the lcm of those rows' pivot entries
        r_p: L times v modulo the row space.  All zero iff v lies in it."""
        hits = [(row, p) for row, p in zip(self.int_rows, self.pivots) if v[p]]
        scale = math.lcm(*(row[p] for row, p in hits))
        out = [scale * x for x in v]
        for row, p in hits:
            f = v[p] * (scale // row[p])
            out = [x - f * y for x, y in zip(out, row)]
        return out, scale

    def residue(self, v: Sequence[int]) -> List[int]:
        """An integer vector v modulo the row space, divided by its content."""
        return _primitive(self._eliminate(v)[0])

    def adjoin(self, v: List[int]) -> None:
        """Add a nonzero residue: its leading column becomes a pivot and is
        cleared from the other rows, which stay primitive."""
        c = next(j for j, x in enumerate(v) if x)
        if v[c] < 0:
            v = [-x for x in v]
        a = v[c]
        for k, row in enumerate(self.int_rows):
            f = row[c]
            if f:
                g = math.gcd(a, f)
                self.int_rows[k] = _primitive([(a // g) * x - (f // g) * y
                                               for x, y in zip(row, v)])
        k = bisect.bisect(self.pivots, c)
        self.int_rows.insert(k, v)
        self.pivots.insert(k, c)
        self._rows = None

    def reduce_vector(self, v: Sequence[Fraction]) -> List[Fraction]:
        """Residue of v modulo the row space (eliminate pivot coordinates), at
        v's own scale: one division at the end."""
        vi, d = _clear_denominators([frac(x) for x in v])
        out, scale = self._eliminate(vi)
        return [Fraction(x, scale * d) for x in out]

    def coordinates(self, v: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """Coefficients c with sum(c_i * original_row_i) = v, or None when v is
        outside the row space.  In reduced rows the coefficient of row r is
        v's entry at pivot r; the transform takes that to the original rows."""
        v = [frac(x) for x in v]
        if any(self._eliminate(_clear_denominators(v)[0])[0]):
            return None
        coeff = [Fraction(0)] * len(self.transform)
        for r, p in enumerate(self.pivots):
            c = v[p]
            if c != 0:
                coeff = [a + c * b for a, b in zip(coeff, self.transform[r])]
        return coeff


def rref(matrix: Sequence[Sequence[Fraction]]) -> Echelon:
    """Reduced row echelon form: each row, times the lcm of its denominators,
    adjoins its nonzero residue to one integer echelon, until the rank reaches
    the column count.  Scaling rows keeps the row space and so the (unique)
    reduced form."""
    ech = Echelon(len(matrix[0]) if matrix else 0)
    for row in matrix:
        if ech.rank == ech.cols:
            break
        residue = ech.residue(_clear_denominators([frac(x) for x in row])[0])
        if any(residue):
            ech.adjoin(residue)
    return ech


def mat_rank(m: Mat) -> int:
    return rref(m.data).rank


def rref_with_transform(matrix: Sequence[Sequence[Fraction]]) -> Echelon:
    """Echelon of A with its row transform, read off the rref of [A | I]."""
    k = len(matrix)
    ncols = len(matrix[0]) if k else 0
    aug = rref([list(row) + [Fraction(int(i == j)) for j in range(k)]
                for i, row in enumerate(matrix)])
    ech = Echelon(ncols)
    for row, p in zip(aug.int_rows, aug.pivots):
        if p >= ncols:
            break
        ech.int_rows.append(_primitive(row[:ncols]))
        ech.pivots.append(p)
    ech.transform = [[Fraction(x, row[p]) for x in row[ncols:]]
                     for row, p in zip(aug.int_rows, aug.pivots)]
    return ech


def inverse_or_none(m: Mat) -> Optional[Mat]:
    """Inverse of a square Fraction matrix, or None when it is singular.

    The one invertibility decision: M is invertible iff the rref of [M | I]
    has full rank, and the same elimination leaves M^-1 as the transform.
    """
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "inverse needs a square matrix")
    ech = rref_with_transform(m.data)
    return Mat(ech.transform) if ech.rank == m.rows else None


def inverse(m: Mat) -> Mat:
    """Inverse of a square Fraction matrix; raises on singular input."""
    inv = inverse_or_none(m)
    if inv is None:
        raise PreconditionError("SINGULAR", "matrix is singular")
    return inv


# -- determinants ----------------------------------------------------------

def det_bareiss(m: Mat) -> Entry:
    """Fraction-free determinant (exact divisions by previous pivots)."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m.data]
    sign = 1
    prev = _one_like(a[0][0])
    for k in range(n - 1):
        if _entry_is_zero(a[k][k]):
            swap = next((i for i in range(k + 1, n) if not _entry_is_zero(a[i][k])), None)
            if swap is None:
                return _zero_like(a[0][0])
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = _ring_div(num, prev)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return -result if sign < 0 else result


def det_laplace(m: Mat) -> Entry:
    """Determinant via Laplace expansion memoized over column subsets."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    memo = {(): _one_like(m.data[0][0])}

    def minor(cols: tuple) -> Entry:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = len(cols) - 1
        acc = None
        for idx, c in enumerate(cols):
            e = m.data[row][c]
            if _entry_is_zero(e):
                continue
            sub = minor(cols[:idx] + cols[idx + 1:])
            if _entry_is_zero(sub):
                continue
            term = e * sub
            if (row + idx) % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = _zero_like(m.data[0][0])
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def det(m: Mat) -> Entry:
    """Exact determinant; Bareiss over rationals, memoized Laplace over polynomials."""
    if m.rows and _is_poly(m.data[0][0]):
        return det_laplace(m)
    return det_bareiss(m)


# -- Faddeev-LeVerrier: characteristic polynomial and adjugate ------------

def _trace_of_product(a: Mat, b: Mat) -> Entry:
    """trace(a @ b) without forming the product."""
    acc = _zero_like(a.data[0][0])
    for i in range(a.rows):
        for j in range(a.cols):
            x, y = a.data[i][j], b.data[j][i]
            if not (_entry_is_zero(x) or _entry_is_zero(y)):
                acc = acc + x * y
    return acc


def _faddeev_leverrier(m: Mat):
    """Returns (coefficients c_0..c_n of charpoly, adjugate matrix).

    charpoly(lam) = lam^n + c_1 lam^(n-1) + ... + c_n, returned low-index-first
    as [c_n, ..., c_1, 1]; all divisions are by integers 1..n.

    With M_1 = I, c_k = -trace(M @ M_k) / k and M_(k+1) = M @ M_k + c_k I, so
    the product of step k is reused by step k + 1; the last step needs only
    trace(M @ M_n) = sum of M[i][j] * M_n[j][i].  That is n - 1 matrix
    products in all, and adj(M) = (-1)^(n-1) M_n.
    """
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", "characteristic polynomial needs a square matrix")
    n = m.rows
    one = _one_like(m.data[0][0]) if n else Fraction(1)
    ident = Mat([[one if i == j else _zero_like(one) for j in range(n)] for i in range(n)])
    mk = ident
    cs = []  # c_1 .. c_n
    for k in range(1, n + 1):
        if k > 1:
            mk = prod + ident.scale(cs[-1])
        if k < n:
            prod = m @ mk
            tr = prod.trace()
        else:
            tr = _trace_of_product(m, mk)
        cs.append(tr * Fraction(-1, k))
    adj = mk if n % 2 else -mk
    coeffs = list(reversed(cs)) + [one]
    return coeffs, adj


def charpoly(m: Mat) -> UniPoly:
    """Monic characteristic polynomial det(lam*I - M) in the variable ``lam``."""
    coeffs, _ = _faddeev_leverrier(m)
    return UniPoly(LAMBDA, [c if _is_poly(c) else MPoly.const(c) for c in coeffs])


def adjugate(m: Mat) -> Mat:
    """Adjugate: M @ adj(M) = det(M) * I."""
    _, adj = _faddeev_leverrier(m)
    return adj


def express_in_rows(rows: List[List[Fraction]], v: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Coefficients c with sum(c_i * rows_i) = v, or None when v is outside."""
    return rref_with_transform(rows).coordinates(v)
