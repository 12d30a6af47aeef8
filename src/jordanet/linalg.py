"""Exact rational scalars and dense linear algebra over the rationals.

Scalars are ``Fraction``s: ``frac`` reads an int, a Fraction or the text
of an integer or p/q, and ``frac_str`` writes one.  This layer imports no
polynomial code; the packed polynomial matrices live in ``exact``, above it,
and ``det_laplace``, their one user here, imports them when it runs.

Matrices are immutable and hold rationals (``Fraction``); the package forms
one from outside input or for a result, and computes on integer rows in
between.  ``integer_vector``, which clears a row of denominators, is the one
place that refuses any other entry (an ``MPoly``, a string, a float) with
NOT_NUMERIC; ``rref`` takes a row of plain ints as it is and clears any
other row through it.  ``integer_matrices`` clears matrices over one lcm
through it, each matrix's rows kept as they are: a space's basis, a
congruence's P, a space file's string entries, and the inverse,
determinants, charpoly and adjugate of a square matrix.  A product of two
matrices is one integer product (``int_matmul``) of A's rows and B's columns
cleared of denominators, with one Fraction formed per entry of the result.
There is one row reduction, ``Echelon``: integer rows grown by forward
fraction-free elimination (Bareiss), each step an exact division by the
previous pivot entry (Sylvester's identity), no row rewritten once appended;
the reduced rows and primitive rows are formed by back-substitution only
when read, and the kernel as primitive integer vectors (``integer_kernel``),
which the radical, the Peirce pieces, the orthogonal complement and
``chow``'s kernel forms read as they are; only the limit's combination,
whose scale reaches its printed basis, divides one by its free-column entry.
``rref`` adjoins a matrix's rows, integer or cleared of denominators,
``integer_inverse`` the rows [M' | d I] of a square matrix M = M' / d,
``det_bareiss`` a square matrix's rows (its determinant is the last pivot
entry, signed and over the denominators), and ``jordan_closure``, on a
``copy`` of a space's echelon, products as it finds them.  There is one
linear solve, ``integer_inverse``: coordinates over independent rows A are
those of v_P A_P^-1 on A's pivot columns P (``express_in_rows``,
``spaces.MatSpace.coordinates``).

Characteristic polynomials and adjugates come from Faddeev-LeVerrier (n -
1 matrix products, exact divisions by 1..n).  ``int_faddeev_leverrier``
runs it on a plain integer matrix: ``charpoly`` and ``adjugate`` take it of
M' for M = M' / d, and the multiplicity partition at each integer point;
``exact.symmetric_linear_adjugate`` runs the same recurrence on a symmetric
matrix linear in t_1..t_m.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from fractions import Fraction
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError, PreconditionError

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


def integer_matrices(mats: Sequence[Sequence[Sequence[Fraction]]]
                     ) -> Tuple[List[List[List[int]]], int]:
    """([M'_k], d) with M_k = M'_k / d over one lcm d of every entry's
    denominator, each M'_k of its M_k's shape, row by row, for ints and
    Fractions: ``integer_vector`` of all the entries, cut back into their
    rows."""
    flat, d = integer_vector([x for m in mats for row in m for x in row])
    it = iter(flat)
    return [[list(itertools.islice(it, len(row))) for row in m] for m in mats], d


def _fraction_product(a: Mat, b: Mat) -> Mat:
    """A B for Fraction matrices: with A's row i equal to A'_i / d_i and B's
    column j equal to B'_j / e_j, entry (i, j) is (A'_i . B'_j) / (d_i e_j)."""
    left = [integer_vector(row) for row in a.data]
    right = [integer_vector(col) for col in zip(*b.data)]
    prod = int_matmul([r for r, _ in left], [c for c, _ in right])
    return Mat([[Fraction(x, d * e) for x, (_, e) in zip(prow, right)]
                for prow, (_, d) in zip(prod, left)])


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
    rule; and as ``int_rows``, each T_i over its content with a positive
    pivot entry.  Each is formed on first read and dropped when a row joins.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.forward: List[List[int]] = []
        self.order: List[int] = []
        self.pivots: List[int] = []
        self.d = 1
        self._ff = self._int_rows = None  # once read

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
            self._int_rows = [primitive(row, self.d < 0) for row in self.ff_rows]
        return self._int_rows

    def copy(self) -> "Echelon":
        """An echelon of the same rows that grows apart from this one.  The
        forward rows are shared, as no row is rewritten once appended, and
        no reduced row is carried over."""
        ech = Echelon(self.cols)
        ech.forward, ech.order, ech.pivots = list(self.forward), list(self.order), list(self.pivots)
        ech.d = self.d
        return ech

    def integer_kernel(self) -> List[List[int]]:
        """The kernel's reduced basis cleared of denominators, one vector per
        free column f in order: d at f and -T_i[f] at each pivot p_i
        (``ff_rows``, read only when f exists), over its content with a
        positive entry at f, 0 at every other free column."""
        pivots, out = set(self.pivots), []
        for f in (j for j in range(self.cols) if j not in pivots):
            v = [0] * self.cols
            v[f] = self.d
            for row, p in zip(self.ff_rows, self.pivots):
                v[p] = -row[f]
            out.append(primitive(v, self.d < 0))
        return out

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
        self._ff = self._int_rows = None
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


def primitive(v: List[int], negate: bool) -> List[int]:
    """A nonzero integer vector over its content, negated when asked: v
    itself when that divides by 1, so callers must not mutate the result."""
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


def integer_inverse(rows: Sequence[Sequence[int]],
                    scale: int = 1) -> Optional[Tuple[List[List[int]], int]]:
    """(Q, s) with M^-1 = Q / s in lowest terms (integer Q, s > 0,
    gcd(s, Q) = 1) for the square matrix M = M' / scale, M' given by its
    integer rows, or None when it is singular: the one linear solve.  The
    rows [M' | scale I] of scale [M | I] are adjoined to one echelon; M is
    regular when its n pivots all lie in the left block, and then the
    reduced rows are e [I | M^-1], e the echelon's ``d``, so the right block
    over e is M^-1, divided once by its gcd with e."""
    n = len(rows)
    aug = Echelon(2 * n)
    aug.extend(list(row) + [scale if i == j else 0 for j in range(n)]
               for i, row in enumerate(rows))
    if any(p >= n for p in aug.pivots):
        return None
    e = aug.d
    g = math.gcd(e, *(x for row in aug.ff_rows for x in row[n:]))
    g = -g if e < 0 else g
    return [[x // g for x in row[n:]] for row in aug.ff_rows], e // g


def _square_integer(m: Mat, what: str) -> Tuple[List[List[int]], int]:
    """(M', d) with M = M' / d (``integer_matrices``) for a square M; any other
    is refused with NOT_SQUARE, saying that ``what`` needs a square one."""
    if not m.is_square():
        raise PreconditionError("NOT_SQUARE", f"{what} needs a square matrix")
    (rows,), d = integer_matrices([m.data])
    return rows, d


def inverse_or_none(m: Mat) -> Optional[Tuple[List[List[int]], int]]:
    """``integer_inverse`` of a square Fraction matrix M = M' / d."""
    return integer_inverse(*_square_integer(m, "inverse"))


def inverse(m: Mat) -> Mat:
    """Inverse of a square Fraction matrix; raises on singular input."""
    inv = inverse_or_none(m)
    if inv is None:
        raise PreconditionError("SINGULAR", "matrix is singular")
    q, s = inv
    return Mat([[Fraction(x, s) for x in row] for row in q])


# -- determinants ----------------------------------------------------------

def det_bareiss(m: Mat) -> Fraction:
    """Determinant of a Fraction matrix M = M' / d from its echelon: the rows
    of M' adjoined in order to one ``Echelon``; 0 at the first row that does
    not join.  Otherwise the last pivot entry e is det(M') with its columns
    taken in the order their pivots were made (``order``), so det(M) = sign
    e / d^n, with sign the parity of the inversions of that order."""
    rows, d = _square_integer(m, "determinant")
    ech = Echelon(m.rows)
    for row in rows:
        if ech.adjoin(row) is None:
            return Fraction(0)
    swaps = sum(a > b for a, b in itertools.combinations(ech.order, 2))
    return Fraction(-ech.d if swaps % 2 else ech.d, d ** m.rows)


def det_laplace(m: Mat) -> Fraction:
    """Determinant of a Fraction matrix M = M' / d by ``laplace_det`` of
    the constant matrix M' (``linear_matrix``): det(M') / d^n."""
    from .exact import laplace_det, linear_matrix
    rows, d = _square_integer(m, "determinant")
    return Fraction(laplace_det(linear_matrix([(0, rows)])).get(0, 0), d ** m.rows)


#: the exact determinant of a Fraction matrix
det = det_bareiss


# -- Faddeev-LeVerrier: characteristic polynomial and adjugate ------------

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
    rows, d = _square_integer(m, "characteristic polynomial")
    cs, _ = int_faddeev_leverrier(rows)
    return [Fraction(c, d ** k) for k, c in reversed(list(enumerate(cs, 1)))] + [Fraction(1)]


def adjugate(m: Mat) -> Mat:
    """Adjugate of a Fraction matrix, M @ adj(M) = det(M) * I: for M = M' /
    d, adj(M) = (-1)^(n-1) M'_n / d^(n-1), M'_n the matrix that
    ``int_faddeev_leverrier`` of M' leaves."""
    rows, d = _square_integer(m, "adjugate")
    _, mk = int_faddeev_leverrier(rows)
    den = (1 if m.rows % 2 else -1) * d ** max(m.rows - 1, 0)
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
