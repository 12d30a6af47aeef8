"""Linear subspaces of symmetric matrices as Grassmannian points.

A ``MatSpace`` is an ordered basis of independent symmetric n x n rational
matrices, kept as its integer basis (B', L): integer matrices B'_k over one
common denominator L, B_k = B'_k / L (``MatSpace.integer_basis``).  A file
is parsed straight into it (``io.parse_space_data``), a space given by
Fraction matrices is cleared once (``linalg.integer_matrices``), and the
Fraction basis (``basis``) is formed only when read.  ``make_space``
validates outside input on the integer rows.  Symmetric matrices vectorize
to their upper triangle read row by row; for n = 4 the coordinate order is
(11, 12, 13, 14, 22, 23, 24, 33, 34, 44).  All Pluecker coordinates, kernels
and membership tests use that fixed order.  The space's echelon is grown
rank-only on the vectorized B'.  Coordinates come from one linear solve: the
inverse of the pivot columns of the vectorized B'
(``MatSpace.pivot_inverse``, by ``linalg.integer_inverse``), formed only
when a membership test of a member or the Jordan test of a closed space
reads it.  The unit (``unit_point``) is found on integer matrices too: the
identity test reduces L I, and a sweep point's U' = sum_k t_k B'_k is ranked
and kept.  That ``Unit`` is the space's one unit object: it inverts U'
itself on first read, and names the basis index (``Unit.drop``) that the
closure and the multiplicity partition leave out.

Caching follows one rule across the package.  An object that never changes
once built (``MatSpace``, ``Unit``) caches what is derived from it as a
``functools.cached_property``, and a layer above that derives more from it
(``chow``'s Chow matrix, ``jordan``'s basis products) keeps that in the
object's instance dict itself.  A value kept for the whole process is a
``functools.cache`` function.  The one mutable object, ``linalg.Echelon``,
drops its cached rows explicitly when a row joins.

Every polynomial object of a space is read off (B', L): the generic element
is X' / L, X' = sum_k t_k B'_k packed by ``generic_matrix``, so that
``generic_det`` is det(X') / L^n, ``varieties.rank_one_system`` the 2 x 2
minors of X' over L^2 and ``chow.chow_matrix`` adj(X'); ``plucker`` takes
the minors of the vectorized B' over L^m.  The polynomial ones import
``exact`` when they run, and the sweep's seeded dense points ``prng``; the
sweep itself, the membership tests and a pencil's rank-one count
(``rank_one_pencil``, on its integer basis) are linear algebra alone.

``ParametricBasis`` holds a one-parameter family as its coordinate rows in
``sym_pairs`` order, each entry a polynomial in t as {power: Fraction}, read
once where it enters (``io.parse_space_data``, ``catalog.substitution_family``).
``grassmann_limit`` computes its limit at t -> 0 by valuation-normalized row
reduction on those rows, one elimination of the t = 0 values per pass, in at
most B passes: B, the sum over rows of the row's largest power of t, bounds
the degree of every maximal minor, and no minor is formed.  B times the
family's term count is sized first (``MAX_LIMIT_WORK``).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .linalg import (Echelon, Mat, int_matmul, integer_inverse, integer_matrices, integer_vector,
                     rref)

if TYPE_CHECKING:  # the polynomial layer is imported by the functions that run it
    from .exact import IntPoly, MPoly, Packing


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


@functools.cache
def sym_pairs(n: int) -> Tuple[Tuple[int, int], ...]:
    """Upper-triangle index pairs in canonical order, 0-based: one tuple per
    n, kept for the process."""
    return tuple((i, j) for i in range(n) for j in range(i, n))


def vectorize(m: Mat) -> List:
    return [m[i, j] for i, j in sym_pairs(m.rows)]


@functools.cache
def _sym_index(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Row i holds, for each column j, the place of (min(i, j), max(i, j))
    in ``sym_pairs(n)``: one table per n, kept for the process."""
    place = {pair: k for k, pair in enumerate(sym_pairs(n))}
    return tuple(tuple(place[min(i, j), max(i, j)] for j in range(n)) for i in range(n))


def symmetric_rows(n: int, vec: Sequence) -> List[list]:
    """Rows of the symmetric n x n matrix whose upper triangle is vec."""
    return [[vec[k] for k in row] for row in _sym_index(n)]


def unvectorize(n: int, vec: Sequence) -> Mat:
    return Mat(symmetric_rows(n, vec))


class MatSpace:
    """An m-dimensional subspace of the symmetric n x n matrices, recorded
    unchecked (``make_space`` checks) as its integer basis (B', L): Fraction
    matrices ``basis`` are cleared once, or (B', L) is given as ``ints``.

    A space never changes once built, so each object derived from it (the
    Fraction basis, the vectorized B'_k, the echelon, the pivot inverse, the
    unit) is a ``functools.cached_property``, formed on first read.  The
    vectorized B'_k (``vectors``) are read by the echelon, the pivot inverse,
    ``integer_element``, ``plucker`` and the closure.  The layers above
    keep what they derive from a space (``chow.chow_matrix``) in its instance
    dict themselves; this class declares no field for them."""

    __slots__ = ("n", "m", "_ints", "__dict__")

    def __init__(self, n: int, basis: Optional[Sequence[Mat]] = None,
                 ints: Optional[Tuple[List[List[List[int]]], int]] = None):
        if ints is None:
            self.basis = tuple(basis)
            ints = integer_matrices([b.data for b in self.basis])
        self.n, self.m, self._ints = n, len(ints[0]), ints

    @functools.cached_property
    def basis(self) -> Tuple[Mat, ...]:
        """The Fraction matrices B_k = B'_k / L."""
        ints, lcm = self._ints
        return tuple(Mat([[Fraction(x, lcm) for x in row] for row in b]) for b in ints)

    # -- coordinates ----------------------------------------------------

    def integer_basis(self) -> Tuple[List[List[List[int]]], int]:
        """(B', L) with B_k = B'_k / L over one common denominator L: integer
        matrices for the sweep, the Jordan products and ``generic_matrix``."""
        return self._ints

    @functools.cached_property
    def vectors(self) -> List[List[int]]:
        """The B'_k vectorized in ``sym_pairs`` order."""
        pairs = sym_pairs(self.n)
        return [[b[i][j] for i, j in pairs] for b in self._ints[0]]

    @functools.cached_property
    def echelon(self) -> Echelon:
        """The echelon of the vectorized B'_k, grown rank-only."""
        ech = Echelon(sym_dim(self.n))
        ech.extend(self.vectors)
        return ech

    @functools.cached_property
    def pivot_inverse(self) -> Tuple[List[List[int]], int]:
        """(R, s) with R / s = C^-1 (``linalg.integer_inverse``), C the
        echelon's pivot columns of the vectorized B'_k taken as rows.  A
        vector v of the space is sum_k c_k B'_k exactly when C c = v_P on the
        pivot columns P, so c = R v_P / s."""
        return integer_inverse([[v[p] for v in self.vectors] for p in self.echelon.pivots])

    @functools.cached_property
    def unit(self) -> Optional[Unit]:
        """The regularity decision (``_sweep_for_unit``): the ``Unit`` of the
        first invertible element, or None for a singular space."""
        return _sweep_for_unit(self)

    def coordinates(self, v: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """The coordinates over B' of a vector in ``sym_pairs`` order (those
        over B of v / L), or None when it is outside the space, for int or
        Fraction entries: with v = v' / d, R v'_P / (d s) (``pivot_inverse``)."""
        vi, d = integer_vector(v)
        ech = self.echelon
        if any(ech.eliminate(vi)[0]):
            return None
        r, s = self.pivot_inverse
        return [Fraction(x, d * s) for x in int_matmul([[vi[p] for p in ech.pivots]], r)[0]]

    def integer_element(self, coords: Sequence[int]) -> List[List[int]]:
        """The rows of sum_k c_k B'_k for integer coordinates, summed on the
        vectorized B'_k."""
        acc = [0] * sym_dim(self.n)
        for c, v in zip(coords, self.vectors):
            if c:
                acc = [a + c * x for a, x in zip(acc, v)]
        return symmetric_rows(self.n, acc)

    def element(self, coords: Sequence) -> Mat:
        """sum_k c_k B_k for int or Fraction coordinates: with c = c' / d and
        B_k = B'_k / L, each upper entry is one Fraction(sum_k c'_k B'_k[i][j],
        d L), shared with its mirror.  Int coordinates are c' as they are,
        with d = 1."""
        if all(type(c) is int for c in coords):
            return _over(self.integer_element(coords), self._ints[1])
        ci, d = integer_vector(coords)
        return _over(self.integer_element(ci), d * self._ints[1])

    def __eq__(self, other) -> bool:
        """Equality as subspaces (same row space), not as ordered bases."""
        if not isinstance(other, MatSpace):
            return NotImplemented
        if (self.n, self.m) != (other.n, other.m):
            return False
        return self.echelon.int_rows == other.echelon.int_rows

    __hash__ = None

    def __repr__(self) -> str:
        return f"MatSpace(n={self.n}, m={self.m})"


def _over(rows: List[List[int]], den: int) -> Mat:
    """The symmetric Fraction matrix rows / den, one Fraction per upper entry."""
    return unvectorize(len(rows), [Fraction(rows[i][j], den) for i, j in sym_pairs(len(rows))])


def make_space(n: int, basis: Optional[Sequence[Mat]] = None,
               ints: Optional[Tuple[List[List[List[int]]], int]] = None) -> MatSpace:
    """The space (``MatSpace``) of a basis from outside the package, checked
    on its integer basis to be nonempty, n x n, symmetric and independent,
    in that order."""
    space = MatSpace(n, basis, ints)
    if space.m == 0:
        raise PreconditionError("DEPENDENT_BASIS", "empty basis")
    for b in space.integer_basis()[0]:
        if len(b) != n or any(len(row) != n for row in b):
            raise PreconditionError("NOT_SYMMETRIC", "basis size mismatch")
        if [list(col) for col in zip(*b)] != b:
            raise PreconditionError("NOT_SYMMETRIC", "basis matrix is not symmetric")
    if space.echelon.rank != space.m:
        raise PreconditionError("DEPENDENT_BASIS", "basis matrices are dependent")
    return space


def generic_names(m: int) -> Tuple[str, ...]:
    return tuple(f"t{k + 1}" for k in range(m))


def generic_matrix(space: MatSpace, bound: int, names: Optional[Sequence[str]] = None
                   ) -> Tuple[List[List[IntPoly]], Packing, Tuple[str, ...]]:
    """(X', packing, names): X' = sum_k t_k B'_k, t_k in field k - 1 of
    ``Packing(m, bound)`` and called names[k - 1] (t1..tm by default; one
    distinct name per basis matrix, or PARSE_ERROR)."""
    from .exact import Packing, linear_matrix
    names = tuple(names) if names is not None else generic_names(space.m)
    if len(set(names)) != len(names) or len(names) != space.m:
        raise PreconditionError("PARSE_ERROR", "need one distinct variable name per basis element")
    packing = Packing(space.m, bound)
    return linear_matrix(list(zip(packing.units, space.integer_basis()[0]))), packing, names


def generic_det(space: MatSpace, names: Optional[Sequence[str]] = None) -> MPoly:
    """Determinant of the generic element, nonzero iff the space is regular:
    det(X') / L^n (``generic_matrix``, ``exact.laplace_det``)."""
    from .exact import laplace_det
    rows, packing, names = generic_matrix(space, space.n, names)
    det = laplace_det(rows)
    return packing.mpoly(det, space.integer_basis()[1] ** space.n, names)


def is_regular(space: MatSpace) -> bool:
    return space.unit is not None


def integer_sweep(m: int):
    """Unbounded enumeration of nonzero integer tuples by increasing max-norm;
    within a shell, values are tried in the order 0, 1, -1, 2, -2...
    """
    return _sweep(m, [0], itertools.count(1))


def nonzero_sweep(m: int, max_norm: int):
    """The tuples of ``integer_sweep(m)`` up to max-norm ``max_norm`` with no
    zero entry, in the same order."""
    return _sweep(m, [], range(1, max_norm + 1))


def _sweep(m: int, values: List[int], shells: Iterable[int]):
    """The m-tuples over ``values`` grown by s, -s in shell s, of max-norm s,
    in product order and formed alone: after a head of m - 1 entries that
    holds +-s every value may follow, after any other only +-s."""
    for shell in shells:
        values = values + [shell, -shell]
        edge = (shell, -shell)
        for head in itertools.product(values, repeat=m - 1):
            for x in (values if shell in head or -shell in head else edge):
                yield head + (x,)


class Unit:
    """The space's unit U = U' / scale, as ``unit_point`` found it: its
    coordinates (Fractions from the identity test, the ints of a sweep point
    otherwise), the rows of the integer matrix U' and the scale.  ``inverse``
    and ``drop`` are cached properties; ``jordan`` keeps the basis products
    it computes with that inverse in the unit's instance dict."""

    __slots__ = ("coords", "rows", "scale", "__dict__")

    def __init__(self, coords: tuple, rows: List[List[int]], scale: int):
        self.coords, self.rows, self.scale = coords, rows, scale

    @functools.cached_property
    def inverse(self) -> Tuple[List[List[int]], int]:
        """(q, s), U^-1 = q / s in lowest terms: ``linalg.integer_inverse`` of U' / scale."""
        return integer_inverse(self.rows, self.scale)

    @functools.cached_property
    def drop(self) -> int:
        """The first k with t_k != 0 in U = sum_k t_k B_k: the closure, the
        structure tensor, associativity and the partition use U and the B_j,
        j != k, which span the space."""
        return next(k for k, c in enumerate(self.coords) if c)


def unit_point(space: MatSpace) -> Unit:
    """The space's unit (``MatSpace.unit``): the identity if present, else
    the first invertible point among the first ``_WITNESS_BUDGET`` sweep
    points, then among ``_DENSE_POINTS`` seeded dense points, then along the
    rest of the sweep.  The sweep has no bound, yet ends for a regular space:
    the generic determinant has degree n, so it cannot vanish on the grid
    {-s..s}^m once 2s + 1 > n (Schwartz-Zippel), and shell s covers it.
    """
    got = space.unit
    if got is None:
        raise PreconditionError("NOT_REGULAR", "space has identically zero determinant")
    return got


def find_invertible(space: MatSpace) -> Tuple[Mat, tuple]:
    """The space's unit (``unit_point``) as a Fraction matrix, and its
    coordinates."""
    got = unit_point(space)
    return _over(got.rows, got.scale), got.coords


# Singular sweep points tried before the generic determinant is expanded: the
# first shell of a net (26 points), and past the first invertible point of
# every catalog space and sampled congruence image (at most the 30th).
_WITNESS_BUDGET = 32

#: the most term products (``_laplace_products``) the generic determinant of a
#: space with ``_WITNESS_BUDGET`` singular sweep points may take.  Measured on
#: singular spaces (dense congruence images of matrices that vanish on a
#: k x k block, k > n/2), the CPU of ``generic_det`` alone and the peak RSS
#: it adds to a fresh process (Python 3.11.7, Xeon, 2 CPUs):
#:
#:     n  m    products    CPU    memory        n  m    products    CPU    memory
#:     6  8     194 256   0.03 s  0.3 MB        7 10    2 312 408   0.46 s   7 MB
#:     7  8     807 240   0.16 s  2.2 MB       17  1    2 228 224   1.2 s   21 MB
#:    16  1   1 048 576   0.56 s   10 MB       15  2    4 177 920   0.82 s  11 MB
#:    14  2   1 835 008   0.38 s  5.5 MB       18  1    4 718 592   2.6 s   42 MB
#:    12  3   1 923 072   0.36 s  4.2 MB        8 12   26 153 536   5.3 s   70 MB
#:
#: Every case on the left is admitted, every case on the right refused.  The
#: memory is that of two layers of minors (``exact.laplace_det``).
MAX_GENERIC_DET_PRODUCTS = 2_000_000


def _laplace_products(n: int, m: int) -> int:
    """A bound on the work of the Laplace expansion (``exact.laplace_det``)
    of an n x n determinant of linear forms in m variables: each of the
    C(n, k) column subsets of size k visits k entries of at most m terms and
    multiplies them by a minor of at most C(m + k - 2, k - 1) terms (the full
    determinant has at most C(m + n - 1, n))."""
    return sum(math.comb(n, k) * k * (1 + m * math.comb(m + k - 2, k - 1))
               for k in range(1, n + 1))


#: seeded dense points t in {-n..n}^m tried after ``_WITNESS_BUDGET`` singular sweep
#: points: each misses a regular space with probability at most n / (2n + 1) < 1/2
#: (Schwartz-Zippel).
_DENSE_POINTS = 16


def _sweep_for_unit(space: MatSpace) -> Optional[Unit]:
    """The identity, found by reducing L I on the echelon of B' (its
    coordinates over B' are those of I over B), else the first sweep point
    t whose U' = sum_k t_k B'_k has full rank, kept with scale L; only t
    with gcd 1 and a positive first nonzero entry is ranked, as any other is
    a multiple of an earlier, singular one.  After ``_WITNESS_BUDGET``
    singular sweep points, the first of ``_DENSE_POINTS`` seeded dense points
    of full rank is the unit.  When every one is singular the generic
    determinant is sized, refused with TOO_LARGE past
    ``MAX_GENERIC_DET_PRODUCTS``, and otherwise expanded: zero means a
    singular space, and a nonzero one lets the sweep go on."""
    n, lcm = space.n, space.integer_basis()[1]
    coords = space.coordinates([lcm if i == j else 0 for i, j in sym_pairs(n)])
    if coords is not None:
        return Unit(tuple(coords), [[int(i == j) for j in range(n)] for i in range(n)], 1)

    def unit(tup: Tuple[int, ...]) -> Optional[Unit]:
        rows = space.integer_element(tup)
        return Unit(tup, rows, lcm) if _full_rank(rows) else None

    for k, tup in enumerate(integer_sweep(space.m)):
        if k == _WITNESS_BUDGET:
            from .prng import SplitMix64, derive_seed
            rng = SplitMix64(derive_seed(0, "dense unit"))
            for _ in range(_DENSE_POINTS):
                got = unit(tuple(rng.int_between(-n, n) for _ in range(space.m)))
                if got is not None:
                    return got
            products = _laplace_products(n, space.m)
            if products > MAX_GENERIC_DET_PRODUCTS:
                raise PreconditionError(
                    "TOO_LARGE", f"{_WITNESS_BUDGET} sweep points were singular, as were "
                    f"{_DENSE_POINTS} seeded dense points, and the generic determinant would "
                    f"take {products} term products, past {MAX_GENERIC_DET_PRODUCTS}")
            if generic_det(space).is_zero():
                return None
        got = unit(tup) if math.gcd(*tup) == 1 and next(x for x in tup if x) > 0 else None
        if got is not None:
            return got


def invertible_points(space: MatSpace, points: Iterable[tuple]) -> Iterable[tuple]:
    """(t, (Q, s)) for each integer point t, in the order given, whose X' =
    sum_k t_k B'_k is invertible, X'^-1 = Q / s (``linalg.integer_inverse``)."""
    for tup in points:
        inv = integer_inverse(space.integer_element(tup))
        if inv is not None:
            yield tup, inv


def _full_rank(rows: List[List[int]]) -> bool:
    """Whether the square integer matrix is invertible, decided at the first
    row that fails to join an ``Echelon`` of the rows before it."""
    ech = Echelon(len(rows))
    return all(ech.adjoin(row) is not None for row in rows)


def rank_one_pencil(space: MatSpace) -> int:
    """Number of distinct projective rank-one points of a pencil.

    The rank-one points of t1 B1 + t2 B2 are the common zeros, projective
    and complex, of its 2 x 2 minors: binary quadratics a t1^2 + b t1 t2 +
    c t2^2.  The count is read off V, the span of their vectors (a, b, c),
    never 0 as the rank-one matrices contain no line (the tests check it).
    dim V = 3: V holds t1^2, t1 t2 and t2^2, so 0.  dim V = 2: two
    independent quadratics share at most one zero, and one iff their
    resultant (af - cd)^2 - (ae - bd)(bf - ce) vanishes.  dim V = 1: 1 iff
    the discriminant b^2 - 4ac vanishes, else 2.  The minors are taken on
    the integer basis (``MatSpace.integer_basis``), which keeps the points.
    Each distinct nonzero minor vector is adjoined once: V, and so its
    reduced rows, do not depend on which rows span it.
    """
    if space.m != 2:
        raise PreconditionError("UNSUPPORTED_DIM", "pencil operation needs m = 2")
    (p, q), _ = space.integer_basis()
    pairs = itertools.combinations(range(space.n), 2)
    rows = dict.fromkeys(
        (p[i][k] * p[j][l] - p[i][l] * p[j][k],
         p[i][k] * q[j][l] + q[i][k] * p[j][l] - p[i][l] * q[j][k] - q[i][l] * p[j][k],
         q[i][k] * q[j][l] - q[i][l] * q[j][k])
        for (i, j), (k, l) in itertools.combinations_with_replacement(pairs, 2))
    rows.pop((0, 0, 0), None)
    ech = Echelon(3)
    ech.extend(rows)
    if ech.rank == 1:
        a, b, c = ech.int_rows[0]
        return 1 if b * b == 4 * a * c else 2
    if ech.rank == 2:
        (a, b, c), (d, e, f) = ech.int_rows
        return 1 if (a * f - c * d) ** 2 == (a * e - b * d) * (b * f - c * e) else 0
    return 0


def contains(space: MatSpace, m: Mat) -> Optional[List[Fraction]]:
    """Coordinates of m in the basis, or None when m is outside the space."""
    if m.rows != space.n or m.cols != space.n:
        raise PreconditionError("NOT_SYMMETRIC", "size mismatch")
    if not m.is_symmetric():
        return None
    lcm = space.integer_basis()[1]  # coordinates over B' of L m are those of m over B
    return space.coordinates([lcm * x for x in vectorize(m)])


def orth_complement(space: MatSpace) -> MatSpace:
    """All symmetric Z with trace(B' Z) = 0 for every integer basis matrix B'
    = L B: its basis is the primitive integer kernel (``integer_kernel``) of
    those linear forms on the upper triangle, independent and over L = 1."""
    n = space.n
    rows = [[b[i][j] if i == j else 2 * b[i][j] for i, j in sym_pairs(n)]
            for b in space.integer_basis()[0]]
    kernel = rref(rows).integer_kernel()
    if not kernel:
        raise PreconditionError("DEPENDENT_BASIS", "complement of the full space is zero")
    return MatSpace(n, ints=([symmetric_rows(n, v) for v in kernel], 1))


def congruence_transform(space: MatSpace, p: Mat) -> MatSpace:
    """Basis-wise map B -> P^T B P for an invertible n x n P, on integers:
    with P = P' / e (one lcm), the P'^T B'_k P' over e^2 L, divided by the
    content of their entries and e^2 L, are the integer basis that the
    Fraction images would clear to, independent as P is invertible.  P is
    invertible when P' has rank n on an ``Echelon``, else SINGULAR_P."""
    n = space.n
    if (p.rows, p.cols) != (n, n):
        raise PreconditionError("SIZE_MISMATCH", f"P is {p.rows} x {p.cols}, the space in S^{n}")
    (rows,), e = integer_matrices([p.data])
    if not _full_rank(rows):
        raise PreconditionError("SINGULAR_P", "congruence by a singular matrix")
    cols = list(zip(*rows))  # the rows of P'^T; a symmetric B' is its own columns
    images = [int_matmul(int_matmul(cols, b), cols) for b in space.integer_basis()[0]]
    den = e * e * space.integer_basis()[1]
    g = math.gcd(den, *(x for b in images for row in b for x in row))
    return MatSpace(n, ints=([[[x // g for x in row] for row in b] for b in images], den // g))


def sample_congruent(space: MatSpace, seed: int) -> MatSpace:
    """Deterministic congruence image: P has integer entries in [-3, 3]."""
    from .prng import SplitMix64
    rng = SplitMix64(seed)
    while True:
        p = Mat.from_ints([[rng.int_between(-3, 3) for _ in range(space.n)] for _ in range(space.n)])
        try:
            return congruence_transform(space, p)
        except PreconditionError:  # SINGULAR_P: draw again
            pass


class PluckerVector:
    """Maximal minors of the coordinate matrix, indexed by column tuples."""

    __slots__ = ("n", "m", "values")

    def __init__(self, n: int, m: int, values: Dict[Tuple[int, ...], Fraction]):
        self.n, self.m, self.values = n, m, values

    def __getitem__(self, key: Tuple[int, ...]) -> Fraction:
        return self.values.get(tuple(key), Fraction(0))

    def nonzero(self) -> Dict[Tuple[int, ...], Fraction]:
        return {k: v for k, v in self.values.items() if v != 0}


#: the most column subsets the minor layers of ``plucker`` may visit: with N =
#: n(n+1)/2 coordinates, every subset of at most m columns, sum_{j <= m}
#: C(N, j).  At most 2^15 in S^5; 198 440 for m = 7 in S^6 (0.7 s of CPU on
#: a dense integer basis, entries in -3..3, Python 3.11, Xeon); 2^21 - 1 and
#: 2^28 - 1 for hyperplanes in S^6 and S^7.
MAX_PLUCKER_SUBSETS = 200_000


def plucker(space: MatSpace) -> PluckerVector:
    """All m x m minors of the m x binom(n+1,2) coordinate matrix, sized
    first (TOO_LARGE past ``MAX_PLUCKER_SUBSETS`` column subsets): those of
    the vectorized B' over L^m.  They are taken on ints, layer by layer: the
    minors of the first k rows on every k-subset of columns, each by Laplace
    expansion along row k into the layer below, and one Fraction is formed
    per coordinate."""
    n, m = space.n, space.m
    subsets = sum(math.comb(sym_dim(n), j) for j in range(m + 1))
    if subsets > MAX_PLUCKER_SUBSETS:
        raise PreconditionError("TOO_LARGE", f"the Pluecker minors would visit {subsets} "
                                f"column subsets, past {MAX_PLUCKER_SUBSETS}")
    layer: Dict[tuple, int] = {(): 1}  # the minors of the first k rows, k = 0, 1, ..., m
    for k, row in enumerate(space.vectors):
        below, layer = layer, {}
        for cols in itertools.combinations(range(sym_dim(n)), k + 1):
            acc = 0  # Laplace along row k, the last of the k + 1
            for idx, c in enumerate(cols):
                if row[c]:
                    x = row[c] * below[cols[:idx] + cols[idx + 1:]]
                    acc += -x if (k + idx) % 2 else x
            layer[cols] = acc
    den = space.integer_basis()[1] ** m
    return PluckerVector(n, m, {cols: Fraction(x, den) for cols, x in layer.items()})


class ParametricBasis:
    """Family of subspaces as m coordinate rows of {power: Fraction} entries
    in ``sym_pairs`` order, recorded unchecked (the reader checks symmetry)."""

    __slots__ = ("n", "m", "rows")

    def __init__(self, n: int, rows: List[List[Dict[int, Fraction]]]):
        self.n, self.m, self.rows = n, len(rows), rows


#: the most pass-terms, B times the family's term count, that ``grassmann_limit``
#: may take on: each of at most B passes combines rows of up to that many
#: terms.  For <E11, f(t) E11 + t^(K+1) E22>, f = 1 + t + ... + t^K, that is
#: (K + 1)(K + 3): CPU of a ``limit`` process (Python 3.11.7, Xeon, 2 CPUs)
#: 0.25 s at K = 300, 0.5-0.8 s at K = 498 (the largest admitted), 0.6-1.2 s
#: at K = 600 and 3.4-4.8 s at K = 1500; a refusal 0.15 s.  The ``degen/*``
#: families take at most 48.
MAX_LIMIT_WORK = 250_000


def grassmann_limit(family: ParametricBasis) -> MatSpace:
    """Limit subspace at t -> 0 via valuation-normalized row reduction, on
    rows of {power: coefficient} entries.

    Repeatedly: evaluate at t = 0 (the power-0 coefficients) and eliminate
    the transposed values once; full rank returns them, otherwise the first
    kernel vector is a combination of the evaluated rows that vanishes.  The
    same combination of the polynomial rows, stripped of its least power w
    >= 1, replaces the last row in the combination's support.  That divides
    every maximal minor by t^w and keeps the rows polynomial.  Each minor
    has degree at most B, the sum over rows of the row's largest power, so
    rows independent over Q(t) reach full rank within B passes and B + 1
    evaluations.  Rows dependent over Q(t) have no nonzero minor: they are
    NOT_GENERIC_RANK once a combination vanishes identically, or once the
    evaluations run out, after up to B passes.  B times the family's term
    count is sized before the first pass and refused with TOO_LARGE past
    ``MAX_LIMIT_WORK``.
    """
    rows = list(family.rows)  # replaced row by row, never mutated: catalog families are shared
    bound = sum(max((k for e in row for k in e), default=0) for row in rows)
    terms = sum(len(e) for row in rows for e in row)
    if bound * terms > MAX_LIMIT_WORK:
        raise PreconditionError("TOO_LARGE", f"the limit would take up to {bound} passes over "
                                f"{terms} terms, past {MAX_LIMIT_WORK} pass-terms")
    for _ in range(bound + 1):
        numeric = [[e.get(0, Fraction(0)) for e in row] for row in rows]
        reduced = rref([list(col) for col in zip(*numeric)])
        if reduced.rank == family.m:
            return MatSpace(family.n, [unvectorize(family.n, row) for row in numeric])
        vec = reduced.integer_kernel()[0]
        target = max(i for i, c in enumerate(vec) if c)  # its free column
        combo = [Fraction(c, vec[target]) for c in vec]
        combined = [{} for _ in rows[0]]
        for c, row in zip(combo, rows):
            for acc, e in zip(combined, row):
                for k, x in e.items():
                    acc[k] = acc.get(k, 0) + c * x
        combined = [{k: x for k, x in acc.items() if x} for acc in combined]
        if not any(combined):
            break
        w = min(k for acc in combined for k in acc)
        rows[target] = [{k - w: x for k, x in acc.items()} for acc in combined]
    raise PreconditionError("NOT_GENERIC_RANK", "family is degenerate for generic t")
