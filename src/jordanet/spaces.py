"""Linear subspaces of symmetric matrices as Grassmannian points.

A ``MatSpace`` is an ordered basis of independent symmetric n x n rational
matrices, kept as its integer basis (B', L): integer matrices B'_k over one
common denominator L, B_k = B'_k / L (``MatSpace.integer_basis``).  A file
is parsed straight into it (``io.parse_space_data``), a space given by
Fraction matrices is cleared once, and the Fraction basis (``basis``) is
formed only when read.  ``make_space`` validates outside input on the
integer rows.  Symmetric matrices vectorize to their upper triangle read row
by row; for n = 4 the coordinate order is (11, 12, 13, 14, 22, 23, 24, 33,
34, 44).  All Pluecker coordinates, kernels and membership tests use that
fixed order.  The space's echelon is grown rank-only on the vectorized B'.
Coordinates come from one linear solve: the inverse of the pivot columns of
the vectorized B' (``MatSpace.pivot_inverse``, by ``linalg.integer_inverse``),
formed only when a membership test of a member or the Jordan test of a
closed space reads it.  The unit (``unit_point``) is found on integer
matrices too: the identity test reduces L I, and a sweep point's U' =
sum_k t_k B'_k is ranked and kept.  That ``Unit`` is the space's one unit
object: it inverts U' itself on first read and holds the basis products
that ``jordan`` computes with that inverse.

Every polynomial object of a space is read off (B', L): the generic element
is X' / L, X' = sum_k t_k B'_k packed by ``generic_matrix``, so that
``generic_det`` is det(X') / L^n, ``varieties.rank_one_system`` the 2 x 2
minors of X' over L^2 and ``chow.chow_matrix`` adj(X'); ``plucker`` takes
the minors of the vectorized B' over L^m.

``ParametricBasis`` holds a one-parameter family as its coordinate rows in
``sym_pairs`` order, each entry a polynomial in t as {power: Fraction}, read
once where it enters (``io.parse_space_data``, ``catalog.substitution_family``).
``grassmann_limit`` computes its limit at t -> 0 by valuation-normalized row
reduction on those rows; their maximal minors, each row cleared of
denominators, on the integer kernel (``plucker_valuation``), decide that its
rank is full and bound the passes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InternalCheckError, PreconditionError
from .exact import MPoly
from .linalg import (
    Echelon,
    IntPoly,
    Mat,
    Packing,
    int_matmul,
    integer_inverse,
    integer_vector,
    inverse_or_none,
    laplace_minors,
    linear_matrix,
    rref,
)
from .prng import SplitMix64, derive_seed


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def sym_pairs(n: int) -> List[Tuple[int, int]]:
    """Upper-triangle index pairs in canonical order, 0-based."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def vectorize(m: Mat) -> List:
    return [m[i, j] for i, j in sym_pairs(m.rows)]


def symmetric_rows(n: int, vec: Sequence) -> List[list]:
    """Rows of the symmetric n x n matrix whose upper triangle is vec."""
    rows = [[None] * n for _ in range(n)]
    for (i, j), v in zip(sym_pairs(n), vec):
        rows[i][j] = rows[j][i] = v
    return rows


def unvectorize(n: int, vec: Sequence) -> Mat:
    return Mat(symmetric_rows(n, vec))


_UNDECIDED = object()


class MatSpace:
    """An m-dimensional subspace of the symmetric n x n matrices, recorded
    unchecked (``make_space`` checks) as its integer basis (B', L): Fraction
    matrices ``basis`` are cleared once, or (B', L) is given as ``ints``.
    The Fraction basis and the echelon are formed on first use."""

    __slots__ = ("n", "m", "_ints", "_basis", "_echelon", "_inverse", "_unit", "_chow",
                 "_chow_echelon")

    def __init__(self, n: int, basis: Optional[Sequence[Mat]] = None,
                 ints: Optional[Tuple[List[List[List[int]]], int]] = None):
        if ints is None:
            basis = tuple(basis)
            lcm = math.lcm(*(x.denominator for b in basis for row in b.data for x in row))
            ints = ([[[x.numerator * (lcm // x.denominator) for x in row] for row in b.data]
                     for b in basis], lcm)
        self.n, self.m, self._ints, self._basis = n, len(ints[0]), ints, basis
        self._echelon = self._inverse = None
        self._unit = _UNDECIDED  # Unit of the first invertible element, or None if singular
        self._chow = self._chow_echelon = None  # Chow matrix and its transpose's echelon (chow.py)

    @property
    def basis(self) -> Tuple[Mat, ...]:
        """The Fraction matrices B_k = B'_k / L, formed on first read."""
        if self._basis is None:
            ints, lcm = self._ints
            self._basis = tuple(Mat([[Fraction(x, lcm) for x in row] for row in b]) for b in ints)
        return self._basis

    # -- coordinates ----------------------------------------------------

    def integer_basis(self) -> Tuple[List[List[List[int]]], int]:
        """(B', L) with B_k = B'_k / L over one common denominator L: integer
        matrices for the sweep, the Jordan products and ``generic_matrix``."""
        return self._ints

    def echelon(self) -> Echelon:
        """The echelon of the vectorized B'_k, grown rank-only."""
        if self._echelon is None:
            pairs = sym_pairs(self.n)
            self._echelon = Echelon(len(pairs))
            self._echelon.extend([b[i][j] for i, j in pairs] for b in self._ints[0])
        return self._echelon

    def pivot_inverse(self) -> Tuple[List[List[int]], int]:
        """(R, s) with R / s = C^-1 (``linalg.integer_inverse``), C the
        echelon's pivot columns of the vectorized B'_k taken as rows, formed
        on first read.  A vector v of the space is sum_k c_k B'_k exactly
        when C c = v_P on the pivot columns P, so c = R v_P / s."""
        if self._inverse is None:
            pairs = sym_pairs(self.n)
            self._inverse = integer_inverse([[b[i][j] for b in self._ints[0]]
                                             for i, j in (pairs[p] for p in self.echelon().pivots)])
        return self._inverse

    def coordinates(self, v: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """The coordinates over B' of a vector in ``sym_pairs`` order (those
        over B of v / L), or None when it is outside the space, for int or
        Fraction entries: with v = v' / d, R v'_P / (d s) (``pivot_inverse``)."""
        vi, d = integer_vector(v)
        ech = self.echelon()
        if any(ech.eliminate(vi)[0]):
            return None
        r, s = self.pivot_inverse()
        return [Fraction(x, d * s) for x in int_matmul([[vi[p] for p in ech.pivots]], r)[0]]

    def integer_element(self, coords: Sequence[int]) -> List[List[int]]:
        """The rows of sum_k c_k B'_k for integer coordinates."""
        terms = [(c, b) for c, b in zip(coords, self._ints[0]) if c]
        return symmetric_rows(self.n, [sum(c * b[i][j] for c, b in terms)
                                       for i, j in sym_pairs(self.n)])

    def element(self, coords: Sequence) -> Mat:
        """sum_k c_k B_k for int or Fraction coordinates: with c = c' / d and
        B_k = B'_k / L, each upper entry is one Fraction(sum_k c'_k B'_k[i][j],
        d L), shared with its mirror."""
        ci, d = integer_vector(coords)
        return _over(self.integer_element(ci), d * self._ints[1])

    def __eq__(self, other) -> bool:
        """Equality as subspaces (same row space), not as ordered bases."""
        if not isinstance(other, MatSpace):
            return NotImplemented
        if (self.n, self.m) != (other.n, other.m):
            return False
        return self.echelon().int_rows == other.echelon().int_rows

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
    if space.echelon().rank != space.m:
        raise PreconditionError("DEPENDENT_BASIS", "basis matrices are dependent")
    return space


def generic_names(m: int) -> Tuple[str, ...]:
    return tuple(f"t{k + 1}" for k in range(m))


def generic_matrix(space: MatSpace, bound: int, names: Optional[Sequence[str]] = None
                   ) -> Tuple[List[List[IntPoly]], Packing, Tuple[str, ...]]:
    """(X', packing, names): X' = sum_k t_k B'_k, t_k in field k - 1 of
    ``Packing(m, bound)`` and called names[k - 1] (t1..tm by default; one
    distinct name per basis matrix, or PARSE_ERROR)."""
    names = tuple(names) if names is not None else generic_names(space.m)
    if len(set(names)) != len(names) or len(names) != space.m:
        raise PreconditionError("PARSE_ERROR", "need one distinct variable name per basis element")
    packing = Packing(space.m, bound)
    return linear_matrix(list(zip(packing.units, space.integer_basis()[0]))), packing, names


def generic_det(space: MatSpace, names: Optional[Sequence[str]] = None) -> MPoly:
    """Determinant of the generic element, nonzero iff the space is regular:
    det(X') / L^n (``generic_matrix``, ``linalg.laplace_minors``)."""
    rows, packing, names = generic_matrix(space, space.n, names)
    det = laplace_minors(rows)(tuple(range(space.n)))
    return packing.mpoly(det, space.integer_basis()[1] ** space.n, names)


def is_regular(space: MatSpace) -> bool:
    return _first_invertible(space) is not None


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
    otherwise), the rows of the integer matrix U' and the scale.  The Fraction matrix
    ``mat`` and ``inverse`` are formed on first read; ``products`` holds the
    space's basis products once ``jordan`` has computed them."""

    __slots__ = ("coords", "rows", "scale", "products", "_mat", "_inverse")

    def __init__(self, coords: tuple, rows: List[List[int]], scale: int):
        self.coords, self.rows, self.scale = coords, rows, scale
        self.products = self._mat = self._inverse = None

    @property
    def mat(self) -> Mat:
        if self._mat is None:
            self._mat = _over(self.rows, self.scale)
        return self._mat

    @property
    def inverse(self) -> Tuple[List[List[int]], int]:
        """(q, s) with U^{-1} = q / s in lowest terms, q a symmetric integer
        matrix and s > 0.  With c the scale, U^{-1} = c Q' / s' from U'^{-1} =
        Q' / s' (``linalg.integer_inverse``), over g = gcd(c, s'): gcd(s', Q')
        = 1 and gcd(s' / g, c / g) = 1 keep q = (c / g) Q' over s = s' / g in
        lowest terms."""
        if self._inverse is None:
            q, s = integer_inverse(self.rows)
            g = math.gcd(self.scale, s)
            self._inverse = [[x * (self.scale // g) for x in row] for row in q], s // g
        return self._inverse


def unit_point(space: MatSpace) -> Unit:
    """The space's unit: the identity if present, else the first invertible
    point among the first ``_WITNESS_BUDGET`` sweep points, then among
    ``_DENSE_POINTS`` seeded dense points, then along the rest of the sweep.
    The sweep has no bound, yet ends for a regular space: the generic
    determinant has degree n, so it cannot vanish on the grid {-s..s}^m
    once 2s + 1 > n (Schwartz-Zippel), and shell s covers it.
    """
    got = _first_invertible(space)
    if got is None:
        raise PreconditionError("NOT_REGULAR", "space has identically zero determinant")
    return got


def find_invertible(space: MatSpace) -> Tuple[Mat, tuple]:
    """The space's unit (``unit_point``) as a Fraction matrix, and its
    coordinates."""
    got = unit_point(space)
    return got.mat, got.coords


# Singular sweep points tried before the generic determinant is expanded: the
# first shell of a net (26 points), and past the first invertible point of
# every catalog space and sampled congruence image (at most the 30th).
_WITNESS_BUDGET = 32

#: the most term products (``_laplace_products``) the generic determinant of a
#: space with ``_WITNESS_BUDGET`` singular sweep points may take.  Measured on
#: singular spaces (dense congruence images of matrices that vanish on a
#: k x k block, k > n/2), CPU of ``generic_det`` alone (Python 3.11, Xeon):
#:
#:     n  m    products    CPU           n  m    products    CPU
#:     6  8     194 256    0.03 s        7 10    2 312 408    0.64 s
#:     7  8     807 240    0.24 s       17  1    2 228 224    2.6 s
#:    16  1   1 048 576    1.2 s        15  2    4 177 920    1.9 s
#:    14  2   1 835 008    0.75 s       18  1    4 718 592    5.4 s
#:    12  3   1 923 072    0.50 s        8 12   26 153 536   10.2 s
#:
#: Every case on the left is admitted, every case on the right refused.
MAX_GENERIC_DET_PRODUCTS = 2_000_000


def _laplace_products(n: int, m: int) -> int:
    """A bound on the work of the memoised Laplace expansion of an n x n
    determinant of linear forms in m variables: each of the C(n, k) column
    subsets of size k visits k entries of at most m terms and multiplies
    them by a minor of at most C(m + k - 2, k - 1) terms (the full
    determinant has at most C(m + n - 1, n))."""
    return sum(math.comb(n, k) * k * (1 + m * math.comb(m + k - 2, k - 1))
               for k in range(1, n + 1))


#: seeded dense points t in {-n..n}^m tried after ``_WITNESS_BUDGET`` singular sweep
#: points: each misses a regular space with probability at most n / (2n + 1) < 1/2
#: (Schwartz-Zippel).
_DENSE_POINTS = 16


def _first_invertible(space: MatSpace) -> Optional[Unit]:
    """The regularity decision, memoised: the identity, else the first
    invertible sweep or dense point, else None once the generic determinant,
    expanded only after ``_WITNESS_BUDGET`` singular sweep points and
    ``_DENSE_POINTS`` singular dense points, is identically zero."""
    if space._unit is _UNDECIDED:
        space._unit = _sweep_for_unit(space)
    return space._unit


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
        return Unit(tup, rows, lcm) if _rank(rows) == n else None

    for k, tup in enumerate(integer_sweep(space.m)):
        if k == _WITNESS_BUDGET:
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


def sweep_rank(space: MatSpace) -> Callable[[Sequence[int]], int]:
    """Rank of sum_k t_k B_k at integer t: that of the integer sum_k t_k B'_k
    (``MatSpace.integer_element``), on an ``Echelon``."""
    return lambda tup: _rank(space.integer_element(tup))


def _rank(rows: List[List[int]]) -> int:
    ech = Echelon(len(rows))
    ech.extend(rows)
    return ech.rank


def contains(space: MatSpace, m: Mat) -> Optional[List[Fraction]]:
    """Coordinates of m in the basis, or None when m is outside the space."""
    if m.rows != space.n or m.cols != space.n:
        raise PreconditionError("NOT_SYMMETRIC", "size mismatch")
    if not m.is_symmetric():
        return None
    lcm = space.integer_basis()[1]  # coordinates over B' of L m are those of m over B
    return space.coordinates([lcm * x for x in vectorize(m)])


def orth_complement(space: MatSpace) -> MatSpace:
    """All symmetric Z with trace(B Z) = 0 for every basis element B."""
    n = space.n
    rows = [[b[i, j] if i == j else 2 * b[i, j] for i, j in sym_pairs(n)] for b in space.basis]
    kernel = rref(rows).kernel_basis()
    if not kernel:
        raise PreconditionError("DEPENDENT_BASIS", "complement of the full space is zero")
    return MatSpace(n, [unvectorize(n, v) for v in kernel])  # a kernel basis is independent


def congruence_transform(space: MatSpace, p: Mat) -> MatSpace:
    """Basis-wise map B -> P^T B P; requires P invertible."""
    if inverse_or_none(p) is None:
        raise PreconditionError("SINGULAR_P", "congruence by a singular matrix")
    pt = p.transpose()
    return MatSpace(space.n, [pt @ b @ p for b in space.basis])  # P invertible keeps them independent


def sample_congruent(space: MatSpace, seed: int) -> MatSpace:
    """Deterministic congruence image: P has integer entries in [-3, 3]."""
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


#: the most column subsets the Laplace memo of ``plucker`` and
#: ``grassmann_limit`` may visit: with N = n(n+1)/2 coordinates, every subset
#: of at most m columns, sum_{j <= m} C(N, j).  At most 2^15 in S^5; 198 440
#: for m = 7 in S^6 (3.4 s of CPU, Python 3.11, Xeon); 2^21 - 1 and 2^28 - 1
#: for hyperplanes in S^6 and S^7.
MAX_PLUCKER_SUBSETS = 200_000


def _check_plucker_size(n: int, m: int) -> None:
    """TOO_LARGE past ``MAX_PLUCKER_SUBSETS`` column subsets for m rows in S^n."""
    subsets = sum(math.comb(sym_dim(n), j) for j in range(m + 1))
    if subsets > MAX_PLUCKER_SUBSETS:
        raise PreconditionError("TOO_LARGE", f"the Pluecker minors would visit {subsets} "
                                f"column subsets, past {MAX_PLUCKER_SUBSETS}")


def plucker(space: MatSpace) -> PluckerVector:
    """All m x m minors of the m x binom(n+1,2) coordinate matrix, sized
    first: those of the vectorized B' over L^m (``linalg.laplace_minors``)."""
    n, m = space.n, space.m
    _check_plucker_size(n, m)
    (basis, lcm), pairs = space.integer_basis(), sym_pairs(n)
    minor, den = laplace_minors([[{0: b[i][j]} if b[i][j] else {} for i, j in pairs]
                                 for b in basis]), lcm ** m
    return PluckerVector(n, m, {cols: Fraction(minor(cols).get(0, 0), den)
                                for cols in itertools.combinations(range(len(pairs)), m)})


class ParametricBasis:
    """Family of subspaces as m coordinate rows of {power: Fraction} entries
    in ``sym_pairs`` order, recorded unchecked (the reader checks symmetry)."""

    __slots__ = ("n", "m", "rows")

    def __init__(self, n: int, rows: List[List[Dict[int, Fraction]]]):
        self.n, self.m, self.rows = n, len(rows), rows


def grassmann_limit(family: ParametricBasis) -> MatSpace:
    """Limit subspace at t -> 0 via valuation-normalized row reduction, on
    rows of {power: coefficient} entries.

    Repeatedly: evaluate at t = 0 (the power-0 coefficients); while the rank
    drops, pick a kernel combination of the evaluated rows, form the same
    combination of the polynomial rows, strip its least power w >= 1 and use
    it to replace the last row in the combination's support.  A pass divides
    the Pluecker vector (the maximal minors) by t^w, and the rows stay
    polynomial, so with v the least t-valuation of the minors at most v
    passes run and evaluation v + 1 returns (``plucker_valuation``).  No
    nonzero minor means the family is degenerate for generic t.  The minors
    are refused with TOO_LARGE past ``MAX_PLUCKER_SUBSETS``, as in
    ``plucker``.
    """
    _check_plucker_size(family.n, family.m)
    rows = list(family.rows)  # replaced row by row, never mutated: catalog families are shared
    valuation = plucker_valuation(rows)
    if valuation is None:
        raise PreconditionError("NOT_GENERIC_RANK", "family is degenerate for generic t")
    for _ in range(valuation + 1):
        numeric = [[e.get(0, Fraction(0)) for e in row] for row in rows]
        if rref(numeric).rank == family.m:
            return MatSpace(family.n, [unvectorize(family.n, row) for row in numeric])
        combo = _row_kernel_vector(numeric)
        combined = [{} for _ in rows[0]]
        for c, row in zip(combo, rows):
            for acc, e in zip(combined, row):
                for k, x in e.items():
                    acc[k] = acc.get(k, 0) + c * x
        combined = [{k: x for k, x in acc.items() if x} for acc in combined]
        w = min(k for acc in combined for k in acc)
        target = max(i for i, c in enumerate(combo) if c)
        rows[target] = [{k - w: x for k, x in acc.items()} for acc in combined]
    raise InternalCheckError("INTERNAL", "limit passes exceeded the Pluecker valuation")


def plucker_valuation(rows: List[List[Dict[int, Fraction]]]) -> Optional[int]:
    """The least t-power of the maximal minors of m rows of {power:
    coefficient} entries, or None when every minor vanishes: each row is
    cleared of denominators by its own lcm, which scales each minor by one
    nonzero integer, and with one variable a packed key is its power, so
    the cleared rows are ``linalg.laplace_minors``' input as they are."""
    cleared = []
    for row in rows:
        d = math.lcm(*(c.denominator for e in row for c in e.values()))
        cleared.append([{k: c.numerator * (d // c.denominator) for k, c in e.items()} for e in row])
    minor = laplace_minors(cleared)
    return min((min(p) for cols in itertools.combinations(range(len(rows[0])), len(rows))
                if (p := minor(cols))), default=None)


def _row_kernel_vector(numeric_rows: List[List[Fraction]]) -> List[Fraction]:
    """First kernel vector of the 'combine rows' map (rows as a matrix^T)."""
    transposed = [[numeric_rows[i][j] for i in range(len(numeric_rows))]
                  for j in range(len(numeric_rows[0]))]
    basis = rref(transposed).kernel_basis()
    if not basis:
        raise PreconditionError("NOT_GENERIC_RANK", "no kernel combination found")
    return basis[0]
