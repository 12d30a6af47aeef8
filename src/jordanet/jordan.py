"""The Jordan product on symmetric matrices and algebra-level analysis.

For an invertible symmetric U, the product is

    X * Y = (X U^{-1} Y + Y U^{-1} X) / 2,

commutative with unit U and power-associative but not associative.  A
subspace closed under this product (for an invertible U inside it) is a
Jordan subalgebra; equivalently its reciprocal variety is again a linear
space (proved both ways in ``check_reciprocal_identity``), and the two
conditions are cross-checked throughout the test suite.

Products are taken on integers.  For each (space, unit) pair the unit is
inverted once, U^{-1} = Q / s with Q a symmetric integer matrix, and kept in
``space._jordan`` beside the basis products for that unit, which
``is_jordan`` and ``structure_constants`` read.  For integer X and Y,
X Q Y + (X Q Y)^T = 2s (X * Y): ``jordan_closure`` keeps its elements as
primitive integer matrices and needs the product only up to that scale, so it
grows a ``linalg.Echelon`` (the integer echelon behind every membership test,
rank and inverse) from a worklist, reducing each product once and adjoining a
nonzero residue in place.  Basis products divide once by the scale and keep
their true value.

The radical (coordinate vectors: the kernel of the trace form (x, y) ->
tr(L_{x*y}), the characteristic-zero semisimplicity criterion) and
associativity are read off the structure tensor and cached on it.  The tests
check that the kernel is an ideal of nilpotents, and that the product
satisfies the unit law and the Jordan identity (a theorem: X -> U^{-1} X
embeds the algebra into the special Jordan algebra (AB + BA) / 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import InternalCheckError, PreconditionError
from .exact import frac
from .linalg import Echelon, Mat, int_matmul, integer_matrix, inverse_or_none, rref
from .spaces import (
    MatSpace,
    contains,
    find_invertible,
    integer_sweep,
    nonzero_sweep,
    residue_mod_space,
    sym_pairs,
    unvectorize,
)


def jordan_product(x: Mat, y: Mat, u: Mat) -> Mat:
    """X * Y = (X U^{-1} Y + Y U^{-1} X) / 2 with unit U."""
    for m in (x, y, u):
        if not m.is_symmetric():
            raise PreconditionError("NOT_SYMMETRIC", "Jordan product needs symmetric matrices")
    uinv = inverse_or_none(u)
    if uinv is None:
        raise PreconditionError("SINGULAR_U", "unit must be invertible")
    return _product(x, y, *integer_matrix(uinv))


def _doubled_product(xq: Sequence[Sequence[int]], y: Sequence[Sequence[int]],
                     pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """The upper triangle of A + A^T with A = X Q Y, from the rows of X Q and
    of the symmetric Y: 2s (X * Y) when U^{-1} = Q / s."""
    a = int_matmul(xq, y)
    return [a[i][j] + a[j][i] for i, j in pairs]


def _product(x: Mat, y: Mat, q: List[List[int]], s: int) -> Mat:
    """X * Y for Fraction matrices and U^{-1} = Q / s: with X = X' / d and
    Y = Y' / e, the integer X' Q Y' + (X' Q Y')^T divided once by 2 s d e."""
    (xi, d), (yi, e) = integer_matrix(x), integer_matrix(y)
    doubled = _doubled_product(int_matmul(xi, q), yi, sym_pairs(x.rows))
    return unvectorize(x.rows, [Fraction(v, 2 * s * d * e) for v in doubled])


@dataclass
class JordanWitness:
    """Failure witness: basis product (i, j) escapes the space."""

    i: int
    j: int
    product: Mat
    residue: Mat


class Unit:
    """A unit U of a space, its coordinates, U^{-1} = q / s (q a symmetric
    integer matrix, s > 0), and the basis products for U once computed."""

    __slots__ = ("u", "coords", "q", "s", "products")

    def __init__(self, u: Mat, coords: Tuple[Fraction, ...], q: List[List[int]], s: int):
        self.u, self.coords, self.q, self.s = u, coords, q, s
        self.products: Union["JordanStructure", JordanWitness, None] = None


def resolve_unit(space: MatSpace, u: Optional[Mat] = None) -> Unit:
    """The unit (the given one, checked, else the space's first invertible
    element with the coordinates the sweep found), with its coordinates and
    inverse, once per (space, U) in ``space._jordan``."""
    u, coords = find_invertible(space) if u is None else (u, None)
    unit = space._jordan.get(u.data)
    if unit is None:
        coords = contains(space, u) if coords is None else coords
        if coords is None:
            raise PreconditionError("U_NOT_IN_SPACE", "unit must lie in the space")
        uinv = inverse_or_none(u)
        if uinv is None:
            raise PreconditionError("SINGULAR_U", "unit must be invertible")
        unit = space._jordan[u.data] = Unit(u, tuple(map(frac, coords)), *integer_matrix(uinv))
    return unit


def is_jordan(space: MatSpace, u: Optional[Mat] = None) -> Tuple[bool, Optional[JordanWitness]]:
    """Closure test: every pairwise basis product must stay in the space."""
    got = _basis_products(space, resolve_unit(space, u))
    if isinstance(got, JordanWitness):
        return False, got
    return True, None


def jordan_closure(space: MatSpace, u: Mat) -> MatSpace:
    """Smallest subspace containing the space and closed under the product.

    A worklist over one growing integer echelon: each adjoined element (the
    basis first) is multiplied once with itself and each element before it,
    as 2s times the product, and a product's nonzero residue modulo the span
    is adjoined.  Stops early at all of S^n; returns the reduced row echelon
    basis of the closure, independent and symmetric as built.
    """
    q = resolve_unit(space, u).q
    n = space.n
    pairs = sym_pairs(n)
    ech = Echelon(len(pairs))
    elements = []  # primitive integer matrices, in the order they were adjoined

    def grow(vec: List[int]) -> None:
        residue = ech.residue(vec)
        if any(residue):
            ech.adjoin(residue)
            elements.append(_int_symmetric(n, pairs, residue))

    for b in space.basis:
        bi = integer_matrix(b)[0]
        grow([bi[i][j] for i, j in pairs])
    done = 0
    while done < len(elements) and ech.rank < len(pairs):
        xq = int_matmul(elements[done], q)  # Q is symmetric: its rows are its columns
        done += 1
        for y in elements[:done]:
            grow(_doubled_product(xq, y, pairs))
            if ech.rank == len(pairs):
                break
    return MatSpace(n, [unvectorize(n, r) for r in ech.rows])


def _int_symmetric(n: int, pairs: Sequence[Tuple[int, int]], vec: Sequence[int]) -> List[List[int]]:
    out = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pairs, vec):
        out[i][j] = out[j][i] = v
    return out


@dataclass
class JordanStructure:
    """A Jordan subalgebra with its structure-constant tensor.

    ``tensor[i][j]`` holds the coordinates of basis_i * basis_j in the basis.
    """

    space: MatSpace
    unit: Mat
    unit_coords: Tuple[Fraction, ...]
    tensor: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]
    _radical: Optional[List[List[Fraction]]] = field(default=None, repr=False)
    _associative: Optional[bool] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.space.m

    def multiply_coords(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
        m = self.dim
        out = [Fraction(0)] * m
        for i in range(m):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(m):
                bj = b[j]
                if bj == 0:
                    continue
                c = self.tensor[i][j]
                f = ai * bj
                for k in range(m):
                    if c[k] != 0:
                        out[k] += f * c[k]
        return out

    def operator_matrix(self, coords: Sequence[Fraction]) -> Mat:
        """Matrix of left multiplication by the element with these coordinates."""
        m = self.dim
        cols = []
        for j in range(m):
            basis_j = [Fraction(int(t == j)) for t in range(m)]
            cols.append(self.multiply_coords(coords, basis_j))
        return Mat([[cols[j][k] for j in range(m)] for k in range(m)])


def structure_constants(space: MatSpace, u: Optional[Mat] = None) -> JordanStructure:
    """Structure tensor of a Jordan subalgebra; raises NOT_JORDAN when the
    space is not closed."""
    got = _basis_products(space, resolve_unit(space, u))
    if isinstance(got, JordanWitness):
        raise PreconditionError("NOT_JORDAN", f"basis product ({got.i}, {got.j}) escapes the space")
    return got


def _basis_products(space: MatSpace, unit: Unit) -> Union[JordanStructure, JordanWitness]:
    """The structure of the space for the unit, or the first basis product (in
    (i, j) order, i <= j) that escapes it; memoised on the unit."""
    if unit.products is None:
        m = space.m
        tensor = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                p = _product(space.basis[i], space.basis[j], unit.q, unit.s)
                coords = contains(space, p)
                if coords is None:
                    unit.products = JordanWitness(i, j, p, residue_mod_space(space, p))
                    return unit.products
                tensor[i][j] = tensor[j][i] = tuple(coords)
        unit.products = JordanStructure(space, unit.u, unit.coords,
                                        tuple(tuple(row) for row in tensor))
    return unit.products


def radical(a: JordanStructure) -> List[List[Fraction]]:
    """Coordinate vectors of the radical, the kernel of the trace form, cached
    on the structure: with c_ij^k = ``tensor[i][j][k]``, tr(L_{b_k}) =
    sum_j c_kj^j and the Gram entry is sum_k c_ij^k tr(L_{b_k})."""
    if a._radical is None:
        m, tensor = a.dim, a.tensor
        traces = [sum(tensor[k][j][j] for j in range(m)) for k in range(m)]
        gram = [[sum(c * t for c, t in zip(tensor[i][j], traces) if c) for j in range(m)]
                for i in range(m)]
        a._radical = rref(gram).kernel_basis()
    return a._radical


def is_associative(a: JordanStructure) -> bool:
    """(b_i * b_j) * b_k = b_i * (b_j * b_k) on all basis triples: the
    product of ``tensor[i][j]`` with b_k against that of b_i with
    ``tensor[j][k]``.  Cached on the structure."""
    if a._associative is None:
        m = a.dim
        unit_vecs = [[Fraction(int(t == i)) for t in range(m)] for i in range(m)]
        a._associative = all(
            a.multiply_coords(a.tensor[i][j], unit_vecs[k])
            == a.multiply_coords(unit_vecs[i], a.tensor[j][k])
            for i in range(m) for j in range(m) for k in range(m))
    return a._associative


def rad_square_dim(a: JordanStructure) -> int:
    """Dimension of the span of pairwise products of radical elements."""
    coords = radical(a)
    if not coords:
        return 0
    rows = []
    for i in range(len(coords)):
        for j in range(i, len(coords)):
            rows.append(a.multiply_coords(coords[i], coords[j]))
    return rref(rows).rank


def peirce(a: JordanStructure, idempotents: Sequence[Mat]) -> Dict[Tuple[int, int], List[Mat]]:
    """Joint eigenspace decomposition for orthogonal idempotents summing to U.

    Piece (i, i) collects Y with X_i * Y = Y; piece (i, j) for i < j collects
    Y with 2 X_i * Y = 2 X_j * Y = Y.  Dimensions always sum to the algebra
    dimension; a shortfall raises, it cannot silently truncate.
    """
    unit = resolve_unit(a.space, a.unit)
    d = len(idempotents)
    coords = []
    for x in idempotents:
        c = contains(a.space, x)
        if c is None:
            raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "idempotent outside the algebra")
        coords.append(c)
        if _product(x, x, unit.q, unit.s) != x:
            raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "element is not idempotent")
    for i in range(d):
        for j in range(i + 1, d):
            if not _is_zero_mat(_product(idempotents[i], idempotents[j], unit.q, unit.s)):
                raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "idempotents are not orthogonal")
    total = idempotents[0]
    for x in idempotents[1:]:
        total = total + x
    if total != a.unit:
        raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "idempotents do not sum to the unit")

    m = a.dim
    ops = [a.operator_matrix(c) for c in coords]
    ident = Mat.identity(m)
    pieces: Dict[Tuple[int, int], List[Mat]] = {}
    used = 0
    for i in range(d):
        kernel = rref((ops[i] - ident).data).kernel_basis()
        pieces[(i, i)] = [a.space.element(v) for v in kernel]
        used += len(kernel)
        for j in range(i + 1, d):
            stacked = (ops[i].scale(2) - ident).data + (ops[j].scale(2) - ident).data
            kernel = rref(list(stacked)).kernel_basis()
            pieces[(i, j)] = [a.space.element(v) for v in kernel]
            used += len(kernel)
    if used != m:
        raise InternalCheckError("INTERNAL", f"Peirce pieces span {used} of {m} dimensions")
    return pieces


def _is_zero_mat(m: Mat) -> bool:
    return all(x == 0 for row in m.data for x in row)


#: invertible sweep points the sampled reciprocal check tries
_RECIPROCAL_TRIALS = 8


def check_reciprocal_identity(space: MatSpace, u: Optional[Mat] = None) -> Tuple[bool, Optional[Mat]]:
    """Sampled test of: inverses of elements land in U^{-1} L U^{-1}.

    Walks the deterministic integer sweep, keeps the first eight invertible
    elements X, and checks U X^{-1} U back in the space (an exact
    reformulation avoiding the conjugated basis).  Points with every
    coordinate nonzero are tried first: sparse coordinate patterns often sit
    inside well-behaved subalgebras and would mask a failure.  Returns
    (ok, witness).

    The exact answer is ``is_jordan``, so this is an oracle for the
    verification suite and the tests, not for ``analyze``.  Closed =>
    reciprocal: (U^{-1} X)^{-1} is a polynomial in U^{-1} X
    (Cayley-Hamilton) inside the special Jordan algebra U^{-1} L, which
    contains I.  Reciprocal => closed: U (U + eps Y)^{-1} U mod L vanishes
    for all but at most n values of eps, hence identically, and its eps^2
    coefficient is Y * Y; polarizing gives X * Y.
    """
    u = resolve_unit(space, u).u
    found = 0
    for tup in itertools.chain(nonzero_sweep(space.m, space.n + 2), integer_sweep(space.m)):
        x = space.element(tup)
        xinv = inverse_or_none(x)
        if xinv is None:
            continue
        found += 1
        if contains(space, u @ xinv @ u) is None:
            return False, x
        if found >= _RECIPROCAL_TRIALS:
            break
    return True, None
