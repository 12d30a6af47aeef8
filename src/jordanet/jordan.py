"""The Jordan product on symmetric matrices and algebra-level analysis.

For an invertible symmetric U, the product is

    X * Y = (X U^{-1} Y + Y U^{-1} X) / 2,

commutative with unit U and power-associative but not associative.  A
subspace closed under this product (for an invertible U inside it) is a
Jordan subalgebra; equivalently its reciprocal variety is again a linear
space (proved both ways in ``check_reciprocal_identity``).

Everything runs on one integer algebra per space, with one unit: its first
invertible element (``spaces.unit_point``), as closure does not depend on
which invertible U is taken.  The basis is kept as B_k = B'_k / L over one
common denominator (``MatSpace.integer_basis``), and the unit's inverse once
as U^{-1} = Q / s (``spaces.Unit.inverse``), read off the one elimination of
the integer matrix U' = c U that the sweep ranked, so that
B'_i Q B'_j + (B'_i Q B'_j)^T = 2sL^2 (B_i * B_j) is an integer product.
``jordan_closure`` grows one integer ``linalg.Echelon`` from such products and
returns it, with the closure's dimension as its rank; the Jordan test reduces
each basis product on the space's echelon, reads its coordinates off the
space's pivot inverse (``MatSpace.pivot_inverse``, the one linear solve) and
keeps the structure tensor as one integer tensor c over one denominator.
The radical (the kernel of the trace form (x, y) -> tr(L_{x*y}), the
characteristic-zero semisimplicity criterion), associativity and the
radical's square are read off c and cached on the structure.  The tests
compare all of it with the Fraction route, and check that the radical is an
ideal of nilpotents and that the product satisfies the unit law and the
Jordan identity.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InternalCheckError, PreconditionError
from .linalg import Echelon, Mat, int_matmul, integer_inverse, integer_vector, rref
from .spaces import (MatSpace, Unit, contains, integer_sweep, nonzero_sweep, sym_pairs,
                     symmetric_rows, unit_point, unvectorize)


def _doubled_product(xq: Sequence[Sequence[int]], y: Sequence[Sequence[int]],
                     pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """The upper triangle of A + A^T with A = X Q Y, from the rows of X Q and
    of the symmetric Y: 2s (X * Y) when U^{-1} = Q / s."""
    a = int_matmul(xq, y)
    return [a[i][j] + a[j][i] for i, j in pairs]


class JordanWitness(NamedTuple):
    """Failure witness: basis product (i, j) escapes the space."""

    i: int
    j: int
    product: Mat
    residue: Mat


def is_jordan(space: MatSpace) -> Tuple[bool, Optional[JordanWitness]]:
    """Closure test: every pairwise basis product must stay in the space."""
    got = _basis_products(space, unit_point(space))
    return (False, got) if isinstance(got, JordanWitness) else (True, None)


def jordan_closure(space: MatSpace) -> Echelon:
    """The integer echelon of the smallest subspace containing the space and
    closed under the product, in ``sym_pairs`` coordinates: its ``rank`` is
    the closure's dimension, and ``int_rows`` or ``rows`` its reduced basis.

    A worklist over that one growing echelon: each element (the integer basis
    first) is multiplied once with itself and each element before it, as 2s
    times the product, which is adjoined; a vector that joins the span
    becomes a new element over its content, kept as integer rows.  Stops
    early at all of S^n.
    """
    q, _ = unit_point(space).inverse
    n = space.n
    pairs = sym_pairs(n)
    ech = Echelon(len(pairs))
    elements = []  # rows of primitive integer matrices, in the order they joined

    def grow(vec: List[int]) -> None:
        if ech.adjoin(vec) is not None:
            g = math.gcd(*vec)
            elements.append(symmetric_rows(n, [x // g for x in vec]))

    for b in space.integer_basis()[0]:
        grow([b[i][j] for i, j in pairs])
    done = 0
    while done < len(elements) and ech.rank < len(pairs):
        xq = int_matmul(elements[done], q)  # Q is symmetric: its rows are its columns
        done += 1
        for y in elements[:done]:
            grow(_doubled_product(xq, y, pairs))
            if ech.rank == len(pairs):
                break
    return ech


def _combine(coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> List[int]:
    """sum_l coeffs[l] rows[l] for integer vectors."""
    out = [0] * len(rows[0])
    for f, row in zip(coeffs, rows):
        if f:
            out = [x + f * y for x, y in zip(out, row)]
    return out


class JordanStructure:
    """A Jordan subalgebra with its unit and structure tensor: b_i * b_j =
    sum_k c[i][j][k] b_k / den for the basis b, with integer c and den > 0.
    The radical, associativity and the dimension of the radical's square are
    cached on it by the functions that compute them."""

    __slots__ = ("space", "unit", "c", "den", "_radical", "_associative", "_rad_square")

    def __init__(self, space: MatSpace, unit: Unit, c: List[List[List[int]]], den: int):
        self.space, self.unit, self.c, self.den = space, unit, c, den
        self._radical = self._associative = self._rad_square = None

    @property
    def dim(self) -> int:
        return self.space.m

    def multiply_coords(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
        """Coordinates of the product of the elements with coordinates a and b:
        with a = a' / d and b = b' / e, sum_ij a'_i b'_j c[i][j] / (d e den)."""
        (ai, d), (bi, e) = integer_vector(a), integer_vector(b)
        prod = _combine(ai, [_combine(bi, plane) for plane in self.c])
        return [Fraction(x, d * e * self.den) for x in prod]

    def operator_matrix(self, coords: Sequence[Fraction]) -> Mat:
        """Matrix of left multiplication by the element with these coordinates:
        column j is x * b_j = sum_i x_i c[j][i] / den."""
        xi, d = integer_vector(coords)
        cols = [_combine(xi, plane) for plane in self.c]
        return Mat([[Fraction(col[k], d * self.den) for col in cols] for k in range(self.dim)])


def structure_constants(space: MatSpace) -> JordanStructure:
    """Structure tensor of a Jordan subalgebra; raises NOT_JORDAN when the
    space is not closed."""
    got = _basis_products(space, unit_point(space))
    if isinstance(got, JordanWitness):
        raise PreconditionError("NOT_JORDAN", f"basis product ({got.i}, {got.j}) escapes the space")
    return got


def _basis_products(space: MatSpace, unit: Unit) -> Union[JordanStructure, JordanWitness]:
    """The structure of the space for its unit, or the first basis product (in
    (i, j) order, i <= j) that escapes it; memoised on the unit.

    The space's echelon of B' reduces v = 2sL^2 (B_i * B_j); a nonzero
    remainder makes the witness, the one place Fractions are formed.
    Otherwise v's coordinates over B' are R v_P / D on the pivot columns P
    (``MatSpace.pivot_inverse``), and those of v / 2sL^2 over B = B' / L are
    L times them over 2sL^2: c[i][j] = R v_P over den = 2sLD.
    """
    if unit.products is not None:
        return unit.products
    n, m = space.n, space.m
    basis, lcm = space.integer_basis()
    q, s = unit.inverse
    ech = space.echelon()
    r = None  # the pivot inverse, read once a product lies in the space
    scale = 2 * s * lcm * lcm
    pairs = sym_pairs(n)
    c = [[None] * m for _ in range(m)]
    for i in range(m):
        xq = int_matmul(basis[i], q)
        for j in range(i, m):
            v = _doubled_product(xq, basis[j], pairs)
            rest, k = ech.eliminate(v)
            if any(rest):
                unit.products = JordanWitness(
                    i, j, unvectorize(n, [Fraction(x, scale) for x in v]),
                    unvectorize(n, [Fraction(x, k * scale) for x in rest]))
                return unit.products
            if r is None:
                r, d = space.pivot_inverse()
            c[i][j] = c[j][i] = int_matmul([[v[p] for p in ech.pivots]], r)[0]
    den = 2 * s * lcm * d
    g = math.gcd(den, *(x for row in c for vec in row for x in vec))
    unit.products = JordanStructure(space, unit, [[[x // g for x in vec] for vec in row]
                                                  for row in c], den // g)
    return unit.products


def radical(a: JordanStructure) -> List[List[Fraction]]:
    """Coordinate vectors of the radical, the kernel of the trace form, cached
    on the structure: tr(L_{b_k}) = sum_j c_kj^j / den and the Gram entry is
    sum_k c_ij^k tr(L_{b_k}) / den, so den^2 times the Gram matrix is an
    integer matrix with the same kernel."""
    if a._radical is None:
        c, m = a.c, a.dim
        traces = [sum(c[k][j][j] for j in range(m)) for k in range(m)]
        ech = Echelon(m)
        ech.extend([sum(x * t for x, t in zip(c[i][j], traces)) for j in range(m)]
                   for i in range(m))
        a._radical = ech.kernel_basis()
    return a._radical


def is_associative(a: JordanStructure) -> bool:
    """(b_i * b_j) * b_k = b_i * (b_j * b_k) on all basis triples, read off
    the tensor: sum_l c_ij^l c_lk = sum_l c_jk^l c_il (both den^2 times the
    coordinates of a side).  Cached on the structure."""
    if a._associative is None:
        c, m = a.c, a.dim
        a._associative = all(_combine(c[i][j], c[k]) == _combine(c[j][k], c[i])
                             for i in range(m) for j in range(m) for k in range(m))
    return a._associative


def rad_square_dim(a: JordanStructure) -> int:
    """Dimension of the span of pairwise products of radical elements, cached
    on the structure."""
    if a._rad_square is None:
        coords = radical(a)
        a._rad_square = rref([a.multiply_coords(x, y) for i, x in enumerate(coords)
                              for y in coords[i:]]).rank
    return a._rad_square


def peirce(a: JordanStructure, idempotents: Sequence[Mat]) -> Dict[Tuple[int, int], List[Mat]]:
    """Joint eigenspace decomposition for orthogonal idempotents summing to U.

    Piece (i, i) collects Y with X_i * Y = Y; piece (i, j) for i < j collects
    Y with 2 X_i * Y = 2 X_j * Y = Y.  The idempotents are checked in
    coordinates.  Dimensions always sum to the algebra dimension; a
    shortfall raises, it cannot silently truncate.
    """
    d = len(idempotents)
    coords = []
    for x in idempotents:
        c = contains(a.space, x)
        if c is None:
            raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "idempotent outside the algebra")
        coords.append(c)
        if a.multiply_coords(c, c) != c:
            raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "element is not idempotent")
    if any(any(a.multiply_coords(x, y)) for x, y in itertools.combinations(coords, 2)):
        raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "idempotents are not orthogonal")
    if [sum(col) for col in zip(*coords)] != list(a.unit.coords):
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


#: invertible sweep points the sampled reciprocal check tries
_RECIPROCAL_TRIALS = 8


def check_reciprocal_identity(space: MatSpace) -> Tuple[bool, Optional[Mat]]:
    """Sampled test of: inverses of elements land in U^{-1} L U^{-1}.

    Walks the deterministic integer sweep, keeps the first eight invertible
    elements X, and checks U Q U back in the space, X^{-1} = L Q / s for
    X = X' / L and X'^{-1} = Q / s (``linalg.integer_inverse`` of X'; an
    exact reformulation avoiding the conjugated basis, and containment
    ignores L / s).
    Points with every coordinate nonzero are tried first: sparse coordinate
    patterns often sit inside well-behaved subalgebras and would mask a
    failure.  Returns (ok, witness).

    The exact answer is ``is_jordan``, so this is an oracle for the
    verification suite and the tests, not for ``analyze``.  Closed =>
    reciprocal: (U^{-1} X)^{-1} is a polynomial in U^{-1} X
    (Cayley-Hamilton) inside the special Jordan algebra U^{-1} L, which
    contains I.  Reciprocal => closed: U (U + eps Y)^{-1} U mod L vanishes
    for all but at most n values of eps, hence identically, and its eps^2
    coefficient is Y * Y; polarizing gives X * Y.
    """
    u = unit_point(space).mat
    found = 0
    for tup in itertools.chain(nonzero_sweep(space.m, space.n + 2), integer_sweep(space.m)):
        inv = integer_inverse(space.integer_element(tup))
        if inv is None:
            continue
        found += 1
        if contains(space, u @ Mat.from_ints(inv[0]) @ u) is None:
            return False, space.element(tup)
        if found >= _RECIPROCAL_TRIALS:
            break
    return True, None
