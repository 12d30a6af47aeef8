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
as U^{-1} = Q / s (``spaces.Unit.inverse``): the sweep ranks U' = c U on an
echelon, and the inverse eliminates [U' | c I] on first read, so that B'_i Q
B'_j + (B'_i Q B'_j)^T = 2sL^2 (B_i * B_j) is an integer product.
``jordan_closure`` grows a copy of the space's echelon from such products
and returns it, with the closure's dimension as its rank.  It never
multiplies by U or by B_drop, drop the first index on which U has a nonzero
coordinate (``Unit.drop``): span(U, B_k : k != drop) is the space and U * X
= X, so B_drop * X lies in the span of X and the B_k * X with k != drop.
The Jordan test reduces each basis product on the space's echelon, reads its
coordinates off the space's pivot inverse (``MatSpace.pivot_inverse``, the
one linear solve) and keeps the structure tensor as one integer tensor c
over one denominator.  The radical (the kernel of the trace form (x, y) ->
tr(L_{x*y}), the characteristic-zero semisimplicity criterion: its
echelon's primitive ``integer_kernel``), associativity and the radical's
square are read off c, and so are the Peirce pieces, all on integers.  A
structure never changes once built, so the first three are each a
``functools.cached_property`` of it; the structure, or the witness, is kept
in the unit's instance dict, as ``spaces`` keeps no field for it (its
caching rule is stated there).  The tests compare all of it with the
Fraction route, and check that the radical is an ideal of nilpotents that
never holds the unit (tr L_U = m), and that the product satisfies the unit
law and the Jordan identity.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InternalCheckError, PreconditionError
from .linalg import Echelon, Mat, int_matmul, integer_vector, primitive, rref
from .spaces import (MatSpace, Unit, contains, integer_sweep, invertible_points, nonzero_sweep,
                     sym_pairs, symmetric_rows, unit_point, unvectorize)


def _doubled_product(xq: Sequence[Sequence[int]], y: Sequence[Sequence[int]],
                     pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """The upper triangle of A + A^T with A = X Q Y, from the rows of X Q and
    of the symmetric Y: 2s (X * Y) when U^{-1} = Q / s."""
    a = int_matmul(xq, y)
    return [a[i][j] + a[j][i] for i, j in pairs]


class JordanWitness(NamedTuple):
    """Failure witness: basis product (i, j) escapes the space, leaving
    ``residue`` modulo it."""

    i: int
    j: int
    residue: Mat


def is_jordan(space: MatSpace) -> Tuple[bool, Optional[JordanWitness]]:
    """Closure test: every pairwise basis product must stay in the space."""
    got = _basis_products(space, unit_point(space))
    return (False, got) if isinstance(got, JordanWitness) else (True, None)


def jordan_closure(space: MatSpace) -> Echelon:
    """The integer echelon of the smallest subspace containing the space and
    closed under the product, in ``sym_pairs`` coordinates: its ``rank`` is
    the closure's dimension, and ``int_rows`` its reduced basis.

    A worklist over one growing echelon, a ``copy`` of the space's own
    (which does not grow).  The elements are the primitive B'_k for every k
    but drop, the first index on which the unit U has a nonzero coordinate
    t_drop (``spaces.Unit.drop``), then each vector that joins the span,
    over its content, kept as integer rows.  Each element is multiplied once
    with itself and each element before it, as 2s times the product, which
    is adjoined.  No product with U or B_drop is formed: span(U, B_k : k !=
    drop) is the space and U * X = X, so B_drop * X = (X - sum_(k != drop)
    t_k B_k * X) / t_drop already lies in the span the worklist builds.
    Stops early at all of S^n, or for a pencil at rank n: the closure of
    <U, X> is U Q[U^-1 X], of dimension at most n (Cayley-Hamilton).
    """
    unit = unit_point(space)
    q, _ = unit.inverse
    n = space.n
    pairs = sym_pairs(n)
    top = n if space.m == 2 else len(pairs)  # the most the closure's dimension can be
    ech = space.echelon.copy()
    # rows of primitive integer matrices: the B'_k but B'_drop, then products as they joined
    elements = [symmetric_rows(n, primitive(v, False))
                for k, v in enumerate(space.vectors) if k != unit.drop]

    def grow(vec: List[int]) -> None:
        if ech.adjoin(vec) is not None:
            elements.append(symmetric_rows(n, primitive(vec, False)))

    done = 0
    while done < len(elements) and ech.rank < top:
        xq = int_matmul(elements[done], q)  # Q is symmetric: its rows are its columns
        done += 1
        for y in elements[:done]:
            grow(_doubled_product(xq, y, pairs))
            if ech.rank == top:
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
    cached properties, read through ``radical``, ``is_associative`` and
    ``rad_square_dim``."""

    __slots__ = ("space", "unit", "c", "den", "__dict__")

    def __init__(self, space: MatSpace, unit: Unit, c: List[List[List[int]]], den: int):
        self.space, self.unit, self.c, self.den = space, unit, c, den

    @property
    def dim(self) -> int:
        return self.space.m

    @functools.cached_property
    def _radical(self) -> List[List[int]]:
        c, m = self.c, self.dim
        traces = [sum(c[k][j][j] for j in range(m)) for k in range(m)]
        ech = Echelon(m)
        ech.extend([sum(x * t for x, t in zip(c[i][j], traces)) for j in range(m)]
                   for i in range(m))
        return ech.integer_kernel()

    @functools.cached_property
    def _associative(self) -> bool:
        c, m = self.c, self.dim
        return all(_combine(c[i][j], c[k]) == _combine(c[j][k], c[i])
                   for i in range(m) for j in range(m) for k in range(m))

    @functools.cached_property
    def _rad_square(self) -> int:
        coords = radical(self)  # the traced name: its calls count
        return rref([_combine(x, [_combine(y, plane) for plane in self.c])
                     for i, x in enumerate(coords) for y in coords[i:]]).rank


def structure_constants(space: MatSpace) -> JordanStructure:
    """Structure tensor of a Jordan subalgebra; raises NOT_JORDAN when the
    space is not closed."""
    got = _basis_products(space, unit_point(space))
    if isinstance(got, JordanWitness):
        raise PreconditionError("NOT_JORDAN", f"basis product ({got.i}, {got.j}) escapes the space")
    return got


def _basis_products(space: MatSpace, unit: Unit) -> Union[JordanStructure, JordanWitness]:
    """The structure of the space for its unit, or the first basis product (in
    (i, j) order, i <= j) that escapes it; kept in the unit's instance dict.

    The space's echelon of B' reduces v = 2sL^2 (B_i * B_j); a nonzero
    remainder makes the witness, the one place Fractions are formed.
    Otherwise v's coordinates over B' are R v_P / D on the pivot columns P
    (``MatSpace.pivot_inverse``), and those of v / 2sL^2 over B = B' / L are
    L times them over 2sL^2: c[i][j] = R v_P over den = 2sLD.
    """
    memo = vars(unit)
    if "basis_products" in memo:
        return memo["basis_products"]
    n, m = space.n, space.m
    basis, lcm = space.integer_basis()
    q, s = unit.inverse
    ech = space.echelon
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
                memo["basis_products"] = JordanWitness(
                    i, j, unvectorize(n, [Fraction(x, k * scale) for x in rest]))
                return memo["basis_products"]
            if r is None:
                r, d = space.pivot_inverse
            c[i][j] = c[j][i] = int_matmul([[v[p] for p in ech.pivots]], r)[0]
    den = 2 * s * lcm * d
    g = math.gcd(den, *(x for row in c for vec in row for x in vec))
    memo["basis_products"] = JordanStructure(
        space, unit, [[[x // g for x in vec] for vec in row] for row in c], den // g)
    return memo["basis_products"]


def radical(a: JordanStructure) -> List[List[int]]:
    """Integer coordinate vectors of the radical, the kernel of the trace
    form: tr(L_{b_k}) = sum_j c_kj^j / den and the Gram entry is sum_k
    c_ij^k tr(L_{b_k}) / den, so den^2 times the Gram matrix is an integer
    matrix with the same kernel, whose ``Echelon.integer_kernel`` (the
    reduced basis, each vector primitive) this is."""
    return a._radical


def is_associative(a: JordanStructure) -> bool:
    """(b_i * b_j) * b_k = b_i * (b_j * b_k) on all basis triples, read off
    the tensor: sum_l c_ij^l c_lk = sum_l c_jk^l c_il (both den^2 times the
    coordinates of a side)."""
    return a._associative


def rad_square_dim(a: JordanStructure) -> int:
    """Dimension of the span of pairwise products of radical elements."""
    return a._rad_square


def peirce(a: JordanStructure, idempotents: Sequence[Mat]) -> Dict[Tuple[int, int], List[Mat]]:
    """Joint eigenspace decomposition for orthogonal idempotents summing to U.

    Piece (i, i) collects Y with X_i * Y = Y; piece (i, j) for i < j collects
    Y with 2 X_i * Y = 2 X_j * Y = Y.  Each piece is read off the integer
    tensor: with X_i's coordinates c'_i / e_i, left multiplication by X_i
    is M_i / (e_i den), M_i's column k being sum_l c'_il c[k][l].  So X_i
    is idempotent when M_i c'_i = e_i den c'_i, X_i * X_j = 0 when M_i c'_j
    = 0, and the pieces are the integer kernels of M_i - e_i den I and of
    2 M_i - e_i den I (stacked with j's), each element the primitive
    integer combination of the basis.  Dimensions always sum to the
    algebra dimension; a shortfall raises, it cannot silently truncate.
    """
    m = a.dim
    coords, ops = [], []  # ops: (c'_i, the columns of M_i, e_i den)
    for x in idempotents:
        c = contains(a.space, x)
        if c is None:
            raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "idempotent outside the algebra")
        coords.append(c)
        ci, e = integer_vector(c)
        cols = [_combine(ci, plane) for plane in a.c]
        if _combine(ci, cols) != [e * a.den * x for x in ci]:
            raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "element is not idempotent")
        ops.append((ci, cols, e * a.den))
    if any(any(_combine(cj, cols)) for (_, cols, _), (cj, _, _) in itertools.combinations(ops, 2)):
        raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "idempotents are not orthogonal")
    if [sum(col) for col in zip(*coords)] != list(a.unit.coords):
        raise PreconditionError("NOT_ORTHOGONAL_IDEMPOTENTS", "idempotents do not sum to the unit")

    def shifted(k: int, i: int) -> List[List[int]]:
        """The rows of k M_i - e_i den I."""
        _, cols, s = ops[i]
        return [[k * col[r] - (s if q == r else 0) for q, col in enumerate(cols)] for r in range(m)]

    kernels: Dict[Tuple[int, int], List[List[int]]] = {}
    for i in range(len(ops)):
        kernels[(i, i)] = rref(shifted(1, i)).integer_kernel()
        for j in range(i + 1, len(ops)):
            kernels[(i, j)] = rref(shifted(2, i) + shifted(2, j)).integer_kernel()
    used = sum(map(len, kernels.values()))
    if used != m:
        raise InternalCheckError("INTERNAL", f"Peirce pieces span {used} of {m} dimensions")
    return {key: [a.space.element(v) for v in kernel] for key, kernel in kernels.items()}


#: invertible sweep points the sampled reciprocal check tries
_RECIPROCAL_TRIALS = 8


def check_reciprocal_identity(space: MatSpace) -> Tuple[bool, Optional[Mat]]:
    """Sampled test of: inverses of elements land in U^{-1} L U^{-1}.

    Walks the deterministic integer sweep, keeps the first eight invertible
    elements X (``spaces.invertible_points``), and checks U' Q U' back in the
    space on its echelon, X^{-1} = L Q / s for X = X' / L and X'^{-1} = Q /
    s, and U = U' / c (an exact reformulation avoiding the conjugated
    basis, and containment ignores the scalars).
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
    u = unit_point(space).rows  # symmetric: its rows are its columns
    points = itertools.chain(nonzero_sweep(space.m, space.n + 2), integer_sweep(space.m))
    for tup, (q, _) in itertools.islice(invertible_points(space, points), _RECIPROCAL_TRIALS):
        uqu = int_matmul(int_matmul(u, q), u)
        if any(space.echelon.eliminate([uqu[i][j] for i, j in sym_pairs(space.n)])[0]):
            return False, space.element(tup)
    return True, None
