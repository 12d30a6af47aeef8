"""Classification of low-dimensional Jordan subalgebras.

Pencils (m = 2) split into ⌊n/2⌋ diagonalizable families V_i (two generic
eigenvalue groups of sizes i and n - i) plus a nilpotent family.  Nets
(m = 3) in S^4 fall into eight congruence classes, separated here by five
congruence-invariant quantities: radical dimension, associativity, the
dimension of the radical's square, the generic multiplicity partition, and
the number of rank-one points in a two-dimensional radical.  The decision
table is pinned data; the test suite and the verification suite rebuild it
from the catalog's canonical nets and compare.  Inputs whose invariant
vector falls outside the table raise UNRECOGNIZED rather than guessing.

Multiplicity partitions are always taken relative to the unit U (roots of
det(lam * U - generic element)); plain eigenvalues would not be congruence
invariants.  The partition is exact in m - 2 polynomial variables:
shifting lam by U's coordinate removes one variable and dehomogenizing
removes another, and neither changes the squarefree structure
(``generic_multiplicity_partition`` gives the argument).  One integer
squarefree decomposition (``exact``) of coefficients packed by ``Packing``
serves Z[lam] for a pencil, Z[t][lam] for a net and Z[t1, t2][lam] for
m = 4, up to ``MAX_PARTITION_SIZE``.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple, Union

from .errors import PreconditionError
from .exact import squarefree_decomposition
from .jordan import (
    JordanStructure,
    is_associative,
    is_jordan,
    rad_square_dim,
    radical,
    structure_constants,
)
from .linalg import Packing, faddeev_leverrier, int_matmul, linear_matrix
from .spaces import MatSpace, is_regular, unit_point
from .varieties import rank_one_pencil

NET_LABELS = ("1a", "1b", "2a1", "2a2", "2b", "3a", "3b1", "3b2")


#: the largest n C(n + m - 1, m - 1) (n times the terms of det(lam U - X) in
#: lam and m - 2 variables; S^4 nets: 60) whose partition is computed.  As
#: (n, m) size CPU-seconds on dense spaces (entries in {-3..3}, Python 3.11,
#: Xeon), nearly all in the squarefree decomposition: admitted (4, 5) 280 0.16,
#: (6, 4) 504 1.4, (4, 6) 504 2.2, (5, 5) 630 4.8, (10, 3) 660 1.5; refused (7,
#: 4) 840 10, (4, 7) 840 16, (11, 3) 858 5.2, (30, 2) 930 2.9, (5, 6) 1260 > 60.
MAX_PARTITION_SIZE = 700


def generic_multiplicity_partition(space: MatSpace) -> Tuple[int, ...]:
    """Multiplicities of the generic eigenvalues relative to the unit U, the
    space's first invertible element (``unit_point``): a squarefree
    factor of det(lam * U - X) of lam-degree d and multiplicity k gives d
    parts equal to k.

    Computed exactly in m - 2 variables.  Drop the first basis element on
    which U has a nonzero coordinate and call the others C_1..C_{m-1}, so
    that U, C_1..C_{m-1} is a basis; with U^-1 = q / s (``Unit.inverse``)
    and the integer basis C_k = C'_k / L (``MatSpace.integer_basis``), the
    partition is read off the squarefree decomposition of the characteristic
    polynomial of t1 q C'_1 + ... + t_{m-2} q C'_{m-2} + q C'_{m-1} over
    QQ(t1..t_{m-2}).  This is the same decomposition because:

    1. X = tau_0 U + sum tau_k C_k is an invertible change of variables, and
       lam -> lam - tau_0 is an automorphism of QQ(tau)[lam], so
       det(lam U - X) has the squarefree structure of
       g = det(mu U - sum tau_k C_k);
    2. gcds, hence squarefree decompositions, do not change under the
       extension QQ(tau_1..tau_{m-1}) of QQ(tau);
    3. g is homogeneous of degree n with the constant mu-leading coefficient
       det U, so each squarefree factor is homogeneous with a constant
       mu-leading coefficient, and setting tau_{m-1} = 1 keeps their
       mu-degrees, their squarefreeness and their coprimality;
    4. q C'_k = s L U^-1 C_k only scales the roots by s L > 0.

    A pencil is thus univariate over QQ and a net bivariate.  The integer
    coefficients come from ``linalg.faddeev_leverrier`` on that matrix,
    packed from (B', L) (``linalg.Packing``), and go to
    ``exact.squarefree_decomposition`` as exponent tuples in t1..t_{m-2}.
    For m = 1 the partition is (n,); otherwise the space is sized first and
    refused with TOO_LARGE past ``MAX_PARTITION_SIZE``.
    """
    unit = unit_point(space)
    if space.m == 1:
        return (space.n,)
    size = space.n * math.comb(space.n + space.m - 1, space.m - 1)
    if size > MAX_PARTITION_SIZE:
        raise PreconditionError("TOO_LARGE", f"the multiplicity partition in S^{space.n} with "
                                f"m = {space.m} has size {size}, past {MAX_PARTITION_SIZE}")
    drop = next(k for k, c in enumerate(unit.coords) if c != 0)
    basis, _ = space.integer_basis()  # each B'_k is symmetric: its rows are its columns
    q, _ = unit.inverse
    mats = [int_matmul(q, b) for k, b in enumerate(basis) if k != drop]
    packing = Packing(len(mats) - 1, space.n)
    cs, _ = faddeev_leverrier(linear_matrix(list(zip(packing.units + [0], mats))))
    coeffs = [{packing.exps(key): c for key, c in cp.items()} for cp in reversed([{0: 1}] + cs)]
    # a factor lists its lam-coefficients, one more than its lam-degree
    parts = [mult for factor, mult in squarefree_decomposition(coeffs) for _ in factor[1:]]
    return tuple(sorted(parts, reverse=True))


class InvariantVector(NamedTuple):
    dim_rad: int
    associative: bool
    rad_square: int
    partition: Tuple[int, ...]
    rad_rank_one: Optional[Union[int, str]]  # only defined when dim_rad == 2


def invariant_vector(space: MatSpace) -> InvariantVector:
    """The five classifying invariants; raises NOT_JORDAN when the space is
    not closed under the product."""
    a = structure_constants(space)
    coords = radical(a)
    assoc = is_associative(a)
    rad_sq = rad_square_dim(a)
    partition = generic_multiplicity_partition(space)
    rank_one = None
    if len(coords) == 2:  # independent kernel vectors have independent images
        rank_one = rank_one_pencil(MatSpace(space.n, [space.element(c) for c in coords]))
    return InvariantVector(len(coords), assoc, rad_sq, partition, rank_one)


# -- abstract classification (dimension 2 and 3) ---------------------------

def classify_abstract(a: JordanStructure) -> str:
    """Isomorphism type of a 2- or 3-dimensional Jordan algebra."""
    m = a.dim
    if m not in (2, 3):
        raise PreconditionError("UNSUPPORTED_DIM", "abstract classification covers dimensions 2 and 3")
    dim_rad = len(radical(a))
    if m == 2:
        if dim_rad == 0:
            return "1"
        if dim_rad == 1:
            return "2"
        raise PreconditionError("UNRECOGNIZED", f"radical dimension {dim_rad} in dimension 2")
    assoc = is_associative(a)
    if dim_rad == 0:
        return "1a" if assoc else "1b"
    if dim_rad == 1:
        return "2a" if assoc else "2b"
    if dim_rad == 2:
        return "3a" if rad_square_dim(a) == 1 else "3b"
    raise PreconditionError("UNRECOGNIZED", f"radical dimension {dim_rad} in dimension 3")


# -- pencils -----------------------------------------------------------------

class PencilClass(NamedTuple):
    kind: str  # NOT_JORDAN | diagonalizable | nilpotent
    index: Optional[int] = None  # V_index for the diagonalizable families

    @property
    def label(self) -> str:
        if self.kind == "diagonalizable":
            return f"V{self.index}"
        return self.kind


def classify_pencil(space: MatSpace) -> PencilClass:
    """Jordan test plus family label for a pencil (m = 2)."""
    if space.m != 2:
        raise PreconditionError("UNSUPPORTED_DIM", "pencil classification needs m = 2")
    if not is_jordan(space)[0]:
        return PencilClass("NOT_JORDAN")
    a = structure_constants(space)
    dim_rad = len(radical(a))
    if dim_rad == 1:
        return PencilClass("nilpotent")
    partition = generic_multiplicity_partition(space)
    if len(partition) != 2:
        raise PreconditionError("UNRECOGNIZED",
                                f"Jordan pencil with partition {partition}")
    return PencilClass("diagonalizable", index=min(partition))


# -- nets in S^4 --------------------------------------------------------------

_DECISION_TABLE: Dict[InvariantVector, str] = {
    InvariantVector(0, True, 0, (2, 1, 1), None): "1a",
    InvariantVector(0, False, 0, (2, 2), None): "1b",
    InvariantVector(1, True, 0, (2, 2), None): "2a1",
    InvariantVector(1, True, 0, (3, 1), None): "2a2",
    InvariantVector(1, False, 0, (2, 2), None): "2b",
    InvariantVector(2, True, 1, (4,), 1): "3a",
    InvariantVector(2, True, 0, (4,), 2): "3b1",
    InvariantVector(2, True, 0, (4,), 1): "3b2",
}


def decision_table() -> Dict[InvariantVector, str]:
    """Invariant vector -> label, one entry per canonical net ``s4/<label>``."""
    return _DECISION_TABLE


def classify_net_S4(space: MatSpace) -> str:
    """Label of a Jordan net in S^4 (one of the eight classes)."""
    if space.n != 4 or space.m != 3:
        raise PreconditionError("UNSUPPORTED_DIM", "net classification needs n = 4, m = 3")
    vec = invariant_vector(space)
    label = decision_table().get(vec)
    if label is None:
        raise PreconditionError("UNRECOGNIZED", f"invariant vector outside the table: {vec}")
    return label


# -- copencils in S^3 ---------------------------------------------------------

def classify_copencil_S3(space: MatSpace) -> str:
    """NOT_JORDAN, or the semisimple (L1) vs radical (L2) copencil class.

    The separation by radical dimension is this artifact's own invariant; it
    is validated against both canonical copencils in the test suite.
    """
    if space.n != 3 or space.m != 4:
        raise PreconditionError("UNSUPPORTED_DIM", "copencil classification needs n = 3, m = 4")
    if not is_regular(space) or not is_jordan(space)[0]:
        return "NOT_JORDAN"
    return "CLASS_L2" if radical(structure_constants(space)) else "CLASS_L1"


# -- component counting --------------------------------------------------------

def ejo_component_count(n: int) -> int:
    """Number of irreducible components of the formally-real net locus in S^n.

    Counts partitions of n into three positive parts, plus one for the
    two-identical-blocks family at even n: the coefficient of t^n in
    t^3/((1-t)(1-t^2)(1-t^3)) + t^2/(1-t^2), which the tests compare.
    """
    if n < 3:
        raise PreconditionError("UNSUPPORTED_DIM", "component count needs n >= 3")
    count = sum(
        1
        for k1 in range(1, n + 1)
        for k2 in range(1, k1 + 1)
        for k3 in range(1, k2 + 1)
        if k1 + k2 + k3 == n
    )
    count += 1 if n % 2 == 0 else 0
    return count
