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
The abstract and pencil labels need no such refusal: the unit is never in
the radical, and a semisimple Jordan pencil's partition has two parts.

Multiplicity partitions are always taken relative to the unit U (roots of
det(lam * U - generic element)); plain eigenvalues would not be congruence
invariants.  The partition is read off integer points of the space: at a
point the generic squarefree factors only merge, so the partition with the
most parts over a grid whose side exceeds the degree of the discriminant
is the generic one, and a point with as many parts as a bound s_hat ends
the search at once (``generic_multiplicity_partition`` gives the
argument).  For a Jordan space s_hat comes from the radical and
associativity: one part for the 3a and 3b nets, so they read no point,
and a single point serves every other canonical net.  Each point is one
integer characteristic polynomial (``linalg.int_faddeev_leverrier``) and
one squarefree decomposition in lam (``univariate``), up to
``MAX_PARTITION_SIZE``.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import PreconditionError
from .jordan import (
    JordanStructure,
    is_associative,
    is_jordan,
    rad_square_dim,
    radical,
    structure_constants,
)
from .linalg import int_faddeev_leverrier, int_matmul, integer_vector
from .spaces import MatSpace, is_regular, rank_one_pencil, unit_point
from .univariate import squarefree_decomposition

NET_LABELS = ("1a", "1b", "2a1", "2a2", "2b", "3a", "3b1", "3b2")


#: the largest n C(n + m - 1, m - 1) (n times the terms of det(lam U - X) in
#: lam and m - 2 variables; S^4 nets: 60) whose partition is computed.  A
#: dense space (entries in {-3..3}) reads one point; a space that is not
#: Jordan and whose eigenvalues repeat generically reads the whole grid.  As
#: (n, m) size points CPU-seconds on such spaces (Python 3.11, Xeon):
#: admitted (4, 5) 280 2197 0.13, (6, 4) 504 961 0.16, (4, 6) 504 28561 2.4,
#: (5, 5) 630 9261 1.1, (10, 3) 660 91 0.09; refused (7, 4) 840 1849 0.53,
#: (11, 3) 858 111 0.21, (30, 2) 930 1 1.8 (dense), (5, 6) 1260 194481 22.
MAX_PARTITION_SIZE = 700


def generic_multiplicity_partition(space: MatSpace) -> Tuple[int, ...]:
    """Multiplicities of the generic eigenvalues relative to the unit U, the
    space's first invertible element (``unit_point``): a squarefree
    factor of det(lam * U - X) of lam-degree d and multiplicity k gives d
    parts equal to k.

    Read off integer points (README, "Built-in catalog", gives the
    argument).  Drop the first basis element on which U has a nonzero
    coordinate (``Unit.drop``) and call the others C_1..C_{m-1}; with
    U^-1 = q / s (``Unit.inverse``) and the integer basis C_k = C'_k / L,
    the generic structure is that of the characteristic polynomial of
    t1 q C'_1 + ... + t_{m-2} q C'_{m-2} + q C'_{m-1} over QQ(t).  At an
    integer point t (``linalg.int_faddeev_leverrier``, then
    ``univariate.squarefree_decomposition``) parts can only merge, so a
    point with as many parts as the generic partition shows it; the points
    that merge parts are the zeros of a nonzero discriminant of degree at
    most s(s - 1) for s parts, which cannot vanish on all of a grid of side
    s(s - 1) + 1 (Alon's Combinatorial Nullstellensatz).  With a bound s_hat
    on s, the grid {2 .. s_hat (s_hat - 1) + 2}^(m-2) is read in order until
    a point shows s_hat parts, else its partition with the most parts is the
    generic one.  For a Jordan space s_hat = min(n, m - max(dim rad, [not
    associative])) off its cached structure, else n.  s_hat = 1 and m = 1
    give (n,) and a pencil reads one point.  The space is sized first and
    refused with TOO_LARGE past ``MAX_PARTITION_SIZE``.
    """
    unit = unit_point(space)
    n, m = space.n, space.m
    if m == 1:
        return (n,)
    size = n * math.comb(n + m - 1, m - 1)
    if size > MAX_PARTITION_SIZE:
        raise PreconditionError("TOO_LARGE", f"the multiplicity partition in S^{n} with "
                                f"m = {m} has size {size}, past {MAX_PARTITION_SIZE}")
    bound = n
    if is_jordan(space)[0]:
        a = structure_constants(space)
        bound = min(n, m - (len(radical(a)) or int(not is_associative(a))))
    if bound == 1:
        return (n,)
    basis, _ = space.integer_basis()  # each B'_k is symmetric: its rows are its columns
    q, _ = unit.inverse
    *mats, last = [int_matmul(q, b) for k, b in enumerate(basis) if k != unit.drop]
    best = []
    for point in itertools.product(range(2, bound * (bound - 1) + 3), repeat=m - 2):
        x = last
        for t, mat in zip(point, mats):
            x = [[u + t * v for u, v in zip(row, mat_row)] for row, mat_row in zip(x, mat)]
        cs, _ = int_faddeev_leverrier(x)
        # a factor lists its lam-coefficients, one more than its lam-degree
        parts = [mult for factor, mult in squarefree_decomposition(cs[::-1] + [1])
                 for _ in factor[1:]]
        if len(parts) > len(best):
            best = parts
        if len(best) == bound:
            break
    return tuple(sorted(best, reverse=True))


class InvariantVector(NamedTuple):
    dim_rad: int
    associative: bool
    rad_square: int
    partition: Tuple[int, ...]
    rad_rank_one: Optional[int]  # only defined when dim_rad == 2


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
        rank_one = rank_one_pencil(MatSpace(space.n, ints=(
            [space.integer_element(integer_vector(c)[0]) for c in coords], 1)))
    return InvariantVector(len(coords), assoc, rad_sq, partition, rank_one)


# -- abstract classification (dimension 2 and 3) ---------------------------

def classify_abstract(a: JordanStructure) -> str:
    """Isomorphism type of a 2- or 3-dimensional Jordan algebra.  Its radical
    is below m: tr L_U = m != 0 keeps the unit U out (the tests check it)."""
    m = a.dim
    if m not in (2, 3):
        raise PreconditionError("UNSUPPORTED_DIM", "abstract classification covers dimensions 2 and 3")
    dim_rad = len(radical(a))
    if m == 2:
        return "1" if dim_rad == 0 else "2"
    assoc = is_associative(a)
    if dim_rad == 0:
        return "1a" if assoc else "1b"
    if dim_rad == 1:
        return "2a" if assoc else "2b"
    return "3a" if rad_square_dim(a) == 1 else "3b"


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
    """Jordan test plus family label for a pencil (m = 2): nilpotent with a
    radical, else V_i for the smaller of its two parts, as U^-1 X has a
    squarefree quadratic minimal polynomial (the tests check it)."""
    if space.m != 2:
        raise PreconditionError("UNSUPPORTED_DIM", "pencil classification needs m = 2")
    if not is_jordan(space)[0]:
        return PencilClass("NOT_JORDAN")
    if radical(structure_constants(space)):
        return PencilClass("nilpotent")
    return PencilClass("diagonalizable", index=min(generic_multiplicity_partition(space)))


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
