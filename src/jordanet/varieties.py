"""Polynomial certificates: projective emptiness, rank-one loci, and the
stored certificate catalogs.

``macaulay_emptiness`` is a semi-decision procedure: it stacks the
coefficient vectors of all degree-D multiples of a homogeneous system and
certifies that the system has no projective solution whenever those multiples
span the entire degree-D coefficient space (then every ``x_i^D`` lies in the
ideal, so only the origin survives).  UNKNOWN is a legal answer.  It reads
integer polynomials over names (``exact.integer_poly`` of a file's lines, or
the rank-one minors times L^2) and packs their monomials by ``linalg.Packing``:
a degree-2 ``emptiness`` on 55 quadrics in t1..t6 went from 10.5 to 7.1 ms of
CPU (Xeon, Python 3.11.7).

The catalog polynomials are data, not derived objects: they are certificate
polynomials for specific loci (repeated-eigenvalue cubics, the Jordan-net
quadrics in the identity chart, and orbit-separating quadrics in dual
Pluecker coordinates), shipped as text files and pinned by checksum tests.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InputError, PreconditionError
from .exact import MPoly, monomials, parse_poly_lines, poly_eval
from .jordan import radical, structure_constants
from .linalg import Echelon, Mat, Packing, laplace_minors, mat_rank
from .spaces import (
    MatSpace,
    PluckerVector,
    generic_matrix,
    generic_names,
    integer_sweep,
    plucker,
    sweep_rank,
    sym_pairs,
)

DATA_DIR = Path(__file__).resolve().parent / "data" / "polynomials"


class Certificate(NamedTuple):
    kind: str  # CERTIFIED_EMPTY | UNKNOWN | SOLUTIONS_EXIST
    degree: Optional[int] = None
    span_rank: Optional[int] = None
    span_target: Optional[int] = None
    witness: Optional[Tuple[Fraction, ...]] = None


#: the largest Macaulay matrix, in rows x columns, that ``macaulay_emptiness``
#: builds.  The certificates this package runs are far smaller (150 x 28 for
#: the minimum-rank sweep, 126 x 56 and 36 x 364 in the benchmark).  CPU on
#: a Xeon, Python 3.11, with the primitive-row echelon -> the fraction-free
#: one: the quadrics {x*y - z^2, x^2 - w*y} at degree 15 (1120 x 816) 0.28-0.47
#: -> 0.26-0.33 s; ``jordan_net_quadrics`` at degree 4 (234 x 1365, rank 231)
#: 52-63 -> 48-75 ms; the rank-one system of a dense 8-dimensional subspace of
#: S^5 at degree 3 (440 x 120) 0.55-0.56 -> 0.32-0.50 s, and at degree 4
#: (1980 x 330), where minors grow past the primitive rows, 18.3-20.3 ->
#: 18.2-21.3 s.  Degree 20 of the quadrics (2660 x 1771) takes 1.8-2.4 ->
#: 1.5-1.9 s, and degree 30 (8990 x 5456) does not finish.
MAX_MACAULAY_CELLS = 1_000_000


def _monomial_count(k: int, degree: int) -> int:
    """How many monomials of this total degree k variables have."""
    return math.comb(k + degree - 1, degree) if k else int(degree == 0)


def macaulay_emptiness(system: Sequence[Dict[tuple, int]], degree: int,
                       vars: Optional[Sequence[str]] = None) -> Certificate:
    """Degree-``degree`` Macaulay span test for a homogeneous system of
    integer polynomials over names (``exact.integer_poly``).

    ``vars`` fixes the ambient projective space; by default it is the union
    of the variables of the system, but callers testing loci inside a larger
    space must pass the full variable set.

    Each polynomial is checked once, on its integers: nonzero, homogeneous,
    over the declared variables.  The matrix is then sized from binomials: a
    polynomial of degree d has C(k + D - d - 1, D - d) multiples of degree D
    in k variables, and there are C(k + D - 1, D) columns.  Past
    ``MAX_MACAULAY_CELLS`` (counting at least one row) the test is refused
    with TOO_LARGE.  Otherwise each polynomial's monomials are packed once,
    and its multiples are written as integer rows, one at a time, into one
    ``linalg.Echelon``, which stops drawing rows at full column rank.
    """
    if degree < 0:
        raise PreconditionError("NEGATIVE_DEGREE", "Macaulay degree must be nonnegative")
    if not system:
        raise PreconditionError("NOT_HOMOGENEOUS", "empty system")
    kept = []  # (polynomial, its degree) for each of degree <= D
    for p in system:
        degrees = {sum(map(itemgetter(1), mono)) for mono in p}  # exponents
        if len(degrees) != 1:  # none for the zero polynomial
            raise PreconditionError("NOT_HOMOGENEOUS", "system must be homogeneous and nonzero")
        kept += [(p, d) for d in degrees if d <= degree]
    used = {v for p in system for mono in p for v, _ in mono}
    vars = tuple(sorted(used if vars is None else vars))
    if not used.issubset(vars):
        raise PreconditionError("NOT_HOMOGENEOUS", "system variable outside the declared set")
    k = len(vars)
    rows = sum(_monomial_count(k, degree - d) for _, d in kept)
    target = _monomial_count(k, degree)
    if max(rows, 1) * target > MAX_MACAULAY_CELLS:
        raise PreconditionError("TOO_LARGE", f"the degree-{degree} Macaulay matrix would be "
                                f"{rows} x {target}, past {MAX_MACAULAY_CELLS} cells")
    packing = Packing(k, degree)  # a product of monomials is the sum of their keys
    unit = dict(zip(vars, packing.units))
    col_index = {packing.key(mono): j for j, mono in enumerate(monomials(k, degree))}

    def multiplier_rows():
        for p, d in kept:
            terms = [(sum(e * unit[v] for v, e in mono), c) for mono, c in p.items()]
            for mult in monomials(k, degree - d):
                shift = packing.key(mult)
                row = [0] * target
                for key, c in terms:
                    row[col_index[key + shift]] = c
                yield row

    ech = Echelon(target)
    ech.extend(multiplier_rows())
    kind = "CERTIFIED_EMPTY" if ech.rank == target else "UNKNOWN"
    return Certificate(kind, degree=degree, span_rank=ech.rank, span_target=target)


def rank_one_system(space: MatSpace) -> List[MPoly]:
    """All nonzero 2x2 minors of the generic element, rows (i, j) and
    columns (k, l) >= (i, j): the rank <= 1 locus equations.  Each is the
    Laplace minor of rows i, j of the packed X' (``spaces.generic_matrix``)
    over L^2."""
    g, packing, names = generic_matrix(space, 2)
    den = space.integer_basis()[1] ** 2
    pairs = list(itertools.combinations(range(space.n), 2))
    minors = []
    for r, (i, j) in enumerate(pairs):
        minor = laplace_minors([g[i], g[j]])
        minors += [packing.mpoly(p, den, names) for p in map(minor, pairs[r:]) if p]
    return minors


#: highest Macaulay degree tried for a rank-one locus
_MAX_CERTIFICATE_DEGREE = 6


def rank_one_locus_certificate(space: MatSpace) -> Certificate:
    """Sweep Macaulay degrees 2..6 (``_MAX_CERTIFICATE_DEGREE``) for the
    rank-one locus in P^(m-1), on the minors times their denominator L^2."""
    den = space.integer_basis()[1] ** 2
    system = [{tuple((v, e) for v, e in zip(p.vars, exps) if e): c.numerator * (den // c.denominator)
               for exps, c in p.terms.items()} for p in rank_one_system(space)]
    if not system:
        return Certificate("SOLUTIONS_EXIST")
    cert = Certificate("UNKNOWN")
    for d in range(2, _MAX_CERTIFICATE_DEGREE + 1):
        cert = macaulay_emptiness(system, d, vars=generic_names(space.m))
        if cert.kind == "CERTIFIED_EMPTY":
            return cert
    return cert


def rank_one_pencil(space: MatSpace) -> Union[int, str]:
    """Number of distinct projective rank-one points of a pencil, or "ALL".

    The rank-one points of t1 B1 + t2 B2 are the common zeros, projective
    and complex, of its 2 x 2 minors: binary quadratics a t1^2 + b t1 t2 +
    c t2^2.  The count is read off V, the span of their vectors (a, b, c).
    V = 0: "ALL".  dim V = 3: V holds t1^2, t1 t2 and t2^2, so 0.  dim V = 2:
    two independent quadratics share at most one zero, and one iff their
    resultant (af - cd)^2 - (ae - bd)(bf - ce) vanishes.  dim V = 1: 1 iff
    the discriminant b^2 - 4ac vanishes, else 2.  The minors are taken on
    the integer basis (``MatSpace.integer_basis``), which keeps the points.
    """
    if space.m != 2:
        raise PreconditionError("UNSUPPORTED_DIM", "pencil operation needs m = 2")
    (p, q), _ = space.integer_basis()
    pairs = itertools.combinations(range(space.n), 2)
    ech = Echelon(3)
    ech.extend([p[i][k] * p[j][l] - p[i][l] * p[j][k],
                p[i][k] * q[j][l] + q[i][k] * p[j][l] - p[i][l] * q[j][k] - q[i][l] * p[j][k],
                q[i][k] * q[j][l] - q[i][l] * q[j][k]]
               for (i, j), (k, l) in itertools.combinations_with_replacement(pairs, 2))
    if ech.rank == 0:
        return "ALL"
    if ech.rank == 1:
        a, b, c = ech.int_rows[0]
        return 1 if b * b == 4 * a * c else 2
    if ech.rank == 2:
        (a, b, c), (d, e, f) = ech.int_rows
        return 1 if (a * f - c * d) ** 2 == (a * e - b * d) * (b * f - c * e) else 0
    return 0


# -- stored certificate catalogs -------------------------------------------

#: catalog id -> (file name, input convention)
CATALOGS: Dict[str, Tuple[str, str]] = {
    "double_eigenvalue_cubics": ("double_eigenvalue_cubics.txt", "traceless_s3"),
    "jordan_net_quadrics": ("jordan_net_quadrics.txt", "net_with_identity_s3"),
    "plucker_spin_orbit_quadric": ("plucker_spin_orbit_quadric.txt", "plucker_s4"),
    "plucker_diagonal_orbit_quadric": ("plucker_diagonal_orbit_quadric.txt", "plucker_s4"),
    "plucker_separator_2a1_quadric": ("plucker_separator_2a1_quadric.txt", "plucker_s4"),
    "plucker_veronese_orbit_quadric": ("plucker_veronese_orbit_quadric.txt", "plucker_s4"),
}

_CATALOG_MEMO: Dict[str, List[MPoly]] = {}


def catalog_polynomials(catalog_id: str) -> List[MPoly]:
    if catalog_id not in CATALOGS:
        raise InputError("UNKNOWN_ID", f"no polynomial catalog {catalog_id!r}")
    if catalog_id not in _CATALOG_MEMO:
        fname, _ = CATALOGS[catalog_id]
        _CATALOG_MEMO[catalog_id] = parse_poly_lines((DATA_DIR / fname).read_text())
    return _CATALOG_MEMO[catalog_id]


def catalog_eval(catalog_id: str, value) -> List[Fraction]:
    """Evaluate every polynomial of a catalog at a matrix, net, or Pluecker
    vector, according to the catalog's input convention."""
    if catalog_id not in CATALOGS:
        raise InputError("UNKNOWN_ID", f"no polynomial catalog {catalog_id!r}")
    _, convention = CATALOGS[catalog_id]
    polys = catalog_polynomials(catalog_id)
    if convention == "traceless_s3":
        assignment = _traceless_s3_assignment(value)
    elif convention == "net_with_identity_s3":
        assignment = _net_with_identity_assignment(value)
    else:
        assignment = _plucker_assignment(value, {v for p in polys for v in p.vars})
    return [poly_eval(p, assignment) for p in polys]


def _traceless_s3_assignment(value) -> Dict[str, Fraction]:
    if not isinstance(value, Mat) or value.rows != 3 or not value.is_symmetric():
        raise PreconditionError("CONVENTION_MISMATCH", "need a symmetric 3 x 3 matrix")
    if value.trace() != 0:
        raise PreconditionError("CONVENTION_MISMATCH", "matrix must be traceless")
    return {f"x{i + 1}{j + 1}": value[i, j] for i in range(3) for j in range(i, 3)}


def _net_with_identity_assignment(value) -> Dict[str, Fraction]:
    if not isinstance(value, MatSpace) or value.n != 3 or value.m != 3:
        raise PreconditionError("CONVENTION_MISMATCH", "need a net of 3 x 3 matrices")
    if value.basis[0] != Mat.identity(3):
        raise PreconditionError("CONVENTION_MISMATCH",
                                "basis must be (identity, X, Y) for this catalog")
    return {f"{prefix}{i + 1}{j + 1}": mat[i, j]
            for prefix, mat in zip(("x", "y"), value.basis[1:]) for i, j in sym_pairs(3)}


#: the 120 Pluecker coordinate names of a net in S^4: p012 for columns (0, 1, 2)
_PLUCKER_KEYS = {f"p{i}{j}{k}": (i, j, k) for i, j, k in itertools.combinations(range(10), 3)}


def _plucker_assignment(value, names) -> Dict[str, Fraction]:
    """The coordinates among ``names`` of a net in S^4, the ones a catalog reads
    (0.28 ms for the four quadrics of ``plucker``, 0.66 ms reading all 120)."""
    if isinstance(value, MatSpace):
        if value.n != 4 or value.m != 3:
            raise PreconditionError("CONVENTION_MISMATCH", "need a net of 4 x 4 matrices")
        value = plucker(value)
    if not isinstance(value, PluckerVector) or value.m != 3 or value.n != 4:
        raise PreconditionError("CONVENTION_MISMATCH", "need Pluecker data for a net in S^4")
    # a key missing from a sparse vector reads as 0, like PluckerVector[key]
    return {name: value[_PLUCKER_KEYS[name]] for name in names if name in _PLUCKER_KEYS}


# -- minimum-rank bounds ----------------------------------------------------

class MinRankBounds(NamedTuple):
    upper: int
    lower: int
    certificate: Optional[Certificate]
    witness: Optional[Mat]

    @property
    def tau(self) -> Optional[int]:
        return self.upper if self.upper == self.lower else None


#: integer sweep points tried as candidates for the rank upper bound
_SWEEP_CANDIDATES = 60


def min_rank_bounds(space: MatSpace) -> MinRankBounds:
    """Bracket the minimum rank of a nonzero element.

    Upper bound: best rank among basis elements, radical elements (when the
    space is a Jordan algebra) and the first ``_SWEEP_CANDIDATES`` integer
    sweep points, which are ranked on integers (``sweep_rank``); the first
    candidate of the best rank is the witness, and a sweep point's Fraction
    element is formed only when it wins.  Lower bound: 2 when the rank-one
    locus is certified empty, else 1.  For a line (m = 1) the minimum rank is
    exact since every nonzero element is a multiple of the generator.
    """
    if space.m == 1:
        r = mat_rank(space.basis[0])
        return MinRankBounds(r, r, None, space.basis[0])

    candidates: List[Mat] = list(space.basis)
    try:
        candidates.extend(space.element(c) for c in radical(structure_constants(space)))
    except PreconditionError:
        pass
    ranked = [(mat_rank(c), c) for c in candidates]
    rank = sweep_rank(space)
    ranked.extend((rank(tup), tup) for tup in itertools.islice(integer_sweep(space.m),
                                                                _SWEEP_CANDIDATES))
    best, witness = min(ranked, key=lambda pair: pair[0])  # the first of least rank
    if isinstance(witness, tuple):
        witness = space.element(witness)

    cert = rank_one_locus_certificate(space)
    lower = 2 if cert.kind == "CERTIFIED_EMPTY" else 1
    return MinRankBounds(best, min(lower, best), cert, witness)
