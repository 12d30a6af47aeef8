"""Polynomial certificates: projective emptiness, rank-one loci, and the
stored certificate catalogs.

``macaulay_emptiness`` is a semi-decision procedure: it ranks the
coefficient vectors of all degree-D multiples of a homogeneous system and
certifies that the system has no projective solution whenever those multiples
span the entire degree-D coefficient space (then every ``x_i^D`` lies in the
ideal, so only the origin survives).  UNKNOWN is a legal answer.  It reads
integer polynomials over names (a file's lines cleared of denominators by
``exact.integer_poly``, or the rank-one minors of ``spaces.rank_one_minors``)
and packs their monomials by ``exact.Packing``.  It reduces each degree
before it multiplies (Lazard 1983; Faugere's F4, 1999): the forms of degree
d are reduced once on a ``linalg.Echelon`` over the monomials of degree d,
and only its primitive reduced rows are multiplied up to degree D, as
sparse rows ranked by ``_sparse_rank``.  A part with at least as many forms
as monomials is first ranked mod p (``modular.spans``): a full rank there
proves that it spans S_d, and the echelon runs only when it falls short.
Multiplying by a monomial is linear, so the span is that of the multiples
of every form (timings at ``MAX_MACAULAY_CELLS``).

The catalog polynomials are data, not derived objects: they are certificate
polynomials for specific loci (repeated-eigenvalue cubics, the Jordan-net
quadrics in the identity chart, and orbit-separating quadrics in dual
Pluecker coordinates), shipped as text files and pinned by checksum tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, PreconditionError
from .exact import MPoly, Packing, monomials, parse_poly_lines, poly_eval
from .jordan import radical, structure_constants
from .linalg import Echelon, Mat, rref
# rank_one_pencil is an alias: the benchmark's tracer looks it up in this module
from .spaces import (
    MatSpace,
    PluckerVector,
    generic_names,
    integer_sweep,
    plucker,
    rank_one_minors,
    rank_one_pencil,  # noqa: F401
    sym_pairs,
)

DATA_DIR = Path(__file__).resolve().parent / "data" / "polynomials"


class Certificate(NamedTuple):
    kind: str  # CERTIFIED_EMPTY | UNKNOWN | SOLUTIONS_EXIST
    degree: Optional[int] = None
    span_rank: Optional[int] = None
    span_target: Optional[int] = None


#: the largest Macaulay matrix, in rows x columns, that ``macaulay_emptiness``
#: stands for: the bound counts the dense matrix of every form's multiples,
#: though only the multiples of the reduced rows are built.  The certificates
#: this package runs are far smaller (150 x 28 for the minimum-rank sweep,
#: 126 x 56 and 36 x 364 in the benchmark).  CPU on a Xeon, Python 3.11, with
#: every form's multiples on the fraction-free echelon -> the reduced rows'
#: sparse multiples: the quadrics {x*y - z^2, x^2 - w*y} at degree 15
#: (1120 x 816) 0.17-0.22 s -> 4-7 ms and at degree 20 (2660 x 1771) 0.9-1.3 s
#: -> 11-20 ms; the rank-one system of a dense 8-dimensional subspace of S^5 at
#: degree 4 (1980 x 330) 73 s -> 8 ms.  Rank-deficient parts cost the most:
#: the rank-one system of a dense 7-dimensional subspace of S^4 at degree 4
#: (588 x 210, rank 202) 4.0-6.1 s -> 2.2-3.1 s.  Degree 30 of the quadrics
#: (8990 x 5456), refused, now takes 0.09 s.  A part that spans S_d is
#: decided mod p, with no exact echelon: in a fresh process the degree-2
#: certificate of the 406 rank-one quadrics of a dense 20-dimensional
#: subspace of S^8 (406 x 210) takes 0.29 s, against 5.3 s on the echelon,
#: and of a dense 14-dimensional subspace of S^7 (231 x 105) 0.14 s against
#: 0.50 s.  The bound counts cells, not the cost of either elimination.
MAX_MACAULAY_CELLS = 1_000_000


def _monomial_count(k: int, degree: int) -> int:
    """How many monomials of this total degree k variables have."""
    return math.comb(k + degree - 1, degree) if k else int(degree == 0)


def macaulay_emptiness(system: Sequence[Dict[tuple, int]], degree: int,
                       vars: Optional[Sequence[str]] = None) -> Certificate:
    """Degree-``degree`` Macaulay span test for a homogeneous system of
    integer polynomials over names (the p' of ``exact.integer_poly``).

    ``vars`` fixes the ambient projective space; by default it is the union
    of the variables of the system, but callers testing loci inside a larger
    space must pass the full variable set.

    Each polynomial is checked once, on its integers: nonzero, homogeneous,
    over the declared variables; the degree of each distinct monomial of the
    system is computed once, and later its packed key.  The matrix is then
    sized from binomials: a polynomial of degree d has C(k + D - d - 1, D - d)
    multiples of degree D in k variables, and there are C(k + D - 1, D)
    columns.  Past ``MAX_MACAULAY_CELLS`` (counting at least one row) the
    test is refused with TOO_LARGE.  Otherwise the forms of each degree
    d <= D are packed as dense rows over the C(k + d - 1, d) monomials of
    degree d.  A part with at least as many forms as monomials is first
    ranked mod p (``modular.spans``, imported when this function runs):
    the rank over Z/p never exceeds the rank over Q, so a full rank proves
    that the part spans S_d.  Otherwise, or when that rank falls short,
    the forms are reduced on one ``linalg.Echelon``, until they span S_d,
    and each of its primitive reduced rows (``int_rows``) times each
    monomial of degree D - d is one sparse row, its packed monomial keys
    shifted by the multiplier's.  A reduced row holds its pivot and free
    columns alone, and a part that spans all of S_d gives single monomials,
    by either route, with no reduced rows formed.
    ``_sparse_rank`` ranks the rows, degree by degree, and stops drawing
    them at full column rank.
    """
    if degree < 0:
        raise PreconditionError("NEGATIVE_DEGREE", "Macaulay degree must be nonnegative")
    if not system:
        raise PreconditionError("NOT_HOMOGENEOUS", "empty system")
    degree_of = {mono: sum(map(itemgetter(1), mono)) for mono in set().union(*system)}
    kept = []  # (polynomial, its degree) for each of degree <= D
    for p in system:
        degrees = set(map(degree_of.__getitem__, p))
        if len(degrees) != 1:  # none for the zero polynomial
            raise PreconditionError("NOT_HOMOGENEOUS", "system must be homogeneous and nonzero")
        kept += [(p, d) for d in degrees if d <= degree]
    used = {v for mono in degree_of for v, _ in mono}
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
    packed = {mono: sum(e * unit[v] for v, e in mono) for mono in degree_of}
    parts: Dict[int, list] = {}  # degree d -> its forms
    for p, d in kept:
        parts.setdefault(d, []).append(p)

    from . import modular

    def multiples():
        for d, forms in sorted(parts.items()):
            keys = [packing.key(mono) for mono in monomials(k, d)]
            col = {key: j for j, key in enumerate(keys)}

            def rows():  # drawn only until the part spans S_d
                for p in forms:
                    row = [0] * len(keys)
                    for mono, c in p.items():
                        row[col[packed[mono]]] = c
                    yield row

            spans = len(forms) >= len(keys) and modular.spans(rows(), len(keys))
            if not spans:
                ech = Echelon(len(keys))
                ech.extend(rows())
                spans = ech.rank == len(keys)
            shifts = [packing.key(mult) for mult in monomials(k, degree - d)]
            # the reduced rows of a part that spans S_d are its monomials
            reduced = ([[(key, 1)] for key in keys] if spans else
                       [[(key, c) for key, c in zip(keys, row) if c] for row in ech.int_rows])
            for terms in reduced:
                for shift in shifts:
                    yield {key + shift: c for key, c in terms}

    rank = _sparse_rank(multiples(), target)
    kind = "CERTIFIED_EMPTY" if rank == target else "UNKNOWN"
    return Certificate(kind, degree=degree, span_rank=rank, span_target=target)


def _sparse_rank(rows: Iterable[Dict[int, int]], cols: int) -> int:
    """Rank of primitive integer rows {packed monomial key: nonzero int},
    drawn until it reaches ``cols``.  A row's pivot is its first column in
    ``monomials`` order, its largest key.  While the row's pivot is that of
    a kept row, the row is reduced by it, fraction-free, and made primitive
    again; the pivot only falls.  Otherwise the row is kept.  Only the rank
    is read, so no kept row is reduced further."""
    pivots: Dict[int, Dict[int, int]] = {}  # pivot -> the kept row with that pivot
    for v in rows:
        while v:
            c = max(v)
            row = pivots.get(c)
            if row is None:
                pivots[c] = v
                break
            g = math.gcd(row[c], v[c])
            a, b = row[c] // g, v[c] // g
            v = {j: a * x for j, x in v.items()}
            for j, y in row.items():
                x = v.get(j, 0) - b * y
                if x:
                    v[j] = x
                else:
                    del v[j]
            g = math.gcd(*v.values())
            if g > 1:
                v = {j: x // g for j, x in v.items()}
        if len(pivots) == cols:
            break
    return len(pivots)


def _minor_monomials(m: int) -> List[tuple]:
    """The monomials of ``spaces.rank_one_minors``'s coefficients as
    ``exact.integer_poly`` writes them: (name, exponent) pairs in name order."""
    names = generic_names(m)
    return [tuple(sorted((names[i], e) for i, e in enumerate(exps) if e))
            for exps in monomials(m, 2)]


def rank_one_system(space: MatSpace) -> List[MPoly]:
    """All nonzero 2x2 minors of the generic element, rows (i, j) and
    columns (k, l) >= (i, j): the rank <= 1 locus equations, as ``MPoly``s
    over the sorted names t1..tm, the integer minors of X'
    (``spaces.rank_one_minors``) over L^2."""
    vars = tuple(sorted(generic_names(space.m)))
    keys = [tuple(dict(mono).get(v, 0) for v in vars) for mono in _minor_monomials(space.m)]
    den = space.integer_basis()[1] ** 2
    return [MPoly(vars, {key: Fraction(c, den) for key, c in zip(keys, row) if c})
            for row in rank_one_minors(space)]


#: highest Macaulay degree tried for a rank-one locus
_MAX_CERTIFICATE_DEGREE = 6


def rank_one_locus_certificate(space: MatSpace) -> Certificate:
    """Sweep Macaulay degrees 2..6 (``_MAX_CERTIFICATE_DEGREE``) for the
    rank-one locus in P^(m-1), on the integer minors of X'
    (``spaces.rank_one_minors``), L^2 times those of ``rank_one_system``."""
    monos = _minor_monomials(space.m)
    system = [{mono: c for mono, c in zip(monos, row) if c} for row in rank_one_minors(space)]
    if not system:
        return Certificate("SOLUTIONS_EXIST")
    cert = Certificate("UNKNOWN")
    for d in range(2, _MAX_CERTIFICATE_DEGREE + 1):
        cert = macaulay_emptiness(system, d, vars=generic_names(space.m))
        if cert.kind == "CERTIFIED_EMPTY":
            return cert
    return cert


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

@functools.cache
def catalog_polynomials(catalog_id: str) -> List[MPoly]:
    """The polynomials of a stored catalog, read once per process."""
    if catalog_id not in CATALOGS:
        raise InputError("UNKNOWN_ID", f"no polynomial catalog {catalog_id!r}")
    fname, _ = CATALOGS[catalog_id]
    return parse_poly_lines((DATA_DIR / fname).read_text())


def catalog_eval(catalog_id: str, value) -> List[Fraction]:
    """Evaluate every polynomial of a catalog at a matrix, net, or Pluecker
    vector, according to the catalog's input convention."""
    polys = catalog_polynomials(catalog_id)  # refuses an unknown id
    _, convention = CATALOGS[catalog_id]
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
    (0.2 ms for the four quadrics of ``plucker``, 0.7 ms reading all 120)."""
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
    sweep points, in that order, each ranked by ``rref`` of its integer
    element (``MatSpace.integer_element``): every candidate's coordinates are
    integers, the radical's its primitive integer kernel.  The first
    candidate of the best rank is the witness, the one Fraction element
    formed.  Lower bound: 2
    when the rank-one locus is certified empty, else 1.  For a line (m = 1)
    the minimum rank is exact since every nonzero element is a multiple of
    the generator.
    """
    if space.m == 1:
        r = rref(space.integer_element((1,))).rank
        return MinRankBounds(r, r, None, space.element((1,)))

    candidates = [tuple(int(j == k) for j in range(space.m)) for k in range(space.m)]
    try:
        candidates.extend(radical(structure_constants(space)))
    except PreconditionError:
        pass
    candidates.extend(itertools.islice(integer_sweep(space.m), _SWEEP_CANDIDATES))
    best, coords = min(((rref(space.integer_element(c)).rank, c) for c in candidates),
                       key=itemgetter(0))  # the first of least rank
    witness = space.element(coords)

    cert = rank_one_locus_certificate(space)
    lower = 2 if cert.kind == "CERTIFIED_EMPTY" else 1
    return MinRankBounds(best, min(lower, best), cert, witness)
