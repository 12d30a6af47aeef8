"""Chow matrices of nets and the generic Chow-form determinant.

For a net (or any m-dimensional space) L with basis B_1..B_m, write the
adjugate of the generic element t_1 B_1 + ... + t_m B_m.  Each entry is a
homogeneous polynomial of degree n-1 in the t's; collecting coefficients
gives the Chow matrix, a plain ``Mat`` with one row per upper-triangle
position (i, j) in ``sym_pairs`` order (11, 12, ..., 1n, 22, ..., nn) and
one column per degree-(n-1) monomial in ``exact.monomials`` order
(descending lexicographic: t1^(n-1) first, tm^(n-1) last).  For m = 3 the
matrix is square of size binom(n+1, 2); its rank equals the dimension of the
linear span of the reciprocal variety, and its left kernel consists of the
linear forms that vanish on all inverses.  The matrix is read off the
adjugate of the packed integer generic element (``spaces.generic_matrix``)
by Faddeev-LeVerrier, cell by cell (``chow_matrix``, ``chow_cells``); the
rank and the kernel forms read one echelon of its transpose.

The fully symbolic n = 3 determinant (degree 12 in the 18 entry variables,
22659 terms) is read the same way off the generic net w1 X + w2 Y + w3 Z,
X, Y and Z symmetric with entries x11..z33, packed with the weights in the
top fields and the entries below them: its adjugate's cells are packed
polynomials in the entries (``chow_cells``), whose 6 x 6 determinant is a
Laplace expansion on ``linalg``'s integer kernel, 0.10-0.17 s of CPU,
converted to an ``MPoly`` once and computed at most once per process.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .errors import PreconditionError
from .exact import MPoly, monomials, poly_eval
from .linalg import (Echelon, IntPoly, Mat, Packing, faddeev_leverrier, integer_inverse,
                     laplace_minors, linear_matrix, rref)
from .spaces import (MatSpace, generic_matrix, integer_sweep, is_regular, sym_dim, sym_pairs,
                     symmetric_rows)


#: the largest Chow matrix, in rows x columns, that ``chow_matrix`` builds
#: (the benchmark's largest is 15 x 35).  CPU (Python 3.11, Xeon): 20 us a
#: cell on dense spaces, 12 dense matrices in S^6 (21 x 4368) 2.1 s; 2 us on
#: unit matrices, all of S^5 (15 x 3060) 0.08 s and of S^6 (21 x 53130) 2.2 s.
MAX_CHOW_CELLS = 100_000


def chow_matrix(space: MatSpace) -> Mat:
    """Chow matrix of a numeric space; square exactly when m = 3.  Rows
    follow ``sym_pairs(n)``, columns ``monomials(m, n - 1)`` in t1..tm.

    Built once per space and memoised on it; callers must not mutate it.
    It is sized before it is built, sym_dim(n) rows by C(m + n - 2, n - 1)
    columns, and refused with TOO_LARGE past ``MAX_CHOW_CELLS``.  The
    generic element is X' / L (``spaces.generic_matrix``), and adj(X' / L) =
    (-1)^(n-1) M_n / L^(n-1) (``faddeev_leverrier``): the cells are M_n's
    constants at the packed monomial keys (``chow_cells``) over that scale.
    """
    if space._chow is None:
        n, m = space.n, space.m
        rows, cols = sym_dim(n), math.comb(m + n - 2, n - 1)
        if rows * cols > MAX_CHOW_CELLS:
            raise PreconditionError("TOO_LARGE", f"the Chow matrix would be {rows} x {cols}, "
                                    f"past {MAX_CHOW_CELLS} cells")
        x, packing, _ = generic_matrix(space, n)
        _, adj = faddeev_leverrier(x)
        den = (1 if n % 2 else -1) * space.integer_basis()[1] ** (n - 1)
        space._chow = Mat([[Fraction(cell.get(0, 0), den) for cell in row]
                           for row in chow_cells(adj, packing, m)])
    return space._chow


def chow_cells(adj: List[List[IntPoly]], packing: Packing, m: int) -> List[List[IntPoly]]:
    """The cells of a Chow matrix off the adjugate, up to sign, of a packed
    generic element whose m weights t_1..t_m take the top m fields of
    ``packing``: in row (i, j) of ``sym_pairs`` and the column of
    a monomial of ``monomials(m, n - 1)``, the terms of adj[i][j] whose
    weight fields hold that monomial, as a packed polynomial in the fields
    below them (a constant, key 0, when there are none)."""
    shift = packing.fields[m - 1]
    low = (1 << shift) - 1
    columns = [packing.key(mono) >> shift for mono in monomials(m, len(adj) - 1)]
    rows = []
    for i, j in sym_pairs(len(adj)):
        cells: dict = {}
        for key, c in adj[i][j].items():
            cells.setdefault(key >> shift, {})[key & low] = c
        rows.append([cells.get(col, {}) for col in columns])
    return rows


def _chow_echelon(space: MatSpace, needs: str) -> Echelon:
    """``rref`` of the Chow matrix's transpose, memoised on the space beside
    the matrix: its rank is the Chow rank, its kernel the Chow matrix's left
    kernel.  A singular space is refused, with what ``needs`` it."""
    if not is_regular(space):
        raise PreconditionError("NOT_REGULAR", f"{needs} a regular space")
    if space._chow_echelon is None:
        space._chow_echelon = rref(chow_matrix(space).transpose().data)
    return space._chow_echelon


def chow_rank(space: MatSpace) -> int:
    return _chow_echelon(space, "Chow rank needs").rank


def chow_kernel_forms(space: MatSpace) -> List[MPoly]:
    """Left-kernel vectors rendered as linear forms in z_ij.

    Normalized deterministically: reduced echelon basis of the kernel,
    scaled to integer coefficients of content one with the first nonzero
    coefficient positive.
    """
    kernel = _chow_echelon(space, "kernel forms need").kernel_basis()
    zs = [MPoly.var(f"z{i + 1}{j + 1}") for i, j in sym_pairs(space.n)]
    return [sum((z.scale(c) for z, c in zip(zs, vec) if c), MPoly.zero()).sign_normalized()
            for vec in rref(kernel).rows]


def sampled_reciprocal_span(space: MatSpace, trials: int) -> int:
    """Rank of stacked vectorized inverses at the first ``trials`` invertible
    points of the integer sweep.

    Independent oracle for ``chow_rank``: the adjugates of elements of the
    space sweep out the column space of the Chow matrix, and at an invertible
    X the adjugate det(X) X^-1 is a nonzero multiple of the inverse, so the
    inverses span the same space, and so do the integer numerators Q of the
    inverses of X' = L X (X'^-1 = Q / s, ``linalg.integer_inverse``).
    """
    if not is_regular(space):
        raise PreconditionError("NOT_REGULAR", "need a regular space")
    rows = []
    for tup in integer_sweep(space.m):
        inv = integer_inverse(space.integer_element(tup))
        if inv is None:
            continue
        rows.append([inv[0][i][j] for i, j in sym_pairs(space.n)])
        if len(rows) >= trials:
            break
    return rref(rows).rank


# -- fully symbolic n = 3 construction -------------------------------------

#: variable prefixes of the three symbolic basis matrices of the generic net
_NET_PREFIXES = ("x", "y", "z")

_DET_MEMO = {}


def chow_det_generic(n: int = 3) -> MPoly:
    """Determinant of the fully symbolic Chow matrix (only n = 3 supported).

    The generic net sum_k w_k X_k, X_k[i][j] the variable of ``_NET_PREFIXES``
    k and (i, j), is packed with w1..w3 in the top fields of one ``Packing``
    and the 18 entry variables x11..z33 below them, up to the exponent
    bound sym_dim(n) (n - 1) of a determinant of sym_dim(n) cells of degree
    n - 1.  One Faddeev-LeVerrier run gives the adjugate M_n (n is odd),
    the Chow cells are packed polynomials in the entry fields
    (``chow_cells``), and their ``laplace_minors`` determinant is converted
    once: the entry fields are the fields of a ``Packing`` of the entries
    alone.  Degree 12 in the 18 variables; the result is memoised in memory.
    """
    if n != 3:
        raise PreconditionError("UNSUPPORTED_DIM", "symbolic Chow determinant is n = 3 only")
    if n not in _DET_MEMO:
        m, pairs = len(_NET_PREFIXES), sym_pairs(n)
        names = [f"{p}{i + 1}{j + 1}" for p in _NET_PREFIXES for i, j in pairs]
        bound = sym_dim(n) * (n - 1)
        packing, size = Packing(m + len(names), bound), len(pairs)
        units = packing.units  # weight k, then entry variable v = size k + pair index
        x = linear_matrix([(units[v // size] + units[m + v],
                            symmetric_rows(n, [int(q == v % size) for q in range(size)]))
                           for v in range(len(names))])
        _, adj = faddeev_leverrier(x)
        det = laplace_minors(chow_cells(adj, packing, m))(tuple(range(sym_dim(n))))
        _DET_MEMO[n] = Packing(len(names), bound).mpoly(det, 1, names)
    return _DET_MEMO[n]


def chow_det_eval_at_net(space: MatSpace) -> Fraction:
    """Evaluate the generic n = 3 Chow determinant at a net's basis entries."""
    if space.n != 3 or space.m != 3:
        raise PreconditionError("UNSUPPORTED_DIM", "evaluation needs a net of 3 x 3 matrices")
    assignment = {f"{prefix}{i + 1}{j + 1}": mat[i, j]
                  for prefix, mat in zip(_NET_PREFIXES, space.basis) for i, j in sym_pairs(3)}
    return poly_eval(chow_det_generic(3), assignment)
