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
by Faddeev-LeVerrier (``chow_matrix``); the rank and the kernel forms read
one echelon of its transpose.

The fully symbolic n = 3 determinant (degree 12 in the 18 entry variables,
22659 terms) is a Laplace expansion of the 6 x 6 symbolic Chow matrix on
``linalg``'s integer kernel, about 0.2 s of CPU; it is computed at most once
per process.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .errors import PreconditionError
from .exact import MPoly, monomials, poly_eval
from .linalg import Echelon, Mat, adjugate, det_laplace, faddeev_leverrier, integer_inverse, rref
from .spaces import (MatSpace, generic_matrix, integer_sweep, is_regular, sym_dim, sym_pairs,
                     unvectorize)


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
    (-1)^(n-1) M_n / L^(n-1) (``faddeev_leverrier``): the cells are M_n at
    the packed monomial keys over that scale.
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
        keys = [packing.key(mono) for mono in monomials(m, n - 1)]
        space._chow = Mat([[Fraction(adj[i][j].get(key, 0), den) for key in keys]
                           for i, j in sym_pairs(n)])
    return space._chow


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


def chow_matrix_generic(n: int = 3) -> Mat:
    """Chow matrix of the generic net spanned by symbolic symmetric matrices
    with entries x_ij, y_ij, z_ij, in the rows and columns of ``chow_matrix``
    (monomials in the weights w1..w3): the adjugate of the weighted sum,
    whose entry (i, j) is w1 x_ij + w2 y_ij + w3 z_ij."""
    m = len(_NET_PREFIXES)
    weight_names = tuple(f"w{k + 1}" for k in range(m))
    acc = unvectorize(n, [sum((MPoly.var(w) * MPoly.var(f"{p}{i + 1}{j + 1}")
                               for w, p in zip(weight_names, _NET_PREFIXES)), MPoly.zero())
                          for i, j in sym_pairs(n)])
    adj = adjugate(acc)
    buckets = [adj[i, j].split_by_vars(weight_names) for i, j in sym_pairs(n)]
    return Mat([[b.get(mono, MPoly.zero()) for mono in monomials(m, n - 1)] for b in buckets])


_DET_MEMO = {}


def chow_det_generic(n: int = 3) -> MPoly:
    """Determinant of the fully symbolic Chow matrix (only n = 3 supported).

    Degree 12 in the 18 variables x11..z33; the result is memoised in memory.
    """
    if n != 3:
        raise PreconditionError("UNSUPPORTED_DIM", "symbolic Chow determinant is n = 3 only")
    if n not in _DET_MEMO:
        _DET_MEMO[n] = det_laplace(chow_matrix_generic(n))
    return _DET_MEMO[n]


def chow_det_eval_at_net(space: MatSpace) -> Fraction:
    """Evaluate the generic n = 3 Chow determinant at a net's basis entries."""
    if space.n != 3 or space.m != 3:
        raise PreconditionError("UNSUPPORTED_DIM", "evaluation needs a net of 3 x 3 matrices")
    assignment = {f"{prefix}{i + 1}{j + 1}": mat[i, j]
                  for prefix, mat in zip(_NET_PREFIXES, space.basis) for i, j in sym_pairs(3)}
    return poly_eval(chow_det_generic(3), assignment)
