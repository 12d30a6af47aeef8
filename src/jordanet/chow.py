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
linear forms that vanish on all inverses.

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
from .linalg import Mat, adjugate, det_laplace, integer_inverse, mat_rank, rref
from .spaces import (
    MatSpace,
    generic_element,
    generic_names,
    integer_sweep,
    is_regular,
    sym_dim,
    sym_pairs,
    unvectorize,
)


#: the largest Chow matrix, in rows x columns, that ``chow_matrix`` builds
#: (the benchmark's largest is 15 x 35).  Dense spaces cost about 40 us of CPU
#: per cell (Python 3.11, Xeon): all of S^5 (15 x 3060) 1.8 s; all of S^6
#: (21 x 53130) 15 s even on the sparse basis of unit matrices.
MAX_CHOW_CELLS = 100_000


def chow_matrix(space: MatSpace) -> Mat:
    """Chow matrix of a numeric space; square exactly when m = 3.  Rows
    follow ``sym_pairs(n)``, columns ``monomials(m, n - 1)`` in t1..tm.

    Built once per space and memoised on it; callers must not mutate it.
    It is sized before the adjugate is built, sym_dim(n) rows by
    C(m + n - 2, n - 1) columns, and refused with TOO_LARGE past
    ``MAX_CHOW_CELLS``.
    """
    if space._chow is None:
        rows, cols = sym_dim(space.n), math.comb(space.m + space.n - 2, space.n - 1)
        if rows * cols > MAX_CHOW_CELLS:
            raise PreconditionError("TOO_LARGE", f"the Chow matrix would be {rows} x {cols}, "
                                    f"past {MAX_CHOW_CELLS} cells")
        space._chow = _build_chow_matrix(space)
    return space._chow


def _build_chow_matrix(space: MatSpace) -> Mat:
    names = generic_names(space.m)
    adj = adjugate(generic_element(space.basis, names))
    cols = [dict(zip(names, mono)) for mono in monomials(space.m, space.n - 1)]
    return Mat([[adj[i, j].coefficient(mono) for mono in cols] for i, j in sym_pairs(space.n)])


def chow_rank(space: MatSpace) -> int:
    if not is_regular(space):
        raise PreconditionError("NOT_REGULAR", "Chow rank needs a regular space")
    return mat_rank(chow_matrix(space))


def chow_kernel_forms(space: MatSpace) -> List[MPoly]:
    """Left-kernel vectors rendered as linear forms in z_ij.

    Normalized deterministically: reduced echelon basis of the kernel,
    scaled to integer coefficients of content one with the first nonzero
    coefficient positive.
    """
    if not is_regular(space):
        raise PreconditionError("NOT_REGULAR", "kernel forms need a regular space")
    kernel = rref(chow_matrix(space).transpose().data).kernel_basis()
    if not kernel:
        return []
    reduced = rref(kernel).rows
    forms = []
    for vec in reduced:
        form = MPoly.zero()
        for (i, j), c in zip(sym_pairs(space.n), vec):
            if c == 0:
                continue
            form = form + MPoly.var(f"z{i + 1}{j + 1}").scale(c)
        forms.append(form.sign_normalized())
    return forms


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

def generic_symmetric(n: int, prefix: str) -> Mat:
    """Symmetric matrix of fresh variables prefix_ij (1-based, i <= j)."""
    return unvectorize(n, [MPoly.var(f"{prefix}{i + 1}{j + 1}") for i, j in sym_pairs(n)])


#: variable prefixes of the three symbolic basis matrices of the generic net
_NET_PREFIXES = ("x", "y", "z")


def chow_matrix_generic(n: int = 3) -> Mat:
    """Chow matrix of the generic net spanned by symbolic symmetric matrices
    with entries x_ij, y_ij, z_ij, in the rows and columns of ``chow_matrix``
    (monomials in the weights w1..w3).  Its basis entries are polynomials, so
    the weighted sum is its own, not ``generic_element``."""
    m = len(_NET_PREFIXES)
    mats = [generic_symmetric(n, p) for p in _NET_PREFIXES]
    weight_names = tuple(f"w{k + 1}" for k in range(m))
    acc = None
    for name, mat in zip(weight_names, mats):
        w = MPoly.var(name)
        scaled = mat.map(lambda e, _w=w: e * _w)
        acc = scaled if acc is None else acc + scaled
    adj = adjugate(acc)
    cols = list(monomials(m, n - 1))
    rows = []
    for i, j in sym_pairs(n):
        buckets = adj[i, j].split_by_vars(weight_names)
        rows.append([buckets.get(mono, MPoly.zero()) for mono in cols])
    return Mat(rows)


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
    assignment = {}
    for prefix, mat in zip(_NET_PREFIXES, space.basis):
        for i in range(3):
            for j in range(i, 3):
                assignment[f"{prefix}{i + 1}{j + 1}"] = mat[i, j]
    return poly_eval(chow_det_generic(3), assignment)
