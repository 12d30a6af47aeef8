"""Chow matrices of nets and the generic Chow-form determinant.

For a net (or any m-dimensional space) L with basis B_1..B_m, write the
adjugate of the generic element t_1 B_1 + ... + t_m B_m.  Each entry is a
homogeneous polynomial of degree n-1 in the t's; collecting coefficients
gives the Chow matrix, with one row per upper-triangle position (i, j) in
``sym_pairs`` order (11, 12, ..., 1n, 22, ..., nn) and one column per
degree-(n-1) monomial in ``exact.monomials`` order (descending
lexicographic: t1^(n-1) first, tm^(n-1) last).  For m = 3 the matrix is
square of size binom(n+1, 2); its rank equals the dimension of the linear
span of the reciprocal variety, and its left kernel consists of the linear
forms that vanish on all inverses.  ``chow_matrix`` returns it as (C',
L^(n-1)): C' the integer adjugate of t_1 B'_1 + ... + t_m B'_m, each entry
already a coefficient vector over those monomials (Faddeev-LeVerrier on
upper triangles, ``exact.symmetric_linear_adjugate``), and no Fraction is
formed.  The rank and the kernel forms read one integer echelon of the
transpose of C' with its columns reversed (the scale L^(n-1) changes
neither): each kernel vector is the echelon's own primitive integer one
(``linalg.Echelon.integer_kernel``), read back to front as a row of the
kernel's reduced echelon form and written straight into an ``MPoly``.

The fully symbolic n = 3 determinant (degree 12 in the 18 entry variables,
22659 terms) is read off the generic net w1 X + w2 Y + w3 Z, X, Y and Z
symmetric with entries x11..z33: the net is linear in the 18 products of a
weight and an entry, so its adjugate is one more
``exact.symmetric_linear_adjugate`` run, whose coefficients, grouped by
their weight monomial, are the Chow cells as packed polynomials in the
entries.  Their 6 x 6 determinant is a Laplace expansion on ``exact``'s
integer kernel, computed at most once per process.  It stays packed in its
``MPoly`` (``exact.Packing.mpoly``): its degree and term count are read
off the packed polynomial, an evaluation at a net
(``chow_det_eval_at_net``) sums its packed keys, and its terms are formed
only when first read, by a comparison.  CPU in a fresh process (Python
3.11.7, Xeon, 2 CPUs; median and range of 9 processes): the determinant
38 ms (33-58), its degree and term count 11 ms (10-17) more, an
evaluation at a net 18 ms (16-26) more, its terms 83 ms (54-92) more
when read.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import List, Tuple

from .errors import PreconditionError
from .exact import MPoly, Packing, laplace_minors, monomials, poly_eval, symmetric_linear_adjugate
from .linalg import Echelon, rref
from .spaces import (MatSpace, integer_sweep, invertible_points, is_regular, sym_dim, sym_pairs,
                     symmetric_rows)


#: the largest Chow matrix, in rows x columns, that ``chow_matrix`` builds
#: (the benchmark's largest is 15 x 35).  CPU of the integer matrix (Python
#: 3.11.7, Xeon, 2 CPUs; three runs): 3.4-4.9 us a cell on dense spaces, 12
#: dense matrices in S^6 (21 x 4368) 0.32-0.45 s; 1.0-1.4 us on unit
#: matrices, all of S^5 (15 x 3060) 0.05-0.06 s and of S^6 (21 x 53130)
#: 1.2-1.5 s, and its rank 0.2-0.3 s more.
MAX_CHOW_CELLS = 100_000


def chow_matrix(space: MatSpace) -> Tuple[List[List[int]], int]:
    """Chow matrix of a numeric space as (C', L^(n-1)), the matrix C' /
    L^(n-1) with C' an integer matrix; square exactly when m = 3.  Rows
    follow ``sym_pairs(n)``, columns ``monomials(m, n - 1)`` in t1..tm.

    Built once per space and kept in the space's instance dict, as
    ``spaces`` keeps no field for it (its caching rule is stated there);
    callers must not mutate it.  It is sized before it is built, sym_dim(n)
    rows by C(m + n - 2, n - 1) columns, and refused with TOO_LARGE past
    ``MAX_CHOW_CELLS``.  The generic element is X' / L, X' = t_1 B'_1 + ...
    + t_m B'_m, and adj(X' / L) = adj(X') / L^(n-1): row (i, j) of C' is
    entry (i, j) of adj(X'), a coefficient vector in column order
    (``symmetric_linear_adjugate``).
    """
    memo = vars(space)
    if "chow_matrix" not in memo:
        n, m = space.n, space.m
        rows, cols = sym_dim(n), math.comb(m + n - 2, n - 1)
        if rows * cols > MAX_CHOW_CELLS:
            raise PreconditionError("TOO_LARGE", f"the Chow matrix would be {rows} x {cols}, "
                                    f"past {MAX_CHOW_CELLS} cells")
        basis, lcm = space.integer_basis()
        adj = symmetric_linear_adjugate(basis)
        memo["chow_matrix"] = [adj[i][j] for i, j in sym_pairs(n)], lcm ** (n - 1)
    return memo["chow_matrix"]


def _chow_echelon(space: MatSpace, needs: str) -> Echelon:
    """``rref`` of the transpose of the integer Chow matrix C' with its
    columns reversed, kept in the space's instance dict beside the matrix: its rank is
    the Chow rank, its kernel the Chow matrix's left kernel, read back to
    front (C' / L^(n-1) has the rank and kernel of C').  A singular space is
    refused, with what ``needs`` it."""
    if not is_regular(space):
        raise PreconditionError("NOT_REGULAR", f"{needs} a regular space")
    memo = vars(space)
    if "chow_echelon" not in memo:
        rows, _ = chow_matrix(space)
        memo["chow_echelon"] = rref([col[::-1] for col in zip(*rows)])
    return memo["chow_echelon"]


def chow_rank(space: MatSpace) -> int:
    return _chow_echelon(space, "Chow rank needs").rank


def chow_kernel_forms(space: MatSpace) -> List[MPoly]:
    """Left-kernel vectors rendered as linear forms in z_ij.

    Normalized deterministically: the reduced echelon basis of the kernel,
    each row primitive, an ``MPoly`` over the names it uses, sorted, with
    the coefficient of the first of them positive.  For n >= 10 that name
    order is not ``sym_pairs`` order (z110 < z12).

    That basis needs no second elimination and no Fraction.  The echelon's
    kernel vector at a free column f (``Echelon.integer_kernel``) is the one
    with 1 at f cleared of denominators and primitive, nonzero only at f and
    at pivots before f.  Read back to front, it leads at f and is 0 at every
    other vector's leading column, so the vectors, reversed and from the
    last free column to the first, are the reduced echelon form of the
    kernel, each row primitive.
    """
    names = [f"z{i + 1}{j + 1}" for i, j in sym_pairs(space.n)]
    forms = []
    for vec in reversed(_chow_echelon(space, "kernel forms need").integer_kernel()):
        used = sorted((name, c) for name, c in zip(names, reversed(vec)) if c)
        sign = -1 if used[0][1] < 0 else 1
        forms.append(MPoly(tuple(name for name, _ in used),
                           {tuple(int(k == q) for q in range(len(used))): Fraction(sign * c)
                            for k, (_, c) in enumerate(used)}))
    return forms


def sampled_reciprocal_span(space: MatSpace, trials: int) -> int:
    """Rank of stacked vectorized inverses at the first ``trials`` invertible
    points of the integer sweep; a negative count is refused with
    NEGATIVE_TRIALS.

    Independent oracle for ``chow_rank``: the adjugates of elements of the
    space sweep out the column space of the Chow matrix, and at an invertible
    X the adjugate det(X) X^-1 is a nonzero multiple of the inverse, so the
    inverses span the same space, and so do the integer numerators Q of the
    inverses of X' = L X (X'^-1 = Q / s, ``spaces.invertible_points``).
    The samples give only a lower bound: 45 of them, 3 dim S^5, span 14 of
    the 15 dimensions on most random nets in S^5, where ``chow_rank``, read
    off the Chow matrix itself, is exact.
    """
    if trials < 0:
        raise PreconditionError("NEGATIVE_TRIALS", f"trials must be nonnegative, got {trials}")
    if not is_regular(space):
        raise PreconditionError("NOT_REGULAR", "need a regular space")
    pairs = sym_pairs(space.n)
    return rref([[q[i][j] for i, j in pairs] for _, (q, _) in
                 itertools.islice(invertible_points(space, integer_sweep(space.m)), trials)]).rank


# -- fully symbolic n = 3 construction -------------------------------------

#: variable prefixes of the three symbolic basis matrices of the generic net
_NET_PREFIXES = ("x", "y", "z")


@functools.cache
def chow_det_generic(n: int = 3) -> MPoly:
    """Determinant of the fully symbolic Chow matrix (only n = 3 supported).

    The generic net sum_k w_k X_k, X_k[i][j] the variable x_v of
    ``_NET_PREFIXES`` k and (i, j), is linear in the 18 products u_v = w_k
    x_v: it is sum_v u_v U_v, U_v the symmetric unit matrix at (i, j).  Its
    adjugate is ``symmetric_linear_adjugate`` of the U_v, each entry a
    coefficient vector over the monomials of degree n - 1 in the u's.  A
    u-monomial is one weight monomial (its exponents summed over each k's
    variables) times the entry monomial with its exponents, so each
    coefficient goes to the Chow cell in that weight monomial's column, at
    that entry monomial's key: the cells are packed polynomials in the 18
    entry variables, up to the exponent bound sym_dim(n) (n - 1) of a
    determinant of sym_dim(n) cells of degree n - 1.  Their
    ``laplace_minors`` determinant is kept packed in the returned ``MPoly``,
    whose terms are formed when first read.  Degree 12 in the 18 variables.
    Kept for the process by ``functools.cache``, which keys on the
    arguments as written: every caller writes ``chow_det_generic(3)``.
    """
    if n != 3:
        raise PreconditionError("UNSUPPORTED_DIM", "symbolic Chow determinant is n = 3 only")
    m, size = len(_NET_PREFIXES), sym_dim(n)
    names = [f"{p}{i + 1}{j + 1}" for p in _NET_PREFIXES for i, j in sym_pairs(n)]
    packing = Packing(len(names), size * (n - 1))
    columns = {mono: c for c, mono in enumerate(monomials(m, n - 1))}
    places = [(columns[tuple(sum(mono[k * size:(k + 1) * size]) for k in range(m))],
              packing.key(mono)) for mono in monomials(len(names), n - 1)]
    adj = symmetric_linear_adjugate([symmetric_rows(n, [int(q == v % size) for q in range(size)])
                                     for v in range(len(names))])
    rows = []
    for i, j in sym_pairs(n):
        rows.append([{} for _ in columns])
        for c, (col, key) in zip(adj[i][j], places):
            if c:
                rows[-1][col][key] = c
    return packing.mpoly(laplace_minors(rows)(tuple(range(size))), 1, names)


def chow_det_eval_at_net(space: MatSpace) -> Fraction:
    """Evaluate the generic n = 3 Chow determinant at a net's basis entries,
    on its packed keys (``exact.poly_eval``): no term is decoded."""
    if space.n != 3 or space.m != 3:
        raise PreconditionError("UNSUPPORTED_DIM", "evaluation needs a net of 3 x 3 matrices")
    assignment = {f"{prefix}{i + 1}{j + 1}": mat[i, j]
                  for prefix, mat in zip(_NET_PREFIXES, space.basis) for i, j in sym_pairs(3)}
    return poly_eval(chow_det_generic(3), assignment)
