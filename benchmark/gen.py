"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: it imports nothing from
``jordanet``, so a change to the package's sampling helpers
(``sample_congruent``, ``rank_one_system``, ``jordanet.prng``) cannot change
the inputs a run measures.  The program only ever sees the files written by
``write_space`` and ``write_polys``.

Entries of random spaces are drawn from {-3, -2, -1, 1, 2, 3}, never 0: with
dense entries the cost of an op depends on its shape, not on how many zeros a
seed happened to draw, which keeps the latency order statistics steady
across seeds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import List, Sequence

MASK64 = (1 << 64) - 1
DENSE_VALUES = (-3, -2, -1, 1, 2, 3)

Matrix = List[List[int]]


class Rng:
    """SplitMix64, restated here so the inputs do not depend on the package."""

    def __init__(self, seed: int, *tags: str):
        self.state = seed & MASK64
        for tag in tags:
            for byte in tag.encode():
                self.state = (self.state * 0x100000001B3 ^ byte) & MASK64
            self.next_u64()

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4B7C17) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        return self.next_u64() % k

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]

    def shuffled(self, seq: Sequence) -> list:
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals (plain Gaussian elimination)."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def upper_triangle(mat: Matrix) -> List[int]:
    n = len(mat)
    return [mat[i][j] for i in range(n) for j in range(i, n)]


def dense_symmetric(rng: Rng, n: int) -> Matrix:
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = rng.choice(DENSE_VALUES)
    return mat


def random_space(rng: Rng, n: int, m: int) -> List[Matrix]:
    """m independent dense symmetric n x n integer matrices."""
    while True:
        basis = [dense_symmetric(rng, n) for _ in range(m)]
        if rank([upper_triangle(b) for b in basis]) == m:
            return basis


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def unimodular(rng: Rng, n: int) -> Matrix:
    """Random integer P with det P = +-1: signed permutation times L times U,
    with unit-triangular L and U whose off-diagonal entries lie in [-1, 1].
    Keeping |det P| = 1 keeps the images integral and their entries small,
    so the cost of classifying an image does not grow with the seed's luck."""
    lower = [[1 if i == j else (rng.below(3) - 1 if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.below(3) - 1 if j > i else 0) for j in range(n)]
             for i in range(n)]
    perm = rng.shuffled(range(n))
    signed = [[(1 if rng.below(2) else -1) if perm[i] == j else 0 for j in range(n)]
              for i in range(n)]
    return matmul(signed, matmul(lower, upper))


def congruence_image(basis: Sequence[Matrix], p: Matrix) -> List[Matrix]:
    pt = transpose(p)
    return [matmul(matmul(pt, b), p) for b in basis]


def _monomial(a: int, b: int) -> str:
    return f"t{a + 1}^2" if a == b else f"t{a + 1}*t{b + 1}"


def rank_one_minors(basis: Sequence[Matrix]) -> List[str]:
    """Nonzero 2 x 2 minors of the generic element t1*B1 + ... + tk*Bk, as
    quadrics in t1..tk: rows (i, j) and columns (a, b) with (a, b) >= (i, j).
    Their common zeros are the rank-one points of the space."""
    n = len(basis[0])
    k = len(basis)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(n):
                for b in range(a + 1, n):
                    if (a, b) < (i, j):
                        continue
                    coeffs = {}
                    for p in range(k):
                        for q in range(k):
                            c = basis[p][i][a] * basis[q][j][b] - basis[p][i][b] * basis[q][j][a]
                            key = (min(p, q), max(p, q))
                            coeffs[key] = coeffs.get(key, 0) + c
                    terms = [(c, _monomial(*key)) for key, c in sorted(coeffs.items()) if c]
                    if terms:
                        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{mono}"
                                        for c, mono in terms)
                        out.append(text[2:] if text.startswith("+") else "-" + text[2:])
    return out


def write_space(path: Path, basis: Sequence[Matrix]) -> None:
    path.write_text(json.dumps({"n": len(basis[0]), "basis": basis}) + "\n")


def write_polys(path: Path, polys: Sequence[str]) -> None:
    path.write_text("".join(p + "\n" for p in polys))
