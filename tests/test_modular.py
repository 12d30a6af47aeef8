import struct

from jordanet import modular
from jordanet.linalg import Echelon
from jordanet.prng import SplitMix64

P = modular.P


def exact_rank(rows, cols):
    ech = Echelon(cols)
    for row in rows:
        ech.adjoin(row)
    return ech.rank


def random_rows(rng, count, cols, low=-9, high=9):
    return [[rng.int_between(low, high) for _ in range(cols)] for _ in range(count)]


def combinations_of(rng, basis, count):
    """``count`` integer combinations of the rows of ``basis``: their rank is at
    most len(basis)."""
    return [[sum(c * x for c, x in zip(coeffs, column)) for column in zip(*basis)]
            for coeffs in random_rows(rng, count, len(basis), -5, 5)]


def seeded_cases(seed):
    """(rows, cols): full and deficient ranks, fewer, as many and more rows
    than columns, negative entries, entries near 10^300, and rows that are
    0 mod P (P times combinations of the others, so that both ranks stay
    equal)."""
    rng = SplitMix64(seed)
    cases = []
    for k in range(30):
        cols = rng.int_between(1, 12)
        rows = random_rows(rng, rng.int_between(1, cols + 3), cols)
        if k % 3 == 1:
            rows = combinations_of(rng, rows[: max(1, len(rows) // 2)], len(rows) + 2)
        if k % 5 == 2:
            rows = [[x * 10 ** 300 + rng.int_between(-3, 3) for x in row] for row in rows]
        if k % 7 == 3:
            rows += [[P * x for x in row] for row in combinations_of(rng, rows, 2)]
            rows = [rows[j] for j in sorted(range(len(rows)), key=lambda _: rng.next_u64())]
        cases.append((rows, cols))
    return cases


class TestRank:
    def test_matches_the_exact_echelon(self):
        full = deficient = 0
        for rows, cols in seeded_cases(4901):
            r = exact_rank(rows, cols)
            assert modular.rank(rows, cols) == r, (rows, cols)
            assert modular.spans(rows, cols) == (r == cols)
            full += r == cols
            deficient += r < cols
        assert full >= 5 and deficient >= 5

    def test_huge_and_negative_entries(self):
        rng = SplitMix64(4902)
        basis = [[rng.int_between(-10 ** 3000, 10 ** 3000) for _ in range(7)] for _ in range(4)]
        rows = combinations_of(rng, basis, 9) + [[-x for x in basis[0]]]
        assert exact_rank(rows, 7) == modular.rank(rows, 7) == 4
        assert not modular.spans(rows, 7)
        square = [[rng.int_between(-10 ** 3000, -1) for _ in range(6)] for _ in range(6)]
        assert exact_rank(square, 6) == modular.rank(square, 6) == 6
        assert modular.spans(square, 6)

    def test_rows_that_vanish_mod_p_are_not_counted(self):
        # an identity times P has full rank over Q and rank 0 mod P: the test
        # falls short and proves nothing
        rows = [[P * (i == j) for j in range(5)] for i in range(5)]
        assert exact_rank(rows, 5) == 5
        assert modular.rank(rows, 5) == 0 and not modular.spans(rows, 5)
        rows[2] = [1, 2, 3, 4, 5]
        assert modular.rank(rows, 5) == 1

    def test_drawing_stops_at_full_rank(self):
        drawn = []

        def rows():
            for row in ([1, 0], [1, 1], [2, 3]):
                drawn.append(row)
                yield row

        assert modular.spans(rows(), 2) and len(drawn) == 2

    def test_one_accumulator_past_1023_reductions(self):
        # rows e_i + (P - 1) e_1025 for i < 1025, then their sum: reducing it
        # takes 1025 reductions, each adding (P - 1)^2 to field 1025, and
        # 1025 (P - 1)^2 >= 2^64, so the fields must come back below P on the
        # way; field 1026 stays 0
        cols = 1027
        rows = [[int(j == i) + (P - 1) * (j == 1025) for j in range(cols)] for i in range(1025)]
        rows.append([1] * 1025 + [1025 * (P - 1), 0])
        assert 1025 * (P - 1) ** 2 >= 2 ** 64
        assert modular.rank(rows, cols) == exact_rank(rows, cols) == 1025

    def test_the_packing_does_not_depend_on_the_host_byte_order(self, monkeypatch):
        # on a big-endian host a native struct format packs each field high
        # byte first; the explicit little-endian format packs it the same way
        # everywhere
        monkeypatch.setattr(modular, "struct", BigEndianHost)
        for rows, cols in seeded_cases(4903):
            assert modular.rank(rows, cols) == exact_rank(rows, cols), (rows, cols)


class BigEndianHost:
    """The ``struct`` module as a big-endian host runs it: a format with no
    byte order, or the native one, packs big-endian."""

    @staticmethod
    def Struct(fmt):
        return struct.Struct(fmt if fmt[0] in "<>!" else ">" + fmt.lstrip("@="))
