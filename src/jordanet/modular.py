"""Span tests over Z/p, for eliminations whose answer is full rank.

The rank of an integer matrix over Z/p never exceeds its rank over Q, so
rows whose rank mod p reaches their column count span Q^cols; a rank that
falls short proves nothing, and the caller runs its exact echelon.  P is
the largest prime below 2^27.  A row mod P is packed into one int, a 64-bit
field per column in the explicit little-endian format "<%dQ" (field j is
bits 64j .. 64j + 63 on every host), and reducing it by a kept row, stored
with the inverse of its pivot entry, is one multiply-add of ints.  Each
adds less than P^2 < 2^54 to a field, so every ``_BATCH`` reductions the
fields are brought back below P: P + 1023 P^2 < 2^64, and no field carries
into the next.
"""

import struct

P = 134217689
_BATCH = 1023
_FIELD = (1 << 64) - 1


def rank(rows, cols: int) -> int:
    """The rank mod P of integer rows of length ``cols``, drawn until it
    reaches ``cols``.  Kept rows are reduced mod P, pivot first, in the
    order they joined, and each new row is reduced by them in that order."""
    layout, size = struct.Struct("<%dQ" % cols), 8 * cols

    def pack(fields):
        return int.from_bytes(layout.pack(*fields), "little")

    def fields_mod_p(acc):
        return [x % P for x in layout.unpack(acc.to_bytes(size, "little"))]

    kept = []  # (bit offset of the pivot field, inverse of the pivot mod P, packed row)
    for row in rows:
        acc, count = pack([x % P for x in row]), 0
        for offset, inverse, packed in kept:
            f = acc >> offset & _FIELD
            if f % P:
                acc += (P - f * inverse % P) * packed
                count += 1
                if count == _BATCH:
                    acc, count = pack(fields_mod_p(acc)), 0
        fields = fields_mod_p(acc)
        c = next((j for j, x in enumerate(fields) if x), None)
        if c is not None:
            kept.append((64 * c, pow(fields[c], -1, P), pack(fields)))
            if len(kept) == cols:
                break
    return len(kept)


def spans(rows, cols: int) -> bool:
    """Whether integer rows span Q^cols by their rank mod P: True proves
    it, False leaves it open."""
    return rank(rows, cols) == cols
