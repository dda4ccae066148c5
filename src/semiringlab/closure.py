"""The closure kernel: the least superset of a mask closed under a binary
table. Law scans use it to pick generating sets (:mod:`semiringlab.tables`);
ideals, subsemimodules and multiplicative closures use it through
:mod:`semiringlab.ideals`.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def close(table, absorb: Sequence[int], mask: int, closed: int = 0) -> int:
    """Least superset of ``mask | closed`` closed under the binary table and
    holding ``absorb[x]`` for each member x, where ``closed`` is already
    closed. Each pair of members is looked up once: a round pairs the
    members new in it with every member, in both orders, so pairs inside
    ``closed`` are never looked up."""
    fresh, mask = mask & ~closed, closed
    while fresh:
        mask |= fresh
        grown = 0
        for x in iter_bits(fresh):
            grown |= absorb[x]
            row = table[x]
            for y in iter_bits(mask):
                grown |= 1 << row[y] | 1 << table[y][x]
        fresh = grown & ~mask
    return mask
