"""The closure kernel, the closed-set enumerator and the ordered search.

:func:`close` gives the least superset of a mask closed under a binary
table. Law scans use it to pick generating sets (:mod:`semiringlab.tables`);
ideals and multiplicative closures use it through :mod:`semiringlab.ideals`.

:func:`close_by_one` enumerates a closure system from its joins with the
closures of single elements: :mod:`semiringlab.ideals` enumerates ideal
lattices with it.

:func:`ordered_search` lists the assignments that pass a per-position
check: the medial tables of :mod:`semiringlab.suites`, the magma
endomorphisms of :mod:`semiringlab.constructions` and the efficient
coverings of :mod:`semiringlab.covering` come from it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .errors import CapExceeded
from .limits import IDEAL_ENUM_CAP


def mask_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def close(table, absorb: Sequence[int], mask: int, closed: int = 0) -> int:
    """Least superset of ``mask | closed`` closed under the binary table and
    holding ``absorb[x]`` for each member x, where ``closed`` is already
    closed. Each pair of members is looked up once: a round pairs the
    members new in it with every member, in both orders, so pairs inside
    ``closed`` are never looked up. The member list grows by each round's
    new members, so no round re-walks the mask's bits."""
    fresh, mask = mask & ~closed, closed
    members = list(mask_members(closed))
    while fresh:
        mask |= fresh
        new = mask_members(fresh)
        members += new
        grown = 0
        for x in new:
            grown |= absorb[x]
            row = table[x]
            for y in members:
                grown |= 1 << row[y] | 1 << table[y][x]
        fresh = grown & ~mask
    return mask


def close_by_one(bottom: int, principal: Sequence[int], join: Callable[[int, int], int]) -> list[int]:
    """Every closed set of a closure system on n = len(principal) elements,
    in no fixed order (Kuznetsov's Close-by-One, 1993).

    ``bottom`` is the least closed set, ``principal[j]`` the closure of
    {j}, and ``join(a, j)`` the closure of a | 1 << j for a closed a. Each
    closed A descends to B = join(A, j) for every j above the index A was
    reached by and outside A, and B is kept only when it adds nothing below
    j (``B & low == A & low``); so each closed set is reached once and
    costs at most n joins. B holds principal[j], so a principal mask that
    already adds something below j rejects j without a join. More than
    ``IDEAL_ENUM_CAP`` closed sets raise :class:`CapExceeded`.
    """
    n = len(principal)
    found = []
    stack = [(bottom, 0)]
    while stack:
        a, start = stack.pop()
        if len(found) == IDEAL_ENUM_CAP:
            raise CapExceeded(f"more than {IDEAL_ENUM_CAP} closed sets on {n} elements")
        found.append(a)
        for j in range(start, n):
            bit = 1 << j
            if a & bit:
                continue
            low = bit - 1
            if principal[j] & low & ~a:
                continue
            b = join(a, j)
            if b & low == a & low:
                stack.append((b, j + 1))
    return found


def ordered_search(length: int, values: int, fits: Callable[[list[int], int], bool]) -> Iterator[tuple[int, ...]]:
    """Every a in range(values)^length, length >= 1, in lexicographic order,
    for which ``fits(a, k)`` holds at every position k, where ``fits``
    reads only a[0..k] (backtracking, Knuth, TAOCP 4B §7.2.2, Algorithm B).

    The search sets a[0], a[1], ... in turn, each to its values in
    increasing order, asks ``fits`` once a[k] is set, and leaves the value
    at once when it fails. So a constraint belongs to the step of its
    latest position, and the search yields what a filter over all
    values^length assignments yields, in the same order. It keeps one
    index per position instead of recursing, so no length meets the
    recursion limit.
    """
    a = [-1] * length
    k = 0
    while k >= 0:
        a[k] += 1
        if a[k] == values:
            a[k] = -1
            k -= 1
        elif fits(a, k):
            if k == length - 1:
                yield tuple(a)
            else:
                k += 1
