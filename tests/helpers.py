"""Builders that only the tests use: a checked ideal from its members, the
diamond lattice's complement map, a semimodule's JSON document, the pair
classes of a total quotient, NextClosure, the reference enumerator of
closed sets, and the bit iterator the reference kernels walk masks with."""

from typing import Callable, Iterable, Iterator

from semiringlab.errors import CapExceeded, StructureError
from semiringlab.fileio import structure_to_json
from semiringlab.ideals import TWO_SIDED, IdealSet, ideal_violation, mask_of
from semiringlab.limits import IDEAL_ENUM_CAP
from semiringlab.tables import CayleyStructure, FiniteSemimodule


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def make_ideal(s: CayleyStructure, members: Iterable[int], side: str = TWO_SIDED) -> IdealSet:
    mask = mask_of(members)
    bad = ideal_violation(s, mask, side)
    if bad is not None:
        raise StructureError(f"not a {side} ideal: violation {bad}")
    return IdealSet(structure=s, side=side, mask=mask)


def diamond_complement() -> tuple[int, ...]:
    """The complement of each element of ``corpus.diamond_lattice``."""
    return (3, 2, 1, 0)


def semimodule_to_json(m: FiniteSemimodule, claims=()) -> dict:
    doc = structure_to_json(m.semiring, claims)
    doc["name"] = m.name or doc["name"]
    doc["msize"] = m.msize
    doc["madd"] = [list(r) for r in m.madd]
    doc["mzero"] = m.mzero
    doc["action"] = [list(r) for r in m.action]
    return doc


def quotient_classes(q) -> list:
    """The classes of pairs of a quotient, each least pair first."""
    classes = [[] for _ in range(q.structure.size)]
    for pair, c in sorted(q.pair_class.items()):
        classes[c].append(pair)
    return classes


def closed_sets(n: int, close: Callable[[int], int]) -> tuple[int, ...]:
    """Every closed set of a closure operator on the subsets of n elements,
    in lectic order (Ganter's NextClosure, 1984).

    The set after a closed set A is close((A & low) | 1 << i) for the
    largest i outside A whose closure adds nothing below i, where low masks
    the elements below i; so each closed set costs at most n closures. More
    than ``IDEAL_ENUM_CAP`` closed sets raise :class:`CapExceeded`, as in
    :func:`semiringlab.closure.close_by_one`.
    """
    full = (1 << n) - 1
    found = [close(0)]
    while found[-1] != full:
        if len(found) == IDEAL_ENUM_CAP:
            raise CapExceeded(f"more than {IDEAL_ENUM_CAP} closed sets on {n} elements")
        a = found[-1]
        for i in reversed(range(n)):
            bit = 1 << i
            if a & bit:
                continue
            low = bit - 1
            b = close(a & low | bit)
            if b & low == a & low:
                break
        found.append(b)
    return tuple(found)
