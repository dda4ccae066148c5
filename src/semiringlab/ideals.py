"""Ideal generation, enumeration, classification, and arithmetic.

Ideals are bitmasks over the carrier wrapped in :class:`IdealSet`. All
enumeration orders and returned witnesses are deterministic: ideals sort by
their member tuples and element scans run in ascending index order. The
lattices, principal ideals, per-mask facts (subtractive, prime, radical)
and the classification of the whole two-sided lattice are read from the
structure's analysis context (:mod:`semiringlab.analysis`); each is
computed once by a private function here.

Five mask kernels serve every module: :func:`image` (the mask of all
products or sums of two masks), :func:`union_mask`, :func:`maximal_masks`
(the masks not strictly inside another), and two kept in the context:
:func:`residual_rows` (per element x, the residual {y : x*y in a mask})
and :func:`annihilator_rows` (per element x, the scalars killing x). Prime,
2-absorbing and T-semiprime tests, residual quotients, right annihilators
and the Behrens products of :mod:`semiringlab.covering` read the residual
rows; every other annihilator and zero-divisor set reads the annihilator
rows.

The residual rows of a mask are the OR of the value planes of its
members, cut into n rows of n bits: the plane of v marks the cells
x*n + y with x*y = v. Subtractivity reads the additive residual rows
{y : x+y in the mask}, cut alike from sum planes (x+y = v). Planes
are built when first needed, those a mask still lacks in one pass over
the table, so a large carrier whose callers need few values never builds
the n^3 bits of all planes. Radicals read one power-orbit mask per
element: the radical of I is {x : orbit(x) meets I}.

:func:`classify_ideal` reads one pass over the two-sided lattice. It
stores the subtractive, prime and radical verdicts that
:func:`is_subtractive`, :func:`is_prime` and :func:`radical_mask` read,
and compute for any other mask through the same kernels.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .analysis import analysis, reader
from .closure import close, iter_bits
from .errors import CapExceeded, HypothesesUnmet, StructureError, TheoremViolation
from .limits import BRUTE_FORCE_CAP, IDEAL_ENUM_CAP
from .tables import (
    CayleyStructure,
    FiniteSemimodule,
    _freeze_witnesses,
    check_laws,
    require_commutative_semiring,
    require_semimodule,
    require_semiring,
)

LEFT = "left"
RIGHT = "right"
TWO_SIDED = "two-sided"
SIDES = (LEFT, RIGHT, TWO_SIDED)


def mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def image(table, a: int, b: int) -> int:
    """The mask of {table[x][y] : x in a, y in b}: a set product or sum."""
    out = 0
    right = mask_members(b)
    for x in iter_bits(a):
        row = table[x]
        for y in right:
            out |= 1 << row[y]
    return out


def union_mask(masks: Iterable[int]) -> int:
    return functools.reduce(operator.or_, masks, 0)


def maximal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks not strictly inside another, in first-seen order."""
    distinct = tuple(dict.fromkeys(masks))
    return tuple(m for m in distinct if not any(o != m and m & ~o == 0 for o in distinct))


@dataclass(frozen=True)
class IdealSet:
    """A one- or two-sided ideal of a ringoid, stored as a bitmask."""

    structure: CayleyStructure
    side: str
    mask: int

    def members(self) -> tuple[int, ...]:
        return mask_members(self.mask)

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask >> idx & 1)

    def issubset(self, other: Union["IdealSet", int]) -> bool:
        other_mask = other.mask if isinstance(other, IdealSet) else other
        return self.mask & ~other_mask == 0

    @property
    def is_proper(self) -> bool:
        return self.mask != (1 << self.structure.size) - 1

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def __repr__(self):
        return f"<IdealSet {self.side} {list(self.members())} of {self.structure.name or 'R'}>"


@dataclass(frozen=True)
class MultiplicativeSet:
    structure: CayleyStructure
    mask: int

    def members(self) -> tuple[int, ...]:
        return mask_members(self.mask)

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask >> idx & 1)


def multiplicative_set(s: CayleyStructure, members: Iterable[int]) -> MultiplicativeSet:
    """Validate that the members contain one and are closed under multiplication."""
    rep = require_semiring(s)
    mask = mask_of(members)
    if not mask >> rep.one & 1:
        raise StructureError("multiplicative set must contain one")
    for x in iter_bits(mask):
        for y in iter_bits(mask):
            if not mask >> s.mul[x][y] & 1:
                raise StructureError(f"not multiplicatively closed: {x}*{y} escapes")
    return MultiplicativeSet(structure=s, mask=mask)


def mult_closure(s: CayleyStructure, gens: Iterable[int]) -> MultiplicativeSet:
    rep = require_semiring(s)
    mask = close(s.mul, (0,) * s.size, mask_of(gens) | 1 << rep.one)
    return MultiplicativeSet(structure=s, mask=mask)


def ideal_violation(s: CayleyStructure, mask: int, side: str) -> Optional[tuple]:
    """None if the mask is an ideal of the given side, else a small witness."""
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}")
    if mask == 0:
        return ("empty",)
    add, mul, n = s.add, s.mul, s.size
    elems = list(iter_bits(mask))
    for x in elems:
        row = add[x]
        for y in elems:
            if not mask >> row[y] & 1:
                return ("add", x, y)
    if side in (LEFT, TWO_SIDED):
        for r in range(n):
            row = mul[r]
            for x in elems:
                if not mask >> row[x] & 1:
                    return ("left-mul", r, x)
    if side in (RIGHT, TWO_SIDED):
        for x in elems:
            row = mul[x]
            for r in range(n):
                if not mask >> row[r] & 1:
                    return ("right-mul", x, r)
    return None


def make_ideal(s: CayleyStructure, members: Iterable[int], side: str = TWO_SIDED) -> IdealSet:
    mask = mask_of(members)
    bad = ideal_violation(s, mask, side)
    if bad is not None:
        raise StructureError(f"not a {side} ideal: violation {bad}")
    return IdealSet(structure=s, side=side, mask=mask)


def _absorb(s: CayleyStructure, side: str) -> tuple[int, ...]:
    """Per element x, what an ideal of the side holding x must hold: the
    products r*x (left), x*r (right) or both (two-sided) over all r."""
    return analysis(s).get("absorb", side, _absorb_masks, s, side)


def _absorb_masks(s: CayleyStructure, side: str) -> tuple[int, ...]:
    rows, cols = s.mul, tuple(zip(*s.mul))
    if side == LEFT:
        return tuple(map(mask_of, cols))
    if side == RIGHT:
        return tuple(map(mask_of, rows))
    if side == TWO_SIDED:
        return tuple(mask_of(row + col) for row, col in zip(rows, cols))
    raise ValueError(f"unknown side {side!r}")


def close_mask(s: CayleyStructure, mask: int, side: str) -> int:
    """Least superset closed under addition and the side's multiplications."""
    return close(s.add, _absorb(s, side), mask)


def closed_sets(n: int, close: Callable[[int], int]) -> tuple[int, ...]:
    """Every closed set of a closure operator on the subsets of n elements,
    in lectic order (Ganter's NextClosure, 1984).

    The set after a closed set A is close((A & low) | 1 << i) for the
    largest i outside A whose closure adds nothing below i, where low masks
    the elements below i; so each closed set costs at most n closures. More
    than ``IDEAL_ENUM_CAP`` closed sets raise :class:`CapExceeded`.
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


def generate_ideal(s: CayleyStructure, gens: Iterable[int], side: str = TWO_SIDED) -> IdealSet:
    """Least ideal of the given side containing the generators.

    The empty generator set is only meaningful when the structure has an
    absorbing zero, in which case it yields the zero ideal.
    """
    mask = mask_of(gens)
    if mask == 0:
        rep = check_laws(s)
        if not rep.is_with_zero:
            raise StructureError("empty generating set needs a structure with zero")
        mask = 1 << rep.zero
    if mask >> s.size:
        raise StructureError("generator out of range")
    return IdealSet(structure=s, side=side, mask=close_mask(s, mask, side))


@reader("principal")
def principal_masks(s: CayleyStructure, side: str = TWO_SIDED) -> tuple[int, ...]:
    return analysis(s).get("principal", side, _principal_masks, s, side)


def _principal_masks(s: CayleyStructure, side: str) -> tuple[int, ...]:
    return tuple(close_mask(s, 1 << x, side) for x in range(s.size))


def residual_rows(s: CayleyStructure, mask: int) -> tuple[int, ...]:
    """Per element x, the residual {y : x*y in the mask}."""
    return analysis(s).get("residual", mask, _residual_rows, s, mask)


def _residual_rows(s: CayleyStructure, mask: int, members: Optional[tuple[int, ...]] = None) -> tuple[int, ...]:
    """The OR of the value planes of the mask's members, cut into n rows."""
    n, full = s.size, (1 << s.size) - 1
    members = mask_members(mask) if members is None else members
    cells = union_mask(analysis(s).fill("plane", members, _planes, s.mul))
    return tuple([cells >> shift & full for shift in range(0, n * n, n)])


def _planes(table, values: list[int]) -> list[int]:
    """Per value v, the mask of the cells x*n + y with table[x][y] = v, in
    one pass over the table: each row is sorted into its n-bit fibres before
    any is shifted into a plane."""
    n = len(table)
    planes = dict.fromkeys(values, 0)
    for x, row in enumerate(table):
        fibres = dict.fromkeys(values, 0)
        for y, xy in enumerate(row):
            if xy in fibres:
                fibres[xy] |= 1 << y
        shift = x * n
        for v, fibre in fibres.items():
            if fibre:
                planes[v] |= fibre << shift
    return list(planes.values())


def annihilator_rows(target: Union[CayleyStructure, FiniteSemimodule], side: str = LEFT) -> tuple[int, ...]:
    """Per element x, the mask of the scalars killing x: {r : r*x = 0} for a
    semimodule's action (which has no side) or for the left side of a
    structure with absorbing zero, and {r : x*r = 0} for its right side."""
    key = None if isinstance(target, FiniteSemimodule) else side
    return analysis(target).get("annihilators", key, _annihilator_rows, target, key)


def _annihilator_rows(target: Union[CayleyStructure, FiniteSemimodule], side: Optional[str]) -> tuple[int, ...]:
    if side is None:
        table, zero = target.action, target.mzero
    else:
        rep = check_laws(target)
        if not rep.is_with_zero:
            raise StructureError("annihilators need a structure with absorbing zero")
        if side == RIGHT:
            return residual_rows(target, 1 << rep.zero)
        if side != LEFT:
            raise ValueError("annihilator side must be left or right")
        table, zero = target.mul, rep.zero
    return tuple(mask_of(r for r, y in enumerate(col) if y == zero) for col in zip(*table))


@reader("lattice")
def ideal_masks(s: CayleyStructure, side: str = TWO_SIDED) -> tuple[int, ...]:
    """All ideal masks of the side, sorted by member tuple.

    The ideals are the nonempty closed sets of ``close_mask``, enumerated by
    NextClosure (:func:`closed_sets`). ``brute_force_ideal_masks`` is the
    oracle in the test suite.
    """
    return analysis(s).get("lattice", side, _ideal_masks, s, side)


def _ideal_masks(s: CayleyStructure, side: str) -> tuple[int, ...]:
    masks = closed_sets(s.size, lambda m: close_mask(s, m, side))
    return tuple(sorted((m for m in masks if m), key=mask_members))


def enumerate_ideals(s: CayleyStructure, side: str = TWO_SIDED) -> tuple[IdealSet, ...]:
    return tuple(IdealSet(structure=s, side=side, mask=m) for m in ideal_masks(s, side))


def brute_force_ideal_masks(s: CayleyStructure, side: str = TWO_SIDED) -> tuple[int, ...]:
    """Filter all nonempty subsets. Exponential; only for cross-validation."""
    if s.size > BRUTE_FORCE_CAP:
        raise CapExceeded(f"brute force limited to {BRUTE_FORCE_CAP} elements")
    out = []
    for mask in range(1, 1 << s.size):
        if ideal_violation(s, mask, side) is None:
            out.append(mask)
    return tuple(sorted(out, key=mask_members))


def is_subtractive(ideal: IdealSet) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check both cancellation directions; witness is the least failing pair."""
    s = ideal.structure
    return analysis(s).get("subtractive", ideal.mask, _subtractive, s, ideal.mask)


def _subtractive(
    s: CayleyStructure, mask: int, members: Optional[tuple[int, ...]] = None
) -> tuple[bool, Optional[tuple[int, int]]]:
    """The least (x, y) with x+y in the mask and just one of x, y in it. Row
    x of the additive residual {y : x+y in the mask}, cut from the OR of the
    members' sum planes, must lie inside the mask when x does and miss it
    otherwise."""
    n, full = s.size, (1 << s.size) - 1
    members = mask_members(mask) if members is None else members
    cells = union_mask(analysis(s).fill("sum_plane", members, _planes, s.add))
    for x in range(n):
        row = cells >> x * n & full
        bad = row & ~mask if mask >> x & 1 else row & mask
        if bad:
            return False, (x, (bad & -bad).bit_length() - 1)
    return True, None


def all_ideals_subtractive(s: CayleyStructure) -> bool:
    """Whether every two-sided ideal is subtractive, as the covering
    corollaries assume."""
    return analysis(s).get("all_subtractive", None, _all_ideals_subtractive, s)


def _all_ideals_subtractive(s: CayleyStructure) -> bool:
    return all(is_subtractive(i)[0] for i in enumerate_ideals(s, TWO_SIDED))


def is_prime(ideal: IdealSet) -> tuple[bool, Optional[tuple[int, int]]]:
    """Primality via principal-ideal products; on semirings the element-wise
    sandwich criterion is computed as well and the two must agree."""
    s = ideal.structure
    if ideal.side != TWO_SIDED:
        raise ValueError("primality is defined for two-sided ideals")
    if not ideal.is_proper:
        raise ValueError("primality is defined for proper ideals")
    return analysis(s).get("prime", ideal.mask, _prime, s, ideal.mask)


def _prime(
    s: CayleyStructure, mask: int, rows: Optional[tuple[int, ...]] = None
) -> tuple[bool, Optional[tuple[int, int]]]:
    """The least (a, b) outside the mask with (a)(b) inside, read off the
    residual rows (the mask's own unless given): (a)(b) lies in the mask
    exactly when (b) lies in the meet of the rows of the members of (a), so
    b lies in it and in the row of a; and x*t*y does for every t exactly
    when y lies in the meet of the rows of the values x*t."""
    if rows is None:
        rows = residual_rows(s, mask)
    outside = ((1 << s.size) - 1) & ~mask
    principal = principal_masks(s, TWO_SIDED)
    witness = None
    for a in iter_bits(outside):
        if rows[a] & outside:
            inner = _meet(rows, principal[a], outside)
            for b in iter_bits(inner & outside):
                if principal[b] & ~inner == 0:
                    witness = (a, b)
                    break
            if witness:
                break
    ringoid_prime = witness is None

    if check_laws(s).is_semiring:
        values = _absorb(s, RIGHT)
        sandwich_prime = not any(_meet(rows, values[x], outside) & outside for x in iter_bits(outside))
        if sandwich_prime != ringoid_prime:
            ideal = IdealSet(structure=s, side=TWO_SIDED, mask=mask)
            raise TheoremViolation(
                f"prime criteria disagree on {ideal!r}: "
                f"principal={ringoid_prime} sandwich={sandwich_prime}"
            )
    return ringoid_prime, witness


def _meet(rows: Sequence[int], elements: int, outside: int) -> int:
    """The AND of the rows of the elements, cut short once none of ``outside`` is left."""
    out = -1
    while elements:
        low = elements & -elements
        elements ^= low
        out &= rows[low.bit_length() - 1]
        if not out & outside:
            break
    return out


def power_orbit(s: CayleyStructure, x: int) -> tuple[int, ...]:
    """x, x^2, x^3, ... until the first repeat. Needs associative multiplication."""
    seen = []
    seen_set = set()
    cur = x
    while cur not in seen_set:
        seen.append(cur)
        seen_set.add(cur)
        cur = s.mul[cur][x]
    return tuple(seen)


def radical(ideal: IdealSet) -> IdealSet:
    """Elements with some positive power inside the ideal."""
    s = ideal.structure
    require_commutative_semiring(s)
    return IdealSet(structure=s, side=ideal.side, mask=radical_mask(s, ideal.mask))


def radical_mask(s: CayleyStructure, mask: int) -> int:
    """The radical's mask, for a caller that has checked that the structure
    is a commutative semiring."""
    return analysis(s).get("radical", mask, _radical_mask, s, mask)


def _radical_mask(s: CayleyStructure, mask: int) -> int:
    out = 0
    for x, orbit in enumerate(_orbits(s)):
        if orbit & mask:
            out |= 1 << x
    return out


def _orbits(s: CayleyStructure) -> tuple[int, ...]:
    """Per element x, the mask of its power orbit."""
    return analysis(s).get("orbits", None, _orbit_masks, s)


def _orbit_masks(s: CayleyStructure) -> tuple[int, ...]:
    return tuple(mask_of(power_orbit(s, x)) for x in range(s.size))


def ideal_sum(a: IdealSet, b: IdealSet) -> IdealSet:
    """Elementwise sums; an ideal whenever addition is medial."""
    s = a.structure
    rep = check_laws(s)
    if not rep.add_medial:
        raise HypothesesUnmet("sum of ideals needs an additively medial ringoid")
    if a.side != b.side:
        raise ValueError("sides differ")
    mask = image(s.add, a.mask, b.mask)
    bad = ideal_violation(s, mask, a.side)
    if bad is not None:
        raise TheoremViolation(f"medial sum failed to be an ideal: {bad}")
    return IdealSet(structure=s, side=a.side, mask=mask)


def set_product_mask(a: IdealSet, b: IdealSet) -> int:
    """Raw elementwise products. Not an ideal in general."""
    mask = image(a.structure.mul, a.mask, b.mask)
    if a.side == RIGHT and b.side == LEFT or a.side == b.side == TWO_SIDED:
        meet = a.mask & b.mask
        if mask & ~meet:
            raise TheoremViolation("product of a right and a left ideal escaped their intersection")
    return mask


def generated_product(a: IdealSet, b: IdealSet) -> IdealSet:
    side = a.side if a.side == b.side else TWO_SIDED
    return generate_ideal(a.structure, mask_members(set_product_mask(a, b)), side)


def ideal_intersect(a: IdealSet, b: IdealSet) -> IdealSet:
    if a.side != b.side:
        raise ValueError("sides differ")
    mask = a.mask & b.mask
    if mask == 0:
        raise StructureError("empty intersection is not an ideal")
    return IdealSet(structure=a.structure, side=a.side, mask=mask)


def ideal_arith(op: str, a: IdealSet, b: IdealSet):
    """Dispatch by name; op is one of sum, set_product, generated_product,
    intersect."""
    if op == "sum":
        return ideal_sum(a, b)
    if op == "set_product":
        return mask_members(set_product_mask(a, b))
    if op == "generated_product":
        return generated_product(a, b)
    if op == "intersect":
        return ideal_intersect(a, b)
    raise ValueError(f"unknown ideal operation {op!r}")


def residual(ideal: IdealSet, t: int) -> IdealSet:
    """Elements whose product with t lands in the ideal."""
    s = ideal.structure
    require_commutative_semiring(s)
    mask = residual_rows(s, ideal.mask)[t]
    bad = ideal_violation(s, mask, ideal.side)
    if bad is not None:
        raise TheoremViolation(f"residual failed to be an ideal: {bad}")
    if ideal.mask & ~mask:
        raise TheoremViolation("residual does not contain the ideal")
    return IdealSet(structure=s, side=ideal.side, mask=mask)


@dataclass(frozen=True, repr=False)
class IdealClassification:
    subtractive: bool
    proper: bool
    prime: bool
    semiprime: bool
    two_absorbing: bool
    maximal: bool
    radical_ideal: Optional[bool]
    t_semiprime: Optional[bool]
    t_element: Optional[int]
    witnesses: Mapping

    def __post_init__(self):
        _freeze_witnesses(self)

    def __repr__(self):
        flags = {k: getattr(self, k) for k in _FLAGS}
        return f"<IdealClassification {flags}>"


_FLAGS = ("subtractive", "proper", "prime", "semiprime", "two_absorbing", "maximal")


def _semiprime_elementwise(s: CayleyStructure, mask: int) -> Optional[tuple[int]]:
    mul = s.mul
    for x in range(s.size):
        if mask >> mul[x][x] & 1 and not mask >> x & 1:
            return (x,)
    return None


def _two_absorbing_witness(s: CayleyStructure, inside: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """The least (x, y, z) with (x*y)*z in the ideal and none of x*y, y*z,
    x*z, or None if the ideal is 2-absorbing. Read off the residual rows
    {z : w*z in the ideal}: the y with x*y outside are the bits missing from
    inside[x], and the failing z the bits of inside[x*y] & ~inside[y] & ~inside[x]."""
    full = (1 << s.size) - 1
    for x, row in enumerate(s.mul):
        not_x = ~inside[x]
        ys = full & not_x
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            bad = inside[row[y]] & ~inside[y] & not_x
            if bad:
                return x, y, (bad & -bad).bit_length() - 1
    return None


def classify_ideal(ideal: IdealSet, t_set: Optional[MultiplicativeSet] = None) -> IdealClassification:
    """All classification flags of a two-sided ideal, read from the lattice
    pass; a T-set adds the least t in T with t*x in the ideal for every x
    with x*x in it."""
    s = ideal.structure
    if ideal.side != TWO_SIDED:
        raise ValueError("classification applies to two-sided ideals")
    if t_set is not None:
        key = (ideal.mask, t_set.mask)
        return analysis(s).get("classification", key, _t_classification, s, *key)
    cls = analysis(s).get("classes", None, _classify_lattice, s).get(ideal.mask)
    if cls is None:
        raise StructureError(f"not a two-sided ideal: {ideal!r}")
    return cls


def _t_classification(s: CayleyStructure, mask: int, t_mask: int) -> IdealClassification:
    cls = classify_ideal(IdealSet(structure=s, side=TWO_SIDED, mask=mask))
    if mask & t_mask:
        raise StructureError("T-semiprimeness needs an ideal disjoint from T")
    squared_in = mask_of(x for x, row in enumerate(s.mul) if mask >> row[x] & 1)
    rows = residual_rows(s, mask)
    t_element = next((t for t in iter_bits(t_mask) if squared_in & ~rows[t] == 0), None)
    witnesses = dict(cls.witnesses)
    if t_element is None:
        witnesses["t_semiprime"] = ()
    return dataclasses.replace(cls, t_semiprime=t_element is not None, t_element=t_element, witnesses=witnesses)


def _classify_lattice(s: CayleyStructure) -> dict[int, IdealClassification]:
    """The classification of every two-sided ideal, by mask, in one pass.

    Bit j of ``holds[v]`` (``squared[v]``) is set when v lies in the j-th
    ideal of the lattice (in its elementwise square), so the first ideal
    outside I whose square lies inside I, and the first proper strict
    superset of I, are lowest bits of a few ORs and ANDs. Each ideal's
    residual rows serve its prime and 2-absorbing tests and are dropped;
    its subtractive, prime and radical verdicts are stored per mask. A flag
    is false exactly when its witness is recorded."""
    ctx, commutative = analysis(s), check_laws(s).is_commutative_semiring
    lattice, full = ideal_masks(s, TWO_SIDED), (1 << s.size) - 1
    members = list(map(mask_members, lattice))
    holds, squared = [0] * s.size, [0] * s.size
    for j, jm in enumerate(members):
        for v in jm:
            holds[v] |= 1 << j
    for x, row in enumerate(s.mul):
        for y, xy in enumerate(row):
            squared[xy] |= holds[x] & holds[y]
    improper = 1 << lattice.index(full)
    out = {}
    for j, mask in enumerate(lattice):
        witnesses = {"subtractive": ctx.get("subtractive", mask, _subtractive, s, mask, members[j])[1]}
        if mask == full:
            witnesses.update(dict.fromkeys(_FLAGS[1:], ()))  # every flag but subtractive fails
        else:
            rows = _residual_rows(s, mask, members[j])
            witnesses["prime"] = ctx.get("prime", mask, _prime, s, mask, rows)[1]
            outside = mask_members(full & ~mask)
            first = union_mask(map(holds.__getitem__, outside)) & ~union_mask(map(squared.__getitem__, outside))
            witnesses["semiprime"] = members[(first & -first).bit_length() - 1] if first else None
            if commutative:
                elem = _semiprime_elementwise(s, mask)
                if (elem is None) != (not first):
                    raise TheoremViolation("elementwise and ideal-square semiprime criteria disagree")
                witnesses["semiprime"] = elem
            witnesses["two_absorbing"] = _two_absorbing_witness(s, rows)
            above = functools.reduce(int.__and__, map(holds.__getitem__, members[j])) & ~(1 << j | improper)
            witnesses["maximal"] = members[(above & -above).bit_length() - 1] if above else None
        radical_ideal = None
        if commutative:
            extra = ctx.get("radical", mask, _radical_mask, s, mask) & ~mask
            radical_ideal = not extra
            witnesses["radical_ideal"] = mask_members(extra)[:1] if extra else None
        witnesses = {k: w for k, w in witnesses.items() if w is not None}
        flags = {k: k not in witnesses for k in _FLAGS}
        out[mask] = IdealClassification(
            **flags, radical_ideal=radical_ideal, t_semiprime=None, t_element=None, witnesses=witnesses
        )
    return out


def semiprime_residual(ideal: IdealSet, t_set: MultiplicativeSet) -> Optional[tuple[int, IdealSet]]:
    """The least t in T whose residual quotient (I : t) of a two-sided ideal
    is proper and semiprime, with that quotient, or None if there is no
    such t."""
    s = ideal.structure
    if ideal.side != TWO_SIDED:
        raise ValueError("semiprime residuals are taken of two-sided ideals")
    key = (ideal.mask, t_set.mask)
    found = analysis(s).get("semiprime_residual", key, _semiprime_residual, s, *key)
    if found is None:
        return None
    t, mask = found
    return t, IdealSet(structure=s, side=TWO_SIDED, mask=mask)


def _semiprime_residual(s: CayleyStructure, mask: int, t_mask: int) -> Optional[tuple[int, int]]:
    ideal = IdealSet(structure=s, side=TWO_SIDED, mask=mask)
    for t in iter_bits(t_mask):
        r = residual(ideal, t)
        if r.is_proper and _semiprime_elementwise(s, r.mask) is None:
            return t, r.mask
    return None


def t_semiprime_equivalence(
    ideal: IdealSet, t_set: MultiplicativeSet
) -> tuple[bool, Union[int, tuple, None]]:
    """Match T-semiprimeness against semiprimeness of some residual quotient.

    Returns (verdict, t) with the least t realizing both sides, or raises if
    the two sides of the equivalence disagree, which would falsify the
    residual-quotient theorem.
    """
    s = ideal.structure
    require_commutative_semiring(s)
    cls = classify_ideal(ideal, t_set)
    if not cls.two_absorbing:
        raise HypothesesUnmet("equivalence needs a 2-absorbing ideal")
    direct = cls.t_semiprime
    found = semiprime_residual(ideal, t_set)
    via_residual = found is not None
    if direct != via_residual:
        raise TheoremViolation(
            f"T-semiprime equivalence broken: direct={direct} residual={via_residual}"
        )
    if direct:
        return True, min(cls.t_element, found[0])
    return False, None


def annihilator(
    target: Union[CayleyStructure, FiniteSemimodule],
    xs: Iterable[int],
    side: str = LEFT,
) -> IdealSet:
    """Annihilator of a nonempty subset, of the carrier or of a semimodule.

    For a semimodule target the result is the two-sided ideal of scalars
    killing every listed element. For a structure target the side picks
    between left and right annihilators.
    """
    xs = sorted(set(xs))
    if not xs:
        raise StructureError("annihilator of the empty set is undefined")
    if isinstance(target, FiniteSemimodule):
        require_semimodule(target)
        s, side = target.semiring, TWO_SIDED
        if any(not 0 <= x < target.msize for x in xs):
            raise StructureError("module element out of range")
    else:
        s = target
        if not check_laws(s).is_with_zero:
            raise StructureError("annihilators need a structure with absorbing zero")
        if any(not 0 <= x < s.size for x in xs):
            raise StructureError("element out of range")
    rows = annihilator_rows(target, side)
    mask = functools.reduce(int.__and__, (rows[x] for x in xs))
    result = IdealSet(structure=s, side=side, mask=mask)
    bad = ideal_violation(s, mask, side)
    if bad is not None:
        what = "two-sided" if side == TWO_SIDED else f"a {side} ideal"
        raise StructureError(f"annihilator is not {what} here: {bad}")
    if check_laws(result.structure).mul_associative:
        ok, w = is_subtractive(result)
        if not ok:
            raise TheoremViolation(f"annihilator not subtractive, witness {w}")
    return result


def subsemimodule_masks(m: FiniteSemimodule) -> tuple[int, ...]:
    """All subsets containing zero and closed under addition and the action."""
    require_semimodule(m)
    act, zero = m.action, 1 << m.mzero
    absorb = tuple(mask_of(row[x] for row in act) for x in range(m.msize))
    masks = closed_sets(m.msize, lambda mask: close(m.madd, absorb, mask | zero))
    return tuple(sorted(masks, key=mask_members))


def maximal_annihilator_primes(s: CayleyStructure, m: FiniteSemimodule) -> tuple[IdealSet, ...]:
    """Maximal annihilators of proper nonzero subsemimodules; each is checked
    subtractive and prime before being returned."""
    require_semiring(s)
    if m.semiring is not s and m.semiring != s:
        raise StructureError("module is not over the given semiring")
    if m.msize == 1:
        raise StructureError("zero semimodule has no proper nonzero subsemimodules")
    zero_mask = 1 << m.mzero
    full = (1 << m.msize) - 1
    gamma = set()
    for nm in subsemimodule_masks(m):
        if nm == zero_mask or nm == full:
            continue
        gamma.add(annihilator(m, mask_members(nm)).mask)
    out = []
    for am in sorted(maximal_masks(gamma), key=mask_members):
        ideal = IdealSet(structure=s, side=TWO_SIDED, mask=am)
        ok, w = is_subtractive(ideal)
        if not ok:
            raise TheoremViolation(f"maximal annihilator not subtractive: {w}")
        prime, w = is_prime(ideal)
        if not prime:
            raise TheoremViolation(f"maximal annihilator not prime: {w}")
        out.append(ideal)
    return tuple(out)


def krull_separation(s: CayleyStructure, t_set: MultiplicativeSet, ideal: IdealSet) -> IdealSet:
    """A prime ideal containing the given one, maximal among ideals disjoint
    from the multiplicative set; ties break to the least member tuple."""
    require_commutative_semiring(s)
    if ideal.mask & t_set.mask:
        raise HypothesesUnmet("ideal meets the multiplicative set")
    candidates = [
        jm
        for jm in ideal_masks(s, TWO_SIDED)
        if jm & t_set.mask == 0 and ideal.mask & ~jm == 0
    ]
    best = min(maximal_masks(candidates), key=mask_members)
    result = IdealSet(structure=s, side=TWO_SIDED, mask=best)
    prime, w = is_prime(result)
    if not prime:
        raise TheoremViolation(f"separating ideal not prime, witness {w}")
    return result


# --- sum trees -------------------------------------------------------------
#
# A tree is either a carrier element (leaf) or a pair of trees. Evaluation
# folds the addition table bottom-up, which pins one parenthesization of a
# sum whose addition need not be associative.

Tree = Union[int, tuple]


def tree_leaves(tree: Tree) -> list[int]:
    if isinstance(tree, int):
        return [tree]
    left, right = tree
    return tree_leaves(left) + tree_leaves(right)


def evaluate_tree(s: CayleyStructure, tree: Tree) -> int:
    if isinstance(tree, int):
        return tree
    left, right = tree
    return s.add[evaluate_tree(s, left)][evaluate_tree(s, right)]


def left_comb(values: Sequence[int]) -> Tree:
    if not values:
        raise ValueError("need at least one leaf")
    tree: Tree = values[0]
    for v in values[1:]:
        tree = (tree, v)
    return tree


def all_tree_shapes(values: Sequence[int]) -> list[Tree]:
    if len(values) == 1:
        return [values[0]]
    shapes = []
    for split in range(1, len(values)):
        for l in all_tree_shapes(values[:split]):
            for r in all_tree_shapes(values[split:]):
                shapes.append((l, r))
    return shapes


def random_tree(values: Sequence[int], rng) -> Tree:
    if len(values) == 1:
        return values[0]
    split = rng.randrange(1, len(values))
    return (random_tree(values[:split], rng), random_tree(values[split:], rng))


def subtractive_sumtree_property(ideal: IdealSet, tree: Tree, hole: int) -> bool:
    """Membership of the hole leaf when the tree value and all other leaves
    lie in a subtractive ideal. Guaranteed true; exposed for diagnostics."""
    ok, w = is_subtractive(ideal)
    if not ok:
        raise HypothesesUnmet(f"ideal is not subtractive, witness {w}")
    leaves = tree_leaves(tree)
    if not 0 <= hole < len(leaves):
        raise ValueError("hole index out of range")
    value = evaluate_tree(ideal.structure, tree)
    if value not in ideal:
        raise HypothesesUnmet("tree value must lie in the ideal")
    for pos, leaf in enumerate(leaves):
        if pos != hole and leaf not in ideal:
            raise HypothesesUnmet("all leaves except the hole must lie in the ideal")
    return leaves[hole] in ideal
