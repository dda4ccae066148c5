"""Ideal generation, enumeration, classification, and arithmetic.

Ideals are bitmasks over the carrier wrapped in :class:`IdealSet`. All
enumeration orders and returned witnesses are deterministic: ideals sort by
their member tuples and element scans run in ascending index order. The
lattices, principal ideals, per-mask facts (subtractive, prime, radical)
and the classification of the whole two-sided lattice are read from the
structure's analysis context (:mod:`semiringlab.analysis`); each is
computed once by a private function here.

Ideal lattices come from Close-by-One (:func:`semiringlab.closure.close_by_one`)
over joins with the stored principal ideals. Where addition is
associative and commutative and multiplication distributes on the ideal's
side, the ideal generated by an ideal A and x is A | (x) | A + (x), one
set image; every other table (the ringoids and medial additions of the
avoidance theorems) joins by the closure fixpoint, grown from A.

Four mask kernels serve every module: :func:`image` (the mask of all
products or sums of two masks), :func:`union_mask`, :func:`maximal_masks`
(the masks not strictly inside another), and the member rows of
:mod:`semiringlab.tables` (per row x of a table, the mask of the y whose
entry at x, y lies in a mask). The member rows of a mask in the
multiplication are :func:`residual_rows`, {y : x*y in the mask}, which
prime, 2-absorbing and T-semiprime tests, residual quotients and the
Behrens products of :mod:`semiringlab.covering` gather where they read
them (no context stores them); those in the addition decide subtractivity;
those of zero in a semimodule's action are :func:`annihilator_rows`, which
every annihilator and zero-divisor set reads. The set products of every
ordered pair of a lattice's ideals are one kernel,
:func:`lattice_product_masks`, which gathers each ideal's row images once
and unions them; :func:`set_product_mask` is the one-pair path, and both
state the product's check in ``_require_inside_meets``. Annihilators,
residuals and the masks the public per-ideal readers are given are checked
to be ideals on masks, by what their members absorb and by their sum
image; the cell scan of :func:`ideal_violation` runs only to name the
witness of a failure. Masks the package built as ideals (lattice members,
annihilators) are read through the unchecked ``_ideal_subtractive``,
``_ideal_prime`` and ``_ideal_radical``.
Radicals read one power-orbit mask per element: the radical of I is
{x : orbit(x) meets I}.

:func:`classify_ideal` reads one pass over the two-sided lattice, in one
of two layouts picked per structure by the lattice's size against the
carrier's, n. A lattice of at most n ideals (the corpus, most products,
boolean^k) runs each test once per ideal, on its residual rows. A larger
one (the saturating family) runs each test once per element tuple over
all ideals at once: bit j of ``holds[v]`` is set when the j-th ideal holds
v, so ANDs of ``holds`` give the bitset of the ideals a tuple falsifies,
and a lexicographic walk over the tuples gives each ideal its least
witness. An n^3 walk gains nothing over n ideals, and per-ideal scans lose
to it over many. Either layout stores the subtractive, prime and radical
verdicts that :func:`is_subtractive`, :func:`is_prime` and
:func:`radical_mask` read; for any other mask these compute through the
per-mask kernels of the per-ideal layout. A classification holds its
witnesses only. T-semiprimeness also depends on a multiplicative set T, so
it is no class but a fact of its own, :func:`t_semiprime_element`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from .analysis import analysis, reader
from .closure import close, close_by_one, mask_members
from .errors import CapExceeded, HypothesesUnmet, StructureError, TheoremViolation
from .limits import BRUTE_FORCE_CAP
from .tables import (
    CayleyStructure,
    FiniteSemimodule,
    _Verdicts,
    _flag_names,
    _int_in,
    check_laws,
    member_rows,
    member_view,
    require_commutative_semiring,
    require_semimodule,
    require_semiring,
    transpose,
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


def _element_mask(s: CayleyStructure, members: Iterable[int]) -> int:
    """The mask of the members, each checked to be an element of ``s``."""
    return mask_of(_int_in(x, "element", 0, s.size) for x in members)


def image(table, a: int, b: int) -> int:
    """The mask of {table[x][y] : x in a, y in b}: a set product or sum."""
    out = 0
    right = mask_members(b)
    for x in mask_members(a):
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

    def __repr__(self):
        return f"<IdealSet {self.side} {list(self.members())} of {self.structure.name or 'R'}>"


@dataclass(frozen=True)
class MultiplicativeSet:
    structure: CayleyStructure
    mask: int

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask >> idx & 1)


def require_same_structure(s: CayleyStructure, part: Union[IdealSet, MultiplicativeSet], what: str) -> None:
    """Reject an ideal or a multiplicative set over a structure neither s
    nor equal to it, whose mask would otherwise be read as bits of s."""
    if part.structure is not s and part.structure != s:
        raise StructureError(f"{what} lives over a different structure")


def require_module_over(s: CayleyStructure, m: FiniteSemimodule) -> None:
    """Reject a module over a structure neither s nor equal to it, whose
    scalars would otherwise be read as elements of s."""
    if m.semiring is not s and m.semiring != s:
        raise StructureError("the module lives over a different structure")


def mult_closure(s: CayleyStructure, gens: Iterable[int]) -> MultiplicativeSet:
    rep = require_semiring(s)
    mask = close(s.mul, (0,) * s.size, _element_mask(s, gens) | 1 << rep.one)
    return MultiplicativeSet(structure=s, mask=mask)


def ideal_violation(s: CayleyStructure, mask: int, side: str) -> Optional[tuple]:
    """None if the mask is an ideal of the given side, else a small witness."""
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}")
    if mask == 0:
        return ("empty",)
    add, mul, n = s.add, s.mul, s.size
    elems = mask_members(mask)
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


def _is_ideal_mask(s: CayleyStructure, mask: int, side: str) -> bool:
    """Whether a mask is an ideal of the side, tested on masks: it is
    nonempty, and what its members absorb and its sum image lie inside it.
    Callers scan with :func:`ideal_violation` only to name a failure."""
    absorbed = union_mask(map(_absorb(s, side).__getitem__, mask_members(mask)))
    return mask != 0 and (absorbed | image(s.add, mask, mask)) & ~mask == 0


def _require_ideal(s: CayleyStructure, mask: int, side: str = TWO_SIDED) -> None:
    """Refuse, as input, a mask that is no ideal of the side of ``s``."""
    if mask >> s.size or not _is_ideal_mask(s, mask, side):
        raise StructureError(f"not a {side} ideal: {IdealSet(structure=s, side=side, mask=mask)!r}")


def _checked(compute: Callable, s: CayleyStructure, mask: int, side: str = TWO_SIDED):
    """``compute(s, mask)``, for a mask refused unless it is an ideal of the
    side: a public per-mask reader's fact, checked once per mask."""
    _require_ideal(s, mask, side)
    return compute(s, mask)


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


def generate_ideal(s: CayleyStructure, gens: Iterable[int], side: str = TWO_SIDED) -> IdealSet:
    """Least ideal of the given side containing the generators.

    The empty generator set is only meaningful when the structure has an
    absorbing zero, in which case it yields the zero ideal.
    """
    mask = _element_mask(s, gens)
    if mask == 0:
        rep = check_laws(s)
        if not rep.is_with_zero:
            raise StructureError("empty generating set needs a structure with zero")
        mask = 1 << rep.zero
    return IdealSet(structure=s, side=side, mask=close_mask(s, mask, side))


def principal_masks(s: CayleyStructure, side: str = TWO_SIDED) -> tuple[int, ...]:
    return analysis(s).get("principal", side, _principal_masks, s, side)


def _principal_masks(s: CayleyStructure, side: str) -> tuple[int, ...]:
    return tuple(close_mask(s, 1 << x, side) for x in range(s.size))


def residual_rows(s: CayleyStructure, mask: int) -> tuple[int, ...]:
    """Per element x, the residual {y : x*y in the mask}: a gather through
    the stored member view of the multiplication. The rows are stored
    nowhere; each reader gathers them where it needs them."""
    return member_rows(analysis(s).get("member_view", "mul", member_view, s.mul), mask)


def annihilator_rows(m: FiniteSemimodule) -> tuple[int, ...]:
    """Per module element x, the mask of the scalars killing it, {r : r*x = 0}."""
    return analysis(m).get("annihilators", None, _annihilator_rows, m)


def _annihilator_rows(m: FiniteSemimodule) -> tuple[int, ...]:
    """The member rows of zero in the transposed action, whose row x holds the r*x."""
    return member_rows(member_view(transpose(m.action)), 1 << m.mzero)


@reader("lattice")
def ideal_masks(s: CayleyStructure, side: str = TWO_SIDED) -> tuple[int, ...]:
    """All ideal masks of the side, sorted by member tuple.

    The ideals are the nonempty closed sets of ``close_mask``;
    Close-by-One (:func:`close_by_one`) enumerates them from the principal
    ideals. The join of an ideal with a principal ideal is their sum, one
    set image, when ``_sum_joins`` holds, and their closure, grown from
    the ideal, on every other table. ``brute_force_ideal_masks`` is the
    oracle in the test suite.
    """
    return analysis(s).get("lattice", side, _ideal_masks, s, side)


def _ideal_masks(s: CayleyStructure, side: str) -> tuple[int, ...]:
    """The nonempty closed sets, by Close-by-One from the empty set, the
    least closed set, and the principal ideals. An ideal joins a principal
    one in their sum when ``_sum_joins`` holds, else in the closure grown
    from the ideal."""
    add, absorb, principal = s.add, _absorb(s, side), principal_masks(s, side)
    if _sum_joins(check_laws(s), side):
        def join(a: int, j: int) -> int:
            return _sum_join(add, a, principal[j])
    else:
        def join(a: int, j: int) -> int:
            return close(add, absorb, principal[j], a)
    return tuple(sorted(filter(None, close_by_one(0, principal, join)), key=mask_members))


def _sum_joins(rep, side: str) -> bool:
    """Whether the ideal generated by an ideal A and an element x is
    A | (x) | A + (x), with (x) the principal ideal: addition associative
    and commutative makes A + (x) closed under addition, and distributivity
    on the side's multiplications (both for two-sided ideals) makes it
    absorb them."""
    return (
        rep.add_associative
        and rep.add_commutative
        and (side == RIGHT or rep.left_distributive)
        and (side == LEFT or rep.right_distributive)
    )


def _sum_join(add, a: int, p: int) -> int:
    """a | p | a + p for two masks closed under the addition: a sum with
    both terms in a, or both in p, is already there."""
    return a | p | image(add, p & ~a, a & ~p)


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
    """Check both cancellation directions; witness is the least failing
    pair. A mask that is no ideal of its side is refused. Subtractivity does
    not involve the multiplication, so a two-sided verdict is stored per
    mask, checked once; a one-sided ask is checked on its side at every
    call and stores nothing."""
    s = ideal.structure
    if ideal.side != TWO_SIDED:
        return _checked(_subtractive, s, ideal.mask, ideal.side)
    return analysis(s).get("subtractive", ideal.mask, _checked, _subtractive, s, ideal.mask)


def _ideal_subtractive(s: CayleyStructure, mask: int) -> tuple[bool, Optional[tuple[int, int]]]:
    """:func:`is_subtractive` of a mask known to be an ideal, unchecked."""
    return analysis(s).get("subtractive", mask, _subtractive, s, mask)


def _subtractive(s: CayleyStructure, mask: int) -> tuple[bool, Optional[tuple[int, int]]]:
    """The least (x, y) with x+y in the mask and just one of x, y in it. Row
    x of the additive residual {y : x+y in the mask} must lie inside the
    mask when x does and miss it otherwise."""
    view = analysis(s).get("member_view", "add", member_view, s.add)
    for x, row in enumerate(member_rows(view, mask)):
        bad = row & ~mask if mask >> x & 1 else row & mask
        if bad:
            return False, (x, (bad & -bad).bit_length() - 1)
    return True, None


def all_ideals_subtractive(s: CayleyStructure) -> bool:
    """Whether every two-sided ideal is subtractive, as the covering
    corollaries assume: the AND of the stored verdicts."""
    return all(_ideal_subtractive(s, mask)[0] for mask in ideal_masks(s, TWO_SIDED))


def is_prime(ideal: IdealSet) -> tuple[bool, Optional[tuple[int, int]]]:
    """Primality via principal-ideal products; on semirings the element-wise
    sandwich criterion is computed as well and the two must agree. A mask
    that is no two-sided ideal is refused, once per mask."""
    s = ideal.structure
    if ideal.side != TWO_SIDED:
        raise ValueError("primality is defined for two-sided ideals")
    if not ideal.is_proper:
        raise ValueError("primality is defined for proper ideals")
    return analysis(s).get("prime", ideal.mask, _checked, _prime, s, ideal.mask)


def _ideal_prime(s: CayleyStructure, mask: int) -> tuple[bool, Optional[tuple[int, int]]]:
    """:func:`is_prime` of a mask known to be a proper ideal, unchecked."""
    return analysis(s).get("prime", mask, _prime, s, mask)


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
    # both scans peel bits off the mask: they mostly stop early, before a
    # list of the members would pay for itself
    witness, rest = None, outside
    while rest and witness is None:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        if rows[a] & outside:
            inner = _meet(rows, principal[a], outside)
            bs = inner & outside
            while bs and witness is None:
                low = bs & -bs
                bs ^= low
                b = low.bit_length() - 1
                if principal[b] & ~inner == 0:
                    witness = (a, b)
    ringoid_prime = witness is None

    if check_laws(s).is_semiring:
        values = _absorb(s, RIGHT)
        sandwich_prime, rest = True, outside
        while rest and sandwich_prime:
            low = rest & -rest
            rest ^= low
            sandwich_prime = not _meet(rows, values[low.bit_length() - 1], outside) & outside
        if sandwich_prime != ringoid_prime:
            raise _prime_disagreement(s, mask, ringoid_prime, sandwich_prime)
    return ringoid_prime, witness


def _prime_disagreement(s: CayleyStructure, mask: int, ringoid_prime: bool, sandwich_prime: bool) -> TheoremViolation:
    ideal = IdealSet(structure=s, side=TWO_SIDED, mask=mask)
    return TheoremViolation(
        f"prime criteria disagree on {ideal!r}: principal={ringoid_prime} sandwich={sandwich_prime}"
    )


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
    """Elements with some positive power inside the ideal; a mask that is
    no ideal is refused."""
    s = ideal.structure
    require_commutative_semiring(s)
    return IdealSet(structure=s, side=ideal.side, mask=radical_mask(s, ideal.mask))


def radical_mask(s: CayleyStructure, mask: int) -> int:
    """The radical's mask, for a caller that has checked that the structure
    is a commutative semiring, where the sides of an ideal agree; a mask
    that is no ideal is refused, once per mask."""
    return analysis(s).get("radical", mask, _checked, _orbit_radical, s, mask)


def _ideal_radical(s: CayleyStructure, mask: int) -> int:
    """:func:`radical_mask` of a mask known to be an ideal, unchecked."""
    return analysis(s).get("radical", mask, _orbit_radical, s, mask)


def _orbit_radical(s: CayleyStructure, mask: int) -> int:
    """The radical of a mask known to be an ideal: the elements whose power
    orbit meets it."""
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


def set_product_mask(a: IdealSet, b: IdealSet) -> int:
    """Raw elementwise products. Not an ideal in general."""
    require_same_structure(a.structure, b, "the second ideal")
    mask = image(a.structure.mul, a.mask, b.mask)
    _require_inside_meets(a, [b], [mask])
    return mask


def lattice_product_masks(lattice: Sequence[IdealSet]) -> list[list[int]]:
    """``set_product_mask`` of every ordered pair of ideals of one structure:
    row i, column j holds the product of ``lattice[i]`` and ``lattice[j]``,
    with its check on every pair. Per ideal b, the row x*b of each element x
    is one gather over b's members; a*b is the union of the rows of a's
    members. Where multiplication commutes, (b, a) reads the union of (a, b)."""
    if not lattice:
        return []
    s = lattice[0].structure
    for b in lattice:
        require_same_structure(s, b, "an ideal")
    bits = [tuple(1 << v for v in row) for row in s.mul]
    gathers = [_gather(mask_members(b.mask)) for b in lattice]
    images = [[functools.reduce(operator.or_, gather(row)) for row in bits] for gather in gathers]
    commutative = check_laws(s).mul_commutative
    products: list[list[int]] = []
    for i, (a, gather) in enumerate(zip(lattice, gathers)):
        start = i if commutative else 0
        row = [products[j][i] for j in range(start)]
        row += [functools.reduce(operator.or_, gather(rows)) for rows in images[start:]]
        _require_inside_meets(a, lattice, row)
        products.append(row)
    return products


def _gather(members: tuple[int, ...]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The entries of a sequence at the members, as one tuple: the first
    member is read twice, since an ``itemgetter`` of one index returns the
    entry alone; an empty mask reads the one entry 0."""
    return operator.itemgetter(*members, *members[:1]) if members else lambda row: (0,)


def _require_inside_meets(a: IdealSet, bs: Sequence[IdealSet], masks: Iterable[int]) -> None:
    """Refuse, as a theorem violation, a set product of a and an ideal b of
    ``bs``, given in ``masks``, that escapes a ∩ b when a is a right and b a
    left ideal, or both are two-sided."""
    for b, mask in zip(bs, masks):
        if mask & ~(a.mask & b.mask) and (a.side == RIGHT and b.side == LEFT or a.side == b.side == TWO_SIDED):
            raise TheoremViolation("product of a right and a left ideal escaped their intersection")


def generated_product(a: IdealSet, b: IdealSet) -> IdealSet:
    side = a.side if a.side == b.side else TWO_SIDED
    return generate_ideal(a.structure, mask_members(set_product_mask(a, b)), side)


def ideal_intersect(a: IdealSet, b: IdealSet) -> IdealSet:
    require_same_structure(a.structure, b, "the second ideal")
    if a.side != b.side:
        raise ValueError("sides differ")
    mask = a.mask & b.mask
    if mask == 0:
        raise StructureError("empty intersection is not an ideal")
    return IdealSet(structure=a.structure, side=a.side, mask=mask)


def _residual_mask(s: CayleyStructure, mask: int, row: int) -> int:
    """(I : t) for an ideal mask I of a commutative semiring, where the
    sides of an ideal agree: ``row``, row t of I's residual rows, checked
    to be an ideal holding I."""
    if not _is_ideal_mask(s, row, TWO_SIDED):
        raise TheoremViolation(f"residual failed to be an ideal: {ideal_violation(s, row, TWO_SIDED)}")
    if mask & ~row:
        raise TheoremViolation("residual does not contain the ideal")
    return row


@dataclass(frozen=True, repr=False)
class IdealClassification(_Verdicts):
    """A two-sided ideal's classes, each flag whether its name has no
    witness. Radical ideals are asked about on commutative semirings only,
    so ``radical_ideal`` is None off them."""

    subtractive: bool = field(init=False)
    proper: bool = field(init=False)
    prime: bool = field(init=False)
    semiprime: bool = field(init=False)
    two_absorbing: bool = field(init=False)
    maximal: bool = field(init=False)
    radical_ideal: Optional[bool] = field(init=False)


_FLAGS = _flag_names(IdealClassification)


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


def classify_ideal(ideal: IdealSet) -> IdealClassification:
    """All classification flags of a two-sided ideal, read from the lattice
    pass."""
    s = ideal.structure
    if ideal.side != TWO_SIDED:
        raise ValueError("classification applies to two-sided ideals")
    cls = analysis(s).get("classes", None, _classify_lattice, s).get(ideal.mask)
    if cls is None:
        raise StructureError(f"not a two-sided ideal: {ideal!r}")
    return cls


def _classify_lattice(s: CayleyStructure) -> dict[int, IdealClassification]:
    """The classification of every two-sided ideal, by mask, in one pass:
    the subtractive, prime, 2-absorbing, elementwise semiprime and radical
    tests run once per ideal when the lattice has at most n ideals, and
    once per element tuple over all ideals when it has more."""
    lattice = ideal_masks(s, TWO_SIDED)
    return _lattice_classes(s, lattice, _sliced_witnesses if len(lattice) > s.size else _per_ideal_witnesses)


def _lattice_classes(s: CayleyStructure, lattice: tuple[int, ...], walk: Callable) -> dict[int, IdealClassification]:
    """The classification of every ideal of the two-sided lattice, with the
    per-test witnesses found by ``walk`` (either layout gives the same).

    Bit j of ``holds[v]`` (``squared[v]``) is set when v lies in the j-th
    ideal of the lattice (in its elementwise square), so the first ideal
    outside I whose square lies inside I, and the first proper strict
    superset of I, are lowest bits of a few ORs and ANDs (kept to
    nonnegative operands, which are several times cheaper on the long
    bitsets of a large lattice). The walk stores each ideal's subtractive,
    prime and radical verdicts per mask. Each class is built from its
    witnesses alone."""
    commutative, full = check_laws(s).is_commutative_semiring, (1 << s.size) - 1
    members = list(map(mask_members, lattice))
    holds, squared = _transpose(lattice, s.size), [0] * s.size
    for x, row in enumerate(s.mul):
        for y, xy in enumerate(row):
            squared[xy] |= holds[x] & holds[y]
    found = walk(s, lattice, holds)
    improper = 1 << lattice.index(full)
    out = {}
    for j, mask in enumerate(lattice):
        witnesses = {"subtractive": found["subtractive"][j]}
        if commutative:
            witnesses["radical_ideal"] = found["radical_ideal"][j]
        if mask == full:  # the other classes need a proper ideal
            witnesses.update(proper=(), prime=(), semiprime=(), two_absorbing=(), maximal=())
        else:
            witnesses["proper"] = None
            witnesses["prime"] = found["prime"][j]
            outside = mask_members(full & ~mask)
            unheld = union_mask(map(holds.__getitem__, outside))
            first = unheld ^ (unheld & union_mask(map(squared.__getitem__, outside)))
            if commutative:
                elem = found["semiprime"][j]
                if (elem is None) != (not first):
                    raise TheoremViolation("elementwise and ideal-square semiprime criteria disagree")
                witnesses["semiprime"] = elem
            else:
                witnesses["semiprime"] = members[(first & -first).bit_length() - 1] if first else None
            witnesses["two_absorbing"] = found["two_absorbing"][j]
            above = functools.reduce(int.__and__, map(holds.__getitem__, members[j])) ^ (1 << j | improper)
            witnesses["maximal"] = members[(above & -above).bit_length() - 1] if above else None
        out[mask] = IdealClassification(witnesses)
    return out


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """The columns of the masks read as rows of a bit matrix: bit j of the
    v-th column is bit v of masks[j], for v below ``width``."""
    rows = [f"{m:0{width}b}" for m in reversed(masks)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def _per_ideal_witnesses(s: CayleyStructure, lattice: tuple[int, ...], holds: list) -> dict[str, list]:
    """Per test, the least witness of each ideal of the lattice (None if it
    passes), each test run once per ideal (``holds`` is left to the other
    layout); each proper ideal's residual rows are gathered once, for its
    prime and 2-absorbing tests."""
    ctx, commutative, full = analysis(s), check_laws(s).is_commutative_semiring, (1 << s.size) - 1
    found = {kind: [None] * len(lattice) for kind in _LATTICE_TESTS}
    for j, mask in enumerate(lattice):
        found["subtractive"][j] = _ideal_subtractive(s, mask)[1]
        if mask != full:
            rows = residual_rows(s, mask)
            found["prime"][j] = ctx.get("prime", mask, _prime, s, mask, rows)[1]
            found["two_absorbing"][j] = _two_absorbing_witness(s, rows)
            if commutative:
                found["semiprime"][j] = _semiprime_elementwise(s, mask)
        if commutative:
            extra = _ideal_radical(s, mask) & ~mask
            found["radical_ideal"][j] = mask_members(extra)[:1] if extra else None
    return found


_LATTICE_TESTS = ("subtractive", "prime", "two_absorbing", "semiprime", "radical_ideal")


def _sliced_witnesses(s: CayleyStructure, lattice: tuple[int, ...], holds: list) -> dict[str, list]:
    """What :func:`_per_ideal_witnesses` finds, from one lexicographic walk
    per test over element tuples. Each tuple yields the bitset of the ideals
    it falsifies, an AND of the ``holds`` of elements and products and of
    their complements (``without``); each ideal it newly falsifies takes it
    as least witness and leaves the walk. The two prime criteria must
    falsify the same ideals on a semiring."""
    ctx, rep = analysis(s), check_laws(s)
    mul, every, full = s.mul, (1 << len(lattice)) - 1, (1 << s.size) - 1
    without = [every ^ h for h in holds]
    found = {kind: [None] * len(lattice) for kind in _LATTICE_TESTS}

    def settle(kind: str, bad: int, witness: tuple) -> None:
        witnesses, bits = found[kind], bin(bad)[:1:-1]
        j = bits.find("1")
        while j >= 0:
            witnesses[j] = witness
            j = bits.find("1", j + 1)

    # subtractive: x+y inside, just one of x, y
    pending = every
    for x, row in enumerate(s.add):
        for y, v in enumerate(row):
            bad = holds[v] & (holds[x] ^ holds[y]) & pending
            if bad:
                pending ^= bad
                settle("subtractive", bad, (x, y))
    # prime: a, b outside and (a)(b) inside; col[v] holds the ideals holding (a)*v
    held = [[holds[v] for v in row] for row in mul]
    principal = list(map(mask_members, principal_masks(s, TWO_SIDED)))
    pending = every
    for a in range(s.size):
        cand = pending & without[a]
        if cand:
            col = [functools.reduce(int.__and__, column) for column in zip(*map(held.__getitem__, principal[a]))]
            for b in range(s.size):
                bad = cand & without[b]
                for v in principal[b]:
                    if not bad:
                        break
                    bad &= col[v]
                if bad:
                    cand ^= bad
                    pending ^= bad
                    settle("prime", bad, (a, b))
    if rep.is_semiring:
        # sandwich: x, y outside and x*t*y inside for every t
        sandwich = every
        for x, values in enumerate(map(mask_members, _absorb(s, RIGHT))):
            cand = sandwich & without[x]
            for y in range(s.size if cand else 0):
                bad = cand & without[y]
                for w in values:
                    if not bad:
                        break
                    bad &= held[w][y]
                cand ^= bad
                sandwich ^= bad
        if sandwich != pending:
            low = (sandwich ^ pending) & -(sandwich ^ pending)
            raise _prime_disagreement(s, lattice[low.bit_length() - 1], bool(pending & low), bool(sandwich & low))
    # 2-absorbing: (x*y)*z inside, none of x*y, y*z, x*z
    lacks = [[without[v] for v in row] for row in mul]
    pending = every
    for x, row in enumerate(mul):
        lacks_x = lacks[x]
        for y, xy in enumerate(row):
            cand = pending & without[xy]
            if cand:
                for z, (h, oy, ox) in enumerate(zip(held[xy], lacks[y], lacks_x)):
                    bad = cand & h & oy & ox
                    if bad:
                        cand ^= bad
                        pending ^= bad
                        settle("two_absorbing", bad, (x, y, z))
    if rep.is_commutative_semiring:
        # elementwise semiprime: x*x inside, x outside; radical: x's power
        # orbit meets the ideal, x outside (bit j of meets[x]: x lies in
        # the radical of the j-th ideal)
        meets = [union_mask(map(holds.__getitem__, mask_members(orbit))) for orbit in _orbits(s)]
        squares = [holds[row[x]] for x, row in enumerate(mul)]
        for kind, falsified in (("semiprime", squares), ("radical_ideal", meets)):
            pending = every
            for x, inside in enumerate(falsified):
                bad = inside & without[x] & pending
                if bad:
                    pending ^= bad
                    settle(kind, bad, (x,))
        ctx.put("radical", dict(zip(lattice, _transpose(meets, len(lattice)))))
    ctx.put("subtractive", {m: (w is None, w) for m, w in zip(lattice, found["subtractive"])})
    ctx.put("prime", {m: (w is None, w) for m, w in zip(lattice, found["prime"]) if m != full})
    return found


def semiprime_residual(ideal: IdealSet, t_set: MultiplicativeSet) -> Optional[tuple[int, IdealSet]]:
    """The least t in T whose residual quotient (I : t) of a two-sided ideal
    is proper and semiprime, with that quotient, or None if there is no
    such t."""
    s = ideal.structure
    if ideal.side != TWO_SIDED:
        raise ValueError("semiprime residuals are taken of two-sided ideals")
    require_same_structure(s, t_set, "T")
    key = (ideal.mask, t_set.mask)
    found = analysis(s).get("semiprime_residual", key, _semiprime_residual, s, *key)
    if found is None:
        return None
    t, mask = found
    return t, IdealSet(structure=s, side=TWO_SIDED, mask=mask)


def _semiprime_residual(s: CayleyStructure, mask: int, t_mask: int) -> Optional[tuple[int, int]]:
    require_commutative_semiring(s)
    _require_ideal(s, mask)
    _element_mask(s, mask_members(t_mask))
    full, rows = (1 << s.size) - 1, residual_rows(s, mask)
    for t in mask_members(t_mask):
        r = _residual_mask(s, mask, rows[t])
        if r != full and _semiprime_elementwise(s, r) is None:
            return t, r
    return None


def t_semiprime_element(ideal: IdealSet, t_set: MultiplicativeSet) -> Optional[int]:
    """The least t in T with t*x in a two-sided ideal disjoint from T for
    every x with x*x in it, or None if the ideal is not T-semiprime."""
    s = ideal.structure
    if ideal.side != TWO_SIDED:
        raise ValueError("T-semiprimeness is defined for two-sided ideals")
    require_same_structure(s, t_set, "T")
    key = (ideal.mask, t_set.mask)
    return analysis(s).get("t_element", key, _t_semiprime_element, s, *key)


def _t_semiprime_element(s: CayleyStructure, mask: int, t_mask: int) -> Optional[int]:
    _require_ideal(s, mask)
    _element_mask(s, mask_members(t_mask))
    if mask & t_mask:
        raise StructureError("T-semiprimeness needs an ideal disjoint from T")
    squared_in = mask_of(x for x, row in enumerate(s.mul) if mask >> row[x] & 1)
    rows = residual_rows(s, mask)
    return next((t for t in mask_members(t_mask) if squared_in & ~rows[t] == 0), None)


def annihilator(m: FiniteSemimodule, xs: Iterable[int]) -> IdealSet:
    """The two-sided ideal of the scalars killing every element of a
    nonempty subset of a semimodule."""
    xs = list(xs)
    if not xs:
        raise StructureError("annihilator of the empty set is undefined")
    require_semimodule(m)
    s = m.semiring
    for x in xs:
        _int_in(x, "module element", 0, m.msize)
    rows = annihilator_rows(m)
    mask = functools.reduce(int.__and__, (rows[x] for x in xs))
    result = IdealSet(structure=s, side=TWO_SIDED, mask=mask)
    if not _is_ideal_mask(s, mask, TWO_SIDED):
        raise StructureError(f"annihilator is not two-sided here: {ideal_violation(s, mask, TWO_SIDED)}")
    if check_laws(s).mul_associative:
        ok, w = _ideal_subtractive(s, mask)
        if not ok:
            raise TheoremViolation(f"annihilator not subtractive, witness {w}")
    return result


def element_annihilators(m: FiniteSemimodule) -> tuple[IdealSet, ...]:
    """Per module element x, the annihilator Ann(x), checked as
    :func:`annihilator` checks it; one fact of the module's context."""
    return analysis(m).get("element_annihilators", None, _element_annihilators, m)


def _element_annihilators(m: FiniteSemimodule) -> tuple[IdealSet, ...]:
    return tuple(annihilator(m, [x]) for x in range(m.msize))


def krull_separation(s: CayleyStructure, t_set: MultiplicativeSet, ideal: IdealSet) -> IdealSet:
    """A prime ideal containing the given one, maximal among ideals disjoint
    from the multiplicative set; ties break to the least member tuple."""
    require_commutative_semiring(s)
    require_same_structure(s, t_set, "T")
    require_same_structure(s, ideal, "the ideal")
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


def random_tree(values: Sequence[int], rng) -> Tree:
    if len(values) == 1:
        return values[0]
    split = rng.randrange(1, len(values))
    return (random_tree(values[:split], rng), random_tree(values[split:], rng))
