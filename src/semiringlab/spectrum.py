"""Prime spectra, the closed-set calculus, and the compactly-packed battery.

The prime ideal masks are read from the structure's analysis context."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .analysis import analysis
from .errors import TheoremViolation
from .ideals import (
    IdealSet,
    TWO_SIDED,
    ideal_masks,
    mask_members,
    principal_masks,
    union_mask,
    _ideal_prime,
    _ideal_radical,
    _ideal_subtractive,
    _semiprime_elementwise,
)
from .tables import CayleyStructure, check_laws, require_commutative_semiring

BATTERY_CONDITIONS = (
    "ideal_union_containment",
    "prime_union_containment",
    "prime_is_radical_of_principal",
    "semiprime_is_radical_of_principal",
    "radical_is_radical_of_principal",
)


def _spec_masks(s: CayleyStructure) -> tuple[int, ...]:
    return analysis(s).get("spectrum", None, _prime_masks, s)


def _prime_masks(s: CayleyStructure) -> tuple[int, ...]:
    full = (1 << s.size) - 1
    return tuple(m for m in ideal_masks(s, TWO_SIDED) if m != full and _ideal_prime(s, m)[0])


def spec_of(s: CayleyStructure) -> tuple[IdealSet, ...]:
    """All proper two-sided prime ideals, sorted by member tuple."""
    return tuple(
        IdealSet(structure=s, side=TWO_SIDED, mask=m) for m in _spec_masks(s)
    )


def zariski_axioms(s: CayleyStructure) -> bool:
    """The family of vanishing sets contains the empty set and the whole
    spectrum and is closed under pairwise union and intersection, with the
    union of two vanishing sets equal to the vanishing set of the meet."""
    require_commutative_semiring(s)
    primes = _spec_masks(s)
    lattice = ideal_masks(s, TWO_SIDED)

    def v_of(ideal_mask: int) -> int:
        """The vanishing set, bit i for the i-th prime holding the ideal."""
        return union_mask(1 << i for i, pm in enumerate(primes) if ideal_mask & ~pm == 0)

    # every ideal holds the zero, so a & b is itself a lattice mask
    v = {m: v_of(m) for m in lattice}
    family = set(v.values())
    if v_of((1 << s.size) - 1) != 0:
        return False
    if v_of(1 << check_laws(s).zero) != (1 << len(primes)) - 1:
        return False
    for a in lattice:
        va = v[a]
        for b in lattice:
            vb = v[b]
            if va | vb != v[a & b] or va | vb not in family or va & vb not in family:
                return False
    return True


@dataclass(frozen=True, repr=False)
class SpectrumReport:
    primes: tuple[IdealSet, ...]
    weak_gaussian: bool
    compactly_packed: bool
    equivalence_table: dict
    radical_principal_map: dict

    def __repr__(self):
        return (
            f"<SpectrumReport primes={len(self.primes)} packed={self.compactly_packed} "
            f"weak_gaussian={self.weak_gaussian}>"
        )


def _union_condition(targets: Sequence[int], primes: Sequence[int]) -> bool:
    """Whether no target (a nonempty mask) is covered by a family of primes
    none of which contains it.

    Every such family lies inside {P : P does not contain the target}, so a
    target is covered by one exactly when that largest family covers it; one
    union per target decides the condition.
    """
    for target in targets:
        if target & ~union_mask(pm for pm in primes if target & ~pm) == 0:
            return False
    return True


def compactly_packed_battery(s: CayleyStructure) -> SpectrumReport:
    """Evaluate the five equivalent packedness conditions independently.

    On a finite spectrum the arbitrary prime families of the first two
    conditions are subsets of the spectrum, and :func:`_union_condition`
    decides them without enumerating those subsets. All five verdicts must
    agree.
    """
    require_commutative_semiring(s)
    primes = _spec_masks(s)
    lattice = ideal_masks(s, TWO_SIDED)

    cond1 = _union_condition(lattice, primes)
    cond2 = _union_condition(primes, primes)

    principal_radicals = tuple(_ideal_radical(s, pm) for pm in principal_masks(s, TWO_SIDED))

    radical_principal_map = {}
    cond3 = True
    for pm in primes:
        found = None
        for x, rm in enumerate(principal_radicals):
            if rm == pm:
                found = x
                break
        radical_principal_map[mask_members(pm)] = found
        if found is None:
            cond3 = False

    full = (1 << s.size) - 1
    cond4 = True
    for m in lattice:
        if m == full or _semiprime_elementwise(s, m) is not None:
            continue
        if m not in principal_radicals:
            cond4 = False
            break

    cond5 = True
    for m in lattice:
        if _ideal_radical(s, m) != m:
            continue
        if m not in principal_radicals:
            cond5 = False
            break

    table = dict(zip(BATTERY_CONDITIONS, (cond1, cond2, cond3, cond4, cond5)))
    if len(set(table.values())) != 1:
        raise TheoremViolation(f"packedness conditions disagree: {table}")

    weak_gaussian = all(_ideal_subtractive(s, pm)[0] for pm in primes)
    return SpectrumReport(
        primes=spec_of(s),
        weak_gaussian=weak_gaussian,
        compactly_packed=cond1,
        equivalence_table=table,
        radical_principal_map=radical_principal_map,
    )
