"""Prime spectra, the closed-set calculus, and the compactly-packed battery.

The prime ideal masks are read from the structure's analysis context."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .analysis import analysis
from .errors import HypothesesUnmet, TheoremViolation
from .ideals import (
    IdealSet,
    TWO_SIDED,
    all_ideals_subtractive,
    ideal_masks,
    is_prime,
    is_subtractive,
    mask_members,
    principal_masks,
    radical_mask,
    require_same_structure,
    union_mask,
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
    out = []
    for m in ideal_masks(s, TWO_SIDED):
        ideal = IdealSet(structure=s, side=TWO_SIDED, mask=m)
        if ideal.is_proper and is_prime(ideal)[0]:
            out.append(m)
    return tuple(out)


def spec_of(s: CayleyStructure) -> tuple[IdealSet, ...]:
    """All proper two-sided prime ideals, sorted by member tuple."""
    return tuple(
        IdealSet(structure=s, side=TWO_SIDED, mask=m) for m in _spec_masks(s)
    )


def vanishing_sets(
    s: CayleyStructure, ideal: IdealSet
) -> tuple[tuple[IdealSet, ...], tuple[IdealSet, ...]]:
    """Partition of the spectrum into primes containing the ideal and the rest."""
    require_same_structure(s, ideal, "the ideal")
    inside, outside = [], []
    for p in spec_of(s):
        (inside if ideal.issubset(p) else outside).append(p)
    return tuple(inside), tuple(outside)


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

    principal_radicals = tuple(radical_mask(s, pm) for pm in principal_masks(s, TWO_SIDED))

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
        if radical_mask(s, m) != m:
            continue
        if m not in principal_radicals:
            cond5 = False
            break

    table = dict(zip(BATTERY_CONDITIONS, (cond1, cond2, cond3, cond4, cond5)))
    if len(set(table.values())) != 1:
        raise TheoremViolation(f"packedness conditions disagree: {table}")

    weak_gaussian = all(
        is_subtractive(IdealSet(structure=s, side=TWO_SIDED, mask=pm))[0]
        for pm in primes
    )
    return SpectrumReport(
        primes=spec_of(s),
        weak_gaussian=weak_gaussian,
        compactly_packed=cond1,
        equivalence_table=table,
        radical_principal_map=radical_principal_map,
    )


def principal_open_refinement(
    s: CayleyStructure, points: Sequence[IdealSet], ideal: IdealSet
) -> int:
    """An element x of the ideal whose principal open set contains the given
    points and sits inside the open set of the ideal."""
    require_same_structure(s, ideal, "the ideal")
    for p in points:
        require_same_structure(s, p, "a point")
    rep = check_laws(s)
    if not rep.is_semiring:
        raise HypothesesUnmet("needs a semiring")
    if not all_ideals_subtractive(s):
        raise HypothesesUnmet("needs every ideal subtractive")
    for p in points:
        if ideal.issubset(p):
            raise HypothesesUnmet("a point lies outside the open set of the ideal")
    avoid = union_mask(p.mask for p in points)
    rest = ideal.mask & ~avoid
    if not rest:
        raise TheoremViolation("no refinement element despite verified hypotheses")
    x = (rest & -rest).bit_length() - 1
    x_ideal = IdealSet(structure=s, side=TWO_SIDED, mask=principal_masks(s, TWO_SIDED)[x])
    _, d_x = vanishing_sets(s, x_ideal)
    _, d_i = vanishing_sets(s, ideal)
    d_x_masks = {p.mask for p in d_x}
    if any(p.mask not in d_x_masks for p in points):
        raise TheoremViolation("refinement misses a point")
    if any(p.mask not in {q.mask for q in d_i} for p in d_x):
        raise TheoremViolation("refined open set escapes the original")
    return x
