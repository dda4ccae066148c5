"""Covering and avoidance checks: efficient coverings, avoidance witnesses,
exponent bounds for efficient coverings, and the corollary suites.

Every check takes (target, covers), after Davis' element. The five whose
covers must cover the target reject no covers, covers over another
structure and an uncovered target with ValueError;
:func:`avoidance_witness` and :func:`davis_witness` take primes that the
target escapes, and with :func:`behrens_elements` refuse primes over
another structure. The corollaries share one hypothesis gate (a
commutative semiring whose ideals are all subtractive) and read stored
facts: each cover's classification flags, and its least T-element and its
semiprime residual per (cover, T), the two sides of the T-semiprime
equivalence, which must agree.

The radical, semiprime and T-semiprime corollaries and McCoy's exponent
have one implementation, a kernel that checks a statement for one family of
covers against every target it covers, reading what depends on the family
alone once. The public checks run it on their one target after the gate.
The McCoy suite of :mod:`semiringlab.suites` runs McCoy's kernel on each
efficient covering that :func:`_efficient_families` finds; the corollary
suite checks every covering of a lattice from per-cover bitsets instead.

Operations validate their hypotheses first. Reports never publish an
unchecked verdict: every holds verdict re-verifies the claimed witness, and
a verified-hypothesis run that cannot reach the guaranteed conclusion raises
TheoremViolation instead of guessing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .closure import ordered_search
from .errors import HypothesesUnmet, TheoremViolation
from .ideals import (
    IdealSet,
    MultiplicativeSet,
    TWO_SIDED,
    _element_mask,
    all_ideals_subtractive,
    classify_ideal,
    evaluate_tree,
    generated_product,
    ideal_masks,
    image,
    is_prime,
    is_subtractive,
    left_comb,
    mask_members,
    maximal_masks,
    principal_masks,
    require_same_structure,
    residual_rows,
    semiprime_residual,
    t_semiprime_element,
    union_mask,
)
from .tables import CayleyStructure, check_laws

HOLDS = "holds"
FAILS = "fails"
UNMET = "hypotheses_unmet"


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a covering check.

    Producers re-verify the claim before constructing a holds report, so a
    witness or exponent always satisfies the reported conclusion.
    """

    verdict: str
    witness: object = None
    violated_hypothesis: Optional[str] = None
    exponent: Optional[int] = None
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def _unmet(hypothesis: str, **details) -> WitnessReport:
    return WitnessReport(verdict=UNMET, violated_hypothesis=hypothesis, details=details)


def _covering(target: IdealSet, covers: Sequence[IdealSet]) -> tuple[IdealSet, ...]:
    """The covers as a tuple, once they are known to live over the target's
    structure (or one equal to it) and to cover the target."""
    covers = tuple(covers)
    if not covers:
        raise ValueError("a covering needs at least one cover")
    s, union = target.structure, 0
    for c in covers:
        require_same_structure(s, c, "a cover")
        union |= c.mask
    if target.mask & ~union:
        raise ValueError("not a covering: target escapes the union")
    return covers


def _first_inside(mask: int, masks: Sequence[int]) -> Optional[int]:
    """The index of the first of the masks holding the mask, or None."""
    return next((k for k, m in enumerate(masks) if mask & ~m == 0), None)


def _redundant(target: IdealSet, covers: Sequence[IdealSet]) -> Optional[int]:
    """The index of the first cover whose removal still leaves the target
    covered, or None when the covering is efficient."""
    masks = [c.mask for c in covers]
    return _first_inside(target.mask, [union_mask(masks[:k] + masks[k + 1:]) for k in range(len(masks))])


def is_efficient(target: IdealSet, covers: Sequence[IdealSet]) -> bool:
    """Whether no cover can be dropped from a covering of the target."""
    return _redundant(target, _covering(target, covers)) is None


def _corollary_unmet(s: CayleyStructure) -> Optional[WitnessReport]:
    """The report for a structure outside the corollaries' setting, a
    commutative semiring whose ideals are all subtractive, or None."""
    if not check_laws(s).is_commutative_semiring:
        return _unmet("commutative-semiring")
    if not all_ideals_subtractive(s):
        return _unmet("subtractive-semiring")
    return None


def _primes_over(s: CayleyStructure, primes: Sequence[IdealSet]) -> list[IdealSet]:
    """The primes as a list, once they are known to live over s (or a
    structure equal to it)."""
    primes = list(primes)
    for p in primes:
        require_same_structure(s, p, "a prime")
    return primes


def _verify_subtractive_primes(primes: Sequence[IdealSet]) -> Optional[WitnessReport]:
    for k, p in enumerate(primes):
        ok, w = is_subtractive(p)
        if not ok:
            return _unmet("subtractivity", index=k, witness=w)
        if not p.is_proper:
            return _unmet("primality", index=k, witness="not proper")
        prime, w = is_prime(p)
        if not prime:
            return _unmet("primality", index=k, witness=w)
    return None


def _scan_avoiding(target_mask: int, avoid_mask: int) -> Optional[int]:
    rest = target_mask & ~avoid_mask
    return (rest & -rest).bit_length() - 1 if rest else None


def _prime_pair_product(
    s: CayleyStructure, principal: Sequence[int], left: int, right: int, rows: Sequence[int]
) -> int:
    """Least product of principal-ideal members avoiding a prime that
    contains neither generator, read off the prime's residual rows: the
    least u in (left) whose row misses part of (right), times the least v."""
    for u in mask_members(principal[left]):
        missed = principal[right] & ~rows[u]
        if missed:
            return s.mul[u][(missed & -missed).bit_length() - 1]
    raise TheoremViolation(
        "no product of principal-ideal members avoids the prime; primality is broken"
    )


def behrens_elements(
    ideal: IdealSet, primes: Sequence[IdealSet], pattern: Optional[Sequence[int]] = None
) -> list[int]:
    """For each l, an element of the ideal inside every prime except the l-th.

    Needs the cross-membership pattern: for each i some a_i in the ideal
    belongs to P_i and to no other P_k. With n = 1 the convention is an
    element of the ideal avoiding the single prime.
    """
    s = ideal.structure
    primes = _primes_over(s, primes)
    n = len(primes)
    if n == 0:
        raise ValueError("need at least one prime")
    if pattern is not None and len(pattern) != n:
        raise ValueError(f"pattern has {len(pattern)} elements for {n} primes")
    if n == 1:
        a = _scan_avoiding(ideal.mask, primes[0].mask)
        if a is None:
            raise HypothesesUnmet("ideal lies inside the single prime")
        return [a]
    if pattern is None:
        pattern = []
        for i, p in enumerate(primes):
            others = union_mask(q.mask for k, q in enumerate(primes) if k != i)
            a_i = _scan_avoiding(ideal.mask & p.mask, others)
            if a_i is None:
                raise HypothesesUnmet(f"no pattern element for prime {i}")
            pattern.append(a_i)
    else:
        pattern = list(pattern)
        for i, a_i in enumerate(pattern):
            if a_i not in ideal or a_i not in primes[i]:
                raise HypothesesUnmet(f"pattern element {i} misplaced")
            if any(a_i in primes[k] for k in range(n) if k != i):
                raise HypothesesUnmet(f"pattern element {i} lies in another prime")

    principal = principal_masks(s, TWO_SIDED)
    out = []
    for l in range(n):
        factors = [pattern[i] for i in range(n) if i != l]
        rows = residual_rows(s, primes[l].mask)
        cur = factors[0]
        for nxt in factors[1:]:
            cur = _prime_pair_product(s, principal, cur, nxt, rows)
        if cur not in ideal:
            raise TheoremViolation("constructed element escaped the ideal")
        for i in range(n):
            inside = cur in primes[i]
            if i == l and inside:
                raise TheoremViolation("constructed element landed in the excluded prime")
            if i != l and not inside:
                raise TheoremViolation("constructed element missed a required prime")
        out.append(cur)
    return out


def _avoid_constructive(s: CayleyStructure, ideal: IdealSet, primes: list[IdealSet]) -> int:
    n = len(primes)
    if n == 0:
        return (ideal.mask & -ideal.mask).bit_length() - 1
    if n == 2:
        x = _scan_avoiding(ideal.mask, primes[0].mask)
        y = _scan_avoiding(ideal.mask, primes[1].mask)
        if x not in primes[1]:
            return x
        if y not in primes[0]:
            return y
        c = s.add[x][y]
        if c in primes[0] or c in primes[1]:
            raise TheoremViolation("two-ideal avoidance broke despite subtractivity")
        return c
    candidates = [
        _avoid_constructive(s, ideal, [p for k, p in enumerate(primes) if k != i])
        for i in range(n)
    ]
    for i, a_i in enumerate(candidates):
        if a_i not in primes[i]:
            return a_i
    # the candidates avoid every other prime by construction, so a pattern
    # that behrens_elements refuses means the construction broke
    try:
        bs = behrens_elements(ideal, primes, pattern=candidates)
    except HypothesesUnmet as exc:
        raise TheoremViolation(f"the constructed pattern broke: {exc}") from None
    return evaluate_tree(s, left_comb(bs))


def avoidance_witness(ideal: IdealSet, primes: Sequence[IdealSet]) -> WitnessReport:
    """An element of the ideal avoiding every listed subtractive prime.

    Found twice: by direct scan and by the constructive route that combines
    cross-membership elements through a sum tree. Both must succeed.
    """
    s = ideal.structure
    primes = _primes_over(s, primes)
    bad = _verify_subtractive_primes(primes)
    if bad is not None:
        return bad
    for k, p in enumerate(primes):
        if ideal.issubset(p):
            return _unmet("containment", index=k)
    union = union_mask(p.mask for p in primes)
    scanned = _scan_avoiding(ideal.mask, union)
    constructed = _avoid_constructive(s, ideal, primes)
    if scanned is None:
        raise TheoremViolation("avoidance witness missing despite verified hypotheses")
    if constructed not in ideal or union >> constructed & 1:
        raise TheoremViolation("constructive route produced a bad witness")
    return WitnessReport(
        verdict=HOLDS, witness=scanned, details={"constructive": constructed}
    )


def semiring_avoidance(ideal: IdealSet, covers: Sequence[IdealSet]) -> WitnessReport:
    """Containing index for an ideal covered by subtractive ideals of which
    all but the first two are prime.

    When a hypothesis fails and no containing cover exists the report is a
    plain failure naming the broken hypothesis; that combination is exactly
    what the non-subtractive counterexamples exhibit.
    """
    covers = _covering(ideal, covers)
    violations = []
    for k, p in enumerate(covers):
        ok, w = is_subtractive(p)
        if not ok:
            violations.append(("subtractivity", k, w))
    for k, p in enumerate(covers[2:], start=2):
        if not p.is_proper:
            violations.append(("primality", k, "not proper"))
            continue
        prime, w = is_prime(p)
        if not prime:
            violations.append(("primality", k, w))
    containing = _first_inside(ideal.mask, [p.mask for p in covers])
    if containing is not None:
        return WitnessReport(
            verdict=HOLDS, witness=containing, details={"violations": tuple(violations)}
        )
    if violations:
        return WitnessReport(
            verdict=FAILS,
            violated_hypothesis=violations[0][0],
            details={"violations": tuple(violations)},
        )
    raise TheoremViolation("no containing cover despite verified hypotheses")


def davis_witness(x: int, ideal: IdealSet, primes: Sequence[IdealSet]) -> WitnessReport:
    """Some y in the ideal with x+y outside every listed subtractive prime,
    provided (x) + ideal is not covered by the primes."""
    s = ideal.structure
    primes = _primes_over(s, primes)
    _element_mask(s, [x])
    rep = check_laws(s)
    if not rep.is_semiring:
        return _unmet("semiring")
    bad = _verify_subtractive_primes(primes)
    if bad is not None:
        return bad
    add = s.add
    sum_mask = image(add, principal_masks(s, TWO_SIDED)[x], ideal.mask)
    union = union_mask(p.mask for p in primes)
    if sum_mask & ~union == 0:
        return _unmet("containment", detail="(x) + I lies inside the union")

    scanned = next((y for y in mask_members(ideal.mask) if not union >> add[x][y] & 1), None)
    if scanned is None:
        raise TheoremViolation("no witness by scan despite verified hypotheses")

    # constructive route: multiply the ideal through the maximal primes
    # missing x, then avoid the maximal primes containing x
    chain, avoid = ideal.mask, 0
    for pm in maximal_masks(p.mask for p in primes):
        if pm >> x & 1:
            avoid |= pm
        else:
            chain = image(s.mul, chain, pm)
    constructed = _scan_avoiding(chain, avoid)
    if constructed is None:
        raise TheoremViolation("constructive route found no element")
    if constructed not in ideal:
        raise TheoremViolation("constructive element escaped the ideal")
    if union >> add[x][constructed] & 1:
        raise TheoremViolation("constructive element fails avoidance")
    return WitnessReport(
        verdict=HOLDS, witness=scanned, details={"constructive": constructed}
    )


# --- the covering kernel: per family of two-sided covers of a structure past
# the corollaries' gate, one outcome per target, a witness or the report of
# a hypothesis the family misses, built once for all its targets; McCoy's
# takes one target. The public checks run these kernels; the suites do not
# run them per family. The McCoy suite draws each target's efficient
# families from ``_efficient_families``, a search over the ideals missing
# it, and the corollary suite counts and checks a family by or-ing the
# bitsets of the lattice ideals inside each cover and each cover's residual

_MODE_FLAGS = {"radical": "radical_ideal", "semiprime": "semiprime"}


def _union_outcomes(family: Sequence[IdealSet], targets: Sequence[IdealSet], mode: str) -> list:
    """Per target, the index of the first cover holding it, when all but at
    most two covers are radical (mode 'radical') or semiprime (mode
    'semiprime'); else the hypothesis-count report."""
    needed = len(family) - 2
    # two covers may miss the hypothesis, so only larger families are counted
    if needed > 0:
        qualifying = sum(getattr(classify_ideal(c), _MODE_FLAGS[mode]) for c in family)
        if qualifying < needed:
            return [_unmet("hypothesis-count", qualifying=qualifying, needed=needed)] * len(targets)
    masks = [c.mask for c in family]
    found = [_first_inside(t.mask, masks) for t in targets]
    if None in found:
        raise TheoremViolation("no containing cover despite verified hypotheses")
    return found


def _t_semiprime_outcomes(
    family: Sequence[IdealSet], targets: Sequence[IdealSet], t_set: MultiplicativeSet
) -> list:
    """Per target I, (t, j) with t*I inside the j-th cover, when every cover
    is T-semiprime and 2-absorbing; else the report of the first cover, in
    order, that is not. The t and j come out of the semiprime residuals
    (P : t) of the covers, which cover I in turn."""
    ts, residuals = [], []
    for k, p in enumerate(family):
        if p.mask & t_set.mask:
            return [_unmet("t-disjointness", index=k)] * len(targets)
        cls = classify_ideal(p)
        if not cls.two_absorbing:
            return [_unmet("2-absorbing", index=k, witness=cls.witnesses["two_absorbing"])] * len(targets)
        # a cover is T-semiprime exactly when some residual (P : t) is
        # semiprime: both sides are computed and must agree
        found = semiprime_residual(p, t_set)
        direct = t_semiprime_element(p, t_set)
        if (direct is None) != (found is None):
            raise TheoremViolation(
                f"T-semiprime equivalence broken: direct={direct is not None} residual={found is not None}"
            )
        if found is None:
            return [_unmet("t-semiprime", index=k)] * len(targets)
        ts.append(found[0])
        residuals.append(found[1])
    out = []
    for target, j in zip(targets, _union_outcomes(residuals, targets, "semiprime")):
        if isinstance(j, WitnessReport):
            raise TheoremViolation("semiprime avoidance failed on residual quotients")
        if image(target.structure.mul, 1 << ts[j], target.mask) & ~family[j].mask:
            raise TheoremViolation("t*I escaped the chosen cover")
        out.append((ts[j], j))
    return out


def _mccoy_outcomes(
    family: Sequence[IdealSet], target: IdealSet, chain: list[IdealSet]
) -> Union[int, WitnessReport]:
    """The least k with the k-th power of the target inside the intersection
    of a covering by at least three covers, where the covering is
    efficient; else the efficiency report. ``chain`` holds the powers of
    the target built so far, for reuse across its families."""
    if _redundant(target, family) is not None:
        return _unmet("efficiency")
    masks = [c.mask for c in family]
    mask = target.mask
    total = functools.reduce(int.__and__, masks)
    # inside the target, any n-1 of the covers already meet in all n
    for k in range(len(masks)):
        if mask & functools.reduce(int.__and__, masks[:k] + masks[k + 1:]) != mask & total:
            raise TheoremViolation("intersection lemma failed on an efficient covering")
    exponent = _least_power_inside(chain, total, len(ideal_masks(target.structure, TWO_SIDED)))
    if exponent is None:
        raise TheoremViolation("no exponent within the ideal-count bound")
    return exponent


def _efficient_families(masks: Sequence[int], target: int, size: int) -> Iterator[tuple[int, ...]]:
    """Every index tuple i_0 < ... < i_(size-1), size >= 1, whose masks
    cover the target efficiently, in ``itertools.combinations`` order: each
    mask holds a point of the target that no other mask holds.

    The ordered search (:func:`semiringlab.closure.ordered_search`) picks
    the indices in increasing order and leaves a branch once its newest
    mask adds no point of the target, once an earlier mask's private part
    of the target is empty, or once the chosen masks and every later mask
    together miss a point of the target. Adding a mask only shrinks the
    private parts, so no cut drops an efficient family. ``once[k]`` and
    ``twice[k]`` hold the target's points that the first k chosen masks
    cover at least once and at least twice."""
    parts = [m & target for m in masks]
    later = [0] * (len(parts) + 1)  # later[i]: the points of masks i, i+1, ...
    for i in reversed(range(len(parts))):
        later[i] = later[i + 1] | parts[i]
    once, twice, last = [0] * (size + 1), [0] * (size + 1), size - 1

    def fits(picked, k):
        i = picked[k]
        if k and i <= picked[k - 1]:
            return False
        part, seen = parts[i], once[k]
        if not part & ~seen:
            return False
        both = twice[k] | part & seen
        for j in range(k):
            if not parts[picked[j]] & ~both:
                return False
        covered = seen | part
        if k == last:
            if covered != target:
                return False
        # a later mask could add nothing to a covered target
        elif covered == target or covered | later[i + 1] != target:
            return False
        once[k + 1], twice[k + 1] = covered, both
        return True

    return ordered_search(size, len(parts), fits)


def _least_power_inside(chain: list[IdealSet], total: int, bound: int) -> Optional[int]:
    """The least k <= bound with the k-th power of ``chain[0]`` inside
    ``total``, or None. The chain holds the powers built so far and grows by
    ``generated_product`` only as far as asked, and not once two successive
    powers agree."""
    for k in range(bound):
        if k == len(chain):
            if k > 1 and chain[-1].mask == chain[-2].mask:
                return None
            chain.append(generated_product(chain[-1], chain[0]))
        if chain[k].mask & ~total == 0:
            return k + 1
    return None


def _two_sided(s: CayleyStructure, covers: Sequence[IdealSet]) -> list[IdealSet]:
    """The covers as two-sided ideals of s: in a commutative semiring every
    one-sided ideal is two-sided, so a cover is classified by its mask."""
    return [IdealSet(structure=s, side=TWO_SIDED, mask=c.mask) for c in covers]


def _report(outcome) -> WitnessReport:
    """A kernel outcome of a public check as a report."""
    return outcome if isinstance(outcome, WitnessReport) else WitnessReport(verdict=HOLDS, witness=outcome)


def mccoy_exponent(target: IdealSet, covers: Sequence[IdealSet]) -> WitnessReport:
    """Least power of the target landing inside the intersection of an
    efficient covering with at least three covers."""
    covers = _covering(target, covers)
    unmet = _corollary_unmet(target.structure)
    if unmet is not None:
        return unmet
    if len(covers) < 3:
        return _unmet("cover-count", count=len(covers))
    exponent = _mccoy_outcomes(covers, target, [target])
    if isinstance(exponent, WitnessReport):
        return exponent
    total = functools.reduce(int.__and__, (c.mask for c in covers))
    return WitnessReport(verdict=HOLDS, exponent=exponent, details={"intersection": mask_members(total)})


def union_avoidance_suite(
    ideal: IdealSet, covers: Sequence[IdealSet], mode: str
) -> WitnessReport:
    """Containing index when all but at most two covers are radical ideals
    (mode 'radical') or semiprime ideals (mode 'semiprime'), read from each
    cover's stored classification."""
    if mode not in _MODE_FLAGS:
        raise ValueError("mode must be 'radical' or 'semiprime'")
    s = ideal.structure
    unmet = _corollary_unmet(s)
    if unmet is not None:
        return unmet
    covers = _two_sided(s, _covering(ideal, covers))
    return _report(_union_outcomes(covers, [ideal], mode)[0])


def t_semiprime_avoidance(
    ideal: IdealSet, covers: Sequence[IdealSet], t_set: MultiplicativeSet
) -> WitnessReport:
    """Some t in T with t*I inside one of the covers, each cover being
    T-semiprime and 2-absorbing. The t comes out of the residual quotients."""
    s = ideal.structure
    unmet = _corollary_unmet(s)
    if unmet is not None:
        return unmet
    covers = _two_sided(s, _covering(ideal, covers))
    require_same_structure(s, t_set, "T")
    return _report(_t_semiprime_outcomes(covers, [ideal], t_set)[0])
