"""Theorem suites: every covering, spectrum, and zero-divisor statement
checked over the whole corpus.

Each suite yields CheckResult rows. A row fails only when a theorem-backed
assertion breaks; inputs that miss a theorem's hypotheses are counted as
unmet, never as failures. The functions here are shared between the command
line runner and the acceptance tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .closure import ordered_search
from .constructions import (
    direct_product,
    endomorphism_ringoid,
    scalar_identity_witness,
)
from .corpus import (
    CorpusEntry,
    corpus,
    corpus_entry,
    corpus_semimodules,
    cross_constants,
    diamond_lattice,
)
from .covering import (
    UNMET,
    WitnessReport,
    _corollary_unmet,
    _efficient_families,
    _mccoy_outcomes,
    avoidance_witness,
    behrens_elements,
    semiring_avoidance,
)
from .errors import CapExceeded, HypothesesUnmet, TheoremViolation
from .ideals import (
    IdealSet,
    TWO_SIDED,
    all_ideals_subtractive,
    annihilator,
    brute_force_ideal_masks,
    classify_ideal,
    element_annihilators,
    enumerate_ideals,
    evaluate_tree,
    generate_ideal,
    ideal_intersect,
    ideal_masks,
    image,
    is_prime,
    is_subtractive,
    krull_separation,
    lattice_product_masks,
    mask_members,
    mask_of,
    mult_closure,
    principal_masks,
    radical,
    radical_mask,
    random_tree,
    semiprime_residual,
    t_semiprime_element,
    union_mask,
)
from .limits import BRUTE_FORCE_CAP
from .spectrum import compactly_packed_battery, spec_of, zariski_axioms
from .tables import LAW_NAMES, CayleyStructure, check_laws, failing_claims, self_action
from .zerodivisors import (
    annihilator_extension_check,
    ass_primes,
    kasch_semilocal_report,
    monoid_zd_check,
    total_quotient,
    zero_divisor_mask,
    zero_divisor_report,
)

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""


def _result(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, status=PASS if ok else FAIL, detail=detail)


def _check(ok: bool, *detail) -> None:
    """A theorem check inside a suite body. Unlike ``assert`` it still runs
    under ``python -O``; ``_guard`` turns the violation into a failure whose
    detail is ``str`` of the given detail, as for an assertion message."""
    if not ok:
        raise TheoremViolation(*detail)


def _guard(name: str, thunk) -> list[CheckResult]:
    """Run a suite body, turning theorem violations into failures and cap or
    hypothesis misses into skips."""
    try:
        return list(thunk())
    except TheoremViolation as exc:
        return [CheckResult(name=name, status=FAIL, detail=str(exc))]
    except (CapExceeded, HypothesesUnmet) as exc:
        return [CheckResult(name=name, status=SKIP, detail=str(exc))]


# --- per-entry suites -------------------------------------------------------


def laws_suite(entry: CorpusEntry) -> Iterator[CheckResult]:
    name = f"{entry.name}/laws"
    rep = check_laws(entry.structure)
    bad = [claim for claim, _ in failing_claims(entry.structure, entry.claims)]
    yield _result(name + "/claims", not bad, f"failing {bad}" if bad else "")
    for flag, expected in sorted(entry.flags.items()):
        actual = _documented_flag(entry.structure, flag, rep)
        yield _result(f"{name}/flag-{flag}", actual == expected, f"documented {expected}, computed {actual}")


def _documented_flag(s: CayleyStructure, flag: str, rep) -> Optional[bool]:
    if flag == "commutative":
        return rep.mul_commutative
    if flag == "subtractive":
        return all_ideals_subtractive(s)
    if flag in ("weak_gaussian", "compactly_packed"):
        battery = compactly_packed_battery(s)
        return getattr(battery, flag)
    return rep.flag(flag)


def ideal_suite(entry: CorpusEntry) -> Iterator[CheckResult]:
    s = entry.structure
    base = f"{entry.name}/ideals"
    rep = check_laws(s)

    if s.size <= BRUTE_FORCE_CAP:
        for side in (TWO_SIDED, "left", "right"):
            fast = ideal_masks(s, side)
            brute = brute_force_ideal_masks(s, side)
            yield _result(
                f"{base}/enumeration-{side}",
                fast == brute,
                f"closure found {len(fast)}, brute force {len(brute)}",
            )

    lattice = enumerate_ideals(s, TWO_SIDED)
    masks = [i.mask for i in lattice]

    # generated ideal equals the intersection of all ideals containing the set
    mismatches = 0
    checked = 0
    singletons = [(x,) for x in range(s.size)]
    pairs = [(x, y) for x in range(s.size) for y in range(x + 1, s.size)]
    for gens in singletons + pairs:
        gen_mask = mask_of(gens)
        meet = None
        for m in masks:
            if gen_mask & ~m == 0:
                meet = m if meet is None else meet & m
        got = generate_ideal(s, gens, TWO_SIDED).mask
        checked += 1
        if got != meet:
            mismatches += 1
    yield _result(f"{base}/generate-is-least", mismatches == 0, f"{checked} generator sets")

    # intersections of subtractive ideals stay subtractive: each distinct
    # nonzero meet is checked once
    subtractive = [a for a in lattice if is_subtractive(a)[0]]
    meets = {a.mask & b.mask: (a, b) for a in subtractive for b in subtractive}
    meets.pop(0, None)
    ok = all(is_subtractive(ideal_intersect(a, b))[0] for a, b in meets.values())
    yield _result(f"{base}/subtractive-intersections", ok)

    # products of ideals stay inside intersections (checked inside the kernel)
    products = lattice_product_masks(lattice)
    yield _result(f"{base}/product-inside-intersection", True, f"{len(lattice)}^2 pairs")

    if rep.is_commutative_semiring:
        radicals = [radical(i) for i in lattice]
        rads = [r.mask for r in radicals]
        ok_rad = all(m & ~rad == 0 and radical(r).mask == rad for m, r, rad in zip(masks, radicals, rads))
        ok_rad = ok_rad and not any(
            m & ~other == 0 and rad & ~other_rad for m, rad in zip(masks, rads) for other, other_rad in zip(masks, rads)
        )
        yield _result(f"{base}/radical-extensive-idempotent-monotone", ok_rad)

    if rep.is_semiring:
        # prime implies the pairwise ideal-product criterion; a pair with a
        # factor inside p passes, so only the ideals outside p are paired
        ok_pairs = True
        for p in lattice:
            if not p.is_proper or not is_prime(p)[0]:
                continue
            outside = [i for i, a in enumerate(masks) if a & ~p.mask]
            if any(products[i][j] & ~p.mask == 0 for i in outside for j in outside):
                ok_pairs = False
        yield _result(f"{base}/prime-ideal-pair-criterion", ok_pairs)

        # classification chain on commutative semirings
        if rep.is_commutative_semiring:
            chain_ok = True
            for i in lattice:
                cls = classify_ideal(i)
                if cls.prime and not cls.semiprime:
                    chain_ok = False
                if cls.semiprime and cls.radical_ideal is False:
                    chain_ok = False
            yield _result(f"{base}/prime-semiprime-radical-chain", chain_ok)

    # annihilator intersections equal annihilators of unions (self action),
    # and both equal {r : r*x = 0 = r*y}, the meet of the kill columns of x
    # and y read off the action table itself; the law is symmetric in x and
    # y, so each pair is visited once, x = y included
    if rep.is_commutative_semiring:
        m = self_action(s)
        mz = m.mzero
        kills = [mask_of(r for r, v in enumerate(column) if v == mz) for column in zip(*m.action)]
        singles = [a.mask for a in element_annihilators(m)]
        ok_ann = True
        for x in range(s.size):
            for y in range(x, s.size):
                lhs = singles[x] & singles[y]
                if lhs != kills[x] & kills[y] or lhs != annihilator(m, [x, y]).mask:
                    ok_ann = False
        yield _result(f"{base}/annihilator-union-law", ok_ann)


def krull_suite(entry: CorpusEntry) -> Iterator[CheckResult]:
    s = entry.structure
    if not check_laws(s).is_commutative_semiring:
        return
    base = f"{entry.name}/krull"
    lattice = enumerate_ideals(s, TWO_SIDED)
    checked = 0
    for t_gen in range(s.size):
        t_set = mult_closure(s, [t_gen])
        for i in lattice:
            if i.mask & t_set.mask:
                continue
            p = krull_separation(s, t_set, i)  # checks primality internally
            checked += 1
            _check(i.issubset(p) and p.mask & t_set.mask == 0)
    yield _result(base, True, f"{checked} separations")


def ringoid_avoidance(entry: CorpusEntry, seed: int) -> Iterator[CheckResult]:
    """Avoidance witness for every family of at most four subtractive primes
    none of which contains the target ideal, by scan and by construction;
    the seed drives the sampled sum trees."""
    s = entry.structure
    if not check_laws(s).is_ringoid:
        return
    lattice = enumerate_ideals(s, TWO_SIDED)
    primes = [p for p in spec_of(s) if is_subtractive(p)[0]]
    rng = random.Random(seed)
    families = 0
    for size in range(1, 5):
        for family in itertools.combinations(primes, size):
            for target in lattice:
                if any(target.issubset(p) for p in family):
                    continue
                report = avoidance_witness(target, list(family))
                _check(report.holds, (target, family))
                families += 1
                if size >= 2:
                    _sample_tree_shapes(s, target, list(family), rng)
    yield _result(f"{entry.name}/ringoid-avoidance", True, f"{families} (ideal, family) pairs")


def _sample_tree_shapes(s, target, family, rng) -> None:
    """Three randomly parenthesized combinations of cross-membership elements
    must avoid every prime in the family, exactly like the left comb."""
    try:
        bs = behrens_elements(target, family)
    except HypothesesUnmet:
        return
    union = union_mask(p.mask for p in family)
    for _ in range(3):
        tree = random_tree(bs, rng)
        value = evaluate_tree(s, tree)
        _check(value in target and not union >> value & 1, (tree, value))


def _coverings(candidates, sizes, targets) -> Iterator[tuple[tuple[IdealSet, ...], list[IdealSet]]]:
    """Each family of each size drawn from the candidates in turn that covers
    some of the targets, with the targets inside its union."""
    for size in sizes:
        for family in itertools.combinations(candidates, size):
            union = union_mask(c.mask for c in family)
            covered = [t for t in targets if t.mask & ~union == 0]
            if covered:
                yield family, covered


def semiring_avoidance_exhaustive(entry: CorpusEntry) -> Iterator[CheckResult]:
    """Every covering of every ideal by at most four subtractive ideals with
    at most two non-primes yields a containing cover."""
    s = entry.structure
    if not check_laws(s).is_semiring or s.size > 8:
        return
    base = f"{entry.name}/semiring-avoidance"
    lattice = enumerate_ideals(s, TWO_SIDED)
    subtractive = [i for i in lattice if is_subtractive(i)[0]]
    prime_mask = {
        i.mask: (i.is_proper and is_prime(i)[0]) for i in lattice
    }
    coverings = 0
    for family, covered in _coverings(subtractive, range(1, 5), lattice):
        non_primes = [c for c in family if not prime_mask[c.mask]]
        if len(non_primes) > 2:
            continue
        ordered = non_primes + [c for c in family if prime_mask[c.mask]]
        for target in covered:
            report = semiring_avoidance(target, ordered)
            _check(report.holds, (target, family))
            coverings += 1
    yield _result(base, True, f"{coverings} coverings")


def corollary_avoidance(entry: CorpusEntry) -> Iterator[CheckResult]:
    """Radical, semiprime, and T-semiprime covering corollaries on every
    covering of a lattice ideal by at most three lattice ideals, with T the
    multiplicative closure of 1, counting the coverings that meet each
    corollary's hypotheses.

    Bit i of a cover's bitset is set when the i-th lattice ideal lies
    inside the cover; a T-semiprime cover P has a second bitset, of its
    semiprime residual (P : t). A family's targets C, the lattice ideals
    inside its union, are found once per union. Where the family meets a
    corollary's hypotheses, the corollary puts each target inside a cover
    (a residual), so C must lie inside the or of the family's cover
    (residual) bitsets, and |C| adds to its count. What depends on one
    cover is read and checked once: its flags, the two sides of its
    T-semiprime equivalence, that its residual is semiprime, and that t*J
    lies inside P for every lattice ideal J inside (P : t)."""
    s = entry.structure
    if _corollary_unmet(s) is not None:
        return
    t_set = mult_closure(s, [check_laws(s).one])
    lattice = enumerate_ideals(s, TWO_SIDED)
    masks = [i.mask for i in lattice]

    def inside(union: int) -> int:
        return sum(1 << i for i, m in enumerate(masks) if m & ~union == 0)

    below = [inside(m) for m in masks]
    classes = [classify_ideal(i) for i in lattice]
    inner = [None] * len(lattice)  # the bitsets of the residuals of the T-semiprime covers
    for k, (p, cls) in enumerate(zip(lattice, classes)):
        if p.mask & t_set.mask or not cls.two_absorbing:
            continue
        found = semiprime_residual(p, t_set)
        direct = t_semiprime_element(p, t_set)
        _check(
            (direct is None) == (found is None),
            f"T-semiprime equivalence broken: direct={direct is not None} residual={found is not None}",
        )
        if found is None:
            continue
        t, residual = found
        _check(classify_ideal(residual).semiprime, "semiprime avoidance failed on residual quotients")
        inner[k] = inside(residual.mask)
        for j in mask_members(inner[k]):
            _check(image(s.mul, 1 << t, masks[j]) & ~p.mask == 0, "t*I escaped the chosen cover")
    # per mode: the covers' bitsets, which covers meet its hypothesis, and
    # how many covers of a family may miss it
    modes = {
        "radical": (below, [c.radical_ideal for c in classes], 2),
        "semiprime": (below, [c.semiprime for c in classes], 2),
        "t-semiprime": (inner, [b is not None for b in inner], 0),
    }
    counts = dict.fromkeys(modes, 0)
    covered = {}
    for size in range(1, 4):
        for family in itertools.combinations(range(len(lattice)), size):
            union = union_mask(masks[k] for k in family)
            targets = covered.get(union)
            if targets is None:
                targets = covered[union] = inside(union)
            for mode, (bitsets, meets, slack) in modes.items():
                if sum(meets[k] for k in family) >= size - slack:
                    contained = union_mask(bitsets[k] for k in family)
                    _check(targets & ~contained == 0, "no containing cover despite verified hypotheses")
                    counts[mode] += targets.bit_count()
    yield _result(f"{entry.name}/corollaries", True, str(counts))


def mccoy_suite(entry: CorpusEntry) -> Iterator[CheckResult]:
    """Every efficient covering of a lattice ideal by three or four lattice
    ideals admits a finite exponent within the ideal-count bound. A cover
    holding the target makes every other cover redundant, so each target's
    families are drawn from the ideals that do not hold it, by the search
    for efficient families, in ``itertools.combinations`` order, three
    covers before four. Each family the search yields is checked to be
    efficient again, and the target's powers are built once, as far as
    some family needs them."""
    s = entry.structure
    if _corollary_unmet(s) is not None:
        return
    lattice = enumerate_ideals(s, TWO_SIDED)
    found = 0
    for target in lattice:
        chain = [target]
        missing = [c for c in lattice if target.mask & ~c.mask]
        masks = [c.mask for c in missing]
        for size in (3, 4):
            for picked in _efficient_families(masks, target.mask, size):
                exponent = _mccoy_outcomes(tuple(missing[k] for k in picked), target, chain)
                redundant = isinstance(exponent, WitnessReport)
                _check(not redundant, "the efficient-cover search yielded a redundant covering")
                _check(exponent <= len(lattice))
                found += 1
    yield _result(f"{entry.name}/mccoy", True, f"{found} efficient coverings")


def packed_suite(entry: CorpusEntry) -> Iterator[CheckResult]:
    s = entry.structure
    rep = check_laws(s)
    if not rep.is_commutative_semiring:
        return
    base = f"{entry.name}/spectrum"
    battery = compactly_packed_battery(s)  # checks agreement of all conditions
    yield _result(f"{base}/battery-agrees", True, str(battery.equivalence_table))
    yield _result(f"{base}/zariski", zariski_axioms(s))

    # the radical of a principal ideal is the meet of the primes through it
    primes = spec_of(s)
    ok = True
    for x, principal in enumerate(principal_masks(s, TWO_SIDED)):
        meet = None
        for p in primes:
            if x in p:
                meet = p.mask if meet is None else meet & p.mask
        if meet is None:
            meet = (1 << s.size) - 1
        if radical_mask(s, principal) != meet:
            ok = False
    yield _result(f"{base}/radical-meets-primes", ok)

    if battery.weak_gaussian:
        yield _result(f"{base}/weak-gaussian-packs", battery.compactly_packed)

    # definitional re-check when packed: unions of prime families trap ideals
    if battery.compactly_packed:
        lattice = enumerate_ideals(s, TWO_SIDED)
        ok = all(
            any(i.issubset(p) for p in family)
            for family, covered in _coverings(primes, range(1, len(primes) + 1), lattice)
            for i in covered
        )
        yield _result(f"{base}/packed-definition", ok)


def zdiv_suite(entry: CorpusEntry) -> Iterator[CheckResult]:
    s = entry.structure
    if not check_laws(s).is_commutative_semiring:
        return
    base = f"{entry.name}/zerodivisors"
    for mod_name, m in sorted(corpus_semimodules(entry).items()):
        report = zero_divisor_report(s, m)  # checks decomposition and very-few
        yield _result(f"{base}/{mod_name}/decomposition", True, f"Z={list(report.zset)}")
        z = zero_divisor_mask(m)
        ass = ass_primes(m)
        ok = True
        for im in ideal_masks(s, TWO_SIDED):
            if im & ~z:
                continue
            if not any(im & ~ann.mask == 0 for _, ann in ass):
                ok = False
        yield _result(f"{base}/{mod_name}/ideal-in-ass-prime", ok)
        yield _result(f"{base}/{mod_name}/property-a", report.property_a)


def quotient_suite(entry: CorpusEntry) -> Iterator[CheckResult]:
    s = entry.structure
    if not check_laws(s).is_commutative_semiring:
        return
    base = f"{entry.name}/quotient"
    q = total_quotient(s)  # checks laws, well-definedness, morphism, units
    report = kasch_semilocal_report(q)
    yield _result(f"{base}/kasch", report.kasch, str(report.maximal_matches))
    yield _result(f"{base}/semilocal-extensions", report.semilocal)
    yield _result(f"{base}/very-few", report.very_few)
    ok = all(annihilator_extension_check(q, x) for x in range(s.size))
    yield _result(f"{base}/annihilator-extension", ok)
    yield _result(
        f"{base}/few-zero-divisors", report.few_zero_divisors, str([p.members() for p in report.decomposition])
    )


def monoid_slice_suite(entry: CorpusEntry, degree_cap: int) -> Iterator[CheckResult]:
    s = entry.structure
    if not check_laws(s).is_commutative_semiring:
        return
    if s.size ** (degree_cap + 1) > 64:
        return
    base = f"{entry.name}/monoid-slices-d{degree_cap}"
    for mod_name, m in sorted(corpus_semimodules(entry).items()):
        if m.msize ** (degree_cap + 1) > 64:
            continue
        report = monoid_zd_check(s, m, degree_cap)
        if report.verdict == UNMET:
            yield CheckResult(
                name=f"{base}/{mod_name}", status=SKIP, detail=report.violated_hypothesis
            )
            continue
        t = report.details
        ok = (
            report.holds
            and t["sup_witnessed"] == t["sup_checked"]
            and t["sub_violations"] == 0
        )
        yield _result(f"{base}/{mod_name}", ok, str(t))


# --- construction suites ----------------------------------------------------


def _medial_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every medial table on n elements, in the lexicographic order of its
    cells read row by row. The ordered search checks an instance
    (a+b)+(c+d) = (a+c)+(b+d) at the step of the latest of its six cells.
    Only instances with b < c are checked: swapping b and c swaps the sides.
    The instances are indexed by the step k that fills the last of their
    four inner cells: in ``new[k]`` one is checked at step k when both its
    outer cells, a+b's row at c+d and a+c's row at b+d, are at most k; past
    that step it lies in ``old`` and is checked at the step equal to its
    later outer cell, so at exactly one step."""
    size = n * n
    new = [[] for _ in range(size)]
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if b < c:
            quad = (a * n + b, c * n + d, a * n + c, b * n + d)
            new[max(quad)].append(quad)
    # old[k]: the instances whose four inner cells were all filled before k
    old = [list(itertools.chain.from_iterable(new[:k])) for k in range(size)]

    def fits(cells, k):
        for p, q, r, u in new[k]:
            left, right = cells[p] * n + cells[q], cells[r] * n + cells[u]
            if left <= k and right <= k and cells[left] != cells[right]:
                return False
        for p, q, r, u in old[k]:
            left, right = cells[p] * n + cells[q], cells[r] * n + cells[u]
            # max(left, right) == k, spelt out: a call to max costs more here
            if (left == k and right <= k or right == k and left <= k) and cells[left] != cells[right]:
                return False
        return True

    return (tuple(cells[i : i + n] for i in range(0, size, n)) for cells in ordered_search(size, n, fits))


def medial_magma_corpus() -> list[tuple]:
    """All medial magma tables of sizes 1 to 3 (1, 10 and 369 of them), each
    size in the lexicographic order of the cells read row by row; then a
    curated batch of size-4 medial operations. Exhausting size 4 is out of
    reach (4^16 tables), so the curated batch stands in for it. The tables
    come from a pruned search (``_medial_tables``), not from filtering all
    n^(n*n) tables."""
    batch = [table for n in range(1, 4) for table in _medial_tables(n)]
    z4 = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
    klein = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
    diamond = diamond_lattice().add
    chain4 = tuple(tuple(max(i, j) for j in range(4)) for i in range(4))
    constant = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    batch.extend([z4, klein, diamond, chain4, constant])
    return batch


def endomorphism_suite() -> Iterator[CheckResult]:
    """Endomorphism structures of medial magmas, up to 64 endomorphisms, are
    ringoids with medial addition and monoid composition."""
    checked = 0
    skipped = 0
    for table in medial_magma_corpus():
        try:
            er = endomorphism_ringoid(table, cap=64)
        except CapExceeded:
            skipped += 1
            continue
        rep = check_laws(er)
        _check(rep.is_ringoid, table)
        _check(rep.mul_associative and rep.add_medial and rep.has_one, table)
        checked += 1
    yield _result("constructions/endomorphism-ringoids", True, f"{checked} magmas, {skipped} over cap")


def product_flag_suite() -> Iterator[CheckResult]:
    """Law flags of a direct product are the conjunctions of the factor flags.

    The entire flag is excluded: a product of entire factors has mixed-axis
    zero products, which dedicated tests pin down.
    """
    entries = [e.structure for e in corpus() if e.structure.size <= 8]
    ok = True
    detail = ""
    for a, b in itertools.combinations(entries, 2):
        if a.size * b.size > 64:
            continue
        pa, pb = check_laws(a), check_laws(b)
        prod = check_laws(direct_product([a, b]))
        for flag in (law for law in LAW_NAMES if law != "entire"):
            expected = pa.flag(flag) and pb.flag(flag)
            if prod.flag(flag) != expected:
                ok = False
                detail = f"{a.name} x {b.name} flag {flag}"
    yield _result("constructions/product-flag-conjunction", ok, detail)


def hemialgebra_suite() -> Iterator[CheckResult]:
    cross = corpus_entry("bool3-cross").structure
    w = scalar_identity_witness(cross, cross_constants())
    yield _result("constructions/scalar-identity", w is None, str(w or ""))


def austere_suite() -> Iterator[CheckResult]:
    s = corpus_entry("austere-z6").structure
    rep = check_laws(s)
    yield _result("austere-z6/zerosumfree-entire", rep.zerosumfree and rep.entire)
    full = (1 << s.size) - 1
    ok = True
    for i in enumerate_ideals(s, "left"):
        if i.mask in (1, full):  # the zero ideal and the whole carrier
            continue
        if is_subtractive(i)[0]:
            ok = False
    yield _result("austere-z6/no-subtractive-intermediate-left-ideals", ok)


# --- runner -----------------------------------------------------------------

SUITES = (
    ("laws", laws_suite),
    ("ideals", ideal_suite),
    ("krull", krull_suite),
    ("ringoid-avoidance", ringoid_avoidance),
    ("semiring-avoidance", semiring_avoidance_exhaustive),
    ("corollaries", corollary_avoidance),
    ("mccoy", mccoy_suite),
    ("spectrum", packed_suite),
    ("zerodivisors", zdiv_suite),
    ("quotient", quotient_suite),
)


def run_entry_suites(entry: CorpusEntry, seed: int = 0) -> list[CheckResult]:
    results: list[CheckResult] = []
    for suite_name, suite in SUITES:
        args = (entry, seed) if suite is ringoid_avoidance else (entry,)
        results.extend(_guard(f"{entry.name}/{suite_name}", lambda: suite(*args)))
    for d in (0, 2):
        results.extend(
            _guard(f"{entry.name}/monoid-slices-d{d}", lambda: monoid_slice_suite(entry, d))
        )
    return results


def run_global_suites() -> list[CheckResult]:
    results: list[CheckResult] = []
    results.extend(_guard("constructions/endomorphism", endomorphism_suite))
    results.extend(_guard("constructions/products", product_flag_suite))
    results.extend(_guard("constructions/hemialgebra", hemialgebra_suite))
    results.extend(_guard("austere-z6/goldens", austere_suite))
    return results


def verify_all(scope: Optional[Iterable[str]] = None, seed: int = 0) -> list[CheckResult]:
    names = set(scope) if scope is not None else None
    results: list[CheckResult] = []
    for entry in corpus():
        if names is not None and entry.name not in names:
            continue
        results.extend(run_entry_suites(entry, seed=seed))
    if names is None:
        results.extend(run_global_suites())
    return results
