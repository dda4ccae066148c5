"""Ideal generation, enumeration, classification, and sum-tree properties.

Derived expectations are computed by in-test oracles: subset filters for
enumeration, direct table scans for radicals and annihilators, and hand
expansions for the chain semiring.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from semiringlab.corpus import (
    austere_z6,
    boolean_semifield,
    boolean_square,
    chain_semiring,
    componentwise_module,
    dual_numbers_mod2,
    saturating,
)
from semiringlab.errors import HypothesesUnmet, StructureError
from semiringlab.constructions import direct_product
from semiringlab.covering import t_semiprime_avoidance
from semiringlab.analysis import analysis
from semiringlab.ideals import (
    LEFT,
    RIGHT,
    IdealSet,
    MultiplicativeSet,
    TWO_SIDED,
    _residual_mask,
    annihilator,
    classify_ideal,
    enumerate_ideals,
    evaluate_tree,
    generate_ideal,
    generated_product,
    ideal_intersect,
    ideal_masks,
    is_prime,
    is_subtractive,
    krull_separation,
    left_comb,
    mask_members,
    mask_of,
    maximal_masks,
    mult_closure,
    radical,
    radical_mask,
    residual_rows,
    set_product_mask,
    semiprime_residual,
    t_semiprime_element,
)
from semiringlab.tables import CayleyStructure, check_laws, self_action
from semiringlab.zerodivisors import zero_divisor_report

from helpers import make_ideal


def subset_filter_oracle(s, side):
    """Independent enumeration: test closure of every nonempty subset directly."""
    found = []
    for bits in range(1, 1 << s.size):
        members = [x for x in range(s.size) if bits >> x & 1]
        ok = all(s.add[x][y] in members_set for members_set in [set(members)] for x in members for y in members)
        if not ok:
            continue
        mset = set(members)
        if side in ("left", TWO_SIDED):
            if not all(s.mul[r][x] in mset for r in range(s.size) for x in members):
                continue
        if side in ("right", TWO_SIDED):
            if not all(s.mul[x][r] in mset for r in range(s.size) for x in members):
                continue
        found.append(bits)
    return sorted(found, key=mask_members)


# --- generation ----------------------------------------------------------------

def test_generate_ideal_on_chain():
    t = chain_semiring()
    got = generate_ideal(t, [1])
    assert got.members() == (0, 1)
    # cross check: intersection of all enumerated ideals containing the element
    meet = None
    for m in subset_filter_oracle(t, TWO_SIDED):
        if m >> 1 & 1:
            meet = m if meet is None else meet & m
    assert got.mask == meet


def test_generate_from_one_gives_everything():
    for s in (boolean_semifield(), chain_semiring(), dual_numbers_mod2()):
        one = check_laws(s).one
        assert generate_ideal(s, [one]).mask.bit_count() == s.size


def test_generate_from_empty_set():
    t = chain_semiring()
    assert generate_ideal(t, []).members() == (0,)


@pytest.mark.parametrize(
    "build",
    [
        lambda s: mult_closure(s, [7]),
        lambda s: mult_closure(s, [-1, 2]),
        lambda s: generate_ideal(s, [-1]),
        lambda s: generate_ideal(s, [1.0]),
        lambda s: annihilator(self_action(s), [1.0]),
        # a str among ints once failed to sort, with TypeError
        lambda s: annihilator(self_action(s), [0, "1"]),
    ],
    ids=[
        "mult-closure",
        "negative-member",
        "negative-generator",
        "float-generator",
        "float-module-element",
        "str-module-element",
    ],
)
def test_set_constructors_reject_elements_outside_the_carrier(build):
    with pytest.raises(StructureError, match="element out of range"):
        build(chain_semiring())


def test_generate_empty_needs_zero():
    # a ringoid with constant operations has no additive neutral
    s = CayleyStructure(size=2, add=((1, 1), (1, 1)), mul=((1, 1), (1, 1)))
    assert check_laws(s).is_ringoid and not check_laws(s).has_zero
    with pytest.raises(StructureError):
        generate_ideal(s, [])


def test_generate_least_property_corpus_wide(all_entries):
    for e in all_entries:
        s = e.structure
        if s.size > 8:
            continue
        lattice = subset_filter_oracle(s, TWO_SIDED)
        for x in range(s.size):
            meet = None
            for m in lattice:
                if m >> x & 1:
                    meet = m if meet is None else meet & m
            assert generate_ideal(s, [x]).mask == meet


# --- enumeration ----------------------------------------------------------------

@pytest.mark.parametrize(
    "factory,expected",
    [
        (boolean_semifield, [(0,), (0, 1)]),
        (chain_semiring, [(0,), (0, 1), (0, 1, 2)]),
    ],
)
def test_enumeration_small_goldens(factory, expected):
    s = factory()
    assert [i.members() for i in enumerate_ideals(s)] == expected


def test_f2xy_has_six_ideals():
    s = dual_numbers_mod2()
    ideals = enumerate_ideals(s)
    assert len(ideals) == 6
    members = {i.members() for i in ideals}
    assert (0,) in members and tuple(range(8)) in members
    assert (0, 1, 2, 3) in members  # the maximal ideal spanned by x and y


def test_enumeration_matches_subset_filter(all_entries):
    for e in all_entries:
        s = e.structure
        if s.size > 8:
            continue
        for side in (TWO_SIDED, "left", "right"):
            assert list(ideal_masks(s, side)) == subset_filter_oracle(s, side)


def test_zero_free_ringoid_enumeration():
    s = CayleyStructure(size=2, add=((1, 1), (1, 1)), mul=((1, 1), (1, 1)))
    assert [mask_members(m) for m in ideal_masks(s)] == [(0, 1), (1,)]


# --- subtractivity ----------------------------------------------------------------

def test_annihilators_are_subtractive(all_entries):
    for e in all_entries:
        s = e.structure
        rep = check_laws(s)
        if not rep.is_semiring:
            continue
        m = self_action(s)
        for x in range(s.size):
            ok, _ = is_subtractive(annihilator(m, [x]))
            assert ok


def test_austere_witness_golden():
    s = austere_z6()
    m1 = generate_ideal(s, [3])  # residue 2
    assert m1.members() == (0, 1, 3, 5)
    ok, witness = is_subtractive(m1)
    assert not ok
    assert witness == (1, 2)  # residues 0 and 1: 0 + 1 = 0 lands in the ideal


def test_zero_ideal_subtractive_in_zerosumfree():
    s = chain_semiring()
    ok, _ = is_subtractive(generate_ideal(s, []))
    assert ok


# --- primality ----------------------------------------------------------------

def test_chain_middle_ideal_prime():
    t = chain_semiring()
    p = make_ideal(t, [0, 1])
    assert is_prime(p) == (True, None)


def test_chain_zero_ideal_not_prime():
    t = chain_semiring()
    ok, witness = is_prime(make_ideal(t, [0]))
    assert not ok
    assert witness == (1, 1)  # the nilpotent middle element squares to zero


def test_zero_prime_in_entire_semiring():
    for s in (boolean_semifield(), austere_z6()):
        zero = check_laws(s).zero
        assert is_prime(make_ideal(s, [zero]))[0]


def test_prime_requires_proper():
    t = chain_semiring()
    with pytest.raises(ValueError):
        is_prime(make_ideal(t, [0, 1, 2]))


def test_prime_criteria_agree_independsource(all_entries):
    """Independent replication of both criteria, then agreement, entrywise."""
    for e in all_entries:
        s = e.structure
        if not check_laws(s).is_semiring or s.size > 8:
            continue
        principal = [generate_ideal(s, [x]).mask for x in range(s.size)]
        for m in ideal_masks(s, TWO_SIDED):
            if m == (1 << s.size) - 1:
                continue
            outside = [a for a in range(s.size) if not m >> a & 1]
            kernel = lambda am, bm: all(
                m >> s.mul[u][v] & 1
                for u in range(s.size)
                if am >> u & 1
                for v in range(s.size)
                if bm >> v & 1
            )
            principal_prime = not any(
                kernel(principal[a], principal[b]) for a in outside for b in outside
            )
            sandwich_prime = not any(
                all(m >> s.mul[s.mul[x][t]][y] & 1 for t in range(s.size))
                for x in outside
                for y in outside
            )
            assert principal_prime == sandwich_prime
            ideal = IdealSet(structure=s, side=TWO_SIDED, mask=m)
            assert is_prime(ideal)[0] == principal_prime


# --- classification ----------------------------------------------------------------

def test_chain_middle_classification():
    t = chain_semiring()
    cls = classify_ideal(make_ideal(t, [0, 1]))
    assert cls.semiprime and cls.two_absorbing and cls.prime
    assert cls.subtractive and cls.maximal and cls.radical_ideal


def test_whole_carrier_classification():
    t = chain_semiring()
    cls = classify_ideal(make_ideal(t, [0, 1, 2]))
    assert not cls.proper and not cls.prime and not cls.semiprime
    assert not cls.maximal


def test_semiprime_is_t_semiprime_with_one(all_entries):
    for e in all_entries:
        s = e.structure
        rep = check_laws(s)
        if not rep.is_commutative_semiring:
            continue
        t_set = mult_closure(s, [rep.one])
        for i in enumerate_ideals(s):
            if not i.is_proper or i.mask & t_set.mask:
                continue
            if classify_ideal(i).semiprime:
                assert t_semiprime_element(i, t_set) == rep.one


def test_classification_chain_invariant(all_entries):
    for e in all_entries:
        s = e.structure
        if not check_laws(s).is_commutative_semiring:
            continue
        for i in enumerate_ideals(s):
            cls = classify_ideal(i)
            if cls.prime:
                assert cls.semiprime
            if cls.semiprime:
                assert cls.radical_ideal


# --- radical ----------------------------------------------------------------

def test_radical_chain_golden():
    t = chain_semiring()
    # oracle: the middle element squares to zero, the top stays at itself
    assert t.mul[1][1] == 0 and t.mul[2][2] == 2
    assert radical(generate_ideal(t, [1])).members() == (0, 1)
    assert radical(make_ideal(t, [0])).members() == (0, 1)


def test_radical_whole_and_entire():
    t = chain_semiring()
    assert radical(make_ideal(t, [0, 1, 2])).mask.bit_count() == 3
    b = boolean_semifield()
    assert radical(make_ideal(b, [0])).members() == (0,)


def test_radical_rejects_noncommutative():
    s = cross_free = austere_z6()
    # austere-z6 is commutative; build a noncommutative semiring instead
    from semiringlab.corpus import cross_product_hemiring

    with pytest.raises(StructureError):
        radical(IdealSet(structure=cross_product_hemiring(), side=TWO_SIDED, mask=1))


@given(st.integers(0, 5))
def test_radical_idempotent_monotone_extensive(seed):
    entries = [boolean_semifield(), chain_semiring(), dual_numbers_mod2(), boolean_square()]
    s = entries[seed % len(entries)]
    for i in enumerate_ideals(s):
        r = radical(i)
        assert i.issubset(r)
        assert radical(r).mask == r.mask


# --- arithmetic ----------------------------------------------------------------

def test_chain_ideal_sums_and_products():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    assert mask_members(set_product_mask(mid, mid)) == (0,)
    assert generated_product(mid, mid).members() == (0,)
    assert ideal_intersect(mid, mid).members() == (0, 1)


def test_product_lands_in_intersection(all_entries):
    for e in all_entries:
        s = e.structure
        if s.size > 8:
            continue
        ideals = enumerate_ideals(s)
        for a in ideals:
            for b in ideals:
                prod = set_product_mask(a, b)  # raises if it escapes the meet
                assert prod & ~(a.mask & b.mask) == 0


def test_right_ideal_times_carrier():
    s = dual_numbers_mod2()
    whole = make_ideal(s, range(8))
    for i in enumerate_ideals(s):
        assert set_product_mask(i, whole) & ~i.mask == 0


# --- residuals ----------------------------------------------------------------
#
# (I : t) is ``_residual_mask`` of row t of I's residual rows, the
# theorem-checked core that the semiprime residuals of the T-semiprime
# corollary read.

def test_residual_by_one_is_identity(all_entries):
    for e in all_entries:
        s = e.structure
        rep = check_laws(s)
        if not rep.is_commutative_semiring:
            continue
        for i in enumerate_ideals(s):
            assert _residual_mask(s, i.mask, residual_rows(s, i.mask)[rep.one]) == i.mask


def test_residual_chain_golden():
    t = chain_semiring()
    zero = make_ideal(t, [0])
    # oracle: 1*0 = 0, 1*1 = 0, 1*2 = 1, so exactly {0, 1} divides into zero
    assert mask_members(_residual_mask(t, zero.mask, residual_rows(t, zero.mask)[1])) == (0, 1)


def test_residual_contains_ideal(all_entries):
    for e in all_entries:
        s = e.structure
        if not check_laws(s).is_commutative_semiring:
            continue
        for i in enumerate_ideals(s):
            rows = residual_rows(s, i.mask)
            for t in range(s.size):
                assert i.issubset(_residual_mask(s, i.mask, rows[t]))


# --- T-semiprime equivalence ------------------------------------------------------

def test_equivalence_semiprime_case():
    """Both sides of the equivalence, which the T-semiprime avoidance check
    compares on every cover: the least T-element, and the least t whose
    residual (P : t) is proper and semiprime."""
    t = chain_semiring()
    p = make_ideal(t, [0, 1])
    t_set = mult_closure(t, [2])
    # the unit element realizes the equivalence
    assert t_semiprime_element(p, t_set) == 2
    assert semiprime_residual(p, t_set)[0] == 2
    assert t_semiprime_avoidance(p, [p], t_set).witness == (2, 0)


def test_semiprime_residual_is_taken_of_two_sided_ideals():
    t = chain_semiring()
    p = make_ideal(t, [0, 1])
    t_set = mult_closure(t, [2])
    found = semiprime_residual(p, t_set)
    assert found[0] == 2 and found[1] == p
    with pytest.raises(ValueError):
        semiprime_residual(make_ideal(t, [0, 1], LEFT), t_set)


def test_t_semiprime_element_rejects_a_mask_that_is_no_ideal():
    """{1} of the chain is no ideal (0*1 = 0 escapes it), as the lattice
    classification once told the T-semiprime test."""
    t = chain_semiring()
    with pytest.raises(StructureError, match="not a two-sided ideal"):
        t_semiprime_element(IdealSet(structure=t, side=TWO_SIDED, mask=0b010), mult_closure(t, [t.one]))


@pytest.mark.parametrize(
    "read",
    [
        lambda i: semiprime_residual(i, mult_closure(i.structure, [i.structure.one])),
        radical,
    ],
    ids=["semiprime-residual", "radical"],
)
def test_ideal_readers_reject_a_mask_that_is_no_ideal(read):
    """{1} of the chain, the empty mask and a mask past the carrier, twice
    each, as a refusal stores nothing. {1} once gave the theorem verdict
    TheoremViolation (its residual by 1, {1, 2}, is no ideal) from the
    residual readers, and a radical without complaint."""
    t = chain_semiring()
    for mask in (0b010, 0, 0b1000):
        for _ in range(2):
            with pytest.raises(StructureError, match="not a two-sided ideal"):
                read(IdealSet(structure=t, side=TWO_SIDED, mask=mask))


@pytest.mark.parametrize("s", [chain_semiring(), saturating(6)], ids=lambda s: s.name)
def test_radical_readers_refuse_a_mask_that_is_no_ideal_after_the_lattice_pass(s):
    """The lattice pass stores each ideal's radical without asking whether
    its mask is an ideal; a mask outside the lattice is still refused. The
    chain takes the per-ideal layout, saturating(6) the sliced one."""
    lattice = set(ideal_masks(s))
    for mask in ideal_masks(s):
        classify_ideal(IdealSet(structure=s, side=TWO_SIDED, mask=mask))
    others = [m for m in range(1 << s.size) if m not in lattice] + [1 << s.size]
    assert len(others) > 1
    for mask in others:
        with pytest.raises(StructureError, match="not a two-sided ideal"):
            radical_mask(s, mask)
        with pytest.raises(StructureError, match="not a two-sided ideal"):
            radical(IdealSet(structure=s, side=TWO_SIDED, mask=mask))


@pytest.mark.parametrize("s", [chain_semiring(), saturating(6)], ids=lambda s: s.name)
def test_prime_and_subtractive_readers_refuse_a_mask_that_is_no_ideal(s):
    """On the chain, {1} once read as prime, and 0b1000, past the carrier,
    as prime and subtractive. Every mask outside the lattice is refused,
    twice, as a refusal stores nothing, before and after the lattice pass
    has stored every ideal's verdicts. The chain takes the per-ideal
    layout, saturating(6) the sliced one."""
    lattice = set(ideal_masks(s))
    others = [m for m in range(1 << s.size) if m not in lattice] + [1 << s.size]
    for classified in (False, True):
        if classified:
            for mask in lattice:
                classify_ideal(IdealSet(structure=s, side=TWO_SIDED, mask=mask))
        for mask in others:
            for read in (is_prime, is_subtractive, is_prime, is_subtractive):
                with pytest.raises(StructureError, match="not a two-sided ideal"):
                    read(IdealSet(structure=s, side=TWO_SIDED, mask=mask))


def test_subtractivity_of_a_one_sided_ideal_is_checked_on_its_side():
    """Under x*y = x on the 3-element max chain every set is a right
    ideal and only the carrier a left one, so {1} is asked about as a
    right ideal and refused as a left one and as a two-sided one, in
    either order: a right ask once stored its verdict, which a later left
    or two-sided ask read unchecked."""
    for order in ((LEFT, RIGHT, TWO_SIDED), (RIGHT, LEFT, TWO_SIDED), (RIGHT, TWO_SIDED, LEFT)):
        s = CayleyStructure(size=3, add=((0, 1, 2), (1, 1, 2), (2, 2, 2)), mul=((0, 0, 0), (1, 1, 1), (2, 2, 2)))
        for side in order:
            ideal = IdealSet(structure=s, side=side, mask=0b010)
            if side == RIGHT:
                assert is_subtractive(ideal) == (False, (0, 1)), order
            else:
                with pytest.raises(StructureError, match=f"not a {side} ideal"):
                    is_subtractive(ideal)
        assert 0b010 not in analysis(s).facts.get("subtractive", {}), order


@pytest.mark.parametrize("read", [t_semiprime_element, semiprime_residual], ids=["t-element", "semiprime-residual"])
def test_t_readers_reject_a_t_past_the_carrier(read):
    """A hand-built T holding 3 on the 3-element chain; the T-element read
    once raised IndexError."""
    t = chain_semiring()
    with pytest.raises(StructureError, match=r"element out of range: 3 is not an integer in 0\.\.2"):
        read(generate_ideal(t, [0]), MultiplicativeSet(structure=t, mask=0b1100))


def test_equivalence_rejects_meeting_t():
    t = chain_semiring()
    p = make_ideal(t, [0, 1])
    t_set = mult_closure(t, [1, 2, 0])
    with pytest.raises(StructureError):
        t_semiprime_element(p, t_set)
    assert t_semiprime_avoidance(p, [p], t_set).violated_hypothesis == "t-disjointness"


def test_equivalence_needs_two_absorbing():
    """The zero ideal of boolean^3 meets three primes and is not
    2-absorbing, so the equivalence is never asked of it."""
    s = direct_product([boolean_semifield()] * 3)
    t_set = mult_closure(s, [check_laws(s).one])
    zero = generate_ideal(s, [])
    assert not classify_ideal(zero).two_absorbing
    assert t_semiprime_avoidance(zero, [zero], t_set).violated_hypothesis == "2-absorbing"


# --- annihilators ----------------------------------------------------------------

def test_annihilator_of_one_in_entire():
    b = boolean_semifield()
    assert annihilator(self_action(b), [1]).members() == (0,)


def test_annihilator_chain_golden():
    t = chain_semiring()
    assert annihilator(self_action(t), [1]).members() == (0, 1)


def test_annihilator_of_whole_is_meet(all_entries):
    for e in all_entries:
        s = e.structure
        if not check_laws(s).is_commutative_semiring:
            continue
        m = self_action(s)
        meet = None
        for x in range(s.size):
            am = annihilator(m, [x]).mask
            meet = am if meet is None else meet & am
        assert annihilator(m, list(range(s.size))).mask == meet


def test_annihilator_rejects_empty():
    with pytest.raises(StructureError):
        annihilator(self_action(boolean_semifield()), [])


# --- maximal annihilator primes -----------------------------------------------------
#
# ``zero_divisor_report`` checks that every maximal proper annihilator of a
# nonzero element is one of the associated primes it reports.

def maximal_associated_primes(s, m):
    ass = zero_divisor_report(s, m).ass
    return sorted(map(mask_members, maximal_masks(mask_of(members) for _, members in ass)))


def test_gamma_for_boolean_square_self():
    s = boolean_square()
    assert maximal_associated_primes(s, self_action(s)) == [(0, 1), (0, 2)]


def test_gamma_for_module_over_boolean():
    b = boolean_semifield()
    assert maximal_associated_primes(b, componentwise_module(b, 2)) == [(0,)]


def test_gamma_rejects_a_module_over_another_semiring():
    with pytest.raises(StructureError, match="different structure"):
        zero_divisor_report(boolean_semifield(), self_action(boolean_square()))


# --- Krull separation ----------------------------------------------------------------

def test_krull_chain_golden():
    t = chain_semiring()
    p = krull_separation(t, mult_closure(t, [2]), make_ideal(t, [0]))
    assert p.members() == (0, 1)


def test_krull_fixed_point():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    assert krull_separation(t, mult_closure(t, [2]), mid).mask == mid.mask


def test_krull_rejects_meeting_t():
    t = chain_semiring()
    with pytest.raises(HypothesesUnmet):
        krull_separation(t, mult_closure(t, [1, 2, 0]), make_ideal(t, [0]))


def test_krull_always_prime_and_disjoint(all_entries):
    for e in all_entries:
        s = e.structure
        if not check_laws(s).is_commutative_semiring:
            continue
        for gen in range(s.size):
            t_set = mult_closure(s, [gen])
            for i in enumerate_ideals(s):
                if i.mask & t_set.mask:
                    continue
                p = krull_separation(s, t_set, i)
                assert i.issubset(p) and p.mask & t_set.mask == 0


# --- sum trees ----------------------------------------------------------------

# A sum tree whose value and whose leaves but one lie in a subtractive ideal
# has its last leaf there too; the suites check it on sampled tree shapes.

def test_two_leaf_tree_is_the_definition():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    # 1 + 2 = 2 is outside the ideal; 1 + 1 = 1 inside
    assert evaluate_tree(t, (1, 1)) == 1
    assert is_subtractive(mid) == (True, None)


def test_three_leaf_trees_exhaustive_over_boolean():
    b = boolean_semifield()
    zero = make_ideal(b, [0])
    for a, c, d in itertools.product(range(2), repeat=3):
        leaves = (a, c, d)
        for tree in (((a, c), d), (a, (c, d))):
            value = evaluate_tree(b, tree)
            for hole in range(3):
                others_in = all(
                    leaf == 0 for pos, leaf in enumerate(leaves) if pos != hole
                )
                if value in zero and others_in:
                    assert leaves[hole] in zero


def test_left_comb_shape():
    assert left_comb([1, 2, 3]) == ((1, 2), 3)
    assert evaluate_tree(chain_semiring(), left_comb([1, 1, 2])) == 2
