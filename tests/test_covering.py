"""Avoidance witnesses, efficient coverings, and exponent bounds."""

import itertools

import pytest

from semiringlab.corpus import (
    austere_z6,
    boolean_semifield,
    boolean_square,
    chain_semiring,
    dual_numbers_mod2,
)
from semiringlab.covering import (
    FAILS,
    HOLDS,
    UNMET,
    annihilator_avoidance,
    avoidance_witness,
    behrens_elements,
    davis_witness,
    efficient_reduce,
    is_efficient,
    mccoy_exponent,
    semiring_avoidance,
    t_semiprime_avoidance,
    union_avoidance_suite,
)
from semiringlab.errors import HypothesesUnmet
from semiringlab.ideals import (
    annihilator,
    enumerate_ideals,
    generate_ideal,
    is_prime,
    make_ideal,
    mult_closure,
    set_product_mask,
)
from semiringlab.tables import check_laws, self_action


# --- efficient coverings --------------------------------------------------------

def test_reduce_drops_duplicates():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    covers = efficient_reduce(mid, [mid, mid])
    assert len(covers) == 1 and is_efficient(mid, covers)


def test_reduce_keeps_single_containing_cover():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    zero = make_ideal(t, [0])
    covers = efficient_reduce(mid, [mid, zero, zero])
    assert [c.members() for c in covers] == [(0, 1)]


def test_f2xy_three_lines_efficient():
    s = dual_numbers_mod2()
    target = generate_ideal(s, [1, 2])
    lines = [generate_ideal(s, [g]) for g in (2, 1, 3)]
    assert is_efficient(target, lines)
    # oracle: every two lines miss one nonzero point of the plane
    for a, b in itertools.combinations(lines, 2):
        assert target.mask & ~(a.mask | b.mask) != 0


def test_not_a_covering_raises():
    t = chain_semiring()
    whole, mid = make_ideal(t, [0, 1, 2]), make_ideal(t, [0, 1])
    for check in (is_efficient, efficient_reduce, mccoy_exponent):
        with pytest.raises(ValueError, match="not a covering"):
            check(whole, [mid])
        with pytest.raises(ValueError, match="at least one cover"):
            check(mid, [])
        with pytest.raises(ValueError, match="different structure"):
            check(mid, [make_ideal(boolean_square(), [0, 1])])


# --- ringoid avoidance ----------------------------------------------------------

def test_boolean_square_avoidance_golden():
    s = boolean_square()
    whole = make_ideal(s, range(4))
    axis1 = generate_ideal(s, [2])
    axis2 = generate_ideal(s, [1])
    report = avoidance_witness(whole, [axis1, axis2])
    assert report.holds
    assert report.witness == 3  # the top element avoids both axes
    assert report.details["constructive"] == 3


def test_single_prime_avoidance():
    b = boolean_semifield()
    whole = make_ideal(b, [0, 1])
    report = avoidance_witness(whole, [make_ideal(b, [0])])
    assert report.holds and report.witness == 1


def test_two_ideals_need_only_subtractivity():
    # two subtractive primes of the diamond: containment fails, witness found
    s = boolean_square()
    target = make_ideal(s, range(4))
    report = avoidance_witness(target, [generate_ideal(s, [1]), generate_ideal(s, [2])])
    assert report.holds


def test_avoidance_rejects_containment():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    report = avoidance_witness(mid, [mid])
    assert report.verdict == UNMET and report.violated_hypothesis == "containment"


def test_avoidance_rejects_nonsubtractive_prime():
    s = austere_z6()
    target = generate_ideal(s, [3, 4])
    report = avoidance_witness(target, [generate_ideal(s, [3])])
    assert report.verdict == UNMET and report.violated_hypothesis == "subtractivity"


# --- cross-membership construction ------------------------------------------------

def test_behrens_boolean_square_golden():
    s = boolean_square()
    whole = make_ideal(s, range(4))
    axis1 = generate_ideal(s, [2])  # contains (1,0)
    axis2 = generate_ideal(s, [1])  # contains (0,1)
    bs = behrens_elements(whole, [axis1, axis2])
    assert bs == [1, 2]
    assert bs[0] in axis2 and bs[0] not in axis1
    assert bs[1] in axis1 and bs[1] not in axis2


def test_behrens_single_prime_convention():
    b = boolean_semifield()
    whole = make_ideal(b, [0, 1])
    assert behrens_elements(whole, [make_ideal(b, [0])]) == [1]


def test_behrens_needs_pattern():
    t = chain_semiring()
    whole = make_ideal(t, [0, 1, 2])
    mid = make_ideal(t, [0, 1])
    # a two-prime family needs elements separating the primes; duplicating
    # the same prime leaves none
    with pytest.raises(HypothesesUnmet):
        behrens_elements(whole, [mid, mid])


def test_behrens_rejects_a_pattern_of_the_wrong_length():
    from semiringlab.corpus import corpus_entry

    s = corpus_entry("lattice-4").structure
    whole = make_ideal(s, range(s.size))
    primes = [p for p in enumerate_ideals(s) if p.is_proper and is_prime(p)[0]][:2]
    assert len(primes) == 2
    for pattern in ([0], [0, 0, 0]):
        with pytest.raises(ValueError, match=f"pattern has {len(pattern)} elements for 2 primes"):
            behrens_elements(whole, primes, pattern)


def test_behrens_three_primes_on_cube():
    from semiringlab.constructions import direct_product

    b = boolean_semifield()
    cube = direct_product([b, b, b])
    whole = make_ideal(cube, range(8))
    planes = [generate_ideal(cube, [g]) for g in (3, 5, 6)]
    bs = behrens_elements(whole, planes)
    for l, value in enumerate(bs):
        for i, p in enumerate(planes):
            assert (value in p) == (i != l)


# --- semiring avoidance -----------------------------------------------------------

def test_austere_counterexample_golden():
    s = austere_z6()
    target = generate_ideal(s, [3, 4])
    m1 = generate_ideal(s, [3])
    m2 = generate_ideal(s, [4])
    report = semiring_avoidance(target, [m1, m2])
    assert report.verdict == FAILS
    assert report.violated_hypothesis == "subtractivity"


def test_direct_containment_short_circuits():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    report = semiring_avoidance(mid, [mid, make_ideal(t, [0])])
    assert report.holds and report.witness == 0


def test_chain_covering_finds_index():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    whole = make_ideal(t, [0, 1, 2])
    report = semiring_avoidance(mid, [mid, whole])
    assert report.holds and report.witness == 0


# --- davis ------------------------------------------------------------------------

def test_davis_zero_suffices_when_x_avoids():
    s = boolean_square()
    report = davis_witness(3, generate_ideal(s, []), [generate_ideal(s, [2])])
    assert report.holds and report.witness == 0


def test_davis_boolean_square_golden():
    s = boolean_square()
    x = 2  # the first axis generator
    target = generate_ideal(s, [1])  # the other axis
    report = davis_witness(x, target, [generate_ideal(s, [2])])
    assert report.holds
    assert report.witness == 1
    assert s.add[x][report.witness] == 3


def test_davis_empty_prime_list():
    t = chain_semiring()
    report = davis_witness(1, make_ideal(t, [0, 1]), [])
    assert report.holds and report.witness == 0


def test_davis_rejects_covered_sum():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    report = davis_witness(1, mid, [mid])
    assert report.verdict == UNMET and report.violated_hypothesis == "containment"


# --- exponent bounds ---------------------------------------------------------------

def test_mccoy_f2xy_exponent_two():
    s = dual_numbers_mod2()
    target = generate_ideal(s, [1, 2])
    lines = [generate_ideal(s, [g]) for g in (2, 1, 3)]
    # oracle: square the plane ideal by table, compare with the intersection
    square = set_product_mask(target, target)
    meet = lines[0].mask & lines[1].mask & lines[2].mask
    assert square == 1 and meet == 1  # both are the zero ideal
    assert target.mask & ~meet  # the first power does not fit
    report = mccoy_exponent(target, lines)
    assert report.holds and report.exponent == 2


def test_mccoy_rejects_small_families():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    report = mccoy_exponent(mid, [mid, mid])
    assert report.verdict == UNMET and report.violated_hypothesis == "cover-count"


def test_mccoy_rejects_inefficient_covering():
    """A target equal to the intersection of its covers lies inside each of
    them, so such coverings can never be efficient and are turned away."""
    s = dual_numbers_mod2()
    zero = generate_ideal(s, [])
    lines = [generate_ideal(s, [g]) for g in (2, 1, 3)]
    assert not is_efficient(zero, lines)
    report = mccoy_exponent(zero, lines)
    assert report.verdict == UNMET and report.violated_hypothesis == "efficiency"


def test_mccoy_rejects_nonsubtractive_structure():
    s = austere_z6()
    target = generate_ideal(s, [3, 4])
    covers = [generate_ideal(s, [3]), generate_ideal(s, [4]), make_ideal(s, range(7))]
    report = mccoy_exponent(target, covers)
    assert report.verdict == UNMET and report.violated_hypothesis == "subtractive-semiring"


def test_mccoy_suite_on_f2xy_times_boolean():
    """The intersection lemma holds inside the target only: here two of the
    three covers can meet in more than all three outside the target."""
    from semiringlab.constructions import direct_product
    from semiringlab.suites import CorpusEntry, PASS, mccoy_suite

    s = direct_product([dual_numbers_mod2(), boolean_semifield()])
    rows = list(mccoy_suite(CorpusEntry(name="f2xy*boolean", structure=s, claims=())))
    assert [r.status for r in rows] == [PASS]


# --- corollary suites --------------------------------------------------------------

def test_radical_mode_two_covers():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    report = union_avoidance_suite(mid, [mid, make_ideal(t, [0, 1, 2])], "radical")
    assert report.holds and report.witness == 0


def test_left_labelled_cover_qualifies_by_its_mask():
    """In a commutative semiring a left ideal is two-sided, so a cover
    labelled left is classified by its mask and still counts."""
    from semiringlab.ideals import LEFT, IdealSet

    s = dual_numbers_mod2()
    plane = generate_ideal(s, [1, 2])  # prime, so radical and semiprime
    lines = [generate_ideal(s, [g]) for g in (2, 1)]  # neither
    left_plane = IdealSet(structure=s, side=LEFT, mask=plane.mask)
    for mode in ("radical", "semiprime"):
        report = union_avoidance_suite(plane, lines + [left_plane], mode)
        assert report.holds and report.witness == 2, mode
        assert union_avoidance_suite(plane, lines + [plane], mode) == report


def test_semiprime_mode_chain():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    report = union_avoidance_suite(mid, [mid], "semiprime")
    assert report.holds and report.witness == 0


def test_union_mode_validation():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    with pytest.raises(ValueError):
        union_avoidance_suite(mid, [mid], "prime")


def test_union_hypothesis_count():
    s = dual_numbers_mod2()
    # three of the four covers are not radical: lines square to zero
    lines = [generate_ideal(s, [g]) for g in (2, 1, 3)]
    target = generate_ideal(s, [1, 2])
    report = union_avoidance_suite(target, lines, "radical")
    assert report.verdict == UNMET and report.violated_hypothesis == "hypothesis-count"


def test_t_semiprime_avoidance_reduces_to_semiprime():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    t_set = mult_closure(t, [2])
    report = t_semiprime_avoidance(mid, [mid], t_set)
    assert report.holds
    elem, idx = report.witness
    assert elem == 2 and idx == 0


def test_annihilator_avoidance_single_prime_cover():
    s = boolean_square()
    m = self_action(s)
    a1 = annihilator(m, [1])  # the axis through index 2
    report = annihilator_avoidance(m, generate_ideal(s, [2]), [a1])
    assert report.holds and report.details["prime"] == a1.members()


def test_annihilator_avoidance_two_covers():
    s = boolean_square()
    m = self_action(s)
    a1 = annihilator(m, [1])
    a2 = annihilator(m, [2])
    target = generate_ideal(s, [1])
    report = annihilator_avoidance(m, target, [a1, a2])
    assert report.holds
    chosen = make_ideal(s, report.details["prime"])
    assert target.issubset(chosen)


def test_annihilator_avoidance_zero_ideal():
    s = boolean_square()
    m = self_action(s)
    report = annihilator_avoidance(m, generate_ideal(s, []), [annihilator(m, [1])])
    assert report.holds


def test_annihilator_avoidance_rejects_non_annihilators():
    s = chain_semiring()
    m = self_action(s)
    whole = make_ideal(s, [0, 1, 2])
    report = annihilator_avoidance(m, generate_ideal(s, []), [whole])
    assert report.verdict == UNMET and report.violated_hypothesis == "annihilator-covers"
