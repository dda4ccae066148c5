"""Avoidance witnesses, efficient coverings, and exponent bounds."""

import itertools

import pytest

from semiringlab.corpus import (
    austere_z6,
    boolean_semifield,
    boolean_square,
    chain_semiring,
    diamond_lattice,
    dual_numbers_mod2,
    saturating,
)
from semiringlab.covering import (
    FAILS,
    UNMET,
    avoidance_witness,
    behrens_elements,
    davis_witness,
    is_efficient,
    mccoy_exponent,
    semiring_avoidance,
    t_semiprime_avoidance,
    union_avoidance_suite,
)
from semiringlab import covering
from semiringlab.errors import HypothesesUnmet, StructureError, TheoremViolation
from semiringlab.ideals import (
    enumerate_ideals,
    generate_ideal,
    generated_product,
    ideal_intersect,
    is_prime,
    krull_separation,
    mult_closure,
    semiprime_residual,
    set_product_mask,
    t_semiprime_element,
)
from semiringlab.spectrum import spec_of
from semiringlab.tables import CayleyStructure

from helpers import make_ideal


# --- efficient coverings --------------------------------------------------------

def test_f2xy_three_lines_efficient():
    s = dual_numbers_mod2()
    target = generate_ideal(s, [1, 2])
    lines = [generate_ideal(s, [g]) for g in (2, 1, 3)]
    assert is_efficient(target, lines)
    # oracle: every two lines miss one nonzero point of the plane
    for a, b in itertools.combinations(lines, 2):
        assert target.mask & ~(a.mask | b.mask) != 0


def test_not_a_covering_raises():
    """Every check that takes (target, covers) validates the covering. The
    chain is a commutative semiring with every ideal subtractive, so each
    check reaches the test."""
    t = chain_semiring()
    whole, mid = make_ideal(t, [0, 1, 2]), make_ideal(t, [0, 1])
    t_set = mult_closure(t, [t.one])
    checks = (
        is_efficient,
        mccoy_exponent,
        semiring_avoidance,
        lambda target, covers: union_avoidance_suite(target, covers, "radical"),
        lambda target, covers: t_semiprime_avoidance(target, covers, t_set),
    )
    for check in checks:
        with pytest.raises(ValueError, match="not a covering"):
            check(whole, [mid])
        with pytest.raises(ValueError, match="at least one cover"):
            check(mid, [])
        with pytest.raises(ValueError, match="different structure"):
            check(mid, [make_ideal(boolean_square(), [0, 1])])


def test_covers_over_another_structure_are_not_compared_as_bits():
    """The chain ideal {0, 1} and the boolean-square ideal generated by 1
    have the same mask, so a bitwise containment test alone would report
    the chain ideal inside the foreign cover."""
    target = make_ideal(chain_semiring(), [0, 1])
    foreign = generate_ideal(boolean_square(), [1])
    assert foreign.mask == target.mask
    with pytest.raises(ValueError, match="different structure"):
        semiring_avoidance(target, [foreign])
    for mode in ("radical", "semiprime"):
        with pytest.raises(ValueError, match="different structure"):
            union_avoidance_suite(target, [foreign], mode)


def _foreign_readers(target, foreign_primes, foreign_ideal):
    """Each check that reads primes or a second ideal alongside an ideal,
    given ones over another structure."""
    readers = {
        "avoidance_witness": lambda: avoidance_witness(target, foreign_primes),
        "davis_witness": lambda: davis_witness(0, target, foreign_primes),
        "behrens_elements": lambda: behrens_elements(target, foreign_primes),
    }
    operations = {
        "intersect": ideal_intersect,
        "set_product": set_product_mask,
        "generated_product": generated_product,
    }
    for op, operate in operations.items():
        readers[op] = lambda operate=operate: operate(target, foreign_ideal)
        readers[f"{op}-prime"] = lambda operate=operate: operate(target, foreign_primes[-1])
    return readers


def test_primes_points_and_ideals_over_another_structure_are_not_read_as_bits():
    """Primes of the saturating semiring passed with an ideal of the
    four-element lattice were judged as its own (an unmet subtractivity
    judged on the other structure), and the ideal operations mixed the two
    carriers; each check now refuses them."""
    s, f = diamond_lattice(), saturating(3)
    target = generate_ideal(s, [3])
    for name, read in _foreign_readers(target, spec_of(f), generate_ideal(f, [1])).items():
        with pytest.raises(StructureError, match="different structure"):
            read()
    twin = diamond_lattice()
    assert avoidance_witness(target, spec_of(twin)) == avoidance_witness(target, spec_of(s))


def test_an_equal_structure_built_apart_is_not_foreign():
    t = chain_semiring()
    mid = make_ideal(t, [0, 1])
    assert semiring_avoidance(mid, [make_ideal(chain_semiring(), [0, 1])]).holds


def _t_set_readers(s, zero, mid, t_set):
    """Each check that reads a T-set alongside ideals of s, on a call that
    reaches that read."""
    return {
        "t_semiprime_element": lambda: t_semiprime_element(zero, t_set),
        "t_semiprime_element-mid": lambda: t_semiprime_element(mid, t_set),
        "semiprime_residual": lambda: semiprime_residual(mid, t_set),
        "t_semiprime_avoidance": lambda: t_semiprime_avoidance(mid, [mid], t_set),
        "krull_separation": lambda: krull_separation(s, t_set, zero),
    }


def test_a_t_set_over_another_structure_is_not_read_as_bits():
    """A T-set of the four-element lattice passed with ideals of the chain
    is refused by every check that reads it, and so is a foreign ideal in
    the Krull separation; an equal chain built apart is accepted."""
    t = chain_semiring()
    zero, mid = make_ideal(t, [0]), make_ideal(t, [0, 1])
    foreign = mult_closure(diamond_lattice(), [1])
    for name, read in _t_set_readers(t, zero, mid, foreign).items():
        with pytest.raises(StructureError, match="different structure"):
            read()
    with pytest.raises(StructureError, match="different structure"):
        krull_separation(t, mult_closure(t, [t.one]), make_ideal(diamond_lattice(), [0]))
    twin = mult_closure(chain_semiring(), [2])
    assert twin.structure is not t
    for name, read in _t_set_readers(t, zero, mid, twin).items():
        assert read() == _t_set_readers(t, zero, mid, mult_closure(t, [2]))[name](), name
    assert krull_separation(t, twin, make_ideal(chain_semiring(), [0])) == krull_separation(t, twin, zero)


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


def _chain_lattice() -> CayleyStructure:
    """The chain 0 < 1 < 2 under max and min: its primes {0} and {0, 1} are
    subtractive and nested."""
    add, mul = ([[op(i, j) for j in range(3)] for i in range(3)] for op in (max, min))
    return CayleyStructure(3, add, mul, zero=0, one=2, name="chain lattice")


@pytest.mark.parametrize("primes", [([0, 1], [0]), ([0], [0, 1])], ids=["returns-x", "returns-y"])
def test_two_prime_construction_returns_the_scan_element_that_misses_the_other_prime(primes):
    """With two primes, the construction takes x and y, the least elements
    of the ideal outside the first and the second prime, and returns x when
    x misses the second prime, else y when y misses the first, before it
    tries x + y. On the chain lattice with the whole chain as the ideal:
    for ({0, 1}, {0}), x = 2 misses {0} and y = 1 lies in {0, 1}; for ({0},
    {0, 1}), x = 1 lies in {0, 1} and y = 2 misses {0}. The element returned
    is 2 both times; the other one would lie in a prime."""
    s = _chain_lattice()
    report = avoidance_witness(make_ideal(s, range(3)), [make_ideal(s, members) for members in primes])
    assert report.holds and report.details["constructive"] == 2


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


def test_a_broken_avoidance_construction_is_a_violation(monkeypatch, tmp_path, capsys):
    """The construction builds its own cross-membership pattern, so a pattern
    that ``behrens_elements`` refuses falsifies the construction, not the
    input: here every candidate the construction builds is zero, which lies
    in every other prime, so each family of the cube's three planes breaks. The suite row fails, not skips, and the
    command line exits 1, not 2."""
    import json

    from semiringlab.cli import main
    from semiringlab.constructions import direct_product
    from semiringlab.corpus import CorpusEntry
    from semiringlab.fileio import structure_to_json
    from semiringlab.suites import FAIL, run_entry_suites

    constructive = covering._avoid_constructive
    outer = []

    def misplaced(s, ideal, primes):
        """The construction, with zero for every candidate it builds below itself."""
        if outer:
            return 0
        outer.append(primes)
        try:
            return constructive(s, ideal, primes)
        finally:
            outer.pop()

    b = boolean_semifield()
    cube = direct_product([b, b, b], name="cube")
    monkeypatch.setattr(covering, "_avoid_constructive", misplaced)
    rows = {r.name: r for r in run_entry_suites(CorpusEntry(name="cube", structure=cube, claims=()))}
    assert rows["cube/ringoid-avoidance"].status == FAIL
    assert "pattern element 0 lies in another prime" in rows["cube/ringoid-avoidance"].detail
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(structure_to_json(cube)))
    argv = ["avoid", str(path), "--mode", "ringoid", "--target", "7", "--cover", "3", "--cover", "5", "--cover", "6"]
    assert main(argv) == 1
    assert "pattern element 0 lies in another prime" in capsys.readouterr().err


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


def test_davis_rejects_an_element_outside_the_carrier():
    """-1 would be read as a negative shift and 4 as a missing row."""
    s = boolean_square()
    for x in (-1, 4, 1.0, True):
        with pytest.raises(StructureError, match="element out of range"):
            davis_witness(x, generate_ideal(s, [1]), [generate_ideal(s, [2])])


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


@pytest.mark.parametrize("side", ["residual", "element"])
def test_t_semiprime_avoidance_checks_the_residual_equivalence(monkeypatch, side):
    """A cover is T-semiprime exactly when one of its residuals (P : t) is
    proper and semiprime, and the check computes both sides. On the chain,
    {0} is 2-absorbing and misses T = {2}, but 1*1 lies in it and 2*1 does
    not, so it is not T-semiprime and no residual is semiprime. A residual
    reported anyway, or a T-element denied to {0, 1}, breaks the
    equivalence."""
    t = chain_semiring()
    zero, mid = make_ideal(t, [0]), make_ideal(t, [0, 1])
    t_set = mult_closure(t, [2])
    assert t_semiprime_element(zero, t_set) is None and semiprime_residual(zero, t_set) is None
    assert t_semiprime_avoidance(zero, [zero], t_set).violated_hypothesis == "t-semiprime"
    assert t_semiprime_avoidance(mid, [mid], t_set).holds
    if side == "residual":
        monkeypatch.setattr(covering, "semiprime_residual", lambda p, t_set: (2, mid))
        target = zero
    else:
        monkeypatch.setattr(covering, "t_semiprime_element", lambda p, t_set: None)
        target = mid
    with pytest.raises(TheoremViolation, match="T-semiprime equivalence broken"):
        t_semiprime_avoidance(target, [target], t_set)
