"""Zero-divisor reports, total quotients, Kasch verdicts, slices."""

import dataclasses
import json

import pytest

from semiringlab import ideals, tables, zerodivisors
from semiringlab.cli import main
from semiringlab.corpus import (
    austere_z6,
    boolean_semifield,
    boolean_square,
    chain_semiring,
    componentwise_module,
    corpus_semimodules,
    diamond_lattice,
    saturating,
    zero_module,
)
from semiringlab.constructions import direct_product
from semiringlab.covering import UNMET
from semiringlab.errors import StructureError, TheoremViolation
from semiringlab.fileio import structure_to_json
from semiringlab.ideals import annihilator, enumerate_ideals, generate_ideal
from semiringlab.tables import CayleyStructure, FiniteSemimodule, check_laws, self_action
from semiringlab.zerodivisors import (
    annihilator_extension_check,
    ass_primes,
    few_zero_divisors,
    kasch_semilocal_report,
    monoid_zd_check,
    property_a_check,
    total_quotient,
    zero_divisor_mask,
    zero_divisor_report,
)

from helpers import _quotient_tables, quotient_classes


# --- zero-divisor reports -------------------------------------------------------

def test_chain_report_golden():
    t = chain_semiring()
    report = zero_divisor_report(t, self_action(t))
    assert report.zset == (0, 1)
    # the annihilator of the unit is only zero, yet its radical grows to the
    # nilpotents, which makes the decomposition equality nontrivial
    decomposition = dict(report.radical_decomposition)
    assert decomposition[1] == (0, 1)
    assert decomposition[2] == (0, 1)
    assert annihilator(self_action(t), [2]).members() == (0,)
    assert report.ass == ((1, (0, 1)),)
    assert report.very_few and report.few and report.property_a


def test_entire_semiring_trivial_zero_divisors():
    for s in (boolean_semifield(), saturating(3), austere_z6()):
        assert check_laws(s).entire
        report = zero_divisor_report(s, self_action(s))
        zero = check_laws(s).zero
        assert report.zset == (zero,)


def test_zero_module_conventions():
    b = boolean_semifield()
    report = zero_divisor_report(b, zero_module(b))
    assert report.zset == ()
    assert report.ass == ()
    assert report.very_few and report.property_a


def test_boolean_square_module_report():
    b = boolean_semifield()
    m = componentwise_module(b, 2)
    report = zero_divisor_report(b, m)
    assert report.zset == (0,)
    assert {x for x, _ in report.ass} == {1, 2, 3}


def test_decomposition_equality_corpus(commutative_entries):
    from semiringlab.ideals import radical

    for e in commutative_entries:
        for name, m in corpus_semimodules(e).items():
            z = zero_divisor_mask(m)
            union = 0
            for x in range(m.msize):
                if x == m.mzero:
                    continue
                union |= radical(annihilator(m, [x])).mask
            assert union == z


def test_report_rejects_a_module_over_another_semiring():
    """The self action of the four-element lattice read over the boolean
    semifield once gave a zero-divisor set of three elements on two; an
    equal boolean semifield built apart is not foreign."""
    b = boolean_semifield()
    with pytest.raises(StructureError, match="different structure"):
        zero_divisor_report(b, self_action(diamond_lattice()))
    twin = boolean_semifield()
    assert twin is not b
    assert zero_divisor_report(b, self_action(twin)).zset == zero_divisor_report(b, self_action(b)).zset


def test_the_report_checks_that_maximal_annihilators_are_prime(monkeypatch):
    """The maximal annihilators of nonzero elements of boolean^2 are its two
    primes {0, 1} and {0, 2}. Were {0, 1} judged not prime, it would be no
    associated prime, and the report refuses to stand."""
    s = boolean_square()
    m = self_action(s)
    assert {members for _, members in zero_divisor_report(s, m).ass} == {(0, 1), (0, 2)}
    real = zerodivisors._ideal_prime
    monkeypatch.setattr(
        zerodivisors, "_ideal_prime", lambda s, mask: (False, (2, 2)) if mask == 0b0011 else real(s, mask)
    )
    with pytest.raises(TheoremViolation, match="maximal annihilator of a nonzero element is not prime"):
        zero_divisor_report(s, m)


@pytest.mark.parametrize(
    "build", [lambda: direct_product([boolean_semifield()] * 4), chain_semiring], ids=["boolean^4", "chain-3"]
)
def test_each_element_annihilator_is_proved_an_ideal_once(monkeypatch, build):
    """The report reads each element annihilator's radical and primality
    through the unchecked verdicts, as ``annihilator`` has just proved the
    mask an ideal: one ideal check per module element on a fresh structure
    (boolean^4 took 46, chain-3 took 7, when the radical and prime readers
    checked each mask again)."""
    s = build()
    m = self_action(s)
    calls = []
    real = ideals._is_ideal_mask
    monkeypatch.setattr(ideals, "_is_ideal_mask", lambda *args: calls.append(args[1:]) or real(*args))
    zero_divisor_report(s, m)
    assert len(calls) == m.msize


# --- Property (A) and the containment theorem --------------------------------------

def test_property_a_rejects_a_module_over_another_semiring():
    with pytest.raises(StructureError, match="different structure"):
        property_a_check(boolean_semifield(), self_action(diamond_lattice()))

def test_property_a_chain():
    t = chain_semiring()
    ok, witness = property_a_check(t, self_action(t))
    assert ok and witness is None


def test_ideals_inside_z_lie_in_ass_primes(commutative_entries):
    for e in commutative_entries:
        s = e.structure
        for name, m in corpus_semimodules(e).items():
            z = zero_divisor_mask(m)
            primes = [ann for _, ann in ass_primes(m)]
            for i in enumerate_ideals(s):
                if i.mask & ~z:
                    continue
                assert any(i.issubset(p) for p in primes)


def test_property_a_vacuous_when_no_zero_divisors():
    b = boolean_semifield()
    ok, _ = property_a_check(b, zero_module(b))
    assert ok


# --- few zero divisors ---------------------------------------------------------------

def test_few_chain():
    few, decomposition = few_zero_divisors(chain_semiring())
    assert few
    assert [p.members() for p in decomposition] == [(0, 1)]


def test_few_entire():
    few, decomposition = few_zero_divisors(boolean_semifield())
    assert few
    assert [p.members() for p in decomposition] == [(0,)]


def test_very_few_implies_few(commutative_entries):
    for e in commutative_entries:
        s = e.structure
        report = zero_divisor_report(s, self_action(s))
        assert report.very_few
        few, _ = few_zero_divisors(s)
        assert few


# --- total quotient ----------------------------------------------------------------

def test_naive_pair_relation_is_not_transitive_on_saturating():
    """The relation s*v = t*u without an auxiliary factor fails transitivity
    here, which is why the localization congruence carries the extra w."""
    s = saturating(3)
    mul = s.mul

    def naive(p, q):
        return mul[p[0]][q[1]] == mul[q[0]][p[1]]

    assert naive((1, 2), (2, 3))
    assert naive((2, 3), (1, 3))
    assert not naive((1, 2), (1, 3))


def test_quotient_chain_is_the_chain():
    t = chain_semiring()
    q = total_quotient(t)
    assert q.structure.size == 3
    assert q.canonical == (0, 1, 2)
    assert [m.members() for m in q.maximal_ideals] == [(0, 1)]


def test_quotient_saturating_collapses_to_boolean():
    q = total_quotient(saturating(3))
    assert q.structure.size == 2
    assert q.canonical == (0, 1, 1, 1)


def test_quotient_austere_collapses_to_boolean():
    q = total_quotient(austere_z6())
    assert q.structure.size == 2
    assert q.canonical[0] == 0
    assert set(q.canonical[1:]) == {1}


def test_a_quotient_that_breaks_its_laws_is_a_theorem_violation(monkeypatch, tmp_path, capsys):
    """The quotient's laws are still checked, and their failure falsifies
    the construction, not the input: it names the failing law, and the
    command line exits 1, not 2. The law check here fails for q alone, on
    saturating-4, whose quotient has 2 elements and so is not its base."""
    checked = tables.check_laws

    def failing_for_the_quotient(s):
        rep = checked(s)
        if not s.name.startswith("Q("):
            return rep
        return dataclasses.replace(rep, witnesses={**rep.witnesses, "mul_associative": (0, 0, 0)})

    monkeypatch.setattr(tables, "check_laws", failing_for_the_quotient)
    with pytest.raises(TheoremViolation, match="mul_associative"):
        total_quotient(dataclasses.replace(saturating(3)))
    path = tmp_path / "saturating.json"
    path.write_text(json.dumps(structure_to_json(saturating(3))))
    assert main(["quotient", str(path)]) == 1
    assert "mul_associative" in capsys.readouterr().err


def test_quotient_tables_rebuild_the_quotient(commutative_entries):
    for e in commutative_entries:
        q = total_quotient(e.structure)
        add, mul = _quotient_tables(e.structure, quotient_classes(q))
        assert (tuple(map(tuple, add)), tuple(map(tuple, mul))) == (q.structure.add, q.structure.mul)


def test_quotient_tables_reject_a_pair_moved_into_the_zero_class():
    s = saturating(5)
    zero, rest = quotient_classes(total_quotient(s))
    assert zero[0] == (0, 1) and rest[0] == (1, 1)
    with pytest.raises(TheoremViolation, match="not well defined"):
        _quotient_tables(s, [zero + [(1, 1)], rest[1:]])


def test_quotient_tables_reject_two_merged_classes():
    s = diamond_lattice()
    classes = quotient_classes(total_quotient(s))
    assert classes == [[(0, 3)], [(1, 3)], [(2, 3)], [(3, 3)]]
    with pytest.raises(TheoremViolation, match="not well defined"):
        _quotient_tables(s, [[(0, 3)], [(1, 3), (2, 3)], [(3, 3)]])


def test_quotient_tables_reject_a_member_off_its_representatives_row():
    """With one = (3, 3) representing {1, a, b}, every representative's row
    is constant on each class; only a*b = 0 tells a from one."""
    with pytest.raises(TheoremViolation, match="not well defined"):
        _quotient_tables(diamond_lattice(), [[(0, 3)], [(3, 3), (1, 3), (2, 3)]])


def test_quotient_tables_reject_a_row_split_on_a_class():
    """x*y = y is not commutative, so a row need not be constant on a class
    even when every member shares its representative's row."""
    s = CayleyStructure(size=2, add=[[0, 0], [0, 0]], mul=[[0, 1], [0, 1]])
    with pytest.raises(TheoremViolation, match="not well defined"):
        _quotient_tables(s, [[(0, 0)], [(1, 0), (0, 1), (1, 1)]])


def test_quotient_tables_reject_a_member_off_its_representative_on_a_column_1_v():
    """1 is a right one but not a left one. The member (0, 1) agrees with
    its representative (0, 0) on every column (b, 1) and on every addition
    column, and each representative's row is constant on each class; only
    the product with (1, 0), a column (1, v), tells them apart."""
    s = CayleyStructure(size=3, add=[[1, 2, 1], [1, 1, 2], [1, 1, 2]], mul=[[0, 0, 0], [2, 1, 1], [2, 2, 1]])
    with pytest.raises(TheoremViolation, match="not well defined"):
        _quotient_tables(s, [[(0, 0), (0, 1)], [(1, 0), (2, 1), (1, 1), (2, 0)], [(2, 2), (0, 2), (1, 2)]])


def test_quotient_units_become_invertible(commutative_entries):
    for e in commutative_entries:
        q = total_quotient(e.structure)
        qs = q.structure
        one = qs.one
        for u in q.units:
            img = q.canonical[u]
            assert any(qs.mul[img][c] == one for c in range(qs.size))


def test_annihilator_extension_everywhere(commutative_entries):
    for e in commutative_entries:
        q = total_quotient(e.structure)
        for x in range(e.structure.size):
            assert annihilator_extension_check(q, x)


def test_annihilator_extension_rejects_an_element_outside_the_base():
    """-1 would read the last element's annihilator."""
    q = total_quotient(chain_semiring())
    for x in (-1, 3, 1.0, True):
        with pytest.raises(StructureError, match="element out of range"):
            annihilator_extension_check(q, x)


def test_extension_rejects_an_ideal_over_another_structure():
    """Read as bits of lattice-4, a saturating ideal names pairs the
    quotient lacks, and a chain-3 ideal gives a wrong extension."""
    q = total_quotient(diamond_lattice())
    for other in (saturating(5), chain_semiring()):
        with pytest.raises(StructureError, match="different structure"):
            q.extend(generate_ideal(other, [1]))
    assert q.extend(generate_ideal(diamond_lattice(), [1])).members() == (0, 1)


def test_kasch_chain():
    q = total_quotient(chain_semiring())
    report = kasch_semilocal_report(q)
    assert report.kasch and report.semilocal and report.very_few
    assert report.maximal_matches == (((0, 1), 1),)


def test_kasch_semilocal_corpus(commutative_entries):
    for e in commutative_entries:
        report = kasch_semilocal_report(total_quotient(e.structure))
        assert report.kasch and report.semilocal and report.very_few


def test_quotient_maximal_ideals_are_extensions(commutative_entries):
    for e in commutative_entries:
        s = e.structure
        q = total_quotient(s)
        few, decomposition = few_zero_divisors(s)
        assert few
        assert {q.extend(p).mask for p in decomposition} == {
            m.mask for m in q.maximal_ideals
        }


# --- bounded-degree slices -----------------------------------------------------------

def test_slice_degree_zero_matches_report(commutative_entries):
    for e in commutative_entries:
        s = e.structure
        m = self_action(s)
        report = monoid_zd_check(s, m, 0)
        if report.verdict == UNMET:
            continue
        z = zero_divisor_mask(m)
        t = report.details
        assert t["slice_size"] == s.size
        assert t["sup_checked"] == bin(z).count("1")
        assert t["sup_witnessed"] == t["sup_checked"]
        assert t["sub_violations"] == 0
        # every zero divisor is certified inside the slice at degree zero
        assert t["sub_witnessed"] == t["sup_checked"]


def test_slice_chain_degree_two_golden():
    t = chain_semiring()
    report = monoid_zd_check(t, self_action(t), 2)
    assert report.holds
    tallies = report.details
    assert tallies["slice_size"] == 27
    assert tallies["sup_checked"] == 8  # coefficients drawn from the nilpotents
    assert tallies["sup_witnessed"] == 8
    assert tallies["sub_violations"] == 0
    assert tallies["sub_inconclusive"] == 19  # everything with a unit coefficient


def test_slice_zero_polynomial():
    t = chain_semiring()
    m = self_action(t)
    # the zero polynomial lies in every decomposition member and is killed by
    # any constant; sup tallies must count it
    report = monoid_zd_check(t, m, 1)
    assert report.holds
    assert report.details["sup_checked"] == 4


def test_slice_boolean_degree_nine_closed_form():
    """Over the boolean semifield a nonzero polynomial kills no nonzero
    polynomial, so of the 1,024 in the slice only the zero polynomial lies
    in the decomposition and has an annihilator; 1,023 stay inconclusive."""
    b = boolean_semifield()
    report = monoid_zd_check(b, self_action(b), 9)
    assert report.holds
    assert report.details == {
        "slice_size": 1024,
        "sup_checked": 1,
        "sup_witnessed": 1,
        "sub_witnessed": 1,
        "sub_inconclusive": 1023,
        "sub_violations": 0,
    }


def test_slice_degree_cap_past_the_recursion_limit():
    """A one-element carrier admits degree caps up to CARRIER_CAP - 1. It is
    no semiring (its zero is its one), so the check stops at the laws; the
    annihilator search on that slice walks its 4,096 coefficients without
    recursing and finds only the zero polynomial."""
    one = CayleyStructure(size=1, add=[[0]], mul=[[0]], zero=0, one=0, name="one")
    m = FiniteSemimodule(one, 1, [[0]], 0, [[0]])
    report = monoid_zd_check(one, m, 4095)
    assert report.violated_hypothesis == "commutative-semiring"
    assert not zerodivisors._annihilated((0,) * 4096, m.madd, m.action, m.mzero)


@pytest.mark.parametrize("cap", [1.0, True, -1])
def test_slice_degree_cap_must_be_a_nonnegative_int(cap):
    b = boolean_semifield()
    with pytest.raises(StructureError, match="degree cap out of range: .* is not an integer >= 0"):
        monoid_zd_check(b, self_action(b), cap)


def test_slice_rejects_a_module_over_another_semiring():
    """A module over a smaller semiring once raised IndexError here."""
    with pytest.raises(StructureError, match="different structure"):
        monoid_zd_check(chain_semiring(), self_action(boolean_semifield()), 0)


def test_slice_hypotheses():
    report = monoid_zd_check(austere_z6(), self_action(austere_z6()), 0)
    assert report.verdict == UNMET
    assert report.violated_hypothesis == "compactly-packed"
