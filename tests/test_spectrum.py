"""Spectra, vanishing sets and the packedness battery."""

import itertools

import pytest
from hypothesis import given, strategies as st

from semiringlab.corpus import (
    austere_z6,
    boolean_semifield,
    chain_semiring,
    diamond_lattice,
    dual_numbers_mod2,
    saturating,
)
from semiringlab.errors import StructureError
from semiringlab.ideals import (
    enumerate_ideals,
    generate_ideal,
    is_prime,
    radical,
)
from semiringlab.spectrum import (
    _union_condition,
    compactly_packed_battery,
    spec_of,
    zariski_axioms,
)


def brute_spec(s):
    """Independent spectrum: classify every proper ideal by the element
    criterion ab in P implies a or b in P, valid for commutative semirings."""
    out = []
    for ideal in enumerate_ideals(s):
        if not ideal.is_proper:
            continue
        outside = [a for a in range(s.size) if a not in ideal]
        if all(s.mul[a][b] not in ideal for a in outside for b in outside):
            out.append(ideal.members())
    return out


def test_spec_goldens():
    assert [p.members() for p in spec_of(boolean_semifield())] == [(0,)]
    assert [p.members() for p in spec_of(chain_semiring())] == [(0, 1)]
    assert [p.members() for p in spec_of(dual_numbers_mod2())] == [(0, 1, 2, 3)]


def test_spec_matches_element_criterion(commutative_entries):
    for e in commutative_entries:
        assert [p.members() for p in spec_of(e.structure)] == brute_spec(e.structure)


def test_zariski_axioms_corpus(commutative_entries):
    for e in commutative_entries:
        assert zariski_axioms(e.structure)


def test_battery_chain_golden():
    battery = compactly_packed_battery(chain_semiring())
    assert battery.compactly_packed and battery.weak_gaussian
    assert set(battery.equivalence_table.values()) == {True}
    # ties go to the least generator: the zero ideal's radical is already the
    # prime, since the middle element is nilpotent
    assert battery.radical_principal_map[(0, 1)] == 0
    assert radical(generate_ideal(chain_semiring(), [1])).members() == (0, 1)
    assert radical(generate_ideal(chain_semiring(), [0])).members() == (0, 1)


def test_battery_lattice_golden():
    battery = compactly_packed_battery(diamond_lattice())
    assert battery.compactly_packed
    assert {p.members() for p in battery.primes} == {(0, 1), (0, 2)}


def test_battery_boolean_golden():
    battery = compactly_packed_battery(boolean_semifield())
    assert battery.compactly_packed
    assert battery.radical_principal_map[(0,)] == 0


def test_battery_austere_not_packed():
    battery = compactly_packed_battery(austere_z6())
    assert not battery.compactly_packed
    assert set(battery.equivalence_table.values()) == {False}
    assert not battery.weak_gaussian
    # the largest prime is not the radical of any principal ideal
    assert battery.radical_principal_map[(0, 1, 3, 4, 5)] is None


def test_battery_agreement_corpus(commutative_entries):
    for e in commutative_entries:
        battery = compactly_packed_battery(e.structure)
        assert len(set(battery.equivalence_table.values())) == 1


def powerset_union_condition(targets, primes):
    """The union condition over every nonempty family of at most 10 primes:
    no target lies in the family's union unless some member contains it."""
    assert len(primes) <= 10
    for choice in range(1, 1 << len(primes)):
        family = [pm for i, pm in enumerate(primes) if choice >> i & 1]
        union = 0
        for pm in family:
            union |= pm
        for target in targets:
            if target & ~union == 0 and not any(target & ~pm == 0 for pm in family):
                return False
    return True


@given(
    st.lists(st.integers(1, 63), max_size=10),
    st.lists(st.integers(1, 63), min_size=1, max_size=8),
)
def test_union_condition_matches_powerset(primes, targets):
    assert _union_condition(targets, primes) == powerset_union_condition(targets, primes)


def test_battery_union_conditions_match_powerset(commutative_entries):
    ladder = [saturating(top) for top in (12, 13, 14, 15, 16)]
    verdicts = set()
    for s in [e.structure for e in commutative_entries] + ladder:
        primes = [p.mask for p in spec_of(s)]
        lattice = [i.mask for i in enumerate_ideals(s)]
        table = compactly_packed_battery(s).equivalence_table
        assert table["ideal_union_containment"] == powerset_union_condition(lattice, primes)
        assert table["prime_union_containment"] == powerset_union_condition(primes, primes)
        verdicts.add(table["ideal_union_containment"])
    assert verdicts == {True, False}


def test_weak_gaussian_finite_spec_packs(commutative_entries):
    for e in commutative_entries:
        battery = compactly_packed_battery(e.structure)
        if battery.weak_gaussian:
            assert battery.compactly_packed


def test_radical_principal_is_meet_of_primes(commutative_entries):
    for e in commutative_entries:
        s = e.structure
        primes = spec_of(s)
        for x in range(s.size):
            meet = (1 << s.size) - 1
            for p in primes:
                if x in p:
                    meet &= p.mask
            assert radical(generate_ideal(s, [x])).mask == meet


def test_battery_rejects_noncommutative():
    from semiringlab.corpus import cross_product_hemiring

    with pytest.raises(StructureError):
        compactly_packed_battery(cross_product_hemiring())


def test_packed_definition_for_packed_entries(commutative_entries):
    """For packed semirings, unions of prime families trap every ideal they
    cover; for austere-z6 a concrete covering escapes."""
    for e in commutative_entries:
        s = e.structure
        battery = compactly_packed_battery(s)
        primes = spec_of(s)
        covered_pairs = []
        for k in range(1, len(primes) + 1):
            for family in itertools.combinations(primes, k):
                union = 0
                for p in family:
                    union |= p.mask
                for i in enumerate_ideals(s):
                    if i.mask & ~union == 0:
                        covered_pairs.append((i, family))
        trapped = all(
            any(i.issubset(p) for p in family) for i, family in covered_pairs
        )
        assert trapped == battery.compactly_packed


def test_austere_escaping_ideal():
    s = austere_z6()
    m1 = generate_ideal(s, [3])
    m2 = generate_ideal(s, [4])
    big = generate_ideal(s, [3, 4])
    assert big.mask & ~(m1.mask | m2.mask) == 0
    assert not big.issubset(m1) and not big.issubset(m2)
    assert is_prime(m1)[0] and is_prime(m2)[0] and is_prime(big)[0]
