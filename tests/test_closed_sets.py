"""NextClosure and the annihilator hosts against slow references: ideals
and subsemimodules against a direct filter, the maximal proper annihilator
ideals against brute-force intersections, and the cap on the number of
closed sets."""

import itertools

import pytest
from hypothesis import given, strategies as st

from semiringlab.corpus import corpus_semimodules
from semiringlab.covering import annihilator_avoidance
from semiringlab.errors import CapExceeded
from semiringlab.ideals import (
    SIDES,
    TWO_SIDED,
    IdealSet,
    annihilator,
    brute_force_ideal_masks,
    closed_sets,
    ideal_masks,
    mask_members,
    maximal_masks,
    subsemimodule_masks,
)
from semiringlab.limits import IDEAL_ENUM_CAP
from semiringlab.tables import CayleyStructure, check_laws


@st.composite
def ringoid_tables(draw):
    """Arbitrary tables of size 1-5: most have no laws and no zero."""
    n = draw(st.integers(1, 5))
    table = st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n
    )
    return CayleyStructure(size=n, add=draw(table), mul=draw(table))


@given(ringoid_tables())
def test_ideal_masks_match_brute_force(s):
    for side in SIDES:
        assert ideal_masks(s, side) == brute_force_ideal_masks(s, side)


def test_closed_sets_of_identity_count_every_subset():
    assert len(closed_sets(4, lambda m: m)) == 16
    assert len(closed_sets(16, lambda m: m)) == IDEAL_ENUM_CAP


def test_closed_sets_cap_counts_sets_not_elements():
    with pytest.raises(CapExceeded):
        closed_sets(17, lambda m: m)


def _module_pairs(all_entries):
    for e in all_entries:
        for name, m in sorted(corpus_semimodules(e).items()):
            yield f"{e.name}/{name}", m


def test_subsemimodules_match_subset_filter(all_entries):
    checked = 0
    for label, m in _module_pairs(all_entries):
        elems = range(m.msize)
        want = []
        for bits in range(1 << m.msize):
            members = [x for x in elems if bits >> x & 1]
            if not bits >> m.mzero & 1:
                continue
            if any(not bits >> m.madd[x][y] & 1 for x in members for y in members):
                continue
            if any(not bits >> row[x] & 1 for row in m.action for x in members):
                continue
            want.append(bits)
        assert subsemimodule_masks(m) == tuple(sorted(want, key=mask_members)), label
        checked += 1
    assert checked >= 10


def test_annihilator_ideals_are_all_intersections(all_entries):
    """The maximal proper intersections of element annihilators, found by
    brute force, are the maximal proper element annihilators, and they are
    the hosts annihilator_avoidance picks."""
    hosted = 0
    for label, m in _module_pairs(all_entries):
        s, n = m.semiring, m.semiring.size
        full = (1 << n) - 1
        element_anns = {
            sum(1 << r for r in range(n) if m.action[r][x] == m.mzero) for x in range(m.msize)
        }
        meets = set()
        for k in range(1, len(element_anns) + 1):
            for family in itertools.combinations(sorted(element_anns), k):
                meet = full
                for am in family:
                    meet &= am
                meets.add(meet)
        want = sorted(maximal_masks(am for am in meets if am != full), key=mask_members)
        elements = (annihilator(m, [x]).mask for x in range(m.msize))
        assert want == sorted(maximal_masks(am for am in elements if am != full), key=mask_members), label
        if not check_laws(s).is_semiring:
            continue
        for host in want:
            p = IdealSet(structure=s, side=TWO_SIDED, mask=host)
            report = annihilator_avoidance(m, p, [p])
            assert report.holds and report.details["prime"] == mask_members(host), label
            hosted += 1
    assert hosted >= 10
