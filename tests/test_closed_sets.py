"""Close-by-One and the maximal annihilators against slow references:
ideals against a direct filter and against NextClosure (a test helper),
the choice of the ideal join, the maximal proper annihilator ideals
against brute-force intersections, and the cap on the number of closed
sets, which both enumerators count alike. Last, the ordered search against
a filter over every assignment."""

import itertools

import pytest
from hypothesis import given, strategies as st

from semiringlab import ideals
from semiringlab.closure import close_by_one, ordered_search
from semiringlab.constructions import endomorphism_ringoid
from semiringlab.corpus import chain_semiring, corpus_semimodules
from semiringlab.errors import CapExceeded
from semiringlab.ideals import (
    LEFT,
    SIDES,
    TWO_SIDED,
    annihilator,
    brute_force_ideal_masks,
    close_mask,
    ideal_masks,
    mask_members,
    mask_of,
    maximal_masks,
)
from semiringlab.limits import IDEAL_ENUM_CAP
from semiringlab.suites import medial_magma_corpus
from semiringlab.tables import CayleyStructure, check_laws
from semiringlab.zerodivisors import zero_divisor_report

from helpers import closed_sets


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


def _identity_join(a: int, j: int) -> int:
    return a | 1 << j


def test_close_by_one_of_identity_counts_every_subset():
    assert sorted(close_by_one(0, [1 << j for j in range(4)], _identity_join)) == list(range(16))
    assert len(close_by_one(0, [1 << j for j in range(16)], _identity_join)) == IDEAL_ENUM_CAP


def test_close_by_one_cap_counts_sets_not_elements():
    with pytest.raises(CapExceeded, match=f"more than {IDEAL_ENUM_CAP} closed sets on 17 elements"):
        close_by_one(0, [1 << j for j in range(17)], _identity_join)


def next_closure_masks(s, side):
    """The ideal masks as NextClosure enumerates them, sorted as
    ``ideal_masks`` sorts them."""
    masks = closed_sets(s.size, lambda m: close_mask(s, m, side))
    return tuple(sorted((m for m in masks if m), key=mask_members))


@st.composite
def sum_join_tables(draw):
    """Tables of size 1-6 whose addition is associative and commutative and
    whose multiplication distributes over it on the left, and on both sides
    when ``both`` is drawn, relabelled by a drawn permutation. Either the
    addition is max on a chain and the product is monotone in its right
    factor (in both when ``both``), or the addition is that of Z_n and
    a*b = k[a]*b, with k[a] = a*t when ``both``."""
    n = draw(st.integers(1, 6))
    both = draw(st.booleans())
    elements = st.integers(0, n - 1)
    if draw(st.booleans()):
        raw = draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n))
        add = [[max(a, b) for b in range(n)] for a in range(n)]
        mul = [
            [max(raw[i][j] for i in (range(a + 1) if both else (a,)) for j in range(b + 1)) for b in range(n)]
            for a in range(n)
        ]
    else:
        if both:
            t = draw(elements)
            k = [a * t % n for a in range(n)]
        else:
            k = draw(st.lists(elements, min_size=n, max_size=n))
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        mul = [[k[a] * b % n for b in range(n)] for a in range(n)]
    perm = draw(st.permutations(range(n)))
    inverse = sorted(range(n), key=perm.__getitem__)

    def relabel(table):
        return [[perm[table[inverse[a]][inverse[b]]] for b in range(n)] for a in range(n)]

    return both, CayleyStructure(size=n, add=relabel(add), mul=relabel(mul), name="drawn")


@given(sum_join_tables())
def test_close_by_one_matches_next_closure_and_brute_force(drawn):
    both, s = drawn
    rep = check_laws(s)
    assert ideals._sum_joins(rep, LEFT)
    assert ideals._sum_joins(rep, TWO_SIDED) or not both
    for side in SIDES:
        assert ideal_masks(s, side) == next_closure_masks(s, side) == brute_force_ideal_masks(s, side), side


def test_close_by_one_matches_next_closure_on_the_corpus(all_entries):
    joined = 0
    for e in all_entries:
        s = e.structure
        for side in SIDES:
            if ideals._sum_joins(check_laws(s), side):
                assert ideal_masks(s, side) == next_closure_masks(s, side), (e.name, side)
                joined += 1
    assert joined >= 20


def test_closure_join_serves_only_tables_whose_join_is_not_a_sum(monkeypatch):
    """A ringoid whose medial addition is not associative joins by the
    closure, on every side; a commutative semiring joins by the sum."""
    calls = []
    real = ideals._sum_join
    monkeypatch.setattr(ideals, "_sum_join", lambda add, a, p: calls.append(p) or real(add, a, p))
    table = ((0, 0, 0), (0, 0, 0), (0, 1, 1))
    ringoid = endomorphism_ringoid(table)
    rep = check_laws(ringoid)
    assert table in medial_magma_corpus() and rep.is_ringoid and not rep.add_associative
    for side in SIDES:
        assert ideal_masks(ringoid, side) == next_closure_masks(ringoid, side) == brute_force_ideal_masks(ringoid, side)
    assert calls == []
    chain = chain_semiring()
    for side in SIDES:
        assert ideal_masks(chain, side) == brute_force_ideal_masks(chain, side)
    assert calls


def _module_pairs(all_entries):
    for e in all_entries:
        for name, m in sorted(corpus_semimodules(e).items()):
            yield f"{e.name}/{name}", m


def test_annihilator_ideals_are_all_intersections(all_entries):
    """The maximal proper intersections of element annihilators, found by
    brute force, are the maximal proper element annihilators, and over a
    commutative semiring each is an associated prime of the zero-divisor
    report, which checks that every maximal element annihilator is one."""
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
        if not check_laws(s).is_commutative_semiring:
            continue
        ass = {mask_of(members) for _, members in zero_divisor_report(s, m).ass}
        for host in want:
            assert host in ass, label
            hosted += 1
    assert hosted >= 10


@st.composite
def prefix_checks(draw):
    """A length >= 1, a value count >= 1 and a set of refused prefixes. A
    check that reads only a[0..k] is a set of refused prefixes, so these
    draw every such check on small searches."""
    length = draw(st.integers(1, 4))
    values = draw(st.integers(1, 4))
    prefix = st.lists(st.integers(0, values - 1), min_size=1, max_size=length).map(tuple)
    return length, values, draw(st.frozensets(prefix, max_size=12))


@given(prefix_checks())
def test_ordered_search_matches_the_filter_over_every_assignment(drawn):
    length, values, refused = drawn

    def fits(a, k):
        return tuple(a[: k + 1]) not in refused

    expected = [
        a for a in itertools.product(range(values), repeat=length) if all(fits(a, k) for k in range(length))
    ]
    assert list(ordered_search(length, values, fits)) == expected


def test_ordered_search_walks_past_the_recursion_limit():
    """One index per position: 5,000 positions, each refusing its value 1."""
    assert list(ordered_search(5000, 2, lambda a, k: a[k] == 0)) == [(0,) * 5000]
