"""The analysis context: every fact it holds against its compute function run
from scratch, one context owned by each structure and freed with it, one
computation per key, and read-only reports."""

import dataclasses
import gc
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from semiringlab import analysis as ctxmod
from semiringlab import ideals, spectrum, tables
from semiringlab.analysis import analysis
from semiringlab.cli import _plain
from semiringlab.constructions import direct_product
from semiringlab.corpus import boolean_semifield, chain_semiring, corpus_semimodules, saturating
from semiringlab.errors import StructureError
from semiringlab.ideals import (
    SIDES,
    TWO_SIDED,
    IdealSet,
    _absorb,
    all_ideals_subtractive,
    annihilator,
    annihilator_rows,
    classify_ideal,
    element_annihilators,
    enumerate_ideals,
    ideal_masks,
    is_prime,
    is_subtractive,
    mult_closure,
    principal_masks,
    radical,
    residual_rows,
    semiprime_residual,
    t_semiprime_element,
)
from semiringlab.spectrum import _spec_masks, compactly_packed_battery, spec_of
from semiringlab.tables import CayleyStructure, check_laws, self_action, semimodule_check


def reads(s):
    """Every fact of the structure, read through the public functions, as
    (kind, key, value read)."""
    rep = check_laws(s)
    out = [("laws", None, rep)]
    for side in SIDES:
        out.append(("absorb", side, _absorb(s, side)))
        out.append(("principal", side, principal_masks(s, side)))
        out.append(("lattice", side, ideal_masks(s, side)))
        for i in enumerate_ideals(s, side):
            out.append(("subtractive", i.mask, is_subtractive(i)))
    out.append(("spectrum", None, _spec_masks(s)))
    if rep.is_semiring:
        out.append(("self_action", None, self_action(s)))
    t_set = mult_closure(s, [rep.one]) if rep.is_commutative_semiring else None
    lattice = enumerate_ideals(s, TWO_SIDED)
    out.append(("classes", None, {i.mask: classify_ideal(i) for i in lattice}))
    for i in lattice:
        if i.is_proper:
            out.append(("prime", i.mask, is_prime(i)))
        if t_set is not None:
            out.append(("radical", i.mask, radical(i).mask))
            if not i.mask & t_set.mask:
                out.append(("t_element", (i.mask, t_set.mask), t_semiprime_element(i, t_set)))
                found = semiprime_residual(i, t_set)
                stored = None if found is None else (found[0], found[1].mask)
                out.append(("semiprime_residual", (i.mask, t_set.mask), stored))
    if t_set is not None:
        out.append(("orbits", None, ideals._orbits(s)))
    # the member views have no public read: each is checked as the residual
    # rows and subtractive tests left it
    for op, view in analysis(s).facts.get("member_view", {}).items():
        out.append(("member_view", op, view))
    return out


COMPUTE = {
    "laws": lambda s, key: tables._law_report(s),
    "absorb": lambda s, side: ideals._absorb_masks(s, side),
    "principal": lambda s, side: ideals._principal_masks(s, side),
    "lattice": lambda s, side: ideals._ideal_masks(s, side),
    "spectrum": lambda s, key: spectrum._prime_masks(s),
    "annihilators": lambda m, key: ideals._annihilator_rows(m),
    "subtractive": lambda s, mask: ideals._subtractive(s, mask),
    "prime": lambda s, mask: ideals._prime(s, mask),
    "member_view": lambda s, op: tables.member_view(getattr(s, op)),
    "orbits": lambda s, key: ideals._orbit_masks(s),
    "radical": lambda s, mask: ideals._checked(ideals._orbit_radical, s, mask),
    "classes": lambda s, key: ideals._classify_lattice(s),
    "t_element": lambda s, key: ideals._t_semiprime_element(s, *key),
    "semiprime_residual": lambda s, key: ideals._semiprime_residual(s, *key),
    "semimodule": lambda m, key: tables._semimodule_report(m),
    "element_annihilators": lambda m, key: ideals._element_annihilators(m),
    "self_action": lambda s, key: tables._self_action(s),
}


def test_every_fact_kind_has_an_oracle():
    assert set(COMPUTE) == set(ctxmod.FACTS)


def check_against_scratch(s):
    """Each value read equals its compute function run on a freshly built
    equal structure, which starts with an empty context of its own, so every
    fact it depends on is rebuilt as well."""
    got = reads(s)
    twin = dataclasses.replace(s)
    assert twin is not s and twin == s and hash(twin) == hash(s)
    assert analysis(twin) is not analysis(s)
    assert {kind for kind, _, _ in got} == set(analysis(s).facts)
    for kind, key, value in got:
        assert COMPUTE[kind](twin, key) == value, (s.name, kind, key)


@st.composite
def small_structures(draw):
    """Arbitrary tables of size 1-4: most have no laws and no zero."""
    n = draw(st.integers(1, 4))
    table = st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n
    )
    return CayleyStructure(size=n, add=draw(table), mul=draw(table), name="drawn")


@given(small_structures())
def test_every_fact_matches_scratch_on_small_tables(s):
    check_against_scratch(s)


def test_every_fact_matches_scratch_on_the_corpus(all_entries):
    """On fresh copies of the corpus structures: the session's shared ones
    hold whatever facts earlier tests read, which ``reads`` may not read."""
    for entry in all_entries:
        check_against_scratch(dataclasses.replace(entry.structure))


def test_semimodule_reports_match_scratch(all_entries):
    """A semimodule context owns its report, its annihilator rows and its
    element annihilators. The twin of a self action is built apart, so its
    report is scanned, while the self action's own was read off its
    semiring's laws."""
    for entry in all_entries:
        for m in corpus_semimodules(entry).values():
            got = {
                "semimodule": semimodule_check(m),
                "annihilators": annihilator_rows(m),
                "element_annihilators": element_annihilators(m),
            }
            # a twin over a twin semiring, so the semiring's facts are rebuilt too
            twin = dataclasses.replace(m, semiring=dataclasses.replace(m.semiring))
            assert twin is not m and twin == m and hash(twin) == hash(m)
            assert analysis(twin) is not analysis(m)
            assert analysis(twin.semiring) is not analysis(m.semiring)
            assert set(analysis(m).facts) == set(got)
            for kind, value in got.items():
                assert COMPUTE[kind](twin, None) == value, (m.name, kind)


def test_each_structure_owns_its_context():
    def build(name="twin"):
        return CayleyStructure(
            size=2, add=[[0, 1], [1, 1]], mul=[[0, 0], [0, 1]], zero=0, one=1, name=name
        )

    a, b = build(), build()
    assert a is not b and a == b
    assert analysis(a) is analysis(a)
    assert analysis(a) is not analysis(b)
    assert check_laws(a) is check_laws(a)
    assert check_laws(a) is not check_laws(b) and check_laws(a) == check_laws(b)
    assert ideal_masks(a) is ideal_masks(a)
    assert self_action(a) is self_action(a)
    assert self_action(a) is not self_action(b) and self_action(a) == self_action(b)
    created = ctxmod.context_count()
    analysis(build("other"))
    assert ctxmod.context_count() == created + 1


def test_contexts_are_freed_with_their_structures():
    """Analysing 3,000 distinct 16-element structures and dropping them
    leaves no memory behind, so a long-lived process that ingests new
    structures does not grow. The measure is the count of live pymalloc
    blocks: dropping every structure leaves fewer than a hundred more,
    keeping them leaves about 55 per structure, and keeping one small
    object per structure leaves 3,000. Memory taken outside pymalloc, by
    objects over 512 bytes, is not counted."""
    rng = random.Random(0)
    n = 16

    def table():
        return [rng.choices(range(n), k=n) for _ in range(n)]

    gc.collect()
    before = sys.getallocatedblocks()
    for k in range(3000):
        check_laws(CayleyStructure(size=n, add=table(), mul=table(), name=f"dropped-{k}"))
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert grown < 1000, grown


def test_each_per_mask_fact_is_computed_once(monkeypatch):
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            key = (name, args[1:])
            calls[key] = calls.get(key, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in (
        (ideals, "_subtractive"),
        (ideals, "_prime"),
        (ideals, "_orbit_radical"),
        (ideals, "_orbit_masks"),
        (ideals, "_annihilator_rows"),
        (ideals, "_classify_lattice"),
        (tables, "_self_action"),
        (tables, "_semimodule_report"),
    ):
        count(module, name)

    s = chain_semiring()
    for _ in range(3):
        for i in enumerate_ideals(s, TWO_SIDED):
            is_subtractive(i)
            classify_ideal(i)
            radical(i)
            if i.is_proper:
                is_prime(i)
        all_ideals_subtractive(s)
        for x in range(s.size):
            annihilator(self_action(s), [x])
    lattice = ideal_masks(s)
    assert calls and set(calls.values()) == {1}
    # one module per semiring, however often self_action is called, and
    # its report is read off the semiring's laws, never scanned
    assert ("_self_action", ()) in calls and ("_semimodule_report", ()) not in calls
    assert sum(k[0] == "_annihilator_rows" for k in calls) == 1
    assert ("_classify_lattice", ()) in calls
    # the lattice pass takes each radical unchecked, through _orbit_radical
    for name in ("_subtractive", "_orbit_radical", "_prime"):
        assert sum(k[0] == name for k in calls) == len(lattice) - (name == "_prime"), name
    # a one-sided ask checks its side and computes its verdict at every
    # call, and stores nothing
    stored = dict(analysis(s).facts["subtractive"])
    calls.clear()
    count(ideals, "_is_ideal_mask")
    one_sided = [side for side in SIDES if side != TWO_SIDED]
    for _ in range(3):
        for mask in lattice:
            for side in one_sided:
                is_subtractive(IdealSet(structure=s, side=side, mask=mask))
    assert calls == {
        **{("_is_ideal_mask", (mask, side)): 3 for mask in lattice for side in one_sided},
        **{("_subtractive", (mask,)): 3 * len(one_sided) for mask in lattice},
    }
    assert analysis(s).facts["subtractive"] == stored


def test_the_lattice_pass_leaves_no_per_mask_work():
    """Classifying every ideal runs one lattice pass, which stores each
    ideal's prime, subtractive and radical verdicts; the spectrum and the
    packed battery then compute none, and no lattice ideal's residual rows
    or square are kept."""
    s = saturating(16)
    lattice = enumerate_ideals(s, TWO_SIDED)
    before = ctxmod.counts()
    for i in lattice:
        classify_ideal(i)
    classified = ctxmod.counts()
    spec_of(s)
    compactly_packed_battery(s)
    after = ctxmod.counts()
    assert classified["classes"][0] - before["classes"][0] == 1
    assert classified["classes"][1] - before["classes"][1] == len(lattice) - 1
    assert classified["prime"][0] - before["prime"][0] == len(lattice) - 1
    for kind in ("subtractive", "radical"):
        assert classified[kind][0] - before[kind][0] == len(lattice), kind
    for kind in ("prime", "subtractive", "radical"):
        assert after[kind][0] == classified[kind][0], kind
        assert after[kind][1] > classified[kind][1], kind
    assert "square" not in ctxmod.FACTS
    assert "residual" not in ctxmod.FACTS


@pytest.mark.parametrize(
    "build", [lambda: saturating(16), lambda: direct_product([boolean_semifield()] * 5)], ids=["saturating-16", "boolean^5"]
)
def test_the_spectrum_and_the_battery_store_verdicts_only(monkeypatch, build):
    """With no classification before them, the spectrum and the packed
    battery read every lattice ideal's prime verdict and radical, gathering
    residual rows where a verdict needs them and storing none (no fact keyed
    by an ideal's mask holds a row per element), and check no mask the
    package built to be an ideal."""
    s = build()
    checks = []
    real = ideals._is_ideal_mask
    monkeypatch.setattr(ideals, "_is_ideal_mask", lambda *args: checks.append(args[1:]) or real(*args))
    spec_of(s)
    compactly_packed_battery(s)
    assert checks == []
    lattice = set(ideal_masks(s))
    for kind, table in analysis(s).facts.items():
        for key, value in table.items():
            if key in lattice:
                assert not (isinstance(value, tuple) and len(value) == s.size), (kind, key)


def test_one_residual_row_set_of_a_large_carrier_stays_small():
    """The residual rows of zero in a 512-element lattice take well under
    the n^3 bits of a per-value layout: the multiplication's member view,
    two windows of 256 values, and the rows gathered from it."""
    n = 512
    s = CayleyStructure(
        size=n,
        add=[[a | b for b in range(n)] for a in range(n)],
        mul=[[a & b for b in range(n)] for a in range(n)],
        name="lattice-512",
    )
    tracemalloc.start()
    try:
        rows = residual_rows(s, 1 << 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows[0] == (1 << n) - 1 and rows[n - 1] == 1
    assert peak <= 1 << 20, peak


def test_a_computation_that_raises_leaves_no_trace():
    s = CayleyStructure(size=2, add=[[0, 1], [1, 0]], mul=[[1, 1], [1, 1]], name="raises")
    for _ in range(2):
        with pytest.raises(StructureError):
            self_action(s)
    assert "self_action" not in analysis(s).facts
    check_against_scratch(s)


def test_counts_record_fills_and_reuses():
    s = CayleyStructure(size=2, add=[[0, 1], [1, 1]], mul=[[0, 0], [0, 1]], name="counted")
    before = ctxmod.counts()
    check_laws(s)
    check_laws(s)
    after = ctxmod.counts()
    assert after["laws"] == (before["laws"][0] + 1, before["laws"][1] + 1)
    info = check_laws.cache_info()
    assert (info.misses, info.hits) == after["laws"]


# --- read-only reports --------------------------------------------------------


def test_law_report_witnesses_are_read_only():
    s = CayleyStructure(size=2, add=[[0, 1], [1, 0]], mul=[[1, 1], [1, 1]], name="ro")
    rep = check_laws(s)
    assert rep.witnesses
    before = dict(rep.witnesses)
    with pytest.raises(TypeError):
        rep.witnesses["has_one"] = ()
    with pytest.raises(TypeError):
        del rep.witnesses[next(iter(before))]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.witnesses = {}
    assert check_laws(s).witnesses == before
    assert json.loads(json.dumps(_plain(rep.witnesses))) == {
        k: list(v) for k, v in before.items()
    }


def test_classification_witnesses_are_read_only():
    s = chain_semiring()
    cls = classify_ideal(enumerate_ideals(s, TWO_SIDED)[0])
    with pytest.raises(TypeError):
        cls.witnesses["prime"] = ()
    assert isinstance(_plain(cls.witnesses), dict)


def test_semimodule_witnesses_are_read_only(all_entries):
    for entry in all_entries:
        for m in corpus_semimodules(entry).values():
            with pytest.raises(TypeError):
                semimodule_check(m).witnesses["zero_neutral"] = ()


def test_a_report_copies_the_dict_it_is_given():
    witnesses = {"zero_neutral": (0,)}
    rep = tables.SemimoduleReport(witnesses)
    witnesses.clear()
    assert rep.witnesses == {"zero_neutral": (0,)}
    assert rep.zero_neutral is False and rep.add_associative is None
