"""The bit-row and mask kernels against the loops they replaced, kept here
as slow references: the per-J square loop for semiprimeness, the triple
loop for 2-absorbing ideals, the all() loop for the least T-element, the scan
over every non-zero-divisor for the localization relation, the
per-class-pair combine for the quotient tables and the full row compare of
every class member, which the translation generators replaced (the
generator tables, kept in ``helpers`` since the quotient became e*S, still
meet that compare); the pairwise product test and the triple-loop sandwich
for primality, the residual comprehension (which the member rows of the
multiplication replaced), the power-orbit scan for radicals (which the
orbit masks replaced), the principal-product scan behind the
Behrens elements, Davis' keep-and-chain loop and the maximal-family
comprehension; the annihilator's scalar loop, the zero-divisor loop, the
Property (A) loop, the constant-killer loop and the killed list, which the
annihilator rows replaced, and the cell scan of ``ideal_violation``, which
the mask test of annihilators and residuals replaced; the cell
search for subtractivity, which the member rows of the addition replaced;
the scan of mediality over all four variables, which the walk over b < c replaced,
and the filter of every n^(n*n) table, which the pruned search for medial
magmas replaced; the skip-one loop of
the efficiency test, and the radical and
elementwise semiprime scans behind the union corollaries, which the stored
classification flags replaced; and the loop over every module polynomial
behind the monoid zero-divisor slices, which the coefficient search
replaced. Both layouts of the lattice pass, once per
ideal and once per element tuple over all ideals, must give the oracle's
classifications. The classification oracle reads only these loops, never
the kernels it checks. Every field and witness must agree,
and a computation that raises must raise the same error."""

import dataclasses
import functools
import itertools
import random
from typing import Optional

import pytest
from hypothesis import example, given, strategies as st

from semiringlab.corpus import (
    austere_z6,
    boolean_c2,
    boolean_semifield,
    boolean_square,
    chain_semiring,
    corpus_entry,
    corpus_semimodules,
    diamond_lattice,
    saturating,
)
from semiringlab import ideals
from semiringlab.analysis import analysis
from semiringlab.constructions import direct_product, endomorphism_ringoid, medial_witness
from semiringlab.covering import (
    FAILS,
    HOLDS,
    UNMET,
    WitnessReport,
    _prime_pair_product,
    _scan_avoiding,
    _unmet,
    _verify_subtractive_primes,
    davis_witness,
    is_efficient,
)
from semiringlab.errors import CapExceeded, StructureError, TheoremViolation
from semiringlab.ideals import (
    TWO_SIDED,
    IdealClassification,
    IdealSet,
    _semiprime_elementwise,
    classify_ideal,
    enumerate_ideals,
    ideal_masks,
    image,
    is_subtractive,
    mask_members,
    mask_of,
    maximal_masks,
    mult_closure,
    principal_masks,
    require_module_over,
    residual_rows,
    t_semiprime_element,
    union_mask,
)
from semiringlab.limits import CARRIER_CAP
from semiringlab.spectrum import compactly_packed_battery, spec_of
from semiringlab.suites import medial_magma_corpus
from semiringlab.tables import (
    CayleyStructure,
    FiniteSemimodule,
    _Rows,
    _int_in,
    check_laws,
    freeze_table,
    least_witness,
    require_commutative_semiring,
    require_semimodule,
    self_action,
)
from semiringlab.zerodivisors import (
    QuotientSemiring,
    _annihilated,
    _nonzero_annihilator_rows,
    ass_primes,
    monoid_zd_check,
    property_a_check,
    total_quotient,
    zero_divisor_mask,
)

from helpers import _quotient_tables, iter_bits, pair_classes, quotient_classes

LADDER = (12, 13, 14, 15, 16)


def reference_t_element(s: CayleyStructure, mask: int, t_mask: int) -> Optional[int]:
    """The all() loop for the least T-element of a two-sided ideal."""
    if mask & t_mask:
        raise StructureError("T-semiprimeness needs an ideal disjoint from T")
    mul = s.mul
    for t in iter_bits(t_mask):
        if all(mask >> mul[t][x] & 1 for x in range(s.size) if mask >> mul[x][x] & 1):
            return t
    return None


@functools.lru_cache(maxsize=None)
def reference_classification(s: CayleyStructure, mask: int) -> IdealClassification:
    ideal = IdealSet(structure=s, side=TWO_SIDED, mask=mask)
    rep = check_laws(s)
    # every class that applies is named, None while it holds
    witnesses: dict = dict.fromkeys(("subtractive", "proper", "prime", "semiprime", "two_absorbing", "maximal"))

    subtractive, witnesses["subtractive"] = reference_subtractive(s, mask)

    proper = ideal.is_proper
    if not proper:
        witnesses["proper"] = ()

    if proper:
        prime, witnesses["prime"] = reference_prime(s, mask)
    else:
        prime = False
        witnesses["prime"] = ()

    lattice = ideal_masks(s, TWO_SIDED)
    mul = s.mul

    if proper:
        semiprime = True
        for jm in lattice:
            square = 0
            for u in iter_bits(jm):
                for v in iter_bits(jm):
                    square |= 1 << mul[u][v]
            if square & ~mask == 0 and jm & ~mask:
                semiprime = False
                witnesses["semiprime"] = mask_members(jm)
                break
        if rep.is_commutative_semiring:
            elem = _semiprime_elementwise(s, mask)
            if (elem is None) != semiprime:
                raise TheoremViolation("elementwise and ideal-square semiprime criteria disagree")
            if elem is not None:
                witnesses["semiprime"] = elem
    else:
        semiprime = False
        witnesses["semiprime"] = ()

    two_absorbing = proper
    if proper:
        triples = (
            (x, y, z)
            for x in range(s.size)
            for y in range(s.size)
            for z in range(s.size)
            if mask >> mul[mul[x][y]][z] & 1
            and not (mask >> mul[x][y] & 1 or mask >> mul[y][z] & 1 or mask >> mul[x][z] & 1)
        )
        first = next(triples, None)
        if first is not None:
            two_absorbing = False
            witnesses["two_absorbing"] = first
    else:
        witnesses["two_absorbing"] = ()

    maximal = proper
    if proper:
        full = (1 << s.size) - 1
        for jm in lattice:
            if jm != full and jm != mask and mask & ~jm == 0:
                maximal = False
                witnesses["maximal"] = mask_members(jm)
                break
    else:
        witnesses["maximal"] = ()

    radical_ideal = None
    if rep.is_commutative_semiring:
        rad = reference_radical(s, mask)
        radical_ideal = rad == mask
        witnesses["radical_ideal"] = None if radical_ideal else mask_members(rad & ~mask)[:1]

    flags = {
        "subtractive": subtractive,
        "proper": proper,
        "prime": prime,
        "semiprime": semiprime,
        "two_absorbing": two_absorbing,
        "maximal": maximal,
        "radical_ideal": radical_ideal,
    }
    # the report derives its flags from the witnesses, so the oracle's own
    # flags must agree with its witnesses for the comparison to test them
    disagree = [name for name, holds in flags.items() if holds != (witnesses[name] is None if name in witnesses else None)]
    assert not disagree, f"reference flags disagree with their witnesses: {disagree}"
    return IdealClassification(witnesses)


def reference_subtractive(s: CayleyStructure, mask: int) -> tuple[bool, Optional[tuple[int, int]]]:
    """The n^2 cell search that the member rows of the addition replaced."""
    add = s.add
    for x in range(s.size):
        for y in range(s.size):
            total_in = mask >> add[x][y] & 1
            if not total_in:
                continue
            if mask >> x & 1 and not mask >> y & 1:
                return False, (x, y)
            if mask >> y & 1 and not mask >> x & 1:
                return False, (x, y)
    return True, None


def reference_total_quotient(s: CayleyStructure) -> tuple[QuotientSemiring, dict]:
    """The quotient by union-find over the pairs (a, u), with the class of
    each pair."""
    rep = require_commutative_semiring(s)
    mul, add = s.mul, s.add
    z_mask = reference_zero_divisor_mask(self_action(s))
    units = [u for u in range(s.size) if not z_mask >> u & 1]
    if rep.one not in units:
        raise TheoremViolation("one turned out to be a zero-divisor")
    pairs = [(a, u) for a in range(s.size) for u in units]

    def related(p, q) -> bool:
        (a, u), (b, v) = p, q
        av, bu = mul[a][v], mul[b][u]
        return any(mul[w][av] == mul[w][bu] for w in units)

    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for i, p in enumerate(pairs):
        for q in pairs[i + 1 :]:
            if related(p, q):
                rp, rq = find(p), find(q)
                if rp != rq:
                    parent[max(rp, rq)] = min(rp, rq)

    classes: dict = {}
    for p in pairs:
        classes.setdefault(find(p), []).append(p)
    reps = sorted(classes)
    pair_class = {p: reps.index(find(p)) for p in pairs}
    for r, members in classes.items():
        if not all(related(p, r) for p in members):
            raise TheoremViolation("localization relation is not transitive here")

    def combine(is_add, i, j):
        results = {
            pair_class[(add[mul[a][v]][mul[b][u]] if is_add else mul[a][b], mul[u][v])]
            for a, u in classes[reps[i]]
            for b, v in classes[reps[j]]
        }
        if len(results) != 1:
            raise TheoremViolation("quotient operation is not well defined")
        return results.pop()

    size = len(reps)
    q = CayleyStructure(
        size=size,
        add=[[combine(True, i, j) for j in range(size)] for i in range(size)],
        mul=[[combine(False, i, j) for j in range(size)] for i in range(size)],
        zero=pair_class[(rep.zero, rep.one)],
        one=pair_class[(rep.one, rep.one)],
        name=f"Q({s.name or 'S'})",
    )
    canonical = tuple(pair_class[(a, rep.one)] for a in range(s.size))
    full = (1 << size) - 1
    proper = [m for m in ideal_masks(q, TWO_SIDED) if m != full]
    maximal = tuple(
        IdealSet(structure=q, side=TWO_SIDED, mask=m)
        for m in proper
        if not any(other != m and m & ~other == 0 for other in proper)
    )
    quotient = QuotientSemiring(
        base=s,
        structure=q,
        units=tuple(units),
        canonical=canonical,
        maximal_ideals=maximal,
    )
    return quotient, pair_class


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (StructureError, TheoremViolation) as exc:
        return type(exc), str(exc)


def t_masks(s):
    """None, and on semirings the multiplicative closure of each element."""
    if not check_laws(s).is_semiring:
        return [None]
    return [None] + sorted({mult_closure(s, [g]).mask for g in range(s.size)})


def assert_classifications_match(s, t_choices=None):
    """Each ideal's classes (T-mask None) and least T-element against the
    oracles, which must also raise alike, on an ideal meeting T too."""
    for t_mask in t_masks(s) if t_choices is None else t_choices:
        t_set = None if t_mask is None else mult_closure(s, mask_members(t_mask))
        for ideal in enumerate_ideals(s, TWO_SIDED):
            if t_set is None:
                fast = outcome(classify_ideal, ideal)
                slow = outcome(reference_classification, s, ideal.mask)
            else:
                fast = outcome(t_semiprime_element, ideal, t_set)
                slow = outcome(reference_t_element, s, ideal.mask, t_mask)
            assert fast == slow, (s.name, mask_members(ideal.mask), t_mask)


def _operations(s):
    """The tables, zero and one of a structure, without its name."""
    return s.size, s.add, s.mul, s.zero, s.one


def assert_quotients_match(s):
    fast = outcome(total_quotient, s)
    slow = outcome(reference_total_quotient, s)
    if not isinstance(slow[0], QuotientSemiring):
        assert fast == slow
        return
    slow, pair_class = slow
    assert isinstance(fast, QuotientSemiring), (s.name, fast)
    # the quotient may be s itself, under s's name, so the structures are
    # compared by their tables, zero and one; the laws are proved on the
    # separately built one
    assert _operations(fast.structure) == _operations(slow.structure), s.name
    require_commutative_semiring(slow.structure)
    assert fast.base == slow.base
    assert fast.units == slow.units
    assert pair_classes(fast) == pair_class
    assert fast.canonical == slow.canonical
    assert [m.mask for m in fast.maximal_ideals] == [m.mask for m in slow.maximal_ideals]
    # the extension of an ideal is the set of classes of its pairs
    for ideal in enumerate_ideals(s, TWO_SIDED):
        pairs = mask_of(c for (a, _), c in pair_class.items() if a in ideal)
        assert fast.extend(ideal).mask == pairs, (s.name, ideal)


@st.composite
def any_tables(draw):
    """Arbitrary tables of size 1-5: most have no laws and no zero."""
    n = draw(st.integers(1, 5))
    table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    return CayleyStructure(size=n, add=draw(table), mul=draw(table), name="drawn")


def _z(n):
    return CayleyStructure(
        size=n,
        add=[[(a + b) % n for b in range(n)] for a in range(n)],
        mul=[[a * b % n for b in range(n)] for a in range(n)],
        zero=0,
        one=1 % n,
        name=f"z{n}",
    )


SMALL_SEMIRINGS = (
    boolean_semifield(),
    chain_semiring(),
    diamond_lattice(),
    boolean_square(),
    boolean_c2(),
    saturating(2),
    saturating(3),
    saturating(4),
    _z(2),
    _z(3),
    _z(4),
    _z(5),
)


@st.composite
def relabelled_semirings(draw):
    """A commutative semiring of size 2-5, its elements renamed by a drawn
    permutation, so least witnesses fall on other labels."""
    s = draw(st.sampled_from(SMALL_SEMIRINGS))
    perm = draw(st.permutations(range(s.size)))
    inverse = sorted(range(s.size), key=perm.__getitem__)

    def relabel(table):
        return [[perm[table[inverse[a]][inverse[b]]] for b in range(s.size)] for a in range(s.size)]

    return CayleyStructure(
        size=s.size,
        add=relabel(s.add),
        mul=relabel(s.mul),
        zero=perm[s.zero],
        one=perm[s.one],
        name=f"{s.name}-relabelled",
    )


@given(any_tables())
def test_classification_matches_reference_on_any_tables(s):
    assert_classifications_match(s)


def assert_subtractive_matches(s):
    for side in ideals.SIDES:
        for mask in ideal_masks(s, side):
            fast = is_subtractive(IdealSet(structure=s, side=side, mask=mask))
            assert fast == reference_subtractive(s, mask), (s.name, side, mask)


@given(any_tables())
def test_subtractive_matches_the_cell_search_on_any_tables(s):
    assert_subtractive_matches(s)


def test_subtractive_matches_the_cell_search_on_the_corpus(all_entries):
    for entry in all_entries:
        assert_subtractive_matches(entry.structure)


@given(any_tables())
def test_quotient_matches_reference_on_any_tables(s):
    assert_quotients_match(s)


@given(relabelled_semirings())
def test_classification_matches_reference_on_relabelled_semirings(s):
    assert check_laws(s).is_commutative_semiring
    assert_classifications_match(s)


@given(relabelled_semirings())
def test_quotient_matches_reference_on_relabelled_semirings(s):
    assert_quotients_match(s)


def test_classification_matches_reference_on_the_corpus(all_entries):
    for entry in all_entries:
        assert_classifications_match(entry.structure)


def test_quotient_matches_reference_on_the_corpus(all_entries):
    for entry in all_entries:
        assert_quotients_match(entry.structure)
    # products whose quotient e*S is smaller than the base, so e is not the
    # base's one, the first two with units in e*S other than e
    for factors, size, units in (
        ((saturating(3), _z(4)), 8, 2),
        ((austere_z6(), _z(3)), 6, 2),
        ((boolean_c2(), saturating(2)), 4, 1),
    ):
        s = direct_product(factors)
        assert_quotients_match(s)
        q = total_quotient(s).structure
        assert q.size == size < s.size
        assert sum(q.one in row for row in q.mul) == units


def test_classification_matches_reference_on_the_saturating_ladder():
    for top in LADDER:
        s = saturating(top)
        assert_classifications_match(s, [None, mult_closure(s, [1]).mask])


LAYOUTS = (ideals._per_ideal_witnesses, ideals._sliced_witnesses)


def assert_layouts_agree(s, reference=True):
    """Both layouts, each run on a fresh twin of s, give equal
    classifications and store equal per-mask facts; with ``reference``,
    the classifications are the oracle's."""
    results = []
    for walk in LAYOUTS:
        twin = dataclasses.replace(s)
        classes = ideals._lattice_classes(twin, ideal_masks(twin, TWO_SIDED), walk)
        facts = {kind: analysis(twin).facts.get(kind) for kind in ("subtractive", "prime", "radical")}
        results.append((classes, facts))
    assert results[0] == results[1], s.name
    if reference:
        assert results[0][0] == {m: reference_classification(s, m) for m in ideal_masks(s, TWO_SIDED)}, s.name


def test_both_layouts_agree_with_the_reference_on_the_corpus(all_entries):
    for entry in all_entries:
        assert_layouts_agree(entry.structure)


@given(any_tables())
def test_both_layouts_agree_with_the_reference_on_any_tables(s):
    assert_layouts_agree(s)


@given(relabelled_semirings())
def test_both_layouts_agree_with_the_reference_on_relabelled_semirings(s):
    assert_layouts_agree(s)


def boolean_matrices(upper: bool) -> CayleyStructure:
    """The 2x2 matrices over the boolean semifield, (a, b, c, d) for
    [[a, b], [c, d]], all 16 or the 8 upper triangular ones: semirings that
    are not commutative. In the full one {0} is prime but not completely
    prime (e11*e22 = 0)."""
    cells = [m for m in itertools.product((0, 1), repeat=4) if not (upper and m[2])]
    index = {m: i for i, m in enumerate(cells)}

    def times(p, q):
        a, b, c, d = p
        e, f, g, h = q
        return a & e | b & g, a & f | b & h, c & e | d & g, c & f | d & h

    return CayleyStructure(
        size=len(cells),
        add=[[index[tuple(u | v for u, v in zip(p, q))] for q in cells] for p in cells],
        mul=[[index[times(p, q)] for q in cells] for p in cells],
        zero=index[0, 0, 0, 0],
        one=index[1, 0, 0, 1],
        name="upper-triangular-booleans" if upper else "boolean-matrices",
    )


def test_both_layouts_agree_with_the_reference_on_noncommutative_semirings():
    """Where x*t*y and y*t*x differ, so a sandwich read the wrong way round
    would show."""
    ut, full = boolean_matrices(upper=True), boolean_matrices(upper=False)
    for s in (ut, full, direct_product([ut, boolean_semifield()]), direct_product([ut, chain_semiring()])):
        assert check_laws(s).is_semiring and not check_laws(s).mul_commutative
        assert_layouts_agree(s)


def test_both_layouts_agree_on_the_saturating_ladder():
    """The ladder's classifications, taken in the sliced layout, match the
    oracle in ``test_classification_matches_reference_on_the_saturating_ladder``;
    20 elements (1,656 ideals) are too many for the oracle's per-ideal loops."""
    for top in LADDER:
        assert_layouts_agree(saturating(top), reference=False)
    s = saturating(19)
    assert len(ideal_masks(s, TWO_SIDED)) == 1656
    assert_layouts_agree(s, reference=False)


def _right_absorb_emptied(original):
    """``_absorb`` with every right product set emptied, so the sandwich
    criterion finds every proper ideal not prime."""

    def absorb(s, side):
        return (0,) * s.size if side == ideals.RIGHT else original(s, side)

    return absorb


def test_the_cross_checks_fire_in_both_layouts(monkeypatch):
    """A broken criterion raises the same TheoremViolation in either layout:
    the sandwich criterion, read through emptied right products, against the
    principal-product one; and the ideal-square criterion, read over the
    chain's lattice without {0, a}, the only ideal outside {0} whose square
    lies in it, against the elementwise one."""
    prime, semiprime = [], []
    for walk in LAYOUTS:
        s = saturating(4)
        lattice = ideal_masks(s, TWO_SIDED)
        with monkeypatch.context() as patch:
            patch.setattr(ideals, "_absorb", _right_absorb_emptied(ideals._absorb))
            with pytest.raises(TheoremViolation, match="prime criteria disagree on") as raised:
                ideals._lattice_classes(s, lattice, walk)
        prime.append(str(raised.value))
        chain = chain_semiring()
        assert ideal_masks(chain, TWO_SIDED) == (0b001, 0b011, 0b111)
        with pytest.raises(TheoremViolation) as raised:
            ideals._lattice_classes(chain, (0b001, 0b111), walk)
        semiprime.append(str(raised.value))
    assert prime[0] == prime[1] == (
        "prime criteria disagree on <IdealSet two-sided [0] of saturating-5>: principal=True sandwich=False"
    )
    assert semiprime[0] == semiprime[1] == "elementwise and ideal-square semiprime criteria disagree"


def test_the_layout_follows_the_lattice_size(monkeypatch, all_entries):
    """Lattices of more than n ideals are classified per element tuple, the
    others per ideal: every ladder rung, and no corpus entry nor
    f2xy x boolean (16 elements, 12 ideals)."""
    walked = []
    for walk in LAYOUTS:

        def counted(s, *args, _walk=walk):
            walked.append((s.name, _walk.__name__))
            return _walk(s, *args)

        monkeypatch.setattr(ideals, walk.__name__, counted)
    ladder = [saturating(top) for top in LADDER]
    others = [dataclasses.replace(e.structure) for e in all_entries]
    others.append(direct_product([corpus_entry("f2xy").structure, boolean_semifield()]))
    for s in ladder + others:
        ideals._classify_lattice(s)
    assert walked == [(s.name, "_sliced_witnesses") for s in ladder] + [
        (s.name, "_per_ideal_witnesses") for s in others
    ]


def test_quotient_matches_reference_on_the_saturating_ladder():
    for top in LADDER:
        assert_quotients_match(saturating(top))


def reference_quotient_tables(s: CayleyStructure, classes: list) -> tuple[list, list]:
    """The addition and multiplication tables over classes of pairs (a, u),
    each class listed with its representative first.

    Per operation, every pair p gets the row of the classes of p op q over
    all pairs q, with (a, u) + (b, v) = (a*v + b*u, u*v) and
    (a, u) * (b, v) = (a*b, u*v). The operation is well defined exactly when
    every pair has its representative's row and that row is constant on each
    class; so every product is computed and compared, and a failure raises
    :class:`TheoremViolation`.
    """
    add, mul, n = s.add, s.mul, s.size
    cols = tuple(zip(*mul))
    by_den: dict = {}  # u -> the class of (a, u) for each a
    for i, members in enumerate(classes):
        for a, u in members:
            by_den.setdefault(u, [0] * n)[a] = i
    dens = sorted(by_den)
    # a row holds one block per v: the classes of p op (b, v), by b
    blocks = [by_den[v] for v in dens]
    first = [(dens.index(u), a) for a, u in (members[0] for members in classes)]

    def table(product) -> list:
        rows = []
        for members in classes:
            row = product(*members[0])
            entries = [row[k][b] for k, b in first]
            if [[entries[c] for c in block] for block in blocks] != row or any(
                product(a, u) != row for a, u in members[1:]
            ):
                raise TheoremViolation("quotient operation is not well defined")
            rows.append(entries)
        return rows

    def add_row(a: int, u: int) -> list:
        ra, cu, ru = mul[a], cols[u], mul[u]
        return [list(map(by_den[ru[v]].__getitem__, map(add[ra[v]].__getitem__, cu))) for v in dens]

    def mul_row(a: int, u: int) -> list:
        ra, ru = mul[a], mul[u]
        return [list(map(by_den[ru[v]].__getitem__, ra)) for v in dens]

    return table(add_row), table(mul_row)


def tables_or_error(fn, s, classes):
    """fn's tables, or the type and message of whatever it raised."""
    try:
        return fn(s, classes)
    except Exception as exc:
        return type(exc), str(exc)


def translation_premises(s: CayleyStructure, classes: list) -> bool:
    """Whether the denominators hold a right one and are closed under
    multiplication, and the classes list every pair over them: where
    ``_quotient_tables`` compares members on the translation generators
    only, and outside of which it raises."""
    pairs = {p for members in classes for p in members}
    dens = {u for _, u in pairs}
    return (
        any(all(row[e] == x for x, row in enumerate(s.mul)) for e in dens)
        and all(s.mul[u][v] in dens for u in dens for v in dens)
        and len(pairs) == s.size * len(dens)
    )


def assert_quotient_tables_match(s, classes):
    """The tables or the error of the full row compare where the premises
    hold, and the error otherwise."""
    fast = tables_or_error(_quotient_tables, s, classes)
    if translation_premises(s, classes):
        assert fast == tables_or_error(reference_quotient_tables, s, classes), (s.name, classes)
    else:
        assert fast == (TheoremViolation, "quotient operation is not well defined"), (s.name, classes)
    return fast


def test_quotient_tables_match_the_row_compare_on_the_corpus(commutative_entries):
    for e in commutative_entries:
        classes = quotient_classes(total_quotient(e.structure))
        assert isinstance(assert_quotient_tables_match(e.structure, classes), tuple)


@st.composite
def mutated_partitions(draw):
    """A commutative semiring with the pair classes of its total quotient,
    mutated by a few drawn steps: two classes merged, one pair moved to
    another class (a class it empties is dropped), a new representative
    drawn, or a pair dropped, which leaves a partition of fewer pairs that
    ``_quotient_tables`` must reject."""
    s = draw(st.sampled_from(SMALL_SEMIRINGS + (saturating(6),)))
    classes = [list(c) for c in quotient_classes(total_quotient(s))]
    for step in draw(st.lists(st.sampled_from(("merge", "move", "lead", "drop")), min_size=1, max_size=3)):
        i = draw(st.integers(0, len(classes) - 1))
        j = draw(st.integers(0, len(classes) - 1))
        if step == "merge" and i != j:
            i, j = sorted((i, j))
            classes[i] += classes.pop(j)
        elif step in ("move", "drop"):
            pair = classes[i].pop(draw(st.integers(0, len(classes[i]) - 1)))
            if step == "move":
                classes[j].append(pair)
            if not classes[i]:
                classes.pop(i)
        elif step == "lead":
            k = draw(st.integers(0, len(classes[i]) - 1))
            classes[i].insert(0, classes[i].pop(k))
        if not classes:
            classes = [[(0, s.one)]]
    return s, classes


@given(mutated_partitions())
def test_quotient_tables_match_the_row_compare_on_mutated_partitions(drawn):
    assert_quotient_tables_match(*drawn)


@st.composite
def partitioned_tables(draw):
    """Arbitrary tables of size 2-3 whose element e is a right one, with
    denominators that hold e and a drawn partition of their pairs, each
    class in a drawn order: most are no quotient, and where a product of
    denominators falls outside them ``_quotient_tables`` must reject the
    classes."""
    n = draw(st.integers(2, 3))
    e = draw(st.integers(0, n - 1))
    cells = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    add, mul = draw(cells), draw(cells)
    for x in range(n):
        mul[x][e] = x
    dens = sorted({e} | set(draw(st.lists(st.integers(0, n - 1), max_size=n))))
    pairs = draw(st.permutations([(a, u) for u in dens for a in range(n)]))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    classes = [[p for p, label in zip(pairs, labels) if label == c] for c in sorted(set(labels))]
    return CayleyStructure(size=n, add=add, mul=mul, name="drawn"), classes


@given(partitioned_tables())
def test_quotient_tables_match_the_row_compare_on_any_partition(drawn):
    assert_quotient_tables_match(*drawn)


# --- primality, residuals and the covering constructions ----------------------


def _set_product_into(s: CayleyStructure, amask: int, bmask: int, target: int) -> bool:
    mul = s.mul
    for u in iter_bits(amask):
        row = mul[u]
        for v in iter_bits(bmask):
            if not target >> row[v] & 1:
                return False
    return True


def reference_prime(s: CayleyStructure, mask: int):
    principal = principal_masks(s, TWO_SIDED)
    witness = None
    for a in range(s.size):
        if mask >> a & 1:
            continue
        for b in range(s.size):
            if mask >> b & 1:
                continue
            if _set_product_into(s, principal[a], principal[b], mask):
                witness = (a, b)
                break
        if witness:
            break
    ringoid_prime = witness is None
    if check_laws(s).is_semiring:
        mul = s.mul
        sandwich_witness = None
        for x in range(s.size):
            if mask >> x & 1:
                continue
            for y in range(s.size):
                if mask >> y & 1:
                    continue
                if all(mask >> mul[mul[x][t]][y] & 1 for t in range(s.size)):
                    sandwich_witness = (x, y)
                    break
            if sandwich_witness:
                break
        if (sandwich_witness is None) != ringoid_prime:
            ideal = IdealSet(structure=s, side=TWO_SIDED, mask=mask)
            raise TheoremViolation(
                f"prime criteria disagree on {ideal!r}: "
                f"principal={ringoid_prime} sandwich={sandwich_witness is None}"
            )
    return ringoid_prime, witness


def package_residual(ideal: IdealSet, t: int) -> IdealSet:
    """(I : t) as the semiprime residuals take it, on a commutative semiring."""
    s = ideal.structure
    require_commutative_semiring(s)
    return IdealSet(structure=s, side=ideal.side, mask=ideals._residual_mask(s, ideal.mask, residual_rows(s, ideal.mask)[t]))


def reference_residual(ideal: IdealSet, t: int) -> IdealSet:
    s = ideal.structure
    require_commutative_semiring(s)
    mask = mask_of(x for x in range(s.size) if ideal.mask >> s.mul[t][x] & 1)
    bad = ideals.ideal_violation(s, mask, ideal.side)
    if bad is not None:
        raise TheoremViolation(f"residual failed to be an ideal: {bad}")
    if ideal.mask & ~mask:
        raise TheoremViolation("residual does not contain the ideal")
    return IdealSet(structure=s, side=ideal.side, mask=mask)


def reference_prime_pair_product(s, principal, left, right, prime_mask) -> int:
    mul = s.mul
    for u in iter_bits(principal[left]):
        row = mul[u]
        for v in iter_bits(principal[right]):
            if not prime_mask >> row[v] & 1:
                return row[v]
    raise TheoremViolation(
        "no product of principal-ideal members avoids the prime; primality is broken"
    )


def _union(ideal_sets) -> int:
    mask = 0
    for i in ideal_sets:
        mask |= i.mask
    return mask


def reference_davis_witness(x: int, ideal: IdealSet, primes) -> WitnessReport:
    s = ideal.structure
    if not check_laws(s).is_semiring:
        return _unmet("semiring")
    primes = list(primes)
    bad = _verify_subtractive_primes(primes)
    if bad is not None:
        return bad
    principal = principal_masks(s, TWO_SIDED)
    add = s.add
    sum_mask = 0
    for u in iter_bits(principal[x]):
        row = add[u]
        for v in iter_bits(ideal.mask):
            sum_mask |= 1 << row[v]
    union = _union(primes)
    if sum_mask & ~union == 0:
        return _unmet("containment", detail="(x) + I lies inside the union")
    scanned = None
    for y in iter_bits(ideal.mask):
        if not union >> add[x][y] & 1:
            scanned = y
            break
    if scanned is None:
        raise TheoremViolation("no witness by scan despite verified hypotheses")
    keep = []
    for i, p in enumerate(primes):
        if any(p.mask != q.mask and p.mask & ~q.mask == 0 for q in primes):
            continue  # strictly inside another prime
        if any(q.mask == p.mask for q in primes[:i]):
            continue  # duplicate
        keep.append(p)
    containing_x = [p for p in keep if x in p]
    missing_x = [p for p in keep if x not in p]
    chain = ideal.mask
    mul = s.mul
    for p in missing_x:
        nxt = 0
        for u in iter_bits(chain):
            row = mul[u]
            for v in iter_bits(p.mask):
                nxt |= 1 << row[v]
        chain = nxt
    avoid = _union(containing_x)
    constructed = _scan_avoiding(chain, avoid)
    if constructed is None:
        raise TheoremViolation("constructive route found no element")
    if constructed not in ideal:
        raise TheoremViolation("constructive element escaped the ideal")
    if union >> add[x][constructed] & 1:
        raise TheoremViolation("constructive element fails avoidance")
    return WitnessReport(verdict=HOLDS, witness=scanned, details={"constructive": constructed})


def reference_maximal_masks(masks) -> tuple:
    """The maximal-family comprehension of the zero-divisor decomposition,
    with its removal of repeated masks."""
    maximal = [m for m in masks if not any(o != m and m & ~o == 0 for o in masks)]
    seen = set()
    out = []
    for m in maximal:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return tuple(out)


def reference_residual_rows(s: CayleyStructure, mask: int) -> tuple[int, ...]:
    return tuple(mask_of(y for y, xy in enumerate(row) if mask >> xy & 1) for row in s.mul)


def reference_radical(s: CayleyStructure, mask: int) -> int:
    if ideals.ideal_violation(s, mask, TWO_SIDED) is not None:
        raise StructureError(f"not a two-sided ideal: {IdealSet(structure=s, side=TWO_SIDED, mask=mask)!r}")
    out = 0
    for x in range(s.size):
        if any(mask >> p & 1 for p in ideals.power_orbit(s, x)):
            out |= 1 << x
    return out


def assert_rows_and_radicals_match(s):
    """Every residual row and the radical of every subset, or its refusal
    of a subset that is no ideal; past 8 elements, of every ideal and of 64
    seeded arbitrary masks."""
    if s.size <= 8:
        masks = range(1 << s.size)
    else:
        rng = random.Random(s.size)
        masks = [*ideal_masks(s, TWO_SIDED), *(rng.getrandbits(s.size) for _ in range(64))]
    for mask in masks:
        assert residual_rows(s, mask) == reference_residual_rows(s, mask), (s.name, mask)
        assert outcome(ideals.radical_mask, s, mask) == outcome(reference_radical, s, mask), (s.name, mask)


def assert_primality_matches(s, masks, pair_masks, checked_ideals):
    """_prime on the masks; the residual rows and radicals of
    assert_rows_and_radicals_match; the Behrens product of every pair of
    generators against each of pair_masks; and, for every ideal of
    checked_ideals, its residual quotient by each element and Davis' witness
    for each element and family of up to three primes, repeats allowed."""
    for mask in masks:
        assert outcome(ideals._prime, s, mask) == outcome(reference_prime, s, mask), (s.name, mask)
    assert_rows_and_radicals_match(s)
    for ideal, t in itertools.product(checked_ideals, range(s.size)):
        assert outcome(package_residual, ideal, t) == outcome(reference_residual, ideal, t), (s.name, ideal, t)
    principal = principal_masks(s, TWO_SIDED)
    for pm, a, b in itertools.product(pair_masks, range(s.size), range(s.size)):
        fast = outcome(_prime_pair_product, s, principal, a, b, residual_rows(s, pm))
        assert fast == outcome(reference_prime_pair_product, s, principal, a, b, pm), (s.name, pm, a, b)
    if not check_laws(s).is_semiring:
        return
    primes = spec_of(s)
    families = [f for k in range(4) for f in itertools.combinations_with_replacement(primes, k)]
    for x, ideal, family in itertools.product(range(s.size), checked_ideals, families):
        fast = outcome(davis_witness, x, ideal, family)
        assert fast == outcome(reference_davis_witness, x, ideal, family), (s.name, x, ideal, family)


def assert_small_structure_matches(s):
    proper = range(1, (1 << s.size) - 1)
    proper_ideals = [m for m in ideal_masks(s, TWO_SIDED) if m != (1 << s.size) - 1]
    assert_primality_matches(s, proper, proper_ideals, enumerate_ideals(s, TWO_SIDED))


@given(any_tables())
def test_primality_residuals_and_constructions_match_references_on_any_tables(s):
    assert_small_structure_matches(s)


@given(relabelled_semirings())
def test_primality_residuals_and_constructions_match_references_on_relabelled_semirings(s):
    assert_small_structure_matches(s)


def test_primality_residuals_and_constructions_match_references_on_the_corpus(all_entries):
    for entry in all_entries:
        assert_small_structure_matches(entry.structure)


def test_primality_residuals_and_constructions_match_references_on_the_saturating_ladder():
    for top in LADDER:
        s = saturating(top)
        full = (1 << s.size) - 1
        proper = [m for m in ideal_masks(s, TWO_SIDED) if m != full]
        principal = sorted(set(principal_masks(s)), key=mask_members)
        checked = [IdealSet(structure=s, side=TWO_SIDED, mask=m) for m in principal]
        assert_primality_matches(s, proper, [p.mask for p in spec_of(s)], checked)


@given(any_tables())
def test_image_matches_the_pairwise_loop(s):
    for a, b in itertools.product(range(1 << s.size), repeat=2):
        expected = mask_of({s.mul[x][y] for x in iter_bits(a) for y in iter_bits(b)})
        assert image(s.mul, a, b) == expected


@given(st.lists(st.integers(0, 63), max_size=10))
def test_maximal_masks_match_the_comprehension(masks):
    assert maximal_masks(masks) == reference_maximal_masks(masks)


# --- annihilator rows -----------------------------------------------------------


def reference_annihilator(m: FiniteSemimodule, xs) -> IdealSet:
    xs = sorted(set(xs))
    if not xs:
        raise StructureError("annihilator of the empty set is undefined")
    require_semimodule(m)
    s = m.semiring
    act, mz = m.action, m.mzero
    for x in xs:
        if not 0 <= x < m.msize:
            raise StructureError(f"module element out of range: {x!r} is not an integer in 0..{m.msize - 1}")
    mask = mask_of(r for r in range(s.size) if all(act[r][x] == mz for x in xs))
    result = IdealSet(structure=s, side=TWO_SIDED, mask=mask)
    bad = ideals.ideal_violation(s, mask, TWO_SIDED)
    if bad is not None:
        raise StructureError(f"annihilator is not two-sided here: {bad}")
    if check_laws(s).mul_associative:
        ok, w = is_subtractive(result)
        if not ok:
            raise TheoremViolation(f"annihilator not subtractive, witness {w}")
    return result


def reference_zero_divisor_mask(m: FiniteSemimodule) -> int:
    act, mz = m.action, m.mzero
    mask = 0
    for r in range(m.semiring.size):
        row = act[r]
        if any(row[x] == mz for x in range(m.msize) if x != mz):
            mask |= 1 << r
    return mask


def reference_property_a_check(s: CayleyStructure, m: FiniteSemimodule):
    require_commutative_semiring(s)
    require_semimodule(m)
    z = reference_zero_divisor_mask(m)
    act, mz = m.action, m.mzero
    for im in ideal_masks(s, TWO_SIDED):
        if im & ~z:
            continue
        scalars = list(iter_bits(im))
        if not any(all(act[r][x] == mz for r in scalars) for x in range(m.msize) if x != mz):
            return False, IdealSet(structure=s, side=TWO_SIDED, mask=im)
    return True, None


def reference_constant_killer(m: FiniteSemimodule, f) -> Optional[int]:
    """The least nonzero module element every coefficient of f kills."""
    act, mz = m.action, m.mzero
    for b in range(m.msize):
        if b == mz:
            continue
        if all(act[c][b] == mz for c in f):
            return b
    return None


def reference_killed(m: FiniteSemimodule, cover_mask: int) -> list[int]:
    """The module elements every scalar of the cover kills."""
    act, mz = m.action, m.mzero
    return [x for x in range(m.msize) if all(act[r][x] == mz for r in iter_bits(cover_mask))]


def _subsets(n: int):
    """Every nonempty subset of range(n) up to 8 elements, else the
    singletons and pairs."""
    if n <= 8:
        return [mask_members(mask) for mask in range(1, 1 << n)]
    return [(x,) for x in range(n)] + list(itertools.combinations(range(n), 2))


def assert_module_annihilators_match(m: FiniteSemimodule):
    """annihilator, the zero-divisor set and Property (A), and the row tests
    of the constant killer and the killed list, on every scalar mask (every
    ideal and every mask of at most two scalars past 8 scalars)."""
    s = m.semiring
    for xs in _subsets(m.msize) + [(m.msize,)]:
        assert outcome(ideals.annihilator, m, xs) == outcome(reference_annihilator, m, xs), (m.name, xs)
    assert zero_divisor_mask(m) == reference_zero_divisor_mask(m), m.name
    fast = outcome(property_a_check, s, m)
    assert fast == outcome(reference_property_a_check, s, m), m.name
    rows = ideals.annihilator_rows(m)
    if s.size <= 8:
        masks = range(1 << s.size)
    else:
        masks = sorted(set(ideal_masks(s, TWO_SIDED)) | {mask_of(p) for p in _subsets(s.size)})
    for mask in masks:
        killer = next((b for b, row in enumerate(rows) if b != m.mzero and mask & ~row == 0), None)
        assert killer == reference_constant_killer(m, mask_members(mask)), (m.name, mask)
        killed = [x for x, row in enumerate(rows) if mask & ~row == 0]
        assert killed == reference_killed(m, mask), (m.name, mask)


@st.composite
def tables_with_zero(draw):
    """Arbitrary tables of size 1-5, most of them patched to an absorbing
    additive zero at a drawn element, with the left-multiplication module
    they carry, lawful or not."""
    s = draw(any_tables())
    if draw(st.integers(0, 3)):
        n, z = s.size, draw(st.integers(0, s.size - 1))
        add, mul = [list(r) for r in s.add], [list(r) for r in s.mul]
        for x in range(n):
            add[z][x] = add[x][z] = x
            mul[z][x] = mul[x][z] = z
        s = CayleyStructure(size=n, add=add, mul=mul, name="drawn-with-zero")
    zero = check_laws(s).zero
    if zero is None:
        return s, None
    return s, FiniteSemimodule(semiring=s, msize=s.size, madd=s.add, mzero=zero, action=s.mul, name="drawn-module")


@given(tables_with_zero())
def test_annihilators_match_references_on_any_tables(drawn):
    _, m = drawn
    if m is not None:
        assert_module_annihilators_match(m)


def test_annihilators_match_references_on_the_corpus(all_entries):
    for entry in all_entries:
        for m in corpus_semimodules(entry).values():
            assert_module_annihilators_match(m)


def test_annihilators_match_references_on_the_saturating_ladder():
    for top in LADDER:
        assert_module_annihilators_match(self_action(saturating(top)))


def assert_ideal_mask_test_matches(s: CayleyStructure) -> int:
    """``ideals._is_ideal_mask`` against the cell scan of ``ideal_violation``
    on every mask and side; returns the number of masks that are ideals of
    one side and not of the other."""
    one_sided = 0
    for mask in range(1 << s.size):
        scanned = [ideals.ideal_violation(s, mask, side) is None for side in ideals.SIDES]
        assert [ideals._is_ideal_mask(s, mask, side) for side in ideals.SIDES] == scanned, (s.name, mask)
        one_sided += scanned[0] != scanned[1]
    return one_sided


@given(any_tables())
def test_ideal_mask_test_matches_the_cell_scan_on_any_tables(s):
    assert_ideal_mask_test_matches(s)


def test_ideal_mask_test_matches_the_cell_scan_on_the_corpus(all_entries):
    for e in all_entries:
        if e.structure.size <= 8:
            assert_ideal_mask_test_matches(e.structure)
    # x*y = x: each of the 15 nonempty masks is a right ideal, only the
    # carrier a left one
    projection = CayleyStructure(size=4, add=[[max(x, y) for y in range(4)] for x in range(4)], mul=[[x] * 4 for x in range(4)])
    assert assert_ideal_mask_test_matches(projection) == 14


# --- coverings ------------------------------------------------------------------


def reference_is_efficient(target: IdealSet, covers) -> bool:
    """The skip-one loop that ``_redundant`` replaced in the efficiency test."""
    for skip in range(len(covers)):
        rest = union_mask(c.mask for k, c in enumerate(covers) if k != skip)
        if target.mask & ~rest == 0:
            return False
    return True


def test_efficiency_matches_the_skip_one_loops(all_entries):
    """Every family of at most four lattice ideals, repeats allowed, in
    sorted and in reversed order, and every lattice ideal it covers."""
    checked = 0
    for entry in all_entries:
        lattice = enumerate_ideals(entry.structure, TWO_SIDED)
        for k in range(1, 5):
            for family in itertools.combinations_with_replacement(lattice, k):
                union = union_mask(c.mask for c in family)
                for covers in (family, family[::-1]):
                    for target in lattice:
                        if target.mask & ~union:
                            continue
                        assert is_efficient(target, covers) == reference_is_efficient(target, covers)
                        checked += 1
    assert checked > 1000


def assert_union_flags_match(s: CayleyStructure):
    """The classification flags that the radical and semiprime union
    corollaries count against the per-cover scans they replaced."""
    if not check_laws(s).is_commutative_semiring:
        return
    full = (1 << s.size) - 1
    for mask in ideal_masks(s, TWO_SIDED):
        cls = classify_ideal(IdealSet(structure=s, side=TWO_SIDED, mask=mask))
        assert cls.radical_ideal == (ideals.radical_mask(s, mask) == mask), (s.name, mask)
        assert cls.semiprime == (mask != full and _semiprime_elementwise(s, mask) is None), (s.name, mask)


@given(relabelled_semirings())
def test_union_flags_match_the_scans_on_relabelled_semirings(s):
    assert_union_flags_match(s)


@given(any_tables())
def test_union_flags_match_the_scans_on_any_tables(s):
    assert_union_flags_match(s)


def test_union_flags_match_the_scans_on_the_corpus_and_ladder(all_entries):
    for s in [e.structure for e in all_entries] + [saturating(top) for top in LADDER]:
        assert_union_flags_match(s)


# --- mediality --------------------------------------------------------------------


def reference_medial_witness(table) -> Optional[tuple]:
    """The scan over all four variables that the b < c walk replaced."""
    n = len(table)
    t = freeze_table(table, n, n, "magma")
    return least_witness(
        (n,) * 4,
        lambda a, b, c: ([t[t[a][b]][x] for x in t[c]], [t[t[a][c]][y] for y in t[b]]),
    )


def reference_medial_magma_corpus() -> list:
    """The filter over every n^(n*n) table that the pruned search replaced,
    followed by the curated batch of size-4 tables, which ends the corpus."""
    batch = []
    for n in range(1, 4):
        for flat in itertools.product(range(n), repeat=n * n):
            table = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            if reference_medial_witness(table) is None:
                batch.append(table)
    return batch + [t for t in medial_magma_corpus() if len(t) == 4]


@given(any_tables())
def test_medial_witness_matches_the_full_scan_on_any_tables(s):
    assert medial_witness(s.add) == reference_medial_witness(s.add)
    assert medial_witness(s.mul) == reference_medial_witness(s.mul)


def _endomorphism_additions():
    out = []
    for table in medial_magma_corpus():
        try:
            out.append(endomorphism_ringoid(table, cap=64).add)
        except CapExceeded:
            pass
    return out


def _one_cell_mutants(table, rng: random.Random, count: int = 4) -> list:
    """``count`` copies of a table of two or more elements, each with one
    cell moved to another value."""
    n = len(table)
    out = []
    for _ in range(count):
        rows = [list(row) for row in table]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = (rows[i][j] + 1 + rng.randrange(n - 1)) % n
        out.append(rows)
    return out


def assert_mutants_match_the_full_scan(tables_: list, rng: random.Random) -> int:
    """Each one-cell mutant's least witness is the full scan's; returns how
    many mutants within the cube budget pass the walk's first block, (a, b)
    = (0, 0), and fail later, where only the cube decides them."""
    late = 0
    for table in tables_:
        for rows in _one_cell_mutants(table, rng):
            w = medial_witness(rows)
            assert w == reference_medial_witness(rows)
            late += w is not None and w[:2] != (0, 0) and len(rows) ** 4 <= _Rows.cube_entries
    return late


def test_medial_witness_matches_the_full_scan_on_endomorphism_additions():
    """Every endomorphism-ringoid addition of ``endomorphism_suite`` holds,
    and so does each one-cell mutant's least witness: those of up to 13
    elements are decided within the cube budget, the larger ones by the
    walk. The 64-element one (the endomorphisms of the constant magma) is
    left out: its full scan alone walks 2^18 rows of 64."""
    rng = random.Random(0)
    additions = [add for add in _endomorphism_additions() if len(add) < 64]
    assert len(additions) == 384
    for add in additions:
        assert medial_witness(add) == reference_medial_witness(add) is None
    assert {len(add) ** 4 <= _Rows.cube_entries for add in additions} == {True, False}
    assert assert_mutants_match_the_full_scan([add for add in additions if len(add) > 1], rng) > 0


def test_medial_witness_matches_the_full_scan_on_mutants_of_the_magma_corpus():
    """One-cell mutants of every medial magma of 2 to 4 elements that
    ``endomorphism_suite`` reads, all within the cube budget: some fail only
    past the first block."""
    rng = random.Random(1)
    assert assert_mutants_match_the_full_scan([t for t in medial_magma_corpus() if len(t) > 1], rng) > 0


def test_medial_magma_corpus_matches_the_exhaustive_filter():
    """Element by element and in order: the 1, 10 and 369 medial tables of
    sizes 1 to 3, then the five curated ones of size 4."""
    fast = medial_magma_corpus()
    assert fast == reference_medial_magma_corpus()
    assert [len(t) for t in fast].count(4) == 5
    assert len(fast) == 385


# --- monoid zero-divisor slices -------------------------------------------------------


def reference_annihilated(f, madd, act, mz) -> bool:
    """The loop the coefficient search replaced: every nonzero module
    polynomial g in turn, each by a full convolution of f and g."""
    length = len(f)

    def poly_times_module(f, g):
        out = [mz] * (2 * length - 1)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                k = i + j
                out[k] = madd[out[k]][act[fi][gj]]
        return out

    module_slice = list(itertools.product(range(len(madd)), repeat=length))
    zero_poly = tuple([mz] * length)
    annihilating = None
    for g in module_slice:
        if g == zero_poly:
            continue
        if all(c == mz for c in poly_times_module(f, g)):
            annihilating = g
            break
    return annihilating is not None


def reference_monoid_zd(s: CayleyStructure, m: FiniteSemimodule, degree_cap: int) -> WitnessReport:
    """``monoid_zd_check`` as it was before the coefficient search, its loop
    over the module slice moved into ``reference_annihilated``."""
    length = _int_in(degree_cap, "degree cap") + 1
    require_module_over(s, m)
    # testing the length first keeps the power small and bounds 1-element carriers
    if length > CARRIER_CAP or max(s.size, m.msize) ** length > CARRIER_CAP:
        raise CapExceeded(f"degree cap {degree_cap} gives a slice of more than {CARRIER_CAP} polynomials")
    rep = check_laws(s)
    if not rep.is_commutative_semiring:
        return WitnessReport(verdict=UNMET, violated_hypothesis="commutative-semiring")
    battery = compactly_packed_battery(s)
    if not battery.compactly_packed:
        return WitnessReport(verdict=UNMET, violated_hypothesis="compactly-packed")
    prop_a, bad = property_a_check(s, m)
    if not prop_a:
        return WitnessReport(
            verdict=UNMET, violated_hypothesis="property-a", details={"ideal": bad.members()}
        )
    z_mask = zero_divisor_mask(m)
    decomposition = maximal_masks(ann.mask for _, ann in ass_primes(m))
    if union_mask(decomposition) != z_mask:
        raise TheoremViolation("associated primes do not cover the zero divisors")

    killers = _nonzero_annihilator_rows(m)
    tallies = {
        "slice_size": 0,
        "sup_checked": 0,
        "sup_witnessed": 0,
        "sub_witnessed": 0,
        "sub_inconclusive": 0,
        "sub_violations": 0,
    }
    for f in itertools.product(range(s.size), repeat=length):
        tallies["slice_size"] += 1
        coefficients = mask_of(f)
        in_decomposition = any(coefficients & ~pm == 0 for pm in decomposition)
        if in_decomposition:
            tallies["sup_checked"] += 1
            if not any(coefficients & ~row == 0 for row in killers):
                raise TheoremViolation(
                    "polynomial with coefficients in a decomposition prime has "
                    "no constant annihilator despite Property (A)"
                )
            tallies["sup_witnessed"] += 1
        if reference_annihilated(f, m.madd, m.action, m.mzero):
            if in_decomposition:
                tallies["sub_witnessed"] += 1
            else:
                tallies["sub_violations"] += 1
        elif not in_decomposition:
            tallies["sub_inconclusive"] += 1
    verdict = HOLDS if tallies["sub_violations"] == 0 else FAILS
    return WitnessReport(verdict=verdict, details=tallies)


@pytest.mark.parametrize("degree_cap", [0, 1, 2])
def test_monoid_slices_match_the_loop_on_the_corpus(all_entries, degree_cap):
    """The whole report of every semimodule each corpus entry carries."""
    seen = 0
    for e in all_entries:
        for m in corpus_semimodules(e).values():
            fast = monoid_zd_check(e.structure, m, degree_cap)
            assert fast == reference_monoid_zd(e.structure, m, degree_cap), (e.name, m.name)
            seen += fast.verdict == HOLDS
    assert seen == 9


@pytest.mark.parametrize(
    "name, degree_cap", [("boolean", 6), ("chain-3", 3), ("chain-3", 4), ("bool2", 3)]
)
def test_monoid_slices_match_the_loop_on_deeper_slices(name, degree_cap):
    """Up to the caps where the loop still takes well under a second."""
    s = corpus_entry(name).structure
    m = self_action(s)
    fast = monoid_zd_check(s, m, degree_cap)
    assert fast.holds and fast == reference_monoid_zd(s, m, degree_cap)


@st.composite
def slice_tables(draw):
    """A scalar polynomial of 1-4 coefficients acting on a module through
    arbitrary tables on 1-3 elements, which mostly break every law, or
    through the self action of a small commutative semiring."""
    f_length = draw(st.integers(1, 4))
    if draw(st.booleans()):
        s = draw(st.sampled_from(SMALL_SEMIRINGS))
        if s.size ** f_length > 256:
            f_length = 2
        m = self_action(s)
        madd, act, mz, scalars = m.madd, m.action, m.mzero, s.size
    else:
        n, scalars = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        cells = st.integers(0, n - 1)
        madd = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
        act = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=scalars, max_size=scalars))
        mz = draw(cells)
    f = tuple(draw(st.lists(st.integers(0, scalars - 1), min_size=f_length, max_size=f_length)))
    return f, madd, act, mz


@given(slice_tables())
@example(((2, 1), ((2, 2, 0), (2, 0, 1), (0, 0, 0)), ((0, 0, 1), (2, 0, 2), (2, 0, 0)), 0))
@example(((0, 0, 0), ((1, 1, 0), (1, 0, 0), (2, 0, 2)), ((2, 0, 1),), 1))
def test_annihilator_search_matches_the_loop_on_any_tables(drawn):
    """The two examples answer otherwise when a coefficient folds its terms
    in another order: the first in a coefficient below len(f), the second
    in one above."""
    assert _annihilated(*drawn) == reference_annihilated(*drawn)
