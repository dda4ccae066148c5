"""The bit-row kernels of ideal classification and the total quotient
against the loops they replaced, kept here as slow references: the per-J
square loop for semiprimeness, the triple loop for 2-absorbing ideals and
the scan over every non-zero-divisor for the localization relation. Every
field and witness must agree, and a computation that raises must raise the
same error."""

import dataclasses
import functools
from types import MappingProxyType
from typing import Optional

from hypothesis import given, strategies as st

from semiringlab.corpus import (
    boolean_c2,
    boolean_semifield,
    boolean_square,
    chain_semiring,
    diamond_lattice,
    saturating,
)
from semiringlab.errors import StructureError, TheoremViolation
from semiringlab.ideals import (
    TWO_SIDED,
    IdealClassification,
    IdealSet,
    _semiprime_elementwise,
    classify_ideal,
    enumerate_ideals,
    ideal_masks,
    is_prime,
    is_subtractive,
    iter_bits,
    mask_members,
    mult_closure,
    radical,
)
from semiringlab.tables import CayleyStructure, check_laws, require_commutative_semiring, self_action
from semiringlab.zerodivisors import QuotientSemiring, total_quotient, zero_divisor_mask

LADDER = (12, 13, 14, 15, 16)


def reference_classification(s: CayleyStructure, mask: int, t_mask: Optional[int]) -> IdealClassification:
    cls = _reference_without_t(s, mask)
    if t_mask is None:
        return cls
    if mask & t_mask:
        raise StructureError("T-semiprimeness needs an ideal disjoint from T")
    mul = s.mul
    t_element = None
    for t in iter_bits(t_mask):
        if all(mask >> mul[t][x] & 1 for x in range(s.size) if mask >> mul[x][x] & 1):
            t_element = t
            break
    witnesses = dict(cls.witnesses)
    if t_element is None:
        witnesses["t_semiprime"] = ()
    return dataclasses.replace(cls, t_semiprime=t_element is not None, t_element=t_element, witnesses=witnesses)


@functools.lru_cache(maxsize=None)
def _reference_without_t(s: CayleyStructure, mask: int) -> IdealClassification:
    ideal = IdealSet(structure=s, side=TWO_SIDED, mask=mask)
    rep = check_laws(s)
    witnesses: dict = {}

    subtractive, w = is_subtractive(ideal)
    if w is not None:
        witnesses["subtractive"] = w

    proper = ideal.is_proper
    if not proper:
        witnesses["proper"] = ()

    if proper:
        prime, w = is_prime(ideal)
        if w is not None:
            witnesses["prime"] = w
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
        rad = radical(ideal).mask
        radical_ideal = rad == mask
        if not radical_ideal:
            witnesses["radical_ideal"] = mask_members(rad & ~mask)[:1]

    return IdealClassification(
        subtractive=subtractive,
        proper=proper,
        prime=prime,
        semiprime=semiprime,
        two_absorbing=two_absorbing,
        maximal=maximal,
        radical_ideal=radical_ideal,
        t_semiprime=None,
        t_element=None,
        witnesses=witnesses,
    )


def reference_total_quotient(s: CayleyStructure) -> QuotientSemiring:
    rep = require_commutative_semiring(s)
    mul, add = s.mul, s.add
    z_mask = zero_divisor_mask(self_action(s))
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
    return QuotientSemiring(
        base=s,
        structure=q,
        units=tuple(units),
        pair_class=MappingProxyType(pair_class),
        canonical=canonical,
        maximal_ideals=maximal,
    )


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
    for t_mask in t_masks(s) if t_choices is None else t_choices:
        t_set = None if t_mask is None else mult_closure(s, mask_members(t_mask))
        for ideal in enumerate_ideals(s, TWO_SIDED):
            if t_mask is not None and ideal.mask & t_mask:
                continue
            fast = outcome(classify_ideal, ideal, t_set)
            slow = outcome(reference_classification, s, ideal.mask, t_mask)
            assert fast == slow, (s.name, mask_members(ideal.mask), t_mask)


def assert_quotients_match(s):
    fast = outcome(total_quotient, s)
    slow = outcome(reference_total_quotient, s)
    if not isinstance(slow, QuotientSemiring):
        assert fast == slow
        return
    assert fast.structure == slow.structure, s.name
    assert fast.units == slow.units
    assert dict(fast.pair_class) == dict(slow.pair_class)
    assert fast.canonical == slow.canonical
    assert fast.maximal_ideals == slow.maximal_ideals
    assert fast == slow


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


def test_classification_matches_reference_on_the_saturating_ladder():
    for top in LADDER:
        s = saturating(top)
        assert_classifications_match(s, [None, mult_closure(s, [1]).mask])


def test_quotient_matches_reference_on_the_saturating_ladder():
    for top in LADDER:
        assert_quotients_match(saturating(top))
