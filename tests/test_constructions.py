"""Constructors checked against hand enumeration and the law oracle."""

import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from semiringlab.constructions import (
    StructureConstants,
    austere_extension,
    direct_product,
    encode_tuple,
    endomorphism_ringoid,
    hemialgebra,
    magma_endomorphisms,
    medial_witness,
    monoid_semiring,
    scalar_identity_witness,
)
from semiringlab.corpus import (
    boolean_semifield,
    chain_semiring,
    componentwise_module,
    corpus,
    cross_constants,
    cross_product_hemiring,
    dual_numbers_mod2,
    saturating,
)
from semiringlab import constructions
from semiringlab.covering import is_efficient
from semiringlab.errors import CapExceeded, StructureError
from semiringlab.fileio import ingest_doc, structure_to_json
from semiringlab.ideals import enumerate_ideals, generate_ideal, is_subtractive
from semiringlab.suites import medial_magma_corpus
from semiringlab.tables import CayleyStructure, check_laws, commutative_monoid_table

import helpers


# --- endomorphism structures -------------------------------------------------

def test_endomorphisms_of_boolean_join():
    join = [[0, 1], [1, 1]]
    # oracle: all four maps {0,1} -> {0,1}, kept iff f(x or y) = f(x) or f(y)
    keep = []
    for f in itertools.product(range(2), repeat=2):
        if all(f[max(x, y)] == max(f[x], f[y]) for x in range(2) for y in range(2)):
            keep.append(f)
    assert keep == [(0, 0), (0, 1), (1, 1)]

    er = endomorphism_ringoid(join)
    endos = magma_endomorphisms(join)
    assert endos == ((0, 0), (0, 1), (1, 1))
    assert er.size == 3 and er.one == endos.index((0, 1))
    rep = check_laws(er)
    assert rep.is_ringoid and rep.mul_associative and rep.add_medial


def test_endomorphisms_of_singleton():
    er = endomorphism_ringoid([[0]])
    assert er.size == 1
    assert check_laws(er).is_ringoid


def test_endomorphism_tables_match_the_per_cell_comprehensions():
    """The byte gathers build the same sum and composition tables as one
    tuple per cell, over the whole medial-magma corpus (its 4-element
    tables have up to 256 endomorphisms), and the search lists the same
    maps in the same order as the filter over all n^n maps."""
    corpus_tables = medial_magma_corpus()
    assert len(corpus_tables) == 385
    for table in corpus_tables:
        er, endos = endomorphism_ringoid(table), magma_endomorphisms(table)
        assert endos == helpers.magma_endomorphisms(table)
        add, mul = helpers.endomorphism_tables(table, endos)
        assert er.add == tuple(map(tuple, add)) and er.mul == tuple(map(tuple, mul))
        assert er.one == endos.index(tuple(range(len(table))))


def _endomorphisms_or_cap(table, cap):
    try:
        return magma_endomorphisms(table, cap), helpers.magma_endomorphisms(table, cap)
    except CapExceeded as fast:
        with pytest.raises(CapExceeded, match=str(fast)):
            helpers.magma_endomorphisms(table, cap)
        return None, None


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.integers(0, 30),
)
def test_endomorphisms_match_the_filter_over_every_map_on_any_magma(table, cap):
    """Drawn magmas are rarely medial; a small cap must fire at the same map."""
    fast, slow = _endomorphisms_or_cap(table, cap)
    assert fast == slow


def test_endomorphism_cap_fires_at_the_same_map():
    """The join endomorphisms of the 5-element max chain are its C(9, 5) =
    126 monotone maps: cap 126 lists them all, and cap 125 raises in both
    searches."""
    join = [[max(x, y) for y in range(5)] for x in range(5)]
    fast, slow = _endomorphisms_or_cap(join, 126)
    assert fast == slow and len(fast) == 126
    assert _endomorphisms_or_cap(join, 125) == (None, None)
    with pytest.raises(CapExceeded, match="more than 125 endomorphisms"):
        magma_endomorphisms(join, 125)


def test_non_medial_magma_rejected():
    # x+y = x^2 + y mod 3 is not medial: nesting feeds the square a sum
    table = [[(i * i + j) % 3 for j in range(3)] for i in range(3)]
    assert medial_witness(table) is not None
    with pytest.raises(StructureError):
        endomorphism_ringoid(table)


# --- austere extensions -------------------------------------------------------

def test_austere_z6_shape_and_laws():
    z6 = [[(i * j) % 6 for j in range(6)] for i in range(6)]
    s = austere_extension(z6, zero=0, one=1)
    assert s.size == 7
    rep = check_laws(s)
    assert rep.is_semiring
    assert rep.zerosumfree and rep.entire
    # the adjoined element is additively neutral
    assert all(s.add[x][0] == x == s.add[0][x] for x in range(7))
    # old elements collapse additively onto the old absorbing element
    assert all(s.add[a][b] == 1 for a in range(1, 7) for b in range(1, 7))


def test_austere_left_ideals_not_subtractive():
    z6 = [[(i * j) % 6 for j in range(6)] for i in range(6)]
    s = austere_extension(z6, zero=0, one=1)
    full = (1 << 7) - 1
    seen_intermediate = 0
    for ideal in enumerate_ideals(s, "left"):
        if ideal.mask in (1, full):
            continue
        seen_intermediate += 1
        ok, witness = is_subtractive(ideal)
        assert not ok
        x, y = witness
        assert s.add[x][y] in ideal
    assert seen_intermediate == 4


def test_austere_of_boolean_monoid():
    # oracle: brute law check on the three-element result
    s = austere_extension([[0, 0], [0, 1]], zero=0, one=1)
    assert s.size == 3
    for a, b, c in itertools.product(range(3), repeat=3):
        assert s.mul[a][s.add[b][c]] == s.add[s.mul[a][b]][s.mul[a][c]]
        assert s.mul[s.add[b][c]][a] == s.add[s.mul[b][a]][s.mul[c][a]]
    rep = check_laws(s)
    assert rep.zerosumfree and rep.entire and rep.is_semiring


def test_austere_precondition_checks():
    with pytest.raises(StructureError):
        austere_extension([[0, 0], [0, 1]], zero=0, one=0)
    with pytest.raises(StructureError):
        austere_extension([[0, 1], [1, 0]], zero=0, one=1)  # 0 not absorbing


def test_austere_designations_outside_the_magma_are_rejected():
    # one=-1 would wrap to the last element, and zero=5 index past the table
    for zero, one in ((0, -1), (5, 1), (0, True), (0.0, 1)):
        with pytest.raises(StructureError, match=r"(zero|one) out of range: .* is not an integer in 0\.\.1"):
            austere_extension([[0, 0], [0, 1]], zero=zero, one=one)


# --- hemialgebras -------------------------------------------------------------

def test_cross_product_matches_direct_formula():
    cross = cross_product_hemiring()

    def direct(u, v):
        return (
            max(u[1] & v[2], u[2] & v[1]),
            max(u[2] & v[0], u[0] & v[2]),
            max(u[0] & v[1], u[1] & v[0]),
        )

    def digits(i):
        return helpers.decode_tuple(i, 2, 3)

    for i in range(8):
        for j in range(8):
            assert digits(cross.mul[i][j]) == direct(digits(i), digits(j))


def test_gamma_parts_that_are_not_lists_are_rejected():
    for gamma in (5, (5,), ((5,),)):  # gamma, a block, a row
        with pytest.raises(StructureError, match="gamma"):
            StructureConstants(semifield=boolean_semifield(), dim=1, gamma=gamma)


def test_zero_constants_give_null_multiplication():
    gamma = tuple(tuple((0,) * 2 for _ in range(2)) for _ in range(2))
    h = hemialgebra(StructureConstants(semifield=boolean_semifield(), dim=2, gamma=gamma))
    assert all(h.mul[i][j] == h.zero for i in range(4) for j in range(4))
    assert check_laws(h).is_na_hemiring


def test_dim_one_identity_constants_reproduce_the_semifield():
    gamma = (((1,),),)  # basis square maps to the basis vector itself
    h = hemialgebra(StructureConstants(semifield=boolean_semifield(), dim=1, gamma=gamma))
    b = boolean_semifield()
    assert h.size == 2 and h.add == b.add and h.mul == b.mul


def test_scalar_identity_holds_for_cross_product():
    assert scalar_identity_witness(cross_product_hemiring(), cross_constants()) is None


def test_scalar_identity_rows_match_the_cell_loop():
    """The scaling-row scan and the cell loop in ``helpers`` agree on
    bool3-cross and on each of its 448 one-cell mutants of ``mul``."""
    cross = cross_product_hemiring()
    mutants = [cross]
    for a, b, v in itertools.product(range(cross.size), repeat=3):
        if v != cross.mul[a][b]:
            mul = [list(row) for row in cross.mul]
            mul[a][b] = v
            mutants.append(dataclasses.replace(cross, mul=mul))
    constants = cross_constants()
    found = [scalar_identity_witness(h, constants) for h in mutants]
    assert found == [helpers.scalar_identity_witness(h, constants) for h in mutants]
    assert found[0] is None and None in found[1:] and any(found)


def test_non_semifield_rejected():
    with pytest.raises(StructureError):
        hemialgebra(StructureConstants(semifield=chain_semiring(), dim=1, gamma=(((0,),),)))


def test_constructor_inputs_must_be_integers_in_range():
    b = boolean_semifield()
    one = ((1,),)
    for entry in (1.7, "1", True):
        with pytest.raises(StructureError, match=r"gamma\[0\]: entry .* in row 0 is not an integer in 0\.\.1"):
            StructureConstants(semifield=b, dim=1, gamma=(((entry,),),))
    for dim in (1.0, True, 0, "1"):
        with pytest.raises(StructureError, match="dimension out of range: .* is not an integer >= 1"):
            StructureConstants(semifield=b, dim=dim, gamma=(one,))
    assert StructureConstants(semifield=b, dim=1, gamma=[[[1]]]).gamma == (one,)


TABLE_READERS = pytest.mark.parametrize(
    "build",
    [
        medial_witness,
        commutative_monoid_table,
        endomorphism_ringoid,
        lambda monoid: monoid_semiring(boolean_semifield(), monoid),
        lambda table: austere_extension(table, 0, 1),
    ],
    ids=["medial_witness", "commutative_monoid_table", "endomorphism_ringoid", "monoid_semiring", "austere_extension"],
)


@TABLE_READERS
def test_tables_without_rows_are_rejected(build):
    with pytest.raises(StructureError, match="at least one row"):
        build([])


@TABLE_READERS
@pytest.mark.parametrize("table", [None, 5, "01"], ids=["None", "int", "str"])
def test_tables_that_are_no_list_are_refused(build, table):
    """A table that is no list of rows is refused with ``StructureError``
    naming its type, before its length is read."""
    with pytest.raises(StructureError, match=f"expected a list of rows, got {type(table).__name__}$"):
        build(table)


def test_carriers_past_the_cap_are_refused_before_any_table(monkeypatch):
    """Each constructor compares its carrier, 2^13 = 8192 elements, with
    ``CARRIER_CAP`` (4096) before it builds a table."""

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(constructions, "product_table", no_table)
    monkeypatch.setattr(constructions, "convolution_table", no_table)
    b = boolean_semifield()
    cyclic = [[(x + y) % 13 for y in range(13)] for x in range(13)]
    gamma = tuple(tuple((0,) * 13 for _ in range(13)) for _ in range(13))
    builds = [
        lambda: direct_product([b] * 13),
        lambda: monoid_semiring(b, cyclic),
        lambda: hemialgebra(StructureConstants(semifield=b, dim=13, gamma=gamma)),
    ]
    for build in builds:
        with pytest.raises(CapExceeded, match="8192 exceeds cap 4096"):
            build()
    # a carrier too large to print is refused before any list with an entry
    # per digit is built
    monkeypatch.setattr(constructions, "encode_tuple", no_table)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="over 2\\^64 exceeds cap 4096"):
        direct_product([b] * 15000)
    assert time.perf_counter() - start < 0.5


# --- products -----------------------------------------------------------------

def test_boolean_square_is_a_semiring():
    prod = direct_product([boolean_semifield(), boolean_semifield()])
    assert prod.size == 4
    assert check_laws(prod).is_commutative_semiring


def test_product_with_singleton_is_isomorphic():
    one = endomorphism_ringoid([[0]])  # the one-element structure
    b = boolean_semifield()
    prod = direct_product([b, one])
    assert prod.size == 2
    assert prod.add == b.add and prod.mul == b.mul


def test_product_laws_by_oracle():
    prod = direct_product([boolean_semifield(), saturating(3)])
    assert prod.size == 8
    n = prod.size
    for a, b, c in itertools.product(range(n), repeat=3):
        assert prod.mul[a][prod.add[b][c]] == prod.add[prod.mul[a][b]][prod.mul[a][c]]
    assert check_laws(prod).is_commutative_semiring


def test_product_is_not_entire_even_when_factors_are():
    b = boolean_semifield()
    assert check_laws(b).entire
    prod = direct_product([b, b])
    rep = check_laws(prod)
    assert not rep.entire
    a, c = rep.witnesses["entire"]
    assert prod.mul[a][c] == prod.zero and a != prod.zero and c != prod.zero


# --- monoid semirings ----------------------------------------------------------

def test_monoid_semiring_over_trivial_monoid():
    b = boolean_semifield()
    ms = monoid_semiring(b, ((0,),))
    assert ms.size == 2
    assert ms.add == b.add and ms.mul == b.mul


def test_monoid_semiring_size_is_power():
    ms = monoid_semiring(chain_semiring(), ((0, 1), (1, 0)))
    assert ms.size == 3**2


def test_boolean_group_semiring_laws():
    ms = monoid_semiring(boolean_semifield(), ((0, 1), (1, 0)))
    assert check_laws(ms).is_commutative_semiring
    # convolution oracle: (1+X)*(X) = X + X^2 = X + 1 since the exponents wrap;
    # element i's digits are its coefficients at 1 and at X
    one_plus_x, x = 0b11, 0b01
    assert helpers.decode_tuple(ms.mul[one_plus_x][x], 2, 2) == (1, 1)


def test_monoid_must_be_commutative():
    b = boolean_semifield()
    # left projection is not commutative
    with pytest.raises(StructureError):
        monoid_semiring(b, ((0, 0), (1, 1)))


@pytest.mark.parametrize(
    "monoid,message",
    [
        # x*y = 1 - x is neither associative nor commutative: associativity is reported
        (((1, 1), (0, 0)), "monoid operation not associative, witness (0, 0, 0)"),
        # x*y = -(x+y) mod 3: (0*0)*1 = 2 but 0*(0*1) = 1
        (((0, 2, 1), (2, 1, 0), (1, 0, 2)), "monoid operation not associative, witness (0, 0, 1)"),
        # the left projection x*y = x: 0*1 = 0 but 1*0 = 1
        (((0, 0), (1, 1)), "monoid operation not commutative, witness (0, 1)"),
        (((0, 0), (0, 0)), "monoid has no identity"),
    ],
    ids=["not-associative-first", "not-associative", "not-commutative", "no-identity"],
)
def test_monoid_semiring_rejections_name_the_least_witness(monoid, message):
    with pytest.raises(StructureError) as raised:
        monoid_semiring(boolean_semifield(), monoid)
    assert str(raised.value) == message


# --- constructed structures are plain tables -----------------------------------

def test_a_constructed_structure_equals_its_ingested_copy():
    """Every corpus entry and every constructor's result is a plain
    ``CayleyStructure``, equal to the copy read back from its JSON document,
    so a covering check accepts covers built over that copy."""
    b = boolean_semifield()
    built = [e.structure for e in corpus()] + [
        direct_product([chain_semiring(), b]),
        monoid_semiring(chain_semiring(), ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
        hemialgebra(StructureConstants(semifield=b, dim=2, gamma=[[[1, 0], [0, 1]], [[0, 1], [1, 1]]])),
        endomorphism_ringoid([[0, 1], [1, 1]]),
        austere_extension([[0, 0], [0, 1]], zero=0, one=1),
    ]
    for s in built:
        assert type(s) is CayleyStructure, s
        copy = ingest_doc(structure_to_json(s))
        assert copy == s, s
        top = s.size - 1
        assert is_efficient(generate_ideal(s, [top]), [generate_ideal(copy, [top])]), s


ENCODED = [
    (direct_product([boolean_semifield()] * 2), (2, 2)),
    (direct_product([chain_semiring(), boolean_semifield(), chain_semiring()]), (3, 2, 3)),
    (cross_product_hemiring(), (2, 2, 2)),
    (hemialgebra(StructureConstants(boolean_semifield(), 2, [[[1, 0], [0, 1]], [[0, 1], [1, 1]]])), (2, 2)),
    (monoid_semiring(boolean_semifield(), ((0, 1), (1, 0))), (2, 2)),
    (monoid_semiring(chain_semiring(), ((0, 1, 2), (1, 2, 0), (2, 0, 1))), (3, 3, 3)),
    (dual_numbers_mod2(), (2, 2, 2)),
]


@pytest.mark.parametrize("s,radices", ENCODED, ids=[s.name for s, _ in ENCODED])
def test_index_of_refuses_malformed_tuples(s, radices):
    """``encode_tuple`` on the radices of each tuple carrier refuses a tuple
    one digit short or long, a bare digit, or one digit at its radix,
    negative, a bool, a float or a string. Unchecked, (2, 0), (1,) and
    (-1, 1) on boolean x boolean encode as 4, 1 and -1, and (True, 2) on a
    carrier of radices (3, 3) as 5."""
    last = tuple(r - 1 for r in radices)
    assert encode_tuple(last, radices) == s.size - 1
    malformed = [last[:-1], last + (0,), last[0]]
    for p, r in enumerate(radices):
        malformed += [last[:p] + (v,) + last[p + 1:] for v in (r, -1, True, 1.0, "0")]
    for t in malformed:
        with pytest.raises(StructureError):
            encode_tuple(t, radices)


# --- the tuple-table kernels against the loops they replaced -----------------

def test_tuple_kernels_reproduce_the_per_constructor_loops():
    """Every constructor built on ``product_table``/``convolution_table``
    gives the tables, designations and name of its old loop, kept in
    ``helpers``; dataclass equality compares every field."""
    entries = [e.structure for e in corpus()]
    semirings = [s for s in entries if check_laws(s).is_semiring]
    b = boolean_semifield()
    monoids = [
        ((0,),),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 1)),
        ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        ((0, 1, 2), (1, 1, 1), (2, 1, 2)),
    ]
    rng = random.Random(15)
    gammas = [
        [[[rng.randrange(2) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for dim in (1, 1, 2, 2, 2, 3, 3, 3)
    ]
    cases = {
        "direct_product": [([s, t],) for s, t in itertools.product(entries, repeat=2) if s.size * t.size <= 32]
        + [(f,) for f in itertools.product(entries, repeat=3) if f[0].size * f[1].size * f[2].size <= 16]
        + [([b] * k,) for k in range(1, 7)],
        "componentwise_module": [(s, k) for s in semirings for k in range(4) if s.size**k <= 32],
        "monoid_semiring": [(s, m) for s in semirings for m in monoids if s.size ** len(m) <= 32],
        "hemialgebra": [(StructureConstants(semifield=b, dim=len(g), gamma=g),) for g in gammas],
        "dual_numbers_mod2": [()],
    }
    built_by = {
        "direct_product": direct_product,
        "componentwise_module": componentwise_module,
        "monoid_semiring": monoid_semiring,
        "hemialgebra": hemialgebra,
        "dual_numbers_mod2": dual_numbers_mod2,
    }
    for name, arguments in cases.items():
        for args in arguments:
            built, expected = built_by[name](*args), getattr(helpers, name)(*args)
            assert built == expected, (name, args)
