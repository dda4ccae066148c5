"""Law checking and semimodule axioms against independent in-test oracles."""

import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from semiringlab import tables
from semiringlab.constructions import direct_product, endomorphism_ringoid
from semiringlab.corpus import (
    boolean_semifield,
    chain_semiring,
    componentwise_module,
    corpus,
    cross_product_hemiring,
    saturating,
)
from semiringlab.errors import StructureError
from semiringlab.fileio import ingest_doc
from semiringlab.ideals import _FLAGS, TWO_SIDED, IdealClassification, classify_ideal, enumerate_ideals
from semiringlab.tables import (
    CayleyStructure,
    FiniteSemimodule,
    LAW_NAMES,
    SEMIMODULE_AXIOMS,
    _Rows,
    _associative_cube,
    _associative_rows,
    _distributive_cube,
    _distributive_rows,
    _law_report,
    _law_witness,
    _medial_walk,
    _medial_witness,
    _scan,
    _semimodule_report,
    check_laws,
    freeze_table,
    generators,
    is_semifield,
    least_witness,
    semimodule_check,
    self_action,
    transpose,
    verify_designations,
)
from semiringlab.zerodivisors import kasch_semilocal_report, total_quotient, zero_divisor_report

import helpers


def test_boolean_semifield_all_flags():
    rep = check_laws(boolean_semifield())
    assert rep.is_commutative_semiring
    assert rep.entire and rep.zerosumfree and rep.mul_idempotent
    assert rep.zero == 0 and rep.one == 1
    assert is_semifield(boolean_semifield())


def test_a_commutative_semiring_with_a_non_unit_is_no_semifield():
    """The 3-chain is a commutative semiring whose middle element a has no
    inverse: a times anything is 0 or a, never the top."""
    c = chain_semiring()
    assert check_laws(c).is_commutative_semiring
    assert not is_semifield(c)


def test_cross_product_not_associative():
    cross = cross_product_hemiring()
    rep = check_laws(cross)
    assert rep.is_na_hemiring
    assert not rep.mul_associative
    a, b, c = rep.witnesses["mul_associative"]
    lhs = cross.mul[cross.mul[a][b]][c]
    rhs = cross.mul[a][cross.mul[b][c]]
    assert lhs != rhs
    # least witness by an independent scan
    expected = None
    for t in itertools.product(range(8), repeat=3):
        if cross.mul[cross.mul[t[0]][t[1]]][t[2]] != cross.mul[t[0]][cross.mul[t[1]][t[2]]]:
            expected = t
            break
    assert (a, b, c) == expected


def test_saturating_semiring_by_oracle():
    # independent construction: clamped arithmetic checked triple by triple
    top = 3
    add = lambda a, b: min(a + b, top)
    mul = lambda a, b: min(a * b, top)
    for a, b, c in itertools.product(range(4), repeat=3):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(add(b, c), a) == add(mul(b, a), mul(c, a))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
    rep = check_laws(saturating(3))
    assert rep.is_commutative_semiring
    assert rep.entire and rep.zerosumfree


def test_witness_iff_flag_false():
    for s in (boolean_semifield(), chain_semiring(), cross_product_hemiring()):
        rep = check_laws(s)
        for law in LAW_NAMES:
            assert rep.flag(law) == (law not in rep.witnesses)


def test_report_names_are_read_off_the_flag_fields_in_order():
    """The law, axiom and ideal-class names are the reports' init-less
    fields; ``laws`` and ``ideals`` print their flags and the product-flag
    suite names its first failing law in this order."""
    assert LAW_NAMES == (
        "left_distributive", "right_distributive", "add_associative", "add_commutative", "add_medial",
        "mul_associative", "mul_commutative", "has_zero", "zero_absorbing", "has_one", "zerosumfree",
        "entire", "complemented", "mul_idempotent",
    )
    assert SEMIMODULE_AXIOMS == (
        "add_associative", "add_commutative", "zero_neutral", "action_associative", "action_unital",
        "scalar_add_distributes", "module_add_distributes", "zero_scalar_absorbs", "scalar_zero_absorbs",
    )
    assert _FLAGS == ("subtractive", "proper", "prime", "semiprime", "two_absorbing", "maximal", "radical_ideal")


def test_a_report_built_from_witnesses_alone_derives_its_flags():
    """A report is given witnesses, None for a name that holds, and derives
    every flag; a name left out reads None, as a test that does not apply.
    A flag cannot be given, and a replaced report derives its flags again
    from its new witnesses."""
    rep = tables.LawReport({"has_one": (), "add_medial": None, "entire": (1, 2)}, zero=0, one=None)
    assert {law: rep.flag(law) for law in LAW_NAMES if rep.flag(law) is not None} == {
        "has_one": False, "add_medial": True, "entire": False,
    }
    assert dict(rep.witnesses) == {"has_one": (), "entire": (1, 2)}
    assert rep == tables.LawReport({"entire": (1, 2), "add_medial": None, "has_one": ()}, zero=0, one=None)
    assert rep != tables.LawReport({"has_one": (), "entire": (1, 2)}, zero=0, one=None)
    with pytest.raises(TypeError):
        tables.LawReport({}, zero=None, one=None, entire=False)
    mod = tables.SemimoduleReport({"action_unital": (0,)})
    assert [axiom for axiom in SEMIMODULE_AXIOMS if getattr(mod, axiom) is not None] == ["action_unital"]
    assert not mod.action_unital and not mod.valid and tables.SemimoduleReport({}).valid
    cls = IdealClassification({"proper": (), "maximal": None})
    assert {flag: getattr(cls, flag) for flag in _FLAGS if getattr(cls, flag) is not None} == {
        "proper": False, "maximal": True,
    }
    again = dataclasses.replace(cls, witnesses={"prime": (0, 1)})
    assert [flag for flag in _FLAGS if getattr(again, flag) is not None] == ["prime"] and not again.prime


def _report_contract_structures(entries):
    """The corpus, eight one-cell mutants of each corpus table and the
    saturating semirings with 12 to 16 elements."""
    rng = random.Random(0)
    for entry in entries:
        s = entry.structure
        yield s
        for add in _one_cell_mutants(s.add, rng, 8):
            yield CayleyStructure(size=s.size, add=add, mul=s.mul, name=f"{s.name}-add-mutant")
        for mul in _one_cell_mutants(s.mul, rng, 8):
            yield CayleyStructure(size=s.size, add=s.add, mul=mul, name=f"{s.name}-mul-mutant")
    for top in range(11, 16):
        yield saturating(top)


def test_every_flag_of_a_built_report_is_a_bool(all_entries):
    """Each builder names every law, axiom and class that applies, so its
    flags are bools; only ``radical_ideal`` does not apply, and reads None,
    exactly off commutative semirings."""
    for s in _report_contract_structures(all_entries):
        rep = check_laws(s)
        assert all(type(rep.flag(law)) is bool for law in LAW_NAMES), s.name
        if rep.is_semiring:
            mod = semimodule_check(self_action(s))
            assert all(type(getattr(mod, axiom)) is bool for axiom in SEMIMODULE_AXIOMS), s.name
        for ideal in enumerate_ideals(s, TWO_SIDED):
            cls = classify_ideal(ideal)
            assert all(type(getattr(cls, flag)) is bool for flag in _FLAGS if flag != "radical_ideal"), s.name
            assert (cls.radical_ideal is None) == (not rep.is_commutative_semiring), s.name
            assert cls.radical_ideal is None or type(cls.radical_ideal) is bool


def test_designation_validation():
    good = chain_semiring()
    verify_designations(good)
    bad = CayleyStructure(
        size=3, add=good.add, mul=good.mul, zero=1, one=2, name="bad-zero"
    )
    with pytest.raises(StructureError):
        verify_designations(bad)


def test_malformed_table_rejected():
    with pytest.raises(StructureError):
        CayleyStructure(size=2, add=((0, 1), (1, 2)), mul=((0, 0), (0, 1)))
    with pytest.raises(StructureError):
        CayleyStructure(size=2, add=((0, 1),), mul=((0, 0), (0, 1)))


class _Index(int):
    """An int subclass: accepted as a table entry, as a bool is not."""


class _Row(list):
    """A list subclass: accepted as a table row."""


MALFORMED_TABLES = (
    [[0, True], [1, 0]],
    [[0, 1.0], [1, 0]],
    [[0, "1"], [1, 0]],
    [[0, [1]], [1, 0]],
    [[0, -1], [1, 0]],
    [[0, 2], [1, 0]],
    [[0, 1], [1]],
    [[0, 1], "10"],
    [[0, 1], 7],
    [],
    [[0, 1]],
    {0: [0, 1], 1: [1, 0]},
)


def test_tables_are_refused_as_the_cell_loop_refuses_them():
    """Each malformed table is refused by ``CayleyStructure``,
    ``FiniteSemimodule`` and ``ingest_doc`` with the message of the cell
    loop that validated every table before; bool, float, str and nested
    entries, a negative and an out-of-range entry, a short row, rows that
    are not lists, an empty table, a missing row and a table that is not a
    list. Tables of int and list subclasses are accepted by both."""
    good = [[0, 1], [1, 0]]
    b = boolean_semifield()
    for bad in MALFORMED_TABLES:
        def message(what):
            with pytest.raises(StructureError) as want:
                helpers.freeze_table_by_cells(bad, 2, 2, what)
            return str(want.value)

        for what, build in (
            ("add", lambda: CayleyStructure(2, bad, good)),
            ("mul", lambda: CayleyStructure(2, good, bad)),
            ("madd", lambda: FiniteSemimodule(b, 2, bad, 0, good)),
            ("action", lambda: FiniteSemimodule(b, 2, good, 0, bad)),
            ("add", lambda: ingest_doc({"size": 2, "add": bad, "mul": good})),
            ("mul", lambda: ingest_doc({"size": 2, "add": good, "mul": bad})),
        ):
            with pytest.raises(StructureError) as got:
                build()
            assert str(got.value) == message(what)
    for table in ([[_Index(0), 1], [1, 0]], [_Row([0, 1]), (1, 0)], ((0, 1), (1, 0)), good):
        assert freeze_table(table, 2, 2) == helpers.freeze_table_by_cells(table, 2, 2) == ((0, 1), (1, 0))


def _least(sizes, bad):
    """Least tuple of the product of ranges on which ``bad`` holds, one tuple at a time."""
    return next(itertools.compress(_tuples(sizes), itertools.starmap(bad, _tuples(sizes))), None)


def _tuples(sizes):
    return itertools.product(*(range(n) for n in sizes))


def _least_by_rows(sizes, bad):
    """``_least`` for a ``bad`` that takes every coordinate but the last and
    answers for each value of the last in turn: still one tuple at a time,
    without a call per tuple."""
    for prefix in _tuples(sizes[:-1]):
        flags = bad(*prefix)
        if True in flags:
            return (*prefix, flags.index(True))
    return None


@functools.lru_cache(maxsize=None)
def oracle_magma(op):
    """The neutral element and the least associativity and commutativity
    witnesses of one table, each scanned by its definition. They are kept
    per table, since a one-cell mutant of one table of a structure shares
    the other with its original."""
    n = len(op)
    neutral = next((e for e in range(n) if all(op[e][x] == x == op[x][e] for x in range(n))), None)

    def non_associative(a, b):  # (ab)c != a(bc), for each c
        ab, opa, opb = op[op[a][b]], op[a], op[b]
        return [ab[c] != opa[opb[c]] for c in range(n)]

    associative = _least_by_rows((n,) * 3, non_associative)
    commutative = _least((n,) * 2, lambda a, b: op[a][b] != op[b][a])
    return neutral, associative, commutative


@functools.lru_cache(maxsize=None)
def oracle_medial(op):
    """The least mediality witness of one table. An associative and
    commutative operation is medial, so the n^4 scan only runs where it can
    fail."""
    n = len(op)
    if oracle_magma(op)[1:] == (None, None):
        return None
    return _least((n,) * 4, lambda a, b, c, d: op[op[a][b]][op[c][d]] != op[op[a][c]][op[b][d]])


def oracle_laws(add, mul):
    """Zero, one and least witnesses of every law, each scanned by its
    definition, in the order ``check_laws`` reports them."""
    n = len(add)
    z, add_associative, add_commutative = oracle_magma(add)
    e, mul_associative, mul_commutative = oracle_magma(mul)

    def non_left_distributive(a, b):  # a(b+c) != ab+ac, for each c
        ma, addb, ab_plus = mul[a], add[b], add[mul[a][b]]
        return [ma[addb[c]] != ab_plus[ma[c]] for c in range(n)]

    def non_right_distributive(a, b):  # (b+c)a != ba+ca, for each c
        addb, ba_plus = add[b], add[mul[b][a]]
        return [mul[addb[c]][a] != ba_plus[mul[c][a]] for c in range(n)]

    found = {
        "left_distributive": _least_by_rows((n,) * 3, non_left_distributive),
        "right_distributive": _least_by_rows((n,) * 3, non_right_distributive),
        "add_associative": add_associative,
        "add_commutative": add_commutative,
        "add_medial": oracle_medial(add),
        "mul_associative": mul_associative,
        "mul_commutative": mul_commutative,
        "has_zero": None if z is not None else (),
        "zero_absorbing": () if z is None else _least((n,), lambda x: mul[z][x] != z or mul[x][z] != z),
        "zerosumfree": () if z is None else _least((n,) * 2, lambda a, b: add[a][b] == z and (a, b) != (z, z)),
        "entire": () if z is None else _least((n,) * 2, lambda a, b: mul[a][b] == z and a != z and b != z),
        "has_one": None if e is not None else (),
        "complemented": ()
        if z is None or e is None
        else _least(
            (n,),
            lambda r: sum(mul[r][c] == z == mul[c][r] and add[r][c] == e == add[c][r] for c in range(n)) != 1,
        ),
        "mul_idempotent": _least((n,), lambda r: mul[r][r] != r),
    }
    return z, e, {law: w for law, w in found.items() if w is not None}


def assert_laws_match_oracle(add, mul):
    rep = check_laws(CayleyStructure(size=len(add), add=add, mul=mul))
    zero, one, witnesses = oracle_laws(add, mul)
    assert (rep.zero, rep.one) == (zero, one)
    assert rep.witnesses == witnesses
    assert list(rep.witnesses) == list(witnesses)
    assert [rep.flag(law) for law in LAW_NAMES] == [law not in witnesses for law in LAW_NAMES]


def _square(flat, n):
    return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def _one_cell_mutants(table, rng, count):
    n = len(table)
    for _ in range(count):
        i, j = rng.randrange(n), rng.randrange(n)
        rows = [list(r) for r in table]
        rows[i][j] = (rows[i][j] + 1 + rng.randrange(n - 1)) % n
        yield tuple(map(tuple, rows))


tables2 = st.tuples(*(st.integers(0, 1) for _ in range(4)))
tables3 = st.tuples(*(st.integers(0, 2) for _ in range(9)))


@given(tables2, tables2)
def test_random_tables_witnesses_are_valid_size2(add_flat, mul_flat):
    assert_laws_match_oracle(_square(add_flat, 2), _square(mul_flat, 2))


@given(tables3, tables3)
def test_random_tables_witnesses_are_valid_size3(add_flat, mul_flat):
    assert_laws_match_oracle(_square(add_flat, 3), _square(mul_flat, 3))


@st.composite
def tables_with_neutrals(draw):
    """An addition and a multiplication on 1-5 elements, each given a
    neutral element at a drawn index, or left as drawn, so the laws read
    off the zero and the one are decided too."""
    n = draw(st.integers(1, 5))
    tables = []
    for _ in range(2):
        table = [list(draw(st.tuples(*(st.integers(0, n - 1) for _ in range(n))))) for _ in range(n)]
        e = draw(st.none() | st.integers(0, n - 1))
        if e is not None:
            for x in range(n):
                table[e][x] = table[x][e] = x
        tables.append(tuple(map(tuple, table)))
    return tables


@given(tables_with_neutrals())
def test_random_tables_with_neutrals_match_oracle(tables):
    assert_laws_match_oracle(*tables)


def test_row_level_laws_at_their_edges(all_entries):
    """zerosumfree, entire, complemented and the neutral elements are
    decided a row at a time: each edge case against the oracle."""
    # the zero at the last index: every corpus entry with a zero, relabelled
    # so that its zero is the last element, and its one-cell mutants
    rng = random.Random(4)
    for entry in all_entries:
        s = entry.structure
        z = check_laws(s).zero
        if z is None or z == s.size - 1:
            continue
        perm = list(range(s.size))
        perm[z], perm[-1] = perm[-1], perm[z]
        add, mul = _relabelled(s.add, perm), _relabelled(s.mul, perm)
        assert check_laws(CayleyStructure(s.size, add, mul)).zero == s.size - 1
        assert_laws_match_oracle(add, mul)
        for mutant in _one_cell_mutants(mul, rng, 4):
            assert_laws_match_oracle(add, mutant)
    chain_max = tuple(tuple(max(x, y) for y in range(3)) for x in range(3))
    # the zero only at (z, z), in both tables
    rep = check_laws(CayleyStructure(3, chain_max, chain_max))
    assert rep.zerosumfree and rep.entire and rep.witnesses["zero_absorbing"] == (1,)
    assert_laws_match_oracle(chain_max, chain_max)
    # 1*0 = 0 is no zero divisor pair, 1*2 = 0 is, with the zero first,
    # in the middle and last
    for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
        add, mul = _relabelled(chain_max, perm), _relabelled(((0, 0, 0), (0, 2, 0), (0, 0, 2)), perm)
        w = check_laws(CayleyStructure(3, add, mul)).witnesses["entire"]
        assert sorted(w) == sorted((perm[1], perm[2])) and mul[w[0]][w[1]] == perm[0]
        assert_laws_match_oracle(add, mul)
    # 2 has the two complements 2 and 3; 0, 1 and 3 have one each
    add = ((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 1, 1), (3, 3, 1, 3))
    mul = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 0), (0, 3, 0, 3))
    assert check_laws(CayleyStructure(4, add, mul)).witnesses["complemented"] == (2,)
    assert_laws_match_oracle(add, mul)
    # every row of x+y = y is the identity row, and no column is: no neutral
    # element; and the transposed table, every column and no row
    right = tuple(tuple(range(3)) for _ in range(3))
    for add, mul in ((right, transpose(right)), (transpose(right), right)):
        rep = check_laws(CayleyStructure(3, add, mul))
        assert (rep.zero, rep.one) == (None, None) and rep.witnesses["has_zero"] == ()
        assert_laws_match_oracle(add, mul)


def _generated(table, gens):
    """The subset generated by ``gens``: products taken until nothing is new."""
    got = set(gens)
    while True:
        new = {table[x][y] for x in got for y in got} - got
        if not new:
            return got
        got |= new


def _greedy(table, order):
    """Generators picked along ``order``: each the first element of
    ``order`` outside the subset generated by the ones before it."""
    gens = []
    while rest := [x for x in order if x not in _generated(table, gens)]:
        gens.append(rest[0])
    return tuple(gens)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(*(st.integers(0, n - 1) for _ in range(n * n)))))
def test_generators_are_picked_greedily_and_generate(flat):
    """Generators are picked greedily from both ends: each the least (or
    the greatest) element outside the subset generated by the ones before
    it. The smaller set is kept, the least-first one on a tie, and it
    generates the carrier: the reduced law tests are sound only on a
    generating set."""
    n = round(len(flat) ** 0.5)
    table = _square(flat, n)
    up, down = _greedy(table, range(n)), _greedy(table, range(n - 1, -1, -1))
    gens = generators(table)
    assert gens == (up if len(up) <= len(down) else down)
    assert _generated(table, gens) == set(range(n))


def test_corpus_one_cell_mutants_match_oracle(all_entries):
    rng = random.Random(0)
    for entry in all_entries:
        s = entry.structure
        assert_laws_match_oracle(s.add, s.mul)
        for add in _one_cell_mutants(s.add, rng, 8):
            assert_laws_match_oracle(add, s.mul)
        for mul in _one_cell_mutants(s.mul, rng, 8):
            assert_laws_match_oracle(s.add, mul)


def _relabelled(table, perm):
    """The table carried along the permutation: perm[x]*perm[y] = perm[x*y]."""
    out = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            out[perm[x]][perm[y]] = perm[v]
    return tuple(map(tuple, out))


def test_flag_products_relabellings_and_mutants_match_oracle():
    """The products of ``product_flag_suite`` have associative addition and
    3-10 additive generators, so associativity and both distributive laws
    are proved on generators there. A relabelled copy has other generators;
    a one-cell mutant mostly fails the reduced test, and the full scan must
    then find the least witness."""
    rng = random.Random(8)
    entries = [e.structure for e in corpus() if e.structure.size <= 8]
    pairs = [(a, b) for a, b in itertools.combinations(entries, 2) if a.size * b.size <= 64]
    assert len(pairs) == 36
    for a, b in pairs:
        p = direct_product([a, b])
        assert check_laws(p).add_associative and len(generators(p.add)) < p.size
        assert_laws_match_oracle(p.add, p.mul)
        perm = list(range(p.size))
        rng.shuffle(perm)
        add, mul = _relabelled(p.add, perm), _relabelled(p.mul, perm)
        assert generators(add) != tuple(sorted(perm[g] for g in generators(p.add)))
        assert_laws_match_oracle(add, mul)
        for mutant in _one_cell_mutants(p.add, rng, 8):
            assert_laws_match_oracle(mutant, p.mul)
        for mutant in _one_cell_mutants(p.mul, rng, 8):
            assert_laws_match_oracle(p.add, mutant)


def _no_cube():
    raise AssertionError("cube decided past the budget")


def test_first_block_scan_holds_for_any_generating_set(monkeypatch):
    """Over the cyclic group of order 4, the first multiplier is an
    endomorphism and the second, f = (0, 1, 0, 0), first fails at
    f(1+1) != f(1)+f(1). On the generators (0, 3) the reduced scan first
    fails at b = 3; the full scan of that multiplier's block finds b = 1.
    (With the greedy generators (0, 1) the reduced witness is already the
    least, since every element below the first failing generator lies in
    the sums of the ones before it.) Byte blocks, tuple blocks and list
    rows agree; with the cube budget at 0, the driver takes the scans."""
    monkeypatch.setattr(tables._Rows, "cube_entries", 0)
    z4 = tuple(tuple((x + y) % 4 for y in range(4)) for x in range(4))
    mul = ((0, 2, 0, 2), (0, 1, 0, 0))
    for law in _distributive(z4, mul)[2:]:
        assert _scan(range(2), range(4), 4, law) == (1, 1, 1)
        assert _scan(range(2), (0, 3), 4, law) == (1, 3, 1)
        assert _law_witness((2, 4, 4), law, _no_cube, lambda: (0, 3), per_first=True) == (1, 1, 1)
        assert _law_witness((2, 4, 4), law, _no_cube, lambda: generators(z4), per_first=True) == (1, 1, 1)


def test_multiplicative_generators_are_not_used_without_associativity():
    """Over the max of the 3-chain, the multiplication below is generated
    by 0 (0*0 = 1, 0*1 = 2) and 0 distributes, but 1 does not:
    1(0 max 2) = 0 != 2 = 1*0 max 1*2. The multiplication is not
    associative, so the multipliers that distribute need not be closed
    under products, and the report must come from the full scan."""
    chain_max = tuple(tuple(max(x, y) for y in range(3)) for x in range(3))
    mul = ((1, 2, 2), (2, 2, 0), (1, 2, 2))
    rep = check_laws(CayleyStructure(3, chain_max, mul))
    assert not rep.mul_associative and generators(mul) == (0,)
    for law in _distributive(chain_max, mul)[2:]:
        assert _scan((0,), range(3), 3, law) is None
    assert rep.witnesses["left_distributive"] == (1, 0, 2)
    assert_laws_match_oracle(chain_max, mul)


def test_failing_multiplier_below_the_first_failing_generator(monkeypatch):
    """Over Z/3, the associative multiplication below is generated by
    (1, 2), as 2*0 = 0. Multiplier 0 = (0, 0, 2) does not distribute and is
    not among those generators; 1 is the identity and distributes; 2 fails
    too. The reduced pass first fails at 2, and the scan over every
    multiplier in order finds the least witness at 0. The greedy
    generators cannot show this: every element below a greedy generator
    is generated by the ones before it, so it distributes when they do.
    The cube budget is at 0, so the driver takes the scans."""
    monkeypatch.setattr(tables._Rows, "cube_entries", 0)
    z3 = tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))
    mul = ((0, 0, 2), (0, 1, 2), (0, 0, 2))
    assert check_laws(CayleyStructure(3, z3, mul)).mul_associative
    for law in _distributive(z3, mul)[2:]:
        assert _scan((1, 2), generators(z3), 3, law)[0] == 2
        mids, firsts = lambda: generators(z3), lambda: (1, 2)
        assert _law_witness((3, 3, 3), law, _no_cube, mids, firsts, per_first=True) == (0, 1, 1)
        assert _scan(range(3), range(3), 3, law) == (0, 1, 1)
    assert_laws_match_oracle(z3, mul)


def test_endomorphism_ringoids_reduced_over_multiplicative_generators(monkeypatch):
    """The endomorphisms of the constant magma on 4 elements (64) and of
    the left projection on 3 (27). Every element of the first but the zero
    map is an additive generator, and every element of the second; so the
    scans barely reduce, or not at all, over the addition. Composition is
    associative with 9 and 7 generators, and both distributive laws are
    proved on those. The 27-element ringoid fits the cube budget, so it
    is checked a second time with the budget at 0, where it takes the
    reduced scans."""
    rings = [endomorphism_ringoid([[0] * 4] * 4), endomorphism_ringoid([[x] * 3 for x in range(3)])]
    assert [(r.size, len(generators(r.add)), len(generators(r.mul))) for r in rings] == [(64, 63, 9), (27, 27, 7)]
    for budget in (tables._Rows.cube_entries, 0):
        with monkeypatch.context() as patch:
            patch.setattr(tables._Rows, "cube_entries", budget)
            for r in rings:
                assert _law_report(r).mul_associative
                assert_laws_match_oracle(r.add, r.mul)
            on_bytes, on_tuples = _reports_both_ways(monkeypatch, _law_report, rings)
        assert [r.witnesses for r in on_bytes] == [r.witnesses for r in on_tuples]
        assert [(r.zero, r.one) for r in on_bytes] == [(r.zero, r.one) for r in on_tuples]


def _tuple_rows(table):
    """The rows of ``table`` in tuple form, whatever its width."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables._Rows, "byte_columns", 0)
        return _Rows(table)


def _forms(table):
    """The types of the rows that ``table`` gets, and gets with tuple rows forced."""
    return type(_Rows(table).rows[0]), type(_tuple_rows(table).rows[0])


def _associative(mul, act):
    """(st)x = s(tx), its middle variable reduced on ``mul``'s generators:
    on byte rows (as wide as ``act`` allows), on tuple rows and on list rows."""
    n, k = len(mul), len(act[0])
    laws = (functools.partial(_associative_rows, mul, rows) for rows in (_Rows(act), _tuple_rows(act)))
    return (n, n, k), generators(mul), *laws, functools.partial(helpers.associative_list_rows, mul, act)


def _distributive(add, mul):
    """a(b+c) = ab+ac, its middle variable reduced on ``add``'s generators:
    on byte rows (as wide as the tables allow), on tuple rows and on list rows."""
    n = len(add)
    views = ((_Rows(add), _Rows(mul)), (_tuple_rows(add), _tuple_rows(mul)))
    laws = (functools.partial(_distributive_rows, *rows) for rows in views)
    return (len(mul), n, n), generators(add), *laws, functools.partial(helpers.distributive_list_rows, add, mul)


@functools.lru_cache(maxsize=None)
def assert_blocks_match_list_rows_of(law, *operands):
    """Byte blocks and list rows of one law give one least witness, in the
    full scan and in the scan with the middle variable on generators, and
    the tuple blocks hold the byte blocks' entries. So the tuple blocks give
    that witness too: ``least_witness`` walks two sequences of equal entries
    alike, and a scan of them would repeat the byte scan. Kept per law and
    operands: a one-cell mutant of one table of a structure shares the other
    with its original."""
    (first, middle, last), gens, byte_blocks, tuple_blocks, list_rows = law(*operands)
    assert byte_blocks(gens)[1] == tuple_blocks(gens)[1] == 2 and list_rows(gens)[1] == 1
    for mids in (range(middle), gens):
        assert _scan(range(first), mids, last, byte_blocks) == _scan(range(first), mids, last, list_rows)
        on_bytes, on_tuples = byte_blocks(mids)[0], tuple_blocks(mids)[0]
        for a in range(first):
            assert [bytes(side) for side in on_tuples(a)] == [bytes(side) for side in on_bytes(a)]


@functools.lru_cache(maxsize=None)
def assert_medial_blocks_match_list_rows(add):
    """The cube, within its budget, and the walk, each on byte and on tuple
    rows, against the list rows."""
    found = {law(rows(add)) for law in (_medial_witness, _medial_walk) for rows in (_Rows, _tuple_rows)}
    assert found == {helpers.medial_list_witness(add)}


def assert_blocks_match_list_rows(add, mul):
    """Every three-variable law scan that ``check_laws`` and the semimodule
    check run on (add, mul), with ``add`` also standing as an action of
    ``mul``'s carrier, and mediality only where ``check_laws`` scans it."""
    for law, operands in (
        (_associative, (add, add)),
        (_associative, (mul, mul)),
        (_associative, (mul, add)),
        (_distributive, (add, mul)),
        (_distributive, (add, transpose(mul))),
    ):
        assert_blocks_match_list_rows_of(law, *operands)
    if oracle_magma(add)[1:] != (None, None):
        assert_medial_blocks_match_list_rows(add)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*(st.integers(0, n - 1) for _ in range(2 * n * n)))))
def test_byte_rows_match_list_rows_on_random_tables(flat):
    n = round((len(flat) // 2) ** 0.5)
    assert_blocks_match_list_rows(_square(flat[: n * n], n), _square(flat[n * n :], n))


def test_byte_rows_match_list_rows_on_flag_products_relabellings_and_mutants():
    """The tables of the flag-product oracle test above, with its seed."""
    rng = random.Random(8)
    entries = [e.structure for e in corpus() if e.structure.size <= 8]
    for a, b in itertools.combinations(entries, 2):
        if a.size * b.size > 64:
            continue
        p = direct_product([a, b])
        assert_blocks_match_list_rows(p.add, p.mul)
        perm = list(range(p.size))
        rng.shuffle(perm)
        assert_blocks_match_list_rows(_relabelled(p.add, perm), _relabelled(p.mul, perm))
        for mutant in _one_cell_mutants(p.add, rng, 8):
            assert_blocks_match_list_rows(mutant, p.mul)
        for mutant in _one_cell_mutants(p.mul, rng, 8):
            assert_blocks_match_list_rows(p.add, mutant)


def test_byte_rows_match_list_rows_on_corpus_one_cell_mutants(all_entries):
    rng = random.Random(0)
    for entry in all_entries:
        s = entry.structure
        assert_blocks_match_list_rows(s.add, s.mul)
        for add in _one_cell_mutants(s.add, rng, 8):
            assert_blocks_match_list_rows(add, s.mul)
        for mul in _one_cell_mutants(s.mul, rng, 8):
            assert_blocks_match_list_rows(s.add, mul)


def _reports_both_ways(monkeypatch, report, structures):
    """``report`` of each structure on byte rows, then on tuple rows: with
    the byte width at 0 columns, every table takes tuple rows."""
    on_bytes = [report(s) for s in structures]
    with monkeypatch.context() as patch:
        patch.setattr(tables._Rows, "byte_columns", 0)
        return on_bytes, [report(s) for s in structures]


def test_reports_match_the_list_path_on_corpus_ladder_and_mutants(monkeypatch, all_entries):
    """Reports on byte rows equal those on tuple rows, the path of tables
    wider than 256 columns, which the list rows took before."""
    rng = random.Random(3)
    structures = [e.structure for e in all_entries] + [saturating(top) for top in range(12, 17)]
    for s in list(structures):
        structures += [CayleyStructure(s.size, add, s.mul) for add in _one_cell_mutants(s.add, rng, 2)]
        structures += [CayleyStructure(s.size, s.add, mul) for mul in _one_cell_mutants(s.mul, rng, 2)]
    on_bytes, on_tuples = _reports_both_ways(monkeypatch, _law_report, structures)
    assert [r.witnesses for r in on_bytes] == [r.witnesses for r in on_tuples]
    assert [(r.zero, r.one) for r in on_bytes] == [(r.zero, r.one) for r in on_tuples]
    modules = [self_action(s) for s in structures if check_laws(s).is_semiring]
    for m in list(modules):
        s, k = m.semiring, m.msize
        modules += [FiniteSemimodule(s, k, madd, m.mzero, m.action) for madd in _one_cell_mutants(m.madd, rng, 2)]
        modules += [FiniteSemimodule(s, k, m.madd, m.mzero, act) for act in _one_cell_mutants(m.action, rng, 2)]
    on_bytes, on_tuples = _reports_both_ways(monkeypatch, _semimodule_report, modules)
    assert [r.witnesses for r in on_bytes] == [r.witnesses for r in on_tuples]


@pytest.mark.parametrize("n", [256, 257])
def test_random_tables_at_the_byte_boundary(monkeypatch, n):
    """Byte rows serve tables of at most 256 columns; one more column takes
    tuple rows, without ``bytes()`` meeting an entry of 256. Random
    tables fail their laws within the first prefixes, so the independent
    oracle stays cheap at this size."""
    rng = random.Random(n)
    add, mul = ([rng.choices(range(n), k=n) for _ in range(n)] for _ in range(2))
    s = CayleyStructure(n, add, mul)
    assert _forms(s.add) == _forms(s.mul) == (bytes if n <= 256 else tuple, tuple)
    (on_bytes,), (on_tuples,) = _reports_both_ways(monkeypatch, _law_report, [s])
    assert on_bytes.witnesses == on_tuples.witnesses
    assert_laws_match_oracle(s.add, s.mul)


def test_boolean_power_scans_every_prefix_on_byte_rows():
    """On boolean^8 every law holds. The generators of the AND, picked
    from the top, are the 8 co-atoms and the top, so the laws are proved
    on those; the full byte-row scan of associativity walks all 256 blocks
    of 65,536 bytes when driven over the full range. Each block at an s in
    a stride of the carrier, on byte rows and on tuple rows, equals the
    list rows at (s, t) for every t, joined."""
    b = direct_product([boolean_semifield()] * 8)
    assert generators(b.mul) == (255, *(255 ^ 1 << i for i in range(8)))
    rep = check_laws(b)
    assert rep.is_commutative_semiring and rep.zerosumfree and rep.mul_idempotent and rep.complemented
    assert set(rep.witnesses) == {"entire"}
    assert semimodule_check(self_action(b)).valid
    assert _forms(b.mul) == (bytes, tuple)
    laws = _associative(b.mul, b.mul)[2:]
    assert _scan(range(256), range(256), 256, laws[0]) is None
    (on_bytes, inner), (on_tuples, _), (on_lists, _) = (law(range(256)) for law in laws)
    assert inner == 2
    for s in range(0, 256, 17):
        joined = [list(itertools.chain.from_iterable(side)) for side in zip(*(on_lists(s, t) for t in range(256)))]
        assert [list(side) for side in on_bytes(s)] == [list(side) for side in on_tuples(s)] == joined


def test_tuple_rows_gather_a_tuple_at_every_length(monkeypatch):
    """``itemgetter`` of one index gives the bare item and cannot be made of
    none, so the tuple gather has its own path below two indices: seen on
    1-element tables and on the empty last blocks of mediality."""
    monkeypatch.setattr(tables._Rows, "byte_columns", 0)
    for table in (((0,),), ((1, 0), (0, 0))):
        rows = _Rows(table)
        for seq in ((), (0,), (0, 0), tuple(range(len(table)))):
            for v, lut in enumerate(rows.luts):
                assert rows.through(seq)(lut) == tuple(table[v][y] for y in seq)
    assert tables.medial_witness([[0]]) is None
    assert not _law_report(CayleyStructure(1, ((0,),), ((0,),))).witnesses
    assert endomorphism_ringoid([[0]]).mul == ((0,),)


def _subsets_module(extra_top):
    """The subsets of an 8-set under union, over the boolean semifield by
    0x = {} and 1x = x, with one more element absorbing every sum when
    ``extra_top``: a semimodule of 256 or 257 elements whose addition has
    ten generators at most."""
    k = 256 + extra_top
    madd = [[256 if 256 in (x, y) else x | y for y in range(k)] for x in range(k)]
    return FiniteSemimodule(boolean_semifield(), k, madd, 0, [[0] * k, list(range(k))])


@pytest.mark.parametrize("extra_top", [False, True])
def test_semimodules_at_the_byte_boundary(monkeypatch, extra_top):
    m = _subsets_module(extra_top)
    assert _forms(m.madd) == _forms(m.action) == (tuple if extra_top else bytes, tuple)
    (on_bytes,), (on_tuples,) = _reports_both_ways(monkeypatch, _semimodule_report, [m])
    assert on_bytes.valid and on_tuples.valid


@pytest.mark.parametrize(
    "p, q, n",
    [(2, 2, 3), (1, 0, 3), (2, 1, 3), (1, 3, 4), (3, 3, 5)],
)
def test_medial_additions_outside_commutative_monoids(p, q, n):
    """x + y = px + qy mod n is medial, but associative and commutative only
    for some (p, q), so mediality is decided by the full scan here."""
    add = tuple(tuple((p * x + q * y) % n for y in range(n)) for x in range(n))
    mul = tuple(tuple(x * y % n for y in range(n)) for x in range(n))
    rep = check_laws(CayleyStructure(size=n, add=add, mul=mul))
    assert rep.add_medial and not (rep.add_associative and rep.add_commutative)
    assert_laws_match_oracle(add, mul)
    for mutant in _one_cell_mutants(add, random.Random(n), 6):
        assert_laws_match_oracle(mutant, mul)


def oracle_semimodule(m):
    """Least witnesses of the nine semimodule axioms, each scanned by its definition."""
    n, k = m.semiring.size, m.msize
    sadd, smul, madd, act, mz = m.semiring.add, m.semiring.mul, m.madd, m.action, m.mzero
    zero_s, one_s, _ = oracle_laws(sadd, smul)
    found = {
        "add_associative": _least((k,) * 3, lambda a, b, c: madd[madd[a][b]][c] != madd[a][madd[b][c]]),
        "add_commutative": _least((k,) * 2, lambda a, b: madd[a][b] != madd[b][a]),
        "zero_neutral": _least((k,), lambda x: madd[mz][x] != x or madd[x][mz] != x),
        "action_associative": _least((n, n, k), lambda r, t, x: act[smul[r][t]][x] != act[r][act[t][x]]),
        "action_unital": _least((k,), lambda x: act[one_s][x] != x),
        "scalar_add_distributes": _least(
            (n, n, k), lambda r, t, x: act[sadd[r][t]][x] != madd[act[r][x]][act[t][x]]
        ),
        "module_add_distributes": _least(
            (n, k, k), lambda r, x, y: act[r][madd[x][y]] != madd[act[r][x]][act[r][y]]
        ),
        "zero_scalar_absorbs": _least((k,), lambda x: act[zero_s][x] != mz),
        "scalar_zero_absorbs": _least((n,), lambda r: act[r][mz] != mz),
    }
    return {axiom: w for axiom, w in found.items() if w is not None}


def test_semimodule_axioms_match_oracle(all_entries):
    rng = random.Random(0)
    # saturating(12) comes last: its addition has two generators, so the
    # mutants of its self action take the reduced scans over the scalars
    # and over the module's additive generators
    assert len(generators(saturating(12).add)) == 2
    for s in [entry.structure for entry in all_entries] + [saturating(12)]:
        if not check_laws(s).is_semiring:
            continue
        own = self_action(s)
        modules = [own, componentwise_module(s, 2)] if s.size <= 3 else [own]
        for _ in range(12):
            k = rng.randrange(1, 4)
            madd = tuple(tuple(rng.randrange(k) for _ in range(k)) for _ in range(k))
            action = tuple(tuple(rng.randrange(k) for _ in range(k)) for _ in range(s.size))
            modules.append(FiniteSemimodule(s, k, madd, rng.randrange(k), action))
        for madd in _one_cell_mutants(own.madd, rng, 6):
            modules.append(FiniteSemimodule(s, s.size, madd, own.mzero, own.action))
        for action in _one_cell_mutants(own.action, rng, 6):
            modules.append(FiniteSemimodule(s, s.size, own.madd, own.mzero, action))
        for m in modules:
            rep = semimodule_check(m)
            witnesses = oracle_semimodule(m)
            assert rep.witnesses == witnesses
            assert [getattr(rep, axiom) for axiom in SEMIMODULE_AXIOMS] == [
                axiom not in witnesses for axiom in SEMIMODULE_AXIOMS
            ]


def test_self_action_is_semimodule_for_every_corpus_semiring(all_entries):
    for e in all_entries:
        rep = check_laws(e.structure)
        if rep.is_semiring:
            assert semimodule_check(self_action(e.structure)).valid


def test_a_self_action_is_never_scanned_and_its_report_is_the_scan(monkeypatch, all_entries):
    """A self action's report is read off its semiring's laws: building
    one, and the zero-divisor and total-quotient reports that read it and
    its quotient's, scan no module. The report read off equals the scan of
    an equal module built apart, on every corpus semiring, saturating(40)
    and boolean^k for k <= 7."""
    semirings = [dataclasses.replace(e.structure) for e in all_entries if check_laws(e.structure).is_semiring]
    semirings += [direct_product([boolean_semifield()] * k) for k in range(1, 8)]
    # past the ideal cap, so only its module is built
    large = saturating(40)
    scans = []
    monkeypatch.setattr(tables, "_semimodule_report", lambda m: scans.append(m))
    for s in semirings:
        self_action(s)
        if check_laws(s).is_commutative_semiring:
            zero_divisor_report(s, self_action(s))
            kasch_semilocal_report(total_quotient(s))
    self_action(large)
    assert scans == []
    monkeypatch.undo()
    for s in semirings + [large]:
        assert semimodule_check(self_action(s)) == _semimodule_report(dataclasses.replace(self_action(s))), s.name


def test_componentwise_module_over_boolean():
    m = componentwise_module(boolean_semifield(), 2)
    rep = semimodule_check(m)
    assert rep.valid
    # independent spot checks of the coordinatewise action
    assert m.action[0] == (0, 0, 0, 0)
    assert m.action[1] == (0, 1, 2, 3)


def test_broken_action_carries_witness():
    b = boolean_semifield()
    m = FiniteSemimodule(
        semiring=b, msize=2, madd=((0, 1), (1, 1)), mzero=0, action=((0, 0), (0, 0))
    )
    rep = semimodule_check(m)
    assert not rep.valid
    assert rep.witnesses["action_unital"] == (1,)


def test_semimodule_shape_validation():
    b = boolean_semifield()
    with pytest.raises(StructureError):
        FiniteSemimodule(semiring=b, msize=2, madd=((0, 1),), mzero=0, action=((0, 0), (0, 1)))
    with pytest.raises(StructureError):
        FiniteSemimodule(
            semiring=b, msize=2, madd=((0, 1), (1, 1)), mzero=0, action=((0, 0),)
        )


def _cubes(law, *operands):
    """Both sides of a law's whole cube, on byte rows and on tuple rows."""
    if law is _associative:
        mul, act = operands
        return [_associative_cube(mul, rows) for rows in (_Rows(act), _tuple_rows(act))]
    add, mul = operands
    return [_distributive_cube(*views) for views in ((_Rows(add), _Rows(mul)), (_tuple_rows(add), _tuple_rows(mul)))]


def assert_cube_matches_scans(law, *operands):
    """``least_witness`` over a law's whole cube, on byte rows and on tuple
    rows, gives the witness of the full block scans over every first
    coordinate and of the list rows; the two cubes hold the same entries."""
    shape, _, *rows = law(*operands)
    first, middle, last = shape
    scans = [_scan(range(first), range(middle), last, law_rows) for law_rows in rows]
    cubes = _cubes(law, *operands)
    assert [bytes(side) for side in cubes[1]] == [bytes(side) for side in cubes[0]]
    assert [least_witness(shape, lambda: sides, 3) for sides in cubes] == scans[:2] == scans[1:]


SMALL_STRUCTURES = tuple(e.structure for e in corpus() if e.structure.size <= 8)


@st.composite
def cube_operands(draw):
    """An addition and a multiplication on n <= 8 elements, and a module
    addition on k <= 8 elements with an action of the n scalars: drawn at
    random, or a corpus structure of at most 8 elements acting on itself,
    with one cell of one of the four tables changed."""
    if draw(st.booleans()):
        n, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        shapes = ((n, n), (n, n), (k, k), (n, k))
        tables_ = [[draw(st.lists(st.integers(0, c - 1), min_size=c, max_size=c)) for _ in range(r)] for r, c in shapes]
    else:
        s = draw(st.sampled_from(SMALL_STRUCTURES))
        tables_ = [list(map(list, t)) for t in (s.add, s.mul, s.add, s.mul)]
        t = draw(st.sampled_from(tables_))
        i, j = draw(st.integers(0, len(t) - 1)), draw(st.integers(0, len(t[0]) - 1))
        t[i][j] = (t[i][j] + draw(st.integers(1, len(t[0])))) % len(t[0])
    return tuple(tuple(map(tuple, t)) for t in tables_)


@given(cube_operands())
def test_cube_witness_matches_block_scans_and_list_rows(operands):
    """Both associativities, action associativity, both distributive laws
    and module-add distributivity, each decided on its cube."""
    add, mul, madd, act = operands
    for law, pair in (
        (_associative, (add, add)),
        (_associative, (mul, mul)),
        (_associative, (mul, act)),
        (_distributive, (add, mul)),
        (_distributive, (add, transpose(mul))),
        (_distributive, (madd, act)),
    ):
        assert_cube_matches_scans(law, *pair)


def _picked_generators(monkeypatch):
    """The tables whose generators the package picks from now on."""
    picked = []
    monkeypatch.setattr(tables, "generators", lambda table: picked.append(table) or generators(table))
    return picked


@pytest.fixture
def no_cube(monkeypatch):
    """Every law past the cube budget: small tables take Light's test, the
    first-block scans and the multiplicative firsts, as past the budget."""
    monkeypatch.setattr(tables._Rows, "cube_entries", 0)
    picked = _picked_generators(monkeypatch)
    yield
    assert picked


@pytest.fixture
def fresh_entries(all_entries):
    """The corpus with every structure built again, so that no report made
    under the cube is read back from a structure's context."""
    return [
        dataclasses.replace(e, structure=CayleyStructure(
            e.structure.size, e.structure.add, e.structure.mul, e.structure.zero, e.structure.one, e.structure.name
        ))
        for e in all_entries
    ]


def test_corpus_one_cell_mutants_match_oracle_past_the_budget(no_cube, fresh_entries):
    test_corpus_one_cell_mutants_match_oracle(fresh_entries)


def test_flag_products_relabellings_and_mutants_match_oracle_past_the_budget(no_cube):
    test_flag_products_relabellings_and_mutants_match_oracle()


def test_reports_match_the_list_path_past_the_budget(no_cube, monkeypatch, fresh_entries):
    test_reports_match_the_list_path_on_corpus_ladder_and_mutants(monkeypatch, fresh_entries)


def test_semimodule_axioms_match_oracle_past_the_budget(no_cube, fresh_entries):
    test_semimodule_axioms_match_oracle(fresh_entries)
    test_self_action_is_semimodule_for_every_corpus_semiring(fresh_entries)
    test_componentwise_module_over_boolean()
    test_broken_action_carries_witness()


@pytest.mark.parametrize("n", [32, 33])
def test_laws_either_side_of_the_cube_budget(monkeypatch, n):
    """32^3 entries fill the budget, so on 32 elements every three-variable
    law of ``check_laws`` and of the semimodule check is decided on its
    cube, with no generators picked; 33^3 do not, and the reduced scans
    run. On saturating, its self action and one-cell mutants of each
    table, flags and witnesses equal the oracle's either side."""
    picked = _picked_generators(monkeypatch)
    s, rng = saturating(n - 1), random.Random(n)
    assert_laws_match_oracle(s.add, s.mul)
    for add in _one_cell_mutants(s.add, rng, 2):
        assert_laws_match_oracle(add, s.mul)
    for mul in _one_cell_mutants(s.mul, rng, 3):
        assert_laws_match_oracle(s.add, mul)
    assert (len(picked) > 0) == (n > 32)
    own = self_action(s)
    for m in [own] + [FiniteSemimodule(s, n, own.madd, 0, act) for act in _one_cell_mutants(own.action, rng, 2)]:
        assert semimodule_check(m).witnesses == oracle_semimodule(m)


def test_generators_are_picked_once_per_table_and_only_past_the_budget(monkeypatch):
    """The 64 endomorphisms of the constant magma on 4 elements are past
    the cube budget, so ``_law_report`` reduces its laws on the generators
    of both tables: those of the multiplication serve Light's test and the
    distributive firsts, those of the addition its associativity and both
    distributive laws, and each set is picked once. Within the budget, on
    the 27 endomorphisms of the left projection on 3 elements and on
    saturating(15), none is picked. The self action of saturating(40), past
    the budget too, picks none: its report is read off the laws."""
    picked = _picked_generators(monkeypatch)
    r = endomorphism_ringoid([[0] * 4] * 4)
    assert _law_report(r).is_ringoid
    assert sorted(picked) == sorted([r.add, r.mul])
    picked.clear()
    for s in (endomorphism_ringoid([[x] * 3 for x in range(3)]), saturating(15)):
        _law_report(s)
    assert picked == []
    s = saturating(40)
    check_laws(s)
    picked.clear()
    m = self_action(s)
    assert semimodule_check(m).valid
    assert picked == []


def test_a_multiplication_equal_to_its_transpose_is_scanned_once(monkeypatch):
    """Right distributivity is the left scan, and commutativity needs no
    scan, where the multiplication equals its transpose. On a commutative
    multiplication, a symmetric one-cell mutant of it that fails to
    distribute, a one-cell mutant that breaks commutativity and a
    non-commutative multiplication, the right distributive witness is the
    transposed scan's and the commutativity witness the row scan's. With
    ``generators`` made to raise, ``check_laws`` of 16 elements completes."""
    s = saturating(15)
    mul = [list(row) for row in s.mul]
    mul[3][5] = mul[5][3] = 2
    broken = [list(row) for row in s.mul]
    broken[3][5] = 2
    z3 = tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))
    for add, mul in ((s.add, s.mul), (s.add, mul), (s.add, broken), (z3, ((0, 0, 2), (0, 1, 2), (0, 0, 2)))):
        add, mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
        n, cols = len(add), transpose(mul)
        rep = check_laws(CayleyStructure(n, add, mul))
        assert rep.witnesses.get("right_distributive") == oracle_laws(add, mul)[2].get("right_distributive")
        assert rep.witnesses.get("mul_commutative") == least_witness((n, n), lambda a: (mul[a], cols[a]))
        assert_laws_match_oracle(add, mul)

    def refuse(table):
        raise AssertionError("generators picked within the cube budget")

    monkeypatch.setattr(tables, "generators", refuse)
    assert check_laws(saturating(15)).is_commutative_semiring
