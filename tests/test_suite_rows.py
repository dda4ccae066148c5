"""Suite rows pinned by digest; the covering kernel that the public
corollary and McCoy checks and their suites share, checked against the
per-pair checks it replaced (``tests/helpers.py``) on every pair the suites
visit; and the lattice product kernel and the ideal suite's lattice-wide
checks, against the loops they replaced, on lawful and tampered inputs."""

import dataclasses
import hashlib
import inspect
import itertools
import types

import pytest
from hypothesis import given, strategies as st

import helpers
from semiringlab import covering, suites
from semiringlab.constructions import endomorphism_ringoid
from semiringlab.corpus import CorpusEntry, saturating
from semiringlab.covering import is_efficient
from semiringlab.errors import CapExceeded, TheoremViolation
from semiringlab.ideals import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    IdealSet,
    all_ideals_subtractive,
    element_annihilators,
    enumerate_ideals,
    is_prime,
    is_subtractive,
    lattice_product_masks,
    mask_members,
    mult_closure,
    radical,
    set_product_mask,
    union_mask,
)
from semiringlab.suites import (
    FAIL,
    PASS,
    SUITES,
    austere_suite,
    corollary_avoidance,
    endomorphism_suite,
    hemialgebra_suite,
    ideal_suite,
    mccoy_suite,
    medial_magma_corpus,
    monoid_slice_suite,
    product_flag_suite,
    ringoid_avoidance,
    run_entry_suites,
)
from semiringlab.tables import CayleyStructure, check_laws


def _structure(name, add, mul, zero, one):
    return CayleyStructure(size=len(add), add=add, mul=mul, zero=zero, one=one, name=name)


def _f2xy():
    """1, x, y over the two-element field with xx = xy = yy = 0; a + bx + cy
    sits at index 4a + 2b + c."""

    def mul(i, j):
        a, b, c = i >> 2 & 1, i >> 1 & 1, i & 1
        d, e, f = j >> 2 & 1, j >> 1 & 1, j & 1
        return (a & d) << 2 | ((a & e) ^ (b & d)) << 1 | ((a & f) ^ (c & d))

    return _structure("f2xy", [[i ^ j for j in range(8)] for i in range(8)], [[mul(i, j) for j in range(8)] for i in range(8)], 0, 4)


def _boolean():
    return _structure("boolean", [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)


def _lattice4():
    return _structure(
        "lattice-4", [[a | b for b in range(4)] for a in range(4)], [[a & b for b in range(4)] for a in range(4)], 0, 3
    )


def _chain3():
    return _structure("chain-3", [[max(a, b) for b in range(3)] for a in range(3)], [[0, 0, 0], [0, 0, 1], [0, 1, 2]], 0, 2)


def _z4():
    return _structure("Z4", [[(a + b) % 4 for b in range(4)] for a in range(4)], [[a * b % 4 for b in range(4)] for a in range(4)], 0, 1)


def _product(a, b):
    """The direct product with (x, y) at index x * b.size + y, built cell by
    cell from the factor tables."""
    m = b.size

    def table(op):
        ta, tb = getattr(a, op), getattr(b, op)
        n = a.size * m
        return [[ta[i // m][j // m] * m + tb[i % m][j % m] for j in range(n)] for i in range(n)]

    return _structure(f"{a.name}*{b.name}", table("add"), table("mul"), a.zero * m + b.zero, a.one * m + b.one)


def _entry(s):
    return CorpusEntry(name=s.name, structure=s, claims=("ringoid", "semiring"))


def _rows_digest(s):
    rows = run_entry_suites(_entry(s), 1)
    text = "\n".join(f"{r.name}\t{r.status}\t{r.detail}" for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_structures():
    """The seven commutative semirings outside the corpus that the
    ``generated-suites`` benchmark pool runs, each built as it builds them."""
    return [
        _product(_f2xy(), _boolean()),
        _product(_lattice4(), _chain3()),
        _product(_z4(), _chain3()),
        _product(_chain3(), _chain3()),
        _product(_product(_boolean(), _boolean()), _boolean()),
        saturating(10),
        saturating(11),
    ]


# the last five were generated from the source as it was before the lattice
# product kernel; regenerate all with
# ``PYTHONPATH=src python tests/test_suite_rows.py``
GOLDEN = {
    "f2xy*boolean": "fd022d315cdcb06882d520fb828b1ea6e12e9d7f71779a5c2599bd0c9d8f2b5d",
    "lattice-4*chain-3": "b95cd5be86b495be868608c2cf5692ce424e451646cb8a1b1c3dabf7f7bf4b81",
    "Z4*chain-3": "b8afe02dcae2cf3f9aa6e721973e2e4d06b14fef5f3fceeb31e06248cce173f2",
    "chain-3*chain-3": "76a0552739a33ab35e867e5536138a6a0522d80fe22365dd43603cb6707fe3d2",
    "boolean*boolean*boolean": "1638d55f45490fce339644cc0e4d3861f8ceaf8ed256aff52bcea7863f1631ea",
    "saturating-11": "45096682c7363047a53945d7e65b6cc66447fb667f944de418540125d3b9b4ce",
    "saturating-12": "34db1117bf2e6c3ff65bfd18fbb458c46d1c6b41998e209fe29cfd49395122b1",
}


def golden_digests():
    return {s.name: _rows_digest(s) for s in _golden_structures()}


def test_golden_suite_rows():
    """Every (name, status, detail) row of every per-entry suite, seed 1, on
    seven commutative semirings outside the corpus, up to the 81 ideals of
    saturating-12: any change to a count or a detail changes the digest."""
    assert golden_digests() == GOLDEN


def _covering_structures(commutative_entries):
    """The two products above and the corpus semirings inside the covering
    suites' gate: commutative, with every ideal subtractive."""
    products = [_product(_f2xy(), _boolean()), _product(_lattice4(), _chain3())]
    return products + [e.structure for e in commutative_entries if all_ideals_subtractive(e.structure)]


def _pairs(lattice, sizes):
    return [
        (family, target)
        for size in sizes
        for family in itertools.combinations(lattice, size)
        for target in lattice
        if all(any(x in c for c in family) for x in target.members())
    ]


def _t_sets(s):
    """The suite's T = {1}, then, where there is one, the closure of the
    least element whose closure is larger and misses zero, so that the
    residuals (P : t) are not all P."""
    rep = check_laws(s)
    closures = [mult_closure(s, [g]) for g in range(s.size)]
    return [mult_closure(s, [rep.one])] + [t for t in closures if t.mask != 1 << rep.one and rep.zero not in t][:1]


def _outcome(check, *args):
    """The report of a check, or the type and message of what it raised."""
    try:
        return check(*args)
    except TheoremViolation as exc:
        return type(exc), str(exc)


def _corollary_reports(check, target, family, t_set):
    return [
        _outcome(check.union_avoidance_suite, target, family, "radical"),
        _outcome(check.union_avoidance_suite, target, family, "semiprime"),
        _outcome(check.t_semiprime_avoidance, target, family, t_set),
    ]


def test_corollaries_match_the_oracle(commutative_entries):
    """On every (family, target) pair ``corollary_avoidance`` visits, both
    modes of ``union_avoidance_suite`` and ``t_semiprime_avoidance``, the
    latter also under a second T, give the whole report of the per-pair
    checks they replaced."""
    for s in _covering_structures(commutative_entries):
        lattice = enumerate_ideals(s, TWO_SIDED)
        for t_set in _t_sets(s):
            for family, target in _pairs(lattice, range(1, 4)):
                want = _corollary_reports(helpers, target, family, t_set)
                got = _corollary_reports(covering, target, family, t_set)
                assert got == want, (s.name, mask_members(t_set.mask), family, target)


def test_exponents_match_the_oracle(commutative_entries):
    """On every (family, target) pair ``mccoy_suite`` visits, and on the
    families of one and two covers it skips, ``mccoy_exponent`` gives the
    whole report of the per-pair check it replaced, and ``is_efficient``
    agrees with it."""
    for s in _covering_structures(commutative_entries):
        lattice = enumerate_ideals(s, TWO_SIDED)
        for family, target in _pairs(lattice, range(1, 5)):
            want = _outcome(helpers.mccoy_exponent, target, family)
            assert _outcome(covering.mccoy_exponent, target, family) == want, (s.name, family, target)
            if len(family) >= 3:
                assert is_efficient(target, family) == (want.violated_hypothesis != "efficiency")


def test_suites_count_what_the_oracle_holds(commutative_entries):
    """The counts of the corollary and McCoy suites are the numbers of
    coverings on which the per-pair checks hold."""
    for s in _covering_structures(commutative_entries):
        entry = _entry(s)
        lattice = enumerate_ideals(s, TWO_SIDED)
        t_set = mult_closure(s, [check_laws(s).one])
        counts = {"radical": 0, "semiprime": 0, "t-semiprime": 0}
        for family, target in _pairs(lattice, range(1, 4)):
            for mode, report in zip(counts, _corollary_reports(helpers, target, family, t_set)):
                counts[mode] += report.holds
        found = sum(helpers.mccoy_exponent(t, f).holds for f, t in _pairs(lattice, range(3, 5)))
        assert [r.detail for r in corollary_avoidance(entry)] == [str(counts)], s.name
        assert [r.detail for r in mccoy_suite(entry)] == [f"{found} efficient coverings"], s.name


@given(
    st.lists(st.integers(0, 63), max_size=9),
    st.integers(0, 63),
    st.integers(1, 4),
)
def test_the_efficient_cover_search_yields_what_the_filter_keeps(masks, target, size):
    """On drawn masks, repeats, empty masks and masks missing the target
    allowed, the search yields the filter's families in its order."""
    candidates = [IdealSet(structure=None, side=TWO_SIDED, mask=m) for m in masks]
    want = helpers.efficient_families(IdealSet(structure=None, side=TWO_SIDED, mask=target), candidates, size)
    assert list(covering._efficient_families(masks, target, size)) == want


def test_the_efficient_cover_search_yields_what_the_filter_keeps_on_lattices():
    """For every target of the pool structures inside the corollaries'
    gate and of f2xy × boolean^2, the families of three and four ideals
    missing it that the search yields are the filter's, in its order."""
    structures = [s for s in _golden_structures() if covering._corollary_unmet(s) is None]
    assert len(structures) == 5
    for s in structures + [_product(_product(_f2xy(), _boolean()), _boolean())]:
        lattice = enumerate_ideals(s, TWO_SIDED)
        for target in lattice:
            missing = [c for c in lattice if target.mask & ~c.mask]
            for size in (3, 4):
                got = list(covering._efficient_families([c.mask for c in missing], target.mask, size))
                assert got == helpers.efficient_families(target, missing, size), (s.name, target, size)


def test_the_frontier_counts_stay_pinned():
    """The corollary and McCoy counts on boolean^5 and f2xy × boolean^3, as
    the filters over every family found them. Those filters take about 7 s
    on these two inputs, so a return to them shows in this test's time."""
    b5 = _boolean()
    for _ in range(4):
        b5 = _product(b5, _boolean())
    f2xy_b3 = _product(_product(_product(_f2xy(), _boolean()), _boolean()), _boolean())
    pinned = {
        b5: ["{'radical': 84460, 'semiprime': 84460, 't-semiprime': 11085}", "0 efficient coverings"],
        f2xy_b3: ["{'radical': 331345, 'semiprime': 307537, 't-semiprime': 5835}", "729 efficient coverings"],
    }
    for s, details in pinned.items():
        rows = [*corollary_avoidance(_entry(s)), *mccoy_suite(_entry(s))]
        assert [(r.status, r.detail) for r in rows] == [(PASS, d) for d in details], s.name


def _entry_row(s, suite_name):
    """The one row of a suite of ``run_entry_suites`` on s."""
    return next(r for r in run_entry_suites(_entry(s), 1) if r.name == f"{s.name}/{suite_name}")


def test_covers_called_radical_and_semiprime_fail_the_corollaries(monkeypatch):
    """Once every ideal of f2xy × boolean is reported radical and
    semiprime, families such as the lines (x), (y) and (x + y) of f2xy,
    times boolean's zero ideal, meet the corollaries' hypotheses and cover
    (x, y) times it with none holding it: the corollaries row fails."""
    s = _product(_f2xy(), _boolean())
    assert _entry_row(s, "corollaries").status == PASS
    classify = suites.classify_ideal

    def fake(ideal):
        cls = classify(ideal)
        flags = {f.name: getattr(cls, f.name) for f in dataclasses.fields(cls)}
        return types.SimpleNamespace(**{**flags, "radical_ideal": True, "semiprime": True})

    monkeypatch.setattr(suites, "classify_ideal", fake)
    row = _entry_row(s, "corollaries")
    assert (row.status, row.detail) == (FAIL, "no containing cover despite verified hypotheses")


def test_a_redundant_family_from_the_search_fails_the_mccoy_row(monkeypatch):
    """A search that also yields one redundant covering, the first family
    of four ideals that covers its target although one of them can be
    dropped, fails the McCoy row of f2xy × boolean through the kernel's
    second check."""
    s = _product(_f2xy(), _boolean())
    assert _entry_row(s, "mccoy").status == PASS
    search = covering._efficient_families
    fed = []

    def fake(masks, target, size):
        yield from search(masks, target, size)
        if size == 4 and not fed:
            efficient = set(search(masks, target, size))
            for family in itertools.combinations(range(len(masks)), size):
                if target & ~union_mask(masks[k] for k in family) == 0 and family not in efficient:
                    fed.append(family)
                    yield family
                    return

    monkeypatch.setattr(suites, "_efficient_families", fake)
    row = _entry_row(s, "mccoy")
    assert fed and (row.status, row.detail) == (FAIL, "the efficient-cover search yielded a redundant covering")


def test_relabelled_covers_are_classified_by_their_mask():
    """A cover labelled left or right, or built over an equal structure
    apart, gives the report of the two-sided cover with its mask."""
    s = _product(_lattice4(), _chain3())
    twin = _product(_lattice4(), _chain3())
    lattice = enumerate_ideals(s, TWO_SIDED)
    t_set = _t_sets(s)[-1]
    for family, target in _pairs(lattice, range(1, 4))[::7]:
        want = _corollary_reports(covering, target, family, t_set)
        for relabel in (
            lambda c: IdealSet(structure=s, side=LEFT, mask=c.mask),
            lambda c: IdealSet(structure=s, side=RIGHT, mask=c.mask),
            lambda c: IdealSet(structure=twin, side=TWO_SIDED, mask=c.mask),
        ):
            covers = [relabel(c) for c in family]
            assert _corollary_reports(covering, target, covers, t_set) == want, (family, target)
            if len(family) >= 3:
                assert covering.mccoy_exponent(target, covers) == covering.mccoy_exponent(target, family)


def test_suites_take_no_settings():
    """Every per-entry suite takes only the entry. The exceptions take what
    their runner varies: the ringoid-avoidance suite the seed of its sampled
    sum trees, the monoid-slice suite its degree cap (0 and 2). The global
    suites and the medial magma corpus take nothing. None has a default, so
    a new setting fails here."""
    takes = {ringoid_avoidance: ["entry", "seed"], monoid_slice_suite: ["entry", "degree_cap"]}
    per_entry = [suite for _, suite in SUITES] + [monoid_slice_suite]
    for suite in per_entry:
        params = inspect.signature(suite).parameters
        assert list(params) == takes.get(suite, ["entry"]), suite.__name__
        assert all(p.default is inspect.Parameter.empty for p in params.values()), suite.__name__
    for fn in (endomorphism_suite, product_flag_suite, hemialgebra_suite, austere_suite, medial_magma_corpus):
        assert not inspect.signature(fn).parameters, fn.__name__


# --- the lattice product kernel and the ideal suite's lattice-wide checks ---


def _lattices(s):
    """The two-sided, left and right lattices, and the left and right ones
    together, so that the side rule also meets pairs of two sides."""
    left, right = enumerate_ideals(s, LEFT), enumerate_ideals(s, RIGHT)
    return [enumerate_ideals(s, TWO_SIDED), left, right, left + right]


def _check_products(s):
    for lattice in _lattices(s):
        assert lattice_product_masks(lattice) == helpers.product_table(lattice), (s.name, lattice[0].side)


def _endomorphism_ringoids():
    """The endomorphism ringoids of the medial magma corpus with at most 16
    elements. Their multiplication is composition, which often does not
    commute; every multiplication of the corpus commutes."""
    ringoids = []
    for table in medial_magma_corpus():
        try:
            ringoids.append(endomorphism_ringoid(table, cap=16))
        except CapExceeded:
            continue
    return ringoids


def test_lattice_products_match_the_pair_products(all_entries):
    """``lattice_product_masks`` gives ``set_product_mask`` of every ordered
    pair of each lattice of the corpus entries, of the benchmark pool and of
    380 endomorphism ringoids, 138 of whose multiplications do not commute."""
    ringoids = _endomorphism_ringoids()
    assert (len(ringoids), sum(not check_laws(r).mul_commutative for r in ringoids)) == (380, 138)
    for s in [e.structure for e in all_entries] + _golden_structures() + ringoids:
        _check_products(s)


@st.composite
def _small_tables(draw):
    """Arbitrary tables of size 1-4: most have no laws, and most
    multiplications do not commute."""
    n = draw(st.integers(1, 4))
    table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    return CayleyStructure(size=n, add=draw(table), mul=draw(table), name="drawn")


@given(_small_tables())
def test_lattice_products_match_the_pair_products_on_drawn_tables(s):
    _check_products(s)


def test_a_product_that_escapes_its_meet_is_refused_alike():
    """{1} of chain-3 is no ideal: its square {0} escapes it. Both paths
    refuse it with the same theorem violation, alone and among the lattice,
    as a two-sided set and as a right set times a left one, which the
    kernel also meets as the pair (right, left) among [left, right]."""
    s = _chain3()
    lattice = enumerate_ideals(s, TWO_SIDED)
    right, left = (IdealSet(structure=s, side=side, mask=0b010) for side in (RIGHT, LEFT))
    with pytest.raises(TheoremViolation) as want:
        set_product_mask(right, left)
    bad = IdealSet(structure=s, side=TWO_SIDED, mask=0b010)
    for ideals in ([bad], [*lattice, bad], [bad, *lattice], [right, left], [left, right]):
        with pytest.raises(TheoremViolation) as got:
            lattice_product_masks(ideals)
        assert str(got.value) == str(want.value), ideals
    # a left set times a left set, or times a right one, has no meet to stay in
    assert set_product_mask(left, right) == set_product_mask(left, left) == 0b001
    assert lattice_product_masks([left]) == [[0b001]]


LOOP_ROWS = (
    "subtractive-intersections",
    "radical-extensive-idempotent-monotone",
    "prime-ideal-pair-criterion",
    "annihilator-union-law",
)


def _suite_rows(s):
    """The status of each row of ``ideal_suite``, by the last part of its
    name, or of the suite's one guard row when a theorem check raises."""
    try:
        return {r.name.rsplit("/", 1)[1]: r.status for r in ideal_suite(_entry(s))}
    except TheoremViolation:
        return {"ideals": FAIL}


def _oracle_loop_rows(s):
    """The lattice-wide rows by the loops the suite ran before the lattice product
    kernel (``tests/helpers.py``), under the same hypotheses."""
    rep = check_laws(s)
    lattice = enumerate_ideals(s, TWO_SIDED)
    try:
        products = helpers.product_table(lattice)
    except TheoremViolation:
        return {"ideals": FAIL}
    rows = {"subtractive-intersections": helpers.subtractive_intersections(lattice)}
    if rep.is_commutative_semiring:
        rows["radical-extensive-idempotent-monotone"] = helpers.radical_monotone(lattice)
    if rep.is_semiring:
        rows["prime-ideal-pair-criterion"] = helpers.prime_pair_criterion(lattice, products)
    if rep.is_commutative_semiring:
        rows["annihilator-union-law"] = helpers.annihilator_union_law(s)
    return {name: PASS if ok else FAIL for name, ok in rows.items()}


def test_lattice_rows_match_the_loops_they_replaced(all_entries):
    """On the corpus and the benchmark pool, every lattice-wide row of the
    ideal suite has the status of the loop it replaced."""
    for s in [e.structure for e in all_entries] + _golden_structures():
        rows = {name: status for name, status in _suite_rows(s).items() if name in (*LOOP_ROWS, "ideals")}
        assert rows == _oracle_loop_rows(s), s.name


def _patch(monkeypatch, name, fake):
    """Replace a reader of the suite and of the oracle loops alike."""
    for module in (suites, helpers):
        monkeypatch.setattr(module, name, fake)


def _shrink_a_radical(monkeypatch, s, lattice):
    """The radical of the zero ideal loses zero, so it no longer holds its
    ideal. The radicals stay monotone, as no other ideal lies inside the
    zero ideal, so only the extensive check can see this."""
    zero = 1 << check_laws(s).zero

    def fake(ideal):
        r = radical(ideal)
        return dataclasses.replace(r, mask=r.mask & ~zero) if ideal.mask == zero else r

    _patch(monkeypatch, "radical", fake)


def _break_radical_monotony(monkeypatch, s, lattice):
    """The radical of an ideal i that is not radical is called i itself,
    which is still extensive and idempotent, where some j strictly inside
    i has a radical outside i: only the monotone check can see this."""
    masks = [a.mask for a in lattice]
    rad = {m: radical(a).mask for m, a in zip(masks, lattice)}
    i = next(i for i in masks if rad[i] != i and any(j != i and j & ~i == 0 and rad[j] & ~i for j in masks))
    _patch(monkeypatch, "radical", lambda ideal: dataclasses.replace(ideal) if ideal.mask == i else radical(ideal))


def _refuse_a_meet(monkeypatch, s, lattice):
    """The least meet of two subtractive ideals, inside neither, is called
    not subtractive."""
    subtractive = [a.mask for a in lattice if is_subtractive(a)[0]]
    meet = min(a & b for a in subtractive for b in subtractive if a & b not in (0, a, b))
    _patch(monkeypatch, "is_subtractive", lambda ideal: (False, None) if ideal.mask == meet else is_subtractive(ideal))


def _put_a_product_inside_a_prime(monkeypatch, s, lattice):
    """The square of the whole carrier, which lies in no proper ideal, is
    put inside the first proper prime."""
    full = [i for i, a in enumerate(lattice) if not a.is_proper][0]
    prime = next(p.mask for p in lattice if p.is_proper and is_prime(p)[0])

    def tampered(table):
        def fake(ideals):
            products = table(ideals)
            products[full][full] = prime
            return products

        return fake

    monkeypatch.setattr(suites, "lattice_product_masks", tampered(lattice_product_masks))
    monkeypatch.setattr(helpers, "product_table", tampered(helpers.product_table))


def _drop_an_annihilating_scalar(monkeypatch, s, lattice):
    """The annihilator of zero, the whole carrier, loses its last scalar."""

    def fake(m):
        anns = list(element_annihilators(m))
        zero = anns[m.mzero]
        anns[m.mzero] = dataclasses.replace(zero, mask=zero.mask & ~(1 << s.size - 1))
        return tuple(anns)

    _patch(monkeypatch, "element_annihilators", fake)


def _lattice4_chain3():
    return _product(_lattice4(), _chain3())


@pytest.mark.parametrize(
    "tamper, row, build",
    [
        pytest.param(tamper, row, build, id=f"{tamper.__name__.strip('_')}-{build().name}")
        for tamper, row, builds in [
            (_refuse_a_meet, "subtractive-intersections", (_lattice4, _lattice4_chain3)),
            (_shrink_a_radical, "radical-extensive-idempotent-monotone", (_lattice4, _lattice4_chain3)),
            # lattice-4 is reduced: each of its ideals is radical
            (_break_radical_monotony, "radical-extensive-idempotent-monotone", (_lattice4_chain3,)),
            (_put_a_product_inside_a_prime, "prime-ideal-pair-criterion", (_lattice4, _lattice4_chain3)),
            (_drop_an_annihilating_scalar, "annihilator-union-law", (_lattice4, _lattice4_chain3)),
        ]
        for build in builds
    ],
)
def test_each_tampered_reader_fails_its_row_alone(monkeypatch, tamper, row, build):
    """With one reader tampered in the suite and in the oracle loops alike,
    exactly its row turns to FAIL in both forms: every other row of the
    suite still passes."""
    lawful = _suite_rows(build())
    assert set(LOOP_ROWS) < set(lawful) and set(lawful.values()) == {PASS}
    assert _oracle_loop_rows(build()) == dict.fromkeys(LOOP_ROWS, PASS)
    s = build()
    tamper(monkeypatch, s, enumerate_ideals(s, TWO_SIDED))
    assert _suite_rows(s) == {**lawful, row: FAIL}
    assert _oracle_loop_rows(s) == {**dict.fromkeys(LOOP_ROWS, PASS), row: FAIL}


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, digest in golden_digests().items():
        print(f'    "{name}": "{digest}",')
    print("}")
