"""Suite rows pinned by digest, and the covering kernel that the public
corollary and McCoy checks and their suites share, checked against the
per-pair checks it replaced (``tests/helpers.py``) on every pair the suites
visit."""

import hashlib
import inspect
import itertools

import helpers
from semiringlab import covering
from semiringlab.corpus import CorpusEntry
from semiringlab.covering import is_efficient
from semiringlab.errors import TheoremViolation
from semiringlab.ideals import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    IdealSet,
    all_ideals_subtractive,
    enumerate_ideals,
    mask_members,
    mult_closure,
)
from semiringlab.suites import (
    SUITES,
    austere_suite,
    corollary_avoidance,
    endomorphism_suite,
    hemialgebra_suite,
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


def test_golden_suite_rows():
    """Every (name, status, detail) row of every per-entry suite, seed 1, on
    two commutative semirings outside the corpus: any change to a count or a
    detail changes the digest."""
    digests = {s.name: _rows_digest(s) for s in (_product(_f2xy(), _boolean()), _product(_lattice4(), _chain3()))}
    assert digests == {
        "f2xy*boolean": "fd022d315cdcb06882d520fb828b1ea6e12e9d7f71779a5c2599bd0c9d8f2b5d",
        "lattice-4*chain-3": "b95cd5be86b495be868608c2cf5692ce424e451646cb8a1b1c3dabf7f7bf4b81",
    }


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
