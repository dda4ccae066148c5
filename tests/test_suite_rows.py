"""Suite rows pinned by digest, and the suites' per-family covering path
checked against the public covering checks on every pair it visits."""

import hashlib
import itertools

from semiringlab.corpus import CorpusEntry
from semiringlab.covering import (
    HOLDS,
    UNMET,
    is_efficient,
    mccoy_exponent,
    t_semiprime_avoidance,
    union_avoidance_suite,
)
from semiringlab.ideals import TWO_SIDED, all_ideals_subtractive, enumerate_ideals, mult_closure
from semiringlab.suites import _corollary_witnesses, _mccoy_exponents, run_entry_suites
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


def _verdict(witness):
    return (UNMET, None) if witness is None else (HOLDS, witness)


def _t_sets(s):
    """The suite's T = {1}, then, where there is one, the closure of the
    least element whose closure is larger and misses zero, so that the
    residuals (P : t) are not all P."""
    rep = check_laws(s)
    closures = [mult_closure(s, [g]) for g in range(s.size)]
    return [mult_closure(s, [rep.one])] + [t for t in closures if t.mask != 1 << rep.one and rep.zero not in t][:1]


def test_per_family_corollaries_match_the_public_checks(commutative_entries):
    """On every (family, target) pair ``corollary_avoidance`` visits, each
    witness of the per-family path is the verdict and witness of the public
    check: both modes of ``union_avoidance_suite`` and
    ``t_semiprime_avoidance``, the latter also under a second T."""
    for s in _covering_structures(commutative_entries):
        lattice = enumerate_ideals(s, TWO_SIDED)
        for t_set in _t_sets(s):
            visited = list(_corollary_witnesses(lattice, t_set, 3))
            assert [(f, t) for f, t, _ in visited] == _pairs(lattice, range(1, 4))
            for family, target, witnesses in visited:
                reports = [
                    union_avoidance_suite(target, family, "radical"),
                    union_avoidance_suite(target, family, "semiprime"),
                    t_semiprime_avoidance(target, family, t_set),
                ]
                got = [(r.verdict, r.witness) for r in reports]
                assert got == list(map(_verdict, witnesses)), (s.name, t_set.members(), family, target)


def test_per_family_exponents_match_the_public_checks(commutative_entries):
    """On every (family, target) pair ``mccoy_suite`` visits, the per-family
    path finds an exponent exactly where ``is_efficient`` holds, and it is
    the exponent of ``mccoy_exponent``."""
    for s in _covering_structures(commutative_entries):
        lattice = enumerate_ideals(s, TWO_SIDED)
        visited = list(_mccoy_exponents(lattice, 4))
        assert [(f, t) for f, t, _ in visited] == _pairs(lattice, range(3, 5))
        for family, target, exponent in visited:
            assert is_efficient(target, family) == (exponent is not None)
            report = mccoy_exponent(target, family)
            want = ("efficiency", None) if exponent is None else (None, exponent)
            assert (report.violated_hypothesis, report.exponent) == want, (s.name, family, target)
            assert report.verdict == _verdict(exponent)[0]
