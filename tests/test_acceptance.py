"""Acceptance criteria, one test each, with one printed verdict line apiece.

Everything here is exact: the checks are golden values and finite exhaustive
properties, so no tolerances apply beyond the stated wall-clock bound on the
cross-product golden.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semiringlab
from semiringlab.cli import main
from semiringlab.corpus import corpus, corpus_entry, corpus_semimodules, saturating
from semiringlab.covering import mccoy_exponent, semiring_avoidance
from semiringlab.errors import TheoremViolation
from semiringlab.fileio import structure_to_json
from semiringlab.ideals import (
    IdealSet,
    TWO_SIDED,
    enumerate_ideals,
    generate_ideal,
    ideal_masks,
    is_prime,
    is_subtractive,
)
from semiringlab.spectrum import compactly_packed_battery
from semiringlab.suites import (
    FAIL,
    mccoy_suite,
    ringoid_avoidance,
    semiring_avoidance_exhaustive,
)
from semiringlab.tables import check_laws, self_action
from semiringlab.zerodivisors import (
    ass_primes,
    kasch_semilocal_report,
    monoid_zd_check,
    total_quotient,
    zero_divisor_mask,
    zero_divisor_report,
)


def _verdict(number, ok, detail=""):
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_cross_product_golden():
    cross = corpus_entry("bool3-cross").structure
    i, j = 4, 2  # first and second basis vectors
    started = time.perf_counter()
    left_nested = cross.mul[cross.mul[i][j]][j]
    right_nested = cross.mul[i][cross.mul[j][j]]
    elapsed = time.perf_counter() - started
    ok = left_nested == i and right_nested == cross.zero and elapsed < 0.001
    _verdict(1, ok, f"(ixj)xj={left_nested} ix(jxj)={right_nested} in {elapsed*1e6:.0f}us")


def test_criterion_02_austere_counterexample_golden():
    entry = corpus_entry("austere-z6")
    s = entry.structure
    target = generate_ideal(s, entry.ideals["I"])
    m1 = generate_ideal(s, entry.ideals["M1"])
    m2 = generate_ideal(s, entry.ideals["M2"])
    checks = [
        is_prime(m1)[0],
        is_prime(m2)[0],
        not is_subtractive(m1)[0],
        not is_subtractive(m2)[0],
        target.mask & ~(m1.mask | m2.mask) == 0,
        not target.issubset(m1),
        not target.issubset(m2),
    ]
    report = semiring_avoidance(target, [m1, m2])
    checks.append(report.verdict == "fails")
    checks.append(report.violated_hypothesis == "subtractivity")
    _verdict(2, all(checks), f"verdict={report.verdict}/{report.violated_hypothesis}")


def test_criterion_03_prime_criteria_agree():
    disagreements = 0
    ideals_checked = 0
    for entry in corpus():
        s = entry.structure
        if not check_laws(s).is_semiring or s.size > 8:
            continue
        for m in ideal_masks(s, TWO_SIDED):
            ideal = IdealSet(structure=s, side=TWO_SIDED, mask=m)
            if not ideal.is_proper:
                continue
            try:
                is_prime(ideal)  # asserts the two criteria agree internally
            except TheoremViolation:
                disagreements += 1
            ideals_checked += 1
    _verdict(3, disagreements == 0, f"{ideals_checked} proper ideals, {disagreements} disagreements")


def test_criterion_04_ringoid_avoidance():
    failures = []
    pairs = 0
    for entry in corpus():
        for result in ringoid_avoidance(entry, seed=0):
            if result.status == FAIL:
                failures.append(result)
            else:
                pairs += int(result.detail.split()[0]) if result.detail else 0
    _verdict(4, not failures, f"{pairs} (ideal, family) pairs, both routes")


def test_criterion_05_semiring_avoidance_exhaustive():
    failures = []
    total = 0
    for entry in corpus():
        for result in semiring_avoidance_exhaustive(entry):
            if result.status == FAIL:
                failures.append(result)
            elif result.detail:
                total += int(result.detail.split()[0])
    _verdict(5, not failures, f"{total} coverings resolved")


def test_criterion_06_mccoy_exponents():
    s = corpus_entry("f2xy").structure
    target = generate_ideal(s, [1, 2])
    lines = [generate_ideal(s, [g]) for g in (2, 1, 3)]
    report = mccoy_exponent(target, lines)
    golden_ok = report.holds and report.exponent == 2
    failures = []
    found = 0
    for entry in corpus():
        for result in mccoy_suite(entry):
            if result.status == FAIL:
                failures.append(result)
            elif result.detail:
                found += int(result.detail.split()[0])
    _verdict(6, golden_ok and not failures, f"golden k=2, {found} efficient coverings corpus-wide")


def test_criterion_07_packed_battery():
    problems = []
    for entry in corpus():
        s = entry.structure
        if not check_laws(s).is_commutative_semiring:
            continue
        battery = compactly_packed_battery(s)  # asserts agreement internally
        if len(set(battery.equivalence_table.values())) != 1:
            problems.append(entry.name)
    chain_packed = compactly_packed_battery(corpus_entry("chain-3").structure).compactly_packed
    lattice_packed = compactly_packed_battery(corpus_entry("lattice-4").structure).compactly_packed
    ok = not problems and chain_packed and lattice_packed
    _verdict(7, ok, f"chain-3 packed={chain_packed}, lattice-4 packed={lattice_packed}")


def test_criterion_08_zero_divisor_decomposition():
    from semiringlab.ideals import annihilator, radical

    modules = 0
    for entry in corpus():
        s = entry.structure
        if not check_laws(s).is_commutative_semiring:
            continue
        for name, m in sorted(corpus_semimodules(entry).items()):
            report = zero_divisor_report(s, m)  # asserts the decomposition
            assert report.very_few
            z = zero_divisor_mask(m)
            union = 0
            for x in range(m.msize):
                if x != m.mzero:
                    union |= radical(annihilator(m, [x])).mask
            assert union == z
            primes = [ann for _, ann in ass_primes(m)]
            for i in enumerate_ideals(s):
                if i.mask & ~z == 0:
                    assert any(i.issubset(p) for p in primes)
            modules += 1
    _verdict(8, True, f"{modules} semimodules")


def test_criterion_09_quotient_suite():
    from semiringlab.zerodivisors import annihilator_extension_check, few_zero_divisors

    entries = 0
    for entry in corpus():
        s = entry.structure
        if not check_laws(s).is_commutative_semiring:
            continue
        q = total_quotient(s)
        report = kasch_semilocal_report(q)
        assert report.kasch and report.semilocal and report.very_few
        few, decomposition = few_zero_divisors(s)
        assert few
        assert {q.extend(p).mask for p in decomposition} == {
            m.mask for m in q.maximal_ideals
        }
        assert all(annihilator_extension_check(q, x) for x in range(s.size))
        entries += 1
    _verdict(9, True, f"{entries} commutative entries")


def test_criterion_10_monoid_slices():
    # degree zero must reduce to the zero-divisor report everywhere
    reduced = 0
    for entry in corpus():
        s = entry.structure
        if not check_laws(s).is_commutative_semiring:
            continue
        m = self_action(s)
        report = monoid_zd_check(s, m, 0)
        if report.verdict == "hypotheses_unmet":
            continue
        z = zero_divisor_mask(m)
        t = report.details
        assert t["sup_checked"] == bin(z).count("1")
        assert t["sup_witnessed"] == t["sup_checked"]
        assert t["sub_violations"] == 0
        reduced += 1

    t3 = corpus_entry("chain-3").structure
    report = monoid_zd_check(t3, self_action(t3), 2)
    tallies = report.details
    full_coverage = tallies["sup_witnessed"] == tallies["sup_checked"] == 8
    no_violations = tallies["sub_violations"] == 0
    witness_or_inconclusive = (
        tallies["sub_witnessed"] + tallies["sub_inconclusive"] + tallies["sup_checked"]
        >= tallies["slice_size"]
    )
    ok = report.holds and full_coverage and no_violations and witness_or_inconclusive
    _verdict(10, ok, f"d=0 on {reduced} entries; d=2 tallies {tallies}")


def test_criterion_11_determinism(capsys):
    code_a = main(["verify-all", "--scope", "chain-3,boolean,bool2", "--json", "--seed", "7"])
    out_a = capsys.readouterr().out
    code_b = main(["verify-all", "--scope", "chain-3,boolean,bool2", "--json", "--seed", "7"])
    out_b = capsys.readouterr().out
    ok = code_a == code_b == 0 and out_a == out_b and json.loads(out_a)["tallies"]["failed"] == 0
    _verdict(11, ok, f"{len(out_a)} bytes, identical")


def test_criterion_12_full_verify_all(capsys):
    code = main(["verify-all", "--json"])
    doc = json.loads(capsys.readouterr().out)
    skipped = [row["check"] for row in doc["results"] if row["status"] == "skip"]
    ok = (
        code == 0
        and doc["tallies"] == {"checks": 302, "passed": 301, "failed": 0, "skipped": 1}
        and skipped == ["austere-z6/monoid-slices-d0/self"]
    )
    _verdict(12, ok, f"tallies {doc['tallies']}, skipped {skipped}")


VERIFY_ALL_SEED_0_SHA256 = "8c89c638da2f35ff735dcd38e524dc2c1cd3533de39edf26aa4b8f9d29c2659a"


def test_verify_all_json_is_byte_identical(capsys):
    """The full ``verify-all --json --seed 0`` report, pinned byte for byte."""
    code = main(["verify-all", "--json", "--seed", "0"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert code == 0
    assert digest == VERIFY_ALL_SEED_0_SHA256


def test_verify_all_json_is_byte_identical_under_python_O():
    """The same report from a fresh interpreter run with ``-O``, which
    strips ``assert`` statements: every theorem check must still run."""
    src = str(Path(semiringlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-O", "-m", "semiringlab", "verify-all", "--json", "--seed", "0"],
        capture_output=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == VERIFY_ALL_SEED_0_SHA256


SATURATING_16_SHA256 = {
    "ideals": "c6f02f9bb16d20bf7d6c9bc8fdfe9e5c39df488be55d6eb48bb78c846b14d07e",
    "quotient": "5843ff92f53b9fe752194a9c4503b7df9c33d175803443cc1dd8738a152dff85",
    "zdiv": "27f83812314f54b31c874d3c4073bb2b0d0619fd7f1c6af4b3beba945534a034",
    "packed": "e265464911b2962774a6ace32a4b4f109115494e6ef5fe93bad4490081146311",
}


@pytest.mark.parametrize("command", sorted(SATURATING_16_SHA256))
def test_saturating_16_json_is_byte_identical(command, tmp_path, monkeypatch, capsys):
    """``ideals`` (every classification flag), ``quotient``, ``zdiv`` and
    ``packed`` on the 16-element saturating semiring, pinned byte for byte.
    The report echoes the file argument, so the file is named relative to
    the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "saturating-16.json").write_text(json.dumps(structure_to_json(saturating(15))))
    code = main([command, "saturating-16.json", "--json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert code == 0
    assert digest == SATURATING_16_SHA256[command]
