"""Tests of the benchmark itself, at reduced input sizes.

    python3 -m pytest -q perfbench

Every declared metric must be emitted with its unit, in both modes, and
every correctness gate must trip when its reference is tampered with.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run(workload, seed=5, seconds=0.1, trace=trace, root=ROOT, small=True)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"], result["notes"]
    assert result["attempted"] >= 1


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One small untraced pass of every workload: (inputs, outputs)."""
    work = tmp_path_factory.mktemp("passes")
    out = {}
    for index, workload in enumerate(workloads.WORKLOADS):
        inputs = run.make_inputs(workload, 11, work, small=True)
        path = work / f"inputs-{index}.json"
        path.write_text(json.dumps({k: v for k, v in inputs.items() if k != "expected"}))
        out[workload] = inputs, run.run_pass(workload, path, ROOT, work, index, cli=workload == "corpus-verify")
    return out


def unexpected(passes, workload, reference=REFERENCE, output=None):
    inputs, out = passes[workload]
    return run.check(workload, reference, inputs, output or out)[2]


def tampered(edit):
    reference = copy.deepcopy(REFERENCE)
    edit(reference)
    return reference


def test_untampered_references_pass(passes):
    for workload in workloads.WORKLOADS:
        assert unexpected(passes, workload) == [], workload


def _first_status(statuses):
    return next(iter(sorted(statuses)))


CORPUS_TAMPERS = {
    "exit code": lambda r: r["corpus-verify"].update(exit_code=1),
    "tallies": lambda r: r["corpus-verify"]["tallies"].update(passed=300),
    "digest": lambda r: r["corpus-verify"].update(digest="0" * 64),
    "statuses": lambda r: r["corpus-verify"]["statuses"].update({_first_status(r["corpus-verify"]["statuses"]): "skip"}),
}


@pytest.mark.parametrize("gate", sorted(CORPUS_TAMPERS))
def test_corpus_verify_gates_trip(passes, gate):
    assert unexpected(passes, "corpus-verify", tampered(CORPUS_TAMPERS[gate]))


def test_generated_suites_status_gate_trips(passes):
    name = workloads.SMALL_POOL[0]

    def edit(r):
        rows = r["generated-suites"]["statuses"][name]
        rows[_first_status(rows)] = "skip"

    assert unexpected(passes, "generated-suites", tampered(edit))


def test_known_failure_is_counted_but_not_unexpected():
    got, want = {"s/mccoy": "fail", "s/laws": "pass"}, {"s/mccoy": "pass", "s/laws": "pass"}
    assert workloads.compare_statuses(got, want, {"s/mccoy": "fail"}) == (["s/mccoy"], [])
    assert workloads.compare_statuses(got, want, {})[1] == ["s/mccoy: fail, expected pass"]


@pytest.mark.parametrize("gate", ["ideals", "primes"])
def test_ladder_count_gates_trip(passes, gate):
    assert unexpected(passes, "lattice-ladder", tampered(lambda r: r["lattice-ladder"][gate].update({"12": 1})))


def test_ladder_non_ideal_gate_trips(passes):
    out = copy.deepcopy(passes["lattice-ladder"][1])
    out["rungs"][0]["non_ideals"] = 1
    assert unexpected(passes, "lattice-ladder", output=out)


def test_ingest_expected_outcome_gate_trips(passes):
    inputs, out = passes["ingest-stream"]
    index = next(i for i, e in enumerate(inputs["expected"]) if e["kind"] == "lawful")
    changed = copy.deepcopy(inputs)
    changed["expected"][index]["flags"] = {**changed["expected"][index]["flags"], "add_medial": False}
    assert run.check("ingest-stream", REFERENCE, changed, out)[2]


def test_ingest_known_failure_gate_trips(passes):
    assert unexpected(passes, "ingest-stream", tampered(lambda r: r["known_failures"]["ingest-stream"].pop("add-scalar")))


def test_ingest_known_defects_are_counted():
    """Each block carries its share of the known malformed documents, so
    every seed and size shows them."""
    block = [kind for kind in workloads.BLOCK if kind == "malformed"]
    labels = list(workloads.MALFORMED)
    known = REFERENCE["known_failures"]["ingest-stream"]
    per_pass = sum(labels[k % len(labels)] in known for k in range(len(block) * workloads.BLOCKS))
    assert per_pass == 28


def test_tail_percentile():
    assert run.tail(list(range(1, 401))) == (95, 380)
    assert run.tail([5.0, 1.0, 3.0]) == (100.0, 5.0)


def test_tracer_binds_one_wrapper_everywhere(tmp_path):
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import semiringlab, semiringlab.cli, semiringlab.suites
covering, ideals, suites, tables = (sys.modules[f"semiringlab.{m}"] for m in ("covering", "ideals", "suites", "tables"))
from tracing import Tracer
original = tables.check_laws
Tracer().install()
assert covering.is_subtractive is ideals.is_subtractive is suites.is_subtractive
assert semiringlab.check_laws is tables.check_laws is not original
assert tables.check_laws.__wrapped__ is original
assert dict(suites.SUITES)["ringoid-avoidance"] is suites.ringoid_avoidance
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", script, str(HERE)], env=env, check=True, timeout=60)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "corpus-verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
