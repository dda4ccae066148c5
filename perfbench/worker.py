"""One pass of one workload, in the fresh interpreter that runs this file.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py WORKLOAD INPUTS OUT [SPANS]

``setup`` prints the seconds taken to import ``semiringlab`` and build the
corpus, in CPU time. Otherwise the worker reads its inputs, runs each
operation of the workload and writes, for each, its start and end on the
monotonic clock and the CPU seconds it took, with the outputs, to OUT as
JSON. CPU time leaves out the slices the runner's speed probe takes. With SPANS
it traces the pass and writes the spans there. Outputs are collected after
the timed region and checked by ``run.py``.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter, process_time

from workloads import LAW_NAMES


def setup() -> None:
    start = process_time()
    import semiringlab

    semiringlab.corpus()
    print(repr(process_time() - start))


def _structure(doc):
    from semiringlab import CayleyStructure

    return CayleyStructure(
        size=doc["size"], add=doc["add"], mul=doc["mul"], zero=doc["zero"], one=doc["one"], name=doc["name"]
    )


def corpus_verify(inputs: dict):
    """The ``verify-all --json`` command, in process, as one operation."""
    from semiringlab.cli import main

    buffer = io.StringIO()
    out: dict = {}

    def op():
        with redirect_stdout(buffer):
            out["exit_code"] = main(["verify-all", "--json", "--seed", str(inputs["seed"])])

    def finish():
        out["report"] = buffer.getvalue()
        return out

    return [op], finish


def generated_suites(inputs: dict):
    """Every per-entry suite on each structure; one structure per operation."""
    from semiringlab.corpus import CorpusEntry
    from semiringlab.suites import run_entry_suites

    entries = [
        CorpusEntry(name=doc["name"], structure=_structure(doc), claims=("ringoid", "semiring"))
        for doc in inputs["structures"]
    ]
    runs = []

    def op(entry):
        try:
            runs.append({"name": entry.name, "rows": run_entry_suites(entry, inputs["seed"])})
        except Exception as exc:  # an unexpected exception fails this operation only
            runs.append({"name": entry.name, "error": repr(exc)})

    def finish():
        for run in runs:
            if "rows" in run:
                run["rows"] = {r.name: r.status for r in run["rows"]}
        return {"structures": runs}

    return [lambda entry=entry: op(entry) for entry in entries], finish


def lattice_ladder(inputs: dict):
    """What the ``laws``, ``ideals``, ``spec``, ``packed``, ``zdiv`` and
    ``quotient`` commands compute, one structure per operation."""
    from semiringlab import (
        check_laws,
        classify_ideal,
        compactly_packed_battery,
        enumerate_ideals,
        kasch_semilocal_report,
        self_action,
        spec_of,
        total_quotient,
        zero_divisor_report,
    )
    from semiringlab.ideals import ideal_violation

    structures = [_structure(doc) for doc in inputs["structures"]]
    rungs = []

    def op(s):
        try:
            check_laws(s)
            ideals = enumerate_ideals(s)
            for ideal in ideals:
                classify_ideal(ideal)
            primes = spec_of(s)
            compactly_packed_battery(s)
            zero_divisor_report(s, self_action(s))
            kasch_semilocal_report(total_quotient(s))
        except Exception as exc:  # an unexpected exception fails this operation only
            rungs.append({"size": s.size, "error": repr(exc)})
            return
        rungs.append({"size": s.size, "ideals": ideals, "primes": len(primes)})

    def finish():
        for rung in rungs:
            if "ideals" in rung:
                ideals = rung["ideals"]
                rung["non_ideals"] = sum(ideal_violation(i.structure, i.mask, i.side) is not None for i in ideals)
                rung["ideals"] = len(ideals)
        return {"rungs": rungs}

    return [lambda s=s: op(s) for s in structures], finish


def ingest_stream(inputs: dict):
    """``semiringlab laws FILE`` on each document: load and verify the file,
    then check every law."""
    from semiringlab import CayleyStructure, StructureError, check_laws, ingest

    outcomes = []

    def op(path):
        try:
            loaded = ingest(path)
            s = loaded if isinstance(loaded, CayleyStructure) else loaded.semiring
            outcomes.append(check_laws(s))
        except StructureError:
            outcomes.append({"outcome": "rejected"})
        except Exception as exc:  # a crash fails this document only
            outcomes.append({"outcome": "crashed", "error": type(exc).__name__})

    def finish():
        docs = []
        for rep in outcomes:
            if not isinstance(rep, dict):
                flags = {law: rep.flag(law) for law in LAW_NAMES}
                rep = {"outcome": "accepted", "flags": flags, "zero": rep.zero, "one": rep.one}
            docs.append(rep)
        return {"docs": docs}

    return [lambda path=path: op(path) for path in inputs["paths"]], finish


WORKLOADS = {
    "corpus-verify": corpus_verify,
    "generated-suites": generated_suites,
    "lattice-ladder": lattice_ladder,
    "ingest-stream": ingest_stream,
}


def main(argv: list[str]) -> int:
    if argv == ["setup"]:
        setup()
        return 0
    workload, inputs_path, out_path, *spans_path = argv
    with open(inputs_path) as f:
        inputs = json.load(f)
    import semiringlab.cli  # noqa: F401  (load every module before tracing patches them)
    import semiringlab.suites  # noqa: F401

    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops, finish = WORKLOADS[workload](inputs)
    timings = []
    for op in ops:
        begin, cpu = perf_counter(), process_time()
        op()
        timings.append((begin, perf_counter(), process_time() - cpu))
    if tracer:
        tracer.dump(spans_path[0])
    out = finish()
    out["ops"] = timings
    with open(out_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
