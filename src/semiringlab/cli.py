"""Command line workbench.

Structure references are corpus names or paths to structure files. Reports
are JSON with sorted keys and no timestamps, so identical jobs produce
byte-identical output; timing is opt-in and goes to stderr.

Each ``cmd_*`` function returns its report. ``main`` alone prints it, times
the command for ``--timing`` and picks the exit code: 0 success, 1 a theorem
violation or a failed check, 2 input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Mapping, Optional, Sequence

from . import analysis
from .corpus import corpus, corpus_entry, corpus_names, corpus_semimodules
from .covering import (
    avoidance_witness,
    davis_witness,
    is_efficient,
    mccoy_exponent,
    semiring_avoidance,
    t_semiprime_avoidance,
    union_avoidance_suite,
)
from .errors import CapExceeded, StructureError, TheoremViolation
from .fileio import ingest, structure_to_json
from .ideals import (
    TWO_SIDED,
    _FLAGS,
    classify_ideal,
    enumerate_ideals,
    generate_ideal,
    mult_closure,
)
from .spectrum import compactly_packed_battery, spec_of
from .suites import FAIL, PASS, verify_all
from .tables import CLASS_NAMES, LAW_NAMES, CayleyStructure, check_laws, claim_holds, self_action
from .zerodivisors import (
    kasch_semilocal_report,
    monoid_zd_check,
    total_quotient,
    zero_divisor_report,
)

REPORT_VERSION = 1


def _resolve(ref: str) -> CayleyStructure:
    if ref in corpus_names():
        return corpus_entry(ref).structure
    loaded = ingest(ref)
    return loaded if isinstance(loaded, CayleyStructure) else loaded.semiring


def _parse_gens(text: str) -> list[int]:
    """The comma-separated integers of ``text``; the library checks each is an element."""
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _target_and_covers(s: CayleyStructure, args) -> tuple[list, list]:
    """The generator lists of ``--target`` and of each ``--cover``, and the
    ideals they generate; each list is parsed, then generated, in turn."""
    gens, ideals = [], []
    for text in (args.target, *args.cover):
        gens.append(_parse_gens(text))
        ideals.append(generate_ideal(s, gens[-1]))
    return gens, ideals


def _emit(doc: dict, as_json: bool) -> None:
    doc = {"report_version": REPORT_VERSION, **doc}
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
        return
    for line in _render(doc):
        print(line)


def _render(doc, prefix="") -> list[str]:
    lines = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{prefix}{key}:")
                lines.extend(_render(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {value}")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                lines.extend(_render(value, prefix + "  "))
            else:
                lines.append(f"{prefix}- {value}")
    return lines


def _job(args, **fields) -> dict:
    """A report's ``job`` block: the command, its structure when it takes
    one, and the command's own ``fields``."""
    job = {"command": args.command, **fields}
    if "structure" in args:
        job["structure"] = args.structure
    return job


def cmd_laws(args) -> dict:
    s = _resolve(args.structure)
    rep = check_laws(s)
    return {
        "job": _job(args),
        "flags": {law: rep.flag(law) for law in LAW_NAMES},
        "witnesses": {k: list(v) for k, v in sorted(rep.witnesses.items())},
        "zero": rep.zero,
        "one": rep.one,
        "classes": {name: claim_holds(s, name) for name in CLASS_NAMES},
    }


def cmd_ideals(args) -> dict:
    s = _resolve(args.structure)
    rows = []
    for ideal in enumerate_ideals(s, args.side):
        row = {"members": list(ideal.members())}
        if args.side == TWO_SIDED:
            cls = classify_ideal(ideal)
            row.update({flag: getattr(cls, flag) for flag in _FLAGS})
        rows.append(row)
    return {"job": _job(args, side=args.side), "ideals": rows}


def cmd_spec(args) -> dict:
    s = _resolve(args.structure)
    return {"job": _job(args), "primes": [list(p.members()) for p in spec_of(s)]}


def cmd_packed(args) -> dict:
    s = _resolve(args.structure)
    battery = compactly_packed_battery(s)
    return {
        "job": _job(args),
        "primes": [list(p.members()) for p in battery.primes],
        "weak_gaussian": battery.weak_gaussian,
        "compactly_packed": battery.compactly_packed,
        "equivalence_table": battery.equivalence_table,
        "radical_principal_map": {
            str(list(k)): v for k, v in sorted(battery.radical_principal_map.items())
        },
    }


def cmd_avoid(args) -> dict:
    for flag, value, mode in (("--t-set", args.t_set, "t-semiprime"), ("--element", args.element, "davis")):
        if value is not None and args.mode != mode:
            raise StructureError(f"{flag} applies to {mode} mode only, not to {args.mode} mode")
    s = _resolve(args.structure)
    (target_gens, *cover_gens), (target, *covers) = _target_and_covers(s, args)
    if args.mode == "ringoid":
        report = avoidance_witness(target, covers)
    elif args.mode == "semiring":
        report = semiring_avoidance(target, covers)
    elif args.mode in ("radical", "semiprime"):
        report = union_avoidance_suite(target, covers, args.mode)
    elif args.mode == "t-semiprime":
        t_set = mult_closure(s, _parse_gens(args.t_set or ""))
        report = t_semiprime_avoidance(target, covers, t_set)
    else:  # davis
        if args.element is None:
            raise StructureError("davis mode needs --element")
        report = davis_witness(args.element, target, covers)
    return {
        "job": _job(args, mode=args.mode, target=target_gens, covers=cover_gens),
        "verdict": report.verdict,
        "witness": report.witness if not isinstance(report.witness, tuple) else list(report.witness),
        "violated_hypothesis": report.violated_hypothesis,
        "details": _plain(report.details),
    }


def cmd_mccoy(args) -> dict:
    s = _resolve(args.structure)
    (target_gens, *cover_gens), (target, *covers) = _target_and_covers(s, args)
    report = mccoy_exponent(target, covers)
    return {
        "job": _job(args, target=target_gens, covers=cover_gens),
        "efficient": is_efficient(target, covers),
        "verdict": report.verdict,
        "exponent": report.exponent,
        "violated_hypothesis": report.violated_hypothesis,
        "details": _plain(report.details),
    }


def cmd_zdiv(args) -> dict:
    s = _resolve(args.structure)
    m = self_action(s)
    slice_report = None if args.degree_cap is None else monoid_zd_check(s, m, args.degree_cap)
    report = zero_divisor_report(s, m)
    doc = {
        "job": _job(args, degree_cap=args.degree_cap),
        "zero_divisors": list(report.zset),
        "radical_decomposition": [
            {"element": x, "radical": list(r)} for x, r in report.radical_decomposition
        ],
        "associated_primes": [
            {"element": x, "annihilator": list(a)} for x, a in report.ass
        ],
        "very_few": report.very_few,
        "few": report.few,
        "property_a": report.property_a,
    }
    if slice_report is not None:
        doc["slice"] = {
            "verdict": slice_report.verdict,
            "violated_hypothesis": slice_report.violated_hypothesis,
            "tallies": _plain(slice_report.details),
        }
    return doc


def cmd_quotient(args) -> dict:
    s = _resolve(args.structure)
    q = total_quotient(s)
    report = kasch_semilocal_report(q)
    return {
        "job": _job(args),
        "size": q.structure.size,
        "canonical_map": list(q.canonical),
        "maximal_ideals": [list(m.members()) for m in q.maximal_ideals],
        "kasch": report.kasch,
        "semilocal": report.semilocal,
        "very_few": report.very_few,
        "few_zero_divisors": report.few_zero_divisors,
        "decomposition": [list(p.members()) for p in report.decomposition],
    }


def cmd_verify_all(args) -> dict:
    scope = None if args.scope is None else [n for n in args.scope.split(",") if n]
    if scope is not None:
        if not scope:
            raise StructureError(f"--scope {args.scope!r} names no corpus entry")
        known = set(corpus_names())
        unknown = [name for name in scope if name not in known]
        if unknown:
            raise StructureError(f"unknown corpus entries {unknown}")
    results = sorted(verify_all(scope=scope, seed=args.seed), key=lambda r: r.name)
    tallies = {"checks": len(results), "passed": 0, "failed": 0, "skipped": 0}
    for r in results:
        tallies["passed" if r.status == PASS else "failed" if r.status == FAIL else "skipped"] += 1
    return {
        "job": _job(args, scope=sorted(scope) if scope else None, seed=args.seed),
        "tallies": tallies,
        "results": [{"check": r.name, "status": r.status, "detail": r.detail} for r in results],
    }


def cmd_ingest(args) -> dict:
    loaded = ingest(args.path)
    s = loaded if isinstance(loaded, CayleyStructure) else loaded.semiring
    return {
        "job": _job(args, path=args.path),
        "loaded": structure_to_json(s),
        "kind": "structure" if isinstance(loaded, CayleyStructure) else "semimodule",
    }


def cmd_corpus(args) -> dict:
    rows = [
        {
            "name": entry.name,
            "size": entry.structure.size,
            "claims": list(entry.claims),
            "flags": dict(sorted(entry.flags.items())),
            "modules": sorted(corpus_semimodules(entry)),
            "doc": entry.doc,
        }
        for entry in corpus()
    ]
    return {"job": _job(args), "entries": rows}


def _plain(value):
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="semiringlab",
        description="finite semiring workbench: laws, ideals, spectra, coverings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, structure=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        if structure:
            p.add_argument("structure")
        p.set_defaults(func=func)
        return p

    command("laws", cmd_laws, "check every law of a structure")
    p = command("ideals", cmd_ideals, "enumerate and classify ideals")
    p.add_argument("--side", choices=["left", "right", TWO_SIDED], default=TWO_SIDED)
    command("spec", cmd_spec, "prime spectrum")
    command("packed", cmd_packed, "compactly packed battery")

    p = command("avoid", cmd_avoid, "avoidance and covering checks")
    p.add_argument("--target", required=True, help="comma separated generator indices")
    p.add_argument("--cover", action="append", required=True, help="generators; repeatable")
    p.add_argument(
        "--mode",
        choices=["ringoid", "semiring", "radical", "semiprime", "t-semiprime", "davis"],
        default="semiring",
    )
    p.add_argument("--t-set", help="generators of the multiplicative set")
    p.add_argument("--element", type=int, help="element x for davis mode")

    p = command("mccoy", cmd_mccoy, "exponent for an efficient covering")
    p.add_argument("--target", required=True)
    p.add_argument("--cover", action="append", required=True)

    p = command("zdiv", cmd_zdiv, "zero-divisor report for the self action")
    p.add_argument(
        "--degree-cap",
        type=int,
        default=None,
        help="also check the monoid zero-divisor decomposition on polynomials of degree at most this",
    )
    command("quotient", cmd_quotient, "total quotient semiring report")

    p = command("verify-all", cmd_verify_all, "run every theorem suite", structure=False)
    p.add_argument("--scope", help="comma separated corpus names")
    p.add_argument("--seed", type=int, default=0, help="seed for sum-tree sampling")
    p.add_argument(
        "--timing",
        action="store_true",
        help="print elapsed time, analysis contexts created, facts computed and reads reused to stderr",
    )

    command("ingest", cmd_ingest, "load and verify a structure file", structure=False).add_argument("path")
    command("corpus", cmd_corpus, "list built-in structures", structure=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: print its report, and with ``--timing`` the time it
    took and the analysis counts on stderr; return the exit code."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        doc = args.func(args)
        elapsed = time.perf_counter() - started
        _emit(doc, args.json)
        if getattr(args, "timing", False):
            filled, reused = map(sum, zip(*analysis.counts().values()))
            print(
                f"elapsed: {elapsed:.2f}s; analysis: {analysis.context_count()} contexts, "
                f"{filled} facts computed, {reused} reads reused",
                file=sys.stderr,
            )
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (StructureError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    # a report that tallies its checks fails when one of them failed
    return 1 if doc.get("tallies", {}).get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
