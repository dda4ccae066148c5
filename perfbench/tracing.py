"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each function listed in ``TRACED`` with a
wrapper at every place a ``semiringlab`` module binds it, so a call through
``covering.is_subtractive`` is recorded like one through
``ideals.is_subtractive``. Each call becomes a span (name, start, end,
parent). Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "semiringlab"

SUITES = (
    "laws_suite",
    "ideal_suite",
    "krull_suite",
    "ringoid_avoidance",
    "semiring_avoidance_exhaustive",
    "corollary_avoidance",
    "mccoy_suite",
    "packed_suite",
    "zdiv_suite",
    "quotient_suite",
    "monoid_slice_suite",
    "endomorphism_suite",
    "product_flag_suite",
    "hemialgebra_suite",
    "austere_suite",
)

TRACED = {
    "tables": ("check_laws", "semimodule_check"),
    "constructions": ("direct_product", "endomorphism_ringoid", "medial_witness"),
    "ideals": (
        "ideal_masks",
        "close_mask",
        "is_subtractive",
        "is_prime",
        "classify_ideal",
        "radical",
        "brute_force_ideal_masks",
    ),
    "spectrum": ("spec_of", "compactly_packed_battery", "zariski_axioms"),
    "covering": (
        "union_avoidance_suite",
        "t_semiprime_avoidance",
        "avoidance_witness",
        "semiring_avoidance",
        "mccoy_exponent",
    ),
    "zerodivisors": ("total_quotient", "zero_divisor_report", "kasch_semilocal_report", "monoid_zd_check"),
    "suites": SUITES,
    "fileio": ("ingest",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1  # innermost open span
        self.hits: Counter = Counter()  # lru_cache hits, from cache_info() deltas
        self.returned: Counter = Counter()  # sizes of results computed on a cache miss
        self.raised: dict = defaultdict(Counter)  # exception type names per function
        self.keys: dict = defaultdict(set)  # distinct (structure, mask) arguments
        self._alive: dict = {}  # keeps keyed structures alive so their ids stay unique

    def _enter(self, name_id: int) -> int:
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.current)
        self.span_end.append(0.0)
        self.current = span
        self.span_start.append(perf_counter())
        return span

    def _exit(self, span: int) -> None:
        self.span_end[span] = perf_counter()
        self.current = self.span_parent[span]

    def _consume(self, name_id: int, gen):
        """Time a generator's consumption, not its creation. Exceptions pass
        through unchanged, so suite guards still see them."""
        span = self._enter(name_id)
        try:
            yield from gen
        finally:
            self._exit(span)

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self._consume(name_id, fn(*args, **kwargs))

            return traced_gen

        cache_info = getattr(fn, "cache_info", None)
        keyed = name == "ideals.is_subtractive"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            span = self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name][type(exc).__name__] += 1
                raise
            finally:
                self._exit(span)
            if cache_info:
                if cache_info().hits > hits:
                    self.hits[name] += 1
                elif isinstance(result, tuple):
                    self.returned[name] += len(result)
            if keyed:
                ideal = args[0] if args else kwargs["ideal"]
                self.keys[name].add((id(ideal.structure), ideal.mask))
                self._alive[id(ideal.structure)] = ideal.structure
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a loaded module binds it."""
        wrappers = {}
        for module, functions in TRACED.items():
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for function in functions:
                original = getattr(mod, function)
                wrappers[id(original)] = (original, self.wrap(f"{module}.{function}", original))
        for module_name, mod in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                found = wrappers.get(id(value))
                if found and found[0] is value:
                    setattr(mod, attr, found[1])
        # The suite table holds its own references. Binding the same wrapper
        # there keeps ``suite is ringoid_avoidance`` true in run_entry_suites,
        # which is how that suite gets its seed.
        suites = sys.modules[f"{PACKAGE}.suites"]
        suites.SUITES = tuple(
            (label, wrappers[id(fn)][1] if id(fn) in wrappers else fn) for label, fn in suites.SUITES
        )

    def dump(self, path: str) -> None:
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "hits": dict(self.hits),
            "returned": dict(self.returned),
            "raised": {name: dict(counts) for name, counts in self.raised.items()},
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def layer_metrics(trace: dict, scale: float = 1.0) -> dict:
    """Per-function calls and self time, cache and redundancy ratios, and
    self time summed per module. Self time is a span's duration minus the
    time its child spans cover, times ``scale``."""
    names, name, parent = trace["names"], trace["name"], trace["parent"]
    n = len(name)
    duration = [end - start for start, end in zip(trace["start"], trace["end"])]
    covered = [0.0] * n
    for span in range(n):
        if parent[span] >= 0:
            covered[parent[span]] += duration[span]
    calls, self_s = Counter(), defaultdict(float)
    for span in range(n):
        calls[names[name[span]]] += 1
        self_s[names[name[span]]] += (duration[span] - covered[span]) * scale

    # close_mask calls made anywhere below an ideal_masks span
    ideal_masks, close_mask = names.index("ideals.ideal_masks"), names.index("ideals.close_mask")
    inside = [False] * n
    closures = 0
    for span in range(n):
        up = parent[span]
        inside[span] = up >= 0 and (name[up] == ideal_masks or inside[up])
        closures += name[span] == close_mask and inside[span]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for module, functions in TRACED.items():
        for function in functions:
            full = f"{module}.{function}"
            out[f"{full}.calls"] = calls[full]
            out[f"{full}.self_s"] = self_s[full]
        out[f"{module}.self_s"] = sum(self_s[f"{module}.{f}"] for f in functions)
    for full in ("tables.check_laws", "ideals.ideal_masks"):
        out[f"{full}.hit_ratio"] = ratio(trace["hits"].get(full, 0), calls[full])
    out["ideals.is_subtractive.distinct_ratio"] = ratio(
        trace["distinct"].get("ideals.is_subtractive", 0), calls["ideals.is_subtractive"]
    )
    out["ideals.closures_per_ideal"] = ratio(closures, trace["returned"].get("ideals.ideal_masks", 0))
    raised = trace["raised"].get("fileio.ingest", {})
    out["fileio.rejected"] = raised.get("StructureError", 0)
    out["fileio.crashed"] = sum(count for kind, count in raised.items() if kind != "StructureError")
    out["trace.spans"] = n
    return out
