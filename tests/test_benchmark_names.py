"""Every package name that the benchmark harness reads still resolves.

``perfbench/tracing.py`` wraps each (module, name) pair of ``TRACED`` by
``getattr`` when a pass is traced, and ``perfbench/worker.py`` imports its
operations from ``semiringlab``; a name that either loses would only crash
a benchmark run. The harness is read here, never installed or run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(f"{tracing.PACKAGE}.{module}", name) for module, names in tracing.TRACED.items() for name in names]


def _worker_imports() -> list[tuple[str, str]]:
    """Each (module, name) the worker imports from the package, or reads as
    an attribute of ``semiringlab``; a module imported whole has name None."""
    found = []
    for node in ast.walk(ast.parse((PERFBENCH / "worker.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "semiringlab":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "semiringlab")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "semiringlab":
            found.append(("semiringlab", node.attr))
    return sorted(set(found), key=str)


def test_the_scan_finds_each_way_the_worker_reads_the_package():
    found = set(_worker_imports())
    assert {("semiringlab", None), ("semiringlab", "corpus"), ("semiringlab.cli", "main")} <= found


@pytest.mark.parametrize("module, name", _traced() + _worker_imports())
def test_a_name_the_harness_reads_resolves(module, name):
    mod = importlib.import_module(module)
    if name is not None:
        assert hasattr(mod, name), f"{module}.{name}"
