"""One function decides the cube budget: ``cube_entries`` is read in
exactly one function of the package, the law driver of ``tables``, so the
choice between one compare over a law's whole cube and the reduced scans on
generators is made in one place. Like ``test_byte_rows_home``, the check
walks syntax trees. A read is charged to its innermost enclosing function,
by qualified name (a lambda counts as part of the function around it), or
to the module outside every function; a ``getattr`` by name is a read, an
assignment is not."""

import ast
from pathlib import Path

import semiringlab

PACKAGE = Path(semiringlab.__file__).parent
BUDGET = "cube_entries"


def _readers(node: ast.AST, scope: str, out: set) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _readers(child, f"{scope}.{child.name}", out)
            continue
        if isinstance(child, ast.Attribute) and child.attr == BUDGET and isinstance(child.ctx, ast.Load):
            out.add(scope)
        elif isinstance(child, ast.Constant) and child.value == BUDGET:
            out.add(scope)
        _readers(child, scope, out)


def budget_readers(sources: dict[str, str]) -> list[str]:
    """The scopes, ``module.function`` or ``module``, that read the budget."""
    out: set = set()
    for module, source in sources.items():
        _readers(ast.parse(source), module, out)
    return sorted(out)


def test_the_check_charges_each_read_to_its_function():
    sources = {
        "tables": "class R:\n    cube_entries = 1\n\ndef f():\n    return R.cube_entries\n",
        "a": (
            "def g():\n    h = lambda: R.cube_entries\n"
            "    def k():\n        return getattr(R, 'cube_entries')\n"
            "x = R.cube_entries\nR.cube_entries = 0\n"
        ),
    }
    assert budget_readers(sources) == ["a", "a.g", "a.g.k", "tables.f"]


def test_only_the_law_driver_reads_the_cube_budget():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert budget_readers(sources) == ["tables._law_witness"]
