"""One guard checks every integer taken from outside: ``_is_index`` (an int
that is not a bool) is read in exactly two functions of the package, the
guard ``_int_in`` and the table check ``freeze_table``, both in ``tables``,
so a new copy of the rule "an int, not a bool, inside low..high-1" fails
here. Like ``test_budget_home``, the check walks syntax trees. A read is
charged to its innermost enclosing function, by qualified name (a lambda
counts as part of the function around it), or to the module outside every
function; importing the name counts as a read, and so does a ``getattr``
by name."""

import ast
from pathlib import Path

import semiringlab

PACKAGE = Path(semiringlab.__file__).parent
RULE = "_is_index"


def _readers(node: ast.AST, scope: str, out: set) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _readers(child, f"{scope}.{child.name}", out)
            continue
        if (
            isinstance(child, ast.Name) and child.id == RULE and isinstance(child.ctx, ast.Load)
            or isinstance(child, ast.Attribute) and child.attr == RULE and isinstance(child.ctx, ast.Load)
            or isinstance(child, ast.ImportFrom) and any(alias.name == RULE for alias in child.names)
            or isinstance(child, ast.Constant) and child.value == RULE
        ):
            out.add(scope)
        _readers(child, scope, out)


def rule_readers(sources: dict[str, str]) -> list[str]:
    """The scopes, ``module.function`` or ``module``, that read the rule."""
    out: set = set()
    for module, source in sources.items():
        _readers(ast.parse(source), module, out)
    return sorted(out)


def test_the_check_charges_each_read_to_its_function():
    sources = {
        "tables": "def _is_index(v):\n    return True\n\ndef f(v):\n    return _is_index(v)\n",
        "a": "from .tables import _is_index\n\ndef g(v):\n    h = lambda: tables._is_index(v)\n",
        "b": "def k(v):\n    return getattr(tables, '_is_index')(v)\n\n_is_index = None\n",
    }
    assert rule_readers(sources) == ["a", "a.g", "b.k", "tables.f"]


def test_only_the_guard_and_the_table_check_read_the_rule():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert rule_readers(sources) == ["tables._int_in", "tables.freeze_table"]
