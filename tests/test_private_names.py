"""Every private top-level function or constant of the package is read
somewhere in the package, so a helper that loses its last caller cannot
linger. Reads from tests do not count, and a function reading only itself
is not read. Like ``test_unused_imports``, the check walks syntax trees."""

import ast
from pathlib import Path

import semiringlab

PACKAGE = Path(semiringlab.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(node: ast.stmt) -> list[str]:
    """The private names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if _private(n)]


def _reads(node: ast.AST) -> set[str]:
    """Names loaded, attributes taken and names imported under the node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private top-level function or constant that
    no statement of the package reads, other than its own definition."""
    defined, read_by = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _defined(node)
            defined += [(module, name, node) for name in names]
            read_by.append((node, _reads(node)))
    return sorted(
        f"{module}.{name}"
        for module, name, home in defined
        if not any(name in reads for node, reads in read_by if node is not home)
    )


def test_the_check_finds_an_unread_helper():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _used():\n    return _LIMIT\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def public():\n    return _used()\n"
            "def _by_attribute():\n    pass\n"
            "def _imported():\n    pass\n"
        ),
        "b": "from . import a\nfrom .a import _imported\nx = a._by_attribute\n",
    }
    assert unread_private_names(sources) == ["a._UNUSED", "a._recursive"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
