"""Every name a module of the package or a test file imports is read in
that file.

No linter is a dependency, so the check walks each file's syntax tree.
The package's ``__init__.py`` exists to re-export names and is exempt, as
are ``from __future__`` imports."""

import ast
from pathlib import Path

import pytest

import semiringlab

MODULES = sorted(p for p in Path(semiringlab.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]):\n"
        "    from itertools import chain\n"
        "    Sequence = list\n"
        "    return js.dumps(x)\n"
    )
    assert unused_imports(source) == ["Sequence", "chain", "os"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
