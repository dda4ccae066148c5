"""No module of the package uses an ``assert`` statement.

``python -O`` strips assertions, so a theorem check written as one would
vanish and its suite would pass without checking anything. The suites raise
``TheoremViolation`` instead. The check walks each module's syntax tree, as
``test_unused_imports.py`` does."""

import ast
from pathlib import Path

import pytest

import semiringlab

MODULES = sorted(Path(semiringlab.__file__).parent.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """The line numbers of the source's assert statements."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_check_finds_an_assert():
    source = (
        "def f(x):\n"
        "    assert x, 'message'\n"
        "    if x:\n"
        "        assert x > 1\n"
        "    return 'assert'\n"
    )
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []
