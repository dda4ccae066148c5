"""Only ``tables.py`` handles byte rows: no other module of the package reads
``.translate`` or ``.ljust``, the methods that gather bytes through a
lookup row and pad a row to one, so the row format stays inside the row
view of ``tables``. Like ``test_private_names``, the check walks syntax
trees, and it catches a bound method passed on as well as a call."""

import ast
from pathlib import Path

import semiringlab

PACKAGE = Path(semiringlab.__file__).parent
BYTE_METHODS = frozenset({"translate", "ljust"})


def byte_methods_outside(sources: dict[str, str], home: str = "tables") -> list[str]:
    """``module:line .method`` for each read of a byte method outside ``home``."""
    return sorted(
        f"{module}:{node.lineno} .{node.attr}"
        for module, source in sources.items()
        if module != home
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in BYTE_METHODS
    )


def test_the_check_finds_byte_methods_outside_tables():
    sources = {
        "tables": "row.ljust(256)\nrow.translate(lut)\n",
        "a": "x = row.translate(lut)\ny = list(map(row.ljust, widths))\nz = row.strip()\n",
    }
    assert byte_methods_outside(sources) == ["a:1 .translate", "a:2 .ljust"]


def test_only_tables_handles_byte_rows():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert byte_methods_outside(sources) == []
