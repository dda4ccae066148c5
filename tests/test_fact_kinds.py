"""Every fact kind that ``analysis.FACTS`` lists is still read or stored by
the package: it is the first argument, as a string, of some ``.get`` or
``.put`` call. A kind whose last reader is gone cannot linger in the list.
Like ``test_private_names``, the check walks syntax trees."""

import ast
from pathlib import Path

import semiringlab
from semiringlab.analysis import FACTS

PACKAGE = Path(semiringlab.__file__).parent


def unused_kinds(kinds, sources: list[str]) -> list[str]:
    """The kinds that no ``.get`` or ``.put`` call of the sources names as
    its first argument."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "put")
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                used.add(node.args[0].value)
    return [kind for kind in kinds if kind not in used]


def test_the_check_finds_a_retired_kind():
    sources = [
        'analysis(s).get("laws", None, compute, s)\n',
        'ctx.put("prime", {})\nfacts.get(kind)\ntable.get(1)\nnamed = "square"\nput("radical")\n',
    ]
    assert unused_kinds(("laws", "prime", "square", "radical"), sources) == ["square", "radical"]


def test_every_fact_kind_is_read_or_stored():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_kinds(FACTS, sources) == []
