"""Every fact kind that ``analysis.FACTS`` lists is still read or stored by
the package: it is the first argument, as a string, of some ``.get`` or
``.put`` call. A kind whose last reader is gone cannot linger in the list.
Conversely, every string kind that the package passes to ``get`` or ``put``
on an analysis context, ``analysis(...)`` or ``ctx``, is listed, so a kind
renamed in one place only fails here and not first on the path that reads
it. Like ``test_private_names``, the checks walk syntax trees."""

import ast
from pathlib import Path

import semiringlab
from semiringlab.analysis import FACTS

PACKAGE = Path(semiringlab.__file__).parent


def _on_context(call: ast.Call) -> bool:
    """Whether the call's receiver is an analysis context: a call of
    ``analysis`` or the name ``ctx``."""
    receiver = call.func.value
    if isinstance(receiver, ast.Call):
        return isinstance(receiver.func, ast.Name) and receiver.func.id == "analysis"
    return isinstance(receiver, ast.Name) and receiver.id == "ctx"


def named_kinds(sources: list[str], contexts_only: bool = False) -> set[str]:
    """The strings that ``.get`` or ``.put`` calls of the sources name as
    their first argument, on analysis contexts only if asked."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "put")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and (not contexts_only or _on_context(node))
            ):
                named.add(node.args[0].value)
    return named


def unused_kinds(kinds, sources: list[str]) -> list[str]:
    """The kinds that no ``.get`` or ``.put`` call of the sources names as
    its first argument."""
    used = named_kinds(sources)
    return [kind for kind in kinds if kind not in used]


def unknown_kinds(kinds, sources: list[str]) -> list[str]:
    """The kinds that the sources pass to a context's ``get`` or ``put``
    and that are not among ``kinds``, sorted."""
    return sorted(named_kinds(sources, contexts_only=True) - set(kinds))


def test_the_check_finds_a_retired_kind():
    sources = [
        'analysis(s).get("laws", None, compute, s)\n',
        'ctx.put("prime", {})\nfacts.get(kind)\ntable.get(1)\nnamed = "square"\nput("radical")\n',
    ]
    assert unused_kinds(("laws", "prime", "square", "radical"), sources) == ["square", "radical"]


def test_the_check_finds_an_unlisted_kind():
    sources = [
        'analysis(s).get("lattice", side, compute, s)\nanalysis(s).get("laws", None, compute, s)\n',
        'ctx.put("classification", {})\nrep.witnesses.get("two_absorbing")\ndoc.get("zero")\n',
    ]
    assert unknown_kinds(("laws",), sources) == ["classification", "lattice"]


def test_every_fact_kind_is_read_or_stored():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_kinds(FACTS, sources) == []


def test_every_kind_read_or_stored_is_listed():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert named_kinds(sources, contexts_only=True)
    assert unknown_kinds(FACTS, sources) == []
