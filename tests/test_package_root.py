"""Every submodule name bound in the package root is that submodule.

A re-export that takes a submodule's name hides the module: ``import
semiringlab.x as m`` and ``from semiringlab import x`` then both give the
re-exported object. The check reads the syntax tree of ``__init__.py`` and
then asks the imported package itself."""

import ast
import importlib
import sys
from pathlib import Path

import semiringlab

PACKAGE = Path(semiringlab.__file__).parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))

# The benchmark's setup step calls ``semiringlab.corpus()``, so this one
# re-export keeps hiding its module until the benchmark changes.
HIDDEN = {"corpus"}


def rebound_submodules(source: str) -> set[str]:
    """The submodule names bound by the source's top-level imports from a
    module."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound & set(SUBMODULES)


def test_the_check_finds_a_rebound_submodule():
    source = (
        "from . import ideals\n"
        "from .covering import Covering, covering\n"
        "from .tables import check_laws as tables\n"
    )
    assert rebound_submodules(source) == {"covering", "tables"}


def test_no_root_import_rebinds_a_submodule_name():
    assert rebound_submodules((PACKAGE / "__init__.py").read_text()) == HIDDEN


def test_every_submodule_name_in_the_root_is_that_submodule():
    hidden = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"semiringlab.{name}")
        if getattr(semiringlab, name) is not module:
            hidden.add(name)
    assert hidden == HIDDEN


def test_covering_imports_as_a_module():
    import semiringlab.covering as c
    from semiringlab import covering

    assert c is covering is sys.modules["semiringlab.covering"]
    assert callable(c.mccoy_exponent)
