"""Every private top-level function, class or constant of the package is read
somewhere in the package, so a helper that loses its last caller cannot
linger. Reads from tests do not count, and a function reading only itself
is not read. Every public top-level function or class is exported from the
package root, read somewhere in the package, the tests or the benchmark, or
traced by the benchmark. Every public top-level function is read by a
module of the package other than the root and outside its own body, so
that some command reaches it. Every annotated field of a package dataclass is
read as an attribute, or named to ``getattr``, in the package, the tests or
the benchmark, so a field that is only ever set cannot linger. Every method
or property of a package class, other than a dunder, is read as an
attribute by a module of the package outside its own body; reads from
tests do not count. Like ``test_unused_imports``, the checks walk syntax
trees."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import semiringlab

PACKAGE = Path(semiringlab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(node: ast.stmt) -> list[str]:
    """The private names a top-level statement defines, and the public
    names of a function or class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
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


def unread_names(sources: dict[str, str], private: bool, read_elsewhere: frozenset = frozenset()) -> list[str]:
    """``module.name`` for each private (or public) top-level name the
    sources define that no other statement of theirs reads and that is not
    in ``read_elsewhere``."""
    defined, read_by = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = [name for name in _defined(node) if _private(name) == private]
            defined += [(module, name, node) for name in names]
            read_by.append((node, _reads(node)))
    return sorted(
        f"{module}.{name}"
        for module, name, home in defined
        if name not in read_elsewhere and not any(name in reads for node, reads in read_by if node is not home)
    )


def traced_names() -> set[str]:
    """The function names the benchmark's tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {name for names in tracing.TRACED.values() for name in names}


def unused_public_names(sources: dict[str, str], outside: list[str], exported, traced) -> list[str]:
    """``module.name`` for each public top-level function or class of the
    package that is not exported, not traced, and read neither by another
    statement of the package nor by the ``outside`` sources."""
    elsewhere = set(exported) | set(traced)
    for source in outside:
        elsewhere |= _reads(ast.parse(source))
    return unread_names(sources, private=False, read_elsewhere=frozenset(elsewhere))


def unreached_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each public top-level function that no statement
    of the sources, other than its own definition, reads."""
    functions = {
        node.name
        for source in sources.values()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return [name for name in unread_names(sources, private=False) if name.split(".")[1] in functions]


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _fields(tree: ast.AST) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of each dataclass under the tree."""
    return [
        (node.name, stmt.target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Attributes loaded under the tree, and its strings that are
    identifiers: ``getattr`` may be given any of them, directly or from a
    tuple of names."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def unread_fields(sources: dict[str, str], outside: list[str]) -> list[str]:
    """``module.Class.field`` for each annotated dataclass field of the
    sources that neither they nor the ``outside`` sources read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_attribute_reads, [*trees.values(), *map(ast.parse, outside)]))
    return sorted(f"{module}.{cls}.{name}" for module, tree in trees.items() for cls, name in _fields(tree) if name not in read)


def unreached_methods(sources: dict[str, str]) -> list[str]:
    """``module.Class.method`` for each method or property, other than a
    dunder, of a class of the sources that no statement of theirs reads as
    an attribute outside the method's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = Counter(
        sub.attr
        for tree in trees.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )
    out = []
    for module, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or method.name.startswith("__"):
                    continue
                own = sum(
                    isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) and sub.attr == method.name
                    for sub in ast.walk(method)
                )
                if reads[method.name] == own:
                    out.append(f"{module}.{cls.name}.{method.name}")
    return sorted(out)


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
    assert unread_names(sources, private=True) == ["a._UNUSED", "a._recursive"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_names(sources, private=True) == []


def test_the_check_finds_an_unused_public_name():
    sources = {
        "a": (
            "def exported():\n    pass\n"
            "def traced():\n    pass\n"
            "def tested():\n    pass\n"
            "def called():\n    pass\n"
            "def caller():\n    return called()\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Unused:\n    pass\n"
            "LIMIT = 3\n"
        ),
    }
    outside = ["from a import tested\n"]
    found = unused_public_names(sources, outside, exported={"exported"}, traced={"traced", "caller"})
    assert found == ["a.Unused", "a.recursive"]


def test_every_public_name_is_exported_read_or_traced():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    outside = [p.read_text() for folder in ("tests", "perfbench") for p in sorted((ROOT / folder).glob("*.py"))]
    assert unused_public_names(sources, outside, semiringlab.__all__, traced_names()) == []


def test_the_check_finds_an_unreached_export():
    sources = {
        "a": (
            "def exported():\n    pass\n"
            "def reached():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def unexported():\n    pass\n"
            "class Exported:\n    pass\n"
        ),
        "b": "from .a import reached\n",
    }
    assert unreached_functions(sources) == ["a.exported", "a.recursive", "a.unexported"]


def test_every_exported_function_is_reached_by_the_package():
    """Every public function, exported or not. Reads from the root's
    re-exports, the tests and the benchmark do not count: a function only
    they call checks nothing that a command runs."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert unreached_functions(sources) == []


def test_the_check_finds_an_unread_field():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "import dataclasses\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int\n"
            "    y: int = 0\n"
            "    label: str = ''\n"
            "    tag: str = ''\n"
            "    written: int = 0\n"
            "    LIMIT = 3\n"
            "    def norm(self):\n        return self.x\n"
            "@dataclasses.dataclass\n"
            "class Box:\n"
            "    corner: Point\n"
            "    side: int\n"
            "class Plain:\n"
            "    width: int\n"
            "def build(p):\n"
            "    p.written = 1\n"
            "    return Box(corner=p, side=getattr(p, 'label'))\n"
            "def tags(p):\n"
            "    return [getattr(p, field) for field in ('tag',)]\n"
        ),
    }
    outside = ["def test(b):\n    return b.corner.y\n"]
    assert unread_fields(sources, outside) == ["a.Box.side", "a.Point.written"]


def test_every_dataclass_field_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    outside = [p.read_text() for folder in ("tests", "perfbench") for p in sorted((ROOT / folder).glob("*.py"))]
    assert unread_fields(sources, outside) == []


def test_the_check_finds_an_unreached_method():
    sources = {
        "a": (
            "class Point:\n"
            "    def __repr__(self):\n        return ''\n"
            "    def norm(self):\n        return self.x\n"
            "    @property\n"
            "    def size(self):\n        return self.norm()\n"
            "    @property\n"
            "    def unread(self):\n        return 0\n"
            "    def recursive(self, n):\n        return self.recursive(n - 1)\n"
            "    def tested(self):\n        return 0\n"
            "    def set_only(self):\n        return 0\n"
            "    @staticmethod\n"
            "    def helper():\n        return 0\n"
            "def area(p):\n"
            "    p.set_only = None\n"
            "    return p.size * Point.helper()\n"
        ),
    }
    # the tests read Point.tested; that read does not count
    assert unreached_methods(sources) == ["a.Point.recursive", "a.Point.set_only", "a.Point.tested", "a.Point.unread"]


def test_every_method_is_reached_by_the_package():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreached_methods(sources) == []
