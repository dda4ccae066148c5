"""One lazily filled analysis context per structure.

Everything the package derives from a structure's tables, and reads more
than once, lives in one :class:`Analysis` per structure. Each fact is
computed on its first read and read back afterwards. A context holds:

- ``laws``: the :class:`~semiringlab.tables.LawReport`;
- ``absorb``, ``principal`` and ``lattice``, keyed by side: what an ideal
  holding each element must hold, the principal ideal masks and the ideal
  lattice;
- ``spectrum``: the prime ideal masks;
- ``member_view``, keyed by ``"add"`` or ``"mul"``: that table's rows as
  :func:`~semiringlab.tables.member_rows` gathers {y : x+y in a mask} or
  {y : x*y in a mask} from them;
- ``orbits``: per element x, the mask of its power orbit x, x^2, x^3, ...;
- per mask: ``subtractive`` and ``prime``, each with its least witness,
  and ``radical``, the radical's mask. Subtractiveness and the radical do
  not depend on the side, so they are keyed on the mask alone. A context
  stores verdicts, not rows: the residual rows {y : x*y in the mask} are
  gathered from the ``"mul"`` member view by each reader that needs them;
- ``classes``: the classification of every two-sided ideal, keyed by its
  mask, from one pass over the lattice. A lattice of at most n ideals, n
  the carrier's size, is classified once per ideal, on each ideal's
  residual rows; a larger one once per element tuple over all ideals at
  once, as bitsets over the lattice. Either layout stores each ideal's
  subtractive, prime and radical verdicts as the per-mask facts above, the
  second with :meth:`Analysis.put`;
- keyed by (mask, T-mask), the two sides of the T-semiprime equivalence:
  ``t_element``, the least t in T with t*x in the two-sided ideal for every
  x with x*x in it, or None, and ``semiprime_residual``, the least t in T
  whose residual quotient of the ideal is proper and semiprime, with that
  quotient's mask, or None;
- ``self_action``: for a semiring, the semiring as a semimodule over
  itself, one module per structure, so the module's own facts are
  computed once. Its report is stored with it, read off the semiring's
  laws, so a self action is never scanned.

A semimodule has a context of its own, holding ``semimodule``: its
:class:`~semiringlab.tables.SemimoduleReport`; ``annihilators``: per
module element x, the mask of the scalars r with r*x = 0; and
``element_annihilators``: per module element x, the annihilator ideal
Ann(x), checked once as every annihilator is.

The module that owns a fact computes it with a private function, which
the context calls once per key; a computation that raises stores nothing,
so the same input raises again, and every theorem cross-check inside it
runs once per distinct input. The public functions (``check_laws``,
``ideal_masks``, ``is_subtractive`` and the rest) are reads of the
context.

Each structure (and semimodule) owns its context: ``analysis`` attaches it
to the object on first use and reads it back afterwards, so a context is
freed with its structure, and an equal structure built separately starts
with an empty context of its own. The radical and the semiprime residual
quotient are stored as masks, which ``radical`` and ``semiprime_residual``
wrap in ideals. ``counts`` gives, per fact, how many values were computed
and how many reads were answered from a context, and ``context_count``
how many contexts have been created.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable

FACTS = (
    "laws",
    "absorb",
    "principal",
    "lattice",
    "spectrum",
    "annihilators",
    "subtractive",
    "prime",
    "member_view",
    "orbits",
    "radical",
    "classes",
    "t_element",
    "semiprime_residual",
    "semimodule",
    "element_annihilators",
    "self_action",
)

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])

_FILLED = dict.fromkeys(FACTS, 0)
_REUSED = dict.fromkeys(FACTS, 0)


class Analysis:
    """The facts derived so far about one structure, one table per kind."""

    __slots__ = ("facts",)

    def __init__(self):
        self.facts: dict[str, dict] = {}

    def get(self, kind: str, key, compute: Callable, *args):
        """The ``kind`` fact at ``key``, computed as ``compute(*args)`` on
        the first read."""
        try:
            value = self.facts[kind][key]
        except KeyError:
            pass
        else:
            _REUSED[kind] += 1
            return value
        value = compute(*args)
        self.facts.setdefault(kind, {})[key] = value
        _FILLED[kind] += 1
        return value

    def put(self, kind: str, values: dict) -> None:
        """Store ``kind`` facts computed together elsewhere, keeping any
        already stored; each new one counts as computed."""
        table = self.facts.get(kind, {})
        new = {key: value for key, value in values.items() if key not in table}
        if new:
            self.facts.setdefault(kind, table).update(new)
        _FILLED[kind] += len(new)


_created = 0


def analysis(s) -> Analysis:
    """The context of a structure or semimodule, attached to it on first use."""
    global _created
    try:
        return s._analysis
    except AttributeError:
        _created += 1
        ctx = Analysis()
        object.__setattr__(s, "_analysis", ctx)
        return ctx


def context_count() -> int:
    """How many contexts have been created."""
    return _created


def counts() -> dict[str, tuple[int, int]]:
    """Per fact kind, (values computed, reads answered from a context)."""
    return {kind: (_FILLED[kind], _REUSED[kind]) for kind in FACTS}


def reader(kind: str):
    """Mark a function as the read of one fact kind and give it the
    ``cache_info()`` of a cached function: reuses are hits, fills misses."""

    def mark(fn):
        fn.cache_info = lambda: CacheInfo(_REUSED[kind], _FILLED[kind], None, _FILLED[kind])
        return fn

    return mark
