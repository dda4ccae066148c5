"""Finite algebraic structures as dense Cayley tables, with exhaustive law checks.

Carriers are index sets 0..size-1 and binary operations are row-major tables,
so every law is decidable by quantifier elimination over the carrier. One
kernel, ``least_witness``, finds every witness: it walks the prefixes of the
law's variables in lexicographic order and compares the two sides over the
other variables, flattened row-major; in the first unequal pair, halving by
slices finds the first difference, unflattened by ``divmod``. Failing laws
therefore always carry the lexicographically least witness tuple, which
keeps reports deterministic and golden-testable.

The three-variable laws (associativity, distributivity, mediality) are
written once, over one gather done in C, ``[T[v][y] for y in seq]``, in the
form the row view ``_Rows`` picks: ``seq.translate(luts[v])`` on ``bytes``
rows up to 256 columns, ``itemgetter(*seq)(T[v])`` on the tuple rows of a
wider table. Each side of associativity and distributivity comes two ways:
over the whole cube (first x middle x last), one sequence over every first
coordinate, (xy)z the rows at every xy, joined, and x(yz) the joined rows
gathered through each row x, which ``least_witness`` takes with no prefix;
or as blocks, one per first coordinate over the last two variables.
Mediality, in four variables, has a cube of n^4 entries and blocks of
n^2, one per (a, b).

The member rows of a mask M in a table T (per row x, the mask of the y
with T[x][y] in M) are the other gather, which residuals, subtractivity and
annihilators read: each row, reversed as bytes, goes through a lut of
``b"0"`` and ``b"1"`` by ``bytes.translate``, read by ``int(..., 2)``. The
format follows T's values, not its columns: past 256 values, each window
of 256 values gathers the low bytes and keeps its own columns.

One driver, ``_law_witness``, decides every law in three variables and
mediality, and alone reads the budget ``_Rows.cube_entries`` (2^15
entries: a law in three variables on every table of up to 32 elements,
mediality on every table of up to 13): within it, one compare over the
cube decides the law. Past it, a law in three variables is reduced to a
generating set, which ``generators`` picks greedily with the closure kernel of
:mod:`semiringlab.closure`, from both ends of the carrier, keeping the
smaller set: on a meet, least-first takes the whole carrier. Each report
picks a table's generators at most once, and only there; within the budget
the cube is cheaper than the generators it would prune with. By Light's
test (Clifford & Preston, *The Algebraic Theory of Semigroups*, vol. 1,
1961), an operation is associative when (xg)y = x(gy) for every generator
g; this is applied to both operations. Over an associative addition,
a(g+c) = ag+ac for every additive generator g gives a(b+c) = ab+ac for
every b. Over an associative multiplication, which ``_law_report`` decides
first, the multipliers a that distribute are closed under products, so
both distributive laws (the right one on the transposed multiplication)
hold once they hold at every multiplicative generator. ``_additive_laws``
holds these premises for ``check_laws``, the semimodule check and
``commutative_monoid_table``. A reduced test only says "holds"; when it
fails, a full scan finds the witness. Light's test is closed over every
first coordinate at once, so its full scan starts from the first prefix.
Distributivity at the additive generators is closed per multiplier, so only
the block of the first multiplier that fails there is scanned in full. A
multiplication equal to its transpose is commutative without a scan, and
its right distributive law is its left one, decided once.
Mediality of addition follows from associativity plus commutativity, so it
is settled without a scan when both hold. Otherwise, within the budget,
the cube's first block, (a, b) = (0, 0), is a probe: most tables that are
not medial fail there, and the whole cube is built only where it holds.
Past the budget, the walk compares only the tuples with b < c, as swapping
b and c swaps the two sides of (a+b)+(c+d) = (a+c)+(b+d); so the cube's
least witness has b < c too.

The other laws are decided a row at a time: a neutral element's row and
column compare as tuples with the identity, ``row.index`` finds the least
zero sum or zero divisor, and complements are counted over zipped rows.

A self action's axioms are its semiring's laws, so ``self_action`` stores
its report, unscanned. ``semimodule_check`` scans every other module over a
semiring that ``require_semiring`` has proved, so the driver reduces two
more laws over the scalars: action associativity past the budget, and
scalar-add distributivity, which keeps its list rows and has no cube,
always. The t with (st)x = s(tx) for every s and x are closed under
products, because the semiring's multiplication is associative: Light's
test over the generators of that multiplication proves the action
associative. Once the module's addition is associative, the t with
(s+t)x = sx+tx for every s and x are closed under sums, so that law is
tested on the semiring's additive generators.

Every report is built from its witnesses alone, each law's witness or None
in report order; ``_Verdicts`` keeps those not None and derives one flag
per law, False exactly when it has a witness.

Every integer the package takes from outside (a size, a designated or
named element, a digit, a degree cap) is checked by ``_int_in``, and
every table by ``freeze_table`` (a square one, sized by its rows, by
``freeze_square``), all here; each refuses with ``StructureError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cache, partial
from operator import and_, attrgetter, countOf, getitem, itemgetter, or_, rshift
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .analysis import analysis, reader
from .closure import close
from .errors import StructureError

Row = tuple[int, ...]
Table = tuple[Row, ...]

# The laws a semiring must satisfy besides zero != one (``LawReport.is_semiring``).
SEMIRING_LAWS = (
    "left_distributive",
    "right_distributive",
    "add_associative",
    "add_commutative",
    "has_zero",
    "zero_absorbing",
    "has_one",
    "mul_associative",
)


def _is_index(v) -> bool:
    """An int that is not a bool: the only value a table entry or size may be."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_in(v, what: str, low: int = 0, high: Optional[int] = None):
    """``v`` when it is an int, not a bool, with low <= v and, when ``high``
    is given, v < high; else StructureError, worded alike for every integer
    taken from outside."""
    if _is_index(v) and low <= v and (high is None or v < high):
        return v
    span = f">= {low}" if high is None else f"in {low}..{high - 1}"
    raise StructureError(f"{what} out of range: {v!r} is not an integer {span}")


def freeze_table(
    rows: Sequence[Sequence[int]], nrows: int, ncols: int, what: str = "table", bound: Optional[int] = None
) -> Table:
    """Copy rows into tuples, validating type, shape and that every entry
    is an integer below ``bound`` (``ncols`` unless given). The whole table
    is checked at once, by the sets of its row types, row lengths and cell
    types and by its least and greatest entry; only a table that fails those
    is walked cell by cell, which names the first bad row or entry, or
    accepts subclasses of list, tuple and int."""
    bound = ncols if bound is None else bound
    if not isinstance(rows, (list, tuple)):
        raise StructureError(f"{what}: expected a list of rows, got {type(rows).__name__}")
    if not rows:
        raise StructureError(f"{what}: a table needs at least one row")
    if len(rows) != nrows:
        raise StructureError(f"{what}: expected {nrows} rows, got {len(rows)}")
    if {*map(type, rows)} <= {list, tuple} and {*map(len, rows)} == {ncols}:
        cells = list(itertools.chain.from_iterable(rows))
        if {*map(type, cells)} == {int} and 0 <= min(cells) and max(cells) < bound:
            return tuple(map(tuple, rows))
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise StructureError(f"{what}: row {i} is a {type(row).__name__}, not a list")
        if len(row) != ncols:
            raise StructureError(f"{what}: row {i} has length {len(row)}, expected {ncols}")
        for v in row:
            if not (_is_index(v) and 0 <= v < bound):
                raise StructureError(f"{what}: entry {v!r} in row {i} is not an integer in 0..{bound - 1}")
        out.append(tuple(row))
    return tuple(out)


def freeze_square(rows: Sequence[Sequence[int]], what: str = "table") -> Table:
    """``freeze_table`` of an n-by-n table of entries below n, where n is
    the number of rows, read only once the rows are known to be a list."""
    n = len(rows) if isinstance(rows, (list, tuple)) else 0
    return freeze_table(rows, n, n, what)


@dataclass(frozen=True)
class CayleyStructure:
    """A finite carrier with addition and multiplication tables.

    ``zero`` and ``one`` are optional designated elements. Designations are
    produced honestly by the constructors in this package; files are verified
    on ingest. ``check_laws`` always rediscovers neutral elements from the
    tables, independently of any designation.
    """

    size: int
    add: Table
    mul: Table
    zero: Optional[int] = None
    one: Optional[int] = None
    name: str = ""

    def __post_init__(self):
        _int_in(self.size, "carrier size", 1)
        object.__setattr__(self, "add", freeze_table(self.add, self.size, self.size, "add"))
        object.__setattr__(self, "mul", freeze_table(self.mul, self.size, self.size, "mul"))
        for label in ("zero", "one"):
            if getattr(self, label) is not None:
                _int_in(getattr(self, label), label, 0, self.size)

    def __repr__(self):  # tables are noisy; show identity only
        return f"<{type(self).__name__} {self.name or 'anonymous'} size={self.size}>"


@dataclass(frozen=True, repr=False)
class _Verdicts:
    """A report given each name's witness (the least falsifying tuple, or
    the empty tuple when there is nothing to exhibit), or None where the
    name holds; a name left out does not apply. It keeps the witnesses as a
    read-only copy, as reports are shared through the analysis context, and
    sets each field a subclass declares with ``init=False`` to whether its
    name has no witness, or to None when its name was left out."""

    witnesses: Mapping

    def __post_init__(self):
        given = self.witnesses
        object.__setattr__(self, "witnesses", MappingProxyType({name: w for name, w in given.items() if w is not None}))
        for name in _flag_names(type(self)):
            object.__setattr__(self, name, given[name] is None if name in given else None)

    def __repr__(self):
        failing = sorted(self.witnesses)
        return f"<{type(self).__name__} ok={not failing} failing={failing}>"


@cache
def _flag_names(cls: type) -> tuple[str, ...]:
    """The flags of a :class:`_Verdicts` class, in declaration order."""
    return tuple(f.name for f in fields(cls) if not f.init)


@dataclass(frozen=True, repr=False)
class LawReport(_Verdicts):
    """Outcome of exhaustive law checking, with the neutral elements found."""

    left_distributive: bool = field(init=False)
    right_distributive: bool = field(init=False)
    add_associative: bool = field(init=False)
    add_commutative: bool = field(init=False)
    add_medial: bool = field(init=False)
    mul_associative: bool = field(init=False)
    mul_commutative: bool = field(init=False)
    has_zero: bool = field(init=False)
    zero_absorbing: bool = field(init=False)
    has_one: bool = field(init=False)
    zerosumfree: bool = field(init=False)
    entire: bool = field(init=False)
    complemented: bool = field(init=False)
    mul_idempotent: bool = field(init=False)
    zero: Optional[int]
    one: Optional[int]

    def flag(self, law: str) -> bool:
        if law not in LAW_NAMES:
            raise KeyError(f"unknown law {law!r}")
        return getattr(self, law)

    @property
    def is_ringoid(self) -> bool:
        return self.left_distributive and self.right_distributive

    @property
    def is_with_zero(self) -> bool:
        return self.has_zero and self.zero_absorbing

    @property
    def is_na_hemiring(self) -> bool:
        return (
            self.is_ringoid
            and self.add_associative
            and self.add_commutative
            and self.is_with_zero
        )

    @property
    def is_na_semiring(self) -> bool:
        return self.is_na_hemiring and self.has_one and self.zero != self.one

    @property
    def is_semiring(self) -> bool:
        return self.is_na_semiring and self.mul_associative

    @property
    def is_commutative_semiring(self) -> bool:
        return self.is_semiring and self.mul_commutative


LAW_NAMES = _flag_names(LawReport)
# The classes ``LawReport.is_<name>`` decides, from the fewest laws to the most.
CLASS_NAMES = ("ringoid", "na_hemiring", "na_semiring", "semiring", "commutative_semiring")


def _neutral(table: Table, n: int) -> Optional[int]:
    """Least two-sided neutral element of a magma table, if any."""
    ident = tuple(range(n))
    return next((e for e, row in enumerate(table) if row == ident and tuple(r[e] for r in table) == ident), None)


def _zero_pair(table: Table, z: int) -> Optional[tuple[int, int]]:
    """Least (a, b) with a != z != b and ab = z, a row at a time: a pair of
    zero divisors, or, on an addition with neutral z, a zero sum."""
    for a, row in enumerate(table):
        if a != z and row.count(z) > (row[z] == z):
            b = row.index(z)
            return a, row.index(z, b + 1) if b == z else b
    return None


def least_witness(shape: Sequence[int], rows: Callable[..., tuple], inner: int = 1) -> Optional[tuple[int, ...]]:
    """Lexicographically least tuple over ``range(shape[0]) x ... x range(shape[-1])``
    that falsifies a law, or None when the law holds. ``rows(*prefix)`` gives
    the two sides at a prefix of all but the last ``inner`` coordinates, as
    two sequences of one type, flattened row-major: 3 for a whole cube, 2 for
    the blocks of the three-variable laws, 1 for the other laws and
    ``scalar_add_distributes``. Prefixes are walked in lexicographic order;
    in the first unequal pair, halving by slices finds the first differing
    index, and unflattened it closes the witness."""
    outer = len(shape) - inner
    for prefix in itertools.product(*map(range, shape[:outer])):
        lhs, rhs = rows(*prefix)
        if lhs != rhs:
            lo, hi = 0, len(lhs)
            while hi - lo > 1:  # the sides agree before lo and differ before hi
                mid = (lo + hi) // 2
                if lhs[lo:mid] == rhs[lo:mid]:
                    lo = mid
                else:
                    hi = mid
            tail = ()
            for d in reversed(shape[outer + 1 :]):
                lo, r = divmod(lo, d)
                tail = (r, *tail)
            return (*prefix, lo, *tail)
    return None


def transpose(table: Table) -> Table:
    return tuple(zip(*table))


def _concat(seqs) -> tuple:
    return tuple(itertools.chain.from_iterable(seqs))


def _tuple_getter(seq: Sequence[int]) -> Callable[[Row], tuple]:
    """``itemgetter(*seq)``, giving a tuple also for fewer than two indices."""
    return itemgetter(*seq) if len(seq) > 1 else lambda row: tuple(map(row.__getitem__, seq))


class _Rows:
    """A table's rows in the one form its gathers take: ``bytes`` up to
    ``byte_columns`` columns, with ``luts[v]`` row v padded to 256 entries,
    else its tuple rows, each its own lut. ``form`` makes a sequence of the
    form, ``join`` concatenates them, and ``through(seq)(luts[v])`` gathers
    ``[table[v][y] for y in seq]`` by ``bytes.translate`` or ``itemgetter``.
    ``cube_entries`` bounds the cube that one compare decides: that of a
    law in three variables (first x middle x last), every table of up to 32
    elements, and mediality's n^4 cube, every table of up to 13."""

    byte_columns = 256
    cube_entries = 1 << 15

    def __init__(self, table: Table):
        self.table = table
        if len(table[0]) <= self.byte_columns:
            self.form, self.join, self.through = bytes, b"".join, attrgetter("translate")
            self.rows = tuple(map(bytes, table))
            self.luts = tuple(row.ljust(256, b"\0") for row in self.rows)
        else:
            self.form, self.join, self.through = tuple, _concat, _tuple_getter
            self.rows = self.luts = table


def member_view(table: Sequence[Sequence[int]]) -> tuple:
    """A table's rows as :func:`member_rows` gathers them, in a format set
    by the table's values, whatever its columns: per row, the low bytes of
    its entries in reverse, so that ``int(..., 2)`` of a gather reads
    column y as bit y; and per window w of 256 values, per row, the mask of
    the columns whose entry lies in w (all, -1, when there is one window)."""
    windows = max(map(max, table)) // 256 + 1
    if windows == 1:
        return tuple(bytes(row[::-1]) for row in table), ((-1,) * len(table),)
    highs = [bytes(map(rshift, reversed(row), itertools.repeat(8))) for row in table]
    digits = tuple(bytes(map(and_, reversed(row), itertools.repeat(255))) for row in table)
    return digits, tuple(_digit_rows(highs, 1 << w) for w in range(windows))


def _digit_rows(digits: Sequence[bytes], bits: int) -> tuple[int, ...]:
    """Per row of ``digits``, the mask of the columns holding a byte v with
    bit v of ``bits`` (below 2^256) set: the row through a lut of ``b"0"``
    and ``b"1"``, read by ``int(..., 2)``."""
    lut = f"{bits:0256b}"[::-1].encode()
    return tuple(map(int, map(bytes.translate, digits, itertools.repeat(lut)), itertools.repeat(2)))


def member_rows(view: tuple, mask: int) -> tuple[int, ...]:
    """Per row x of a table, given its :func:`member_view`, the mask of the
    y with table[x][y] in ``mask``; bits of ``mask`` past the table's values
    are ignored. Each window that ``mask`` meets gathers the low bytes and
    keeps the columns whose entry lies in that window."""
    digits, lanes = view
    out = [0] * len(digits)
    for w, window in enumerate(lanes):
        bits = (mask >> 256 * w) & _WINDOW
        if bits:
            out = list(map(or_, out, map(and_, _digit_rows(digits, bits), window)))
    return tuple(out)


_WINDOW = (1 << 256) - 1


def _associative_rows(mul: Table, act: _Rows, mids: Sequence[int]) -> tuple:
    """(st)x and s(tx) for t in ``mids``: the rows of ``act`` at the st,
    joined, against the rows at ``mids``, joined and gathered through row s."""
    rows, luts, join = act.rows, act.luts, act.join
    gather = act.through(join(map(rows.__getitem__, mids)))
    return lambda s: (join(map(rows.__getitem__, map(mul[s].__getitem__, mids))), gather(luts[s])), 2


def _associative_cube(mul: Table, act: _Rows) -> tuple:
    """(st)x and s(tx) over every (s, t, x) at once: the rows of ``act`` at
    every st, joined, against the rows of ``act``, joined and gathered
    through each row s."""
    rows, join = act.rows, act.join
    return join(map(rows.__getitem__, itertools.chain.from_iterable(mul))), join(map(act.through(join(rows)), act.luts))


def commutative_witness(table: Table) -> Optional[tuple[int, int]]:
    """Least (a, b) with ab != ba; None at once on a table equal to its transpose."""
    cols = transpose(table)
    if cols == table:
        return None
    return least_witness((len(table),) * 2, lambda a: (table[a], cols[a]))


def _distributive_rows(add: _Rows, mul: _Rows, mids: Sequence[int]) -> tuple:
    """a(b+c) and ab+ac for b in ``mids``: the rows of ``add`` at ``mids``,
    joined and gathered through row a of ``mul``, against row a gathered
    through the rows of ``add`` at the ab. ``mul`` has a column per element
    of ``add``, so both views take one form."""
    rows, muls, luts, join, through = mul.rows, mul.luts, add.luts, add.join, add.through
    gather = through(join(map(add.rows.__getitem__, mids)))
    return lambda a: (
        gather(muls[a]),
        join(map(through(rows[a]), map(luts.__getitem__, map(rows[a].__getitem__, mids)))),
    ), 2


def _distributive_cube(add: _Rows, mul: _Rows) -> tuple:
    """a(b+c) and ab+ac over every (a, b, c) at once: the rows of ``add``,
    joined and gathered through each row a of ``mul``, against each row a
    gathered through the rows of ``add`` at the ab."""
    join, through, luts = add.join, add.through, add.luts
    return join(map(through(join(add.rows)), mul.luts)), join(
        itertools.chain.from_iterable(map(through(row), map(luts.__getitem__, row)) for row in mul.rows)
    )


def _scan(firsts: Sequence[int], mids: Sequence[int], last: int, law: Callable) -> Optional[tuple[int, int, int]]:
    """Least (a, b, c) falsifying a law in three variables with a in
    ``firsts`` and b in ``mids``, each walked in order, and c below ``last``:
    ``law(mids)`` gives the law's rows and the number of variables they
    cover: 2 for blocks, 1 for the list rows of ``scalar_add_distributes``."""
    rows, inner = law(mids)
    walk = rows if firsts == range(len(firsts)) else lambda i, *b: rows(firsts[i], *b)
    w = least_witness((len(firsts), len(mids), last), walk, inner)
    return None if w is None else (firsts[w[0]], mids[w[1]], w[2])


def medial_witness(table: Sequence[Sequence[int]] | _Rows) -> Optional[tuple[int, int, int, int]]:
    """Least (a,b,c,d) with (a+b)+(c+d) != (a+c)+(b+d), or None if medial,
    of a magma table, validated here, or of the ``_Rows`` of one that
    ``freeze_table`` has validated."""
    if not isinstance(table, _Rows):
        table = _Rows(freeze_square(table, "magma"))
    return _medial_witness(table)


def _medial_witness(t: _Rows) -> Optional[tuple[int, int, int, int]]:
    """``medial_witness`` of a validated table's rows: one compare over the
    n^4 cube (a, b, c, d) within ``_Rows.cube_entries``, after a probe of
    its first block; past the budget, the walk."""
    n = len(t.rows)
    return _law_witness((n,) * 4, partial(_medial_walk, t), partial(_medial_cube, t), None)


def _medial_walk(t: _Rows) -> Optional[tuple[int, int, int, int]]:
    """The least failing tuple, walked over b < c: swapping b and c swaps
    the two sides, so the least one has b < c. One block over (c > b, d)
    per prefix (a, b)."""
    n = len(t.rows)
    rows, luts, join, through = t.rows, t.luts, t.join, t.through
    flat = join(rows)
    w = least_witness(
        (n, n, n, n),
        lambda a, b: (
            through(flat[(b + 1) * n :])(luts[rows[a][b]]),
            join(map(through(rows[b]), map(luts.__getitem__, rows[a][b + 1 :]))),
        ),
        2,
    )  # the witness's c counts from b + 1
    return None if w is None else (w[0], w[1], w[1] + 1 + w[2], w[3])


def _medial_cube(t: _Rows) -> tuple:
    """(a+b)+(c+d) and (a+c)+(b+d) over every (a, b, c, d) at once: row v
    gathered at every c+d, ``sums[v]``, joined at every a+b, against
    ``g[b][v]``, row v gathered through row b, joined at every (a, b, c)
    with v = a+c. The first block, (a, b) = (0, 0), is probed first: where
    its sides differ, as on most tables that are not medial, it alone is
    returned, a prefix of the cube's sides that holds their first
    difference, and the cube is not built."""
    rows, luts, join, through = t.rows, t.luts, t.join, t.through
    flat = join(rows)
    first = through(flat)(luts[rows[0][0]]), join(map(through(rows[0]), map(luts.__getitem__, rows[0])))
    if first[0] != first[1]:
        return first
    n = len(rows)
    sums = tuple(map(through(flat), luts))
    g = [tuple(map(through(row), luts)) for row in rows]
    # per (a, b, c) in order: g[b], and a+c from row a repeated once per b
    blocks = [gb for gb in g for _ in range(n)] * n
    return join(map(sums.__getitem__, flat)), join(map(getitem, blocks, join(row * n for row in rows)))


def generators(table: Table) -> tuple[int, ...]:
    """A generating set of the magma ``table``, picked greedily from both
    ends: the greatest element outside the subset generated so far, until
    that is the carrier, and likewise the least; the smaller set, the
    least-first one on a tie. On a meet, where an element is only ever the
    product of larger ones, least-first takes the whole carrier and
    greatest-first the co-atoms and the top."""
    n = len(table)
    full, absorb = (1 << n) - 1, (0,) * n

    def greedy(pick: Callable[[int], int], most: int) -> Optional[list[int]]:
        """The generators ``pick`` gives, or None when ``most`` of them
        do not generate the carrier."""
        gens: list[int] = []
        closed = 0
        while closed != full and len(gens) < most:
            gens.append(pick(closed))
            closed = close(table, absorb, 1 << gens[-1], closed)
        return gens if closed == full else None

    down = greedy(lambda closed: (full & ~closed).bit_length() - 1, n)
    up = greedy(lambda closed: (~closed & (closed + 1)).bit_length() - 1, len(down))
    return tuple(up or down)


def _generators_once(table: Table) -> Callable[[], Sequence[int]]:
    """``generators(table)``, picked on the first call and then kept."""
    picked = {}
    return lambda: picked[0] if picked else picked.setdefault(0, generators(table))


def _law_witness(
    shape: Sequence[int], law: Callable, cube: Optional[Callable], mids: Optional[Callable[[], Sequence[int]]],
    firsts: Optional[Callable[[], Sequence[int]]] = None, per_first: bool = False,
) -> Optional[tuple[int, ...]]:
    """Least witness of a law over ``shape``: one compare over the cube
    ``cube()`` within ``_Rows.cube_entries``. Past it, or with no cube, a
    law that no generators reduce, given no ``mids`` (mediality), is decided
    by ``law()``; one in three variables by scans of ``law(mids)`` with the
    middle variable first reduced to ``mids()``. With ``per_first`` the law
    is closed per first coordinate, so only the block of the first one
    failing the reduced scan is scanned in full, and a reduced pass over
    ``firsts()``, when given, proves it; otherwise a failed reduced scan is
    followed by a full one."""
    if cube is not None and math.prod(shape) <= _Rows.cube_entries:
        return least_witness(shape, cube, len(shape))
    if mids is None:
        return law()
    first, middle, last = shape
    gens = mids()
    if not per_first:
        if len(gens) < middle and _scan(range(first), gens, last, law) is None:
            return None
        return _scan(range(first), range(middle), last, law)
    if firsts is not None and len(firsts()) < first and _scan(firsts(), gens, last, law) is None:
        return None
    w = _scan(range(first), gens, last, law)
    if w is None or len(gens) == middle:
        return w
    return _scan((w[0],), range(middle), last, law)


@reader("laws")
def check_laws(s: CayleyStructure) -> LawReport:
    """Decide every law flag over the whole carrier, with lexicographically
    least witnesses."""
    return analysis(s).get("laws", None, _law_report, s)


def _additive_laws(
    add: _Rows, gens: Callable[[], Sequence[int]], muls: Sequence[_Rows],
    firsts: Optional[Callable[[], Sequence[int]]] = None,
) -> tuple[Optional[tuple], Optional[tuple], list]:
    """The associativity and commutativity witnesses of ``add``, whose
    generators ``gens()`` picks, and the distributivity witness over it of
    each of ``muls`` (one row per multiplier, one column per element of
    ``add``), all given as row views. ``firsts``, when given, generate the
    multipliers under an associative product that keeps those that
    distribute. Over an associative addition, a(g+c) = ag+ac for every
    generator g gives a(b+c) = ab+ac for every b, by induction on b, for
    each multiplier a on its own; otherwise every b is scanned."""
    n = len(add.rows)
    associative = _law_witness(
        (n, n, n), partial(_associative_rows, add.table, add), partial(_associative_cube, add.table, add), gens
    )
    mids = gens if associative is None else partial(range, n)
    distributive = [
        _law_witness(
            (len(mul.rows), n, n), partial(_distributive_rows, add, mul), partial(_distributive_cube, add, mul),
            mids, firsts, per_first=True,
        )
        for mul in muls
    ]
    return associative, commutative_witness(add.table), distributive


def commutative_monoid_table(table: Sequence[Sequence[int]]) -> tuple[Table, int]:
    """Validate a commutative monoid table, returning it with its identity."""
    t = freeze_square(table, "monoid")
    n = len(t)
    associative, commutative, _ = _additive_laws(_Rows(t), _generators_once(t), ())
    if associative is not None:
        raise StructureError(f"monoid operation not associative, witness {associative}")
    if commutative is not None:
        raise StructureError(f"monoid operation not commutative, witness {commutative}")
    e = _neutral(t, n)
    if e is None:
        raise StructureError("monoid has no identity")
    return t, e


def _law_report(s: CayleyStructure) -> LawReport:
    n, add, mul = s.size, s.add, s.mul
    mul_cols = transpose(mul)
    add_rows, mul_rows = _Rows(add), _Rows(mul)
    mul_gens = _generators_once(mul)
    mul_associative = _law_witness(
        (n, n, n), partial(_associative_rows, mul, mul_rows), partial(_associative_cube, mul, mul_rows), mul_gens
    )
    # over an associative multiplication, the a with a(b+c) = ab+ac for every
    # b and c are closed under products, and so are those on the transpose
    firsts = mul_gens if mul_associative is None else None
    # a multiplication equal to its transpose has one distributive law
    muls = (mul_rows,) if mul_cols == mul else (mul_rows, _Rows(mul_cols))
    add_associative, add_commutative, distributive = _additive_laws(add_rows, _generators_once(add), muls, firsts)
    left, right = distributive[0], distributive[-1]
    zero, one = _neutral(add, n), _neutral(mul, n)
    z, e = zero, one
    found = {
        "left_distributive": left,
        "right_distributive": right,
        "add_associative": add_associative,
        "add_commutative": add_commutative,
        "add_medial": None if add_associative is None and add_commutative is None else _medial_witness(add_rows),
        "mul_associative": mul_associative,
        "mul_commutative": commutative_witness(mul),
        "has_zero": None if zero is not None else (),
        "zero_absorbing": () if zero is None else least_witness(
            (n,), lambda: (list(zip(mul[z], mul_cols[z])), [(z, z)] * n)
        ),
        # a sum a+b = z with a = z or b = z has a = b = z, as z is neutral
        "zerosumfree": () if zero is None else _zero_pair(add, z),
        "entire": () if zero is None else _zero_pair(mul, z),
        "has_one": None if one is not None else (),
        # r's complements are the c with (rc, cr, r+c, c+r) = (z, z, e, e)
        "complemented": () if zero is None or one is None else next(
            ((r,) for r, cells in enumerate(map(zip, mul, mul_cols, add, transpose(add)))
             if countOf(cells, (z, z, e, e)) != 1),
            None,
        ),
        "mul_idempotent": next(((r,) for r, row in enumerate(mul) if row[r] != r), None),
    }
    return LawReport(found, zero=zero, one=one)


def verify_designations(s: CayleyStructure) -> None:
    """Reject structures whose designated zero/one disagree with the tables."""
    rep = check_laws(s)
    if s.zero is not None and rep.zero != s.zero:
        raise StructureError(
            f"{s.name or 'structure'}: designated zero {s.zero} is not the additive neutral"
        )
    if s.one is not None and rep.one != s.one:
        raise StructureError(
            f"{s.name or 'structure'}: designated one {s.one} is not the multiplicative identity"
        )


def require_semiring(s: CayleyStructure) -> LawReport:
    rep = check_laws(s)
    if not rep.is_semiring:
        failing = sorted(law for law in SEMIRING_LAWS if law in rep.witnesses)
        reasons = [f"fails {failing}"] if failing else []
        if rep.has_zero and rep.has_one and rep.zero == rep.one:
            reasons.append("zero equals one")
        raise StructureError(f"{s.name or 'structure'} is not a semiring: {'; '.join(reasons)}")
    return rep


def require_commutative_semiring(s: CayleyStructure) -> LawReport:
    rep = require_semiring(s)
    if not rep.mul_commutative:
        raise StructureError(f"{s.name or 'structure'} is not commutative")
    return rep


def is_semifield(s: CayleyStructure) -> bool:
    """Commutative semiring in which every nonzero element has a multiplicative inverse."""
    rep = check_laws(s)
    if not rep.is_commutative_semiring:
        return False
    z, e = rep.zero, rep.one
    return all(e in row for x, row in enumerate(s.mul) if x != z)


def claim_holds(s: CayleyStructure, claim: str) -> bool:
    """Whether a law, a class, ``with_zero`` or ``semifield`` holds on s; an
    unknown claim is refused."""
    if claim == "semifield":
        return is_semifield(s)
    rep = check_laws(s)
    if claim in CLASS_NAMES or claim == "with_zero":
        return getattr(rep, f"is_{claim}")
    if claim not in LAW_NAMES:
        raise StructureError(f"unknown claim {claim!r}")
    return rep.flag(claim)


def failing_claims(s: CayleyStructure, claims: Sequence[str]) -> list[tuple[str, tuple]]:
    """Each claim that does not hold on ``s``, in order, with its law's
    witness (the empty tuple for a claim that is no single law); an unknown
    claim is refused."""
    rep = check_laws(s)
    return [(claim, rep.witnesses.get(claim, ())) for claim in claims if not claim_holds(s, claim)]


@dataclass(frozen=True)
class StructureConstants:
    """Multiplication data for a finite-dimensional bilinear product over a semifield.

    ``gamma[i][j][k]`` is the coefficient of the k-th basis vector in the
    product of basis vectors i and j.
    """

    semifield: CayleyStructure
    dim: int
    gamma: tuple

    def __post_init__(self):
        _int_in(self.dim, "dimension", 1)
        if not isinstance(self.gamma, (list, tuple)) or len(self.gamma) != self.dim:
            raise StructureError("gamma must have one block per basis vector")
        n, k = self.dim, self.semifield.size
        blocks = (freeze_table(block, n, n, f"gamma[{i}]", k) for i, block in enumerate(self.gamma))
        object.__setattr__(self, "gamma", tuple(blocks))


@dataclass(frozen=True, repr=False)
class FiniteSemimodule:
    """A finite commutative monoid with a scalar action by a finite semiring."""

    semiring: CayleyStructure
    msize: int
    madd: Table
    mzero: int
    action: Table  # one row per scalar, one column per module element
    name: str = ""

    def __post_init__(self):
        _int_in(self.msize, "module carrier size", 1)
        object.__setattr__(self, "madd", freeze_table(self.madd, self.msize, self.msize, "madd"))
        object.__setattr__(
            self, "action", freeze_table(self.action, self.semiring.size, self.msize, "action")
        )
        _int_in(self.mzero, "mzero", 0, self.msize)

    def __repr__(self):
        return f"<FiniteSemimodule {self.name or 'anonymous'} msize={self.msize} over {self.semiring.name or 'S'}>"


@dataclass(frozen=True, repr=False)
class SemimoduleReport(_Verdicts):
    add_associative: bool = field(init=False)
    add_commutative: bool = field(init=False)
    zero_neutral: bool = field(init=False)
    action_associative: bool = field(init=False)
    action_unital: bool = field(init=False)
    scalar_add_distributes: bool = field(init=False)
    module_add_distributes: bool = field(init=False)
    zero_scalar_absorbs: bool = field(init=False)
    scalar_zero_absorbs: bool = field(init=False)

    @property
    def valid(self) -> bool:
        return not self.witnesses


SEMIMODULE_AXIOMS = _flag_names(SemimoduleReport)


@reader("semimodule")
def semimodule_check(m: FiniteSemimodule) -> SemimoduleReport:
    """Exhaustively verify the commutative-monoid and scalar-action axioms."""
    return analysis(m).get("semimodule", None, _semimodule_report, m)


def _semimodule_report(m: FiniteSemimodule) -> SemimoduleReport:
    rep = require_semiring(m.semiring)
    n, k = m.semiring.size, m.msize
    sadd, smul = m.semiring.add, m.semiring.mul
    madd, act, mz = m.madd, m.action, m.mzero
    act_rows = _Rows(act)
    madd_gens = _generators_once(madd)
    add_associative, add_commutative, (module_add_distributes,) = _additive_laws(_Rows(madd), madd_gens, (act_rows,))
    # the t with (s+t)x = sx+tx for every s and x are closed under sums
    # once the module's addition is associative, as the semiring's is
    sum_gens = partial(range, n) if add_associative is not None else _generators_once(sadd)
    found = {
        "add_associative": add_associative,
        "add_commutative": add_commutative,
        "zero_neutral": least_witness(
            (k,), lambda: (list(zip(madd[mz], (row[mz] for row in madd))), [(x, x) for x in range(k)])
        ),
        # Light's test over the scalars: the t with (st)x = s(tx) for every s
        # and x are closed under products, as the semiring's multiplication
        # is associative
        "action_associative": _law_witness(
            (n, n, k), partial(_associative_rows, smul, act_rows), partial(_associative_cube, smul, act_rows),
            _generators_once(smul),
        ),
        "action_unital": least_witness((k,), lambda: (list(act[rep.one]), list(range(k)))),
        "scalar_add_distributes": _law_witness((n, n, k), lambda mids: (
            lambda s, i: (list(act[sadd[s][mids[i]]]), [madd[x][y] for x, y in zip(act[s], act[mids[i]])]), 1
        ), None, sum_gens),
        "module_add_distributes": module_add_distributes,
        "zero_scalar_absorbs": least_witness((k,), lambda: (list(act[rep.zero]), [mz] * k)),
        "scalar_zero_absorbs": least_witness((n,), lambda: ([row[mz] for row in act], [mz] * n)),
    }
    return SemimoduleReport(found)


def require_semimodule(m: FiniteSemimodule) -> SemimoduleReport:
    rep = semimodule_check(m)
    if not rep.valid:
        raise StructureError(f"{m.name or 'module'} fails semimodule axioms: {sorted(rep.witnesses)}")
    return rep


def self_action(s: CayleyStructure) -> FiniteSemimodule:
    """A semiring viewed as a semimodule over itself by left multiplication;
    every call on the same structure returns the same module."""
    return analysis(s).get("self_action", None, _self_action, s)


def _self_action(s: CayleyStructure) -> FiniteSemimodule:
    """The module, with its report read off the laws ``require_semiring``
    has just proved: add associative and commutative, zero neutral
    (``has_zero``), action associative (``mul_associative``) and unital
    (``has_one``), scalar-add and module-add distributive (the right and
    left distributive laws) and both zero absorbing (``zero_absorbing``)."""
    rep = require_semiring(s)
    m = FiniteSemimodule(
        semiring=s,
        msize=s.size,
        madd=s.add,
        mzero=rep.zero,
        action=s.mul,
        name=f"{s.name or 'S'} on itself",
    )
    analysis(m).put("semimodule", {None: SemimoduleReport(dict.fromkeys(SEMIMODULE_AXIOMS))})
    return m
