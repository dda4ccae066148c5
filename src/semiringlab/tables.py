"""Finite algebraic structures as dense Cayley tables, with exhaustive law checks.

Carriers are index sets 0..size-1 and binary operations are row-major tables,
so every law is decidable by quantifier elimination over the carrier. One
kernel, ``least_witness``, finds every witness: it walks the prefixes of the
law's variables in lexicographic order and compares the two sides of the law
as whole rows over the last variable. Failing laws therefore always carry the
lexicographically least witness tuple, which keeps reports deterministic and
golden-testable. The rows of the three-variable laws (associativity,
distributivity, mediality) are ``bytes`` when the tables have at most 256
columns: with ``rows[v]`` row v as bytes and ``luts[v]`` the same row padded
to 256 entries, the gather ``[T[u][y] for y in T[v]]`` is
``rows[v].translate(luts[u])``, done in C, and the two sides compare as
memory. A report builds these byte views once per table, each row on first
use, since a law that fails at its first prefixes reads only a few. Wider
tables, from 257 elements up to ``CARRIER_CAP``, take the same laws on lists.

``check_laws`` proves some laws on a generating set instead of scanning every
tuple. ``generators`` picks one greedily with the closure kernel of
:mod:`semiringlab.closure`. By Light's test (Clifford & Preston, *The
Algebraic Theory of Semigroups*, vol. 1, 1961), an operation is associative
when (xg)y = x(gy) for every generator g; this is applied to both operations.
Over an associative addition, a(g+c) = ag+ac for every additive generator g
gives left distributivity, and the same test on the transposed
multiplication gives right distributivity. ``_additive_laws`` is the one
place that holds these premises: ``check_laws``, the semimodule check and
``commutative_monoid_table`` all take an addition's laws from it. A reduced
test only says "holds": when it fails, a full ``least_witness`` scan runs,
so every witness is the one the full scan finds. Light's test is closed over
every first coordinate at once, so its full scan starts again from the
first prefix. Distributivity is closed for each multiplier on its own, so
the multipliers before the first one that fails on generators have no
witness, and only that multiplier's rows are scanned in full. Mediality
of addition follows from associativity plus commutativity, so it is settled
without a scan when both hold. Otherwise only the prefixes with b < c are
walked: swapping b and c swaps the two sides of (a+b)+(c+d) = (a+c)+(b+d),
so the least failing tuple has b < c.

``semimodule_check`` runs on a semiring that ``require_semiring`` has
proved, so it reduces two more laws over the scalars. The t with
(st)x = s(tx) for every s and x are closed under products, because the
semiring's multiplication is associative: Light's test over the generators
of that multiplication proves the action associative. Once the module's
addition is associative, the t with (s+t)x = sx+tx for every s and x are
closed under sums, so that law is tested on the semiring's additive
generators.

Every report is built from its witnesses: each law's witness, or None when
it holds, goes into one dict in report order, and a flag is False exactly
when its law has an entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .analysis import analysis, reader
from .closure import close
from .errors import StructureError

Row = tuple[int, ...]
Table = tuple[Row, ...]

LAW_NAMES = (
    "left_distributive",
    "right_distributive",
    "add_associative",
    "add_commutative",
    "add_medial",
    "mul_associative",
    "mul_commutative",
    "has_zero",
    "zero_absorbing",
    "has_one",
    "zerosumfree",
    "entire",
    "complemented",
    "mul_idempotent",
)

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


def freeze_table(rows: Sequence[Sequence[int]], nrows: int, ncols: int, what: str = "table") -> Table:
    """Copy rows into tuples, validating type, shape and entry range."""
    if not isinstance(rows, (list, tuple)):
        raise StructureError(f"{what}: expected a list of rows, got {type(rows).__name__}")
    if len(rows) != nrows:
        raise StructureError(f"{what}: expected {nrows} rows, got {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise StructureError(f"{what}: row {i} is a {type(row).__name__}, not a list")
        if len(row) != ncols:
            raise StructureError(f"{what}: row {i} has length {len(row)}, expected {ncols}")
        for v in row:
            if not (_is_index(v) and 0 <= v < ncols):
                raise StructureError(f"{what}: entry {v!r} in row {i} is not an integer in 0..{ncols - 1}")
        out.append(tuple(row))
    return tuple(out)


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
        if not _is_index(self.size) or self.size <= 0:
            raise StructureError(f"carrier size must be a positive integer, got {self.size!r}")
        object.__setattr__(self, "add", freeze_table(self.add, self.size, self.size, "add"))
        object.__setattr__(self, "mul", freeze_table(self.mul, self.size, self.size, "mul"))
        for label in ("zero", "one"):
            v = getattr(self, label)
            if v is not None and not (_is_index(v) and 0 <= v < self.size):
                raise StructureError(f"{label}={v!r} is not an element of a carrier of size {self.size}")

    def elements(self) -> range:
        return range(self.size)

    def __repr__(self):  # tables are noisy; show identity only
        return f"<{type(self).__name__} {self.name or 'anonymous'} size={self.size}>"


@dataclass(frozen=True, repr=False)
class LawReport:
    """Outcome of exhaustive law checking.

    A flag is False exactly when ``witnesses`` carries an entry under the
    flag's name; the entry is the least tuple falsifying the law, or the
    empty tuple for existence flags with nothing to exhibit.
    """

    left_distributive: bool
    right_distributive: bool
    add_associative: bool
    add_commutative: bool
    add_medial: bool
    mul_associative: bool
    mul_commutative: bool
    has_zero: bool
    zero_absorbing: bool
    has_one: bool
    zerosumfree: bool
    entire: bool
    complemented: bool
    mul_idempotent: bool
    zero: Optional[int]
    one: Optional[int]
    witnesses: Mapping

    def __post_init__(self):
        _freeze_witnesses(self)

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

    def __repr__(self):
        failing = sorted(self.witnesses)
        return f"<LawReport ok={not failing} failing={failing}>"


def _freeze_witnesses(report) -> None:
    """Replace a report's witnesses by a read-only copy: reports are shared
    through the analysis context, so a write would change later answers."""
    object.__setattr__(report, "witnesses", MappingProxyType(dict(report.witnesses)))


def _neutral(table: Table, n: int) -> Optional[int]:
    """Least two-sided neutral element of a magma table, if any."""
    for e in range(n):
        row = table[e]
        if all(row[x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def least_witness(shape: Sequence[int], rows: Callable[..., tuple]) -> Optional[tuple[int, ...]]:
    """Lexicographically least tuple over ``range(shape[0]) x ... x range(shape[-1])``
    that falsifies a law, or None when the law holds.

    ``rows(*prefix)`` gives the law's two sides at a prefix of every coordinate
    but the last, as two sequences of one type indexed by the last coordinate.
    Prefixes are walked in lexicographic order, and the first differing index
    of the first unequal pair closes the witness.
    """
    for prefix in itertools.product(*(range(n) for n in shape[:-1])):
        lhs, rhs = rows(*prefix)
        if lhs != rhs:
            for last, (x, y) in enumerate(zip(lhs, rhs)):
                if x != y:
                    return (*prefix, last)
    return None


def transpose(table: Table) -> Table:
    return tuple(zip(*table))


class _ByteRows(dict):
    """Row v of a table as ``bytes``, built on first use."""

    __slots__ = ("table",)

    def __init__(self, table: Table):
        self.table = table

    def __missing__(self, v: int) -> bytes:
        row = self[v] = bytes(self.table[v])
        return row


class _Luts(dict):
    """Row v of a table's byte rows padded to the 256 entries that
    ``bytes.translate`` reads, built on first use."""

    __slots__ = ("rows",)

    def __init__(self, rows: _ByteRows):
        self.rows = rows

    def __missing__(self, v: int) -> bytes:
        lut = self[v] = self.rows[v].ljust(256, b"\0")
        return lut


# The byte views (rows, luts) of a table, or None when it has more than 256 columns.
Views = Optional[tuple[_ByteRows, _Luts]]


def _byte_views(table: Table) -> Views:
    """The byte views of ``table``: None when it has more than 256 columns,
    as its entries then need not fit a byte. Every table here has its
    entries below its column count, so ``rows[u].translate(luts[v])`` is the
    gather ``[table[v][y] for y in table[u]]``. Each row is built on first
    use: a law that fails at its first prefixes reads only a few."""
    if len(table[0]) > 256:
        return None
    rows = _ByteRows(table)
    return rows, _Luts(rows)


def _associative_rows(mul: Table, act: Table, views: Views = None) -> Callable:
    """(st)x and s(tx) as rows over x, at a prefix (s, t): ``bytes`` gathered
    in C when ``views`` are the byte views of ``act``, lists otherwise."""
    if views is None:
        return lambda s, t: (list(act[mul[s][t]]), [act[s][y] for y in act[t]])
    rows, luts = views
    return lambda s, t: (rows[mul[s][t]], rows[t].translate(luts[s]))


def commutative_witness(table: Table) -> Optional[tuple[int, int]]:
    """Least (a, b) with ab != ba."""
    cols = transpose(table)
    return least_witness((len(table),) * 2, lambda a: (table[a], cols[a]))


def _distributive_rows(add: Table, mul: Table, add_views: Views = None, mul_views: Views = None) -> Callable:
    """a(b+c) and ab+ac as rows over c, at a prefix (a, b): ``bytes`` when
    both tables have byte views (they have, or have not, together, as
    ``mul`` has a column per element of ``add``), lists otherwise."""
    if add_views is None or mul_views is None:
        return lambda a, b: ([mul[a][x] for x in add[b]], [add[mul[a][b]][y] for y in mul[a]])
    (add_rows, add_luts), (mul_rows, mul_luts) = add_views, mul_views
    return lambda a, b: (add_rows[b].translate(mul_luts[a]), mul_rows[a].translate(add_luts[mul[a][b]]))


def distributive_witness(add: Table, mul: Table) -> Optional[tuple[int, int, int]]:
    """Least (a, b, c) with a(b+c) != ab+ac, where ``mul`` has one row per
    multiplier and one column per element of ``add``. Right distributivity is
    this law for ``transpose(mul)``."""
    n = len(add)
    return least_witness((len(mul), n, n), _distributive_rows(add, mul, _byte_views(add), _byte_views(mul)))


def medial_witness(table: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int, int]]:
    """Least (a,b,c,d) with (a+b)+(c+d) != (a+c)+(b+d), or None if medial."""
    n = len(table)
    t = freeze_table(table, n, n, "magma")
    return _medial_witness(t, _byte_views(t))


def _medial_rows(t: Table, pairs: Sequence[tuple[int, int]], views: Views = None) -> Callable:
    """(a+b)+(c+d) and (a+c)+(b+d) as rows over d, at a prefix (a, k) where
    (b, c) = pairs[k]: ``bytes`` when ``views`` are the byte views of ``t``,
    lists otherwise."""
    if views is None:
        def rows(a, k):
            b, c = pairs[k]
            return [t[t[a][b]][x] for x in t[c]], [t[t[a][c]][y] for y in t[b]]
    else:
        byte_rows, luts = views

        def rows(a, k):
            b, c = pairs[k]
            return byte_rows[c].translate(luts[t[a][b]]), byte_rows[b].translate(luts[t[a][c]])
    return rows


def _medial_witness(t: Table, views: Views) -> Optional[tuple[int, int, int, int]]:
    """``medial_witness`` of a validated table with its byte views. Swapping
    b and c swaps the two sides, so the failing tuples are symmetric under
    b <-> c and none has b = c: the least one has b < c, and only those
    prefixes are walked."""
    n = len(t)
    pairs = tuple(itertools.combinations(range(n), 2))
    w = least_witness((n, len(pairs), n), _medial_rows(t, pairs, views))
    return None if w is None else (w[0], *pairs[w[1]], w[2])


def generators(table: Table) -> tuple[int, ...]:
    """A generating set of the magma ``table``, picked greedily: the least
    element outside the subset generated so far, until that is the carrier."""
    n = len(table)
    full, absorb = (1 << n) - 1, (0,) * n
    gens: list[int] = []
    closed = 0
    while closed != full:
        g = (~closed & (closed + 1)).bit_length() - 1  # the least element outside
        gens.append(g)
        closed = close(table, absorb, 1 << g, closed)
    return tuple(gens)


def _generated_witness(gens: Sequence[int], shape: Sequence[int], rows: Callable) -> Optional[tuple[int, ...]]:
    """``least_witness(shape, rows)`` for a law in three variables that holds
    once it holds with its middle variable on ``gens``. That reduced test
    only ever says "holds": when it fails, or when ``gens`` is the whole
    middle range and so reduces nothing, the full scan runs."""
    first, middle, last = shape
    if len(gens) < middle and least_witness((first, len(gens), last), lambda a, i: rows(a, gens[i])) is None:
        return None
    return least_witness(shape, rows)


def _first_block_witness(gens: Sequence[int], shape: Sequence[int], rows: Callable) -> Optional[tuple[int, ...]]:
    """``least_witness(shape, rows)`` for a law in three variables that holds
    at a first coordinate a once it holds there with its middle variable on
    ``gens``. The reduced scan walks the first coordinates in order, so the
    first a where it fails is the first a with any witness, and only a's
    block is scanned in full. ``gens`` is either a proper subset or the
    whole middle range in order, which reduces nothing."""
    first, middle, last = shape
    w = least_witness((first, len(gens), last), lambda a, i: rows(a, gens[i]))
    if w is None or len(gens) == middle:
        return w
    a = w[0]
    return (a, *least_witness((middle, last), lambda b: rows(a, b)))


@reader("laws")
def check_laws(s: CayleyStructure) -> LawReport:
    """Decide every law flag over the whole carrier, with lexicographically
    least witnesses."""
    return analysis(s).get("laws", None, _law_report, s)


def _additive_laws(
    add: Table, add_views: Views, muls: Sequence[tuple[Table, Views]]
) -> tuple[Optional[tuple], Optional[tuple], list]:
    """The associativity and commutativity witnesses of ``add``, and the
    distributivity witness of each table of ``muls`` over it (one row per
    multiplier, one column per element of ``add``), each given with its
    byte views.

    Light's test: (x+g)+y = x+(g+y) for every generator g of ``add`` makes
    it associative. Over an associative addition, a(g+c) = ag+ac for every
    generator g gives a(b+c) = ab+ac for every b, by induction on b, for
    each multiplier a on its own; otherwise every b is scanned."""
    n = len(add)
    gens = generators(add)
    associative = _generated_witness(gens, (n, n, n), _associative_rows(add, add, add_views))
    dist_gens = gens if associative is None else range(n)
    distributive = [
        _first_block_witness(dist_gens, (len(mul), n, n), _distributive_rows(add, mul, add_views, mul_views))
        for mul, mul_views in muls
    ]
    return associative, commutative_witness(add), distributive


def commutative_monoid_table(table: Sequence[Sequence[int]]) -> tuple[Table, int]:
    """Validate a commutative monoid table, returning it with its identity."""
    n = len(table)
    t = freeze_table(table, n, n, "monoid")
    associative, commutative, _ = _additive_laws(t, _byte_views(t), ())
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
    add_views, mul_views = _byte_views(add), _byte_views(mul)
    add_associative, add_commutative, (left, right) = _additive_laws(
        add, add_views, ((mul, mul_views), (mul_cols, _byte_views(mul_cols)))
    )
    zero, one = _neutral(add, n), _neutral(mul, n)
    z, e = zero, one

    def complements(r):
        return sum(
            mul[r][rp] == z and mul[rp][r] == z and add[r][rp] == e and add[rp][r] == e for rp in range(n)
        )

    found = {
        "left_distributive": left,
        "right_distributive": right,
        "add_associative": add_associative,
        "add_commutative": add_commutative,
        "add_medial": (
            None if add_associative is None and add_commutative is None else _medial_witness(add, add_views)
        ),
        "mul_associative": _generated_witness(generators(mul), (n, n, n), _associative_rows(mul, mul, mul_views)),
        "mul_commutative": commutative_witness(mul),
        "has_zero": None if zero is not None else (),
        "zero_absorbing": () if zero is None else least_witness(
            (n,), lambda: (list(zip(mul[z], mul_cols[z])), [(z, z)] * n)
        ),
        "zerosumfree": () if zero is None else least_witness(
            (n, n), lambda a: ([v == z and (a != z or b != z) for b, v in enumerate(add[a])], [False] * n)
        ),
        "entire": () if zero is None else least_witness(
            (n, n), lambda a: ([v == z and a != z and b != z for b, v in enumerate(mul[a])], [False] * n)
        ),
        "has_one": None if one is not None else (),
        "complemented": () if zero is None or one is None else least_witness(
            (n,), lambda: ([complements(r) for r in range(n)], [1] * n)
        ),
        "mul_idempotent": least_witness((n,), lambda: ([mul[r][r] for r in range(n)], list(range(n)))),
    }
    witnesses = {law: w for law, w in found.items() if w is not None}
    return LawReport(**{law: law not in witnesses for law in LAW_NAMES}, zero=zero, one=one, witnesses=witnesses)


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
    return all(
        any(s.mul[x][y] == e for y in s.elements()) for x in s.elements() if x != z
    )


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
        if not _is_index(self.dim) or self.dim <= 0:
            raise StructureError(f"dimension must be a positive integer, got {self.dim!r}")
        ksize = self.semifield.size
        if len(self.gamma) != self.dim:
            raise StructureError("gamma must have one block per basis vector")
        frozen = []
        for i, block in enumerate(self.gamma):
            if len(block) != self.dim:
                raise StructureError("gamma block has wrong shape")
            brows = []
            for j, row in enumerate(block):
                row = tuple(row)
                if len(row) != self.dim:
                    raise StructureError("gamma block has wrong shape")
                for v in row:
                    if not (_is_index(v) and 0 <= v < ksize):
                        raise StructureError(f"gamma entry {v!r} not in the semifield carrier")
                brows.append(row)
            frozen.append(tuple(brows))
        object.__setattr__(self, "gamma", tuple(frozen))


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
        if not _is_index(self.msize) or self.msize <= 0:
            raise StructureError(f"module carrier size must be a positive integer, got {self.msize!r}")
        object.__setattr__(self, "madd", freeze_table(self.madd, self.msize, self.msize, "madd"))
        object.__setattr__(
            self, "action", freeze_table(self.action, self.semiring.size, self.msize, "action")
        )
        if not (_is_index(self.mzero) and 0 <= self.mzero < self.msize):
            raise StructureError(f"mzero={self.mzero!r} is not an element of the module")

    def elements(self) -> range:
        return range(self.msize)

    def __repr__(self):
        return f"<FiniteSemimodule {self.name or 'anonymous'} msize={self.msize} over {self.semiring.name or 'S'}>"


SEMIMODULE_AXIOMS = (
    "add_associative",
    "add_commutative",
    "zero_neutral",
    "action_associative",
    "action_unital",
    "scalar_add_distributes",
    "module_add_distributes",
    "zero_scalar_absorbs",
    "scalar_zero_absorbs",
)


@dataclass(frozen=True, repr=False)
class SemimoduleReport:
    add_associative: bool
    add_commutative: bool
    zero_neutral: bool
    action_associative: bool
    action_unital: bool
    scalar_add_distributes: bool
    module_add_distributes: bool
    zero_scalar_absorbs: bool
    scalar_zero_absorbs: bool
    witnesses: Mapping

    def __post_init__(self):
        _freeze_witnesses(self)

    @property
    def valid(self) -> bool:
        return not self.witnesses

    def __repr__(self):
        return f"<SemimoduleReport ok={self.valid} failing={sorted(self.witnesses)}>"


@reader("semimodule")
def semimodule_check(m: FiniteSemimodule) -> SemimoduleReport:
    """Exhaustively verify the commutative-monoid and scalar-action axioms."""
    return analysis(m).get("semimodule", None, _semimodule_report, m)


def _semimodule_report(m: FiniteSemimodule) -> SemimoduleReport:
    rep = require_semiring(m.semiring)
    n, k = m.semiring.size, m.msize
    sadd, smul = m.semiring.add, m.semiring.mul
    madd, act, mz = m.madd, m.action, m.mzero
    act_views = _byte_views(act)
    add_associative, add_commutative, (module_add_distributes,) = _additive_laws(
        madd, _byte_views(madd), ((act, act_views),)
    )
    # the t with (s+t)x = sx+tx for every s and x are closed under sums
    # once the module's addition is associative, as the semiring's is
    sum_gens = generators(sadd) if add_associative is None else range(n)
    found = {
        "add_associative": add_associative,
        "add_commutative": add_commutative,
        "zero_neutral": least_witness(
            (k,), lambda: (list(zip(madd[mz], (row[mz] for row in madd))), [(x, x) for x in range(k)])
        ),
        # Light's test over the scalars: the t with (st)x = s(tx) for every s
        # and x are closed under products, as the semiring's multiplication
        # is associative
        "action_associative": _generated_witness(generators(smul), (n, n, k), _associative_rows(smul, act, act_views)),
        "action_unital": least_witness((k,), lambda: (list(act[rep.one]), list(range(k)))),
        "scalar_add_distributes": _generated_witness(
            sum_gens, (n, n, k), lambda s, t: (list(act[sadd[s][t]]), [madd[x][y] for x, y in zip(act[s], act[t])])
        ),
        "module_add_distributes": module_add_distributes,
        "zero_scalar_absorbs": least_witness((k,), lambda: (list(act[rep.zero]), [mz] * k)),
        "scalar_zero_absorbs": least_witness((n,), lambda: ([row[mz] for row in act], [mz] * n)),
    }
    witnesses = {axiom: w for axiom, w in found.items() if w is not None}
    return SemimoduleReport(**{axiom: axiom not in witnesses for axiom in SEMIMODULE_AXIOMS}, witnesses=witnesses)


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
    rep = require_semiring(s)
    return FiniteSemimodule(
        semiring=s,
        msize=s.size,
        madd=s.add,
        mzero=rep.zero,
        action=s.mul,
        name=f"{s.name or 'S'} on itself",
    )
