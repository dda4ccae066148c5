"""Constructors that assemble new structures from smaller data.

Every constructed carrier is a tuple space encoded big-endian, so the index
order of the carrier agrees with lexicographic order on the tuples and all
outputs are deterministic. Two kernels build every table of such a carrier:
``product_table``, the componentwise operation folded one table at a time,
and ``convolution_table``, the bilinear product of coefficient tuples. One
codec, ``encode_tuple``/``decode_tuple`` with a radix per digit, serves every
``coords``/``coeffs``/``index_of`` method and every designated zero and one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapExceeded, StructureError, TheoremViolation
from .limits import CARRIER_CAP
from .tables import (
    CayleyStructure,
    StructureConstants,
    Table,
    check_laws,
    commutative_monoid_table,
    distributive_witness,
    freeze_table,
    is_semifield,
    least_witness,
    medial_witness,
    transpose,
    _Rows,
    _is_index,
    _neutral,
)


def magma_endomorphisms(table: Table, cap: int = CARRIER_CAP) -> tuple[tuple[int, ...], ...]:
    """All maps f with f(x+y) = f(x)+f(y), in lexicographic order."""
    n = len(table)
    endos = []
    for f in itertools.product(range(n), repeat=n):
        if all(f[table[x][y]] == table[f[x]][f[y]] for x in range(n) for y in range(n)):
            endos.append(f)
            if len(endos) > cap:
                raise CapExceeded(f"more than {cap} endomorphisms")
    return tuple(endos)


@dataclass(frozen=True, repr=False)
class EndomorphismRingoid(CayleyStructure):
    base: Table = ()
    endos: tuple = ()


def endomorphism_ringoid(
    table: Sequence[Sequence[int]], cap: int = CARRIER_CAP, name: str = ""
) -> EndomorphismRingoid:
    """The endomorphisms of a medial magma under pointwise sum and composition."""
    n = len(table)
    bad = medial_witness(table)  # validates the table as an n-element magma
    if bad is not None:
        raise StructureError(f"magma is not medial, witness {bad}")
    base = tuple(map(tuple, table))
    endos = magma_endomorphisms(base, cap)
    index = {f: i for i, f in enumerate(endos)}
    # gathers[x] gathers g(x) for every endomorphism g through a row. The
    # row of f in the sum is one gather per point x, through f(x)'s row of
    # the magma, and in the composite one per x through f itself, zipped
    # back into maps. The magma and the maps both have n columns: one form.
    magma, maps = _Rows(base), _Rows(endos)
    gathers = tuple(map(magma.through, map(magma.form, zip(*endos))))

    def indices(gathered) -> tuple[int, ...]:
        return tuple(map(index.__getitem__, zip(*gathered)))

    add = tuple(indices([gather(magma.luts[f[x]]) for x, gather in enumerate(gathers)]) for f in endos)
    mul = tuple(indices([gather(lut) for gather in gathers]) for lut in maps.luts)
    identity = index[tuple(range(n))]
    return EndomorphismRingoid(
        size=len(endos),
        add=add,
        mul=mul,
        zero=None,
        one=identity,
        name=name or f"End(magma of size {n})",
        base=base,
        endos=endos,
    )


@dataclass(frozen=True, repr=False)
class AustereExtension(CayleyStructure):
    """Adjoins a fresh additive neutral to a unital magma with absorbing zero.

    Index 0 is the adjoined element; magma element k sits at index k+1.
    Addition collapses every pair of old elements to the old absorbing
    element, which makes the result zerosumfree and entire while destroying
    subtractivity of every intermediate one-sided ideal.
    """

    base_size: int = 0


def austere_extension(
    mul_table: Sequence[Sequence[int]], zero: int, one: int, name: str = ""
) -> AustereExtension:
    n = len(mul_table)
    base = freeze_table(mul_table, n, n, "magma")
    for label, v in (("zero", zero), ("one", one)):
        if not (_is_index(v) and 0 <= v < n):
            raise StructureError(f"{label}={v!r} is not an element of a {n}-element magma")
    if zero == one:
        raise StructureError("absorbing element and identity must differ")
    if any(base[one][x] != x or base[x][one] != x for x in range(n)):
        raise StructureError(f"{one} is not a two-sided identity")
    if any(base[zero][x] != zero or base[x][zero] != zero for x in range(n)):
        raise StructureError(f"{zero} is not absorbing")
    size = n + 1
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for a in range(size):
        add[a][0] = a
        add[0][a] = a
    for a in range(1, size):
        for b in range(1, size):
            add[a][b] = zero + 1
            mul[a][b] = base[a - 1][b - 1] + 1
    # row/column 0 of mul stays 0: the adjoined element absorbs multiplicatively
    return AustereExtension(
        size=size,
        add=tuple(map(tuple, add)),
        mul=tuple(map(tuple, mul)),
        zero=0,
        one=one + 1,
        name=name or f"austere extension of a {n}-element magma",
        base_size=n,
    )


def encode_tuple(values: Sequence[int], radices: Sequence[int]) -> int:
    """The index of a tuple whose digit p runs over range(radices[p])."""
    idx = 0
    for v, r in zip(values, radices):
        idx = idx * r + v
    return idx


def decode_tuple(idx: int, radices: Sequence[int]) -> tuple[int, ...]:
    size = math.prod(radices)
    if not 0 <= idx < size:
        raise StructureError(f"index {idx} outside 0..{size - 1}")
    out = []
    for r in reversed(radices):
        idx, d = divmod(idx, r)
        out.append(d)
    return tuple(reversed(out))


def product_table(tables: Sequence[Table]) -> list[list[int]]:
    """The componentwise operation on tuples, row tuple against column tuple.

    Each table's entries index its columns, so a factor may be a square
    operation table or a rectangular block of action rows. Folding one
    table at a time appends one big-endian digit to every row, column and
    entry.
    """
    out = [[0]]
    for t in tables:
        m = len(t[0])
        out = [[v * m + w for v in row for w in trow] for row in out for trow in t]
    return out


def convolution_table(s: CayleyStructure, terms: Sequence[Sequence[tuple]]) -> list[list[int]]:
    """The product of coefficient tuples over ``s``, with one coefficient
    per entry of ``terms``.

    Coefficient t of a*b is the sum, from the additive neutral and in the
    listed order, of a_i b_j over the (i, j, c) in ``terms[t]``, each
    multiplied on the right by c unless c is None.
    """
    n, add, mul = s.size, s.add, s.mul
    zero = _neutral(add, n)
    carrier = list(itertools.product(range(n), repeat=len(terms)))
    rows = []
    for a in carrier:
        row = []
        for b in carrier:
            idx = 0
            for coefficient in terms:
                acc = zero
                for i, j, c in coefficient:
                    v = mul[a[i]][b[j]]
                    acc = add[acc][v if c is None else mul[v][c]]
                idx = idx * n + acc
            row.append(idx)
        rows.append(row)
    return rows


@dataclass(frozen=True, repr=False)
class Hemialgebra(CayleyStructure):
    constants: Optional[StructureConstants] = None

    def coords(self, idx: int) -> tuple[int, ...]:
        return decode_tuple(idx, (self.constants.semifield.size,) * self.constants.dim)

    def index_of(self, coords: Sequence[int]) -> int:
        return encode_tuple(coords, (self.constants.semifield.size,) * self.constants.dim)


def hemialgebra(constants: StructureConstants, name: str = "") -> Hemialgebra:
    """Tuple space over a semifield with componentwise addition and the
    bilinear multiplication determined by the structure constants."""
    k = constants.semifield
    if not is_semifield(k):
        raise StructureError("structure constants must live over a semifield")
    dim, gamma = constants.dim, constants.gamma
    size = k.size**dim
    if size > CARRIER_CAP:
        raise CapExceeded(f"carrier of size {size} exceeds cap {CARRIER_CAP}")
    zero_k = check_laws(k).zero
    # a zero constant adds a zero term, and zero is neutral in a semifield
    terms = [
        [(i, j, gamma[i][j][t]) for i in range(dim) for j in range(dim) if gamma[i][j][t] != zero_k]
        for t in range(dim)
    ]
    return Hemialgebra(
        size=size,
        add=product_table([k.add] * dim),
        mul=convolution_table(k, terms),
        zero=encode_tuple([zero_k] * dim, [k.size] * dim),
        one=None,
        name=name or f"hemialgebra of dim {dim} over {k.name or 'K'}",
        constants=constants,
    )


def scalar_identity_witness(h: Hemialgebra) -> Optional[tuple[int, int, int]]:
    """Least (alpha, a, b) violating (alpha a)b = a(alpha b) = alpha(ab)."""
    k = h.constants.semifield
    kmul = k.mul
    ksize = k.size

    def scale(alpha, idx):
        coords = h.coords(idx)
        return h.index_of([kmul[alpha][c] for c in coords])

    for alpha in range(ksize):
        for a in range(h.size):
            for b in range(h.size):
                lhs = h.mul[scale(alpha, a)][b]
                mid = h.mul[a][scale(alpha, b)]
                rhs = scale(alpha, h.mul[a][b])
                if lhs != mid or mid != rhs:
                    return (alpha, a, b)
    return None


@dataclass(frozen=True, repr=False)
class NewmanReport:
    """Axiom-by-axiom verdicts plus re-verified consequences.

    ``derived`` stays None unless all four axioms hold with distinct zero and
    one; when populated, every entry has been re-checked exhaustively.
    """

    axioms: dict
    witnesses: dict
    zero: Optional[int]
    one: Optional[int]
    derived: Optional[dict]

    @property
    def newman_holds(self) -> bool:
        return all(self.axioms.values())


def newman_check(s: CayleyStructure, complement: Sequence[int]) -> NewmanReport:
    n, add, mul = s.size, s.add, s.mul
    comp = tuple(complement)
    if len(comp) != n or not all(_is_index(v) and 0 <= v < n for v in comp):
        raise StructureError("complement table malformed")

    zero = _neutral(add, n)
    one = next((e for e in range(n) if all(mul[x][e] == x for x in range(n))), None)
    found = {
        "n1_additive_unital": None if zero is not None else (),
        "n2_right_identity": None if one is not None else (),
        # the left law's witness, else the right law's (a witness is never empty)
        "n3_distributive": distributive_witness(add, mul) or distributive_witness(add, transpose(mul)),
        "n4_complement": () if zero is None or one is None else least_witness(
            (n,), lambda: ([(mul[a][c], add[a][c]) for a, c in enumerate(comp)], [(zero, one)] * n)
        ),
    }
    witnesses = {axiom: w for axiom, w in found.items() if w is not None}
    axioms = {axiom: axiom not in witnesses for axiom in found}

    derived = None
    if all(axioms.values()) and zero != one:
        rep = check_laws(s)
        derived = {
            "mul_idempotent": rep.mul_idempotent,
            "complemented": rep.complemented,
            "zero_absorbing": rep.zero_absorbing,
            "add_associative": rep.add_associative,
            "add_commutative": rep.add_commutative,
        }
        failed = sorted(k for k, v in derived.items() if not v)
        if failed:
            raise TheoremViolation(
                f"Newman axioms hold but derived facts fail: {failed}"
            )
    return NewmanReport(axioms=axioms, witnesses=witnesses, zero=zero, one=one, derived=derived)


@dataclass(frozen=True, repr=False)
class ProductStructure(CayleyStructure):
    factors: tuple = ()

    def coords(self, idx: int) -> tuple[int, ...]:
        return decode_tuple(idx, [f.size for f in self.factors])

    def index_of(self, coords: Sequence[int]) -> int:
        return encode_tuple(coords, [f.size for f in self.factors])


def direct_product(factors: Sequence[CayleyStructure], name: str = "") -> ProductStructure:
    factors = tuple(factors)
    if not factors:
        raise StructureError("need at least one factor")
    radices = [f.size for f in factors]
    size = math.prod(radices)
    if size > CARRIER_CAP:
        raise CapExceeded(f"product carrier of size {size} exceeds cap {CARRIER_CAP}")
    zero = one = None
    if all(f.zero is not None for f in factors):
        zero = encode_tuple([f.zero for f in factors], radices)
    if all(f.one is not None for f in factors):
        one = encode_tuple([f.one for f in factors], radices)
    return ProductStructure(
        size=size,
        add=product_table([f.add for f in factors]),
        mul=product_table([f.mul for f in factors]),
        zero=zero,
        one=one,
        name=name or " x ".join(f.name or "?" for f in factors),
        factors=factors,
    )


@dataclass(frozen=True, repr=False)
class MonoidSemiring(CayleyStructure):
    """Functions from a finite commutative monoid into a semiring.

    The coefficient tuple of index i is ``coeffs(i)``; entry g of the tuple
    is the coefficient attached to monoid element g.
    """

    base: Optional[CayleyStructure] = None
    monoid: Table = ()
    monoid_identity: int = 0

    def coeffs(self, idx: int) -> tuple[int, ...]:
        return decode_tuple(idx, (self.base.size,) * len(self.monoid))

    def index_of(self, coeffs: Sequence[int]) -> int:
        return encode_tuple(coeffs, (self.base.size,) * len(self.monoid))


def monoid_semiring(
    s: CayleyStructure, monoid: Sequence[Sequence[int]], name: str = ""
) -> MonoidSemiring:
    rep = check_laws(s)
    if not rep.is_semiring:
        raise StructureError("base must be a semiring")
    g, e = commutative_monoid_table(monoid)
    gn = len(g)
    size = s.size**gn
    if size > CARRIER_CAP:
        raise CapExceeded(f"monoid semiring of size {size} exceeds cap {CARRIER_CAP}")
    # coefficient k collects the index pairs (i, j) with g_i g_j = g_k
    terms: list[list[tuple]] = [[] for _ in range(gn)]
    for i in range(gn):
        for j in range(gn):
            terms[g[i][j]].append((i, j, None))
    radices = [s.size] * gn
    one_coeffs = [rep.zero] * gn
    one_coeffs[e] = rep.one
    return MonoidSemiring(
        size=size,
        add=product_table([s.add] * gn),
        mul=convolution_table(s, terms),
        zero=encode_tuple([rep.zero] * gn, radices),
        one=encode_tuple(one_coeffs, radices),
        name=name or f"{s.name or 'S'}[G] with |G|={gn}",
        base=s,
        monoid=g,
        monoid_identity=e,
    )


@dataclass(frozen=True, repr=False)
class PolynomialHemiring(CayleyStructure):
    """Polynomials over a hemiring truncated above a fixed degree.

    Coefficient tuples are degree-ascending. Dropping degrees above the cap
    is a congruence quotient, so every ringoid law of the base survives.
    """

    base: Optional[CayleyStructure] = None
    degree_cap: int = 0

    def coeffs(self, idx: int) -> tuple[int, ...]:
        return decode_tuple(idx, (self.base.size,) * (self.degree_cap + 1))

    def index_of(self, coeffs: Sequence[int]) -> int:
        return encode_tuple(coeffs, (self.base.size,) * (self.degree_cap + 1))


def truncated_polynomial_hemiring(
    h: CayleyStructure, degree_cap: int, name: str = ""
) -> PolynomialHemiring:
    rep = check_laws(h)
    if not rep.is_na_hemiring:
        raise StructureError("base must be a hemiring with commutative monoid addition")
    if not _is_index(degree_cap) or degree_cap < 0:
        raise StructureError(f"degree cap must be a nonnegative integer, got {degree_cap!r}")
    length = degree_cap + 1
    size = h.size**length
    if size > CARRIER_CAP:
        raise CapExceeded(f"polynomial carrier of size {size} exceeds cap {CARRIER_CAP}")
    radices = [h.size] * length
    one = None
    if rep.has_one:
        one = encode_tuple([rep.one] + [rep.zero] * degree_cap, radices)
    return PolynomialHemiring(
        size=size,
        add=product_table([h.add] * length),
        mul=convolution_table(h, [[(i, k - i, None) for i in range(k + 1)] for k in range(length)]),
        zero=encode_tuple([rep.zero] * length, radices),
        one=one,
        name=name or f"{h.name or 'H'}[X] truncated at degree {degree_cap}",
        base=h,
        degree_cap=degree_cap,
    )
