"""Constructors that assemble new structures from smaller data.

Every constructed carrier is a tuple space encoded big-endian, so the index
order of the carrier agrees with lexicographic order on the tuples and all
outputs are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapExceeded, StructureError, TheoremViolation
from .limits import CARRIER_CAP
from .tables import (
    CayleyStructure,
    StructureConstants,
    Table,
    check_laws,
    distributive_witness,
    freeze_table,
    is_semifield,
    least_witness,
    medial_witness,
    transpose,
    _additive_laws,
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
    size = len(endos)
    add = [
        [index[tuple(base[f[x]][g[x]] for x in range(n))] for g in endos]
        for f in endos
    ]
    mul = [[index[tuple(f[g[x]] for x in range(n))] for g in endos] for f in endos]
    identity = index[tuple(range(n))]
    return EndomorphismRingoid(
        size=size,
        add=tuple(map(tuple, add)),
        mul=tuple(map(tuple, mul)),
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


def encode_tuple(values: Sequence[int], base: int) -> int:
    idx = 0
    for v in values:
        idx = idx * base + v
    return idx


def decode_tuple(idx: int, base: int, length: int) -> tuple[int, ...]:
    if not 0 <= idx < base**length:
        raise StructureError(f"index {idx} outside 0..{base**length - 1}")
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        idx, out[pos] = divmod(idx, base)
    return tuple(out)


@dataclass(frozen=True, repr=False)
class Hemialgebra(CayleyStructure):
    constants: Optional[StructureConstants] = None

    def coords(self, idx: int) -> tuple[int, ...]:
        return decode_tuple(idx, self.constants.semifield.size, self.constants.dim)

    def index_of(self, coords: Sequence[int]) -> int:
        return encode_tuple(coords, self.constants.semifield.size)


def hemialgebra(constants: StructureConstants, cap: int = CARRIER_CAP, name: str = "") -> Hemialgebra:
    """Tuple space over a semifield with componentwise addition and the
    bilinear multiplication determined by the structure constants."""
    k = constants.semifield
    if not is_semifield(k):
        raise StructureError("structure constants must live over a semifield")
    rep = check_laws(k)
    dim, ksize = constants.dim, k.size
    size = ksize**dim
    if size > cap:
        raise CapExceeded(f"carrier of size {size} exceeds cap {cap}")
    kadd, kmul = k.add, k.mul
    gamma = constants.gamma
    carrier = list(itertools.product(range(ksize), repeat=dim))

    zero_k = rep.zero
    add_rows = []
    mul_rows = []
    for a in carrier:
        add_rows.append([encode_tuple([kadd[x][y] for x, y in zip(a, b)], ksize) for b in carrier])
    for a in carrier:
        row = []
        for b in carrier:
            coeffs = [zero_k] * dim
            for i in range(dim):
                if a[i] == zero_k:
                    continue
                for j in range(dim):
                    if b[j] == zero_k:
                        continue
                    scale = kmul[a[i]][b[j]]
                    for t in range(dim):
                        term = kmul[scale][gamma[i][j][t]]
                        coeffs[t] = kadd[coeffs[t]][term]
            row.append(encode_tuple(coeffs, ksize))
        mul_rows.append(row)
    return Hemialgebra(
        size=size,
        add=tuple(map(tuple, add_rows)),
        mul=tuple(map(tuple, mul_rows)),
        zero=encode_tuple([zero_k] * dim, ksize),
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
    comp = tuple(int(v) for v in complement)
    if len(comp) != n or any(not 0 <= v < n for v in comp):
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
        if not 0 <= idx < self.size:
            raise StructureError(f"index {idx} outside 0..{self.size - 1}")
        out = []
        for f in reversed(self.factors):
            idx, r = divmod(idx, f.size)
            out.append(r)
        return tuple(reversed(out))

    def index_of(self, coords: Sequence[int]) -> int:
        idx = 0
        for f, c in zip(self.factors, coords):
            idx = idx * f.size + c
        return idx


def direct_product(factors: Sequence[CayleyStructure], cap: int = CARRIER_CAP, name: str = "") -> ProductStructure:
    factors = tuple(factors)
    if not factors:
        raise StructureError("need at least one factor")
    size = 1
    for f in factors:
        size *= f.size
    if size > cap:
        raise CapExceeded(f"product carrier of size {size} exceeds cap {cap}")

    def pack(values):
        idx = 0
        for f, c in zip(factors, values):
            idx = idx * f.size + c
        return idx

    coords = [tuple(c) for c in itertools.product(*(range(f.size) for f in factors))]
    add = [
        [pack([f.add[a[p]][b[p]] for p, f in enumerate(factors)]) for b in coords]
        for a in coords
    ]
    mul = [
        [pack([f.mul[a[p]][b[p]] for p, f in enumerate(factors)]) for b in coords]
        for a in coords
    ]
    zero = None
    if all(f.zero is not None for f in factors):
        zero = pack([f.zero for f in factors])
    one = None
    if all(f.one is not None for f in factors):
        one = pack([f.one for f in factors])
    return ProductStructure(
        size=size,
        add=tuple(map(tuple, add)),
        mul=tuple(map(tuple, mul)),
        zero=zero,
        one=one,
        name=name or " x ".join(f.name or "?" for f in factors),
        factors=factors,
    )


def commutative_monoid_table(table: Sequence[Sequence[int]]) -> tuple[Table, int]:
    """Validate a commutative monoid table, returning it with its identity."""
    n = len(table)
    t = freeze_table(table, n, n, "monoid")
    associative, commutative, _ = _additive_laws(t, ())
    if associative is not None:
        raise StructureError(f"monoid operation not associative, witness {associative}")
    if commutative is not None:
        raise StructureError(f"monoid operation not commutative, witness {commutative}")
    e = _neutral(t, n)
    if e is None:
        raise StructureError("monoid has no identity")
    return t, e


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
        return decode_tuple(idx, self.base.size, len(self.monoid))

    def index_of(self, coeffs: Sequence[int]) -> int:
        return encode_tuple(coeffs, self.base.size)


def monoid_semiring(
    s: CayleyStructure, monoid: Sequence[Sequence[int]], cap: int = CARRIER_CAP, name: str = ""
) -> MonoidSemiring:
    rep = check_laws(s)
    if not rep.is_semiring:
        raise StructureError("base must be a semiring")
    g, e = commutative_monoid_table(monoid)
    gn = len(g)
    size = s.size**gn
    if size > cap:
        raise CapExceeded(f"monoid semiring of size {size} exceeds cap {cap}")
    sadd, smul = s.add, s.mul
    zero_s = rep.zero
    # bucket the index pairs contributing to each convolution coefficient
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(gn)]
    for i in range(gn):
        for j in range(gn):
            buckets[g[i][j]].append((i, j))
    carrier = list(itertools.product(range(s.size), repeat=gn))
    add_rows = []
    mul_rows = []
    for a in carrier:
        add_rows.append(
            [encode_tuple([sadd[x][y] for x, y in zip(a, b)], s.size) for b in carrier]
        )
    for a in carrier:
        row = []
        for b in carrier:
            coeffs = []
            for k in range(gn):
                acc = zero_s
                for i, j in buckets[k]:
                    acc = sadd[acc][smul[a[i]][b[j]]]
                coeffs.append(acc)
            row.append(encode_tuple(coeffs, s.size))
        mul_rows.append(row)
    one_coeffs = [zero_s] * gn
    one_coeffs[e] = rep.one
    return MonoidSemiring(
        size=size,
        add=tuple(map(tuple, add_rows)),
        mul=tuple(map(tuple, mul_rows)),
        zero=encode_tuple([zero_s] * gn, s.size),
        one=encode_tuple(one_coeffs, s.size),
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
        return decode_tuple(idx, self.base.size, self.degree_cap + 1)

    def index_of(self, coeffs: Sequence[int]) -> int:
        return encode_tuple(coeffs, self.base.size)


def truncated_polynomial_hemiring(
    h: CayleyStructure, degree_cap: int, cap: int = CARRIER_CAP, name: str = ""
) -> PolynomialHemiring:
    rep = check_laws(h)
    if not rep.is_na_hemiring:
        raise StructureError("base must be a hemiring with commutative monoid addition")
    if degree_cap < 0:
        raise StructureError("degree cap must be nonnegative")
    length = degree_cap + 1
    size = h.size**length
    if size > cap:
        raise CapExceeded(f"polynomial carrier of size {size} exceeds cap {cap}")
    hadd, hmul = h.add, h.mul
    zero_h = rep.zero
    carrier = list(itertools.product(range(h.size), repeat=length))
    add_rows = [
        [encode_tuple([hadd[x][y] for x, y in zip(a, b)], h.size) for b in carrier]
        for a in carrier
    ]
    mul_rows = []
    for a in carrier:
        row = []
        for b in carrier:
            coeffs = []
            for k in range(length):
                acc = zero_h
                for i in range(k + 1):
                    acc = hadd[acc][hmul[a[i]][b[k - i]]]
                coeffs.append(acc)
            row.append(encode_tuple(coeffs, h.size))
        mul_rows.append(row)
    one = None
    if rep.has_one:
        one_coeffs = [zero_h] * length
        one_coeffs[0] = rep.one
        one = encode_tuple(one_coeffs, h.size)
    return PolynomialHemiring(
        size=size,
        add=tuple(map(tuple, add_rows)),
        mul=tuple(map(tuple, mul_rows)),
        zero=encode_tuple([zero_h] * length, h.size),
        one=one,
        name=name or f"{h.name or 'H'}[X] truncated at degree {degree_cap}",
        base=h,
        degree_cap=degree_cap,
    )
