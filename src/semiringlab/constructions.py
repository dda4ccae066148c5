"""Constructors that assemble new structures from smaller data.

Every constructor returns a plain ``CayleyStructure``. Products,
hemialgebras and monoid semirings have tuple spaces for carriers, a radix
per digit, encoded big-endian, so the index order of the carrier agrees
with lexicographic order on the tuples and all outputs are deterministic.
Each is first sized against ``CARRIER_CAP``; then one builder makes it: it
adds componentwise with ``product_table``, multiplies with
``product_table`` or with ``convolution_table``, the bilinear product of
coefficient tuples, and places the designated zero and one with
``encode_tuple``. Those three functions are the only code that knows the
encoding.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .closure import ordered_search
from .errors import CapExceeded, StructureError
from .limits import CARRIER_CAP
from .tables import (
    CayleyStructure,
    StructureConstants,
    Table,
    check_laws,
    commutative_monoid_table,
    freeze_square,
    is_semifield,
    least_witness,
    medial_witness,
    _Rows,
    _int_in,
    _neutral,
)


def magma_endomorphisms(table: Table, cap: int = CARRIER_CAP) -> tuple[tuple[int, ...], ...]:
    """All maps f with f(x+y) = f(x)+f(y), in lexicographic order.

    The ordered search sets f(0), f(1), ... and at step k checks exactly
    the pairs (x, y) with max(x, y, x+y) = k, the ones whose equation
    f(0..k) has just fixed. So it lists the same maps as a filter over all
    n^n, and raises ``CapExceeded`` at the same (cap+1)-th map.
    """
    n = len(table)
    pairs = [[] for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        pairs[max(x, y, table[x][y])].append((x, y, table[x][y]))

    def fits(f, k):
        for x, y, xy in pairs[k]:
            if f[xy] != table[f[x]][f[y]]:
                return False
        return True

    endos = []
    for f in ordered_search(n, n, fits):
        endos.append(f)
        if len(endos) > cap:
            raise CapExceeded(f"more than {cap} endomorphisms")
    return tuple(endos)


def endomorphism_ringoid(table: Sequence[Sequence[int]], cap: int = CARRIER_CAP) -> CayleyStructure:
    """The endomorphisms of a medial magma under pointwise sum and composition."""
    # the table is frozen and proved medial once; its one row view serves
    # the proof and the gathers
    base = freeze_square(table, "magma")
    n = len(base)
    magma = _Rows(base)
    bad = medial_witness(magma)
    if bad is not None:
        raise StructureError(f"magma is not medial, witness {bad}")
    endos = magma_endomorphisms(base, cap)
    index = {f: i for i, f in enumerate(endos)}
    # gathers[x] gathers g(x) for every endomorphism g through a row. The
    # row of f in the sum is one gather per point x, through f(x)'s row of
    # the magma, and in the composite one per x through f itself, zipped
    # back into maps. The magma and the maps both have n columns: one form.
    maps = _Rows(endos)
    gathers = tuple(map(magma.through, map(magma.form, zip(*endos))))

    def indices(gathered) -> tuple[int, ...]:
        return tuple(map(index.__getitem__, zip(*gathered)))

    add = tuple(indices([gather(magma.luts[f[x]]) for x, gather in enumerate(gathers)]) for f in endos)
    mul = tuple(indices([gather(lut) for gather in gathers]) for lut in maps.luts)
    identity = index[tuple(range(n))]
    return CayleyStructure(len(endos), add, mul, one=identity, name=f"End(magma of size {n})")


def austere_extension(
    mul_table: Sequence[Sequence[int]], zero: int, one: int, name: str = ""
) -> CayleyStructure:
    """Adjoins a fresh additive neutral to a unital magma with absorbing zero.

    Index 0 is the adjoined element; magma element k sits at index k+1.
    Addition collapses every pair of old elements to the old absorbing
    element, which makes the result zerosumfree and entire while destroying
    subtractivity of every intermediate one-sided ideal.
    """
    base = freeze_square(mul_table, "magma")
    n = len(base)
    _int_in(zero, "zero", 0, n)
    _int_in(one, "one", 0, n)
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
    return CayleyStructure(
        size=size,
        add=tuple(map(tuple, add)),
        mul=tuple(map(tuple, mul)),
        zero=0,
        one=one + 1,
        name=name or f"austere extension of a {n}-element magma",
    )


def encode_tuple(values: Sequence[int], radices: Sequence[int]) -> int:
    """The index of a tuple whose digit p runs over range(radices[p]). A
    tuple of another length, or a digit outside its range, is refused."""
    if not isinstance(values, (list, tuple)) or len(values) != len(radices):
        raise StructureError(f"expected a tuple of {len(radices)} digits, got {values!r}")
    idx = 0
    for v, r in zip(values, radices):
        idx = idx * r + _int_in(v, "digit", 0, r)
    return idx


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


def _carrier_size(radices: Iterable[int]) -> int:
    """The product of ``radices``, read one at a time, and so an encoded
    carrier's size, refused when it exceeds ``CARRIER_CAP``; a size past
    2^64 is refused unprinted."""
    size = 1
    for r in radices:
        size *= r
        if size >> 64:
            raise CapExceeded(f"carrier of size over 2^64 exceeds cap {CARRIER_CAP}")
    if size > CARRIER_CAP:
        raise CapExceeded(f"carrier of size {size} exceeds cap {CARRIER_CAP}")
    return size


def _encoded(size: int, digits: Sequence[CayleyStructure], zero, one, name: str, terms=None) -> CayleyStructure:
    """The structure on the ``size`` tuples, as ``_carrier_size`` allowed,
    whose digit p is an element of ``digits[p]``, added componentwise, with
    the digit tuples ``zero`` and ``one`` (or None) designated.
    Multiplication is componentwise too, or, given ``terms``, the
    ``convolution_table`` over the structure every digit shares."""
    radices = tuple(d.size for d in digits)
    return CayleyStructure(
        size=size,
        add=product_table([d.add for d in digits]),
        mul=product_table([d.mul for d in digits]) if terms is None else convolution_table(digits[0], terms),
        zero=None if zero is None else encode_tuple(zero, radices),
        one=None if one is None else encode_tuple(one, radices),
        name=name,
    )


def hemialgebra(constants: StructureConstants, name: str = "") -> CayleyStructure:
    """Tuple space over a semifield with componentwise addition and the
    bilinear multiplication determined by the structure constants."""
    k = constants.semifield
    if not is_semifield(k):
        raise StructureError("structure constants must live over a semifield")
    dim, gamma = constants.dim, constants.gamma
    size = _carrier_size(itertools.repeat(k.size, dim))
    zero_k = check_laws(k).zero
    # a zero constant adds a zero term, and zero is neutral in a semifield
    terms = [
        [(i, j, gamma[i][j][t]) for i in range(dim) for j in range(dim) if gamma[i][j][t] != zero_k]
        for t in range(dim)
    ]
    name = name or f"hemialgebra of dim {dim} over {k.name or 'K'}"
    return _encoded(size, [k] * dim, [zero_k] * dim, None, name, terms)


def scalar_identity_witness(h: CayleyStructure, constants: StructureConstants) -> Optional[tuple[int, int, int]]:
    """Least (alpha, a, b) violating (alpha a)b = a(alpha b) = alpha(ab) in
    ``h``, the hemialgebra built from ``constants``: alpha runs over the
    semifield and scales every digit of a tuple."""
    mul = h.mul
    # scales[alpha][x] is the tuple x with every digit multiplied by alpha
    scales = [product_table([(row,)] * constants.dim)[0] for row in constants.semifield.mul]

    def rows(alpha: int, a: int) -> tuple[list, list]:
        scale, row = scales[alpha], mul[a]
        mid = list(map(row.__getitem__, scale))
        return list(zip(mul[scale[a]], mid)), list(zip(mid, map(scale.__getitem__, row)))

    return least_witness((len(scales), h.size, h.size), rows)


def direct_product(factors: Sequence[CayleyStructure], name: str = "") -> CayleyStructure:
    factors = tuple(factors)
    if not factors:
        raise StructureError("need at least one factor")
    size = _carrier_size(f.size for f in factors)
    zeros, ones = [f.zero for f in factors], [f.one for f in factors]
    return _encoded(
        size,
        factors,
        None if None in zeros else zeros,
        None if None in ones else ones,
        name or " x ".join(f.name or "?" for f in factors),
    )


def monoid_semiring(s: CayleyStructure, monoid: Sequence[Sequence[int]], name: str = "") -> CayleyStructure:
    """Functions from a finite commutative monoid into a semiring.

    Entry g of element i's digit tuple is the coefficient that i attaches
    to monoid element g.
    """
    rep = check_laws(s)
    if not rep.is_semiring:
        raise StructureError("base must be a semiring")
    g, e = commutative_monoid_table(monoid)
    gn = len(g)
    size = _carrier_size(itertools.repeat(s.size, gn))
    # coefficient k collects the index pairs (i, j) with g_i g_j = g_k
    terms: list[list[tuple]] = [[] for _ in range(gn)]
    for i in range(gn):
        for j in range(gn):
            terms[g[i][j]].append((i, j, None))
    one = [rep.zero] * gn
    one[e] = rep.one
    name = name or f"{s.name or 'S'}[G] with |G|={gn}"
    return _encoded(size, [s] * gn, [rep.zero] * gn, one, name, terms)
