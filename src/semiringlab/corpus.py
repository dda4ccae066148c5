"""Built-in example structures.

Every entry records the claims its structure must satisfy and the flags its
documentation asserts; both are re-verified on every full run. Indices for
derived carriers follow the constructors' big-endian tuple encoding.

The nonnegative integers under ordinary arithmetic are the classic semiring
that is NOT compactly packed: the ideal of non-units sits inside the union
of the prime ideals generated by the prime numbers without sitting inside
any single one. That semiring is infinite, so it ships as this note rather
than as an entry; the saturating family below is its finite stand-in, and
``saturating(k)`` lets the packedness of each member be computed rather
than assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .constructions import (
    StructureConstants,
    austere_extension,
    direct_product,
    encode_tuple,
    hemialgebra,
    monoid_semiring,
    product_table,
    _encoded,
)
from .errors import StructureError
from .tables import CayleyStructure, FiniteSemimodule, check_laws, failing_claims, self_action

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    structure: CayleyStructure
    claims: tuple[str, ...]
    flags: dict = field(default_factory=dict)  # documented booleans, re-verified
    ideals: dict = field(default_factory=dict)  # name -> generator index tuple
    doc: str = ""


def boolean_semifield() -> CayleyStructure:
    return CayleyStructure(
        size=2,
        add=((0, 1), (1, 1)),
        mul=((0, 0), (0, 1)),
        zero=0,
        one=1,
        name="boolean",
    )


def chain_semiring() -> CayleyStructure:
    """Three-element chain 0 < a < 1 with max addition and multiplication
    that is null except against the top element."""
    return CayleyStructure(
        size=3,
        add=((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        mul=((0, 0, 0), (0, 0, 1), (0, 1, 2)),
        zero=0,
        one=2,
        name="chain-3",
    )


def saturating(top: int) -> CayleyStructure:
    """Integers 0..top with addition and multiplication clamped at the top."""
    if top < 1:
        raise StructureError("need at least two elements")
    size = top + 1
    add = [[min(a + b, top) for b in range(size)] for a in range(size)]
    mul = [[min(a * b, top) for b in range(size)] for a in range(size)]
    return CayleyStructure(
        size=size, add=add, mul=mul, zero=0, one=1, name=f"saturating-{size}"
    )


def diamond_lattice() -> CayleyStructure:
    """Four-element Boolean lattice 0 < a, b < 1 as a join/meet semiring."""
    return CayleyStructure(
        size=4,
        add=((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)),
        mul=((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)),
        zero=0,
        one=3,
        name="lattice-4",
    )


def dual_numbers_mod2() -> CayleyStructure:
    """The eight-element ring spanned by 1, x, y with xx = xy = yy = 0 over
    the two-element field. Element (a, b, c) = a + bx + cy sits at index
    4a + 2b + c."""
    f2 = CayleyStructure(size=2, add=((0, 1), (1, 0)), mul=((0, 0), (0, 1)), zero=0, one=1, name="f2")
    # the coefficients of 1, x and y in (a + bx + cy)(d + ex + fy): ad, ae + bd, af + cd
    terms = [[(0, 0, None)], [(0, 1, None), (1, 0, None)], [(0, 2, None), (2, 0, None)]]
    return _encoded(8, [f2] * 3, (0, 0, 0), (1, 0, 0), "f2xy", terms)


def cross_constants() -> StructureConstants:
    """The cross product on three Boolean coordinates: gamma[i][j][k] is
    the coefficient of basis k in the product of basis i and j."""
    gamma = (
        ((0, 0, 0), (0, 0, 1), (0, 1, 0)),
        ((0, 0, 1), (0, 0, 0), (1, 0, 0)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 0)),
    )
    return StructureConstants(semifield=boolean_semifield(), dim=3, gamma=gamma)


def cross_product_hemiring() -> CayleyStructure:
    return hemialgebra(cross_constants(), name="bool3-cross")


def austere_z6() -> CayleyStructure:
    """Additively collapsed extension of the multiplicative monoid of the
    integers mod 6. Index 0 is the adjoined additive neutral; index k+1 is
    the residue k."""
    z6 = [[(i * j) % 6 for j in range(6)] for i in range(6)]
    return austere_extension(z6, zero=0, one=1, name="austere-z6")


def boolean_square() -> CayleyStructure:
    s = direct_product([boolean_semifield(), boolean_semifield()], name="bool2")
    return s


def boolean_c2() -> CayleyStructure:
    return monoid_semiring(boolean_semifield(), ((0, 1), (1, 0)), name="bool-c2")


def componentwise_module(s: CayleyStructure, copies: int) -> FiniteSemimodule:
    """The semiring acting coordinatewise on tuples of itself."""
    rep = check_laws(s)
    return FiniteSemimodule(
        semiring=s,
        msize=s.size**copies,
        madd=product_table([s.add] * copies),
        mzero=encode_tuple((rep.zero,) * copies, (s.size,) * copies),
        action=[product_table([(row,)] * copies)[0] for row in s.mul],
        name=f"{s.name}^{copies}",
    )


def zero_module(s: CayleyStructure) -> FiniteSemimodule:
    return FiniteSemimodule(
        semiring=s, msize=1, madd=((0,),), mzero=0, action=((0,),) * s.size,
        name=f"zero module over {s.name}",
    )


@functools.lru_cache(maxsize=None)
def corpus() -> tuple[CorpusEntry, ...]:
    semiring_claims = ("ringoid", "semiring")
    entries = (
        CorpusEntry(
            name="austere-z6",
            structure=austere_z6(),
            claims=semiring_claims + ("zerosumfree", "entire"),
            flags={
                "commutative": True,
                "entire": True,
                "zerosumfree": True,
                "weak_gaussian": False,
                "compactly_packed": False,
                "subtractive": False,
            },
            ideals={
                "I": (3, 4),  # residues 2 and 3
                "M1": (3,),  # residue 2
                "M2": (4,),  # residue 3
            },
            doc="every intermediate one-sided ideal fails subtractivity, and "
            "the predefined covering defeats avoidance",
        ),
        CorpusEntry(
            name="bool-c2",
            structure=boolean_c2(),
            claims=semiring_claims,
            flags={
                "commutative": True,
                "entire": True,
                "weak_gaussian": False,
                "compactly_packed": True,
                "subtractive": False,
            },
            doc="boolean coefficients convolved over the two-element group",
        ),
        CorpusEntry(
            name="bool2",
            structure=boolean_square(),
            claims=semiring_claims + ("mul_idempotent", "complemented"),
            flags={
                "commutative": True,
                "entire": False,
                "weak_gaussian": True,
                "compactly_packed": True,
                "subtractive": True,
            },
            ideals={"axis1": (2,), "axis2": (1,)},
            doc="componentwise square of the boolean semifield",
        ),
        CorpusEntry(
            name="bool3-cross",
            structure=cross_product_hemiring(),
            claims=("ringoid", "na_hemiring"),
            flags={"mul_associative": False, "has_one": False},
            doc="cross product over boolean coordinates; the standard "
            "non-associativity example",
        ),
        CorpusEntry(
            name="boolean",
            structure=boolean_semifield(),
            claims=semiring_claims + ("entire", "mul_idempotent", "semifield"),
            flags={
                "commutative": True,
                "entire": True,
                "weak_gaussian": True,
                "compactly_packed": True,
                "subtractive": True,
            },
            doc="two-element semifield: max and min on {0, 1}",
        ),
        CorpusEntry(
            name="chain-3",
            structure=chain_semiring(),
            claims=semiring_claims + ("zerosumfree",),
            flags={
                "commutative": True,
                "entire": False,
                "weak_gaussian": True,
                "compactly_packed": True,
                "subtractive": True,
            },
            ideals={"nilpotents": (1,)},
            doc="chain with null products below the top; its middle ideal is "
            "the radical of the middle element",
        ),
        CorpusEntry(
            name="f2xy",
            structure=dual_numbers_mod2(),
            claims=semiring_claims,
            flags={
                "commutative": True,
                "entire": False,
                "weak_gaussian": True,
                "compactly_packed": True,
                "subtractive": True,
            },
            ideals={"x": (2,), "y": (1,), "x+y": (3,), "maximal": (2, 1)},
            doc="square-zero plane extension of the two-element field; the "
            "three lines cover the maximal ideal efficiently",
        ),
        CorpusEntry(
            name="lattice-4",
            structure=diamond_lattice(),
            claims=semiring_claims + ("mul_idempotent", "complemented"),
            flags={
                "commutative": True,
                "entire": False,
                "weak_gaussian": True,
                "compactly_packed": True,
                "subtractive": True,
            },
            doc="four-element Boolean lattice; join for addition, meet for "
            "multiplication",
        ),
        CorpusEntry(
            name="saturating-4",
            structure=saturating(3),
            claims=semiring_claims + ("entire", "zerosumfree"),
            flags={
                "commutative": True,
                "entire": True,
                "weak_gaussian": False,
                "compactly_packed": True,
                "subtractive": False,
            },
            doc="clamped integer arithmetic on {0, 1, 2, 3}",
        ),
    )
    for entry in entries:
        failing = failing_claims(entry.structure, entry.claims)
        if failing:
            raise StructureError(f"corpus entry {entry.name} fails its own claims: {failing}")
    return entries


def corpus_entry(name: str) -> CorpusEntry:
    for entry in corpus():
        if entry.name == name:
            return entry
    raise KeyError(f"no corpus entry named {name!r}")


def corpus_names() -> tuple[str, ...]:
    return tuple(e.name for e in corpus())


def corpus_semimodules(entry: CorpusEntry) -> dict:
    """Named semimodules attached to an entry: the self action everywhere,
    plus a componentwise square and the zero module over the boolean entry."""
    rep = check_laws(entry.structure)
    out = {}
    if rep.is_semiring:
        out["self"] = self_action(entry.structure)
    if entry.name == "boolean":
        out["square"] = componentwise_module(entry.structure, 2)
        out["zero"] = zero_module(entry.structure)
    return out
