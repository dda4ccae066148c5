"""Zero-divisor theory of finite semimodules.

Covers the radical decomposition of the zero-divisor set, associated primes,
Property (A), the total quotient semiring with its Kasch and semi-local
verdicts, and the bounded-degree monoid checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import CapExceeded, StructureError, TheoremViolation
from .limits import CARRIER_CAP
from .ideals import (
    IdealSet,
    TWO_SIDED,
    _element_mask,
    _ideal_prime,
    _ideal_radical,
    annihilator_rows,
    element_annihilators,
    ideal_masks,
    is_subtractive,
    mask_members,
    mask_of,
    maximal_masks,
    require_module_over,
    require_same_structure,
    union_mask,
)
from .covering import FAILS, HOLDS, UNMET, WitnessReport
from .spectrum import compactly_packed_battery, spec_of
from .tables import (
    CayleyStructure,
    FiniteSemimodule,
    _int_in,
    check_laws,
    require_commutative_semiring,
    require_semimodule,
    self_action,
)


def _nonzero_annihilator_rows(m: FiniteSemimodule) -> list[int]:
    """Per nonzero module element, in order, the mask of the scalars killing it."""
    return [row for x, row in enumerate(annihilator_rows(m)) if x != m.mzero]


def zero_divisor_mask(m: FiniteSemimodule) -> int:
    """Scalars killing some nonzero module element; empty for the zero module."""
    return union_mask(_nonzero_annihilator_rows(m))


@dataclass(frozen=True, repr=False)
class ZeroDivisorReport:
    zset: tuple[int, ...]
    radical_decomposition: tuple  # (module element, radical annihilator members)
    ass: tuple  # (module element, annihilator members) with the annihilator prime
    very_few: bool
    few: bool
    property_a: bool

    def __repr__(self):
        return (
            f"<ZeroDivisorReport z={list(self.zset)} ass={len(self.ass)} "
            f"very_few={self.very_few} property_a={self.property_a}>"
        )


def ass_primes(m: FiniteSemimodule) -> tuple[tuple[int, IdealSet], ...]:
    """Module elements whose annihilator, an ideal by construction, is prime."""
    return tuple(
        (x, ann)
        for x, ann in enumerate(element_annihilators(m))
        if x != m.mzero and ann.is_proper and _ideal_prime(m.semiring, ann.mask)[0]
    )


def property_a_check(
    s: CayleyStructure, m: FiniteSemimodule
) -> tuple[bool, Optional[IdealSet]]:
    """Every ideal inside the zero-divisor set kills a common nonzero element.

    Finiteness makes every ideal finitely generated, so the quantifier runs
    over the whole ideal lattice. Returns the least offending ideal if any.
    """
    require_commutative_semiring(s)
    require_module_over(s, m)
    require_semimodule(m)
    z = zero_divisor_mask(m)
    rows = _nonzero_annihilator_rows(m)
    for im in ideal_masks(s, TWO_SIDED):
        if im & ~z == 0 and not any(im & ~row == 0 for row in rows):
            return False, IdealSet(structure=s, side=TWO_SIDED, mask=im)
    return True, None


def zero_divisor_report(s: CayleyStructure, m: FiniteSemimodule) -> ZeroDivisorReport:
    """Zero-divisor decomposition with every theorem-backed equality asserted."""
    require_commutative_semiring(s)
    require_module_over(s, m)
    require_semimodule(m)
    z = zero_divisor_mask(m)

    radicals = [(x, _ideal_radical(s, ann.mask)) for x, ann in enumerate(element_annihilators(m)) if x != m.mzero]
    if union_mask(rad for _, rad in radicals) != z:
        raise TheoremViolation(
            "zero divisors differ from the union of radical annihilators"
        )

    # a maximal proper element annihilator is prime; it is the annihilator
    # of a nonzero element, so it is one of the associated primes
    ass = ass_primes(m)
    ass_masks = {ann.mask for _, ann in ass}
    full = (1 << s.size) - 1
    maximal = maximal_masks(row for row in _nonzero_annihilator_rows(m) if row != full)
    if any(am not in ass_masks for am in maximal):
        raise TheoremViolation("a maximal annihilator of a nonzero element is not prime")
    very_few = union_mask(ass_masks) == z
    if not very_few:
        raise TheoremViolation(
            "finite semimodule without very few zero-divisors, although every "
            "maximal annihilator is prime"
        )

    prop_a, _ = property_a_check(s, m)
    if not prop_a:
        raise TheoremViolation("finite semimodule without Property (A)")

    return ZeroDivisorReport(
        zset=mask_members(z),
        radical_decomposition=tuple((x, mask_members(rad)) for x, rad in radicals),
        ass=tuple((x, ann.members()) for x, ann in ass),
        very_few=very_few,
        few=union_mask(_subtractive_primes_inside(s, z)) == z,
        property_a=prop_a,
    )


def _subtractive_primes_inside(s: CayleyStructure, z: int) -> list[int]:
    """The masks of the subtractive primes inside the zero-divisor set z."""
    return [p.mask for p in spec_of(s) if p.issubset(z) and is_subtractive(p)[0]]


def few_zero_divisors(s: CayleyStructure) -> tuple[bool, tuple[IdealSet, ...]]:
    """Whether the zero-divisor set is a finite union of subtractive primes.

    The union of all subtractive primes inside the zero-divisor set is the
    largest union any subset of the spectrum can reach, so comparing it with
    the set itself decides existence outright; the returned decomposition is
    the maximal such primes.
    """
    require_commutative_semiring(s)
    z = zero_divisor_mask(self_action(s))
    inside = _subtractive_primes_inside(s, z)
    if union_mask(inside) != z:
        return False, ()
    maximal = sorted(maximal_masks(inside), key=mask_members)
    return True, tuple(IdealSet(structure=s, side=TWO_SIDED, mask=pm) for pm in maximal)


@dataclass(frozen=True, repr=False)
class QuotientSemiring:
    """Localization of a commutative semiring at its non-zero-divisors U.

    Pairs (a, u) collapse under the congruence demanding w*(a*v) = w*(b*u)
    for some w in U; the auxiliary factor is required because a
    non-zero-divisor of a semiring need not be additively cancellable. On a
    finite carrier the quotient is e*S, where e is the idempotent power of
    the product p of U: every u in U divides p and so e, so e*u is a unit of
    e*S, whose one is e; w*x = w*y for some w in U gives e*x = e*y, and e
    lies in U. The class of (a, u) is the element e*a*(e*u)^-1 of e*S.

    The extension of an ideal I, the classes of its pairs (a, u) with a in
    I, is the image of I under a -> e*a: (e*u)^-1 is some e*v, so the class
    e*a*(e*u)^-1 is e*(a*v), and a*v lies in I.
    """

    base: CayleyStructure
    structure: CayleyStructure
    units: tuple[int, ...]  # non-zero-divisors of the base, ascending
    canonical: tuple[int, ...]  # base element -> class of (element, 1)
    maximal_ideals: tuple[IdealSet, ...]

    def extend(self, ideal: IdealSet) -> IdealSet:
        require_same_structure(self.base, ideal, "the ideal")
        mask = mask_of(self.canonical[a] for a in mask_members(ideal.mask))
        return IdealSet(structure=self.structure, side=TWO_SIDED, mask=mask)

    def __repr__(self):
        return f"<QuotientSemiring size={self.structure.size} of {self.base.name or 'S'}>"


def total_quotient(s: CayleyStructure) -> QuotientSemiring:
    """The quotient as e*S (see :class:`QuotientSemiring`), with its classes
    numbered by their least pair, a then u ascending, and the tables of s
    restricted to their elements e*a*(e*u)^-1; when those classes are
    0..n-1 in order, the quotient's structure is s itself. The relation is
    still built by its definition and must be the kernel of x -> e*x; any
    failure of the lemma or of the quotient's laws raises
    :class:`TheoremViolation`."""
    rep = require_commutative_semiring(s)
    mul, add, n = s.mul, s.add, s.size
    z_mask = zero_divisor_mask(self_action(s))
    units = [u for u in range(n) if not z_mask >> u & 1]
    one = rep.one
    if one not in units:
        raise TheoremViolation("one turned out to be a zero-divisor")

    def kernel(row) -> list:
        """Per x, the mask of the y with row[y] = row[x]."""
        fibre = [0] * n
        for y, v in enumerate(row):
            fibre[v] |= 1 << y
        return [fibre[v] for v in row]

    # near[x] = {y : w*x = w*y for some non-zero-divisor w}
    near = [0] * n
    for w in units:
        near = [a | b for a, b in zip(near, kernel(mul[w]))]
    # e is the idempotent power of the product p of the non-zero-divisors
    p = one
    for u in units:
        p = mul[p][u]
    e = p
    while mul[e][e] != e:
        e = mul[e][p]
    times_e = mul[e]
    if near != kernel(times_e):
        raise TheoremViolation("localization relation is not the kernel of x -> e*x")

    e_s = sorted(set(times_e))
    inverse = {}
    for u in units:
        eu = times_e[u]
        inverse[u] = next((c for c in e_s if mul[eu][c] == e), None)
        if inverse[u] is None:
            raise TheoremViolation("a non-zero-divisor has no inverse in e*S")
    index: dict = {}  # class representative in e*S -> class, by least pair
    for a, u in itertools.product(range(n), units):
        index.setdefault(mul[times_e[a]][inverse[u]], len(index))
    # (a, 1) goes to e*a, since the inverse of e*1 in e*S is e itself
    canonical = tuple(index[x] for x in times_e)
    reps = list(index)
    size = len(reps)
    # classes numbered as the base's elements restrict s's tables to s itself,
    # so q is s, and reads the facts s has already computed
    q = s if reps == list(range(n)) else CayleyStructure(
        size=size,
        add=[[index[add[r][t]] for t in reps] for r in reps],
        mul=[[index[mul[r][t]] for t in reps] for r in reps],
        zero=canonical[rep.zero],
        one=canonical[one],
        name=f"Q({s.name or 'S'})",
    )
    try:
        require_commutative_semiring(q)
    except StructureError as exc:
        raise TheoremViolation(f"the total quotient breaks its laws: {exc}") from None

    for a in range(s.size):
        for b in range(s.size):
            if canonical[add[a][b]] != q.add[canonical[a]][canonical[b]]:
                raise TheoremViolation("canonical map is not additive")
            if canonical[mul[a][b]] != q.mul[canonical[a]][canonical[b]]:
                raise TheoremViolation("canonical map is not multiplicative")
    for u in units:
        if not any(q.mul[canonical[u]][c] == canonical[one] for c in range(size)):
            raise TheoremViolation("a non-zero-divisor failed to become a unit")

    full = (1 << size) - 1
    proper = (m for m in ideal_masks(q, TWO_SIDED) if m != full)
    maximal = tuple(IdealSet(structure=q, side=TWO_SIDED, mask=m) for m in maximal_masks(proper))
    return QuotientSemiring(
        base=s,
        structure=q,
        units=tuple(units),
        canonical=canonical,
        maximal_ideals=maximal,
    )


def annihilator_extension_check(q: QuotientSemiring, x: int) -> bool:
    """The extension of an element annihilator equals the annihilator of the
    element's image, for every base element x."""
    _element_mask(q.base, [x])
    base_ann = element_annihilators(self_action(q.base))[x]
    image_ann = element_annihilators(self_action(q.structure))[q.canonical[x]]
    return q.extend(base_ann).mask == image_ann.mask


@dataclass(frozen=True)
class KaschReport:
    kasch: bool
    semilocal: bool
    very_few: bool
    maximal_matches: tuple  # (maximal ideal members, annihilating element or None)
    few_zero_divisors: bool  # of the base, as :func:`few_zero_divisors` decides it
    decomposition: tuple[IdealSet, ...]  # the base's maximal subtractive primes inside its zero divisors


def kasch_semilocal_report(q: QuotientSemiring) -> KaschReport:
    """Match every maximal ideal of the quotient against element annihilators,
    decide whether the base has few zero divisors, and recompute the
    zero-divisor verdicts inside the quotient."""
    qs = q.structure
    module = self_action(qs)
    anns = [a.mask for a in element_annihilators(module)]
    # each maximal ideal with the least element whose annihilator it is, or None
    matches = [(m.members(), next((x for x, a in enumerate(anns) if a == m.mask), None)) for m in q.maximal_ideals]
    kasch = all(found is not None for _, found in matches)

    few, decomposition = few_zero_divisors(q.base)
    semilocal = True
    if few:
        extensions = {q.extend(p).mask for p in decomposition}
        semilocal = extensions == {m.mask for m in q.maximal_ideals}

    zrep = zero_divisor_report(qs, module)
    return KaschReport(
        kasch=kasch,
        semilocal=semilocal,
        very_few=zrep.very_few,
        maximal_matches=tuple(matches),
        few_zero_divisors=few,
        decomposition=decomposition,
    )


def _annihilated(f, madd, act, mz: int) -> bool:
    """Whether some nonzero g with len(f) coefficients has f·g = 0.

    Coefficient k of f·g folds the terms f_i·g_(k-i) over i ascending from
    ``mz``. For k < len(f) it reads only g_0..g_k, so the walk picks g's
    coefficients in order, as :func:`~semiringlab.closure.ordered_search`
    does, and leaves a value as soon as its coefficient is not zero; a
    complete g still checks the coefficients past its last one and that it
    is not the zero polynomial. It keeps its own walk because the kernel's
    per-step call made the deep slices 17-25% slower with the fold inside
    it, and with each coefficient's terms built ahead took memory quadratic
    in the length (210 MiB against 13 MiB on 2,048 coefficients).
    """
    length = len(f)
    rows = [act[fi] for fi in f]
    top = len(madd) - 1
    g = [-1] * length
    k = 0
    while k >= 0:
        if g[k] == top:
            g[k] = -1
            k -= 1
            continue
        g[k] += 1
        c = mz
        for i in range(k + 1):
            c = madd[c][rows[i][g[k - i]]]
        if c != mz:
            continue
        if k + 1 < length:
            k += 1
            continue
        if g.count(mz) == length:
            continue
        for high in range(length, 2 * length - 1):
            c = mz
            for i in range(high - length + 1, length):
                c = madd[c][rows[i][g[high - i]]]
            if c != mz:
                break
        else:
            return True
    return False


def monoid_zd_check(
    s: CayleyStructure, m: FiniteSemimodule, degree_cap: int
) -> WitnessReport:
    """Both inclusions of the zero-divisor decomposition over a bounded slice
    of polynomial scalars and polynomial module elements.

    Scalars are tuples of base coefficients indexed by exponents 0..degree_cap.
    The containment direction that rests on an external annihilation theorem
    is downgraded to witness search: an absent annihilator in the slice is
    inconclusive, never a refutation. For each scalar f, ``_annihilated``
    searches the module slice coefficient by coefficient and cuts a branch
    at its first nonzero coefficient of f·g. The tallies read only whether
    an annihilator exists, never which one, so the order of the search
    cannot change them; each coefficient still folds its terms as the full
    convolution does, so a table that breaks a law gets the same answer.
    Slices of more than ``CARRIER_CAP`` scalars or module polynomials raise
    :class:`CapExceeded` up front.
    """
    length = _int_in(degree_cap, "degree cap") + 1
    require_module_over(s, m)
    # testing the length first keeps the power small and bounds 1-element carriers
    if length > CARRIER_CAP or max(s.size, m.msize) ** length > CARRIER_CAP:
        raise CapExceeded(f"degree cap {degree_cap} gives a slice of more than {CARRIER_CAP} polynomials")
    rep = check_laws(s)
    if not rep.is_commutative_semiring:
        return WitnessReport(verdict=UNMET, violated_hypothesis="commutative-semiring")
    battery = compactly_packed_battery(s)
    if not battery.compactly_packed:
        return WitnessReport(verdict=UNMET, violated_hypothesis="compactly-packed")
    prop_a, bad = property_a_check(s, m)
    if not prop_a:
        return WitnessReport(
            verdict=UNMET, violated_hypothesis="property-a", details={"ideal": bad.members()}
        )
    z_mask = zero_divisor_mask(m)
    decomposition = maximal_masks(ann.mask for _, ann in ass_primes(m))
    if union_mask(decomposition) != z_mask:
        raise TheoremViolation("associated primes do not cover the zero divisors")

    killers = _nonzero_annihilator_rows(m)
    tallies = {
        "slice_size": 0,
        "sup_checked": 0,
        "sup_witnessed": 0,
        "sub_witnessed": 0,
        "sub_inconclusive": 0,
        "sub_violations": 0,
    }
    for f in itertools.product(range(s.size), repeat=length):
        tallies["slice_size"] += 1
        coefficients = mask_of(f)
        in_decomposition = any(coefficients & ~pm == 0 for pm in decomposition)
        if in_decomposition:
            tallies["sup_checked"] += 1
            if not any(coefficients & ~row == 0 for row in killers):
                raise TheoremViolation(
                    "polynomial with coefficients in a decomposition prime has "
                    "no constant annihilator despite Property (A)"
                )
            tallies["sup_witnessed"] += 1
        if _annihilated(f, m.madd, m.action, m.mzero):
            if in_decomposition:
                tallies["sub_witnessed"] += 1
            else:
                tallies["sub_violations"] += 1
        elif not in_decomposition:
            tallies["sub_inconclusive"] += 1
    verdict = HOLDS if tallies["sub_violations"] == 0 else FAILS
    return WitnessReport(verdict=verdict, details=tallies)
