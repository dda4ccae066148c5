"""Finite computational algebra for ringoids, semirings, and semimodules.

Builds finite structures from dense operation tables, enumerates their ideal
lattices and spectra, and mechanically verifies covering and avoidance
statements, exponent bounds for efficient coverings, compact packedness, and
zero-divisor decompositions on concrete instances.
"""

from .errors import CapExceeded, HypothesesUnmet, StructureError, TheoremViolation
from .tables import (
    CayleyStructure,
    FiniteSemimodule,
    LawReport,
    SemimoduleReport,
    StructureConstants,
    check_laws,
    is_semifield,
    semimodule_check,
    self_action,
)
from .constructions import (
    austere_extension,
    direct_product,
    endomorphism_ringoid,
    hemialgebra,
    monoid_semiring,
)
from .ideals import (
    IdealSet,
    IdealClassification,
    MultiplicativeSet,
    annihilator,
    classify_ideal,
    enumerate_ideals,
    generate_ideal,
    is_prime,
    is_subtractive,
    krull_separation,
    mult_closure,
    radical,
    t_semiprime_element,
)
from .covering import (
    WitnessReport,
    avoidance_witness,
    behrens_elements,
    davis_witness,
    is_efficient,
    mccoy_exponent,
    semiring_avoidance,
    t_semiprime_avoidance,
    union_avoidance_suite,
)
from .spectrum import (
    SpectrumReport,
    compactly_packed_battery,
    spec_of,
    zariski_axioms,
)
from .zerodivisors import (
    QuotientSemiring,
    ZeroDivisorReport,
    few_zero_divisors,
    kasch_semilocal_report,
    monoid_zd_check,
    property_a_check,
    total_quotient,
    zero_divisor_report,
)
from .corpus import corpus, corpus_entry, corpus_names
from .fileio import ingest

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
