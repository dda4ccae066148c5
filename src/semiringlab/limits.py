"""Default size caps.

``IDEAL_ENUM_CAP`` bounds the number of ideals one enumeration may produce,
not the carrier size. A carrier of at most 16 elements has at most 2^16
subsets, so it never trips there. ``CARRIER_CAP`` bounds what the package
builds, not what it is given: the carriers of products, hemialgebras and
monoid semirings (``constructions._carrier_size``, asked before anything
is built), the endomorphisms that ``magma_endomorphisms`` lists by
default, so the carrier of an endomorphism ringoid, and the polynomial
slices of ``monoid_zd_check``.
``CayleyStructure`` and ``fileio.ingest`` do not read it, so a table given
directly or in a file may be larger. ``BRUTE_FORCE_CAP`` bounds the
carriers whose subsets the brute-force ideal oracle filters.
"""

CARRIER_CAP = 4096
IDEAL_ENUM_CAP = 1 << 16
BRUTE_FORCE_CAP = 10
