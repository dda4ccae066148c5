"""Default size caps.

``IDEAL_ENUM_CAP`` bounds the number of closed sets (ideals or
subsemimodules) one enumeration may produce, not the carrier size. A
carrier of at most 16 elements has at most 2^16 subsets, so it never trips
there. ``CARRIER_CAP`` bounds carrier sizes and polynomial slices, and
``BRUTE_FORCE_CAP`` the carriers whose subsets the brute-force ideal oracle
filters.
"""

CARRIER_CAP = 4096
IDEAL_ENUM_CAP = 1 << 16
BRUTE_FORCE_CAP = 10
