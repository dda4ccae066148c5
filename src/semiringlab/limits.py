"""Default size caps.

``IDEAL_ENUM_CAP`` bounds the number of closed sets (ideals, subsemimodules,
annihilator ideals) one enumeration may produce, not the carrier size; a
carrier of at most 16 elements has at most 2^16 subsets, so it never trips
there. The other caps bound carrier sizes and powerset enumerations.
"""

CARRIER_CAP = 4096
IDEAL_ENUM_CAP = 1 << 16
SPEC_POWERSET_CAP = 20
BRUTE_FORCE_CAP = 10
