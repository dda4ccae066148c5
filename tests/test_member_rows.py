"""The member-row kernel of ``tables`` against its comprehension: per row x
of a table T, the mask of the y with T[x][y] in a mask M. The kernel's
format follows T's values, so the tables below cross the 256-value window
boundary with any number of columns."""

import random

from semiringlab.corpus import boolean_semifield, componentwise_module
from semiringlab.ideals import annihilator_rows
from semiringlab.tables import member_rows, member_view


def comprehension(table, mask):
    return tuple(sum(1 << y for y, v in enumerate(row) if mask >> v & 1) for row in table)


def test_member_rows_match_the_comprehension():
    """Square and rectangular tables of 1-300 rows and columns, with 1,
    255, 256, 257 and 512 values, against masks with stray bits above the
    values."""
    rng = random.Random(0)
    shapes = [(1, 1), (1, 300), (300, 1), (300, 300), (257, 3), (5, 257)]
    for values in (1, 255, 256, 257, 512):
        for rows, cols in shapes + [(rng.randint(1, 300), rng.randint(1, 300)) for _ in range(3)]:
            table = tuple(tuple(rng.randrange(values) for _ in range(cols)) for _ in range(rows))
            view = member_view(table)
            stray = rng.getrandbits(300) << values
            masks = (0, (1 << values) - 1, 1 << values - 1, rng.getrandbits(values), rng.getrandbits(values) | stray)
            for mask in masks:
                assert member_rows(view, mask) == comprehension(table, mask), (rows, cols, values, mask)


def test_module_annihilators_with_more_values_than_scalars():
    """The transposed action of boolean^9 on itself has 512 rows, one per
    module element, 2 columns, one per scalar, and 512 values: a view that
    picked its format by column count would take bytes rows and fail."""
    m = componentwise_module(boolean_semifield(), 9)
    rows = annihilator_rows(m)
    assert rows == tuple(
        sum(1 << r for r, row in enumerate(m.action) if row[x] == m.mzero) for x in range(m.msize)
    )
    assert rows[m.mzero] == 0b11 and rows.count(0b01) == m.msize - 1
