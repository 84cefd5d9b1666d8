"""The mask-loop minor scan that ``tetrahess.tncheck._full_scan`` replaced,
kept unchanged as the oracle of the differential tests in test_tncheck.py.

It fills one flat list of 4^n integer minors, order by order, at index
(row bitmask << n) | column bitmask, and visits every minor, the band's
structural zeros included, with a bit test per expansion term.
"""

from __future__ import annotations

from itertools import combinations

from tetrahess.tncheck import _MinorTable, _members


def _full_scan(table: _MinorTable, violates=lambda value: value < 0):
    """(first witness of a minor that ``violates``, or None; minors checked).
    The default test finds negative minors; ``value <= 0`` tests total
    positivity.  ``violates`` sees the scaled minor, which has the sign of
    the true one; the witness carries the true minor.  Enumeration order:
    minor order ascending, then row subsets lexicographic, then columns.

    Order-1 minors are read off the rows.  Past order 1 the minors fill one
    flat list, order by order, at index (row bitmask << n) | column bitmask.
    The minor on rows R and columns C expands along the first row r of R:
    each nonzero entry of row r in a column c of C contributes (-1)^p times
    the entry times the minor on R - {r}, C - {c}, filled one order below,
    with p the number of columns of C left of c."""
    n = len(table.rows)
    checked = 0
    for i, row in enumerate(table.rows):
        for j, value in enumerate(row):
            checked += 1
            if violates(value):
                return ((i + 1,), (j + 1,), table.true_minor((i,), value)), checked
    minors = [0] * (1 << 2 * n)
    # the nonzero (column bit, entry) pairs of each row: at most 4 in a
    # tetradiagonal truncation
    terms = []
    for i, row in enumerate(table.rows):
        terms.append(tuple((1 << j, v) for j, v in enumerate(row) if v != 0))
        for bit, v in terms[-1]:
            minors[1 << i + n | bit] = v
    for order in range(2, n + 1):
        masks = [sum(1 << i for i in subset) for subset in combinations(range(n), order)]
        for rmask in masks:
            first = rmask & -rmask
            expansion = terms[first.bit_length() - 1]
            below = (rmask ^ first) << n
            for cmask in masks:
                value = 0
                for bit, entry in expansion:
                    if cmask & bit:
                        if (cmask & (bit - 1)).bit_count() & 1:
                            value -= entry * minors[below | cmask ^ bit]
                        else:
                            value += entry * minors[below | cmask ^ bit]
                minors[rmask << n | cmask] = value
                checked += 1
                if violates(value):
                    rows, cols = _members(rmask), _members(cmask)
                    witness = (
                        tuple(i + 1 for i in rows),
                        tuple(j + 1 for j in cols),
                        table.true_minor(rows, value),
                    )
                    return witness, checked
    return None, checked
