"""The Fraction-valued Jacobi-Pineiro closed forms that the integer kernel
of ``tetrahess.families.jp_alphas`` replaced, kept unchanged as the oracle
of the differential tests in test_families.py.

Each alpha_j is built by Fraction arithmetic on (alpha, beta, gamma), one
gcd per operation, straight from the six-periodic formulas.
"""

from __future__ import annotations

from tetrahess.families import JPParams, Variant


def jp_value(p: JPParams, variant: Variant, j: int):
    """alpha_j (or the AKV tilde value) from the six-periodic closed forms."""
    n = (j - 1) // 6
    r = j - 6 * n
    a, b, g = p.alpha, p.beta, p.gamma
    if r == 1:
        return ((n + 1 + a) * (2 * n + 1 + a + g) * (2 * n + 1 + b + g)) / (
            (3 * n + 1 + a + g) * (3 * n + 2 + a + g) * (3 * n + 1 + b + g)
        )
    if r == 2:
        if variant is Variant.FIRST:
            return (n * (2 * n + 1 + g) * (2 * n + 1 + a + g)) / (
                (3 * n + 2 + a + g) * (3 * n + 1 + b + g) * (3 * n + 2 + b + g)
            )
        return ((n - a + b) * (2 * n + 1 + g) * (2 * n + 1 + b + g)) / (
            (3 * n + 2 + a + g) * (3 * n + 1 + b + g) * (3 * n + 2 + b + g)
        )
    if r == 3:
        if variant is Variant.FIRST:
            return ((n + 1) * (2 * n + 1 + g) * (2 * n + 2 + b + g)) / (
                (3 * n + 2 + a + g) * (3 * n + 3 + a + g) * (3 * n + 2 + b + g)
            )
        return ((n + 1 + a - b) * (2 * n + 1 + g) * (2 * n + 2 + a + g)) / (
            (3 * n + 2 + a + g) * (3 * n + 3 + a + g) * (3 * n + 2 + b + g)
        )
    if r == 4:
        return ((n + 1 + b) * (2 * n + 2 + a + g) * (2 * n + 2 + b + g)) / (
            (3 * n + 3 + a + g) * (3 * n + 2 + b + g) * (3 * n + 3 + b + g)
        )
    if r == 5:
        if variant is Variant.FIRST:
            return ((n + 1 + a - b) * (2 * n + 2 + g) * (2 * n + 2 + a + g)) / (
                (3 * n + 3 + a + g) * (3 * n + 4 + a + g) * (3 * n + 3 + b + g)
            )
        return ((n + 1) * (2 * n + 2 + g) * (2 * n + 2 + b + g)) / (
            (3 * n + 3 + a + g) * (3 * n + 4 + a + g) * (3 * n + 3 + b + g)
        )
    if variant is Variant.FIRST:
        return ((n + 1 - a + b) * (2 * n + 2 + g) * (2 * n + 3 + b + g)) / (
            (3 * n + 4 + a + g) * (3 * n + 3 + b + g) * (3 * n + 4 + b + g)
        )
    return ((n + 1) * (2 * n + 2 + g) * (2 * n + 3 + a + g)) / (
        (3 * n + 4 + a + g) * (3 * n + 3 + b + g) * (3 * n + 4 + b + g)
    )


def oracle_jp_alphas(p: JPParams, variant: Variant, count: int) -> tuple:
    """alpha_1 .. alpha_count by the Fraction closed forms."""
    return tuple(jp_value(p, variant, j) for j in range(1, count + 1))
