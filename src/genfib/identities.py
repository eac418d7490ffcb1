"""Structural identities: index addition and the Cassini-style determinant.

Every check is exact and returns both evaluated sides, so a failing
instance can be reported with its numbers. The sides are evaluated at one point by `addition_sides` and
`determinant_sides`, from fast doubling, and on a whole grid by
`addition_grid` and `determinant_grid`, which give the same sides from
linear passes.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import SequenceParams, check_prefix_cap, f_fast, g_fast, g_prefix
from .errors import DomainError


def invariant_quantity(p: SequenceParams) -> int:
    """D = b*u^2 + a*u*v - v^2, the determinant G_0*G_2 - G_1^2 of the seed window."""
    return p.b * p.u * p.u + p.a * p.u * p.v - p.v * p.v


def addition_sides(p: SequenceParams, m: int, n: int) -> tuple[int, int]:
    """Both sides of G_{m+n+1} = G_{m+1}*F_{n+1} + b*G_m*F_n."""
    lhs = g_fast(p, m + n + 1)
    rhs = g_fast(p, m + 1) * f_fast(p.a, p.b, n + 1) + p.b * g_fast(p, m) * f_fast(
        p.a, p.b, n
    )
    return lhs, rhs


def addition_grid(p: SequenceParams, max_m: int, max_n: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (m, n, lhs, rhs), the sides of `addition_sides`, for 0 <= m <= max_m, 0 <= n <= max_n, row by row.

    Every value comes from one prefix G_0..G_{max_m+max_n+1} and one prefix
    F_0..F_{max_n+1}. Raises DomainError for a negative bound, and
    ResourceLimitError, before building anything, when the two prefixes
    could hold more than EVAL_DIGIT_LIMIT digits in all.
    """
    if min(max_m, max_n) < 0:
        raise DomainError("max_m and max_n must be non-negative")
    fseq = SequenceParams(0, 1, p.a, p.b)
    check_prefix_cap(("G", p, max_m + max_n + 1), ("F", fseq, max_n + 1))
    g = g_prefix(p, max_m + max_n + 1)
    f = g_prefix(fseq, max_n + 1)
    for m in range(max_m + 1):
        g_next, bg = g[m + 1], p.b * g[m]
        for n in range(max_n + 1):
            yield m, n, g[m + n + 1], g_next * f[n + 1] + bg * f[n]


def determinant_sides(p: SequenceParams, n: int) -> tuple[int, int]:
    """Both sides of G_n*G_{n+2} - G_{n+1}^2 = (-b)^n * D."""
    lhs = g_fast(p, n) * g_fast(p, n + 2) - g_fast(p, n + 1) ** 2
    rhs = (-p.b) ** n * invariant_quantity(p)
    return lhs, rhs


def determinant_grid(p: SequenceParams, max_n: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, lhs, rhs), the sides of `determinant_sides`, for 0 <= n <= max_n.

    Walks (G_n, G_{n+1}, G_{n+2}) forward with a running (-b)^n, so it keeps
    no list and needs no cap. Raises DomainError for a negative bound.
    """
    if max_n < 0:
        raise DomainError("max_n must be non-negative")
    d = invariant_quantity(p)
    g0, g1, power = p.u, p.v, 1
    for n in range(max_n + 1):
        g2 = p.a * g1 + p.b * g0
        yield n, g0 * g2 - g1 * g1, power * d
        g0, g1, power = g1, g2, -p.b * power
