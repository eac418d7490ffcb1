"""Exact arithmetic in Z[w] with w^2 = a*w + b, and closed-form evaluation.

An element x + y*w is the int pair (x, y), and each operation takes the
ring's (a, b) first. The characteristic roots of x^2 - a*x - b are
alpha = w = (0, 1) and beta = a - w = (a, -1). Keeping w symbolic makes every
intermediate quantity an exact integer pair, so closed-form values can be
compared bit for bit against the recurrence. The Galois conjugation
w -> a - w takes alpha to beta, so beta^n is the conjugate of alpha^n, and
the closed form is read from alpha^n alone. (a, b) = (0, -1) is the ring of
Gaussian integers Z[i], in which `diophantine` assembles two-square
decompositions.
"""

from __future__ import annotations

from .core import SequenceParams, _require_index, check_digit_cap
from .errors import DegenerateDiscriminantError, NondegenerateDiscriminantError


def discriminant(a: int, b: int) -> int:
    """a^2 + 4*b; zero exactly when the characteristic roots coincide."""
    return a * a + 4 * b


def quad_mul(a: int, b: int, s: tuple[int, int], t: tuple[int, int]) -> tuple[int, int]:
    """Product of s and t in Z[w] with w^2 = a*w + b."""
    (x1, y1), (x2, y2) = s, t
    # (x1 + y1 w)(x2 + y2 w) = x1 x2 + y1 y2 b + (x1 y2 + x2 y1 + y1 y2 a) w
    yy = y1 * y2
    return (x1 * x2 + yy * b, x1 * y2 + x2 * y1 + yy * a)


def quad_pow(a: int, b: int, s: tuple[int, int], n: int) -> tuple[int, int]:
    """s**n in Z[w] with w^2 = a*w + b, by binary powering; n must be non-negative."""
    _require_index(n)
    result = (1, 0)
    while n:
        if n & 1:
            result = quad_mul(a, b, result, s)
        n >>= 1
        if n:
            s = quad_mul(a, b, s, s)
    return result


def binet_eval(p: SequenceParams, n: int) -> int:
    """Closed-form G_n for distinct characteristic roots, evaluated exactly.

    With alpha = w and beta = a - w,

        G_n = [v*(alpha^n - beta^n) + u*(alpha*beta^n - alpha^n*beta)] / (alpha - beta).

    If alpha^n = X + Y*w, its conjugate is beta^n = (X + a*Y) - Y*w, so the two
    differences are Y and X times alpha - beta = 2w - a, and G_n = u*X + v*Y
    with no division. n = 0 yields +u, which the recurrence demands.
    """
    check_digit_cap(p, n)
    if discriminant(p.a, p.b) == 0:
        raise DegenerateDiscriminantError(
            f"(a,b)=({p.a},{p.b}) has a repeated root; use binet_repeated_root"
        )
    x, y = quad_pow(p.a, p.b, (0, 1), n)
    return p.u * x + p.v * y


def binet_repeated_root(p: SequenceParams, n: int) -> int:
    """Closed-form G_n when the discriminant vanishes (both roots equal a/2).

    Returns (v*n + u*alpha*(1 - n)) * alpha^(n-1). a^2 + 4b = 0 makes a even,
    so alpha = a // 2 is exact. n = 0 is returned from the seed directly,
    which also covers alpha = 0.
    """
    check_digit_cap(p, n)
    if discriminant(p.a, p.b) != 0:
        raise NondegenerateDiscriminantError(
            f"(a,b)=({p.a},{p.b}) has distinct roots; use binet_eval"
        )
    if n == 0:
        return p.u
    alpha = p.a // 2
    return (p.v * n + p.u * alpha * (1 - n)) * alpha ** (n - 1)
