"""Exact arithmetic in Z[w] with w^2 = a*w + b, and closed-form evaluation.

The characteristic roots of x^2 - a*x - b are alpha = w and beta = a - w.
Keeping w symbolic makes every intermediate quantity an exact integer pair,
so closed-form values can be compared bit for bit against the recurrence.
The Galois conjugation w -> a - w takes alpha to beta, so beta^n is the
conjugate of alpha^n, and the closed form is read from alpha^n alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SequenceParams, _require_index, check_digit_cap
from .errors import (
    DegenerateDiscriminantError,
    NondegenerateDiscriminantError,
    ParameterMismatchError,
)


def discriminant(a: int, b: int) -> int:
    """a^2 + 4*b; zero exactly when the characteristic roots coincide."""
    return a * a + 4 * b


@dataclass(frozen=True)
class QuadInt:
    """x + y*w in the ring defined by w^2 = a*w + b, with integer coefficients."""

    x: int
    y: int
    a: int
    b: int

    @classmethod
    def one(cls, a: int, b: int) -> "QuadInt":
        return cls(1, 0, a, b)

    @classmethod
    def omega(cls, a: int, b: int) -> "QuadInt":
        return cls(0, 1, a, b)

    def _check(self, other: "QuadInt") -> None:
        if self.a != other.a or self.b != other.b:
            raise ParameterMismatchError(
                f"operands live in different rings: (a,b)=({self.a},{self.b}) "
                f"vs ({other.a},{other.b})"
            )

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.x + other.x, self.y + other.y, self.a, self.b)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.x - other.x, self.y - other.y, self.a, self.b)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        return quad_mul(self, other)

    def scaled(self, c: int) -> "QuadInt":
        return QuadInt(self.x * c, self.y * c, self.a, self.b)


def quad_mul(s: QuadInt, t: QuadInt) -> QuadInt:
    """Product in Z[w]; reduces w^2 via w^2 = a*w + b."""
    s._check(t)
    # (x1 + y1 w)(x2 + y2 w) = x1 x2 + y1 y2 b + (x1 y2 + x2 y1 + y1 y2 a) w
    x = s.x * t.x + s.y * t.y * s.b
    y = s.x * t.y + t.x * s.y + s.y * t.y * s.a
    return QuadInt(x, y, s.a, s.b)


def quad_pow(s: QuadInt, n: int) -> QuadInt:
    """s**n by binary powering; n must be non-negative."""
    _require_index(n)
    result = QuadInt.one(s.a, s.b)
    base = s
    while n:
        if n & 1:
            result = quad_mul(result, base)
        base = quad_mul(base, base)
        n >>= 1
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
    an = quad_pow(QuadInt.omega(p.a, p.b), n)
    return p.u * an.x + p.v * an.y


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
