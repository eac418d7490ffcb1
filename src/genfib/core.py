"""Two-term linear recurrences G_n = a*G_{n-1} + b*G_{n-2} over exact integers.

A sequence is determined by its seeds (u, v) = (G_0, G_1) and coefficients
(a, b). The sequence with seeds (0, 1) plays a special role and is written F
throughout. Evaluation is offered both by the direct recurrence (linear time,
the reference oracle) and by fast doubling (logarithmic time). The fast path
is one iterative ladder that carries (F_k, F_{k+1}) over the bits of n; any
G_n is then the split G_n = u*F_{n+1} + (v - a*u)*F_n.

The direct recurrence `g_iter` walks up to 64 terms per step. The addition
identity G_{m+n+1} = G_{m+1}*F_{n+1} + b*G_m*F_n at n = s - 1 and n = s maps
(G_k, G_{k+1}) to (G_{k+s}, G_{k+s+1}) by four fixed multipliers b*F_{s-1},
F_s, b*F_s and F_{s+1}, each below 2^60, which are read off the same
one-term recurrence from (0, 1). It stays linear and shares no code with the
doubling ladder. `g_prefix` keeps the plain one-term loop.

Sizes are bounded before anything is evaluated. `check_digit_cap` refuses one
term that could pass `EVAL_DIGIT_LIMIT` digits, after refusing a negative
index with DomainError; every evaluator here and in `quadfield` calls it
first, `f_fast` only when a plain-int pre-test (`_under_cap`) has not already
cleared the index. `check_prefix_cap` refuses a set of prefixes, and the code
that builds them calls it; `g_prefix` itself is uncapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd, isqrt, log10, sqrt

from .errors import DomainError, ResourceLimitError

# Evaluating G_n is refused up front when its value could have more decimal
# digits than this.
EVAL_DIGIT_LIMIT = 10**6

# g_iter's block step: at most this many terms, with every multiplier below
# this bound (two 30-bit digits of a CPython int).
_BLOCK_MAX = 64
_BLOCK_MULT = 2**60


@dataclass(frozen=True)
class SequenceParams:
    """Seeds and coefficients (u, v | a, b) of one sequence."""

    u: int
    v: int
    a: int
    b: int


def digit_count(n: int) -> int:
    """The number of decimal digits of n != 0, counted without str.

    log10 is off by far less than 1/2, so 10^k with k = round(log10|n|) is
    the one power of ten the count can turn on.
    """
    k = round(log10(abs(n)))
    return k + (abs(n) >= 10**k)


def int_text(n: int) -> str:
    """n in decimal for a message, or by its digit count past the interpreter's int -> str limit."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' * (n < 0)}<{digit_count(n)}-digit int>"


def _require_index(n: int) -> None:
    if n < 0:
        raise DomainError(f"index must be non-negative, got {int_text(n)}")


def digit_bound(p: SequenceParams, n: int) -> float:
    """An upper bound on the number of decimal digits of G_n, n >= 0, from the roots of x^2 - a*x - b.

    Whether the roots alpha, beta are distinct, repeated or complex,
    F_n = sum of alpha^k * beta^(n-1-k) over 0 <= k < n, so |F_n| <= n*R^(n-1)
    with R the larger root modulus, taken as 1 if it is smaller. Then
    G_n = v*F_n + b*u*F_{n-1} gives |G_n| <= (|v| + |b*u|) * n * R^(n-1), whose
    log10, plus one, bounds the digit count. Once (n - 1)*log10(R) reaches
    2^40, or past n = 10^18, the figure is an int that cannot overflow or
    lose digits, and at least (n - 1)*log10(R).
    """
    _require_index(n)
    if n == 0:
        return log10(max(abs(p.u), 1)) + 1
    d = p.a * p.a + 4 * p.b
    if d < 0:
        log_r = log10(-p.b) / 2
    else:
        # 2R = |a| + sqrt(d); above float range, isqrt(d) + 1 bounds sqrt(d)
        twice = abs(p.a) + (sqrt(d) if d.bit_length() <= 1000 else isqrt(d) + 1)
        log_r = log10(twice) - log10(2) if twice > 2 else 0.0
    head = log10(max(abs(p.v) + abs(p.b * p.u), 1)) + log10(n)
    # log_r is 0 or at least log10(2)/2 for integer a, b, so its rounding is a
    # few units in 2^-50 of itself, and the float sum below the switch is off
    # by less than 2^-7 of a digit. From a growth of 2^40 on, the int path's
    # raise of log_r by 2^-40 of itself adds a whole digit or more, which
    # covers that rounding and the rounding of head.
    if n <= 10**18 and (n - 1) * log_r < 2**40:
        return head + (n - 1) * log_r + 1
    num, den = (log_r * (1 + 2**-40)).as_integer_ratio()
    return ceil(head) + 1 - (1 - n) * num // den


def _under_cap(u: int, v: int, a: int, b: int, n: int) -> bool:
    """True when a plain-int test shows that G_n of (u, v | a, b) is far under the digit cap.

    The test is n >= 0 and (n + 1)*L <= EVAL_DIGIT_LIMIT, with L the bit
    length of s = |u| + |v| + |a| + |b| + 1. It proves that `digit_bound`
    stays below the cap, so that neither SequenceParams nor the bound need
    be built. As s < 2^L, log10(s) < 0.302*L. The larger root modulus R is
    sqrt|b| < s for complex roots, and otherwise (|a| + sqrt(d))/2 with
    d = a^2 + 4b <= (|a| + 2 sqrt|b|)^2, so R <= |a| + sqrt|b| < s; above
    float range the bound takes isqrt(d) + 1 for sqrt(d), which adds at most
    1/2 to R and keeps it at most s. With x = |u| + |v| + |b|,
    |v| + |b*u| <= |v| + x^2 < (x + 1)^2 <= s^2. So for n >= 1 the bound is
    at most 2*log10(s) + log10(n) + (n - 1)*log10(s) + 1
    < 0.302*EVAL_DIGIT_LIMIT + log10(EVAL_DIGIT_LIMIT) + 1, and at n = 0 it
    is log10(max(|u|, 1)) + 1 <= log10(s) + 1. Both are far below the cap,
    beyond any float rounding, and (n - 1)*log10(R) stays under the 2^40 at
    which the bound would switch to its int path.
    """
    return n >= 0 and (n + 1) * (abs(u) + abs(v) + abs(a) + abs(b) + 1).bit_length() <= EVAL_DIGIT_LIMIT


def check_digit_cap(p: SequenceParams, n: int) -> None:
    """Raise ResourceLimitError when G_n could have more than EVAL_DIGIT_LIMIT digits.

    An index that `_under_cap` passes needs no `digit_bound`.
    """
    if _under_cap(p.u, p.v, p.a, p.b, n):
        return
    digits = int(digit_bound(p, n))
    if digits > EVAL_DIGIT_LIMIT:
        raise ResourceLimitError(
            f"G_{int_text(n)} may have up to {int_text(digits)} digits, above the {EVAL_DIGIT_LIMIT}-digit cap")


def check_prefix_cap(*prefixes: tuple[str, SequenceParams, int]) -> None:
    """Raise ResourceLimitError when the prefixes could hold more than EVAL_DIGIT_LIMIT digits in all.

    Each (X, p, n) names the prefix X_0..X_n of p. The digit bound grows with
    the index from 1 on, so no term of a prefix has more digits than the
    larger of its bounds at 0 and at n.
    """
    sizes = [(x, n, max(digit_bound(p, 0), digit_bound(p, n))) for x, p, n in prefixes]
    # every length and bound is at least one, so a factor clipped just past
    # the cap still puts its term over it, and no float overflows
    clip = EVAL_DIGIT_LIMIT + 1
    if sum(min(n + 1, clip) * min(d, clip) for _, n, d in sizes) > EVAL_DIGIT_LIMIT:
        names = " and ".join(f"{x}_0..{x}_{int_text(n)}" for x, n, _ in sizes)
        digits = " + ".join(f"{int_text(n + 1)} x {int_text(int(d))}" for _, n, d in sizes)
        raise ResourceLimitError(
            f"{names} may have up to {digits} digits, above the {EVAL_DIGIT_LIMIT}-digit cap")


def coprime_gate(u: int, v: int, a: int, b: int) -> bool:
    """Pairwise-coprimality gate used by the divisibility lemmas, on plain ints.

    True iff b != 0 and gcd(u,v) = gcd(u,b) = gcd(a,b) = gcd(b,v) = 1, with
    gcd taken on absolute values and gcd(0, x) = |x|.
    """
    return b != 0 and gcd(u, v) == 1 and gcd(u, b) == 1 and gcd(a, b) == 1 and gcd(b, v) == 1


def is_cquence(p: SequenceParams) -> bool:
    """`coprime_gate` on the seeds and coefficients of p."""
    return coprime_gate(p.u, p.v, p.a, p.b)


def g_iter(p: SequenceParams, n: int) -> int:
    """G_n by the direct recurrence, s terms per step; the linear-time reference path.

    The addition identity G_{m+n+1} = G_{m+1}*F_{n+1} + b*G_m*F_n, taken at
    m = k with n = s - 1 and n = s, maps (G_k, G_{k+1}) to
        G_{k+s}   = F_s*G_{k+1}     + b*F_{s-1}*G_k
        G_{k+s+1} = F_{s+1}*G_{k+1} + b*F_s*G_k,
    four multiplications by fixed small ints in place of s one-term steps.
    F_{s-1}, F_s, F_{s+1} come from the same one-term recurrence from (0, 1).
    s is the largest block up to _BLOCK_MAX with 2s < n whose multipliers,
    and those of every smaller block, stay below _BLOCK_MULT; (n - 1) mod s
    one-term steps finish the walk. With s = 1 only the one-term loop runs.
    """
    check_digit_cap(p, n)
    if n == 0:
        return p.u
    a, b = p.a, p.b
    # (F_{s-1}, F_s, F_{s+1}). Block s + 1 adds the multipliers b*F_{s+1} and
    # F_{s+2} to those of block s; block 2's a*b and a^2 + b are both below
    # _BLOCK_MULT only when block 1's a and b are.
    s, f_prev, f, f_next = 1, 0, 1, a
    while s < _BLOCK_MAX and 2 * s + 2 < n:
        f_after = a * f_next + b * f
        if abs(b * f_next) >= _BLOCK_MULT or abs(f_after) >= _BLOCK_MULT:
            break
        s, f_prev, f, f_next = s + 1, f, f_next, f_after
    lo, hi = p.u, p.v
    steps = n - 1
    if s > 1:
        bf_prev, bf = b * f_prev, b * f
        for _ in range(steps // s):
            lo, hi = bf_prev * lo + f * hi, bf * lo + f_next * hi
        steps %= s
    for _ in range(steps):
        lo, hi = hi, a * hi + b * lo
    return hi


def g_prefix(p: SequenceParams, n_max: int) -> list[int]:
    """[G_0, ..., G_{n_max}] in one linear pass, with no size cap."""
    _require_index(n_max)
    out = [p.u]
    lo, hi = p.u, p.v
    for _ in range(n_max):
        out.append(hi)
        lo, hi = hi, p.a * hi + p.b * lo
    return out


def _f_pair(a: int, b: int, n: int) -> tuple[int, int]:
    # Fast doubling over the bits of n from the top. From (F_k, F_{k+1}):
    #   F_{2k}   = F_k * (2*F_{k+1} - a*F_k)
    #   F_{2k+1} = F_{k+1}^2 + b*F_k^2
    f, g = 0, 1
    for bit in f"{n:b}":
        f, g = f * (2 * g - a * f), g * g + b * f * f
        if bit == "1":
            f, g = g, a * g + b * f
    return f, g


def f_fast(a: int, b: int, n: int) -> int:
    """F_n for seeds (0, 1), in O(log n) doubling steps."""
    if not _under_cap(0, 1, a, b, n):
        check_digit_cap(SequenceParams(0, 1, a, b), n)
    return _f_pair(a, b, n)[0]


def g_fast(p: SequenceParams, n: int) -> int:
    """G_n in O(log n), via F-doubling and the seed split G_n = u*F_{n+1} + (v - a*u)*F_n.

    This is G_n = v*F_n + b*u*F_{n-1} with b*F_{n-1} = F_{n+1} - a*F_n, so it
    holds for every n >= 0 and every b, b = 0 included.
    """
    check_digit_cap(p, n)
    f_n, f_next = _f_pair(p.a, p.b, n)
    return p.u * f_next + (p.v - p.a * p.u) * f_n
