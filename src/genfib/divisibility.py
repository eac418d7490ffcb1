"""Divisibility structure of (u, v | a, b) sequences.

Covers the coprimality lemmas, index-divisibility of F, the gcd identity
gcd(F_m, F_n) = F_gcd(m,n), and the classification scan for sequences that
are divisibility sequences outright.

The gcd identity is checked at one point by `gcd_identity_check`, from three
fast-doubling evaluations, and on a whole max x max grid by
`gcd_identity_grid`, which reads every point from one linear prefix
F_0..F_max. The prefix takes O(max^2) digits, so a grid whose prefix could
pass `EVAL_DIGIT_LIMIT` digits is refused before anything is built, by the
`check_prefix_cap` of `core` that the addition grid of `identities` shares.
Both sides of the identity are symmetric in m and n, so the grid walks only
n >= m: a failure at (m, n) with m > n is also one at (n, m), earlier in
row-major order.

Two classes of sequence are divisibility sequences by proof, and
`check_divisible_sequence` gives their verdict without building a term:
  - b = 0: G_n = v*a^(n-1) for every n >= 1, so G_n | G_m whenever n | m
    (a = 0 and v = 0 included, under 0 | 0);
  - u = 0: G = v*F, and F_n | F_kn follows by induction on k from the
    addition identity F_(kn+n) = F_(kn+1)*F_n + b*F_kn*F_(n-1), for every
    integer a and b.
For every other sequence the pair scan builds terms only as far as the pair
under test needs, and passes over every n with G_n = +-1, since a unit
divides every term; past G_(_UNCAPPED_BOUND) it tests each new stretch of
prefix against the cap. The point checks leave the cap to the evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import (
    SequenceParams,
    check_prefix_cap,
    coprime_gate,
    f_fast,
    g_fast,
    g_prefix,
    is_cquence,
)
from .errors import DomainError, HypothesisViolationError

DIVISIBLE = "divisible"
COUNTEREXAMPLE = "counterexample"

# check_divisible_sequence tests the prefix cap only past this index: every
# prefix up to it is small, and the test would cost more than most scans.
_UNCAPPED_BOUND = 64


def divides(d: int, m: int) -> bool:
    """Ring-style divisibility: every d divides 0, while 0 divides only 0.

    Signs are ignored, so divides(-3, 6) and divides(3, -6) are both true.
    """
    if d == 0:
        return m == 0
    return m % d == 0


def _require_cquence(p: SequenceParams) -> None:
    if not is_cquence(p):
        raise HypothesisViolationError(
            f"(u,v|a,b)=({p.u},{p.v}|{p.a},{p.b}) fails the pairwise coprimality gate"
        )


def check_b_coprime(p: SequenceParams, n_max: int) -> bool:
    """gcd(b, G_n) = 1 for all 0 <= n <= n_max."""
    _require_cquence(p)
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    check_prefix_cap(("G", p, n_max))
    return all(gcd(p.b, g) == 1 for g in g_prefix(p, n_max))


def check_consecutive_coprime(p: SequenceParams, n_max: int) -> bool:
    """gcd(G_{n+1}, G_n) = 1 for all 0 <= n <= n_max."""
    _require_cquence(p)
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    check_prefix_cap(("G", p, n_max + 1))
    vals = g_prefix(p, n_max + 1)
    return all(gcd(vals[n + 1], vals[n]) == 1 for n in range(n_max + 1))


def check_f_divisible(a: int, b: int, n: int, k: int) -> bool:
    """F_n | F_{n*k}, under the divides() convention."""
    if n < 0 or k < 0:
        raise DomainError("n and k must be non-negative")
    f_nk = f_fast(a, b, n * k)  # the larger index when k >= 1: the one a refusal names
    return divides(f_fast(a, b, n), f_nk)


def _require_gcd_identity_pair(a: int, b: int) -> None:
    if b == 0 or gcd(a, b) != 1:
        raise HypothesisViolationError(
            f"(a,b)=({a},{b}) must satisfy b != 0 and gcd(a,b) = 1"
        )


def gcd_identity_check(a: int, b: int, m: int, n: int) -> bool:
    """gcd(F_m, F_n) = F_gcd(m,n), for the (0, 1 | a, b) sequence."""
    _require_gcd_identity_pair(a, b)
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive")
    f_top = f_fast(a, b, max(m, n))  # the larger index first: the one a refusal names
    return gcd(f_top, f_fast(a, b, min(m, n))) == f_fast(a, b, gcd(m, n))


def gcd_identity_grid(a: int, b: int, top: int) -> tuple[int, tuple[int, int] | None]:
    """Check gcd(F_m, F_n) = F_gcd(m,n) for 1 <= m, n <= top, row by row.

    Returns (checked, witness): the number of points checked and the first
    failing (m, n) in row-major order, or None when every point holds. This
    is what `gcd_identity_check` gives point by point, with the same
    hypothesis errors, but every value comes from one linear prefix
    F_0..F_top. For top <= 0 the grid is empty: nothing is checked, gated or
    built. Raises ResourceLimitError, before building anything, when the
    prefix could hold more than EVAL_DIGIT_LIMIT digits in all.

    gcd(F_m, F_n) and F_gcd(m,n) are both symmetric in m and n, so a failure
    at (m, n) with m > n means one at (n, m), which row-major order reaches
    first. The first failure therefore has m <= n, and each row is walked
    from its diagonal on; `checked` is still the row-major count
    (m - 1)*top + n, or top^2 when no point fails. The diagonal stays in the
    walk: gcd(x, x) = |x|, which is not x when x < 0.
    """
    if top < 1:
        return 0, None
    _require_gcd_identity_pair(a, b)
    f = SequenceParams(0, 1, a, b)
    check_prefix_cap(("F", f, top))
    vals = g_prefix(f, top)
    for m in range(1, top + 1):
        f_m = vals[m]
        for n in range(m, top + 1):
            if gcd(f_m, vals[n]) != vals[gcd(m, n)]:
                return (m - 1) * top + n, (m, n)
    return top * top, None


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of scanning one sequence for the divisibility-sequence property."""

    params: SequenceParams
    bound: int
    verdict: str  # DIVISIBLE or COUNTEREXAMPLE
    witness: tuple[int, int] | None

    @property
    def is_divisible(self) -> bool:
        return self.verdict == DIVISIBLE


def _require_bound(bound: int) -> None:
    if bound < 1:
        raise DomainError("bound must be positive")


def check_divisible_sequence(p: SequenceParams, bound: int) -> DivisibilityReport:
    """Test G_n | G_m for every pair 1 <= n <= m <= bound with n | m.

    Scans n ascending, then m ascending, and reports the first violating
    pair as the witness. Pairs with m = n are skipped as trivially true.

    Two classes are divisible at every index, so they are reported DIVISIBLE
    without a term being built:
      - b = 0: G_n = v*a^(n-1) for every n >= 1, so G_m = G_n*a^(m-n) and
        G_n | G_m whenever n | m. This holds for a = 0 and v = 0 too, since
        0 divides 0.
      - u = 0: G = v*F. By induction on k, the addition identity
        F_(kn+n) = F_(kn+1)*F_n + b*F_kn*F_(n-1) gives F_n | F_(kn+n) from
        F_n | F_kn, for every integer a and b, so G_n | G_kn.
    Otherwise G_0, G_1, ... are built only as far as the pair under test
    needs. An n with G_n = +-1 is passed over, since a unit divides every
    term, and n stops at bound // 2, past which no m = 2n, 3n, ... is in
    range. The witness is the one the full scan gives.

    Outside the two classes, the walk builds G_0..G_(_UNCAPPED_BOUND)
    untested, then grows in stages that end at twice the last end, or at
    bound. Each stage's prefix goes through `check_prefix_cap` before its
    first term is built, so a walk that stops first is never refused.
    """
    _require_bound(bound)
    a, b = p.a, p.b
    if b == 0 or p.u == 0:
        return DivisibilityReport(p, bound, DIVISIBLE, None)
    vals = [p.u, p.v]
    grow = vals.append
    # every term built lies in G_0..G_stage; G_n and G_(m-n) are built, so
    # m <= 2*stage and one doubling reaches m
    stage = _UNCAPPED_BOUND
    for n in range(1, bound // 2 + 1):
        # m = n reads the divisor G_n; m = 2n, 3n, ... the terms it must divide
        for m in range(n, bound + 1, n):
            if len(vals) <= m:
                if m > stage:
                    stage = min(2 * stage, bound)
                    check_prefix_cap(("G", p, stage))
                while len(vals) <= m:
                    grow(a * vals[-1] + b * vals[-2])
            if m == n:
                d = vals[n]
                if d == 1 or d == -1:
                    break
            # not divides(d, G_m), inlined: 0 divides only 0
            elif vals[m] % d if d else vals[m]:
                return DivisibilityReport(p, bound, COUNTEREXAMPLE, (n, m))
    return DivisibilityReport(p, bound, DIVISIBLE, None)


def check_gm_divides_fm(p: SequenceParams, m: int) -> bool:
    """G_m | F_m for the companion sequence with the same coefficients."""
    _require_cquence(p)
    if m < 0:
        raise DomainError("m must be non-negative")
    # G_m first: its digit bound is never below that of F_m
    return divides(g_fast(p, m), f_fast(p.a, p.b, m))


def check_ccop(p: SequenceParams, m: int, q: int) -> bool:
    """gcd(G_m, F_{m*q - 1}) = 1, assuming the sequence is divisible up to m*q."""
    _require_cquence(p)
    if m < 1 or q < 1:
        raise DomainError("m and q must be positive")
    # both terms first: a huge m or q is refused for its size, not by the gate
    g_m, f_mq = g_fast(p, m), f_fast(p.a, p.b, m * q - 1)
    gate = check_divisible_sequence(p, m * q)
    if not gate.is_divisible:
        raise HypothesisViolationError(
            f"sequence is not divisible up to {m * q}; witness {gate.witness}"
        )
    return gcd(g_m, f_mq) == 1


def scan_divisible(
    u_range: tuple[int, int],
    v_range: tuple[int, int],
    a_range: tuple[int, int],
    b_range: tuple[int, int],
    bound: int,
) -> list[tuple[SequenceParams, DivisibilityReport]]:
    """Scan a parameter grid and return the sequences divisible up to bound.

    Grid points with b != 0 enter only if they pass the coprimality gate.
    Points with b = 0 fall outside that gate entirely; they are admitted
    when the leading seed divides every later term, which for b = 0 reduces
    to u | v. Results follow the (u, v, a, b) grid order. A bound below 1 is
    refused whether or not any point passes the gate.
    """
    _require_bound(bound)
    survivors: list[tuple[SequenceParams, DivisibilityReport]] = []
    for u in range(u_range[0], u_range[1] + 1):
        for v in range(v_range[0], v_range[1] + 1):
            for a in range(a_range[0], a_range[1] + 1):
                for b in range(b_range[0], b_range[1] + 1):
                    if not (coprime_gate(u, v, a, b) if b else divides(u, v)):
                        continue
                    p = SequenceParams(u, v, a, b)
                    report = check_divisible_sequence(p, bound)
                    if report.is_divisible:
                        survivors.append((p, report))
    return survivors
