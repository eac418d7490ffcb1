"""Seeded generators for the benchmark's workloads.

Each generator turns a seed into a list of argv lists for `genfib.cli.run`.
The same seed always gives byte-identical lists: every draw comes from one
`random.Random` seeded with a string, which Python hashes with SHA-512 and so
does not depend on PYTHONHASHSEED.

The seed varies the inputs, not the amount of work. Costs per input are
heavy-tailed here (factoring one F_n can take 3 ms or 3 s), so a seed that
drew sizes freely would move `wall_s` more than any code change. Each
workload therefore fixes its shape (which subcommands, how many calls, grid
sizes, size strata) and lets the seed pick the values inside that shape.
"""

from __future__ import annotations

import math
import random

# The four coefficient pairs that the divisor-count acceptance criterion sweeps.
CRITERION_10_PAIRS = ((1, 1), (2, 1), (1, 2), (3, 1))

# Python refuses int -> str conversion above this many digits; `compute`
# evaluates G_n in full and then fails while writing the record.
INT_STR_DIGIT_LIMIT = 4300

# Fixed corpus for `is_prime` and generic factoring, fed through `bisquare --n`.
# Carmichael numbers (three Chernick (6k+1)(12k+1)(18k+1) and three small
# ones), products p(2p-1) with both factors prime, semiprimes of 19-25 digits
# with a 7-9 digit factor, the strong pseudoprime psi_9 = 3825123056546413051,
# and psi_12, psi_13, which are strong pseudoprimes to every prime base up to
# 37 and 41 respectively.
HARD_CORPUS = (
    1729,
    168011973623089,
    10386066643795453969,
    561,
    41041,
    825265,
    207132481,
    200007550071253,
    2000000827000085491,
    7689508527283867649654567,
    4798535463618468995659,
    277875660197838864654113,
    2934766667677383901,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

_DIRECT_SEARCH_LIMIT = 10**6


def _flags(**kwargs: int) -> list[str]:
    # `--x=-3` rather than `--x -3`: argparse reads a separate "-3..3" as an option.
    return [f"--{k.replace('_', '-')}={v}" for k, v in kwargs.items()]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def factor_sweep(rng: random.Random) -> list[list[str]]:
    """`tau-bounds` and `primitive` over the criterion-10 pairs, n-max 88..90.

    The pairs are not drawn: their costs differ 30-fold, so a draw would set
    the run time. Both subcommands run for (1, 1), (2, 1) and (1, 2); for
    (3, 1), which costs as much as the other three together, the seed picks
    one. The seed also picks each n-max and the order. Every n-max keeps
    index 85 of (3, 1), which exhausts the rho budget.
    """
    calls = [
        [cmd, *_flags(a=a, b=b, n_max=rng.randint(88, 90))]
        for a, b in CRITERION_10_PAIRS[:3]
        for cmd in ("tau-bounds", "primitive")
    ]
    calls.append([rng.choice(("tau-bounds", "primitive")), *_flags(a=3, b=1, n_max=rng.randint(88, 90))])
    rng.shuffle(calls)
    return calls


# Real-root pairs for `compute`; (3, -1) and (5, -6) give a positive
# subdominant root, the rest a negative one.
_REAL_ROOT_PAIRS = ((1, 1), (1, 2), (2, 1), (3, 1), (1, 3), (2, 3), (3, 2), (4, 1), (3, -1), (5, -6))
# Repeated-root pairs (a^2 + 4b = 0) with |root| > 1, for `binet_repeated_root`.
_REPEATED_ROOT_PAIRS = ((4, -4), (6, -9), (-4, -4), (8, -16))

_COMPUTE_STRATA = 20
# Digit strata run log-uniformly from 2 digits; the top stratum begins exactly
# at the int -> str limit, so every seed makes one over-limit call per method.
_DIGITS_LO = 2.0
_DIGITS_HI = _DIGITS_LO * (INT_STR_DIGIT_LIMIT / _DIGITS_LO) ** (_COMPUTE_STRATA / (_COMPUTE_STRATA - 1))


def _roots(a: int, b: int) -> tuple[float, float]:
    """The distinct real roots of x^2 - a x - b, the larger in size first."""
    r = math.sqrt(a * a + 4 * b)
    alpha, beta = (a + r) / 2, (a - r) / 2
    return (alpha, beta) if abs(alpha) >= abs(beta) else (beta, alpha)


def _log10_size(u: int, v: int, a: int, b: int, n: int) -> float:
    """log10 |G_n| from the dominant term of the closed form (float estimate)."""
    if a * a + 4 * b == 0:
        root = a / 2
        return (n - 1) * math.log10(abs(root)) + math.log10(abs(n * (v - u * root) + u * root))
    alpha, beta = _roots(a, b)
    return math.log10(abs((v - u * beta) / (alpha - beta))) + n * math.log10(abs(alpha))


def _dominant_term_clear(u: int, v: int, a: int, b: int) -> bool:
    """True when the seeds do not nearly cancel the dominant root's term."""
    if a * a + 4 * b == 0:
        return v * 2 != u * a
    return abs(v - u * _roots(a, b)[1]) > 0.5


def _index_for_digits(u: int, v: int, a: int, b: int, digits: float) -> int:
    """Smallest n >= 10 whose estimated |G_n| has at least `digits` digits."""
    lo, hi = 10, 10
    while _log10_size(u, v, a, b, hi) + 1 < digits:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _log10_size(u, v, a, b, mid) + 1 < digits:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _compute_call(rng: random.Random, method: str, stratum: int) -> list[str]:
    pool = _REAL_ROOT_PAIRS
    if method == "binet" and stratum % 2:
        pool = _REPEATED_ROOT_PAIRS
    a, b = rng.choice(pool)
    while True:
        u, v = rng.randint(-9, 9), rng.randint(-9, 9)
        if _dominant_term_clear(u, v, a, b):
            break
    width = math.log(_DIGITS_HI / _DIGITS_LO) / _COMPUTE_STRATA
    n = _index_for_digits(u, v, a, b, _DIGITS_LO * math.exp(width * (stratum + rng.random())))
    # Stay clear of the limit itself, where a one-digit estimate error would
    # move a call across it.
    over = stratum == _COMPUTE_STRATA - 1
    while abs(_log10_size(u, v, a, b, n) + 1 - INT_STR_DIGIT_LIMIT) < 3:
        n += 1 if over else -1
    return ["compute", *_flags(u=u, v=v, a=a, b=b, n=n), f"--method={method}"]


def _coprime_pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if b != 0 and math.gcd(a, b) == 1:
            return a, b


def eval_identity(rng: random.Random) -> list[list[str]]:
    """Evaluation, identity grids, gcd identity and divisibility scans; no factoring."""
    calls = [
        _compute_call(rng, method, stratum)
        for method in ("iter", "fast", "binet")
        for stratum in range(_COMPUTE_STRATA)
    ]
    for _ in range(3):
        a, b = _coprime_pair(rng, -3, 3)
        u, v = rng.randint(-20, 20), rng.randint(-20, 20)
        calls.append(["identity", "addition", *_flags(u=u, v=v, a=a, b=b, max_m=29, max_n=29)])
    for lo in (200, 250, 300):
        a, b = _coprime_pair(rng, -3, 3)
        u, v = rng.randint(-20, 20), rng.randint(-20, 20)
        max_n = rng.randint(lo, lo + 49)
        calls.append(["identity", "determinant", *_flags(u=u, v=v, a=a, b=b, max_n=max_n)])
    # Work grows as max^2, so the three sizes are drawn antithetically; positive
    # coefficients keep every F_n positive, so no call stops at a witness.
    d = rng.randint(0, 10)
    for top in (60 + d, 80, 100 - d):
        a, b = _coprime_pair(rng, 1, 4)
        calls.append(["gcd-identity", *_flags(a=a, b=b, max=top)])
    for _ in range(2):
        ranges = {}
        for name, width in (("u_range", 6), ("v_range", 6), ("a_range", 5), ("b_range", 6)):
            lo = rng.randint(-4, -1)
            ranges[name] = f"{lo}..{lo + width}"
        calls.append(["scan-divisible", *_flags(**ranges, bound=30)])
    rng.shuffle(calls)
    return calls


def _square_invariant_seeds(rng: random.Random) -> tuple[int, int]:
    """Non-negative seeds for a = b = 1 whose invariant D = u^2 + u v - v^2 makes D or -D a square."""
    while True:
        u, v = rng.randint(0, 30), rng.randint(1, 30)
        d = u * u + u * v - v * v
        if math.isqrt(abs(d)) ** 2 == abs(d):
            return u, v


def bisquare_mix(rng: random.Random) -> list[list[str]]:
    """Two-square classification on generic integers, the hard corpus and the 5x^2+4y^2=z^2 tools."""
    calls = []
    for _ in range(20):
        n = round(_log_uniform(rng, 2, _DIRECT_SEARCH_LIMIT))
        calls.append(["bisquare", *_flags(n=n)])
    for _ in range(20):
        n = round(_log_uniform(rng, _DIRECT_SEARCH_LIMIT + 1, 10**10))
        calls.append(["bisquare", *_flags(n=n)])
    calls += [["bisquare", *_flags(n=n)] for n in HARD_CORPUS]
    # Both enumerate z up to z-max at a cost growing as z-max^2, so the two
    # sizes are drawn antithetically around 2000.
    z_max = rng.randint(1950, 2050)
    calls.append(["dioph", "oracle", *_flags(z_max=z_max)])
    calls.append(["dioph", "complete", *_flags(z_max=4000 - z_max, lm_max=rng.randint(40, 50))])
    for _ in range(2):
        a, b = _coprime_pair(rng, 1, 3)
        calls.append(["bisquare", "scan", *_flags(u_max=rng.randint(45, 55), v_max=rng.randint(45, 55), a=a, b=b)])
    for _ in range(3):
        u, v = _square_invariant_seeds(rng)
        calls.append(
            ["alt-bisquable", *_flags(u=u, v=v, a=1, b=1, k_max=rng.randint(16, 18)),
             f"--parity={rng.choice(('even', 'odd'))}"]
        )
    rng.shuffle(calls)
    return calls


GENERATORS = {
    "factor-sweep": factor_sweep,
    "eval-identity": eval_identity,
    "bisquare-mix": bisquare_mix,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
