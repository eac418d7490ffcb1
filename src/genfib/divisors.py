"""Integer factorization and the divisor structure of F_n.

`factorize` is the generic route: trial division by the primes below 1000,
then one split of whatever composite remains. Its results, and its budget
failures, are memoised. Primality is the Baillie-PSW test: a strong test to
base 2, then an almost-extra-strong Lucas test on the V-ladder that p+1
already walks. No composite is known to pass it. The strong pseudoprimes to
the twelve bases up to 37, such as psi_12 = 318665857834031151167461, fail
its Lucas half.

F_n is factored through its divisibility structure. A prime of gcd(a, b)
divides every F_m from m = 2 on, and a prime of b alone divides none. For
every other prime p, p | F_m exactly when the rank of apparition of p
divides m, so the primes of gcd(a, b) and of F_{n/q}, for the primes q | n,
are the primes of F_n whose rank is a proper divisor of n. `_factor_f`
divides those out of F_n completely, taking them from its own memoised
factorizations of the smaller terms. What is left is the primitive part,
whose primes have rank n. Such a prime p is n itself or has n | p - (D/p)
with D = a^2 + 4b, so it is +-1 mod n. The form of the primitive primes
only keys the search: a cofactor is called prime by `is_prime` alone, and
every factor is divided out of F_n itself. The primes that the split of the
primitive part finds are the primitive primes of F_n, which
`primitive_divisors` reports.

Both routes make one split (`_split`), in which each composite goes through
one chain of divisors (`_tail`), a step only when those before it found
nothing:

1. for F_n only, Pollard p-1 from the known factor 2n, a stage-1 fast path,
   then one Williams p+1 walk, stage 1 and stage 2, keyed to D so that it
   serves the primes 1 and -1 mod n alike (`_pm1_divisor`). A gcd that
   catches every prime of the composite at once backs off to its last
   checkpoint and replays the steps one at a time. Starting from 2n,
   stage 1 alone reaches every primitive prime p up to 2n * STAGE1_BOUND
   with 2n | p - (D/p), so no trial division by the candidates comes first;
2. one Fermat step on 4kc for each of Lehman's multipliers k = 1..12, which
   splits a product of two primes whose ratio is near u/v with uv = k (twin
   primes, and p(2p - 1) such as psi_12 and psi_13);
3. Brent rho, raced by small-bound ECM curves (B1 = 400, B2 = 40,000)
   while its budget lasts: its walk pauses after 8192 steps, then after
   twice as many more, and so on, for one such curve at a time, and then
   resumes as if it had never paused;
4. ECM over the p-1/p+1 stage tables.

Rho, the small curves and ECM each draw from a generator seeded from the
composite they serve, so a composite takes the same route whatever number
it was split out of.

One factorization spends at most RHO_BUDGET = 10^6 rho steps,
RACE_CURVES = 8 small curves and ECM_CURVES = 60 curves in all. A composite
that the chain leaves is stuck: RhoBudgetError names the product of those
left and the whole.

Everything downstream (tau, ranks of apparition, primitive prime divisors,
tau lower bounds) builds on that.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from itertools import compress
from math import gcd, isqrt, prod

from .core import digit_count, f_fast, int_text
from .errors import DomainError, HypothesisViolationError, ResourceLimitError, RhoBudgetError

# F_n values above this many decimal digits are not factored; callers see a
# ResourceLimitError and report the index as skipped.
DIGIT_LIMIT = 80
# the least value with more than DIGIT_LIMIT digits, built once
_DIGIT_CEILING = 10**DIGIT_LIMIT

# One factorization takes at most RHO_BUDGET rho steps and at most
# ECM_CURVES curves in all. The p-1/p+1 stage and ECM run stage 1 over the
# prime powers up to STAGE1_BOUND and stage 2 over the primes up to
# STAGE2_BOUND.
RHO_BUDGET = 1_000_000
STAGE1_BOUND = 3000
STAGE2_BOUND = 200_000
ECM_CURVES = 60

# While rho's budget lasts, its walk on a composite pauses after RACE_SLICE
# steps, then after twice as many more, and so on, and each pause runs one ECM
# curve with the small bounds RACE_STAGE1_BOUND and RACE_STAGE2_BOUND, at
# most RACE_CURVES in one factorization. The first slice costs about as much
# as one such curve. The slices double because rho's chance to split a
# composite grows with the length of its walk and a curve's does not; one
# composite that spends the whole RHO_BUDGET runs 6 curves.
RACE_SLICE = 8192
RACE_CURVES = 8
RACE_STAGE1_BOUND = 400
RACE_STAGE2_BOUND = 40_000


def _small_primes(limit: int) -> tuple[int, ...]:
    """The primes below limit, by a sieve over the odd numbers."""
    if limit < 3:
        return ()
    # sieve[k] stands for 2k + 1
    half = limit // 2
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(3, isqrt(limit - 1) + 1, 2):
        if sieve[i >> 1]:
            sieve[i * i >> 1 :: i] = bytes(len(range(i * i >> 1, half, i)))
    return (2, *compress(range(1, limit, 2), sieve))


_SMALL_PRIMES = _small_primes(1000)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
# the least prime above _SMALL_PRIMES, squared: a number below it with no
# prime factor in _SMALL_PRIMES has none up to its square root
_TRIAL_SQUARE = 1009 * 1009


def is_prime(n: int) -> bool:
    """The Baillie-PSW test, after a screen by the primes below 1000.

    The screen is one gcd with their product; a number below 1009^2 that
    passes it is prime without further test. Otherwise n must pass a strong
    test to base 2 and then the almost-extra-strong Lucas test with Q = 1:
    with P the least P >= 3 whose Jacobi symbol (P^2 - 4 / n) is -1 and
    n + 1 = d 2^s, n passes if V_d = +-2 or V_(d 2^r) = 0 for some r < s - 1,
    V = V(P, 1) mod n. A square n has no such P and is refused first.
    Baillie & Wagstaff, "Lucas pseudoprimes", Math. Comp. 35 (1980); the
    almost-extra-strong variant is in Baillie, Fiori & Wagstaff, Math.
    Comp. 90 (2021).
    """
    if n < 2:
        return False
    g = gcd(n, _SMALL_PRODUCT)
    if g != 1:
        return g == n and n in _SMALL_PRIMES
    if n < _TRIAL_SQUARE:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(2, d >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if isqrt(n) ** 2 == n:
        return False
    p = 3
    while (j := _jacobi(p * p - 4, n)) == 1:
        p += 1
    if j == 0:
        # a prime of n divides (P - 2)(P + 2) < n
        return False
    d = n + 1
    s = (d & -d).bit_length() - 1
    v = _lucas_v(p, d >> s, n)
    if v == 2 or v == n - 2:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _brent_rho(n: int, rng: random.Random, max_steps: int):
    """One Brent cycle attempt on odd composite n, walked in blocks of at most 128 steps.

    A generator, so that the walk can pause between blocks: it yields
    (steps, None) after each block, with the steps the block took, and ends
    after more than max_steps steps, or with (steps, g) once the cycle
    closes: g is a proper divisor of n, or None when the cycle caught all of
    n. The r steps that move y ahead of x come in blocks too. Pausing
    changes nothing: the walk draws y and c first and then takes the same
    steps to the same divisor as one run straight through.
    """
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    steps = 0
    x = ys = y
    while g == 1:
        x = y
        for k in range(0, r, m):
            d = min(m, r - k)
            for _ in range(d):
                y = (y * y + c) % n
            steps += d
            yield d, None
        k = 0
        while k < r and g == 1:
            ys = y
            d = min(m, r - k)
            for _ in range(d):
                y = (y * y + c) % n
                q = q * (x - y) % n
            steps += d
            g = gcd(q, n)
            k += m
            if g == 1:
                yield d, None
                if steps > max_steps:
                    return
        r <<= 1
    # the d steps of the block that closed the cycle are yielded with it
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
            d += 1
    yield d, (g if g < n else None)


@dataclass(frozen=True)
class Factorization:
    """n as a sorted tuple of (prime, exponent) pairs."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def tau(self) -> int:
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out

    @property
    def big_omega(self) -> int:
        return sum(e for _, e in self.factors)

    def divisors(self) -> list[int]:
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)


def _memoised(func):
    """func behind a bounded cache that keeps a ResourceLimitError it raises as well as a result.

    A cached error is raised again, with the same message, on every later
    call with the same arguments. `cache_clear` empties the cache.
    """
    @lru_cache(maxsize=1024)
    def memo(*args):
        try:
            return func(*args)
        except ResourceLimitError as exc:
            return exc.with_traceback(None)

    @wraps(func)
    def recall(*args):
        out = memo(*args)
        if isinstance(out, ResourceLimitError):
            raise out.with_traceback(None)
        return out

    recall.cache_clear = memo.cache_clear
    return recall


def factorize(n: int) -> Factorization:
    """Full prime factorization of a positive integer.

    Trial division by the primes below 1000 strips the small factors. A
    cofactor left is prime when it is below 1009^2, as it then has no prime
    factor up to its square root, or when is_prime accepts it; otherwise it
    goes through the chain of `_tail`. A composite that the chain leaves
    raises RhoBudgetError naming n. The result is memoised, and so is a
    ResourceLimitError.
    """
    if n < 1:
        raise DomainError(f"factorize needs a positive integer, got {int_text(n)}")
    return _factorize_memo(n, RHO_BUDGET, RACE_CURVES, ECM_CURVES)


def _factorize(n: int, steps: int, race: int, curves: int) -> Factorization:
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            m = _divide_out(m, p, counts)
    if m > 1 and (m := _split(m, counts, _tail(steps, race, curves))) > 1:
        raise RhoBudgetError(n, m)
    return Factorization(n, tuple(sorted(counts.items())))


# keyed on the budgets as well, so a changed RHO_BUDGET, RACE_CURVES or
# ECM_CURVES never reads an entry made under others
_factorize_memo = _memoised(_factorize)


def tau(n: int) -> int:
    """Number of positive divisors."""
    return factorize(n).tau


def big_omega(n: int) -> int:
    """Number of prime factors counted with multiplicity."""
    return factorize(n).big_omega


def rank_of_apparition(a: int, b: int, p: int, limit: int = 5000) -> int | None:
    """Least n >= 1 with p | F_n, or None if there is none.

    There is none exactly when some prime r of gcd(b, p) does not divide a,
    as then F_n = a^(n-1) mod r for every n >= 1. Otherwise the rank exists
    and is scanned for modulo p; a scan that passes `limit` raises
    ResourceLimitError.
    """
    if p < 2:
        raise DomainError("p must be at least 2")
    # strip from gcd(b, p) every prime that divides a; a prime left does not
    g = gcd(b, p)
    while (h := gcd(g, a)) > 1:
        g //= h
    if g > 1:
        return None
    lo, hi = 0, 1 % p
    for n in range(1, limit + 1):
        if hi == 0:
            return n
        lo, hi = hi, (a * hi + b * lo) % p
    raise ResourceLimitError(f"the rank of apparition of {p} is above the scan limit {limit}")


@dataclass(frozen=True)
class PrimitiveDivisorReport:
    """Primes dividing F_n that divide no earlier F_m with 1 <= m < n."""

    n: int
    primitive_primes: tuple[int, ...]
    has_primitive: bool


def primitive_divisors(a: int, b: int, n: int) -> PrimitiveDivisorReport:
    """The prime factors of F_n whose rank of apparition is n.

    These are the primes that `_factor_f` finds in the primitive part of F_n.
    """
    if a <= 0 or b <= 0:
        raise HypothesisViolationError("coefficients must be positive")
    if n < 1:
        raise DomainError("n must be positive")
    _, prims = _factor_f(a, b, n)
    return PrimitiveDivisorReport(n, prims, bool(prims))


@_memoised
def _factor_f(a: int, b: int, n: int) -> tuple[Factorization, tuple[int, ...]]:
    """The factorization of F_n and its primitive primes, sorted, memoised; a ResourceLimitError is memoised too.

    The primes of rank below n are divided out first; the primes that
    `_split` then finds, those of rank n, are the primitive primes.
    """
    # f_fast refuses an n whose F_n could pass the digit cap before evaluating
    fn = f_fast(a, b, n)
    if fn >= _DIGIT_CEILING:
        raise ResourceLimitError(f"F_{n} has {digit_count(fn)} digits, above the {DIGIT_LIMIT}-digit cap")
    # The primes of F_n whose rank of apparition is below n go first. A prime
    # of gcd(a, b) divides every F_m from m = 2 on, so its rank is 2, below n
    # when n > 2. A prime of b alone divides no F_m. Any other prime divides
    # F_m exactly when its rank divides m, so the rest are the primes of
    # F_{n/q}, q | n prime.
    try:
        imprimitive = {p for q, _ in factorize(n).factors for p, _ in _factor_f(a, b, n // q)[0].factors}
        g = gcd(a, b)
        if g > 1 and n > 2:
            imprimitive.update(p for p, _ in factorize(g).factors)
    except RhoBudgetError as exc:
        # the composite left unsplit in some F_{n/q} divides F_n; name F_n
        # as the number abandoned
        raise RhoBudgetError(fn, exc.stuck) from None
    counts: dict[int, int] = {}
    m = fn
    for p in imprimitive:
        m = _divide_out(m, p, counts)
    primitive: dict[int, int] = {}
    if m > 1 and (m := _split(m, primitive, _tail(RHO_BUDGET, RACE_CURVES, ECM_CURVES, n, a * a + 4 * b))) > 1:
        raise RhoBudgetError(fn, m)
    return Factorization(fn, tuple(sorted((counts | primitive).items()))), tuple(sorted(primitive))


def _divide_out(m: int, p: int, counts: dict[int, int]) -> int:
    """m with every factor p removed; the exponent, if positive, goes to counts."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    if e:
        counts[p] = e
    return m


def _split(m: int, counts: dict[int, int], divisor) -> int:
    """Split m > 1 into pieces by divisor(c), a proper divisor of the composite c or None.

    This is the one loop that splits composites, run once per factorization
    with the divisor `_tail` makes. A piece is recorded in counts only when
    is_prime accepts it; the product of the composite pieces left unsplit is
    returned (1 if none).
    """
    rest = 1
    stack = [m]
    while stack:
        c = stack.pop()
        if is_prime(c):
            counts[c] = counts.get(c, 0) + 1
        elif (g := divisor(c)) is None:
            rest *= c
        else:
            stack += (g, c // g)
    return rest


def _tail(steps: int, race: int, curves: int, n: int = 0, d: int = 0):
    """The divisor that `_split` uses for one factorization: a proper divisor of the composite c, or None.

    Each composite goes through one chain, each step only when those before
    it found nothing:

    1. for F_n, given n > 0 and d = a^2 + 4b, p-1/p+1 (`_pm1_divisor`);
    2. one Fermat step per multiplier (`_fermat_divisor`);
    3. Brent rho, retried until a walk splits c or `steps` steps are spent,
       drawing from a generator seeded from c. While rho's steps last, its
       walk pauses after RACE_SLICE steps, then after twice as many, and so
       on, to run one of at most `race` ECM curves with the small bounds; it
       then resumes where it paused, so its draws and its splits are those
       of rho alone;
    4. ECM, at most `curves` curves, with sigmas drawn from a generator
       seeded from c.

    The budgets `steps`, `race` and `curves` are shared by every composite
    of the factorization. A piece of a split composite goes through the
    chain from its start: p-1/p+1 finds nothing on a divisor of a composite
    that it left whole, since each gcd it takes was 1 or all of that
    composite, and rho has no steps left on a piece of what ECM split.
    """
    def divisor(c: int) -> int | None:
        nonlocal steps, race, curves
        if n and (g := _pm1_divisor(c, n, d)):
            return g
        if g := _fermat_divisor(c):
            return g
        rng, sigmas, lap, span = random.Random(c), None, 0, RACE_SLICE
        while steps > 0:
            for used, g in _brent_rho(c, rng, steps):
                steps -= used
                if g:
                    return g
                lap += used
                if lap >= span and race > 0 and steps > 0:
                    lap, span, race = 0, 2 * span, race - 1
                    # a generator of the small curves' own, seeded from c as
                    # ECM's below is, so that ECM draws the same sigmas
                    sigmas = sigmas or random.Random(c)
                    if g := _ecm_curve(c, sigmas.randrange(6, c - 1), RACE_STAGE1_BOUND, RACE_STAGE2_BOUND):
                        return g
        sigmas = random.Random(c)
        while curves > 0:
            curves -= 1
            if g := _ecm_curve(c, sigmas.randrange(6, c - 1), STAGE1_BOUND, STAGE2_BOUND):
                return g
        return None

    return divisor


# Lehman's multipliers: one Fermat step on 4kc for each k splits c = pq when
# p/q is close enough to a ratio u/v with uv = k
_FERMAT_MULTIPLIERS = range(1, 13)


def _fermat_divisor(c: int) -> int | None:
    """A proper divisor of c from one Fermat step on 4kc for each multiplier k, or None.

    a = ceil(sqrt(4kc)); when a^2 - 4kc = b^2, (a - b)(a + b) = 4kc and
    gcd(a - b, c) is tried. One step splits the twin-prime products and
    the p(2p - 1) products, since 8p(2p - 1) = (4p - 1)^2 - 1.
    """
    for k in _FERMAT_MULTIPLIERS:
        n = 4 * k * c
        a = isqrt(n - 1) + 1
        b2 = a * a - n
        b = isqrt(b2)
        if b * b == b2 and 1 < (g := gcd(a - b, c)) < c:
            return g
    return None


def _pm1_divisor(c: int, n: int, d: int) -> int | None:
    """A proper divisor of the composite c by Pollard p-1, then one Lucas walk, or None.

    The primes p of c, primitive in F_n, have n | p - (d/p) with
    d = a^2 + 4b, so both start from the known factor 2n. p-1 is a stage-1
    fast path on `pow`. The Williams p+1 walk, stage 1 from V_2n(P) and
    stage 2 on its value, serves the primes 1 and -1 mod n alike: its seed
    P = 2(1 + 4d)/(1 - 4d) = s + 1/s, s = (1 + 2 sqrt d)/(1 - 2 sqrt d), has
    P^2 - 4 = 64d/(1 - 4d)^2, d times a square, so s has order | p - (d/p).

    s is never +-(alpha/beta)^j, a power of the root ratio, whose order mod
    every primitive prime is n: from it the walk would catch all of c at its
    start, as from 2(1 + d)/(1 - d) = alpha/beta + beta/alpha when a = 1.
    As (1 - 4d)s = (1 + 2 sqrt d)^2 and -4b alpha/beta = (a + sqrt d)^2, for
    d not a square that would make 1 + 2 sqrt d a rational multiple of
    (a +- sqrt d)^k or sqrt d (a +- sqrt d)^k, k >= 1 (k = 0 is plain). But
    (a + sqrt d)^k = x + y sqrt d has x >= y > 0 and x < 2dy (by induction),
    so the ratio of rational to sqrt d part, 1/2 for 1 + 2 sqrt d, is
    x/y >= 1, dy/x > 1/2 or negative. For d = r^2, the terms of
    s = -(2r + 1)/(2r - 1) differ by 2; those of (-(r + a)/(r - a))^k differ
    by 3 or more for k >= 2, and match at k = 1 only if r + a = a(2r + 1).
    k = 2 in (k + sqrt d)/(k - sqrt d) would not be safe: it gives
    (alpha/beta)^3 for (1, 1).

    A gcd equal to c backs off and replays its stretch one step at a time;
    only a single step that catches all of c gives up that stage.
    """
    if c % 3 == 0:
        # 3, the p-1 base, must be invertible mod c
        return 3
    chunks, k0, blocks = _stage_tables(STAGE1_BOUND, STAGE2_BOUND)
    g, _ = _stage1(pow(3, 2 * n, c), lambda x: x - 1, pow, chunks, c)
    if 1 < g < c:
        return g
    g = gcd(1 - 4 * d, c)
    if g == 1:
        v = _lucas_v(2 * (1 + 4 * d) * pow(1 - 4 * d, -1, c), 2 * n, c)
        g, v = _stage1(v, lambda v: v - 2, _lucas_v, chunks, c)
        if g == 1:
            return _stage2(v, k0, blocks, c)
    return g if g < c else None


def _stage1(x, key, step, chunks, c: int):
    """Walk stage 1 on c from the point x, which is the start or the value after the 2n step.

    step(x, e, c) multiplies the point by e: `pow` for the p-1 fast path,
    `_lucas_v` for the one Lucas walk that serves the primes 1 and -1 mod n,
    `_ecm_mul` for ECM. A prime p of c is caught once key(x) = 0 mod p.
    The gcd is taken at the start and after each chunk; a chunk whose gcd is
    c is replayed one prime at a time from its start. Returns (g, x): g is a
    proper divisor of c, or c when a single step caught every prime of c
    (the point is dropped), or 1 with x the point at the end of stage 1.
    """
    g = gcd(key(x), c)
    if g > 1:
        return g, x
    for e, primes in chunks:
        y = step(x, e, c)
        g = gcd(key(y), c)
        if g == c:
            for q in primes:
                x = step(x, q, c)
                g = gcd(key(x), c)
                if g > 1:
                    break
        if g > 1:
            return g, x
        x = y
    return 1, x


def _lucas_v(p: int, e: int, m: int) -> int:
    """V_e(p, 1) mod m, where V_0 = 2, V_1 = p and V_k = p*V_{k-1} - V_{k-2}.

    A ladder on the pair (V_k, V_{k+1}): V_2k = V_k^2 - 2 and
    V_{2k+1} = V_k*V_{k+1} - p.
    """
    p %= m
    lo, hi = 2 % m, p
    for bit in bin(e)[2:]:
        if bit == "1":
            lo, hi = (lo * hi - p) % m, (hi * hi - 2) % m
        else:
            lo, hi = (lo * lo - 2) % m, (lo * hi - p) % m
    return lo


# stage 2 steps through multiples of this primorial; every prime q > 7 is
# k*_GIANT_STEP +- j with j odd, coprime to it and below half of it
_GIANT_STEP = 210


def _stage2(v: int, k0: int, blocks, c: int) -> int | None:
    """A proper divisor of c from stage 2 on the Lucas value v = s + 1/s that stage 1 left, or None.

    The walk takes the giant steps V_kw(v), and each term
    V_kw - V_j = s^-kw (s^kw - s^j)(s^kw - s^-j) vanishes mod p when the
    order of s mod p divides kw - j or kw + j. The terms go into one product
    per block of giant steps; a block whose gcd is c is replayed one term at
    a time, and a term that is 0 mod c is passed over.
    """
    baby, step, prev, x = _giant_walk(v, k0, c)
    for block in blocks:
        walk = []
        for _ in block:
            walk.append(x)
            prev, x = x, (step * x - prev) % c
        acc = 1
        for y, offsets in zip(walk, block):
            for j in offsets:
                acc = acc * (y - baby[j]) % c
        g = gcd(acc, c)
        if g == c:
            terms = (y - baby[j] for y, offsets in zip(walk, block) for j in offsets)
            g = next((h for t in terms if 1 < (h := gcd(t, c)) < c), 1)
        if g > 1:
            return g
    return None


def _giant_walk(v: int, k0: int, c: int) -> tuple[list[int], int, int, int]:
    """The baby steps V_0 .. V_{w/2} of v mod c, then V_w, V_{(k0-1)w} and V_{k0*w}.

    w is _GIANT_STEP; the last two start the giant-step walk.
    """
    w = _GIANT_STEP
    baby = [2 % c, v]
    while len(baby) <= w // 2:
        baby.append((v * baby[-1] - baby[-2]) % c)
    return baby, _lucas_v(v, w, c), _lucas_v(v, abs(k0 - 1) * w, c), _lucas_v(v, k0 * w, c)


def _ecm_curve(c: int, sigma: int, lo: int, hi: int) -> int | None:
    """A proper divisor of c from one ECM curve, or None.

    The curve is Montgomery's B y^2 = x^3 + A x^2 + x with Suyama's
    parametrization by sigma, whose group order is divisible by 12, and the
    point is its x-coordinate in projective form (X : Z). A prime p of c is
    caught once the order of the point mod p divides what it has been
    multiplied by, which shows as p | Z. Stage 1 walks the chunks of the
    prime powers up to lo, with the p-1/p+1 back-off; stage 2 allows one
    more prime in (lo, hi].
    """
    u = (sigma * sigma - 5) % c
    v = 4 * sigma % c
    x, z = pow(u, 3, c), pow(v, 3, c)
    # (A + 2)/4 = (v - u)^3 (3u + v) / (16 u^3 v)
    den = 16 * x * v % c
    g = gcd(den, c)
    if g > 1:
        return g if g < c else None
    a24 = pow(v - u, 3, c) * (3 * u + v) * pow(den, -1, c) % c
    chunks, k0, blocks = _stage_tables(lo, hi)
    g, pt = _stage1((x, z), lambda pt: pt[1], partial(_ecm_mul, a24=a24), chunks, c)
    if g > 1:
        return g if g < c else None
    return _ecm_stage2(pt, a24, k0, blocks, c)


def _ecm_mul(pt: tuple[int, int], e: int, c: int, a24: int) -> tuple[int, int]:
    """[e]pt mod c for e >= 1, by the Montgomery ladder on (X : Z).

    The ladder keeps (R0, R1) = ([k]pt, [k+1]pt), whose difference is pt, so
    each bit of e costs one differential addition and one doubling.
    """
    r0, r1 = pt, _ecm_double(*pt, c, a24)
    for bit in bin(e)[3:]:
        if bit == "1":
            r0, r1 = _ecm_add(r1, r0, pt, c), _ecm_double(*r1, c, a24)
        else:
            r0, r1 = _ecm_double(*r0, c, a24), _ecm_add(r1, r0, pt, c)
    return r0


def _ecm_double(x: int, z: int, c: int, a24: int) -> tuple[int, int]:
    """[2](X : Z) mod c on the curve with (A + 2)/4 = a24."""
    s = (x + z) ** 2 % c
    t = (x - z) ** 2 % c
    d = s - t
    return s * t % c, d * (t + a24 * d) % c


def _ecm_add(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int], c: int) -> tuple[int, int]:
    """p + q mod c, given p - q = diff, which must not be the point at infinity."""
    s = (p[0] - p[1]) * (q[0] + q[1]) % c
    t = (p[0] + p[1]) * (q[0] - q[1]) % c
    return diff[1] * (s + t) ** 2 % c, diff[0] * (s - t) ** 2 % c


def _ecm_stage2(pt: tuple[int, int], a24: int, k0: int, blocks, c: int) -> int | None:
    """A proper divisor of c from ECM stage 2 on the stage-1 point Q = pt, or None.

    For a prime q = kw +- j of stage 2 (w = _GIANT_STEP), [q]Q is the point
    at infinity mod p exactly when [kw]Q = -+[j]Q mod p, that is when their
    x-coordinates agree. The comparison is projective, with no inversion:
    p | X_kw Z_j - X_j Z_kw. The giant steps walk [kw]Q by differential
    additions of [w]Q. The terms go into one product per block of giant
    steps; a block whose gcd is c is replayed one term at a time, and a term
    that is 0 mod c is passed over.
    """
    # the walk starts from [(k0 - 1)w]Q, which must not be the point at
    # infinity; the default bounds give k0 = 14
    if not blocks or k0 < 2:
        return None
    w = _GIANT_STEP
    twice = _ecm_double(*pt, c, a24)
    baby = {1: pt, 3: _ecm_add(twice, pt, pt, c)}
    for j in range(5, w // 2, 2):
        baby[j] = _ecm_add(baby[j - 2], twice, baby[j - 4], c)
    giant = _ecm_mul(pt, w, c, a24)
    prev, cur = _ecm_mul(giant, k0 - 1, c, a24), _ecm_mul(giant, k0, c, a24)
    for block in blocks:
        walk = []
        for _ in block:
            walk.append(cur)
            prev, cur = cur, _ecm_add(cur, giant, prev, c)
        acc = 1
        for (x, z), offsets in zip(walk, block):
            for j in offsets:
                bx, bz = baby[j]
                acc = acc * (x * bz - bx * z) % c
        g = gcd(acc, c)
        if g == c:
            terms = (x * baby[j][1] - baby[j][0] * z for (x, z), offsets in zip(walk, block)
                     for j in offsets)
            g = next((h for t in terms if 1 < (h := gcd(t, c)) < c), 1)
        if g > 1:
            return g
    return None


@lru_cache(maxsize=None)
def _stage_tables(lo: int, hi: int):
    """The stage tables for the bounds lo and hi, from one sieve; built on first use.

    Returns (chunks, k0, blocks). Stage 1 raises by each prime q <= lo,
    floor(log_q lo) times, in chunks of (product, primes). Stage 2 walks the
    giant steps k = k0, k0 + 1, ... in blocks, one tuple per k holding the
    offsets j with k*_GIANT_STEP +- j a prime in (lo, hi].
    """
    primes = _small_primes(max(lo, hi) + 1)
    split = bisect_right(primes, lo)
    walk = []
    for q in primes[:split]:
        qk = q
        while qk <= lo:
            walk.append(q)
            qk *= q
    # one gcd per 64 primes of stage 1 and per 32 giant steps of stage 2
    chunks = tuple((prod(qs), qs) for qs in _pieces(walk, 64))
    primes = primes[split:]
    if not primes:
        return chunks, 0, ()
    half = _GIANT_STEP // 2
    k0 = (primes[0] + half) // _GIANT_STEP
    # dicts as ordered sets: kw - j and kw + j share the offset j
    plan: list[dict[int, None]] = [{} for _ in range(k0, (primes[-1] + half) // _GIANT_STEP + 1)]
    for q in primes:
        k, j = divmod(q + half, _GIANT_STEP)
        plan[k - k0][abs(j - half)] = None
    return chunks, k0, _pieces([tuple(js) for js in plan], 32)


def _pieces(items: list, size: int) -> tuple[tuple, ...]:
    """items cut into tuples of `size`, the last one shorter if need be."""
    return tuple(tuple(items[i : i + size]) for i in range(0, len(items), size))


def check_tau_prime_power(a: int, b: int, p: int, e: int) -> bool:
    """tau(F_{p^e}) >= 2^e for odd prime p."""
    if a <= 0 or b <= 0:
        raise HypothesisViolationError("coefficients must be positive")
    if p == 2 or not is_prime(p):
        raise HypothesisViolationError("p must be an odd prime")
    if e < 1:
        raise DomainError("e must be positive")
    return _factor_f(a, b, p**e)[0].tau >= 2**e


@dataclass(frozen=True)
class TauBounds:
    """Both lower bounds on tau(F_n) at one index."""

    n: int
    tau_fn: int
    tau_n: int
    omega_n: int
    omega_bound_ok: bool
    tau_bound_ok: bool


def check_tau_bounds(a: int, b: int, n: int) -> TauBounds:
    """Check tau(F_n) against 2^Omega(n) and tau(n).

    Odd n: tau(F_n) >= 2^Omega(n) and tau(F_n) >= tau(n).
    Even n: tau(F_n) >= 2^(Omega(n)-1) and tau(F_n) >= tau(n) - 1.
    The even case loses one step because F_2 = a can equal 1.
    """
    if a <= 0 or b <= 0:
        raise HypothesisViolationError("coefficients must be positive")
    if n < 2:
        raise DomainError("n must be at least 2")
    tau_fn = _factor_f(a, b, n)[0].tau
    nf = factorize(n)
    omega_n, tau_n = nf.big_omega, nf.tau
    if n % 2:
        omega_ok = tau_fn >= 2**omega_n
        tau_ok = tau_fn >= tau_n
    else:
        omega_ok = tau_fn >= 2 ** (omega_n - 1)
        tau_ok = tau_fn >= tau_n - 1
    return TauBounds(n, tau_fn, tau_n, omega_n, omega_ok, tau_ok)
