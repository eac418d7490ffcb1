"""Integer factorization and the divisor structure of F_n.

`factorize` is the generic route: trial division by the primes below 1000,
then a seeded Brent-cycle rho on whatever composite remains. Its results, and
its rho-budget failures, are memoised for the default budget. Primality is
Miller-Rabin with the twelve prime bases up to 37. That is a strong
pseudoprime screen, not a proof: psi_12 = 318665857834031151167461 is
composite and passes every base. A BPSW test is pending.

F_n is factored through its divisibility structure when gcd(a, b) = 1 and
n >= 4. Then p | F_m exactly when the rank of apparition of p divides m, so
the primes of F_{n/q}, for the primes q | n, are the primes of F_n whose
rank is a proper divisor of n. `_factor_f` divides those out of F_n
completely, taking them from its own memoised factorizations of the smaller
terms. What is left is the primitive part, whose primes have rank n. Such a
prime p is n itself or has n | p - (D/p) with D = a^2 + 4b, so it is +-1 mod
n. The primitive part goes through three stages in turn:

1. trial division by those candidates only, up to TRIAL_BOUND;
2. Pollard p-1 and Williams p+1 with the known factor 2n in the exponent,
   which split a prime p = 1 mod n when p - 1 is smooth, and a prime
   p = -1 mod n when p + 1 is. The p+1 seed is built from D, so its
   discriminant is D times a square: for the primes with (D/p) = -1, which
   are the primitive primes = -1 mod n, it lies in the group of order p + 1;
3. rho, with the same budget, on whatever is still composite.

The candidates only order the search: a cofactor is called prime by
`is_prime` alone, and every factor is divided out of F_n itself. Other
coefficients, and n < 4, go to `factorize` whole, and their primitive primes
are found by scanning ranks.

Everything downstream (tau, ranks of apparition, primitive prime divisors,
tau lower bounds) builds on that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, wraps
from math import gcd, isqrt

from .core import f_fast
from .errors import DomainError, HypothesisViolationError, ResourceLimitError, RhoBudgetError

# F_n values above this many decimal digits are not factored; callers see a
# ResourceLimitError and report the index as skipped.
DIGIT_LIMIT = 80

# The primitive part of F_n is trial-divided by its candidates up to
# TRIAL_BOUND (the generic factorize trial-divides by the primes below 1000
# only); RHO_BUDGET caps the rho steps of one factorization. The p-1/p+1 stage
# on the primitive part runs stage 1 over the prime powers up to STAGE1_BOUND
# and stage 2 over the primes up to STAGE2_BOUND.
TRIAL_BOUND = 10**6
RHO_BUDGET = 4_000_000
STAGE1_BOUND = 3000
STAGE2_BOUND = 200_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _small_primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit) if sieve[i])


_SMALL_PRIMES = _small_primes(1000)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the fixed 12-base witness set."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = ((d & -d)).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random, max_steps: int) -> tuple[int | None, int]:
    """One Brent cycle attempt on odd composite n; returns (factor or None, steps)."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    steps = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            steps += min(m, r - k)
            g = gcd(q, n)
            k += m
            if steps > max_steps and g == 1:
                return None, steps
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
            steps += 1
    if g == n:
        return None, steps
    return g, steps


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


def factorize(n: int, *, rho_budget: int | None = None) -> Factorization:
    """Full prime factorization of a positive integer.

    Trial division by the primes below 1000 strips the small factors. A
    cofactor left is prime when it is below 1009^2, as it then has no prime
    factor up to its square root, or when is_prime accepts it; otherwise it
    goes to Brent rho seeded from n itself, so repeated runs walk the
    identical path. rho_budget caps the total rho steps for this call,
    RHO_BUDGET by default; exhausting it raises ResourceLimitError. With the
    default budget the result is memoised, and so is a ResourceLimitError; a
    call with an explicit rho_budget bypasses the cache.
    """
    if n < 1:
        raise DomainError(f"factorize needs a positive integer, got {n}")
    if rho_budget is None:
        return _factorize_memo(n, RHO_BUDGET)
    return _factorize(n, rho_budget)


# the least prime above _SMALL_PRIMES, squared: a cofactor below it with no
# prime factor in _SMALL_PRIMES has none up to its square root
_TRIAL_SQUARE = 1009 * 1009


def _factorize(n: int, rho_budget: int) -> Factorization:
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            m = _divide_out(m, p, counts)
    if m >= _TRIAL_SQUARE:
        _rho_split(m, counts, n, rho_budget)
    elif m > 1:
        counts[m] = 1
    return Factorization(n, tuple(sorted(counts.items())))


# keyed on the budget as well, so a changed RHO_BUDGET never reads an entry
# made under another
_factorize_memo = _memoised(_factorize)


def _rho_split(m: int, counts: dict[int, int], whole: int, budget: int) -> None:
    """Add the prime factors of m > 1 to counts, splitting composites by Brent rho.

    The generator is seeded from `whole`, the number being factored, so
    repeated runs walk the identical path. Running out of budget raises
    RhoBudgetError naming `whole` and the composite left unsplit.
    """
    if is_prime(m):
        counts[m] = counts.get(m, 0) + 1
        return
    rng = random.Random(whole)
    stack = [m]
    while stack:
        c = stack.pop()
        if is_prime(c):
            counts[c] = counts.get(c, 0) + 1
            continue
        factor = None
        while factor is None:
            factor, used = _brent_rho(c, rng, budget)
            budget -= used
            if factor is None and budget <= 0:
                raise RhoBudgetError(whole, c)
        stack.append(factor)
        stack.append(c // factor)


def tau(n: int) -> int:
    """Number of positive divisors."""
    return factorize(n).tau


def big_omega(n: int) -> int:
    """Number of prime factors counted with multiplicity."""
    return factorize(n).big_omega


def rank_of_apparition(a: int, b: int, p: int, limit: int = 5000) -> int | None:
    """Least n >= 1 with p | F_n, or None if no such n <= limit exists.

    Computed modulo p. When p | b and p does not divide a, no index ever
    works, so None is a real answer rather than a search failure.
    """
    if p < 2:
        raise DomainError("p must be at least 2")
    lo, hi = 0, 1 % p
    for n in range(1, limit + 1):
        if hi == 0:
            return n
        lo, hi = hi, (a * hi + b * lo) % p
    return None


@dataclass(frozen=True)
class PrimitiveDivisorReport:
    """Primes dividing F_n that divide no earlier F_m with 1 <= m < n."""

    n: int
    primitive_primes: tuple[int, ...]
    has_primitive: bool


def primitive_divisors(a: int, b: int, n: int) -> PrimitiveDivisorReport:
    """The prime factors of F_n whose rank of apparition is n.

    Where F_n is factored through its divisors, these are the primes of F_n
    that divide no F_{n/q}, q a prime factor of n. Otherwise the rank of
    each prime is found by scanning.
    """
    if a <= 0 or b <= 0:
        raise HypothesisViolationError("coefficients must be positive")
    if n < 1:
        raise DomainError("n must be positive")
    fac = _factor_f(a, b, n)
    if _splits(a, b, n):
        imprimitive = _imprimitive_primes(a, b, n)
        prims = tuple(p for p, _ in fac.factors if p not in imprimitive)
    else:
        prims = tuple(p for p, _ in fac.factors if rank_of_apparition(a, b, p, limit=n) == n)
    return PrimitiveDivisorReport(n, prims, bool(prims))


def _splits(a: int, b: int, n: int) -> bool:
    """Whether F_n is factored through its divisors.

    p | F_m exactly when rank(p) | m needs gcd(a, b) = 1, and from n = 4 on
    a prime of rank n is odd, so it is n or +-1 mod n.
    """
    return n >= 4 and gcd(a, b) == 1


def _imprimitive_primes(a: int, b: int, n: int) -> set[int]:
    """Primes of F_d for the proper divisors d of n: those of F_{n/q}, q | n prime."""
    return {p for q, _ in factorize(n).factors for p, _ in _factor_f(a, b, n // q).factors}


@_memoised
def _factor_f(a: int, b: int, n: int) -> Factorization:
    """Factorization of F_n, memoised; a ResourceLimitError is memoised too."""
    fn = f_fast(a, b, n)
    digits = len(str(fn))
    if digits > DIGIT_LIMIT:
        raise ResourceLimitError(f"F_{n} has {digits} digits, above the {DIGIT_LIMIT}-digit cap")
    if not _splits(a, b, n):
        return factorize(fn)
    counts: dict[int, int] = {}
    m = fn
    try:
        for p in _imprimitive_primes(a, b, n):
            m = _divide_out(m, p, counts)
        m = _trial_primitive(m, n, counts)
        if m > 1:
            m = _smooth_split(m, n, a * a + 4 * b, counts)
        if m > 1:
            # seeded from the composite it splits, so the walk depends on it alone
            _rho_split(m, counts, m, RHO_BUDGET)
    except RhoBudgetError as exc:
        # the composite left unsplit, in some F_{n/q} or in the primitive
        # part, divides F_n; name F_n as the number abandoned
        raise RhoBudgetError(fn, exc.stuck) from None
    return Factorization(fn, tuple(sorted(counts.items())))


def _divide_out(m: int, p: int, counts: dict[int, int]) -> int:
    """m with every factor p removed; the exponent, if positive, goes to counts."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    if e:
        counts[p] = e
    return m


def _trial_primitive(m: int, n: int, counts: dict[int, int]) -> int:
    """Trial-divide the primitive part m of F_n by the candidates for rank n.

    The candidates are n and the numbers +-1 mod n (mod 2n for odd n, as p
    is odd) up to TRIAL_BOUND. A divisor found is recorded only if is_prime
    accepts it, and so is a prime cofactor. Returns 1, or the composite left
    for rho.
    """
    if m % n == 0 and is_prime(n):
        m = _divide_out(m, n, counts)
    step = n if n % 2 == 0 else 2 * n
    k = step
    while m > 1:
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            return 1
        lim = min(TRIAL_BOUND, isqrt(m))
        while k - 1 <= lim and m % (k - 1) and m % (k + 1):
            k += step
        if k - 1 > lim:
            break
        for d in (k - 1, k + 1):
            if m % d == 0 and is_prime(d):
                m = _divide_out(m, d, counts)
        k += step
    return m


def _smooth_split(m: int, n: int, d: int, counts: dict[int, int]) -> int:
    """Split the composite primitive part m of F_n by `_pm1_divisor`.

    A piece is recorded in counts only when is_prime accepts it; the product
    of the composite pieces left unsplit is returned (1 if none), for rho.
    """
    rest = 1
    stack = [m]
    while stack:
        c = stack.pop()
        if is_prime(c):
            counts[c] = counts.get(c, 0) + 1
        elif (g := _pm1_divisor(c, n, d)) is None:
            rest *= c
        else:
            stack += (g, c // g)
    return rest


def _pm1_divisor(c: int, n: int, d: int) -> int | None:
    """A proper divisor of the composite c by Pollard p-1 and Williams p+1, or None.

    c divides the primitive part of F_n, whose primes p have n | p - (d/p)
    with d = a^2 + 4b, so both sides raise to the known factor 2n on top of
    the stage-1 exponent. The p+1 seed P = 2(1 + d)/(1 - d) has discriminant
    P^2 - 4 = 16d/(1 - d)^2, d times a square, so mod p the roots of
    x^2 - Px + 1 have order dividing p + 1 exactly when (d/p) = -1: for the
    primitive primes that are -1 mod n. Stage 2 then allows one more prime
    in (STAGE1_BOUND, STAGE2_BOUND] on the Lucas value of each side (x + 1/x
    for p-1). A gcd equal to c drops that side; if no side splits c, it is
    left for rho.
    """
    if c % 3 == 0:
        # 3, the p-1 base, must be invertible mod c
        return 3
    e = 2 * n * _stage1_exponent(STAGE1_BOUND)
    values = []
    x = pow(3, e, c)
    g = gcd(x - 1, c)
    if 1 < g < c:
        return g
    if g == 1:
        values.append((x + pow(x, -1, c)) % c)
    g = gcd(1 - d, c)
    if 1 < g < c:
        return g
    if g == 1:
        v = _lucas_v(2 * (1 + d) * pow(1 - d, -1, c), e, c)
        g = gcd(v - 2, c)
        if 1 < g < c:
            return g
        if g == 1:
            values.append(v)
    acc = 1
    for v in values:
        acc = acc * _stage2_product(v, c) % c
    g = gcd(acc, c)
    return g if 1 < g < c else None


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


def _stage2_product(v: int, c: int) -> int:
    """prod (V_{kw}(v) - V_j(v)) mod c over the primes kw +- j in (STAGE1_BOUND, STAGE2_BOUND].

    With v = s + 1/s, V_{kw} - V_j = s^-kw (s^kw - s^j)(s^kw - s^-j), which
    vanishes mod p when the order of s mod p divides kw - j or kw + j.
    """
    k0, plan = _stage2_plan(STAGE1_BOUND, STAGE2_BOUND)
    if not plan:
        return 1
    baby = [2 % c, v]
    while len(baby) <= _GIANT_STEP // 2:
        baby.append((v * baby[-1] - baby[-2]) % c)
    step = _lucas_v(v, _GIANT_STEP, c)
    prev, cur = _lucas_v(v, abs(k0 - 1) * _GIANT_STEP, c), _lucas_v(v, k0 * _GIANT_STEP, c)
    acc = 1
    for offsets in plan:
        for j in offsets:
            acc = acc * (cur - baby[j]) % c
        prev, cur = cur, (step * cur - prev) % c
    return acc


@lru_cache(maxsize=None)
def _stage1_exponent(bound: int) -> int:
    """prod q^floor(log_q bound) over the primes q <= bound; built on first use."""
    e = 1
    for q in _small_primes(bound + 1):
        qk = q
        while qk * q <= bound:
            qk *= q
        e *= qk
    return e


@lru_cache(maxsize=None)
def _stage2_plan(lo: int, hi: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The giant steps covering the primes q in (lo, hi]; built on first use.

    Returns k0 and one tuple per k = k0, k0 + 1, ... holding the offsets j
    with k*_GIANT_STEP +- j such a prime.
    """
    half = _GIANT_STEP // 2
    primes = [q for q in _small_primes(hi + 1) if q > lo]
    if not primes:
        return 0, ()
    k0 = (primes[0] + half) // _GIANT_STEP
    plan: list[list[int]] = [[] for _ in range((primes[-1] + half) // _GIANT_STEP - k0 + 1)]
    for q in primes:
        k = (q + half) // _GIANT_STEP
        j = abs(q - k * _GIANT_STEP)
        if j not in plan[k - k0]:
            plan[k - k0].append(j)
    return k0, tuple(tuple(js) for js in plan)


def check_tau_prime_power(a: int, b: int, p: int, e: int) -> bool:
    """tau(F_{p^e}) >= 2^e for odd prime p."""
    if a <= 0 or b <= 0:
        raise HypothesisViolationError("coefficients must be positive")
    if p == 2 or not is_prime(p):
        raise HypothesisViolationError("p must be an odd prime")
    if e < 1:
        raise DomainError("e must be positive")
    return _factor_f(a, b, p**e).tau >= 2**e


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
    tau_fn = _factor_f(a, b, n).tau
    nf = factorize(n)
    omega_n, tau_n = nf.big_omega, nf.tau
    if n % 2:
        omega_ok = tau_fn >= 2**omega_n
        tau_ok = tau_fn >= tau_n
    else:
        omega_ok = tau_fn >= 2 ** (omega_n - 1)
        tau_ok = tau_fn >= tau_n - 1
    return TauBounds(n, tau_fn, tau_n, omega_n, omega_ok, tau_ok)
