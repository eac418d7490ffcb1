"""Factorization stack and the divisor-count bounds on F_n."""

import random
from functools import partial
from math import gcd, prod

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import genfib.core
from genfib import divisors
from genfib import (
    DomainError,
    Factorization,
    HypothesisViolationError,
    ResourceLimitError,
    SequenceParams,
    big_omega,
    check_tau_bounds,
    check_tau_prime_power,
    f_fast,
    factorize,
    g_iter,
    is_prime,
    primitive_divisors,
    rank_of_apparition,
    tau,
)


def test_is_prime_knowns():
    primes = [2, 3, 5, 7, 11, 97, 7919, 10**9 + 7, 2305843009213693951]
    composites = [1, 4, 9, 15, 91, 561, 41041, 10**9 + 9 + 2, 2**61 + 1]
    for p in primes:
        assert is_prime(p), p
    for c in composites:
        assert not is_prime(c), c
    assert not is_prime(0) and not is_prime(-7)


@pytest.mark.parametrize("limit", [*range(12), 1000, 1001, 3001, 200001])
def test_small_primes_matches_sympy(limit):
    assert divisors._small_primes(limit) == tuple(sympy.primerange(2, limit))


def test_is_prime_matches_sympy_on_small_numbers():
    # the screen by the primes below 1000 is one gcd with their product:
    # every n below 2*10^5, each of those primes, its square, and the
    # products of two of them
    small = divisors._SMALL_PRIMES
    assert len(small) == 168 and small[-1] == 997
    assert [is_prime(n) for n in range(2 * 10**5)] == [sympy.isprime(n) for n in range(2 * 10**5)]
    cases = [*small, *(p * q for i, p in enumerate(small) for q in small[i:])]
    assert [is_prime(n) for n in cases] == [sympy.isprime(n) for n in cases]


def _chernick(k):
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def test_is_prime_matches_sympy_on_seeded_corpus():
    # random odd numbers of 4-80 digits, primes of 6-80 digits, the
    # Carmichael numbers (6k+1)(12k+1)(18k+1) with all three factors prime,
    # k < 3000, p(2p - 1) products, and the strong pseudoprimes to the
    # twelve bases up to 37, psi_12 and psi_13
    rng = random.Random(20)
    corpus = [rng.randrange(10 ** (k - 1), 10**k) | 1 for k in range(4, 81) for _ in range(100)]
    corpus += [sympy.nextprime(rng.randrange(10 ** (k - 1), 10**k)) for k in range(6, 81, 2)]
    corpus += [_chernick(k) for k in range(1, 3000)
               if all(map(sympy.isprime, (6 * k + 1, 12 * k + 1, 18 * k + 1)))]
    corpus += [p * (2 * p - 1) for p in sympy.primerange(1000, 1500) if sympy.isprime(2 * p - 1)]
    corpus += [318665857834031151167461, 3317044064679887385961981]
    assert [is_prime(n) for n in corpus] == [sympy.isprime(n) for n in corpus]
    assert not any(is_prime(n) for n in corpus[-2:])


@pytest.mark.parametrize("n", [1009**2, 1013**2 * 1019**2, (10**9 + 7) ** 2, 999983**3])
def test_is_prime_refuses_squares_and_powers(n):
    assert not is_prime(n)


def test_jacobi_matches_sympy():
    cases = [(a, n) for n in range(1, 400, 2) for a in range(-50, 50)]
    assert [divisors._jacobi(a, n) for a, n in cases] == [
        sympy.jacobi_symbol(a % n, n) for a, n in cases]


def test_factorize_frozen():
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(144).factors == ((2, 4), (3, 2))
    assert factorize(46656).factors == ((2, 6), (3, 6))
    assert factorize(196418).factors == ((2, 1), (17, 1), (53, 1), (109, 1))
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_semiprime_beyond_trial_range():
    # both factors exceed the trial-division bound, forcing the tail
    n = (10**9 + 7) * (10**9 + 9)
    assert factorize(n).factors == ((10**9 + 7, 1), (10**9 + 9, 1))


def test_factorize_deterministic():
    n = 2**64 + 1
    assert factorize(n).factors == factorize(n).factors == ((274177, 1), (67280421310721, 1))


# two 10-digit primes whose product the tail's Fermat step leaves whole, so
# that it reaches rho; (10^9 + 7)(10^9 + 9) splits at the first multiplier
RHO_PAIR = (10**9 + 7, 1700000009)


def test_rho_budget_is_enforced(monkeypatch):
    # 10 rho steps and no ECM curve leave the cofactor whole; the error names
    # the number factored and the composite left
    p, q = RHO_PAIR
    pq = p * q
    assert sympy.isprime(p) and sympy.isprime(q) and divisors._fermat_divisor(pq) is None
    monkeypatch.setattr(divisors, "RHO_BUDGET", 10)
    monkeypatch.setattr(divisors, "ECM_CURVES", 0)
    with pytest.raises(divisors.RhoBudgetError) as info:
        factorize(6 * pq)
    assert str(info.value) == f"rho budget exhausted factoring {6 * pq} (stuck on {pq})"
    # ECM splits what the 10 rho steps leave
    monkeypatch.setattr(divisors, "ECM_CURVES", 60)
    assert factorize(6 * pq).factors == ((2, 1), (3, 1), (p, 1), (q, 1))


def _sympy_factors(n):
    return tuple(sorted(sympy.factorint(n).items()))


# trial division stops at the primes below 1000, so rho finds the primes in
# (10^3, 10^6): prime powers, 1009^2 itself (the least cofactor that is not
# prime by the square-root rule) and products of primes just past 1000;
# 1018057, the largest prime below 1009^2, is prime by that rule
@pytest.mark.parametrize("n", [1009**2, 999983**3, 1009**7,
                               1009 * 1013 * 1019 * 1021 * 1031 * 1033 * 1039 * 2**5 * 3 * 7**2 * 997,
                               997**2 * 1009, 2 * 1018057, 1018057 * 1009 * 999983])
def test_factorize_matches_sympy_past_small_primes(n):
    assert factorize(n).factors == _sympy_factors(n)


@given(st.lists(st.tuples(st.integers(10**3, 10**6), st.integers(1, 3)), min_size=1, max_size=4),
       st.integers(1, 10**4))
@settings(max_examples=60, deadline=None)
def test_factorize_matches_sympy_on_mid_size_primes(powers, small):
    n = small
    for x, e in powers:
        n *= sympy.nextprime(x) ** e
    assert factorize(n).factors == _sympy_factors(n)


# the corpus that the bisquare-mix benchmark feeds through `bisquare --n`:
# Carmichael numbers, p(2p-1) products, semiprimes with a 7-9 digit factor and
# the strong pseudoprimes psi_9, psi_12 and psi_13
HARD_CORPUS = [
    1729, 168011973623089, 10386066643795453969, 561, 41041, 825265, 207132481,
    200007550071253, 2000000827000085491, 7689508527283867649654567,
    4798535463618468995659, 277875660197838864654113, 2934766667677383901,
    3825123056546413051,
    pytest.param(318665857834031151167461, id="psi12"),
    pytest.param(3317044064679887385961981, id="psi13"),
]


@pytest.mark.parametrize("n", HARD_CORPUS)
def test_factorize_matches_sympy_on_hard_corpus(n):
    assert factorize(n).factors == _sympy_factors(n)


def _count_rho_walks(monkeypatch):
    calls = []
    brent_rho = divisors._brent_rho

    def counted(*args):
        calls.append(args)
        return brent_rho(*args)

    monkeypatch.setattr(divisors, "_brent_rho", counted)
    return calls


def test_default_budget_failure_is_memoised(monkeypatch):
    # the second call raises the cached error again without factoring anew
    calls = _count_rho_walks(monkeypatch)
    p, q = RHO_PAIR
    n = p * q
    assert divisors._fermat_divisor(n) is None
    divisors._factorize_memo.cache_clear()
    messages = []
    with monkeypatch.context() as patch:
        patch.setattr(divisors, "RHO_BUDGET", 10)
        patch.setattr(divisors, "ECM_CURVES", 0)
        for _ in range(2):
            with pytest.raises(ResourceLimitError) as info:
                factorize(n)
            messages.append(str(info.value))
    assert messages == [f"rho budget exhausted factoring {n} (stuck on {n})"] * 2
    assert len(calls) == 1
    # an entry made under other budgets is not read under the defaults
    assert factorize(n).factors == ((p, 1), (q, 1))


def test_tail_ecm_splits_what_rho_leaves():
    # two 14-digit primes: the Fermat step and rho's RHO_BUDGET steps alone,
    # with no small curve, leave their product whole, and the ECM curves
    # that follow split it
    p, q = 10000000000037, 30010000000021
    assert sympy.isprime(p) and sympy.isprime(q) and divisors._fermat_divisor(p * q) is None
    assert divisors._split(p * q, {}, divisors._tail(divisors.RHO_BUDGET, 0, 0)) == p * q
    assert factorize(p * q).factors == _sympy_factors(p * q)


def test_fermat_step_splits_without_rho(monkeypatch):
    # twin primes split at k = 1, 10000000000037 * 30000000000011 at k = 3,
    # and the p(2p - 1) products of the bisquare corpus at k = 2, since
    # 8p(2p - 1) = (4p - 1)^2 - 1; none of them reaches rho
    calls = _count_rho_walks(monkeypatch)
    divisors._factorize_memo.cache_clear()
    for n in [(10**9 + 7) * (10**9 + 9), 10000000000037 * 30000000000011,
              207132481, 200007550071253, 2000000827000085491]:
        assert factorize(n).factors == _sympy_factors(n)
    # psi_12 and psi_13 are p(2p - 1) too; is_prime refuses them, so they
    # reach the tail and split there
    for p, q in [(399165290221, 798330580441), (1287836182261, 2575672364521)]:
        assert q == 2 * p - 1
        assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert calls == []


def _one_shot_rho(n, rng, max_steps):
    """Brent's walk as it ran before it could pause: (factor or None, steps)."""
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
                q = q * (x - y) % n
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
            g = gcd(x - ys, n)
            steps += 1
    if g == n:
        return None, steps
    return g, steps


# the composites of (3, 1) at n = 47, 71 and 83 that p-1/p+1 leaves to rho,
# whose walks split them after 219,134, 28,414 and 101,886 steps
SWEEP_RHO_COMPOSITES = [676619841275899608114721, 55840878305802104737, 4926614542970198958394661]


@pytest.mark.parametrize("n", [prod(RHO_PAIR), *SWEEP_RHO_COMPOSITES])
@pytest.mark.parametrize("budget", [10, 1000, divisors.RHO_BUDGET])
def test_paused_walk_matches_the_one_shot_walk(n, budget):
    # walk after walk from one generator until a split or the budget, as the
    # tail retries: the same divisor at the same step count, paused or not
    def one_shot(rng, steps):
        while steps > 0:
            g, used = _one_shot_rho(n, rng, steps)
            steps -= used
            if g:
                break
        return g, budget - steps

    def paused(rng, steps):
        while steps > 0:
            for used, g in divisors._brent_rho(n, rng, steps):
                assert used > 0
                steps -= used
                if g:
                    return g, budget - steps
        return None, budget - steps

    assert paused(random.Random(n), budget) == one_shot(random.Random(n), budget)


def _count_steps_and_small_curves(monkeypatch):
    """Counters of the rho steps and of the small-bound curves that the tail runs."""
    seen = {"steps": 0, "curves": 0}
    brent_rho, ecm_curve = divisors._brent_rho, divisors._ecm_curve

    def walk(*args):
        for used, g in brent_rho(*args):
            seen["steps"] += used
            yield used, g

    def curve(c, sigma, lo, hi):
        seen["curves"] += lo == divisors.RACE_STAGE1_BOUND
        return ecm_curve(c, sigma, lo, hi)

    monkeypatch.setattr(divisors, "_brent_rho", walk)
    monkeypatch.setattr(divisors, "_ecm_curve", curve)
    return seen


def test_tail_without_small_curves_takes_rho_alone(monkeypatch):
    # with no small curve the tail is the walk of rho alone: (3, 1) n = 47
    # splits after the one-shot walk's 219,134 steps
    seen = _count_steps_and_small_curves(monkeypatch)
    c = SWEEP_RHO_COMPOSITES[0]
    counts = {}
    assert divisors._split(c, counts, divisors._tail(divisors.RHO_BUDGET, 0, 0)) == 1
    assert seen == {"steps": 219134, "curves": 0}
    assert tuple(sorted(counts.items())) == _sympy_factors(c)


def test_rho_is_seeded_from_the_composite_it_walks(monkeypatch):
    # trial division leaves c itself from 6c, and rho walks it as it walks c
    # alone, whatever number c was split out of
    seen = _count_steps_and_small_curves(monkeypatch)
    monkeypatch.setattr(divisors, "RACE_CURVES", 0)
    c = SWEEP_RHO_COMPOSITES[0]
    divisors._factorize_memo.cache_clear()
    try:
        assert factorize(6 * c).factors == _sympy_factors(6 * c)
    finally:
        divisors._factorize_memo.cache_clear()
    assert seen == {"steps": 219134, "curves": 0}


@pytest.mark.parametrize("c, curves, rho_steps", [
    # (3, 1) n = 47, and a semiprime of the bisquare-mix corpus, with the
    # steps that rho alone takes to split them
    (SWEEP_RHO_COMPOSITES[0], 2, 219134),
    (277875660197838864654113, 1, 54398),
])
def test_small_curves_split_before_rho(monkeypatch, c, curves, rho_steps):
    seen = _count_steps_and_small_curves(monkeypatch)
    counts = {}
    assert divisors._split(c, counts, divisors._tail(divisors.RHO_BUDGET, divisors.RACE_CURVES, 0)) == 1
    assert tuple(sorted(counts.items())) == _sympy_factors(c)
    # the split came from the last small curve, after slices of RACE_SLICE
    # steps, twice that, and so on: far short of rho's own split
    assert seen["curves"] == curves
    assert divisors.RACE_SLICE * (2**curves - 1) <= seen["steps"] < divisors.RACE_SLICE * 2**curves < rho_steps


def test_slow_p_minus_1_case_splits_by_small_curves(monkeypatch):
    # F_5 of (3*2^40 + 1, 5): p-1/p+1 leaves 115195429469 * 5334425414611729,
    # which rho alone splits after 405,374 steps; the fourth small curve does
    seen = _count_steps_and_small_curves(monkeypatch)
    divisors._factor_f.cache_clear()
    try:
        fac, _ = divisors._factor_f(3 * 2**40 + 1, 5, 5)
    finally:
        divisors._factor_f.cache_clear()
    assert {115195429469, 5334425414611729} <= {p for p, _ in fac.factors}
    assert prod(p**e for p, e in fac.factors) == fac.n == f_fast(3 * 2**40 + 1, 5, 5)
    assert all(sympy.isprime(p) for p, _ in fac.factors)
    assert seen["curves"] == 4
    assert divisors.RACE_SLICE * 15 <= seen["steps"] < divisors.RACE_SLICE * 16 < 405374


def test_small_curves_need_rho_steps(monkeypatch):
    # the small curves run only while rho's budget is being spent: with 10
    # steps, none, or just the first slice's, the tail runs none of them, and
    # neither does rho split
    seen = _count_steps_and_small_curves(monkeypatch)
    c = SWEEP_RHO_COMPOSITES[0]
    for steps in (10, 0, divisors.RACE_SLICE):
        assert divisors._split(c, {}, divisors._tail(steps, divisors.RACE_CURVES, 0)) == c
    assert seen["curves"] == 0


@given(st.lists(st.integers(10**7, 10**14), min_size=2, max_size=3))
@settings(max_examples=12, deadline=None)
def test_factorize_splits_products_of_mid_size_primes(starts):
    # products of 2-3 primes of 8-14 digits: rho, the small curves and the
    # ECM tail all take part; the pieces are prime and rebuild the input
    n = prod(sympy.nextprime(x) for x in starts)
    fac = factorize(n)
    assert all(sympy.isprime(p) for p, _ in fac.factors)
    assert prod(p**e for p, e in fac.factors) == n
    assert fac.factors == _sympy_factors(n)


@given(st.integers(1, 10**9))
@settings(max_examples=150)
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.factors:
        assert is_prime(p) and e >= 1
        prod *= p**e
    assert prod == n


def test_divisor_statistics():
    assert tau(1) == 1 and tau(12) == 6 and tau(144) == 15
    assert big_omega(1) == 0 and big_omega(12) == 3 and big_omega(64) == 6
    assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
    assert tau(832040) == 64  # F_30


def test_rank_of_apparition():
    # classic coefficients
    assert rank_of_apparition(1, 1, 2) == 3
    assert rank_of_apparition(1, 1, 3) == 4
    assert rank_of_apparition(1, 1, 5) == 5
    assert rank_of_apparition(1, 1, 7) == 8
    assert rank_of_apparition(1, 1, 11) == 10
    assert rank_of_apparition(1, 1, 13) == 7
    # (2, 1) coefficients
    assert rank_of_apparition(2, 1, 2) == 2
    assert rank_of_apparition(2, 1, 5) == 3
    assert rank_of_apparition(2, 1, 11) == 12
    # a prime of gcd(b, p) that does not divide a never divides F_n: no rank
    assert rank_of_apparition(1, 5, 5) is None
    assert rank_of_apparition(1, 5, 10) is None
    # primes of gcd(b, p) that divide a as well: the rank exists
    assert rank_of_apparition(2, 2, 2) == 2
    assert rank_of_apparition(2, 2, 6) == 3
    # a scan that passes its limit raises rather than answering None
    with pytest.raises(ResourceLimitError):
        rank_of_apparition(1, 1, 89, limit=5)
    assert rank_of_apparition(1, 1, 89, limit=11) == 11
    with pytest.raises(ResourceLimitError):
        rank_of_apparition(1, 1, 10007)
    assert rank_of_apparition(1, 1, 10007, limit=10008) == 10008
    with pytest.raises(DomainError):
        rank_of_apparition(1, 1, 1)


def test_rank_divides_entry_indices():
    for p in (2, 3, 5, 7, 11, 13, 17):
        r = rank_of_apparition(1, 1, p)
        assert f_fast(1, 1, r) % p == 0
        for n in range(1, r):
            assert f_fast(1, 1, n) % p != 0


def test_primitive_divisors_frozen():
    assert primitive_divisors(1, 1, 12).primitive_primes == ()
    assert primitive_divisors(1, 1, 6).primitive_primes == ()
    assert primitive_divisors(1, 1, 19).primitive_primes == (37, 113)
    assert primitive_divisors(1, 1, 7).primitive_primes == (13,)
    # F_12 = 13860 for (2, 1): the prime 11 enters first at index 12
    rep = primitive_divisors(2, 1, 12)
    assert 11 in rep.primitive_primes and rep.has_primitive


def test_primitive_divisors_gates():
    with pytest.raises(HypothesisViolationError):
        primitive_divisors(-1, 1, 5)
    with pytest.raises(DomainError):
        primitive_divisors(1, 1, 0)


def test_tau_prime_power():
    for p, e in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]:
        assert check_tau_prime_power(1, 1, p, e), (p, e)
    with pytest.raises(HypothesisViolationError):
        check_tau_prime_power(1, 1, 2, 3)
    with pytest.raises(HypothesisViolationError):
        check_tau_prime_power(1, 1, 4, 1)
    with pytest.raises(DomainError):
        check_tau_prime_power(1, 1, 3, 0)


def test_tau_bounds_spot_values():
    tb = check_tau_bounds(1, 1, 12)
    assert (tb.tau_fn, tb.tau_n, tb.omega_n) == (15, 6, 3)
    assert tb.omega_bound_ok and tb.tau_bound_ok
    tb = check_tau_bounds(1, 1, 13)
    assert tb.tau_fn == 2 and tb.omega_bound_ok and tb.tau_bound_ok
    with pytest.raises(DomainError):
        check_tau_bounds(1, 1, 1)
    with pytest.raises(HypothesisViolationError):
        check_tau_bounds(0, 1, 12)


def test_tau_bounds_small_sweep():
    for n in range(2, 61):
        tb = check_tau_bounds(1, 1, n)
        assert tb.omega_bound_ok and tb.tau_bound_ok, n
        tb = check_tau_bounds(1, 2, n)
        assert tb.omega_bound_ok and tb.tau_bound_ok, n


def test_digit_cap_raises():
    # F_500 runs past the factorization digit cap
    with pytest.raises(ResourceLimitError):
        check_tau_bounds(1, 1, 500)
    # F_2 = a, so a = 10^100 is the first value with 101 digits
    with pytest.raises(ResourceLimitError, match=r"^F_2 has 101 digits, above the 80-digit cap$"):
        primitive_divisors(10**100, 1, 2)
    with pytest.raises(ResourceLimitError, match=r"^F_2 has 100 digits, above the 80-digit cap$"):
        primitive_divisors(10**100 - 1, 1, 2)


def test_huge_indices_are_refused_before_evaluation(monkeypatch):
    def refuse(*args):
        raise AssertionError("F_n was evaluated")

    monkeypatch.setattr(genfib.core, "_f_pair", refuse)
    for call in (partial(check_tau_bounds, 1, 1, 10**15), partial(check_tau_prime_power, 1, 1, 3, 40),
                 partial(primitive_divisors, 1, 1, 10**12)):
        with pytest.raises(ResourceLimitError, match="above the 1000000-digit cap"):
            call()


def test_factorization_is_value_object():
    f = Factorization(12, ((2, 2), (3, 1)))
    assert f.tau == 6 and f.big_omega == 3
    assert f.divisors() == [1, 2, 3, 4, 6, 12]


def _check_against_oracles(a, b, n):
    """_factor_f against sympy, primitive_divisors against the linear rank scan."""
    want = tuple(sorted(sympy.factorint(f_fast(a, b, n)).items()))
    assert divisors._factor_f(a, b, n)[0].factors == want, (a, b, n)
    scanned = tuple(p for p, _ in want if rank_of_apparition(a, b, p, limit=n) == n)
    assert primitive_divisors(a, b, n).primitive_primes == scanned, (a, b, n)


# every pair is factored through the divisors of n from n = 4 on; (2, 2) and
# (4, 2) share a factor, whose primes divide every F_n from n = 2 on and are
# divided out first, while rank(p) | m <=> p | F_m holds for the other primes
@pytest.mark.parametrize("a, b, n_max", [(1, 1, 60), (2, 1, 60), (1, 2, 60), (3, 1, 60),
                                         (2, 2, 40), (4, 2, 40)])
def test_factor_f_against_oracles(a, b, n_max):
    for n in range(1, n_max + 1):
        _check_against_oracles(a, b, n)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_factor_f_against_oracles_random_coefficients(a, b, n):
    _check_against_oracles(a, b, n)


# indices that hit the rho budget when F_n was factored whole, and are
# factored through the divisors of n now (criterion 10's former skip set, and
# three indices of pairs with gcd(a, b) > 1); ECM splits (3, 1) n = 107 and
# n = 115, which stuck after p-1/p+1 and the whole rho budget
@pytest.mark.parametrize("a, b, n", [(2, 1, 94), (2, 1, 118), (3, 1, 85), (3, 1, 94),
                                     (3, 1, 101), (3, 1, 107), (3, 1, 111), (3, 1, 114),
                                     (3, 1, 115), (3, 1, 116), (4, 2, 82), (4, 2, 86),
                                     (3, 3, 94)])
def test_formerly_skipped_indices_factor_exactly(a, b, n):
    fac, _ = divisors._factor_f(a, b, n)
    prod = 1
    for p, e in fac.factors:
        assert sympy.isprime(p), p
        prod *= p**e
    assert prod == fac.n == f_fast(a, b, n)


def test_skip_reason_names_whole_term():
    # F_113 of (3, 1) is stuck in its primitive part, on a composite of two
    # 19- and 20-digit primes that neither p-1, p+1, rho nor ECM splits; the
    # reason names all of F_113
    stuck = 158915998676783745374914020684094761481
    assert divisors._pm1_divisor(stuck, 113, 3 * 3 + 4) is None
    with pytest.raises(ResourceLimitError) as info:
        divisors._factor_f(3, 1, 113)
    assert str(info.value) == f"rho budget exhausted factoring {f_fast(3, 1, 113)} (stuck on {stuck})"


@pytest.fixture
def tiny_rho_budget(monkeypatch):
    # the p-1/p+1 stage gets bounds too small to split anything and ECM no
    # curves, so rho is what runs out: 9375829 | F_73 of (1, 1) has
    # p - 1 = 2^2*3*7*11*73*139
    monkeypatch.setattr(divisors, "RHO_BUDGET", 10)
    monkeypatch.setattr(divisors, "STAGE1_BOUND", 1)
    monkeypatch.setattr(divisors, "STAGE2_BOUND", 1)
    monkeypatch.setattr(divisors, "ECM_CURVES", 0)
    divisors._factor_f.cache_clear()
    yield
    divisors._factor_f.cache_clear()


def test_factor_f_failure_is_memoised(tiny_rho_budget, monkeypatch):
    calls = _count_rho_walks(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(ResourceLimitError) as info:
            divisors._factor_f(1, 1, 73)
        messages.append(str(info.value))
    assert messages[0] == messages[1] and len(calls) == 1


def test_stuck_divisor_term_stops_the_split(tiny_rho_budget):
    # F_73 = 9375829 * 86020717 needs rho; F_146 cannot be split past it
    stuck = 9375829 * 86020717
    with pytest.raises(ResourceLimitError, match=f"factoring {f_fast(1, 1, 73)} .stuck on {stuck}."):
        divisors._factor_f(1, 1, 73)
    with pytest.raises(ResourceLimitError, match=f"factoring {f_fast(1, 1, 146)} .stuck on {stuck}."):
        divisors._factor_f(1, 1, 146)
    with pytest.raises(ResourceLimitError, match=f"stuck on {stuck}"):
        primitive_divisors(1, 1, 146)


# primes +-1 mod 109 whose p - 1 and p + 1 each have a prime above
# STAGE2_BOUND; the first two divide 3^218 - 1, so the first gcd of p-1
# catches both of them and neither of the others, and p-1/p+1 leaves their
# product as two composites, each of which goes on through the chain
TWO_LEFT_A = (521402591, 27866471458012723)
TWO_LEFT_B = (2000025959, 70000001213)


def _stand_in_for_f109(monkeypatch):
    """Let `_factor_f(1, 1, 109)` factor the product of the four primes above in place of F_109."""
    m = prod(TWO_LEFT_A) * prod(TWO_LEFT_B)
    real = divisors.f_fast
    monkeypatch.setattr(divisors, "f_fast", lambda a, b, n: m if (a, b, n) == (1, 1, 109) else real(a, b, n))
    divisors._factor_f.cache_clear()
    return m


def test_pm1_leaves_two_composites_for_the_chain(monkeypatch):
    for p in TWO_LEFT_A + TWO_LEFT_B:
        assert sympy.isprime(p) and p % 109 in (1, 108)
        assert max(sympy.factorint(p - 1)) > divisors.STAGE2_BOUND
        assert max(sympy.factorint(p + 1)) > divisors.STAGE2_BOUND
        assert (pow(3, 2 * 109, p) == 1) == (p in TWO_LEFT_A)
    a, b = prod(TWO_LEFT_A), prod(TWO_LEFT_B)
    assert divisors._pm1_divisor(a * b, 109, 5) == a
    assert divisors._pm1_divisor(a, 109, 5) is None and divisors._pm1_divisor(b, 109, 5) is None
    m = _stand_in_for_f109(monkeypatch)
    try:
        assert divisors._factor_f(1, 1, 109)[0].factors == _sympy_factors(m)
    finally:
        divisors._factor_f.cache_clear()


def test_stuck_composites_left_by_pm1_are_named_together(tiny_rho_budget, monkeypatch):
    # neither composite splits, and the error names their product
    m = _stand_in_for_f109(monkeypatch)
    with pytest.raises(divisors.RhoBudgetError) as info:
        divisors._factor_f(1, 1, 109)
    assert info.value.stuck == prod(TWO_LEFT_A) * prod(TWO_LEFT_B)
    assert str(info.value) == f"rho budget exhausted factoring {m} (stuck on {m})"


@given(st.integers(-50, 50), st.integers(0, 400), st.integers(1, 10**12))
@settings(max_examples=200)
def test_lucas_v_matches_recurrence(p, e, m):
    # V_k(p, 1) is the (2, p | p, -1) sequence
    assert divisors._lucas_v(p, e, m) == g_iter(SequenceParams(2, p, p, -1), e) % m


# primes q whose q - 1 and q + 1 both have a prime factor above STAGE2_BOUND,
# so that neither side of the stage can split them off
HARD_Q1 = 9731641888627922639
HARD_Q2 = 666077066432791168487


def test_hard_primes_are_hard():
    for q in (HARD_Q1, HARD_Q2):
        assert sympy.isprime(q)
        assert max(sympy.factorint(q - 1)) > divisors.STAGE2_BOUND
        assert max(sympy.factorint(q + 1)) > divisors.STAGE2_BOUND


def test_pm1_stage1_splits_p_minus_1_smooth(monkeypatch):
    # p = 1 mod 101, p - 1 = 2*17*19*29*37*71*101*149*151*157*193
    p = 3388692329339923583
    monkeypatch.setattr(divisors, "STAGE2_BOUND", divisors.STAGE1_BOUND)
    assert divisors._pm1_divisor(p * HARD_Q1, 101, 5) == p


def test_pp1_stage2_splits_p_plus_1_one_prime_past_stage1(monkeypatch):
    # p = -1 mod 101 with (5/p) = -1, p + 1 = 2*37^2*101^2*131*137*151*179*92297:
    # smooth to STAGE1_BOUND but for 92297, which only stage 2 covers;
    # p - 1 = 2^2*3*109048453*955619190481 is smooth on neither stage
    p = 1250505532548784510717
    assert divisors._pm1_divisor(p * HARD_Q2, 101, 5) == p
    monkeypatch.setattr(divisors, "STAGE2_BOUND", divisors.STAGE1_BOUND)
    assert divisors._pm1_divisor(p * HARD_Q2, 101, 5) is None


def test_pm1_stage1_reaches_every_small_primitive_prime(monkeypatch):
    # no trial division runs before p-1/p+1 on the primitive part of F_n:
    # stage 1 alone, started from 2n, splits each primitive prime p < 10^4
    # of the criterion-10 pairs off p * HARD_Q1, p = n with n | D included
    monkeypatch.setattr(divisors, "STAGE2_BOUND", divisors.STAGE1_BOUND)
    small = list(sympy.primerange(2, 10**4))
    checked = []
    for a, b in [(1, 1), (2, 1), (1, 2), (3, 1)]:
        for n in range(4, 91):
            fn = f_fast(a, b, n)
            for p in small:
                if fn % p == 0 and rank_of_apparition(a, b, p, limit=n) == n:
                    assert divisors._pm1_divisor(p * HARD_Q1, n, a * a + 4 * b) == p, (a, b, n, p)
                    checked.append((a, b, n, p))
    # p = n with n | D, for (1, 1) and (3, 1), and 13^2 = F_7 of (2, 1)
    assert {(1, 1, 5, 5), (3, 1, 13, 13), (2, 1, 7, 13)} <= set(checked)
    assert f_fast(2, 1, 7) == 13**2


def _smooth_split(m, n, d, counts):
    """The p-1/p+1 stage on m, a divisor of the primitive part of F_n with a^2 + 4b = d."""
    return divisors._split(m, counts, partial(divisors._pm1_divisor, n=n, d=d))


def test_smooth_split_leaves_unsplit_composite_for_rho():
    c = HARD_Q1 * HARD_Q2
    counts = {}
    assert _smooth_split(c, 101, 5, counts) == c and counts == {}
    # the whole composite then goes on through the chain, which leaves it
    # whole when rho and ECM give up
    assert divisors._split(c, counts, divisors._tail(10, divisors.RACE_CURVES, 0)) == c and counts == {}


@given(st.lists(st.integers(10**6, 10**14), min_size=2, max_size=4),
       st.integers(4, 120), st.sampled_from([5, 8, 9, 13, 21]))
@settings(max_examples=40, deadline=None)
def test_smooth_split_returns_primes_that_rebuild_the_input(starts, n, d):
    m = 1
    for x in starts:
        m *= sympy.nextprime(x)
    counts = {}
    rest = _smooth_split(m, n, d, counts)
    assert all(sympy.isprime(p) for p in counts)
    assert rest == 1 or not sympy.isprime(rest)
    prod = rest
    for p, e in counts.items():
        prod *= p**e
    assert prod == m


def _stage1_exponent():
    """prod q^floor(log_q STAGE1_BOUND) over the primes q <= STAGE1_BOUND."""
    e = 1
    for q in sympy.primerange(2, divisors.STAGE1_BOUND + 1):
        qk = q
        while qk * q <= divisors.STAGE1_BOUND:
            qk *= q
        e *= qk
    return e


def test_stage_tables_cover_each_stage():
    b1, b2 = divisors.STAGE1_BOUND, divisors.STAGE2_BOUND
    chunks, k0, blocks = divisors._stage_tables(b1, b2)
    # stage 1: every prime up to B1 as often as its largest power up to B1
    walk = [q for _, qs in chunks for q in qs]
    assert walk == sorted(walk) and prod(walk) == _stage1_exponent()
    assert all(e == prod(qs) for e, qs in chunks)
    # stage 2: the giant steps k*210 +- j cover the primes in (B1, B2], and
    # each offset j of a step stands for at least one of them
    w = divisors._GIANT_STEP
    steps = [js for block in blocks for js in block]
    pairs = [((k0 + i) * w - j, (k0 + i) * w + j) for i, js in enumerate(steps) for j in js]
    primes = set(sympy.primerange(b1 + 1, b2 + 1))
    assert primes == {q for pair in pairs for q in pair} & primes
    assert all(set(pair) & primes for pair in pairs) and len(set(pairs)) == len(pairs)


# n = 101, d = 5 (the pair (1, 1)): pairs of primes that one gcd over the
# whole of stage 1, or over the whole of stage 2, catches together
PM1_PAIR = (9650551, 152954686037554861930792141)  # p = 1 mod 101, p - 1 smooth to 47
PP1_PAIR = (1263993587, 23314116054012281783)  # p = -1 mod 101, (5/p) = -1, p + 1 smooth to 53
STAGE2_PAIR = (9567567741481, 1946521850608140963301)  # p - 1 smooth but for 49877 and 50077


def test_pm1_backoff_splits_a_stage1_collision():
    c = PM1_PAIR[0] * PM1_PAIR[1]
    for p in PM1_PAIR:
        assert sympy.isprime(p) and p % 101 == 1 and max(sympy.factorint((p - 1) // 202)) <= 47
    assert pow(3, 2 * 101 * _stage1_exponent(), c) == 1
    assert divisors._pm1_divisor(c, 101, 5) in PM1_PAIR


def _walk_seed(d, c):
    """The seed 2(1 + 4d)/(1 - 4d) mod c of the Lucas walk."""
    return 2 * (1 + 4 * d) * pow(1 - 4 * d, -1, c)


def test_pp1_backoff_splits_a_stage1_collision():
    c = PP1_PAIR[0] * PP1_PAIR[1]
    for p in PP1_PAIR:
        assert sympy.isprime(p) and p % 101 == 100 and sympy.jacobi_symbol(5, p) == -1
        assert max(sympy.factorint((p + 1) // 202)) <= 53
        assert max(sympy.factorint(p - 1)) > divisors.STAGE2_BOUND
        # the walk does not catch p at its start
        assert divisors._lucas_v(_walk_seed(5, c), 2 * 101, p) != 2
    # but catches both primes in the first chunk of stage 1, in one gcd
    (first, _), *_ = divisors._stage_tables(divisors.STAGE1_BOUND, divisors.STAGE2_BOUND)[0]
    assert divisors._lucas_v(_walk_seed(5, c), 2 * 101 * first, c) == 2
    assert divisors._pm1_divisor(c, 101, 5) in PP1_PAIR


def test_stage2_backoff_splits_a_collision_in_one_giant_step(monkeypatch):
    c = STAGE2_PAIR[0] * STAGE2_PAIR[1]
    e = 2 * 101 * _stage1_exponent()
    for p, q in zip(STAGE2_PAIR, (49877, 50077)):
        assert sympy.isprime(p) and sympy.isprime(q) and p % 101 == 1
        assert max(sympy.factorint((p - 1) // (202 * q))) <= 43
        assert pow(3, e, p) != 1
        # (5/p) = 1, so the walk runs mod p in the group of order p - 1:
        # stage 1 leaves p, and the stage-2 prime q catches it
        assert sympy.jacobi_symbol(5, p) == 1
        assert divisors._lucas_v(_walk_seed(5, p), e, p) != 2
        assert divisors._lucas_v(_walk_seed(5, p), e * q, p) == 2
    # 49877 = 238*210 - 103 and 50077 = 238*210 + 97: the same giant step
    assert (49877 + 105) // 210 == (50077 + 105) // 210
    assert divisors._pm1_divisor(c, 101, 5) in STAGE2_PAIR
    monkeypatch.setattr(divisors, "STAGE2_BOUND", divisors.STAGE1_BOUND)
    assert divisors._pm1_divisor(c, 101, 5) is None


# pairs of primitive primes of one F_n that the walk splits; a walk seeded
# with the root ratio, as 2(1 + d)/(1 - d) is when a = 1, has order n mod
# both and catches all of c at V_2n, and p-1 cannot split them alone
@pytest.mark.parametrize("a, b, n, pair", [
    # both -1 mod 211 with (5/p) = -1, p + 1 = 2*17*211*3137 and 2*3*211*30403,
    # p - 1 not smooth
    (1, 1, 211, (22504837, 38490197)),
    # d = 9 is a square and both are 1 mod 76; p - 1 = 2^2*3*19 and 2^3*3*19
    # are caught by the same step of p-1
    (1, 2, 76, (229, 457)),
])
def test_lucas_walk_splits_primitive_pairs(a, b, n, pair):
    d = a * a + 4 * b
    c = pair[0] * pair[1]
    assert f_fast(a, b, n) % c == 0
    assert all(sympy.isprime(p) and rank_of_apparition(a, b, p, limit=n) == n for p in pair)
    assert divisors._lucas_v(2 * (1 + d) * pow(1 - d, -1, c), 2 * n, c) == 2
    chunks = divisors._stage_tables(divisors.STAGE1_BOUND, divisors.STAGE2_BOUND)[0]
    assert divisors._stage1(pow(3, 2 * n, c), lambda x: x - 1, pow, chunks, c)[0] in (1, c)
    assert divisors._pm1_divisor(c, n, d) in pair


def _smooth_primes(sign):
    """The primes p = 202m + sign, m a product of primes up to 13 below 10^6, with (5/p) = -1 when sign is -1."""
    ms = [1]
    for q in (2, 3, 5, 7, 11, 13):
        ms = [m * q**k for m in ms for k in range(6) if m * q**k < 10**6]
    ps = [202 * m + sign for m in sorted(ms)]
    return [p for p in ps if sympy.isprime(p) and (sign == 1 or sympy.jacobi_symbol(5, p) == -1)]


SMOOTH_PRIMES = _smooth_primes(1) + _smooth_primes(-1)


@given(st.lists(st.sampled_from(SMOOTH_PRIMES), min_size=2, max_size=4, unique=True))
@settings(max_examples=80, deadline=None)
def test_backoff_pieces_are_prime_and_rebuild_the_input(primes):
    # the primes are +-1 mod 101 with p -+ 1 smooth, so stage-1 gcds often
    # catch several at once; whatever the stage splits must be exact
    m = prod(primes)
    g = divisors._pm1_divisor(m, 101, 5)
    assert g is None or (1 < g < m and m % g == 0)
    counts = {}
    rest = _smooth_split(m, 101, 5, counts)
    assert all(sympy.isprime(p) for p in counts)
    assert rest == 1 or not sympy.isprime(rest)
    assert rest * prod(p**e for p, e in counts.items()) == m


# (n, p, q): p = 1 and q = -1 mod n, 10 to 16 digits, with p - 1, p + 1,
# q - 1 and q + 1 each divisible by a prime above STAGE2_BOUND, so that
# p-1/p+1 cannot split p * q and ECM has to
ECM_SEMIPRIMES = [
    (101, 5942872927, 1434924069040601),
    (97, 205380825313, 92018266108661),
    (113, 4777455681181, 196765774228459),
    (120, 67697068801, 3167696064125039),
    (89, 9537610396285247, 4556250748854979),
    (90, 154364196812671, 8397381398803109),
]
# the composites (3, 1) n = 107 and n = 115 were stuck on after p-1/p+1 and
# the whole rho budget
STUCK_107 = 10717864296222118140356082758847437970698729224475153
STUCK_115 = 342031920897076540295497833169


@pytest.mark.parametrize("n, p, q", ECM_SEMIPRIMES)
def test_ecm_semiprimes_are_hard_for_pm1(n, p, q):
    for r in (p, q):
        assert sympy.isprime(r) and 10**9 <= r < 10**16
        assert max(sympy.factorint(r - 1)) > divisors.STAGE2_BOUND
        assert max(sympy.factorint(r + 1)) > divisors.STAGE2_BOUND
    assert p % n == 1 and q % n == n - 1


@pytest.mark.parametrize("c", [p * q for _, p, q in ECM_SEMIPRIMES] + [STUCK_107, STUCK_115])
def test_ecm_split_matches_sympy(c):
    # with no rho step, ECM splits what the Fermat step leaves whole
    assert divisors._fermat_divisor(c) is None
    counts = {}
    assert divisors._split(c, counts, divisors._tail(0, 0, divisors.ECM_CURVES)) == 1
    assert tuple(sorted(counts.items())) == _sympy_factors(c)


def test_ecm_stage2_splits_what_stage1_alone_does_not(monkeypatch):
    # the third curve splits this p * q in stage 2; stage 1 alone splits it
    # on none of the first ECM_CURVES curves
    _, p, q = ECM_SEMIPRIMES[2]
    assert divisors._fermat_divisor(p * q) is None
    assert divisors._split(p * q, {}, divisors._tail(0, 0, 2)) == p * q
    assert divisors._split(p * q, {}, divisors._tail(0, 0, 3)) == 1
    monkeypatch.setattr(divisors, "STAGE2_BOUND", divisors.STAGE1_BOUND)
    assert divisors._split(p * q, {}, divisors._tail(0, 0, divisors.ECM_CURVES)) == p * q


@given(st.lists(st.integers(10**4, 10**12), min_size=1, max_size=4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_ecm_pieces_are_prime_and_rebuild_the_input(starts, curves):
    # a curve can catch several primes at once, or all of them; whatever
    # ECM records must be prime, and the pieces must multiply back
    m = prod(sympy.nextprime(x) for x in starts)
    # the Fermat step leaves m whole, so that ECM, with no rho step, splits it
    assume(divisors._fermat_divisor(m) is None)
    counts = {}
    rest = divisors._split(m, counts, divisors._tail(0, 0, curves))
    assert all(sympy.isprime(p) for p in counts)
    assert rest == 1 or not sympy.isprime(rest)
    assert rest * prod(p**e for p, e in counts.items()) == m


def test_ecm_curve_budget_names_the_stuck_composite(monkeypatch):
    # rho is given no steps, so ECM gets the primitive part of F_115 of
    # (3, 1) that p-1/p+1 leaves, 30887698889 * STUCK_115: three curves split
    # it in two, and the 14th curve on STUCK_115, the 17th in all, splits that
    monkeypatch.setattr(divisors, "RHO_BUDGET", 0)
    monkeypatch.setattr(divisors, "ECM_CURVES", 16)
    divisors._factor_f.cache_clear()
    try:
        with pytest.raises(ResourceLimitError) as info:
            divisors._factor_f(3, 1, 115)
        assert str(info.value) == f"rho budget exhausted factoring {f_fast(3, 1, 115)} (stuck on {STUCK_115})"
        monkeypatch.setattr(divisors, "ECM_CURVES", 17)
        divisors._factor_f.cache_clear()
        assert divisors._factor_f(3, 1, 115)[0].n == f_fast(3, 1, 115)
    finally:
        divisors._factor_f.cache_clear()
