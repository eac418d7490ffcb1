"""Core evaluation: the fast path must agree with a reference recurrence.

The reference below is written independently of the library so the two
implementations cannot share a bug.
"""

import math
import re
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from genfib import DomainError, SequenceParams, f_fast, g_fast, g_iter, g_prefix, is_cquence
from genfib import (
    ResourceLimitError,
    addition_grid,
    addition_sides,
    alternating_witnesses,
    binet_eval,
    binet_repeated_root,
    check_alternating_bisquable,
    check_tau_bounds,
    determinant_sides,
    factorize,
    gcd_identity_grid,
    primitive_divisors,
)
import genfib.core
import genfib.quadfield
from genfib.core import EVAL_DIGIT_LIMIT, _f_pair, check_digit_cap, digit_bound, digit_count, int_text


def reference(u, v, a, b, n):
    if n == 0:
        return u
    lo, hi = u, v
    for _ in range(n - 1):
        lo, hi = hi, a * hi + b * lo
    return hi


FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765]
LUCAS = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
PELL = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741, 13860]
JACOBSTHAL = [0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341]
G_3_7_2_5 = [3, 7, 29, 93, 331, 1127, 3909]


def test_known_sequences():
    fib = SequenceParams(0, 1, 1, 1)
    assert [g_iter(fib, n) for n in range(21)] == FIB
    assert [g_fast(fib, n) for n in range(21)] == FIB
    assert [g_iter(SequenceParams(2, 1, 1, 1), n) for n in range(11)] == LUCAS
    assert [g_fast(SequenceParams(0, 1, 2, 1), n) for n in range(13)] == PELL
    assert [g_fast(SequenceParams(0, 1, 1, 2), n) for n in range(11)] == JACOBSTHAL
    assert [g_fast(SequenceParams(3, 7, 2, 5), n) for n in range(7)] == G_3_7_2_5


def test_large_index_values():
    assert g_fast(SequenceParams(0, 1, 1, 1), 50) == 12586269025
    assert g_fast(SequenceParams(0, 1, 1, 1), 100) == 354224848179261915075
    assert g_fast(SequenceParams(2, -7, 3, -1), 17) == -44276827


def test_g_prefix_matches_pointwise():
    p = SequenceParams(2, -3, -1, 4)
    assert g_prefix(p, 25) == [g_iter(p, n) for n in range(26)]
    assert g_prefix(p, 0) == [2]


# a, b on both sides of g_iter's 2^60 multiplier bound, with near-square
# roots of it so that the bound is crossed part way up the block
coef_st = st.one_of(
    st.integers(-20, 20),
    st.integers(-(2**31), 2**31),
    st.integers(2**60 - 4, 2**60 + 4),
    st.integers(-(2**60) - 4, -(2**60) + 4),
    st.integers(-(2**62), 2**62),
)
seed_st = st.integers(-(2**70), 2**70)


@given(seed_st, seed_st, coef_st, coef_st, st.integers(0, 700))
@settings(max_examples=300)
@example(1, -1, 2**30 - 1, 1, 700)
@example(3, 5, 2**61, 3, 130)
def test_g_iter_matches_one_step_oracle(u, v, a, b, n):
    # g_prefix walks one term per step, so it checks every block of g_iter
    p = SequenceParams(u, v, a, b)
    assert g_iter(p, n) == g_prefix(p, n)[n]


BLOCK_PAIRS = [(0, 0), (1, 0), (0, 1), (0, -1), (1, -1), (-1, -1), (2, -1), (2**61, 3)]
BLOCK_INDICES = (0, 1, 2, 63, 64, 65, 127, 128, 129, 130, 1000)


@pytest.mark.parametrize("a, b", BLOCK_PAIRS)
def test_g_iter_block_edges(a, b):
    # indices on either side of one and two 64-term blocks; periodic,
    # linear, zero and one-term-fallback coefficients
    for u, v in [(0, 1), (2, 1), (-3, 7)]:
        p = SequenceParams(u, v, a, b)
        oracle = g_prefix(p, 1000)
        assert [g_iter(p, n) for n in BLOCK_INDICES] == [oracle[n] for n in BLOCK_INDICES]


def test_g_iter_does_not_use_the_doubling_ladder(monkeypatch):
    # the recurrence is an independent route beside g_fast and Binet, so it
    # must give every value with the F-ladder and Z[omega] powers out of reach
    def refuse(*args):
        raise RuntimeError("g_iter reached a fast route")

    monkeypatch.setattr(genfib.core, "_f_pair", refuse)
    monkeypatch.setattr(genfib.quadfield, "quad_pow", refuse)
    for a, b in [(1, 1), (3, -1), (1, -3), (2, -1), (2**61, 3)]:
        for u, v in [(0, 1), (2, 1), (-3, 4)]:
            p = SequenceParams(u, v, a, b)
            assert [g_iter(p, n) for n in range(0, 300, 7)] == g_prefix(p, 300)[::7]


params_st = st.tuples(
    st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10)
)


@given(params_st, st.integers(0, 200))
@settings(max_examples=300)
# n = 0 and n = 1 with b = 0, a = 0 and u != 0: the split must give the seeds
@example((3, -5, 2, 0), 0)
@example((3, -5, 2, 0), 1)
@example((-4, 7, 0, 3), 0)
@example((-4, 7, 0, 3), 1)
@example((6, 1, 0, 0), 0)
@example((6, 1, 0, 0), 1)
@example((6, 1, 0, 0), 2)
def test_fast_agrees_with_reference(quad, n):
    u, v, a, b = quad
    assert g_fast(SequenceParams(u, v, a, b), n) == reference(u, v, a, b, n)


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 120))
@settings(max_examples=200)
def test_f_fast_is_zero_one_seeded(a, b, n):
    assert f_fast(a, b, n) == reference(0, 1, a, b, n)


def test_degenerate_coefficients():
    # a = b = 0 collapses after the seeds; doubling must not choke on it
    p = SequenceParams(5, 7, 0, 0)
    assert [g_fast(p, n) for n in range(6)] == [5, 7, 0, 0, 0, 0]
    assert [g_fast(SequenceParams(4, 9, 0, 3), n) for n in range(6)] == [4, 9, 12, 27, 36, 81]


def test_negative_index_rejected():
    p = SequenceParams(0, 1, 1, 1)
    for fn in (lambda: g_iter(p, -1), lambda: g_fast(p, -3), lambda: f_fast(1, 1, -1),
               lambda: g_prefix(p, -2)):
        with pytest.raises(DomainError):
            fn()


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 300))
@settings(max_examples=150)
@example(0, 0, 0)
@example(3, 0, 1)
def test_f_state_carries_consecutive_pair(a, b, n):
    assert _f_pair(a, b, n) == (reference(0, 1, a, b, n), reference(0, 1, a, b, n + 1))


def test_is_cquence():
    assert is_cquence(SequenceParams(0, 1, 1, 1))
    assert is_cquence(SequenceParams(2, 3, 1, 5))
    assert is_cquence(SequenceParams(0, 1, 2, 1))
    # gcd(0, b) = b, so the (0, 1) seeds pass only with b = 1
    assert not is_cquence(SequenceParams(0, 1, 1, 2))
    assert not is_cquence(SequenceParams(2, 4, 1, 1))   # gcd(u, v) = 2
    assert not is_cquence(SequenceParams(1, 1, 2, 4))   # gcd(a, b) = 2
    assert not is_cquence(SequenceParams(1, 3, 1, 6))   # gcd(b, v) = 3
    assert not is_cquence(SequenceParams(1, 1, 1, 0))   # b = 0 excluded outright


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-6, 6), st.integers(-9, 9),
       st.integers(0, 400))
@settings(max_examples=300)
def test_digit_bound_is_an_upper_bound(u, v, a, b, n):
    # distinct real, repeated (a^2 + 4b = 0) and complex roots alike
    value = abs(reference(u, v, a, b, n))
    assert len(str(value)) <= digit_bound(SequenceParams(u, v, a, b), n)


@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (1, 2), (3, 1), (5, 7)])
def test_digit_bound_is_close_for_f(a, b):
    # for positive coefficients F_n grows as R^n / sqrt(D), so the bound is
    # off by little more than its log10(n) term
    p = SequenceParams(0, 1, a, b)
    for n in (10, 100, 1000, 3000):
        assert digit_bound(p, n) - len(str(f_fast(a, b, n))) < math.log10(n) + 2


def _last_index_below_cap(p):
    lo, hi = 0, 10**18
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if int(digit_bound(p, mid)) <= EVAL_DIGIT_LIMIT:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_digit_cap_edges():
    p = SequenceParams(0, 1, 1, 1)
    n = _last_index_below_cap(p)
    # F_n has n*log10(phi) - log10(sqrt(5)) digits, give or take one: the
    # cap falls a few dozen indices below where F_n itself reaches 10^6 digits
    phi = (1 + math.sqrt(5)) / 2
    reach = (EVAL_DIGIT_LIMIT + math.log10(math.sqrt(5))) / math.log10(phi)
    assert reach - 40 < n < reach
    check_digit_cap(p, n)
    with pytest.raises(ResourceLimitError, match="above the 1000000-digit cap"):
        check_digit_cap(p, n + 1)
    # from a growth of 2^40 digits on the figure is summed in ints and is at
    # least the digit count of F_n, n*log10(phi) - log10(sqrt(5)), and at
    # least (n - 1)*log10(phi), with no float overflow even at 10^400
    with pytest.raises(ResourceLimitError, match="^G_1000000000000000000 may have up to 208987640250168768 digits"):
        check_digit_cap(p, 10**18)
    with localcontext() as ctx:
        ctx.prec = 450
        log_phi = (1 + Decimal(5).sqrt()).log10() - Decimal(2).log10()
        for big in (5 * 10**17, 10**18, 10**20, 10**400):
            with pytest.raises(ResourceLimitError) as refused:
                check_digit_cap(p, big)
            stated = int(re.search(r"up to (\d+) digits", str(refused.value)).group(1))
            assert stated >= int(big * log_phi - Decimal(5).sqrt().log10()) + 1
            assert (big - 1) * log_phi <= stated < (big - 1) * log_phi * (1 + Decimal(10) ** -9)
    # repeated root 2 and complex roots of modulus sqrt(5)
    for q in (SequenceParams(1, 3, 4, -4), SequenceParams(2, 1, 2, -5)):
        n = _last_index_below_cap(q)
        check_digit_cap(q, n)
        with pytest.raises(ResourceLimitError):
            check_digit_cap(q, n + 1)


_SEED_INTS = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6), st.integers(-10**40, 10**40))


@given(_SEED_INTS, _SEED_INTS, _SEED_INTS, _SEED_INTS, st.integers(-2, 2))
@example(0, 1, 1, 1, 0)
@example(0, 1, 10**40, -(10**40), 1)
@example(0, 1, 2, -1, 0)
@settings(max_examples=200)
def test_pre_test_passes_no_index_that_the_bound_refuses(u, v, a, b, shift):
    # the plain-int pre-test of check_digit_cap, at its own edge and at the
    # last index that digit_bound lets through
    p = SequenceParams(u, v, a, b)
    edge = EVAL_DIGIT_LIMIT // (abs(u) + abs(v) + abs(a) + abs(b) + 1).bit_length() - 1
    assert genfib.core._under_cap(u, v, a, b, edge)
    assert not genfib.core._under_cap(u, v, a, b, edge + 1)
    assert not genfib.core._under_cap(u, v, a, b, -1)
    last = _last_index_below_cap(p)
    for n in (edge + shift, last + shift):
        if genfib.core._under_cap(u, v, a, b, n):
            assert int(digit_bound(p, n)) <= EVAL_DIGIT_LIMIT
    if last < 10**18:
        # the refusal is the bound's own message
        with pytest.raises(ResourceLimitError) as refused:
            check_digit_cap(p, last + 1)
        assert str(refused.value) == (f"G_{last + 1} may have up to {int(digit_bound(p, last + 1))} digits,"
                                      f" above the {EVAL_DIGIT_LIMIT}-digit cap")


def test_digit_cap_passes_bounded_sequences():
    # roots of modulus 1 grow at most linearly: no index is over the cap
    for p in (SequenceParams(3, 5, 2, -1), SequenceParams(3, 5, 1, -1), SequenceParams(3, 5, 0, 1)):
        check_digit_cap(p, 10**100)
        check_digit_cap(p, 10**400)


HUGE = 10**5000
FIB_PARAMS = SequenceParams(0, 1, 1, 1)


@pytest.mark.parametrize("call, error", [
    (lambda: gcd_identity_grid(1, 1, HUGE), ResourceLimitError),
    (lambda: check_digit_cap(FIB_PARAMS, HUGE), ResourceLimitError),
    (lambda: check_tau_bounds(1, 1, HUGE), ResourceLimitError),
    (lambda: primitive_divisors(1, 1, HUGE), ResourceLimitError),
    (lambda: next(addition_grid(FIB_PARAMS, HUGE, 1)), ResourceLimitError),
    (lambda: g_fast(FIB_PARAMS, -HUGE), DomainError),
    (lambda: factorize(-HUGE), DomainError),
    # every evaluator makes the one-term check itself, after the sign check
    (lambda: g_fast(FIB_PARAMS, HUGE), ResourceLimitError),
    (lambda: f_fast(1, 1, HUGE), ResourceLimitError),
    (lambda: g_iter(FIB_PARAMS, HUGE), ResourceLimitError),
    (lambda: binet_eval(FIB_PARAMS, HUGE), ResourceLimitError),
    (lambda: binet_repeated_root(SequenceParams(0, 1, 4, -4), HUGE), ResourceLimitError),
    (lambda: binet_eval(FIB_PARAMS, -HUGE), DomainError),
    (lambda: addition_sides(FIB_PARAMS, HUGE, 1), ResourceLimitError),
    (lambda: determinant_sides(FIB_PARAMS, HUGE), ResourceLimitError),
    # the alternating-index checks test their prefix with check_prefix_cap
    (lambda: check_alternating_bisquable(FIB_PARAMS, HUGE, "odd"), ResourceLimitError),
    (lambda: alternating_witnesses(FIB_PARAMS, HUGE, "even"), ResourceLimitError),
], ids=["gcd_identity_grid", "check_digit_cap", "check_tau_bounds", "primitive_divisors",
        "addition_grid", "g_fast", "factorize", "g_fast_cap", "f_fast", "g_iter", "binet_eval",
        "binet_repeated_root", "binet_eval_negative", "addition_sides", "determinant_sides",
        "check_alternating_bisquable", "alternating_witnesses"])
def test_huge_ints_are_refused_by_their_digit_count(call, error):
    # str() of an int past the interpreter's 4300-digit limit raises
    # ValueError, so the refusal names such an int by its digit count
    with pytest.raises(error, match="<5001-digit int>"):
        call()


def test_int_text_is_str_below_the_limit():
    for n in (0, -7, 10**4299, -(10**4300 - 1)):
        assert int_text(n) == str(n)
    assert int_text(10**4300) == "<4301-digit int>"
    assert [digit_count(n) for n in (1, -9, 10, 99, 10**4300 - 1, 10**4300)] == [1, 1, 2, 2, 4300, 4301]
