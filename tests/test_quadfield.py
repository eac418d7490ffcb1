"""Closed-form evaluation over Z[omega] with omega^2 = a*omega + b."""

from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

import genfib.core
from genfib import (
    DegenerateDiscriminantError,
    DomainError,
    NondegenerateDiscriminantError,
    SequenceParams,
    binet_eval,
    binet_repeated_root,
    discriminant,
    g_fast,
    g_iter,
    g_prefix,
    quad_mul,
    quad_pow,
)
from genfib.core import digit_count


def test_discriminant_values():
    assert discriminant(1, 1) == 5
    assert discriminant(2, 1) == 8
    assert discriminant(2, -1) == 0
    assert discriminant(4, -4) == 0
    assert discriminant(0, 0) == 0


def test_omega_satisfies_its_equation():
    for a, b in [(1, 1), (3, -2), (-4, 7), (0, 5)]:
        assert quad_mul(a, b, (0, 1), (0, 1)) == (b, a)


def test_quad_pow_edges():
    w = (0, 1)
    mul = partial(quad_mul, 3, 2)
    assert quad_pow(3, 2, w, 0) == (1, 0)
    assert quad_pow(3, 2, w, 1) == w
    assert quad_pow(3, 2, w, 5) == mul(mul(mul(mul(w, w), w), w), w)
    with pytest.raises(DomainError):
        quad_pow(3, 2, w, -1)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 80))
@example(0, 0, 1)
@example(0, -3, 9)
@example(-4, 0, 7)
@settings(max_examples=300)
def test_quad_pow_of_omega_is_a_fibonacci_pair(a, b, n):
    # w^n = b*F_(n-1) + F_n*w, for every (a, b), a = 0 and b = 0 included
    f = g_prefix(SequenceParams(0, 1, a, b), n)
    assert quad_pow(a, b, (0, 1), n) == (b * f[n - 1], f[n])


def test_quad_mul_is_gaussian_multiplication():
    # (a, b) = (0, -1) is Z[i], where the two-square assembly multiplies
    grid = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    for z in grid:
        for w in grid:
            zw = complex(*z) * complex(*w)
            assert quad_mul(0, -1, z, w) == (int(zw.real), int(zw.imag))


def test_binet_known_values():
    fib = SequenceParams(0, 1, 1, 1)
    assert [binet_eval(fib, n) for n in range(12)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert binet_eval(SequenceParams(2, 1, 1, 1), 10) == 123
    assert binet_eval(SequenceParams(0, 1, 2, 1), 9) == 985


def test_binet_seed_orientation():
    # the u-coefficient enters as u*(alpha*beta^n - alpha^n*beta); with the
    # factors swapped the n = 0 value would come out as -u
    p = SequenceParams(5, 2, 1, 1)
    assert binet_eval(p, 0) == 5
    assert binet_eval(p, 1) == 2
    q = SequenceParams(-3, 7, 2, 3)
    assert binet_eval(q, 0) == -3


@given(
    st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
    st.integers(0, 60),
)
@settings(max_examples=250)
def test_binet_matches_recurrence(u, v, a, b, n):
    p = SequenceParams(u, v, a, b)
    if discriminant(a, b) == 0:
        got = binet_repeated_root(p, n)
        assert type(got) is int and got == g_iter(p, n)
    else:
        assert binet_eval(p, n) == g_iter(p, n)


@pytest.mark.parametrize("a, b, n", [(1, 1, 21000), (3, -1, 10500), (1, -3, 18500)],
                         ids=["real-roots", "negative-b", "complex-roots"])
def test_binet_past_the_str_limit(a, b, n):
    # benchmark sizes: the values are past the interpreter's 4300-digit
    # int -> str limit, and the doubling ladder is the reference here
    p = SequenceParams(-2, 5, a, b)
    value = binet_eval(p, n)
    assert digit_count(value) > 4300
    assert value == g_fast(p, n)


def test_binet_does_not_use_the_doubling_ladder(monkeypatch):
    # the closed form is an independent route beside g_iter and g_fast, so
    # it must give every value with the F-ladder out of reach
    def refuse(*args):
        raise RuntimeError("binet_eval reached core._f_pair")

    monkeypatch.setattr(genfib.core, "_f_pair", refuse)
    for a, b in [(1, 1), (3, -1), (1, -3), (-2, 5), (0, 2)]:
        for u, v in [(0, 1), (2, 1), (-3, 4)]:
            p = SequenceParams(u, v, a, b)
            assert [binet_eval(p, n) for n in range(30)] == [g_iter(p, n) for n in range(30)]


def test_repeated_root_grid():
    # every integer degenerate case has a = 2c, b = -c*c
    for c in range(-5, 6):
        if c == 0:
            continue
        for u in (-3, 0, 2):
            for v in (-1, 1, 4):
                p = SequenceParams(u, v, 2 * c, -c * c)
                for n in range(25):
                    assert binet_repeated_root(p, n) == g_iter(p, n)


def test_root_multiplicity_dispatch():
    with pytest.raises(DegenerateDiscriminantError):
        binet_eval(SequenceParams(0, 1, 2, -1), 5)
    with pytest.raises(NondegenerateDiscriminantError):
        binet_repeated_root(SequenceParams(0, 1, 1, 1), 5)


def test_all_zero_coefficients_degenerate():
    # a = b = 0 has discriminant 0 and alpha = 0; only the seeds survive
    p = SequenceParams(3, 4, 0, 0)
    assert [binet_repeated_root(p, n) for n in range(5)] == [3, 4, 0, 0, 0]
