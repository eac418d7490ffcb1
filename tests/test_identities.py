"""Addition formula and the determinant identity, including the negative
control showing the constant must carry the coefficients."""

import pytest
from hypothesis import example, given, settings, strategies as st

from genfib import (
    DomainError,
    ResourceLimitError,
    SequenceParams,
    addition_grid,
    addition_sides,
    determinant_grid,
    determinant_sides,
    g_iter,
    g_prefix,
    identities,
    invariant_quantity,
)
from genfib.core import EVAL_DIGIT_LIMIT


def test_invariant_quantity_values():
    assert invariant_quantity(SequenceParams(0, 1, 1, 1)) == -1
    assert invariant_quantity(SequenceParams(1, 1, 1, 1)) == 1
    assert invariant_quantity(SequenceParams(2, 3, 1, 1)) == 1
    assert invariant_quantity(SequenceParams(1, 1, 2, 1)) == 2
    assert invariant_quantity(SequenceParams(3, 7, 2, 5)) == 38  # 5*9 + 2*21 - 49


def test_addition_spot_values():
    # G_{m+n+1} assembled from the seed sequence and its (0,1) companion
    p = SequenceParams(2, 3, 1, 1)
    for m in range(8):
        for n in range(8):
            lhs, rhs = addition_sides(p, m, n)
            assert lhs == g_iter(p, m + n + 1)
            assert lhs == rhs


small = st.integers(-6, 6)


@given(small, small, small, small, st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=300)
def test_addition_property(u, v, a, b, m, n):
    lhs, rhs = addition_sides(SequenceParams(u, v, a, b), m, n)
    assert lhs == rhs


@given(small, small, small, small, st.integers(0, 40))
@settings(max_examples=300)
def test_determinant_property(u, v, a, b, n):
    lhs, rhs = determinant_sides(SequenceParams(u, v, a, b), n)
    assert lhs == rhs


def test_determinant_spot_values():
    p = SequenceParams(0, 1, 1, 1)
    assert determinant_sides(p, 0) == (-1, -1)
    assert determinant_sides(p, 1) == (1, 1)
    q = SequenceParams(3, 7, 2, 5)
    lhs, rhs = determinant_sides(q, 4)
    assert lhs == 331 * 3909 - 1127 * 1127 and lhs == rhs == 625 * 38


def test_coefficient_free_constant_is_wrong():
    # the naive constant u*u + u*v - v*v only works at a = b = 1; at
    # (u,v,a,b) = (1,1,2,1) the true invariant is 2, not 1
    p = SequenceParams(1, 1, 2, 1)
    naive = p.u * p.u + p.u * p.v - p.v * p.v
    lhs, rhs = determinant_sides(p, 0)
    assert lhs == rhs == 2
    assert naive == 1 and lhs != naive


@given(small, small, st.integers(0, 25))
@settings(max_examples=200)
def test_determinant_reduces_at_unit_coefficients(u, v, n):
    # at a = b = 1 the general constant collapses to the naive one
    p = SequenceParams(u, v, 1, 1)
    lhs, _ = determinant_sides(p, n)
    assert lhs == (-1) ** n * (u * u + u * v - v * v)


# b = 0, repeated roots (a^2 + 4b = 0) and negative coefficients all lie in
# `small`; the examples pin one of each, and the empty-sized grids
@given(small, small, small, small, st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=300)
@example(u=2, v=3, a=1, b=0, max_m=4, max_n=6)
@example(u=3, v=5, a=2, b=-1, max_m=6, max_n=3)  # repeated root 1
@example(u=-1, v=4, a=-4, b=-4, max_m=5, max_n=5)  # repeated root -2
@example(u=1, v=-2, a=-3, b=-5, max_m=0, max_n=0)
@example(u=0, v=1, a=1, b=1, max_m=0, max_n=7)
def test_addition_grid_matches_points(u, v, a, b, max_m, max_n):
    p = SequenceParams(u, v, a, b)
    points = [(m, n, *addition_sides(p, m, n)) for m in range(max_m + 1) for n in range(max_n + 1)]
    assert list(addition_grid(p, max_m, max_n)) == points


@given(small, small, small, small, st.integers(0, 40))
@settings(max_examples=300)
@example(u=2, v=3, a=1, b=0, max_n=6)
@example(u=3, v=5, a=2, b=-1, max_n=10)  # repeated root 1
@example(u=-1, v=4, a=-4, b=-4, max_n=10)  # repeated root -2
@example(u=1, v=-2, a=-3, b=-5, max_n=0)
def test_determinant_grid_matches_points(u, v, a, b, max_n):
    p = SequenceParams(u, v, a, b)
    points = [(n, *determinant_sides(p, n)) for n in range(max_n + 1)]
    assert list(determinant_grid(p, max_n)) == points


def test_grids_refuse_negative_bounds():
    p = SequenceParams(1, 2, 1, 1)
    for max_m, max_n in ((-1, 3), (3, -1), (-1, -1), (-3, 10**400)):
        with pytest.raises(DomainError, match="max_m and max_n must be non-negative"):
            next(addition_grid(p, max_m, max_n))
    with pytest.raises(DomainError, match="max_n must be non-negative"):
        next(determinant_grid(p, -2))


class _Built(Exception):
    pass


def _refuse_to_build(*args):
    raise _Built


def _builds(p, max_m, max_n):
    # with g_prefix refusing, a grid inside the cap raises _Built
    try:
        next(addition_grid(p, max_m, max_n))
    except _Built:
        return True
    except ResourceLimitError:
        return False
    raise AssertionError("the grid neither built a prefix nor was refused")


def test_addition_grid_cap_edge(monkeypatch):
    # the largest max_m that (2, 3 | 1, 1) at max_n = 40 builds, found by
    # bisection with the prefixes refused, is an edge on both sides
    p, f = SequenceParams(2, 3, 1, 1), SequenceParams(0, 1, 1, 1)
    monkeypatch.setattr(identities, "g_prefix", _refuse_to_build)
    lo, hi = 0, 10**4
    assert _builds(p, lo, 40) and not _builds(p, hi, 40)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _builds(p, mid, 40) else (lo, mid)
    monkeypatch.undo()

    def digits(max_m):
        return sum(len(str(abs(x))) for x in g_prefix(p, max_m + 41) + g_prefix(f, 41))

    # the real prefixes at the edge fit; the cap counts every term at the
    # size of the last, and the terms grow linearly in digits, so the
    # refused prefixes hold close to half the cap
    assert digits(lo) <= EVAL_DIGIT_LIMIT < 2 * digits(hi) / 0.95
    for past in (hi, 10**6, 10**400):
        with pytest.raises(ResourceLimitError, match=r"^G_0\.\.G_\d+ and F_0\.\.F_41 may have up to .*-digit cap$"):
            next(addition_grid(p, past, 40))
    # a long F prefix alone is refused
    with pytest.raises(ResourceLimitError, match="-digit cap"):
        next(addition_grid(p, 0, 10**400))
