"""Coprimality lemmas, the gcd identity, and the divisible-sequence scan."""

import pytest
from hypothesis import example, given, settings, strategies as st

from genfib import (
    COUNTEREXAMPLE,
    DIVISIBLE,
    DivisibilityReport,
    DomainError,
    HypothesisViolationError,
    ResourceLimitError,
    SequenceParams,
    check_b_coprime,
    check_ccop,
    check_consecutive_coprime,
    check_divisible_sequence,
    check_f_divisible,
    check_gm_divides_fm,
    divides,
    f_fast,
    gcd_identity_check,
    gcd_identity_grid,
    g_prefix,
    is_cquence,
    scan_divisible,
)
from genfib import divisibility
from genfib.core import EVAL_DIGIT_LIMIT, coprime_gate, digit_bound


def test_divides_conventions():
    assert divides(3, 12)
    assert not divides(5, 12)
    assert divides(-3, 12) and divides(3, -12)
    # every d divides 0, including 0; 0 divides nothing else
    assert divides(5, 0) and divides(0, 0)
    assert not divides(0, 7)


def test_b_coprime_holds_on_cquence():
    assert check_b_coprime(SequenceParams(0, 1, 1, 1), 50)
    assert check_b_coprime(SequenceParams(2, 3, 1, 5), 50)
    assert check_b_coprime(SequenceParams(1, 4, 3, 7), 50)


def test_b_coprime_gate():
    # (0, 1 | 1, 2) fails the gate: gcd(u, b) = gcd(0, 2) = 2. Letting it
    # through would falsify the conclusion anyway, since gcd(2, G_0) = 2.
    with pytest.raises(HypothesisViolationError):
        check_b_coprime(SequenceParams(0, 1, 1, 2), 50)
    with pytest.raises(HypothesisViolationError):
        check_consecutive_coprime(SequenceParams(2, 4, 1, 1), 50)


def test_consecutive_coprime_holds_on_cquence():
    assert check_consecutive_coprime(SequenceParams(0, 1, 1, 1), 60)
    assert check_consecutive_coprime(SequenceParams(3, 2, 5, 7), 60)


def test_cquence_lemmas_on_grid():
    # the two section lemmas hold across every C-quence in a small box
    for u in range(-4, 5):
        for v in range(-4, 5):
            for a in range(1, 5):
                for b in range(1, 5):
                    p = SequenceParams(u, v, a, b)
                    if not is_cquence(p):
                        continue
                    assert check_b_coprime(p, 60), p
                    assert check_consecutive_coprime(p, 60), p


def test_f_divisible():
    # F_n | F_{nk}, no coprimality needed
    assert check_f_divisible(1, 1, 6, 4)
    assert check_f_divisible(2, 1, 3, 3)
    assert check_f_divisible(3, 2, 4, 9)
    assert check_f_divisible(2, 2, 3, 4)
    with pytest.raises(DomainError):
        check_f_divisible(1, 1, -1, 2)


@given(st.integers(1, 30), st.integers(0, 8))
@settings(max_examples=120)
def test_f_divisible_property(n, k):
    assert check_f_divisible(1, 2, n, k)
    assert f_fast(1, 2, n * k) % f_fast(1, 2, n) == 0 or f_fast(1, 2, n) == 0


def test_gcd_identity_spot_value():
    assert f_fast(1, 1, 6) == 8
    assert gcd_identity_check(1, 1, 12, 18)


@given(st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=200)
def test_gcd_identity_property(m, n):
    for a, b in [(1, 1), (2, 1), (1, 2)]:
        assert gcd_identity_check(a, b, m, n)


def test_gcd_identity_gates():
    with pytest.raises(HypothesisViolationError):
        gcd_identity_check(2, 2, 3, 4)
    with pytest.raises(HypothesisViolationError):
        gcd_identity_check(1, 0, 3, 4)
    with pytest.raises(DomainError):
        gcd_identity_check(1, 1, 0, 4)


def _grid_by_points(a, b, top):
    # the per-point oracle, row by row, stopping at the first failure
    checked = 0
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            checked += 1
            if not gcd_identity_check(a, b, m, n):
                return checked, (m, n)
    return checked, None


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-1, 25))
@settings(max_examples=300)
@example(a=1, b=-2, top=25)  # first failure on the diagonal: (53, (3, 3))
@example(a=1, b=-1, top=25)  # (79, (4, 4))
@example(a=3, b=-4, top=25)  # (105, (5, 5))
def test_gcd_identity_grid_matches_point_checks(a, b, top):
    # b = 0, non-coprime pairs and empty grids included; a negative a gives
    # negative terms, so gcd(F_m, F_m) = |F_m| != F_m is a real violation
    assert _outcome(gcd_identity_grid, a, b, top) == _outcome(_grid_by_points, a, b, top)


class _Built(Exception):
    pass


def _refuse_to_build(*args):
    raise _Built


def test_gcd_identity_grid_cap_edge(monkeypatch):
    # the largest top whose prefix F_0..F_top is within the cap for (1, 1)
    f = SequenceParams(0, 1, 1, 1)
    top = 1
    while (top + 2) * digit_bound(f, top + 1) <= EVAL_DIGIT_LIMIT:
        top += 1
    # the bound holds for the real prefix
    assert sum(len(str(v)) for v in g_prefix(f, top)) <= EVAL_DIGIT_LIMIT
    monkeypatch.setattr(divisibility, "g_prefix", _refuse_to_build)
    with pytest.raises(_Built):
        gcd_identity_grid(1, 1, top)
    for past in (top + 1, 10**6, 10**400):
        with pytest.raises(ResourceLimitError, match="-digit cap"):
            gcd_identity_grid(1, 1, past)
    # hypotheses are checked before the cap
    with pytest.raises(HypothesisViolationError):
        gcd_identity_grid(2, 4, 10**6)


def test_divisible_sequence_reports():
    rep = check_divisible_sequence(SequenceParams(0, 1, 1, 1), 30)
    assert rep.verdict == DIVISIBLE and rep.is_divisible and rep.witness is None
    rep = check_divisible_sequence(SequenceParams(1, 2, 1, 1), 30)
    assert rep.verdict == COUNTEREXAMPLE and rep.witness == (1, 2)  # G_1=2, G_2=3
    rep = check_divisible_sequence(SequenceParams(1, 1, 1, 1), 30)
    assert rep.verdict == COUNTEREXAMPLE and rep.witness == (2, 4)  # G_2=2, G_4=5
    # b = 0 with u | v: G_n = v*a^(n-1) from n = 1 on, divisible throughout
    assert check_divisible_sequence(SequenceParams(3, 6, 5, 0), 30).is_divisible
    with pytest.raises(DomainError):
        check_divisible_sequence(SequenceParams(0, 1, 1, 1), 0)


def _first_witness(p, bound):
    # the reference scan: n ascending, then m ascending, under divides()
    vals = g_prefix(p, bound)
    for n in range(1, bound + 1):
        for m in range(2 * n, bound + 1, n):
            if not divides(vals[n], vals[m]):
                return n, m
    return None


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 60))
@settings(max_examples=300)
@example(u=2, v=-1, a=2, b=1, bound=30)  # G_2 = 0 divides only 0, and G_4 = -2
@example(u=0, v=0, a=1, b=1, bound=10)  # every term is 0
@example(u=-4, v=-1, a=-3, b=-3, bound=60)  # the unit G_1 is passed over; witness (2, 4)
@example(u=-4, v=-3, a=-2, b=-3, bound=60)  # G_4 = 0 and G_8 = 81: witness (4, 8)
@example(u=3, v=-3, a=2, b=0, bound=60)  # b = 0: divisible by closed form
@example(u=0, v=3, a=2, b=-3, bound=60)  # u = 0: G = 3F, divisible by closed form
# bounds past G_64, where the walk tests its prefix in stages to 128, 256, bound
@example(u=1, v=2, a=4, b=-4, bound=300)  # G_n = 2^n: divisible
@example(u=1, v=1, a=0, b=1, bound=300)  # every term is 1, so every n is passed over
@example(u=1, v=-1, a=0, b=1, bound=257)  # the terms alternate 1, -1
@example(u=1, v=1, a=2, b=-1, bound=129)  # G_n = u + n*(v - u) = 1
def test_divisible_sequence_witness_matches_divides(u, v, a, b, bound):
    p = SequenceParams(u, v, a, b)
    assert check_divisible_sequence(p, bound).witness == _first_witness(p, bound)


def test_closed_form_classes_hold_on_the_reference_scan():
    # the two classes reported divisible without a term being built
    box = range(-5, 6)
    for x in box:
        for y in box:
            for z in box:
                assert _first_witness(SequenceParams(x, y, z, 0), 120) is None, (x, y, z, 0)
                assert _first_witness(SequenceParams(0, x, y, z), 120) is None, (0, x, y, z)


def _reference_scan(u_range, v_range, a_range, b_range, bound):
    box = [range(lo, hi + 1) for lo, hi in (u_range, v_range, a_range, b_range)]
    survivors = []
    for u in box[0]:
        for v in box[1]:
            for a in box[2]:
                for b in box[3]:
                    p = SequenceParams(u, v, a, b)
                    if (is_cquence(p) if b else divides(u, v)) and _first_witness(p, bound) is None:
                        survivors.append((p, DivisibilityReport(p, bound, DIVISIBLE, None)))
    return survivors


@pytest.mark.parametrize("grid", [
    ((-4, 2), (-3, 3), (-2, 3), (-1, 5)),
    ((-1, 5), (-4, 2), (-4, 1), (-2, 4)),
])
def test_scan_divisible_matches_reference_scan(grid):
    # grids of the shape the benchmark's divisibility scans draw
    assert scan_divisible(*grid, 30) == _reference_scan(*grid, 30)


def test_divisible_sequence_refuses_a_prefix_past_the_cap():
    # G_n = 2^n is divisible, so no witness would stop the walk; its prefix
    # is tested in stages that end at 128, 256, ..., and the one to 2048 is
    # the first past the cap
    p = SequenceParams(1, 2, 4, -4)
    with pytest.raises(ResourceLimitError, match=r"^G_0\.\.G_2048 may have up to 2049 x 621 digits"):
        check_divisible_sequence(p, 10**6)
    assert check_divisible_sequence(p, 200).is_divisible
    # every term of (1, 1 | 0, 1) is 1, so the walk grows one unit term per
    # n; those steps enter the stages too
    with pytest.raises(ResourceLimitError, match=r"^G_0\.\.G_262144 may have up to "):
        check_divisible_sequence(SequenceParams(1, 1, 0, 1), 10**6)
    assert check_divisible_sequence(SequenceParams(1, 1, 0, 1), 1000).is_divisible
    # the closed forms need no prefix, so they are never refused
    assert check_divisible_sequence(SequenceParams(1, 2, 4, 0), 10**6).is_divisible
    assert check_divisible_sequence(SequenceParams(0, 2, 4, -4), 10**6).is_divisible


def test_divisible_sequence_that_fails_early_is_decided_at_any_bound():
    # the walk stops at its witness, long before a prefix to the bound could
    # pass the cap
    for p, witness in ((SequenceParams(1, 1, 1, -1), (2, 4)), (SequenceParams(1, 2, 1, 1), (1, 2))):
        report = check_divisible_sequence(p, 10**6)
        assert (report.verdict, report.witness) == (COUNTEREXAMPLE, witness)


@pytest.mark.parametrize("check, args", [
    (check_f_divisible, (1, 1, 10**12, 1)),
    (check_f_divisible, (1, 1, 1, 10**12)),
    (gcd_identity_check, (1, 1, 3, 10**12)),
    (check_gm_divides_fm, (SequenceParams(0, 1, 1, 1), 10**12)),
    (check_ccop, (SequenceParams(0, 1, 1, 1), 10**12, 1)),
    (check_ccop, (SequenceParams(0, 1, 1, 1), 1, 10**12)),
    (check_ccop, (SequenceParams(1, 2, 1, 1), 10**12, 1)),
    (check_b_coprime, (SequenceParams(0, 1, 1, 1), 10**12)),
    (check_consecutive_coprime, (SequenceParams(0, 1, 1, 1), 10**12)),
], ids=["f_divisible_n", "f_divisible_k", "gcd_identity_check", "gm_divides_fm", "ccop_m", "ccop_q",
        "ccop_m_not_divisible", "b_coprime", "consecutive_coprime"])
def test_point_checks_refuse_huge_indices(check, args):
    with pytest.raises(ResourceLimitError, match="-digit cap"):
        check(*args)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_coprime_gate_is_cquence(u, v, a, b):
    assert coprime_gate(u, v, a, b) == is_cquence(SequenceParams(u, v, a, b))


def test_scan_divisible_refuses_a_bound_below_one():
    # whether or not any grid point passes the gate
    for grid in (((2, 2), (2, 2), (1, 1), (2, 2)), ((0, 0), (1, 1), (1, 1), (1, 1))):
        for bound in (0, -5):
            with pytest.raises(DomainError, match="bound must be positive"):
                scan_divisible(*grid, bound)


def test_gm_divides_fm_spot_values():
    assert check_gm_divides_fm(SequenceParams(0, 1, 1, 1), 7)
    assert check_gm_divides_fm(SequenceParams(1, 1, 1, 1), 1)
    assert not check_gm_divides_fm(SequenceParams(1, 1, 1, 1), 4)  # 5 does not divide 3


def test_gm_divides_fm_and_equivalence():
    # for b != 0 C-quences, divisibility of G is equivalent to G_m | F_m
    for p in [SequenceParams(0, 1, 1, 1), SequenceParams(0, 1, 3, 1),
              SequenceParams(2, 3, 1, 5), SequenceParams(1, 2, 2, 1)]:
        rep = check_divisible_sequence(p, 20)
        pointwise = all(check_gm_divides_fm(p, m) for m in range(1, 21))
        assert rep.is_divisible == pointwise, p


def test_ccop():
    assert check_ccop(SequenceParams(0, 1, 1, 1), 3, 2)
    assert check_ccop(SequenceParams(0, 1, 2, 1), 4, 3)
    with pytest.raises(HypothesisViolationError):
        check_ccop(SequenceParams(2, 3, 1, 5), 2, 2)  # not a divisible sequence


def test_scan_divisible_frozen_grid():
    got = [(p.u, p.v, p.a, p.b) for p, _ in scan_divisible((0, 2), (1, 2), (1, 2), (0, 2), 20)]
    assert got == [
        (0, 1, 1, 1), (0, 1, 2, 1),
        (1, 1, 1, 0), (1, 1, 2, 0),
        (1, 2, 1, 0), (1, 2, 2, 0),
        (2, 2, 1, 0), (2, 2, 2, 0),
    ]


def test_scan_divisible_b_zero_admission():
    # with b = 0 the gate is u | v; survivors are the (u, uk | a, 0) shape
    got = scan_divisible((1, 3), (1, 6), (1, 2), (0, 0), 15)
    for p, rep in got:
        assert divides(p.u, p.v) and rep.is_divisible
    assert SequenceParams(2, 4, 1, 0) in [p for p, _ in got]
    assert SequenceParams(2, 3, 1, 0) not in [p for p, _ in got]


def test_scan_survivor_values_check_out():
    for p, rep in scan_divisible((0, 3), (1, 3), (1, 2), (1, 2), 25):
        vals = g_prefix(p, 25)
        for n in range(1, 26):
            for m in range(2 * n, 26, n):
                assert divides(vals[n], vals[m])
