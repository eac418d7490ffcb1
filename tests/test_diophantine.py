"""Solution families of 5x^2 + 4y^2 = z^2, and the two-square machinery.

The brute-force enumerations and decompositions frozen here were produced
independently of the library (plain loops plus a CAS) before being pinned.
"""

from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy.solvers.diophantine.diophantine import sum_of_squares

from genfib import (
    CompletenessReport,
    DomainError,
    Family,
    HypothesisViolationError,
    SequenceParams,
    alternating_witnesses,
    brute_force_solutions,
    check_alternating_bisquable,
    completeness_report,
    euler_divisor_check,
    factorize,
    families_for,
    family_solution,
    g_prefix,
    is_bisquare,
    is_prime,
    is_solution,
    square_invariant_pairs,
    two_square_decomposition,
)
from genfib import ResourceLimitError, diophantine
from genfib.diophantine import _assembled_decomposition

BRUTE_20 = [
    (0, 1, 2), (1, 1, 3), (0, 2, 4), (0, 3, 6), (2, 2, 6), (3, 1, 7),
    (0, 4, 8), (3, 3, 9), (0, 5, 10), (0, 6, 12), (4, 4, 12), (0, 7, 14),
    (6, 2, 14), (5, 5, 15), (0, 8, 16), (0, 9, 18), (6, 6, 18), (8, 1, 18),
    (0, 10, 20),
]


def test_family_spot_solutions():
    assert family_solution("F1", 1, 1, 1) == family_solution(Family.F1, 1, 1, 1)
    s = family_solution("F1", 1, 1, 1)
    assert (s.x, s.y, s.z) == (1, 1, 3)
    s = family_solution("F2", 1, 3, 1)
    assert (s.x, s.y, s.z) == (3, 1, 7)
    s = family_solution("F1", 2, 3, 1)
    assert (s.x, s.y, s.z) == (6, 22, 46)
    s = family_solution("F3", 1, 1, 2)
    assert (s.x, s.y, s.z) == (8, 1, 18)
    s = family_solution("F4", 1, 1, 2)
    assert (s.x, s.y, s.z) == (8, -19, 42)
    for s in map(lambda f: family_solution(f, 3, 5, 3), Family):
        assert is_solution(s.x, s.y, s.z), s


def test_family_parameter_gates():
    # the quarter and half divisions in F1/F2 are exact only for odd l, m
    with pytest.raises(HypothesisViolationError):
        family_solution("F1", 1, 1, 2)
    with pytest.raises(HypothesisViolationError):
        family_solution("F2", 1, 2, 1)
    with pytest.raises(HypothesisViolationError):
        family_solution("F3", 1, 2, 4)  # not coprime
    # F3/F4 take any coprime parity mix
    assert is_solution(*_xyz(family_solution("F3", 2, 2, 5)))
    assert is_solution(*_xyz(family_solution("F4", 1, 5, 2)))


def _xyz(s):
    return (s.x, s.y, s.z)


@given(
    st.sampled_from(list(Family)),
    st.integers(1, 50),
    st.integers(1, 99),
    st.integers(1, 99),
)
@settings(max_examples=400)
def test_families_always_solve(fam, k, l, m):
    defined = gcd(l, m) == 1 and (fam in (Family.F3, Family.F4) or l % 2 == m % 2 == 1)
    assert (fam in families_for(l, m)) == defined
    if not defined:
        with pytest.raises(HypothesisViolationError):
            family_solution(fam, k, l, m)
        return
    s = family_solution(fam, k, l, m)
    assert 5 * s.x * s.x + 4 * s.y * s.y == s.z * s.z
    if fam in (Family.F1, Family.F2):
        # F1 and F2 are F3 and F4 divided by 4, with nothing lost to rounding
        scaled = family_solution(Family.F3 if fam is Family.F1 else Family.F4, k, l, m)
        assert _xyz(scaled) == (4 * s.x, 4 * s.y, 4 * s.z)


def test_brute_force_oracle():
    assert brute_force_solutions(20) == BRUTE_20
    assert brute_force_solutions(0) == []
    for x, y, z in brute_force_solutions(60):
        assert is_solution(x, y, z) and x >= 0 and y >= 0 and 0 < z <= 60
    # a naive triple loop, in (z, x, y) order; 5x^2 <= z^2 and 4y^2 <= z^2
    # keep x and y within z // 2
    naive = [(x, y, z) for z in range(1, 151) for x in range(z // 2 + 1) for y in range(z // 2 + 1)
             if 5 * x * x + 4 * y * y == z * z]
    assert brute_force_solutions(150) == naive


def test_brute_force_refuses_z_max_past_the_limit(monkeypatch):
    # refused before the factor table or the x = 0 line is built
    def refuse(limit):
        raise AssertionError("the factor table was built")

    monkeypatch.setattr(diophantine, "_prime_factor_table", refuse)
    for z_max in (diophantine.Z_MAX_LIMIT + 1, 10**12, 10**5000):
        with pytest.raises(ResourceLimitError, match="above the enumeration limit 1000000$"):
            brute_force_solutions(z_max)
        with pytest.raises(ResourceLimitError):
            completeness_report(z_max, 5)
    # a negative z_max is still refused as a domain error first
    with pytest.raises(DomainError):
        brute_force_solutions(-1)


def _oracle_by_y(z_max):
    # an O(z_max^2) loop over (z, y), independent of the factor-pair walk,
    # sorted into (z, x, y) order
    out = []
    for z in range(1, z_max + 1):
        for y in range(z // 2 + 1):
            xx, r = divmod(z * z - 4 * y * y, 5)
            x = isqrt(xx)
            if r == 0 and x * x == xx:
                out.append((x, y, z))
    return sorted(out, key=lambda s: (s[2], s[0], s[1]))


@pytest.mark.parametrize("z_max", [*range(61), 997, 1000, 1960, 2050])
def test_brute_force_matches_loop_over_y(z_max):
    assert brute_force_solutions(z_max) == _oracle_by_y(z_max)


def test_family_walk_reaches_every_solution():
    # the m walk in the family enumeration stops early; at the parameter
    # bound isqrt(z_max / 3) every solution is still matched
    for z_max in range(1, 301):
        rep = completeness_report(z_max, isqrt(z_max // 3))
        assert rep.complete, z_max
        assert rep.total == len(_oracle_by_y(z_max)), z_max


def _family_triples(z_max, param_bound):
    # the library's former matcher, kept as the oracle of the preimage map:
    # every family member (x, |y|, z) with z <= z_max and min(l, m) <=
    # param_bound. The larger parameter is capped by feasibility, since F1
    # and F2 have the least z at given l, m, (5l^2 + m^2)/2 and
    # (l^2 + 5m^2)/2, and both grow with m, so the m walk stops at the first
    # m where both pass z_max.
    cap = isqrt(2 * z_max) + 1
    out = set()
    for l in range(1, cap + 1):
        for m in range(1, cap + 1):
            if min(5 * l * l + m * m, l * l + 5 * m * m) > 2 * z_max:
                break
            if min(l, m) > param_bound:
                continue
            for fam in families_for(l, m):
                sol = family_solution(fam, 1, l, m)
                if sol.z <= 0 or sol.z > z_max:
                    continue
                x1, y1, z1 = abs(sol.x), abs(sol.y), sol.z
                for k in range(1, z_max // z1 + 1):
                    out.add((x1 * k, y1 * k, z1 * k))
    return out


def _report_by_family_set(z_max, param_bound, brute):
    members = _family_triples(z_max, param_bound)
    unmatched = tuple(s for s in brute if s[0] and s not in members)
    degenerate = sum(1 for s in brute if not s[0])
    return CompletenessReport(z_max, param_bound, len(brute), len(brute) - degenerate - len(unmatched),
                              degenerate, unmatched)


@pytest.mark.parametrize("z_max", [0, 1, 2, 3, 10, 50, 300, 2000, 4000])
def test_preimages_match_the_family_set(z_max):
    # matching each solution by its preimage gives the report that looking it
    # up among all family members did, gaps included
    brute = brute_force_solutions(z_max)
    for param_bound in [*range(14), 20, 40, 45, 50, 100]:
        assert completeness_report(z_max, param_bound) == _report_by_family_set(z_max, param_bound, brute)


def test_preimages_rebuild_every_solution_to_20000():
    # z >= (5l^2 + m^2)/2 >= 3 min(l, m)^2, so the bound isqrt(20000 / 3) = 81
    # reaches every solution; one below it, F1(1, 81, 83) is left out
    assert completeness_report(20000, 81).complete
    assert completeness_report(20000, 80).unmatched == ((6723, 6479, 19847),)
    assert _xyz(family_solution("F1", 1, 81, 83)) == (6723, 6479, 19847)


def test_completeness_refuses_negative_bounds():
    with pytest.raises(DomainError):
        completeness_report(50, -1)
    with pytest.raises(DomainError):
        completeness_report(-1, 5)


def test_completeness():
    rep = completeness_report(200, 21)
    assert rep.complete
    assert (rep.total, rep.family_matched, rep.degenerate) == (273, 173, 100)
    assert completeness_report(100, 15).complete


def test_completeness_detects_gaps():
    # with the parameter cap at 1 the primitive solution (21, 1, 47) from
    # l = 3, m = 7 is out of reach of every family
    rep = completeness_report(50, 1)
    assert not rep.complete and rep.unmatched == ((21, 1, 47),)
    assert is_solution(21, 1, 47)


def test_is_bisquare_small():
    yes = {0, 1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25, 45, 325}
    no = {3, 6, 7, 11, 12, 14, 15, 19, 21, 22, 23, 24, 33}
    for n in yes:
        assert is_bisquare(n), n
    for n in no:
        assert not is_bisquare(n), n
    with pytest.raises(DomainError):
        is_bisquare(-1)


def test_two_square_decomposition_smallest_first():
    assert two_square_decomposition(0) == (0, 0)
    assert two_square_decomposition(1) == (0, 1)
    assert two_square_decomposition(2) == (1, 1)
    assert two_square_decomposition(3) is None
    assert two_square_decomposition(25) == (0, 5)
    assert two_square_decomposition(45) == (3, 6)
    # 325 = 1+324 = 36+289 = 100+225; the smallest first coordinate wins
    assert two_square_decomposition(325) == (1, 18)


def test_two_square_large_uses_factorization():
    # 1000070001221 = 1000033 * 1000037, both primes = 1 mod 4; the expected
    # pair was found by an independent ascending search
    n = 1000070001221
    assert two_square_decomposition(n) == (281986, 959455)
    assert 281986**2 + 959455**2 == n
    # a prime power of a 3 mod 4 prime above the search threshold
    assert two_square_decomposition(1000003**2) == (0, 1000003)
    assert two_square_decomposition(1000003 * 3) is None
    # an odd power of 3 among repeated primes = 1 mod 4
    n = 5**4 * 13**3 * 17**2 * 2**3 * 3**3
    assert two_square_decomposition(n) is None and list(sum_of_squares(n, 2, zeros=True)) == []


@given(
    st.integers(0, 4),
    st.dictionaries(st.sampled_from([5, 13, 17, 29, 37, 41, 53]), st.integers(1, 4),
                    min_size=1, max_size=3),
    st.dictionaries(st.sampled_from([3, 7, 11, 19]), st.integers(1, 2), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_two_squares_past_the_search_match_sympy(a, ps, qs):
    # n = 2^a * prod p^e * prod q^(2f), p = 1 and q = 3 mod 4, is assembled
    # from its factorization above the search threshold
    n = 2**a * prod(p**e for p, e in ps.items()) * prod(q ** (2 * f) for q, f in qs.items())
    assume(10**6 < n < 10**11)
    assert two_square_decomposition(n) == min(sum_of_squares(n, 2, zeros=True))


def test_assembly_agrees_with_search():
    # the factorization route must reproduce the ascending search exactly
    for n in range(1, 800):
        expect = two_square_decomposition(n)
        assert _assembled_decomposition(factorize(n)) == expect, n


@given(st.integers(1, 10**6))
@settings(max_examples=150)
def test_assembly_agrees_with_search_sampled(n):
    assert _assembled_decomposition(factorize(n)) == two_square_decomposition(n)


# the first 30 primes = 1 mod 4, 5 to 313
PRIMES_1_MOD_4 = [p for p in range(5, 314, 4) if is_prime(p)]


def test_assembly_refuses_too_many_splits():
    # each distinct prime = 1 mod 4 doubles the splits to compare: 16 of them
    # are at the limit and still assembled, 17 are refused before any split
    # is built, and the classification by factorization still answers
    assert len(PRIMES_1_MOD_4) == 30
    n = prod(PRIMES_1_MOD_4[:16])
    assert two_square_decomposition(n) == (1175849126, 50151584231673)
    assert 1175849126**2 + 50151584231673**2 == n
    for k, splits in [(17, 2**17), (30, 2**30)]:
        n = prod(PRIMES_1_MOD_4[:k])
        with pytest.raises(ResourceLimitError, match=f"has {splits} conjugate splits"):
            two_square_decomposition(n)
        assert is_bisquare(n)


def test_decomposition_round_trip():
    for n in range(2000):
        dec = two_square_decomposition(n)
        assert (dec is not None) == is_bisquare(n)
        if dec is not None:
            r, s = dec
            assert 0 <= r <= s and r * r + s * s == n


def test_euler_divisor_check():
    assert euler_divisor_check(1)
    assert euler_divisor_check(2)
    assert euler_divisor_check(25)
    assert euler_divisor_check(325)  # divisors 1, 5, 13, 25, 65, 325
    with pytest.raises(HypothesisViolationError):
        euler_divisor_check(45)  # 45 = 9 + 36 but shares the factor 3
    with pytest.raises(HypothesisViolationError):
        euler_divisor_check(4)
    with pytest.raises(DomainError):
        euler_divisor_check(0)


def test_square_invariant_pairs():
    pairs = square_invariant_pairs(5, 5, 1, 1)
    assert pairs == [
        (0, 0, 0), (1, 0, 1), (1, 1, 1), (2, 0, 2), (2, 2, 2), (2, 3, 1),
        (3, 0, 3), (3, 3, 3), (4, 0, 4), (4, 4, 4), (5, 0, 5), (5, 5, 5),
    ]
    for u, v, t in square_invariant_pairs(20, 20, 1, 1):
        assert u * u + u * v - v * v == t * t


def test_square_invariant_pairs_rectangle():
    # the square scan is the rectangle with equal sides; a negative side is refused
    assert square_invariant_pairs(3, 1, 1, 1) == [
        (u, v, t) for u, v, t in square_invariant_pairs(3, 3, 1, 1) if v <= 1
    ]
    assert square_invariant_pairs(0, 0, 1, 1) == [(0, 0, 0)]
    for bounds in ((-1, 3), (3, -1)):
        with pytest.raises(DomainError):
            square_invariant_pairs(*bounds, 1, 1)


def test_square_invariant_pairs_includes_sporadics():
    # beyond the diagonal families there are isolated hits like (5, 8)
    pairs = {(u, v) for u, v, _ in square_invariant_pairs(21, 21, 1, 1)}
    assert (2, 3) in pairs and (5, 8) in pairs and (13, 21) in pairs


def test_alternating_bisquable():
    fib = SequenceParams(0, 1, 1, 1)
    assert check_alternating_bisquable(fib, 12, "odd")
    assert not check_alternating_bisquable(fib, 6, "even")  # G_4 = 3
    assert check_alternating_bisquable(SequenceParams(2, 3, 1, 1), 5, "even")


def test_alternating_gate_and_domain():
    # neither D nor -b*D a square: the hypothesis gate rejects
    with pytest.raises(HypothesisViolationError):
        check_alternating_bisquable(SequenceParams(2, 3, 1, 2), 4, "even")
    # negative examined term is outside the two-square domain
    with pytest.raises(DomainError):
        check_alternating_bisquable(SequenceParams(0, -1, 1, 1), 3, "odd")
    with pytest.raises(DomainError):
        check_alternating_bisquable(fib := SequenceParams(0, 1, 1, 1), 0, "odd")
    with pytest.raises(DomainError):
        check_alternating_bisquable(fib, 3, "both")


def test_alternating_witnesses_cross_route():
    p = SequenceParams(0, 1, 1, 1)
    ws = alternating_witnesses(p, 10, "odd")
    vals = g_prefix(p, 19)
    assert [w.n for w in ws] == list(range(1, 20, 2))
    for w in ws:
        assert w.value == vals[w.n]
        # decomposition present iff the classifier says bisquare
        assert (w.decomposition is not None) == is_bisquare(w.value)
        if w.decomposition:
            r, s = w.decomposition
            assert r * r + s * s == w.value
