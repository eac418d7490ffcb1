"""The equation 5x^2 + 4y^2 = z^2, sums of two squares, and seed-pair searches.

The equation's solutions are generated by four two-parameter families. F3
and F4 come from one formula in (s, t) = (5l^2, m^2) or (l^2, 5m^2); F1 and
F2 are F3 and F4 divided by 4, which is exact for odd l and m, since then
s - t and 2(s + t) are 4 mod 8. The exhaustive enumeration reads the
equation as (z - 2y)(z + 2y) = 5x^2: each solution with x > 0 is one factor
pair p < q of 5x^2 with p = q (mod 4), so walking x and the divisors of
5x^2 lists every solution once, with no search over z. Completeness is
decided by the inverse map, not by enumerating the families: that pair over
its gcd gives the solution's family parameters, and the family formula
rebuilds it. The two-square (bisquare) machinery classifies values via
factorization, with a direct search as the independent second route.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt, prod
from operator import itemgetter

from .core import SequenceParams, g_prefix, int_text
from .errors import DomainError, HypothesisViolationError, ResourceLimitError
from .identities import invariant_quantity
from .divisors import Factorization, _small_primes, factorize
from .quadfield import quad_mul, quad_pow


class Family(enum.Enum):
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"


@dataclass(frozen=True)
class DiophSolution:
    x: int
    y: int
    z: int
    family: Family
    params: tuple[int, int, int]  # (k, l, m)


def families_for(l: int, m: int) -> tuple[Family, ...]:
    """The families whose members with parameters l, m are defined.

    Empty when gcd(l, m) > 1; F3 and F4 for coprime l, m; all four when l and
    m are also both odd, which makes the divisions of F1 and F2 exact.
    """
    if gcd(l, m) != 1:
        return ()
    if l % 2 and m % 2:
        return (Family.F1, Family.F2, Family.F3, Family.F4)
    return (Family.F3, Family.F4)


def family_solution(family: Family | str, k: int, l: int, m: int) -> DiophSolution:
    """One member of the named solution family.

    F3 = (4klm, k(s - t), 2k(s + t)) with (s, t) = (5l^2, m^2), and F4 is the
    same with (s, t) = (l^2, 5m^2); they only need gcd(l, m) = 1, and with
    parameters of opposite parity they are the families that reach the
    solutions with even z. F1 and F2 are F3 and F4 divided by 4, which needs
    l and m both odd: then l^2 = m^2 = 1 (mod 8), so s - t = 4 and
    2(s + t) = 12 = 4 (mod 8), and the division is exact. `families_for`
    applies these gates.
    """
    fam = Family(family)
    fams = families_for(l, m)
    if not fams:
        raise HypothesisViolationError(f"l={l}, m={m} must be coprime")
    if fam not in fams:
        raise HypothesisViolationError(
            f"{fam.value} needs l and m odd; got l={l}, m={m}"
        )
    s, t = (5 * l * l, m * m) if fam in (Family.F1, Family.F3) else (l * l, 5 * m * m)
    d = 4 if fam in (Family.F1, Family.F2) else 1
    return DiophSolution(4 * k * l * m // d, k * (s - t) // d, 2 * k * (s + t) // d, fam, (k, l, m))


def is_solution(x: int, y: int, z: int) -> bool:
    return 5 * x * x + 4 * y * y == z * z


# brute_force_solutions lists about 2.9 z_max solutions, z_max/2 of them on
# the line x = 0, and its factor table has sqrt(z_max^2/5) entries; at
# z_max = 10^6 that is 2.9 million solutions, 24 s and 620 MB. A larger
# z_max is refused before anything is built.
Z_MAX_LIMIT = 10**6


def brute_force_solutions(z_max: int) -> list[tuple[int, int, int]]:
    """All (x, y, z) with x, y >= 0, 1 <= z <= z_max, sorted by (z, x, y).

    Enumerated by the factor pairs of 5x^2: a solution is
    (z - 2y)(z + 2y) = 5x^2. For x = 0 that is (0, z/2, z) with z even. For
    x > 0 put p = z - 2y and q = z + 2y: then pq = 5x^2, p < q (y = 0 would
    make z^2 = 5x^2) and q - p = 4y. Conversely, every p < q with pq = 5x^2
    and p = q (mod 4) gives the solution z = (p + q)/2, y = (q - p)/4. So
    the solutions with x > 0 are in one-to-one correspondence with those
    pairs, and walking x up to sqrt(z_max^2 / 5), every divisor p of 5x^2
    below its square root, and keeping p + q <= 2 z_max lists each exactly
    once. A z_max above Z_MAX_LIMIT raises ResourceLimitError.
    """
    if z_max < 0:
        raise DomainError("z_max must be non-negative")
    if z_max > Z_MAX_LIMIT:
        raise ResourceLimitError(f"z_max {int_text(z_max)} is above the enumeration limit {Z_MAX_LIMIT}")
    out = [(0, z // 2, z) for z in range(2, z_max + 1, 2)]
    x_max = isqrt(z_max * z_max // 5)
    factor = _prime_factor_table(x_max)
    for x in range(1, x_max + 1):
        exps = {5: 1}
        rest = x
        while rest > 1:
            r = factor[rest] or rest
            rest //= r
            exps[r] = exps.get(r, 0) + 2
        # the divisors of 5x^2, left unsorted (unlike Factorization.divisors,
        # whose sort would double the walk): `out` is sorted once at the end
        divs = [1]
        for r, e in exps.items():
            divs = [d * r**k for d in divs for k in range(e + 1)]
        n = 5 * x * x
        for p in divs:
            q = n // p
            if p < q and p + q <= 2 * z_max and (q - p) % 4 == 0:
                out.append((x, (q - p) // 4, (p + q) // 2))
    out.sort(key=itemgetter(2, 0))
    return out


def _prime_factor_table(limit: int) -> list[int]:
    """For 0 <= k <= limit, a prime factor of k at most its square root, or 0 when k has none."""
    factor = [0] * (limit + 1)
    for r in _small_primes(isqrt(limit) + 1):
        factor[r * r :: r] = [r] * len(range(r * r, limit + 1, r))
    return factor


@dataclass(frozen=True)
class CompletenessReport:
    z_max: int
    param_bound: int
    total: int
    family_matched: int
    degenerate: int
    unmatched: tuple[tuple[int, int, int], ...]

    @property
    def complete(self) -> bool:
        return not self.unmatched


def _family_preimage(x: int, y: int, z: int) -> DiophSolution:
    """The F1 or F3 member at the parameters of the solution (x, y, z), x > 0; it is (x, +-y, z).

    With p = z - 2y, q = z + 2y and g = gcd(p, q), g divides x and p/g, q/g
    are coprime with product 5(x/g)^2: they are m^2 and 5l^2, gcd(l, m) = 1.
    For odd l, m that is F1 with k = g; otherwise m^2 - 5l^2 is odd and
    p = q (mod 4) forces 4 | g: F3 with k = g/4. F2(l, m) is F1(m, l) with y
    negated, and so for F4. Any member equal to the solution has
    {p, q} = {k'm^2, 5k'l^2}, with g = k', or g = 5k' and (m/5, l) here; so
    min(l, m) here is the least over all of the solution's parameters.
    """
    g = gcd(z - 2 * y, z + 2 * y)
    p, q = (z - 2 * y) // g, (z + 2 * y) // g
    l, m = (isqrt(p // 5), isqrt(q)) if p % 5 == 0 else (isqrt(q // 5), isqrt(p))
    if l % 2 and m % 2:
        return family_solution(Family.F1, g, l, m)
    return family_solution(Family.F3, g // 4, l, m)


def completeness_report(z_max: int, param_bound: int) -> CompletenessReport:
    """Match every exhaustive solution against the families.

    A solution with x > 0 is matched when its parameters have
    min(l, m) <= param_bound and their family member, rebuilt by
    `family_solution`, is the solution up to the sign of y (the equation is
    even in y). The x = 0 line (0, y, 2y) cannot arise from nonzero family
    parameters and is accounted separately as degenerate.
    """
    if param_bound < 0:
        raise DomainError("param_bound must be non-negative")
    brute = brute_force_solutions(z_max)
    members = [(sol, _family_preimage(*sol)) for sol in brute if sol[0]]
    unmatched = tuple(
        sol for sol, f in members
        if min(f.params[1:]) > param_bound or (f.x, abs(f.y), f.z) != sol
    )
    return CompletenessReport(
        z_max, param_bound, len(brute), len(members) - len(unmatched),
        len(brute) - len(members), unmatched,
    )


def _is_square(x: int) -> bool:
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x


def is_bisquare(n: int) -> bool:
    """True iff n is a sum of two squares (0 allowed).

    Classified through the factorization: every prime congruent to 3 mod 4
    must occur to an even power.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if n < 2:
        return True
    return all(e % 2 == 0 for p, e in factorize(n).factors if p % 4 == 3)


_DIRECT_SEARCH_LIMIT = 10**6


def _sqrt_minus_one(p: int) -> int:
    # p is a prime congruent to 1 mod 4; half of all bases work, scanned in order
    e = (p - 1) // 4
    for c in count(2):
        x = pow(c, e, p)
        if x * x % p == p - 1:
            return x
    raise AssertionError("unreachable")


def _prime_two_squares(p: int) -> tuple[int, int]:
    """p = r^2 + s^2 for p = 2 or p = 1 mod 4, by descent on the Euclidean remainders."""
    if p == 2:
        return (1, 1)
    a, b = p, _sqrt_minus_one(p)
    while b * b > p:
        a, b = b, a % b
    r = b
    s2 = p - r * r
    s = isqrt(s2)
    if s * s != s2:
        raise AssertionError(f"descent left {s2}, not a square: {p} is not a prime 1 mod 4")
    return (r, s)


# The assembly builds and compares prod(e + 1) conjugate splits over the
# primes p^e with p = 1 mod 4, so each further prime doubles its time and
# memory; 2^16 splits, 16 such primes, take about 0.1 s. A factorization
# with more is refused before any is built.
ASSEMBLY_LIMIT = 2**16


def _assembled_decomposition(fac: Factorization) -> tuple[int, int] | None:
    """Smallest-r two-square decomposition assembled from the factorization.

    Every representation comes from distributing conjugates over the primes
    congruent to 1 mod 4, so enumerating those splits and taking the minimum
    first coordinate is deterministic and exhaustive. More than
    ASSEMBLY_LIMIT splits raise ResourceLimitError.
    """
    if any(e % 2 for p, e in fac.factors if p % 4 == 3):
        return None
    splits = prod(e + 1 for p, e in fac.factors if p % 4 == 1)
    if splits > ASSEMBLY_LIMIT:
        raise ResourceLimitError(
            f"{int_text(fac.n)} has {splits} conjugate splits to assemble, "
            f"above the limit {ASSEMBLY_LIMIT}"
        )
    # (1 + i)^a for 2^a and q^f for q^(2f), q = 3 mod 4, are the same in
    # every representation; p^e, p = 1 mod 4, contributes one of the
    # pi^j * conj(pi)^(e-j); products are taken in Z[i], where w^2 = -1
    reps = [(1, 0)]
    for p, e in fac.factors:
        if p == 2:
            choices = [quad_pow(0, -1, (1, 1), e)]
        elif p % 4 == 3:
            choices = [(p ** (e // 2), 0)]
        else:
            pi = _prime_two_squares(p)
            conj = (pi[0], -pi[1])
            choices = [quad_mul(0, -1, quad_pow(0, -1, pi, j), quad_pow(0, -1, conj, e - j))
                       for j in range(e + 1)]
        reps = [quad_mul(0, -1, z, w) for z in reps for w in choices]
    return min(tuple(sorted(map(abs, z))) for z in reps)


def two_square_decomposition(n: int) -> tuple[int, int] | None:
    """Some (r, s) with r^2 + s^2 = n and 0 <= r <= s, or None.

    Ties are broken by the smallest r; below a size threshold this is found
    by ascending search, above it by assembly from the factorization.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if n <= _DIRECT_SEARCH_LIMIT:
        r = 0
        while 2 * r * r <= n:
            s2 = n - r * r
            s = isqrt(s2)
            if s * s == s2:
                return (r, s)
            r += 1
        return None
    return _assembled_decomposition(factorize(n))


def euler_divisor_check(n: int) -> bool:
    """Every divisor of n is a bisquare, for n with a coprime decomposition.

    The coprimality hypothesis is essential: 45 = 3^2 + 6^2 is a bisquare,
    yet its divisor 3 is not. A coprime r^2 + s^2 exists exactly when n is
    not divisible by 4 nor by any prime congruent to 3 mod 4.
    """
    if n < 1:
        raise DomainError("n must be positive")
    fac = factorize(n)
    if n % 4 == 0 or any(p % 4 == 3 for p, _ in fac.factors):
        raise HypothesisViolationError(
            f"{n} admits no coprime two-square decomposition"
        )
    return all(is_bisquare(d) for d in fac.divisors())


def square_invariant_pairs(u_max: int, v_max: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """Seed pairs 0 <= u <= u_max, 0 <= v <= v_max whose invariant D is a perfect square.

    Returns (u, v, t) with t = sqrt(D) >= 0, ordered by (u, v).
    """
    if u_max < 0 or v_max < 0:
        raise DomainError("u_max and v_max must be non-negative")
    out = []
    for u in range(u_max + 1):
        for v in range(v_max + 1):
            d = invariant_quantity(SequenceParams(u, v, a, b))
            if _is_square(d):
                out.append((u, v, isqrt(d)))
    return out


@dataclass(frozen=True)
class BisquareWitness:
    """One examined sequence term with its decomposition, if any."""

    n: int
    value: int
    decomposition: tuple[int, int] | None


def _alternating_indices(k_max: int, parity: str) -> range:
    if k_max < 1:
        raise DomainError("k_max must be positive")
    if parity == "even":
        return range(0, 2 * k_max + 1, 2)
    if parity == "odd":
        return range(1, 2 * k_max, 2)
    raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def _require_square_invariant(p: SequenceParams) -> None:
    # The alternating-index conclusions rest on (-b)^n * D being a square for
    # the relevant n, which reduces to D or -b*D being a perfect square.
    d = invariant_quantity(p)
    if not (_is_square(d) or _is_square(-p.b * d)):
        raise HypothesisViolationError(
            f"neither D={d} nor -b*D={-p.b * d} is a perfect square"
        )


def _alternating_terms(
    p: SequenceParams, k_max: int, parity: str
) -> Iterator[tuple[int, int]]:
    # (i, G_i) at the alternating indices, after the square-invariant gate
    # and the prefix cap of g_prefix; a negative term raises when the walk
    # reaches it
    _require_square_invariant(p)
    indices = _alternating_indices(k_max, parity)
    vals = g_prefix(p, indices[-1])
    for i in indices:
        if vals[i] < 0:
            raise DomainError(f"G_{i} = {vals[i]} is negative")
        yield i, vals[i]


def check_alternating_bisquable(p: SequenceParams, k_max: int, parity: str) -> bool:
    """Are all even-index (or all odd-index) terms up to 2*k_max bisquares?"""
    return all(is_bisquare(g) for _, g in _alternating_terms(p, k_max, parity))


def alternating_witnesses(
    p: SequenceParams, k_max: int, parity: str
) -> Iterator[BisquareWitness]:
    """The examined terms with explicit decompositions, one at a time; the search route.

    The gate, k_max, parity, the prefix cap and the signs of the terms are
    checked on the call. Each decomposition is made as its witness is
    drawn, so the witnesses drawn before a resource limit stay decided.
    """
    terms = list(_alternating_terms(p, k_max, parity))
    return (BisquareWitness(i, g, two_square_decomposition(g)) for i, g in terms)
