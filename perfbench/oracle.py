"""Correctness oracle for every record the benchmark's invocations write.

It runs outside the timed region and shares no code with genfib. Sequence
values come from a plain recurrence loop written here; factorizations,
primality, divisor counts and modular square roots come from sympy.

`judge` returns one verdict per record (None when the record is right,
otherwise the reason) plus a verdict on the invocation as a whole (its exit
code, an exception, missing or surplus records).
"""

from __future__ import annotations

import json
from itertools import product
from math import gcd, isqrt, prod

import sympy
from sympy.ntheory import sqrt_mod


def parse_argv(argv: list[str]) -> tuple[list[str], dict[str, int | str]]:
    """Split `a b --x=1 --y=lo..hi` into positionals and flags (values as int when they parse)."""
    words, flags = [], {}
    for tok in argv:
        if not tok.startswith("--"):
            words.append(tok)
            continue
        key, eq, val = tok[2:].partition("=")
        if not eq:
            raise ValueError(f"flag without a value: {tok}")
        try:
            flags[key] = int(val)
        except ValueError:
            flags[key] = val
    return words, flags


def _range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi) + 1)


def sequence(u: int, v: int, a: int, b: int, n_max: int) -> list[int]:
    """[G_0, ..., G_{n_max}] by the recurrence G_n = a G_{n-1} + b G_{n-2}."""
    out = [u, v]
    for _ in range(n_max - 1):
        out.append(a * out[-1] + b * out[-2])
    return out[: n_max + 1]


def term(u: int, v: int, a: int, b: int, n: int) -> int:
    """G_n by the recurrence, keeping only the last two terms."""
    lo, hi = u, v
    for _ in range(n):
        lo, hi = hi, a * hi + b * lo
    return lo


def _divides(d: int, m: int) -> bool:
    return m == 0 if d == 0 else m % d == 0


def _gauss_mul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _prime_as_two_squares(p: int) -> tuple[int, int]:
    """p = x^2 + y^2 for p = 2 or p = 1 mod 4 (Cornacchia from sympy's sqrt(-1) mod p)."""
    if p == 2:
        return (1, 1)
    r0, r1 = p, sqrt_mod(p - 1, p)
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    y = isqrt(p - r1 * r1)
    if r1 * r1 + y * y != p:
        raise ArithmeticError(f"no two-square form found for prime {p}")
    return (r1, y)


class Oracle:
    def __init__(self):
        self._factors: dict[int, dict[int, int]] = {}
        self._dioph: dict[int, list[tuple[int, int, int]]] = {}

    def factorint(self, n: int) -> dict[int, int]:
        if n not in self._factors:
            self._factors[n] = sympy.factorint(n)
        return self._factors[n]

    # -- helpers with no genfib counterpart in the call path ------------------

    def smallest_two_squares(self, n: int) -> tuple[int, int] | None:
        """The representation n = r^2 + s^2, 0 <= r <= s, with the least r; None if none."""
        if n == 0:
            return (0, 0)
        fac = self.factorint(n)
        scale, choices = 1, []
        base = (1, 0)
        for p, e in fac.items():
            if p % 4 == 3:
                if e % 2:
                    return None
                scale *= p ** (e // 2)
            elif p == 2:
                for _ in range(e):
                    base = _gauss_mul(base, (1, 1))
            else:
                pi = _prime_as_two_squares(p)
                bar = (pi[0], -pi[1])
                opts = []
                for j in range(e + 1):
                    w = (1, 0)
                    for _ in range(j):
                        w = _gauss_mul(w, pi)
                    for _ in range(e - j):
                        w = _gauss_mul(w, bar)
                    opts.append(w)
                choices.append(opts)
        best = None
        for pick in product(*choices):
            z = base
            for w in pick:
                z = _gauss_mul(z, w)
            r, s = sorted((abs(z[0]) * scale, abs(z[1]) * scale))
            if best is None or r < best[0]:
                best = (r, s)
        return best

    def dioph_solutions(self, z_max: int) -> list[tuple[int, int, int]]:
        """All x, y >= 0, 1 <= z <= z_max with 5x^2 + 4y^2 = z^2, sorted by (z, x, y)."""
        if z_max not in self._dioph:
            out = []
            for z in range(1, z_max + 1):
                for y in range(z // 2 + 1):
                    rest = z * z - 4 * y * y
                    if rest % 5 == 0:
                        x = isqrt(rest // 5)
                        if x * x * 5 == rest:
                            out.append((x, y, z))
            out.sort(key=lambda t: (t[2], t[0], t[1]))
            self._dioph[z_max] = out
        return self._dioph[z_max]

    # -- per-subcommand expectations ------------------------------------------

    def judge(self, argv, code, error, stderr, lines):
        """Verdicts for one invocation: (per-record reasons, invocation reason)."""
        try:
            records = [json.loads(line) for line in lines]
        except ValueError as exc:
            return ["unparsable record"] * len(lines), f"bad output: {exc}"
        aborted = None
        if error is not None:
            aborted = f"exception: {error}"
        elif code == 2:
            aborted = f"exit 2: {stderr.strip()[:120]}"
        if aborted and not records:
            return [], aborted
        expected = self._expected(*parse_argv(argv))
        verdicts = []
        for i, rec in enumerate(records):
            if i >= len(expected):
                verdicts.append("surplus record")
            elif rec.get("status") == "skipped":
                verdicts.append(f"skipped: {rec.get('reason', '')}")
            else:
                verdicts.append(_mismatch(rec, expected[i]))
        if aborted:
            return verdicts, aborted
        if len(records) < len(expected):
            return verdicts, f"{len(expected) - len(records)} records missing"
        statuses = {rec.get("status") for rec in records}
        want = 1 if "violated" in statuses else 3 if "skipped" in statuses else 0
        return verdicts, None if code == want else f"exit {code}, records imply {want}"

    def _expected(self, words, f):
        """The records a correct run writes, each as the dict of fields to compare."""
        cmd = words[0]
        if cmd == "compute":
            g = term(f["u"], f["v"], f["a"], f["b"], f["n"])
            return [dict(kind="compute", status="ok", n=f["n"], value=g, method=f.get("method", "fast"),
                         u=f["u"], v=f["v"], a=f["a"], b=f["b"])]
        if cmd == "identity":
            return self._identity(words[1], f)
        if cmd == "gcd-identity":
            return [self._gcd_identity(f["a"], f["b"], f["max"])]
        if cmd == "scan-divisible":
            return self._scan_divisible(f)
        if cmd == "dioph":
            return self._dioph_records(words[1], f)
        if cmd == "bisquare":
            if len(words) > 1:
                return self._square_pairs(f["u-max"], f["v-max"], f["a"], f["b"])
            dec = self.smallest_two_squares(f["n"])
            return [dict(kind="bisquare", status="ok", n=f["n"], bisquare=dec is not None,
                         decomposition=list(dec) if dec else None)]
        if cmd == "alt-bisquable":
            return self._alternating(f)
        if cmd == "tau-bounds":
            return [self._tau_bounds(f["a"], f["b"], n) for n in range(2, f["n-max"] + 1)]
        if cmd == "primitive":
            return self._primitive(f["a"], f["b"], f["n-max"])
        raise ValueError(f"no oracle for {cmd!r}")

    def _identity(self, name, f):
        u, v, a, b = f["u"], f["v"], f["a"], f["b"]
        max_n = f["max-n"]
        if name == "addition":
            max_m = f.get("max-m", max_n)
            g = sequence(u, v, a, b, max_m + max_n + 1)
            fs = sequence(0, 1, a, b, max_n + 1)
            out = []
            for m in range(max_m + 1):
                for n in range(max_n + 1):
                    lhs = g[m + n + 1]
                    rhs = g[m + 1] * fs[n + 1] + b * g[m] * fs[n]
                    out.append(dict(kind="identity", name="addition", m=m, n=n, lhs=lhs, rhs=rhs,
                                    status="ok" if lhs == rhs else "violated", u=u, v=v, a=a, b=b))
            return out
        g = sequence(u, v, a, b, max_n + 2)
        seed_det = g[0] * g[2] - g[1] ** 2
        out = []
        for n in range(max_n + 1):
            lhs = g[n] * g[n + 2] - g[n + 1] ** 2
            rhs = (-b) ** n * seed_det
            out.append(dict(kind="identity", name="determinant", n=n, lhs=lhs, rhs=rhs,
                            status="ok" if lhs == rhs else "violated", u=u, v=v, a=a, b=b))
        return out

    def _gcd_identity(self, a, b, top):
        fs = sequence(0, 1, a, b, top)
        checked, witness = 0, None
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                checked += 1
                if gcd(fs[m], fs[n]) != fs[gcd(m, n)]:
                    witness = [m, n]
                    break
            if witness:
                break
        return dict(kind="gcd-identity", a=a, b=b, max=top, checked=checked, witness=witness,
                    status="violated" if witness else "ok")

    def _scan_divisible(self, f):
        bound = f["bound"]
        out = []
        grid = product(_range(f["u-range"]), _range(f["v-range"]), _range(f["a-range"]), _range(f["b-range"]))
        for u, v, a, b in grid:
            if b == 0:
                if not _divides(u, v):
                    continue
            elif not (gcd(u, v) == gcd(u, b) == gcd(a, b) == gcd(b, v) == 1):
                continue
            g = sequence(u, v, a, b, bound)
            if all(_divides(g[n], g[m]) for n in range(1, bound + 1) for m in range(2 * n, bound + 1, n)):
                out.append(dict(kind="divisible-survivor", status="ok", bound=bound, u=u, v=v, a=a, b=b))
        out.append(dict(kind="scan-summary", status="ok", scan="divisible", survivors=len(out), bound=bound))
        return out

    def _dioph_records(self, name, f):
        sols = self.dioph_solutions(f["z-max"])
        if name == "oracle":
            out = [dict(kind="dioph-triple", status="ok", x=x, y=y, z=z) for x, y, z in sols]
            out.append(dict(kind="scan-summary", status="ok", scan="dioph-oracle", solutions=len(sols),
                            z_max=f["z-max"]))
            return out
        # The paper's four families reach every solution with x > 0 once the
        # parameter bound is at least sqrt(z_max / 3), which the workload keeps.
        degenerate = sum(1 for x, _, _ in sols if x == 0)
        return [dict(kind="dioph-complete", status="ok", z_max=f["z-max"], param_bound=f["lm-max"],
                     total=len(sols), family_matched=len(sols) - degenerate, degenerate=degenerate,
                     unmatched=[])]

    def _square_pairs(self, u_max, v_max, a, b):
        out = []
        for u in range(u_max + 1):
            for v in range(v_max + 1):
                g = sequence(u, v, a, b, 2)
                d = g[0] * g[2] - g[1] ** 2
                if d >= 0 and isqrt(d) ** 2 == d:
                    out.append(dict(kind="square-invariant-pair", status="ok", u=u, v=v, t=isqrt(d), a=a, b=b))
        out.append(dict(kind="scan-summary", status="ok", scan="square-invariant", pairs=len(out)))
        return out

    def _alternating(self, f):
        k_max, parity = f["k-max"], f["parity"]
        indices = range(0, 2 * k_max + 1, 2) if parity == "even" else range(1, 2 * k_max, 2)
        g = sequence(f["u"], f["v"], f["a"], f["b"], max(indices))
        out = []
        for i in indices:
            dec = self.smallest_two_squares(g[i])
            out.append(dict(kind="alt-bisquable", parity=parity, n=i, value=g[i],
                            decomposition=list(dec) if dec else None,
                            status="ok" if dec else "violated"))
        return out

    def _tau_bounds(self, a, b, n):
        tau_fn = prod(e + 1 for e in self.factorint(term(0, 1, a, b, n)).values())
        tau_n, omega_n = int(sympy.divisor_count(n)), int(sympy.primeomega(n))
        if n % 2:
            ok = tau_fn >= 2**omega_n and tau_fn >= tau_n
        else:
            ok = tau_fn >= 2 ** (omega_n - 1) and tau_fn >= tau_n - 1
        return dict(kind="tau-bounds", n=n, a=a, b=b, tau_fn=tau_fn, tau_n=tau_n, omega_n=omega_n,
                    status="ok" if ok else "violated")

    def _primitive(self, a, b, n_max):
        fs = sequence(0, 1, a, b, n_max)
        out = []
        for n in range(1, n_max + 1):
            primes = sorted(p for p in self.factorint(fs[n]) if all(fs[m] % p for m in range(1, n)))
            out.append(dict(kind="primitive", status="ok", n=n, a=a, b=b, primes=primes,
                            has_primitive=bool(primes)))
        return out


def _mismatch(record: dict, expected: dict) -> str | None:
    for key, want in expected.items():
        got = record.get(key)
        if got != want:
            return f"{key}={_short(got)}, expected {_short(want)}"
    return None


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."
