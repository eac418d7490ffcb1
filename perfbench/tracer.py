"""Per-layer spans around genfib's public functions, installed from outside.

The tracer replaces each target function, in every genfib module namespace
that holds it (a module's own globals and every `from .x import f` copy), by
a wrapper that counts calls and accumulates self time: the span minus the
spans of wrapped functions it called. `uninstall` puts the originals back,
and `check_clean` proves that no wrapper is left anywhere.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# Layer -> functions wrapped in that layer (the genfib module of that name).
TARGETS = {
    "core": ("g_fast", "g_iter", "f_fast", "g_prefix"),
    "quadfield": ("binet_eval", "binet_repeated_root"),
    "identities": ("addition_sides", "determinant_sides"),
    "divisibility": ("gcd_identity_check", "check_divisible_sequence", "scan_divisible"),
    "diophantine": (
        "two_square_decomposition",
        "is_bisquare",
        "completeness_report",
        "brute_force_solutions",
        "family_solution",
        "alternating_witnesses",
    ),
    "divisors": ("factorize", "is_prime", "check_tau_bounds", "primitive_divisors", "rank_of_apparition"),
    "cli": ("run",),
}

# Counters beyond calls and self time; cli.run.* come from the captured stdout.
EXTRA_COUNTERS = (
    ("divisors.factorize.limit_hits", "count", "lower"),
    ("divisors.factorize.ok_ratio", "ratio", "higher"),
    ("divisors.factorize.input_digits", "digits", "lower"),
    ("divisors.rank_of_apparition.steps", "count", "lower"),
    ("cli.run.records", "count", "higher"),
    ("cli.run.bytes_out", "bytes", "lower"),
)


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, funcs in TARGETS.items():
        for fn in funcs:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
    return out + list(EXTRA_COUNTERS)


class Tracer:
    def __init__(self):
        self._originals: dict[str, object] = {}
        for layer, funcs in TARGETS.items():
            module = sys.modules[f"genfib.{layer}"]
            for fn in funcs:
                self._originals[f"{layer}.{fn}"] = getattr(module, fn)
        limit = inspect.signature(self._originals["divisors.rank_of_apparition"]).parameters["limit"]
        self._rank_default_limit = limit.default
        self._limit_error = sys.modules["genfib"].ResourceLimitError
        self._patched: list[tuple[object, str, object]] = []
        # kept alive after uninstall, so their ids cannot be reused by other objects
        self._wrapper_ids: set[int] = set()
        self._wrappers: list = []
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(self._originals, 0)
        self.self_s = dict.fromkeys(self._originals, 0.0)
        self.limit_hits = 0
        self.factorize_ok = 0
        self.input_digits = 0
        self.rank_steps = 0
        self._stack: list[float] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if name == "genfib" or name.startswith("genfib.")]

    def _wrap(self, name: str, func):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        observe = {
            "divisors.factorize": self._observe_factorize,
            "divisors.rank_of_apparition": self._observe_rank,
        }.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            result, error = None, None
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                error = exc
            span = perf_counter() - start
            calls[name] += 1
            self_s[name] += span - stack.pop()
            if stack:
                stack[-1] += span
            if observe is not None:
                observe(args, kwargs, result, error)
            if error is not None:
                raise error
            return result

        traced.__wrapped__ = func
        return traced

    def _observe_factorize(self, args, kwargs, result, error) -> None:
        n = args[0] if args else kwargs["n"]
        if isinstance(n, int) and n > 0:
            self.input_digits += len(str(n))
        if error is None:
            self.factorize_ok += 1
        elif isinstance(error, self._limit_error):
            self.limit_hits += 1

    def _observe_rank(self, args, kwargs, result, error) -> None:
        if error is not None:
            return
        if result is None:
            result = args[3] if len(args) > 3 else kwargs.get("limit", self._rank_default_limit)
        self.rank_steps += result

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.reset()
        by_id = {id(func): name for name, func in self._originals.items()}
        wrappers = {name: self._wrap(name, func) for name, func in self._originals.items()}
        self._wrappers = list(wrappers.values())
        self._wrapper_ids = {id(w) for w in self._wrappers}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and value is self._originals[name]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[name])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.check_clean()

    def check_clean(self) -> None:
        """Raise unless every genfib namespace holds only unwrapped functions."""
        for module in self._modules():
            for attr, value in vars(module).items():
                if id(value) in self._wrapper_ids:
                    raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")
        for name, func in self._originals.items():
            layer, fn = name.split(".")
            if getattr(sys.modules[f"genfib.{layer}"], fn) is not func:
                raise RuntimeError(f"{name} is not the original function")

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def snapshot(self, records: int, bytes_out: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last install."""
        out: dict[str, float] = {}
        for name in self._originals:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        fact_calls = self.calls["divisors.factorize"]
        out["divisors.factorize.limit_hits"] = self.limit_hits
        # with no calls nothing was wasted
        out["divisors.factorize.ok_ratio"] = self.factorize_ok / fact_calls if fact_calls else 1.0
        out["divisors.factorize.input_digits"] = self.input_digits
        out["divisors.rank_of_apparition.steps"] = self.rank_steps
        out["cli.run.records"] = records
        out["cli.run.bytes_out"] = bytes_out
        return out
