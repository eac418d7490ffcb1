#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the genfib CLI.

Run from the root of a genfib checkout:

    python3 perfbench/run.py --workload eval-identity --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A workload is a seeded list of argv lists (see workloads.py). One round
runs in a fresh child process, which imports genfib and drives every argv
through `genfib.cli.run` in that process, one call after the other (a closed
loop: one client, one thread), with stdout captured and each record
time-stamped as it is written. Rounds repeat the same list until `--seconds`
is used up; since each starts cold, no state genfib keeps between calls can
carry from one round to the next. The times of a round are scaled for the
machine's speed during it (see `Calibration`), each invocation and each
unit is then timed by the median of its repeats (see `typical`), and every
record is checked by an independent oracle (oracle.py) in the parent,
outside the timed region.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
rounds with rounds in which tracer.py wraps genfib's public functions, and
reports per-layer calls, self time and counters, plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. `attempted` and `failed` count the units of one pass over
the workload, so they depend on the seed alone, not on how many rounds fit in
`--seconds`. Units the oracle rejects are counted in `failed` and listed above
that line. `correct` is false when an output could not be
checked, or when one invocation wrote different output in different rounds
(the CLI promises byte-stable output).
"""

from __future__ import annotations

import argparse
from array import array
from bisect import bisect_left
import gc
import importlib.util
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh-interpreter launches behind setup_s; single launches vary by +-25 %.
SETUP_LAUNCHES = 20
SETUP_ARGV = ["compute", "--u=0", "--v=1", "--a=1", "--b=1", "--n=10"]
# record_tail_ms is the highest of these percentiles with at least
# TAIL_BEYOND units of the round beyond it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("record_p50_ms", "ms"),
    ("record_tail_ms", "ms"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


# Fastest time of `reference_kernel` on the 2-vCPU Xeon VM where the
# benchmark was defined, with no other load (Python 3.11.7).
REFERENCE_S = 0.0100
# Minimum gap between two timings of the kernel.
SAMPLE_EVERY_S = 0.25


def reference_kernel() -> int:
    """A fixed pure-Python load (big-integer recurrence, dict and json work), about 10 ms."""
    a, b = 0, 1
    for _ in range(6000):
        a, b = b, a + 3 * b
    acc = 0
    d = {}
    for i in range(60000):
        acc += i * i % 7
        d[i & 1023] = acc
    return len(json.dumps(list(d.items())))


class Calibration:
    """How fast this machine runs a fixed kernel during a round.

    Other tenants of the machine slow this process by up to 2x and never make
    it faster. The slowdown switches on and off, each state lasting from 0.1 s
    to minutes, so a run with two or three rounds may never see the machine
    undisturbed. The kernel is timed at most every SAMPLE_EVERY_S, between
    invocations and right after a record is written, and every time of the
    round is multiplied by REFERENCE_S / (median kernel time of the round),
    less the kernel timings inside it (see `kernel_free`). Times then read as
    on the undisturbed machine the benchmark was defined on. Factoring work
    slowed 1.41x where the kernel slowed 1.50x. The kernel does not touch
    genfib.
    """

    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # (start, end) of each kernel timing
        self._last = -math.inf

    def sample(self) -> None:
        if perf_counter() - self._last < SAMPLE_EVERY_S:
            return
        t0 = perf_counter()
        reference_kernel()
        self._last = perf_counter()
        self.spans.append((t0, self._last))


def kernel_free(spans: list[tuple[float, float]], starts: list[float], t0: float, t1: float) -> float:
    """The length of the stretch [t0, t1] of a round, less the kernel timings inside it."""
    return t1 - t0 - sum(end - start for start, end in spans[bisect_left(starts, t0):bisect_left(starts, t1)])


class _Capture:
    """Stand-in for sys.stdout that stamps each completed line as it is written."""

    def __init__(self, calib: Calibration | None = None):
        self.parts: list[str] = []
        self.stamps: list[float] = []
        self._calib = calib

    def write(self, text: str) -> int:
        self.parts.append(text)
        newlines = text.count("\n")
        if newlines:
            now = perf_counter()
            self.stamps.extend([now] * newlines)
            if self._calib is not None:
                self._calib.sample()
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Outcome:
    """What one invocation wrote and how it ended; equal outcomes share a verdict."""

    code: int | None
    error: str | None
    stdout: str
    stderr: str
    records: int
    verdicts: list[str | None] = field(default_factory=list)
    problem: str | None = None

    @property
    def extra_unit(self) -> bool:
        """An invocation with no record, or one that ended in exit 2 or an exception, has one more unit."""
        return self.records == 0 or self.code == 2 or self.error is not None

    def failed_units(self) -> int:
        failed = sum(1 for v in self.verdicts if v is not None)
        # an invocation-level fault lands on the extra unit, else on the last record
        if self.problem is not None and (self.extra_unit or self.verdicts[-1] is None):
            failed += 1
        return failed


def invoke(cli, argv: list[str], calib: Calibration) -> tuple[int | None, str | None, _Capture, _Capture, float, float]:
    out, err = _Capture(calib), _Capture()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    code = error = None
    start = perf_counter()
    try:
        code = cli.run(list(argv))
    except Exception as exc:  # a crash is a failed unit, not the end of the benchmark
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = perf_counter()
        sys.stdout, sys.stderr = saved
    return code, error, out, err, start, end


@dataclass
class Round:
    wall: float
    traced: bool
    outcomes: list[Outcome]  # one per invocation
    durations: array  # per invocation, s
    times: array  # per unit, in output order, s
    rss_mb: float  # peak RSS of the round's process
    scale: float  # REFERENCE_S / median kernel time of the round
    layers: dict[str, float] | None = None

    def failed(self) -> int:
        return sum(o.failed_units() for o in self.outcomes)


def child_round(cli, invocations, traced: bool) -> dict:
    """One timed pass over the workload, in the child process that imported `cli`.

    Returns what the parent needs to build a `Round`. An untraced round
    proves that it ran the original functions: no genfib namespace holds a
    wrapper before or after it, and no wrapper counted a call.
    """
    tracer = tracing.Tracer()
    calib = Calibration()
    gc.collect()
    raw = []
    if traced:
        tracer.install()
    else:
        tracer.check_clean()
    try:
        t0 = perf_counter()
        for argv in invocations:
            calib.sample()
            raw.append(invoke(cli, argv, calib))
        wall = perf_counter() - t0
    finally:
        if traced:
            tracer.uninstall()
    if not traced:
        tracer.check_clean()
        if tracer.total_calls():
            raise RuntimeError("a wrapper ran during an untraced round")
    raw = [(code, error, "".join(out.parts), "".join(err.parts), out.stamps, start, end)
           for code, error, out, err, start, end in raw]
    layers = None
    if traced:
        layers = tracer.snapshot(sum(len(r[4]) for r in raw), sum(len(r[2].encode()) for r in raw))
    return {
        "raw": raw,
        "wall": wall,
        "spans": calib.spans,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }


def spawn_round(name: str, seed: int, traced: bool, seen: list[dict]) -> Round:
    """Run one round in a fresh child process and build its `Round`.

    A unit is one record, timed from the previous record of the invocation or
    from its start; `Outcome.extra_unit` adds one running to the end. Times
    are scaled as `Calibration` says. Equal outcomes are shared with earlier
    rounds through `seen`, so the oracle judges each distinct output once.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", "1", "--round", "traced" if traced else "plain"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"round process failed: exit {proc.returncode}: {proc.stderr.decode().strip()}")
    child = pickle.loads(proc.stdout)
    spans = child["spans"]
    starts = [start for start, _ in spans]
    kernel = [end - start for start, end in spans]
    scale = REFERENCE_S / statistics.median(kernel)
    outcomes, durations, times = [], array("d"), array("d")
    for i, (code, error, text, err_text, stamps, start, end) in enumerate(child["raw"]):
        key = (code, error, text)
        outcome = seen[i].get(key)
        if outcome is None:
            outcome = seen[i][key] = Outcome(code, error, text, err_text, len(stamps))
        outcomes.append(outcome)
        pieces = [scale * kernel_free(spans, starts, t0, t1) for t0, t1 in zip([start, *stamps], [*stamps, end])]
        durations.append(sum(pieces))
        times.extend(pieces if outcome.extra_unit else pieces[:-1])
    return Round(child["wall"], traced, outcomes, durations, times, child["rss_mb"], scale, child["layers"])


def typical(rounds: list[Round]) -> tuple[float, list[float]]:
    """The round time and the unit times, each element the median of its scaled repeats.

    Every invocation and every unit repeats once per round. Over five seeds
    of each workload, the median of the scaled repeats spread less than their
    minimum: a minimum picks the round whose scale erred lowest. Units are
    matched by position, over the rounds whose output has the same shape as
    the first round's.
    """
    wall = sum(statistics.median(col) for col in zip(*(r.durations for r in rounds)))
    shaped = [r for r in rounds if len(r.times) == len(rounds[0].times)]
    units = [statistics.median(col) for col in zip(*(r.times for r in shaped))]
    return wall, units


def tail_of(units: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with TAIL_BEYOND units beyond it."""
    ordered = sorted(units)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND), 50.0)
    return pct, ordered[max(0, math.ceil(n * pct / 100) - 1)]  # nearest rank


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing genfib.cli and running one compute.

    The median of the launches, multiplied by REFERENCE_S / (median time of
    the kernel, timed before each launch). Launch times follow the machine's
    load only loosely, since the child may run on the other CPU; the median
    ratio varied less than the ratio of the fastest times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"import sys\nfrom genfib.cli import run\nsys.exit(run({SETUP_ARGV!r}))"
    times, kernel = [], []
    # the first launch may write the bytecode caches, so it is not counted
    for i in range(SETUP_LAUNCHES + 1):
        t0 = perf_counter()
        reference_kernel()
        kernel.append(perf_counter() - t0)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        dt = perf_counter() - t0
        if proc.returncode != 0 or json.loads(proc.stdout)["value"] != 55:
            raise RuntimeError(f"set-up launch failed: exit {proc.returncode}: {proc.stderr.strip()}")
        if i:
            times.append(dt)
    return statistics.median(times) * REFERENCE_S / statistics.median(kernel)


def machine_facts() -> str:
    gmpy2 = "present" if importlib.util.find_spec("gmpy2") else "absent"
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"gmpy2={gmpy2} int_max_str_digits={sys.get_int_max_str_digits()}"
    )


def judge_all(seen: list[dict], invocations) -> tuple[list[str], bool]:
    """Run the oracle on every distinct outcome.

    Returns the failure listing, and whether every output was checked and
    every invocation wrote the same output in every round.
    """
    from oracle import Oracle  # imports sympy, in this parent process whose memory is not measured

    oracle = Oracle()
    listing, complete = [], True
    for argv, outcomes in zip(invocations, seen):
        cmd = " ".join(argv)
        for outcome in outcomes.values():
            lines = outcome.stdout.splitlines()
            try:
                outcome.verdicts, outcome.problem = oracle.judge(
                    argv, outcome.code, outcome.error, outcome.stderr, lines
                )
            except Exception as exc:  # an unchecked output counts as failed, and the run as not correct
                outcome.verdicts = ["not checked"] * len(lines)
                outcome.problem = f"oracle error: {type(exc).__name__}: {exc}"
                complete = False
            for i, reason in enumerate(outcome.verdicts):
                if reason is not None:
                    listing.append(f"FAILED {cmd} [record {i}]: {reason}")
            if outcome.problem is not None:
                listing.append(f"FAILED {cmd}: {outcome.problem}")
        if len(outcomes) > 1:
            listing.append(f"NONDETERMINISTIC {cmd}: output differs between rounds")
            complete = False
    return listing, complete


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    invocations = workloads.generate(name, seed)
    if workloads.generate(name, seed) != invocations:
        raise RuntimeError(f"generator for {name} is not deterministic")
    print(f"# workload={name} seed={seed} invocations={len(invocations)} {machine_facts()}")
    setup_s = None if trace else measure_setup()

    seen: list[dict] = [{} for _ in invocations]
    rounds: list[Round] = []

    # Whole rounds until the next one would end more than half a round past
    # the deadline; a traced run alternates, starting untraced, with at
    # least one round of each kind.
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        traced = trace and len(rounds) % 2 == 1
        rounds.append(spawn_round(name, seed, traced, seen))
        elapsed = perf_counter() - t0
        if len(rounds) >= (2 if trace else 1) and perf_counter() + elapsed / 2 >= deadline:
            break
    peak_rss_mb = max(r.rss_mb for r in rounds if not r.traced)

    listing, correct = judge_all(seen, invocations)
    # one pass: every round checked above wrote the same output, so every round has these counts
    attempted = len(rounds[0].times)
    failed = rounds[0].failed()
    if any(len(r.times) != attempted or r.failed() != failed for r in rounds):
        correct = False
    plain = [r for r in rounds if not r.traced]
    wall_s, units = typical(plain)
    print(f"# rounds={len(rounds)} units/round={attempted} failed/round={failed}")
    print("# round walls (s, unscaled, * = traced): " + " ".join(f"{r.wall:.3f}{'*' * r.traced}" for r in rounds))
    print("# round scales: " + " ".join(f"{r.scale:.3f}" for r in rounds))
    for line in listing:
        print(line)

    if trace:
        traced = [r for r in rounds if r.traced]
        overhead = typical(traced)[0] - wall_s
        # counts repeat exactly; self times are scaled like their round's times
        values = {
            name: statistics.median(r.layers[name] * (r.scale if name.endswith(".self_s") else 1) for r in traced)
            for name, _, _ in tracing.metric_names()
        }
        units_of = {name: unit for name, unit, _ in tracing.metric_names()}
        values["trace.overhead_s"] = overhead
        units_of["trace.overhead_s"] = "s"
        print(f"# tracing overhead {overhead:.4f} s per round")
        by_layer = {layer: 0.0 for layer in tracing.TARGETS}
        for key, value in values.items():
            if key.endswith(".self_s"):
                by_layer[key.split(".")[0]] += value
        total = sum(by_layer.values()) or 1.0
        print("# self time by layer: " + ", ".join(
            f"{layer} {100 * v / total:.1f}%" for layer, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    else:
        pct, tail = tail_of(units)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "record_p50_ms": 1e3 * statistics.median(units),
            "record_tail_ms": 1e3 * tail,
            "failed_frac": failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units_of = dict(END_TO_END)
        print(f"# record_tail_ms is p{pct:g} of {len(units)} units per round")
    for key, value in values.items():
        print(f"{key} {value:.6g} {units_of[key]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units_of[key]} for key, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process); then one table."""
    results = {}
    for name in workloads.GENERATORS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  " + "  ".join(f"{w:>14}" for w in results))
    for metric in names:
        row = [f"{results[w]['metrics'][metric]['value']:14.6g}" for w in results]
        unit = next(iter(results.values()))["metrics"][metric]["unit"]
        print(f"{metric:<{width}}  " + "  ".join(row) + f"  {unit}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one round of the workload in this process and pickle it to stdout
    parser.add_argument("--round", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "genfib" / "cli.py").is_file():
        print(f"error: no genfib sources at {SRC}; run from a genfib checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.round is None:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    import genfib.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported genfib from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    payload = child_round(cli, workloads.generate(args.workload, args.seed), args.round == "traced")
    pickle.dump(payload, sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
