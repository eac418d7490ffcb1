"""End-to-end CLI checks: record shapes, exit codes, determinism."""

import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import islice, takewhile
from pathlib import Path

import pytest

from genfib import ResourceLimitError, SequenceParams, TauBounds, cli, diophantine, divisibility, g_iter, identities
from genfib.core import check_digit_cap

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "genfib.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def records(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_compute_value_and_echo():
    proc = run_cli("compute", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--n", "10")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec == {
        "a": 1, "b": 1, "kind": "compute", "method": "fast", "n": 10,
        "status": "ok", "u": 0, "v": 1, "value": 55,
    }


def test_compute_methods_agree():
    vals = set()
    for method in ("iter", "fast", "binet"):
        proc = run_cli("compute", "--u", "2", "--v", "-7", "--a", "3", "--b", "-1",
                       "--n", "17", "--method", method)
        assert proc.returncode == 0
        vals.add(records(proc)[0]["value"])
    assert vals == {-44276827}


def test_compute_refuses_huge_index():
    # F_(10^12) would have about 2*10^11 digits; it is refused before any work
    proc = run_cli("compute", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--n", str(10**12))
    assert proc.returncode == 3 and proc.stdout == ""
    assert "above the 1000000-digit cap" in proc.stderr


def test_compute_cap_edge():
    # 4784941 is the last index of F whose digit bound is within the cap;
    # F_4784941 itself has 999994 digits
    p = SequenceParams(0, 1, 1, 1)
    check_digit_cap(p, 4784941)
    proc = run_cli("compute", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--n", "4784942")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("resource limit: G_4784942 may have up to 1000001 digits, "
                           "above the 1000000-digit cap\n")


def test_compute_prints_values_past_the_str_digit_limit(capsys):
    # F_25000 has 5225 digits, past the interpreter's default int -> str
    # limit of 4300; the record is written and the limit is left as it was
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5225
    assert cli.run(["compute", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--n", "25000"]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        (rec,) = [json.loads(line) for line in out.splitlines()]
    finally:
        sys.set_int_max_str_digits(limit)
    assert rec["status"] == "ok" and rec["value"] == g_iter(SequenceParams(0, 1, 1, 1), 25000)


def test_compute_binet_repeated_root_dispatch():
    # discriminant 0: the binet method must route to the repeated-root form
    proc = run_cli("compute", "--u", "3", "--v", "5", "--a", "2", "--b", "-1",
                   "--n", "8", "--method", "binet")
    assert proc.returncode == 0
    assert records(proc)[0]["value"] == 19  # G_n = 3 + 2n here


def test_identity_determinant_record_count():
    proc = run_cli("identity", "determinant", "--u", "0", "--v", "1", "--a", "1",
                   "--b", "1", "--max-n", "20")
    assert proc.returncode == 0
    recs = records(proc)
    assert len(recs) == 21
    assert all(r["status"] == "ok" and r["lhs"] == r["rhs"] for r in recs)


def test_identity_addition_grid():
    proc = run_cli("identity", "addition", "--u", "1", "--v", "2", "--a", "1",
                   "--b", "1", "--max-m", "3", "--max-n", "4")
    assert proc.returncode == 0
    recs = records(proc)
    assert len(recs) == 4 * 5
    assert all(r["status"] == "ok" for r in recs)


SEED = ["--u", "1", "--v", "2", "--a", "1", "--b", "1"]


@pytest.mark.parametrize("argv, message", [
    (["identity", "addition", *SEED, "--max-n", "-1"], "max_m and max_n must be non-negative"),
    (["identity", "addition", *SEED, "--max-n", "3", "--max-m", "-3"], "max_m and max_n must be non-negative"),
    (["identity", "addition", *SEED, "--max-n", "-1", "--max-m", "3"], "max_m and max_n must be non-negative"),
    (["identity", "determinant", *SEED, "--max-n", "-2"], "max_n must be non-negative"),
])
def test_identity_grids_refuse_negative_bounds(capsys, argv, message):
    # they once wrote nothing and exited 0
    assert run_in_process(capsys, argv) == ("", f"error: {message}\n", 2)


@pytest.mark.parametrize("name", ["addition", "determinant"])
def test_identity_grids_at_zero_write_one_record(capsys, name):
    out, err, code = run_in_process(capsys, ["identity", name, *SEED, "--max-n", "0"])
    assert (code, err, len(out.splitlines())) == (0, "", 1)


def test_identity_addition_past_the_cap_builds_nothing(capsys, monkeypatch):
    # a grid whose prefixes would pass the digit cap is refused before either
    # is built, where it once streamed records without end
    def refuse(*args):
        raise AssertionError("a prefix was built")

    monkeypatch.setattr(identities, "g_prefix", refuse)
    out, err, code = run_in_process(capsys, ["identity", "addition", *SEED, "--max-n", str(10**6)])
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: G_0..G_2000001 and F_0..F_1000001 may have up to ")
    assert err.endswith(" digits, above the 1000000-digit cap\n")


@pytest.mark.parametrize("grid", [("2..2", "2..2", "1..1", "2..2"), ("0..0", "1..1", "1..1", "1..1")])
def test_scan_divisible_refuses_bound_zero(capsys, grid):
    # the bound is checked before the gate: the first grid has no point past
    # the gate, and it once wrote an empty summary and exited 0
    flags = ("--u-range", "--v-range", "--a-range", "--b-range")
    argv = ["scan-divisible", *(w for pair in zip(flags, grid) for w in pair), "--bound", "0"]
    assert run_in_process(capsys, argv) == ("", "error: bound must be positive\n", 2)


def test_scan_divisible_refuses_a_prefix_past_the_cap(capsys):
    flags = ("--u-range", "--v-range", "--a-range", "--b-range")

    def scan(*grid):
        argv = ["scan-divisible", *(w for pair in zip(flags, grid) for w in pair), "--bound", str(10**6)]
        return run_in_process(capsys, argv)

    # (1, 2 | 1, 1) is decided by no closed form, but it fails at (1, 2):
    # the walk builds three terms, and only a walk past G_64 tests the cap
    out, err, code = scan("1..1", "2..2", "1..1", "1..1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"bound": 10**6, "kind": "scan-summary", "scan": "divisible",
                               "status": "ok", "survivors": 0}
    # every term of (1, 1 | 0, 1) is a unit, so the walk goes on to the
    # stage whose prefix could pass the cap, and stops there
    out, err, code = scan("1..1", "1..1", "0..0", "1..1")
    assert (code, out) == (3, "")
    assert err == ("resource limit: G_0..G_262144 may have up to 262145 x 6 digits,"
                   " above the 1000000-digit cap\n")


def test_scan_divisible_records():
    proc = run_cli("scan-divisible", "--u-range", "0..2", "--v-range", "1..2",
                   "--a-range", "1..2", "--b-range", "0..2", "--bound", "20")
    assert proc.returncode == 0
    recs = records(proc)
    survivors = [(r["u"], r["v"], r["a"], r["b"]) for r in recs if r["kind"] == "divisible-survivor"]
    assert survivors == [
        (0, 1, 1, 1), (0, 1, 2, 1), (1, 1, 1, 0), (1, 1, 2, 0),
        (1, 2, 1, 0), (1, 2, 2, 0), (2, 2, 1, 0), (2, 2, 2, 0),
    ]
    assert recs[-1] == {"bound": 20, "kind": "scan-summary", "scan": "divisible",
                        "status": "ok", "survivors": 8}


def test_gcd_identity_ok():
    proc = run_cli("gcd-identity", "--a", "2", "--b", "1", "--max", "25")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["checked"] == 625 and rec["witness"] is None and rec["status"] == "ok"


def test_gcd_identity_edges(capsys):
    out, err, code = run_in_process(capsys, ["gcd-identity", "--a", "-1", "--b", "1", "--max", "5"])
    (rec,) = map(json.loads, out.splitlines())
    assert code == 1 and rec["witness"] == [2, 2] and rec["checked"] == 7
    out, err, code = run_in_process(capsys, ["gcd-identity", "--a", "2", "--b", "4", "--max", "0"])
    assert code == 0 and json.loads(out)["checked"] == 0
    out, err, code = run_in_process(capsys, ["gcd-identity", "--a", "2", "--b", "4", "--max", "3"])
    assert (code, out) == (2, "")
    assert err == "error: (a,b)=(2,4) must satisfy b != 0 and gcd(a,b) = 1\n"


def test_gcd_identity_past_the_cap_builds_nothing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the prefix was built")

    monkeypatch.setattr(divisibility, "g_prefix", refuse)
    out, err, code = run_in_process(capsys, ["gcd-identity", "--a", "1", "--b", "1",
                                             "--max", "1000000"])
    assert (code, out) == (3, "") and err.startswith("resource limit:")
    monkeypatch.undo()
    out, err, code = run_in_process(capsys, ["gcd-identity", "--a", "3", "--b", "4", "--max", "100"])
    assert code == 0 and json.loads(out)["checked"] == 100 * 100


def test_dioph_families_and_oracle():
    proc = run_cli("dioph", "families", "--k-max", "2", "--lm-max", "5")
    assert proc.returncode == 0
    recs = records(proc)
    assert recs and all(r["status"] == "ok" for r in recs)
    assert {"F1", "F2", "F3", "F4"} == {r["family"] for r in recs}

    proc = run_cli("dioph", "oracle", "--z-max", "20")
    assert proc.returncode == 0
    triples = [(r["x"], r["y"], r["z"]) for r in records(proc) if r["kind"] == "dioph-triple"]
    assert triples[:3] == [(0, 1, 2), (1, 1, 3), (0, 2, 4)]
    assert (8, 1, 18) in triples


def test_dioph_complete_ok():
    proc = run_cli("dioph", "complete", "--z-max", "100", "--lm-max", "15")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["status"] == "ok" and rec["unmatched"] == []
    assert rec["total"] == rec["family_matched"] + rec["degenerate"]


def test_dioph_complete_violated_exit():
    proc = run_cli("dioph", "complete", "--z-max", "50", "--lm-max", "1")
    assert proc.returncode == 1
    (rec,) = records(proc)
    assert rec["status"] == "violated" and rec["unmatched"] == [[21, 1, 47]]


def test_dioph_complete_refuses_negative_bound():
    # a negative parameter bound is a usage error, not a gap in the families
    proc = run_cli("dioph", "complete", "--z-max", "50", "--lm-max", "-1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: param_bound must be non-negative\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [["dioph", "oracle", "--z-max", "1000000000000"],
                                  ["dioph", "complete", "--z-max", "1000000000000", "--lm-max", "5"]])
def test_dioph_refuses_a_huge_z_max(argv):
    # under a 1 GB address-space limit: the enumeration is refused before its
    # table of sqrt(z_max^2 / 5) entries is built, which would not fit
    proc = subprocess.run([sys.executable, "-m", "genfib.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
                          preexec_fn=_limit_address_space, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "resource limit: z_max 1000000000000 is above the enumeration limit 1000000\n"


def test_dioph_families_refuses_negative_bounds(capsys):
    # as `dioph complete` and `dioph oracle` do, rather than writing nothing
    for argv in (["dioph", "families", "--k-max", "2", "--lm-max", "-1"],
                 ["dioph", "families", "--k-max", "-1", "--lm-max", "3"]):
        out, err, code = run_in_process(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: k_max and lm_max must be non-negative\n"
    out, err, code = run_in_process(capsys, ["dioph", "families", "--k-max", "0", "--lm-max", "0"])
    assert (code, out, err) == (0, "", "")


def test_bisquare_single():
    proc = run_cli("bisquare", "--n", "45")
    assert proc.returncode == 0
    assert records(proc)[0]["decomposition"] == [3, 6]
    proc = run_cli("bisquare", "--n", "7")
    assert proc.returncode == 0
    rec = records(proc)[0]
    assert rec["bisquare"] is False and rec["decomposition"] is None


def test_bisquare_refuses_too_many_splits(capsys):
    # the product of the first 30 primes = 1 mod 4 has 2^30 two-square
    # splits to compare; it is refused at once with exit 3
    n = 2983383440722580134130318029653647506045412433545014890989765
    out, err, code = run_in_process(capsys, ["bisquare", "--n", str(n)])
    assert (code, out) == (3, "")
    assert err == (f"resource limit: {n} has 1073741824 conjugate splits to assemble, "
                   "above the limit 65536\n")


def test_dioph_families_streams_its_records():
    # the (l, m) grid is walked as records are made, not built first: at
    # lm_max = 400 a list of its 160,000 entries took 18 MB
    args = argparse.Namespace(k_max=1, lm_max=400)
    tracemalloc.start()
    try:
        recs = list(islice(cli._cmd_dioph_families(args), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(r["l"], r["m"]) for r in recs] == [(1, 1), (1, 3), (1, 5), (1, 7), (1, 9),
                                                (1, 11), (1, 13), (1, 15), (1, 17), (1, 19)]
    assert peak < 1 << 20


@pytest.mark.parametrize("bounds", [("-1", "3"), ("3", "-1")])
def test_bisquare_scan_refuses_negative_bounds(capsys, bounds):
    # it once wrote a summary of 0 pairs and exited 0
    argv = ["bisquare", "scan", f"--u-max={bounds[0]}", f"--v-max={bounds[1]}", "--a", "1", "--b", "1"]
    assert run_in_process(capsys, argv) == ("", "error: u_max and v_max must be non-negative\n", 2)


def test_bisquare_scan():
    proc = run_cli("bisquare", "scan", "--u-max", "3", "--v-max", "3", "--a", "1", "--b", "1")
    assert proc.returncode == 0
    recs = records(proc)
    pairs = [(r["u"], r["v"], r["t"]) for r in recs if r["kind"] == "square-invariant-pair"]
    assert pairs == [(0, 0, 0), (1, 0, 1), (1, 1, 1), (2, 0, 2), (2, 2, 2),
                     (2, 3, 1), (3, 0, 3), (3, 3, 3)]


def test_alt_bisquable_violated_exit():
    proc = run_cli("alt-bisquable", "--u", "0", "--v", "1", "--a", "1", "--b", "1",
                   "--k-max", "6", "--parity", "even")
    assert proc.returncode == 1
    bad = [r for r in records(proc) if r["status"] == "violated"]
    assert [(r["n"], r["value"]) for r in bad] == [(4, 3), (8, 21), (10, 55)]


def test_alt_bisquable_refuses_a_prefix_past_the_cap(capsys):
    # G_0..G_199999999 is tested against the cap before any term is built
    argv = ["alt-bisquable", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--parity", "odd",
            "--k-max", "100000000"]
    out, err, code = run_in_process(capsys, argv)
    assert (code, out) == (3, "")
    assert err == ("resource limit: G_0..G_199999999 may have up to 200000000 x 41797536 digits,"
                   " above the 1000000-digit cap\n")


def test_alt_bisquable_ok_exit():
    proc = run_cli("alt-bisquable", "--u", "0", "--v", "1", "--a", "1", "--b", "1",
                   "--k-max", "6", "--parity", "odd")
    assert proc.returncode == 0
    assert all(r["status"] == "ok" for r in records(proc))


def test_tau_bounds_and_primitive():
    proc = run_cli("tau-bounds", "--a", "1", "--b", "1", "--n-max", "30")
    assert proc.returncode == 0
    assert len(records(proc)) == 29

    proc = run_cli("primitive", "--a", "1", "--b", "1", "--n-max", "15")
    assert proc.returncode == 0
    recs = records(proc)
    by_n = {r["n"]: r for r in recs}
    assert by_n[12]["primes"] == [] and by_n[12]["has_primitive"] is False
    assert by_n[7]["primes"] == [13]


def test_usage_errors_exit_2():
    proc = run_cli("compute", "--u", "0", "--v", "1", "--a", "1", "--b", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    proc = run_cli("no-such-command")
    assert proc.returncode == 2
    proc = run_cli("scan-divisible", "--u-range", "5", "--v-range", "1..2",
                   "--a-range", "1..2", "--b-range", "1..2", "--bound", "10")
    assert proc.returncode == 2
    # a flag of another mode is refused, not dropped
    for args in (
        ("bisquare", "--n", "45", "--u-max", "3"),
        ("bisquare", "scan", "--u-max", "2", "--v-max", "2", "--a", "1", "--b", "1", "--n", "5"),
        ("bisquare", "--n", "45", "scan", "--u-max", "2", "--v-max", "2", "--a", "1", "--b", "1"),
        ("identity", "determinant", "--u", "0", "--v", "1", "--a", "1", "--b", "1",
         "--max-n", "2", "--max-m", "9"),
        ("bisquare",),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2 and proc.stdout == "", args
    # the error names the stray flag, not the value argparse would read as `scan`
    proc = run_cli("bisquare", "--n", "45", "--u-max", "3")
    assert proc.stderr.splitlines()[-1] == "genfib bisquare: error: --u-max is a flag of 'bisquare scan'"
    # and a flag that no mode takes is named too
    proc = run_cli("bisquare", "--n", "45", "--foo", "3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == "genfib bisquare: error: unrecognized arguments: --foo"


def test_hypothesis_violation_exits_2_with_diagnostic():
    proc = run_cli("alt-bisquable", "--u", "2", "--v", "3", "--a", "1", "--b", "2",
                   "--k-max", "4", "--parity", "even")
    assert proc.returncode == 2
    assert proc.stdout == "" and "square" in proc.stderr


def test_repeat_runs_byte_identical():
    args = ("dioph", "complete", "--z-max", "60", "--lm-max", "9")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout and first.returncode == second.returncode


# one argv per subcommand family, two of them usage errors (exit 2)
MIXED_ARGVS = [
    ["compute", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--n", "10"],
    ["tau-bounds", "--a", "2", "--b", "1", "--n-max", "12"],
    ["compute", "--u", "0", "--v", "1", "--a", "1", "--b", "1"],
    ["bisquare", "--n", "45"],
    ["identity", "addition", "--u", "1", "--v", "2", "--a", "1", "--b", "1", "--max-n", "3"],
    ["scan-divisible", "--u-range", "5", "--v-range", "1..2", "--a-range", "1..2",
     "--b-range", "1..2", "--bound", "10"],
    ["dioph", "complete", "--z-max", "50", "--lm-max", "1"],
]


def run_in_process(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return out.out, out.err, code


def test_terms_past_the_str_digit_limit_are_skipped(capsys):
    # F_n of (10^100, 1) has 100(n - 1) + 1 digits, so from n = 44 on it is
    # past the interpreter's 4300-digit int -> str limit as well as the cap;
    # at a prime n the primitive part is all of F_n
    out, err, code = run_in_process(capsys, ["primitive", "--a", str(10**100), "--b", "1",
                                             "--n-max", "50"])
    recs = [json.loads(line) for line in out.splitlines()]
    assert (code, err, len(recs)) == (3, "", 50)
    assert [r["n"] for r in recs if r["status"] == "skipped"] == list(range(2, 51))
    assert recs[46]["reason"] == "the primitive part of F_47 has 4601 digits, above the 80-digit cap"


def test_only_the_package_input_errors_exit_2(monkeypatch):
    def broken(n):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "two_square_decomposition", broken)
    with pytest.raises(ValueError, match="not an input error"):
        cli.run(["bisquare", "--n", "45"])


def test_in_process_runs_match_fresh_runs(capsys):
    fresh = [run_cli(*argv) for argv in MIXED_ARGVS]
    fresh = [(proc.stdout, proc.stderr, proc.returncode) for proc in fresh]
    # every argv twice, in an order that alternates subcommands and errors
    order = list(range(len(MIXED_ARGVS))) + list(range(len(MIXED_ARGVS)))[::-1]
    for i in order:
        assert run_in_process(capsys, MIXED_ARGVS[i]) == fresh[i], MIXED_ARGVS[i]


def test_usage_error_leaves_next_call_unaffected(capsys):
    base = ["--u", "0", "--v", "1", "--a", "1", "--b", "1"]
    out, err, code = run_in_process(capsys, ["compute", *base, "--method", "nope", "--n", "5"])
    assert code == 2 and out == "" and "invalid choice" in err
    # flags given to the failed and the earlier call do not stick: --method
    # falls back to its default, --max-m to --max-n
    out, err, code = run_in_process(capsys, ["compute", *base, "--n", "10"])
    assert code == 0 and err == ""
    assert json.loads(out)["method"] == "fast" and json.loads(out)["value"] == 55
    run_in_process(capsys, ["identity", "addition", *base, "--max-m", "4", "--max-n", "1"])
    out, err, code = run_in_process(capsys, ["identity", "addition", *base, "--max-n", "1"])
    assert code == 0 and len(out.splitlines()) == 2 * 2


# one valid argv per leaf subcommand, giving every flag it requires and no other
LEAF_ARGVS = [
    ["compute", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--n", "10"],
    ["identity", "addition", "--u", "1", "--v", "2", "--a", "1", "--b", "1", "--max-n", "3"],
    ["identity", "determinant", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--max-n", "3"],
    ["scan-divisible", "--u-range", "0..1", "--v-range", "1..2", "--a-range", "1..2",
     "--b-range", "0..1", "--bound", "10"],
    ["gcd-identity", "--a", "2", "--b", "1", "--max", "5"],
    ["dioph", "families", "--k-max", "1", "--lm-max", "3"],
    ["dioph", "oracle", "--z-max", "10"],
    ["dioph", "complete", "--z-max", "20", "--lm-max", "5"],
    ["bisquare", "--n", "45"],
    ["bisquare", "scan", "--u-max", "2", "--v-max", "2", "--a", "1", "--b", "1"],
    ["alt-bisquable", "--u", "0", "--v", "1", "--a", "1", "--b", "1", "--k-max", "3",
     "--parity", "odd"],
    ["tau-bounds", "--a", "1", "--b", "1", "--n-max", "8"],
    ["primitive", "--a", "1", "--b", "1", "--n-max", "8"],
]


@pytest.mark.parametrize(
    "argv", LEAF_ARGVS, ids=lambda argv: " ".join(takewhile(lambda w: not w.startswith("--"), argv))
)
def test_every_required_flag_is_enforced(capsys, argv):
    out, err, code = run_in_process(capsys, argv)
    assert code in (0, 1) and out
    flags = [i for i, word in enumerate(argv) if word.startswith("--")]
    for i in flags:
        out, err, code = run_in_process(capsys, argv[:i] + argv[i + 2:])
        assert (code, out) == (2, ""), argv[i]


def test_records_before_a_resource_limit_stay_written(capsys, monkeypatch):
    # each record is written as it is made: a limit hit at m = 1 leaves the
    # three records of row m = 0 on stdout
    addition_grid = cli.addition_grid

    def limited(p, max_m, max_n):
        for point in addition_grid(p, max_m, max_n):
            if point[0] == 1:
                raise ResourceLimitError("limit at m = 1")
            yield point

    monkeypatch.setattr(cli, "addition_grid", limited)
    out, err, code = run_in_process(capsys, ["identity", "addition", "--u", "0", "--v", "1",
                                             "--a", "1", "--b", "1", "--max-n", "2"])
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 3 and err == "resource limit: limit at m = 1\n"
    assert [(r["m"], r["n"], r["status"]) for r in recs] == [(0, 0, "ok"), (0, 1, "ok"), (0, 2, "ok")]


def test_alt_bisquable_records_before_a_resource_limit_stay_written(capsys, monkeypatch):
    # the witnesses are decided one at a time: a limit hit at the third term
    # leaves the records of the first two on stdout
    decompose = diophantine.two_square_decomposition
    seen = []

    def limited(n):
        seen.append(n)
        if len(seen) == 3:
            raise ResourceLimitError("limit at the third term")
        return decompose(n)

    monkeypatch.setattr(diophantine, "two_square_decomposition", limited)
    out, err, code = run_in_process(capsys, ["alt-bisquable", "--u", "0", "--v", "1", "--a", "1",
                                             "--b", "1", "--parity", "odd", "--k-max", "5"])
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 3 and err == "resource limit: limit at the third term\n"
    assert [(r["n"], r["value"], r["status"]) for r in recs] == [(1, 1, "ok"), (3, 2, "ok")]


def test_violated_index_outranks_skipped_index(capsys, monkeypatch):
    # exit 1 when any record is violated, even with a skip among them; the
    # skipped index still gets its record and the command goes on
    def bounds(a, b, n):
        if n == 3:
            return TauBounds(n, 1, 2, 1, False, False)
        if n == 4:
            raise ResourceLimitError("stuck at 4")
        return TauBounds(n, 2, 2, 1, True, True)

    monkeypatch.setattr(cli, "check_tau_bounds", bounds)
    out, err, code = run_in_process(capsys, ["tau-bounds", "--a", "1", "--b", "1", "--n-max", "5"])
    recs = [json.loads(line) for line in out.splitlines()]
    assert (code, err) == (1, "")
    assert [(r["n"], r["status"]) for r in recs] == [
        (2, "ok"), (3, "violated"), (4, "skipped"), (5, "ok")]
    assert recs[2] == {"a": 1, "b": 1, "kind": "tau-bounds", "n": 4, "reason": "stuck at 4",
                       "status": "skipped"}
