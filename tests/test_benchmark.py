"""One benchmark round per workload, run as the benchmark runs it.

A round child that exits non-zero or writes an unreadable pickle ends the
whole benchmark run, so each workload's round is smoke-tested here.
"""

import importlib.util
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_round_runs_every_invocation(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--round", "plain"],
        cwd=ROOT, capture_output=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    raw = pickle.loads(proc.stdout)["raw"]
    assert len(raw) == len(_workloads_module().generate(workload, 1))
    # each entry is (code, error, stdout, stderr, stamps, start, end)
    assert [(i, entry[1]) for i, entry in enumerate(raw) if entry[1] is not None] == []
