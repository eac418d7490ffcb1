"""Byte stability of the CLI against committed digests.

`data/cli_golden.json` holds, for each argv, the sha256 of stdout and of
stderr and the exit code that `genfib.cli.run` gave. The argvs are the
seed-1 invocations of the three benchmark workloads (factor-sweep,
eval-identity, bisquare-mix), then the criterion-11 CLI fixtures, then
`primitive --a 2 --b 1 --n-max 113`, whose n = 113 record is a skip on a
composite that p-1/p+1, rho and ECM all leave: no other argv writes one.
Last come `primitive` and `tau-bounds` for (2, 2) and (4, 2) to n = 40,
where gcd(a, b) > 1: its primes divide every F_n from n = 2 on, so they are
divided out first and are never primitive past n = 2. They are copied
into the file so that this test does not depend on the benchmark's
generators.

The `bisquare --n` argvs on psi_12 and psi_13, the strong pseudoprimes to
the twelve prime bases up to 37, pin the records of the Baillie-PSW
`is_prime`, which calls both composite: psi_13's record is its smallest-r
decomposition, which the fixed-base Miller-Rabin test before it missed. Any
update of the file is a change to the CLI's output and is listed in
CHANGES.md; regenerate the digests from the argvs already in the file with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from genfib import cli, divisors

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def _digest(argv: list[str]) -> dict:
    # each argv starts from empty factorization memos, as in a fresh process
    divisors._factorize_memo.cache_clear()
    divisors._factor_f.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return {
        "argv": argv,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "exit": code,
    }


def test_cli_output_matches_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 162
    changed = [want["argv"] for want in golden if _digest(want["argv"]) != want]
    assert changed == []


if __name__ == "__main__":
    entries = [_digest(entry["argv"]) for entry in json.loads(GOLDEN.read_text())]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} digests to {GOLDEN}", file=sys.stderr)
