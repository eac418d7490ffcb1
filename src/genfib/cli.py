"""Command-line front end: one JSON record per line, deterministic order.

Each command is a generator of records: dicts that carry a kind tag, an echo
of the inputs, the result payload, and a status among ok / violated /
skipped. `run` is the one writer: it writes each record as soon as it is
yielded, so the records before an error stay on stdout. Exit code 0 when
every record is ok, 1 when any check is violated, otherwise 3 when any index
was skipped; 2 on usage errors (including a DomainError or
HypothesisViolationError from the package), 3 when a resource limit stopped
the command.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache, partial
from itertools import product

from .core import SequenceParams, g_fast, g_iter
from .diophantine import (
    Family,
    alternating_witnesses,
    brute_force_solutions,
    completeness_report,
    families_for,
    family_solution,
    is_bisquare,
    is_solution,
    square_invariant_pairs,
    two_square_decomposition,
)
from .divisibility import gcd_identity_grid, scan_divisible
from .divisors import check_tau_bounds, primitive_divisors
from .errors import DomainError, HypothesisViolationError, ResourceLimitError
from .identities import addition_grid, determinant_grid
from .quadfield import binet_eval

OK = "ok"
VIOLATED = "violated"
SKIPPED = "skipped"


def _rec(kind: str, ok: bool = True, **fields) -> dict:
    """One record, `ok` or `violated` by ok; a `status` among the fields overrides that."""
    return {"kind": kind, "status": OK if ok else VIOLATED, **fields}


def _seed(args) -> tuple[SequenceParams, dict]:
    """The sequence that --u --v --a --b give, and the echo of those flags for its records."""
    echo = {"u": args.u, "v": args.v, "a": args.a, "b": args.b}
    return SequenceParams(**echo), echo


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    try:
        bounds = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from None
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return bounds


def _cmd_compute(args):
    p, echo = _seed(args)
    evaluate = {"iter": g_iter, "fast": g_fast, "binet": binet_eval}[args.method]
    yield _rec("compute", method=args.method, n=args.n, value=evaluate(p, args.n), **echo)


def _cmd_identity_addition(args):
    p, echo = _seed(args)
    max_m = args.max_m if args.max_m is not None else args.max_n
    for m, n, lhs, rhs in addition_grid(p, max_m, args.max_n):
        yield _rec("identity", lhs == rhs, name="addition", m=m, n=n, lhs=lhs, rhs=rhs, **echo)


def _cmd_identity_determinant(args):
    p, echo = _seed(args)
    for n, lhs, rhs in determinant_grid(p, args.max_n):
        yield _rec("identity", lhs == rhs, name="determinant", n=n, lhs=lhs, rhs=rhs, **echo)


def _cmd_scan_divisible(args):
    survivors = scan_divisible(args.u_range, args.v_range, args.a_range, args.b_range, args.bound)
    for p, rep in survivors:
        yield _rec("divisible-survivor", bound=rep.bound, u=p.u, v=p.v, a=p.a, b=p.b)
    yield _rec("scan-summary", scan="divisible", survivors=len(survivors), bound=args.bound)


def _cmd_gcd_identity(args):
    checked, witness = gcd_identity_grid(args.a, args.b, args.max)
    yield _rec("gcd-identity", not witness, a=args.a, b=args.b, max=args.max,
               checked=checked, witness=witness)


def _cmd_dioph_families(args):
    if min(args.k_max, args.lm_max) < 0:
        raise DomainError("k_max and lm_max must be non-negative")
    lm = range(1, args.lm_max + 1)
    for fam in Family:
        for k in range(1, args.k_max + 1):
            for l, m in product(lm, lm):
                if fam in families_for(l, m):
                    sol = family_solution(fam, k, l, m)
                    yield _rec("dioph-solution", is_solution(sol.x, sol.y, sol.z),
                               family=fam.value, k=k, l=l, m=m, x=sol.x, y=sol.y, z=sol.z)


def _cmd_dioph_oracle(args):
    sols = brute_force_solutions(args.z_max)
    for x, y, z in sols:
        yield _rec("dioph-triple", x=x, y=y, z=z)
    yield _rec("scan-summary", scan="dioph-oracle", solutions=len(sols), z_max=args.z_max)


def _cmd_dioph_complete(args):
    rep = completeness_report(args.z_max, args.lm_max)
    yield _rec("dioph-complete", rep.complete, **asdict(rep))


def _cmd_bisquare(args):
    if (args.n is None) == (args.mode is None):
        raise DomainError("bisquare takes exactly one of --n and scan")
    if args.mode == "scan":
        pairs = square_invariant_pairs(args.u_max, args.v_max, args.a, args.b)
        for u, v, t in pairs:
            yield _rec("square-invariant-pair", u=u, v=v, t=t, a=args.a, b=args.b)
        yield _rec("scan-summary", scan="square-invariant", pairs=len(pairs))
    else:
        dec = two_square_decomposition(args.n)
        classified = is_bisquare(args.n)
        # the factorization route and the search route must agree
        yield _rec("bisquare", classified == (dec is not None), n=args.n,
                   bisquare=classified, decomposition=dec)


def _cmd_alt_bisquable(args):
    p, echo = _seed(args)
    for w in alternating_witnesses(p, args.k_max, args.parity):
        yield _rec("alt-bisquable", w.decomposition is not None, parity=args.parity,
                   **asdict(w), **echo)


def _cmd_each_index(first: int, fields, args):
    """One record per n from `first` to --n-max; an index past a resource limit is skipped.

    fields(a, b, n) gives (ok, payload) for one index.
    """
    for n in range(first, args.n_max + 1):
        echo = {"n": n, "a": args.a, "b": args.b}
        try:
            ok, payload = fields(args.a, args.b, n)
        except ResourceLimitError as exc:
            yield _rec(args.command, status=SKIPPED, reason=str(exc), **echo)
        else:
            yield _rec(args.command, ok, **payload, **echo)


def _tau_bounds_fields(a: int, b: int, n: int) -> tuple[bool, dict]:
    tb = check_tau_bounds(a, b, n)
    ok = tb.omega_bound_ok and tb.tau_bound_ok
    return ok, {"tau_fn": tb.tau_fn, "tau_n": tb.tau_n, "omega_n": tb.omega_n}


def _primitive_fields(a: int, b: int, n: int) -> tuple[bool, dict]:
    rep = primitive_divisors(a, b, n)
    return True, {"primes": rep.primitive_primes, "has_primitive": rep.has_primitive}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that names a flag it does not take, given before its sub-command.

    argparse would set the flag aside and read its value as the sub-command.
    """

    commands = None

    def add_subparsers(self, **kwargs):
        self.commands = super().add_subparsers(**kwargs)
        return self.commands

    def parse_known_args(self, args=None, namespace=None):
        for arg in args if self.commands else ():
            if arg == "--" or arg in self.commands.choices:
                break
            if arg[:1] == "-" and arg[1:2] not in "0123456789." and not _options(self, arg):
                for sub in self.commands.choices.values():
                    for flag in _options(sub, arg)[:1]:
                        self.error(f"{flag} is a flag of '{sub.prog.partition(' ')[2]}'")
                self.error(f"unrecognized arguments: {arg}")
        return super().parse_known_args(args, namespace)


def _options(parser: argparse.ArgumentParser, arg: str) -> list[str]:
    """The option strings of parser that arg gives, whole or abbreviated, before any =value."""
    return [s for s in parser._option_string_actions if s.startswith(arg.partition("=")[0])]


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing keeps no state in the parser, and building it costs more than
    most subcommands do.
    """
    parser = argparse.ArgumentParser(
        prog="genfib",
        description="Generalized Fibonacci sequences: identities, divisibility, "
        "Diophantine families, and divisor-count bounds.",
    )
    # each add_subparsers is given its prog, which argparse would otherwise
    # derive by formatting a usage line: the same text, at a cost per call
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog,
                                parser_class=_Parser)

    def _command(group, name: str, help: str, func, *flags: str):
        """Add leaf `name`, run by `func`; every flag is required, `*-range` ones as lo..hi."""
        leaf = group.add_parser(name, help=help)
        for flag in flags:
            if flag.endswith("-range"):
                leaf.add_argument(f"--{flag}", type=_parse_range, required=True, metavar="LO..HI")
            else:
                leaf.add_argument(f"--{flag}", type=int, required=True)
        leaf.set_defaults(func=func)
        return leaf

    seed = ("u", "v", "a", "b")
    sp = _command(sub, "compute", "evaluate G_n", _cmd_compute, *seed, "n")
    sp.add_argument("--method", choices=("iter", "fast", "binet"), default="fast")

    sp = sub.add_parser("identity", help="check the addition or determinant identity")
    isub = sp.add_subparsers(dest="name", required=True, prog=sp.prog)
    sp = _command(isub, "addition", "G_(m+n+1) = G_(m+1) F_(n+1) + b G_m F_n on a grid",
                  _cmd_identity_addition, *seed, "max-n")
    sp.add_argument("--max-m", type=int, default=None, help="defaults to --max-n")
    _command(isub, "determinant", "G_n G_(n+2) - G_(n+1)^2 = (-b)^n D for n up to --max-n",
             _cmd_identity_determinant, *seed, "max-n")

    _command(sub, "scan-divisible", "grid-scan for divisible sequences", _cmd_scan_divisible,
             "u-range", "v-range", "a-range", "b-range", "bound")
    _command(sub, "gcd-identity", "gcd(F_m, F_n) = F_gcd(m,n) on a square grid",
             _cmd_gcd_identity, "a", "b", "max")

    sp = sub.add_parser("dioph", help="the equation 5x^2 + 4y^2 = z^2")
    dsub = sp.add_subparsers(dest="dioph_command", required=True, prog=sp.prog)
    _command(dsub, "families", "generate family solutions", _cmd_dioph_families, "k-max", "lm-max")
    _command(dsub, "oracle", "exhaustive solutions up to z-max", _cmd_dioph_oracle, "z-max")
    _command(dsub, "complete", "match the exhaustive list against the families",
             _cmd_dioph_complete, "z-max", "lm-max")

    sp = _command(sub, "bisquare", "two-square decomposition / seed-pair scan", _cmd_bisquare)
    sp.add_argument("--n", type=int, default=None)
    _command(sp.add_subparsers(dest="mode", prog=sp.prog), "scan",
             "seed pairs whose invariant D is a square", _cmd_bisquare, "u-max", "v-max", "a", "b")

    sp = _command(sub, "alt-bisquable", "alternating-index bisquare check", _cmd_alt_bisquable,
                  *seed, "k-max")
    sp.add_argument("--parity", choices=("even", "odd"), required=True)

    _command(sub, "tau-bounds", "divisor-count lower bounds for F_n",
             partial(_cmd_each_index, 2, _tau_bounds_fields), "a", "b", "n-max")
    _command(sub, "primitive", "primitive prime divisors of F_n",
             partial(_cmd_each_index, 1, _primitive_fields), "a", "b", "n-max")

    return parser


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _line(rec: dict) -> str:
    """rec as one line of JSON."""
    try:
        return _dumps(rec) + "\n"
    except ValueError:
        # an int past the interpreter's int -> str digit limit: lift the
        # limit for this record only
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return _dumps(rec) + "\n"
        finally:
            sys.set_int_max_str_digits(limit)


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    statuses = set()
    try:
        for rec in args.func(args):
            sys.stdout.write(_line(rec))
            statuses.add(rec["status"])
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (DomainError, HypothesisViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if VIOLATED in statuses:
        return 1
    return 3 if SKIPPED in statuses else 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
