"""Properties of the package source itself."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "genfib"


def test_no_assert_statements():
    # `python -O` strips assert statements, so no runtime check may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_fractions_import():
    # every quantity in the package is an integer, so none needs Fraction
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(alias.name == "fractions" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
    ]
    assert found == []


def test_no_len_of_str():
    # len(str(n)) raises past the interpreter's 4300-digit int -> str limit
    # and takes quadratic time below it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"
        and any(isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "str"
                for arg in node.args)
    ]
    assert found == []


def test_digit_cap_is_checked_only_by_the_evaluators():
    # the evaluators of core and quadfield refuse an over-cap index
    # themselves, so a call site that checks it again is redundant
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("core.py", "quadfield.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name)
             else node.func.attr if isinstance(node.func, ast.Attribute) else None) == "check_digit_cap"
    ]
    assert found == []


def test_split_is_called_once_per_factorization():
    # each composite goes through one chain of divisors, so the two
    # factorizations make one split each and no divisor splits again
    tree = ast.parse((SRC / "divisors.py").read_text())
    callers = sorted(
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_split"
    )
    assert callers == ["_factor_f", "_factorize"]


def test_factoring_cap_is_read_in_one_comparison():
    # DIGIT_LIMIT bounds one number, the primitive part of F_n that
    # _factor_f hands to _split, so its ceiling is read once, to compare
    reads, compares = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == "_DIGIT_CEILING" and isinstance(node.ctx, ast.Load):
                reads.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Compare) and any(isinstance(x, ast.Name) and x.id == "_DIGIT_CEILING"
                                                     for x in (node.left, *node.comparators)):
                compares.append(f"{path.name}:{node.lineno}")
    assert len(reads) == 1 and compares == reads


def test_import_builds_no_lazy_tables():
    # the p-1/p+1 tables and the CLI parser are built on first use, so
    # importing the package stays as cheap as it was before they existed
    code = (
        "import genfib\n"
        "from genfib import cli, divisors\n"
        "lazy = (divisors._stage_tables, cli._build_parser)\n"
        "print([f.cache_info().currsize for f in lazy])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0]\n"


def test_all_names_resolve():
    # a name left in __all__ after its code is gone breaks `from genfib import *`
    import genfib

    missing = [name for name in genfib.__all__ if not hasattr(genfib, name)]
    assert missing == []


def test_every_module_constant_is_read():
    # an upper-case module constant that no code reads is a knob left behind
    # by code that is gone
    defined = {}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    defined[target.id] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined
    assert sorted(loc for name, loc in defined.items() if name not in read) == []


def test_every_private_function_is_read():
    # a private function or class that no package code reads is left behind
    # by code that is gone; tests may keep such code as an oracle, but not
    # the package
    defined = {}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined
    assert sorted(loc for name, loc in defined.items() if name not in read) == []


def test_every_error_class_is_raised():
    # an exception class that no package code raises is left behind by the
    # code that raised it; callers would catch an error that never comes
    defined = {
        node.name: f"errors.py:{node.lineno}"
        for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined
    assert sorted(loc for name, loc in defined.items() if name not in raised) == []


def test_every_error_class_has_an_exit_code():
    # cli.run maps DomainError and HypothesisViolationError to exit 2 and
    # ResourceLimitError to exit 3; any other error class would escape it
    from genfib import errors

    handled = (errors.DomainError, errors.HypothesisViolationError, errors.ResourceLimitError)
    defined = [cls for _, cls in inspect.getmembers(errors, inspect.isclass) if cls.__module__ == errors.__name__]
    assert defined
    assert [cls.__name__ for cls in defined if not issubclass(cls, handled)] == []


def test_benchmark_tracer_wraps_its_names(capsys):
    # perfbench/tracer.py wraps package functions by name and counts a rank
    # that does not exist at the `limit` default of rank_of_apparition; a
    # renamed name or a dropped default must fail here, not only as a
    # benchmark round
    import genfib
    from genfib import cli

    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer()
    traced.install()
    try:
        codes = [cli.run(["dioph", "oracle", "--z-max=30"]),
                 cli.run(["bisquare", "--n=2000000827000085491"])]
        # 3 | b but not a: no F_n is divisible by 3
        assert genfib.rank_of_apparition(1, 3, 3) is None
    finally:
        traced.uninstall()
    traced.check_clean()
    capsys.readouterr()
    assert codes == [0, 0]
    assert traced.calls["cli.run"] == 2
    assert traced.calls["diophantine.brute_force_solutions"] == 1
    assert traced.calls["divisors.factorize"] >= 1
    assert traced.calls["diophantine.is_bisquare"] == 1
    assert traced.snapshot(0, 0)["divisors.rank_of_apparition.steps"] > 0
