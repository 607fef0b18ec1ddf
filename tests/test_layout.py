"""Modules of the package call one another only through public names."""

import ast
import importlib
import importlib.util
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqtracer"


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def private_imports():
    found = set()
    for module, tree in _trees():
        for node in ast.walk(tree):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("eqtracer")
            )
            if internal:
                found.update((module, a.name) for a in node.names if a.name.startswith("_"))
    return found


def private_parameters_and_keywords():
    """(module, line, name) of every underscore parameter or keyword argument."""
    found = set()
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                found.update(
                    (module, node.lineno, p.arg)
                    for p in params if p is not None and p.arg.startswith("_")
                )
            elif isinstance(node, ast.keyword) and (node.arg or "").startswith("_"):
                found.add((module, node.lineno, node.arg))
    return found


def test_modules_import_no_private_names_from_one_another():
    assert private_imports() == set()


def test_no_function_takes_or_passes_an_underscore_argument():
    # A private keyword is a hand-off that import checks do not see.
    assert private_parameters_and_keywords() == set()


def test_names_the_benchmark_tracer_binds_resolve():
    # perfbench/tracer.py looks these up by name when it installs its shims;
    # a deleted one breaks `perfbench/run.py --trace 1` but no other test.
    path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.INTERNAL.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"eqtracer.{layer}"), name, None))
    ]
    missing += [
        f"{layer}.{cls}.{method}"
        for layer, cls, method in tracer.METHODS
        if method not in vars(getattr(importlib.import_module(f"eqtracer.{layer}"), cls))
    ]
    assert missing == []



def test_runners_read_schedules_only_through_by_round():
    # `PerturbationSchedule.by_round` is the one reading of a schedule, so a
    # supply or budget event means the same level to every runner.
    calls = {
        (module, node.lineno)
        for module, tree in _trees()
        if module in ("tatonnement", "prd")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "rows"
    }
    assert calls == set()
