"""The benchmark must find in the package every name it uses.

`perfbench/run.py --trace 1` wraps every `(module, function)` in its `LAYERS`
list; a layer that no longer exists breaks the traced run.  The workloads in
`perfbench/workloads.py` read `pf.<name>` from the `phasefeas` package and
call it with fixed positional counts and keyword names, and `solve-large`
drives `cli.main` with a fixed argv.  Both files are read with `ast`, so the
benchmark is neither imported nor run.  The traced `grid` run also checks
three call identities; `test_traced_grid_call_identities` checks them here
on a small grid, wrapping the same names in every namespace that binds them.
"""

import ast
import collections
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import phasefeas
from phasefeas.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN_PY = PERFBENCH / "run.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def traced_layers():
    for node in parse(RUN_PY).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {RUN_PY}")


def is_package_ref(node):
    """`pf` or `self.pf`: the workloads' handle on the `phasefeas` package."""
    if isinstance(node, ast.Name):
        return node.id == "pf"
    return (isinstance(node, ast.Attribute) and node.attr == "pf"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def workload_package_names():
    return sorted({node.attr for node in ast.walk(parse(WORKLOADS_PY))
                   if isinstance(node, ast.Attribute) and is_package_ref(node.value)})


def package_refs(node):
    """The package names `node` may stand for: `pf.a`, or `pf.a if ... else pf.b`."""
    branches = [node.body, node.orelse] if isinstance(node, ast.IfExp) else [node]
    if all(isinstance(b, ast.Attribute) and is_package_ref(b.value) for b in branches):
        return [b.attr for b in branches]
    return []


def workload_calls():
    """Every call of a package callable in the workloads: (name, line, positional count, keywords).

    A call through a local name assigned from `package_refs` counts once for
    each name it may stand for.
    """
    tree = parse(WORKLOADS_PY)
    aliases = {node.targets[0].id: package_refs(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.targets[0], ast.Name) and package_refs(node.value)}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            names = aliases.get(node.func.id, [])
        else:
            names = package_refs(node.func)
        for name in names:
            assert not any(isinstance(a, ast.Starred) for a in node.args), name
            assert all(k.arg is not None for k in node.keywords), name
            calls.append((name, node.lineno, len(node.args), [k.arg for k in node.keywords]))
    return calls


def solve_large_argv():
    """The argv `SolveLarge._solve` passes to `cli.main`; computed entries become "0"."""
    for cls in parse(WORKLOADS_PY).body:
        if isinstance(cls, ast.ClassDef) and cls.name == "SolveLarge":
            for node in ast.walk(cls):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "main" and node.args
                        and isinstance(node.args[0], ast.List)):
                    return [elt.value if isinstance(elt, ast.Constant) else "0"
                            for elt in node.args[0].elts]
    raise AssertionError(f"no cli.main([...]) call in SolveLarge of {WORKLOADS_PY}")


@pytest.mark.parametrize("module, function", traced_layers())
def test_traced_layer_exists(module, function):
    mod = importlib.import_module(f"phasefeas.{module}")
    assert callable(getattr(mod, function, None)), f"phasefeas.{module}.{function} is gone"


def test_workloads_use_package_names():
    assert workload_package_names(), f"no pf.<name> found in {WORKLOADS_PY}"


@pytest.mark.parametrize("name", workload_package_names())
def test_workload_package_name_exists(name):
    assert hasattr(phasefeas, name), f"phasefeas.{name} is gone"


def test_workloads_call_package_callables():
    assert {name for name, *_ in workload_calls()} >= {"solve_dr", "solve_pocs", "add_noise"}


@pytest.mark.parametrize("name, line, positional, keywords",
                         [pytest.param(*call, id=f"{call[0]}-line{call[1]}") for call in workload_calls()])
def test_workload_call_binds(name, line, positional, keywords):
    signature = inspect.signature(getattr(phasefeas, name))
    try:
        signature.bind(*range(positional), **dict.fromkeys(keywords))
    except TypeError as err:
        pytest.fail(f"{WORKLOADS_PY.name}:{line}: {name}{signature} rejects "
                    f"{positional} positional and keywords {keywords}: {err}")


def test_solve_large_argv_parses():
    argv = solve_large_argv()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"cli rejects the solve-large argv {argv}")
    assert args.command == "solve"


def test_traced_grid_call_identities(monkeypatch):
    # the traced grid divides by run_trial calls and requires project_psd =
    # solver iterations, eig = project_psd + leading_eigenvector and
    # np.linalg.eigh = eig + build_affine_projector
    calls = collections.Counter()
    iterations = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name.startswith("solvers.solve_"):
                iterations.append(out.points[-1].iteration)
            return out
        return wrapper

    names = [("harness", "run_trial"), ("projections", "project_psd"), ("linalg", "eig"),
             ("projections", "leading_eigenvector"), ("projections", "build_affine_projector"),
             ("solvers", "solve_dr"), ("solvers", "solve_pocs"), ("solvers", "solve_nesterov")]
    package = [mod for key, mod in sys.modules.items()
               if key == "phasefeas" or key.startswith("phasefeas.")]
    for module, function in names:
        original = getattr(importlib.import_module(f"phasefeas.{module}"), function)
        wrapper = counted(f"{module}.{function}", original)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    spec = phasefeas.GridSpec(n_values=[3, 5], m_values=[6, 10, 14, 20], trials=2,
                              solver=phasefeas.SolverConfig(max_iters=30, record_every=30))
    phasefeas.run_grid(spec, workers=1)
    assert calls["harness.run_trial"] >= 1
    assert calls["projections.project_psd"] == sum(iterations)
    assert calls["linalg.eig"] == (calls["projections.project_psd"]
                                   + calls["projections.leading_eigenvector"])
    assert calls["eigh"] == calls["linalg.eig"] + calls["projections.build_affine_projector"]
    # each group's trials share one Gram factorization; n = 3 (d = 6) is one
    # group, and n = 5 is cut at d = 15 into m = 6..14 and m = 20
    assert calls["projections.build_affine_projector"] == calls["harness.run_trial"] == 3
    # the groups of m >= d stop after one step, the other runs all 30
    assert sorted(iterations) == [1, 1, 30]
