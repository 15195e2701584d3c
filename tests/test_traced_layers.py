"""The benchmark's traced layers must name functions the package still has.

`perfbench/run.py --trace 1` wraps every `(module, function)` in its `LAYERS`
list; a layer that no longer exists breaks the traced run.  The list is read
with `ast`, so the benchmark script is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_layers():
    tree = ast.parse(RUN_PY.read_text(), filename=str(RUN_PY))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {RUN_PY}")


@pytest.mark.parametrize("module, function", traced_layers())
def test_traced_layer_exists(module, function):
    mod = importlib.import_module(f"phasefeas.{module}")
    assert callable(getattr(mod, function, None)), f"phasefeas.{module}.{function} is gone"
