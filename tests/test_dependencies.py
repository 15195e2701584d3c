"""numpy is the only runtime dependency: every absolute import in the
package, function bodies included, names the standard library or numpy.
And only a pooled grid loads the process pool's modules."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "phasefeas"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path):
    """(line, top-level module name) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules found under {SRC}"
    seen, outside = set(), []
    for path in files:
        for line, name in absolute_imports(path):
            seen.add(name)
            if name not in ALLOWED:
                outside.append(f"{path.name}:{line} imports {name}")
    assert "numpy" in seen
    assert not outside, "; ".join(outside)


POOL_MODULES = ("concurrent.futures.process", "multiprocessing")

IMPORT_SURFACE = f"""
import json, sys

def pool_modules():
    return [name for name in {POOL_MODULES!r} if name in sys.modules]

seen = []
import phasefeas.cli
from phasefeas.harness import GridSpec, run_grid
from phasefeas.solvers import SolverConfig
seen.append(pool_modules())
# one group per n, so two groups
spec = GridSpec(n_values=[2, 3], m_values=[6], trials=1, solver=SolverConfig(max_iters=5))
run_grid(spec, workers=1)
seen.append(pool_modules())
run_grid(spec, workers=2)
seen.append(pool_modules())
print(json.dumps(seen))
"""


def test_only_a_pooled_grid_loads_the_process_pool():
    # a fresh interpreter, so that no earlier import in this session counts
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", IMPORT_SURFACE], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    after_import, after_serial_grid, after_pooled_grid = json.loads(out.splitlines()[-1])
    assert after_import == []
    assert after_serial_grid == []
    assert after_pooled_grid == list(POOL_MODULES)
