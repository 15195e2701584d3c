"""numpy is the only runtime dependency: every absolute import in the
package, function bodies included, names the standard library or numpy."""

import ast
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
