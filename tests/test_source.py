"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "acoufilt"


def _unused_imports(path):
    """(line, name) of each name an import binds and the module never uses;
    an import line that carries ``# noqa`` is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_no_unused_imports():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(path)]
    assert found == []


def test_fitting_loads_no_scipy_signal_and_mbvd_binds_no_scipy_name():
    # In a fresh interpreter, since this session may have imported anything.
    code = (
        "import sys, types\n"
        "import acoufilt.fitting, acoufilt.mbvd\n"
        "assert 'scipy.signal' not in sys.modules\n"
        "bound = [name for name, value in vars(acoufilt.mbvd).items()\n"
        "         if (value.__name__ if isinstance(value, types.ModuleType)\n"
        "             else getattr(value, '__module__', None) or '').startswith('scipy')]\n"
        "assert bound == [], bound\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
