"""Checks on the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "acoufilt"


def _tracer_targets():
    """(module, attribute) of each name perfbench/spans.py replaces to time
    the layers.  It imports only the standard library, so its source is
    executed here without importing perfbench or writing a cache next to it."""
    path = ROOT / "perfbench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(path.read_text(), str(path), "exec"), spans)
    return [(module, attr) for module, attr, _, _ in spans["TARGETS"]]


def _unexcused_imports(path, traced):
    """(line, name) of each name an import binds and the module never uses,
    and of each name imported on a ``# noqa`` line that the tracer does not
    replace in this module: a ``# noqa`` import is kept only for the tracer."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa" in lines[alias.lineno - 1]:
                    if (path.stem, name) not in traced:
                        found.append((alias.lineno, name))
                elif name not in used:
                    found.append((alias.lineno, name))
    return found


def test_no_unused_imports():
    traced = set(_tracer_targets())
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line, name in _unexcused_imports(path, traced)]
    assert found == []


def test_only_fit_loads_scipy(tmp_path):
    # In a fresh interpreter, since this session may have imported anything.
    # simulate, metrics, sweep and synthesize (of the criterion-1 spec) run
    # through cli.main; scipy.optimize takes about half a second to import,
    # which they must not pay.
    code = (
        "import sys, types\n"
        "import acoufilt, acoufilt.cli\n"
        "from acoufilt import DesignSpec, io_formats, mbvd_from_targets, shunt_series_shunt\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert loaded() == [], loaded()\n"
        "bound = [name for name, value in vars(acoufilt.mbvd).items()\n"
        "         if (value.__name__ if isinstance(value, types.ModuleType)\n"
        "             else getattr(value, '__module__', None) or '').startswith('scipy')]\n"
        "assert bound == [], bound\n"
        "design = shunt_series_shunt(mbvd_from_targets(21e9, 0.46, 6.8e-14, 50),\n"
        "                            mbvd_from_targets(23.5e9, 0.46, 3.4e-14, 50))\n"
        "with open('d.kv', 'w') as fh:\n"
        "    fh.write(io_formats.write_ladder_design(design))\n"
        "spec = DesignSpec(fc_target=23.5e9, fbw_target=0.16, z0=50.0, oob_min_db=12.0,\n"
        "                  k2=0.46, q=50.0, il_max_db=1.6)\n"
        "with open('spec.kv', 'w') as fh:\n"
        "    fh.write(io_formats.write_design_spec(spec))\n"
        "grid = ['--grid', '1e9:4e10:401']\n"
        "for argv in (['simulate', '--design', 'd.kv', *grid, '--out', 'd.s2p',\n"
        "              '--metrics', 'd.csv'],\n"
        "             ['metrics', '--input', 'd.s2p', '--out', 'm.csv', '--svg', 'd.svg'],\n"
        "             ['sweep', '--design', 'd.kv', '--param', 'shunt.c0',\n"
        "              '--range', '5e-14:8e-14:3', *grid, '--out', 's.csv'],\n"
        "             ['synthesize', '--spec', 'spec.kv', *grid, '--out', 'syn.kv']):\n"
        "    assert acoufilt.cli.main(argv) == 0, argv\n"
        "    assert loaded() == [], (argv[0], loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr


def test_every_name_the_tracer_patches_exists():
    # A missing one breaks only a traced bench run.
    targets = _tracer_targets()
    missing = [f"acoufilt.{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(f"acoufilt.{module}"), attr)]
    assert targets
    assert missing == []
