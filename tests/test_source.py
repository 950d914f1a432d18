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
    _run_fresh(code, tmp_path)


def _run_fresh(code, cwd):
    """Run code in a fresh interpreter that imports this tree's src/; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=cwd)
    assert out.returncode == 0, out.stderr


# The set-up of a fresh interpreter that fits, through cli.main, the .s1p of
# a 20 GHz resonator that simulate writes.
_FIT = (
    "import sys\n"
    "import acoufilt.cli\n"
    "from acoufilt import io_formats, mbvd_from_targets\n"
    "with open('r.kv', 'w') as fh:\n"
    "    fh.write(io_formats.write_resonator(mbvd_from_targets(20e9, 0.42, 50e-15, 60.0)))\n"
    "assert acoufilt.cli.main(['simulate', '--design', 'r.kv', '--grid', '1e10:3e10:2001',\n"
    "                          '--out', 'r.s1p']) == 0\n"
    "def fit():\n"
    "    assert acoufilt.cli.main(['fit', '--input', 'r.s1p', '--out', 'f.kv']) == 0\n"
    "def optimize():\n"
    "    return sorted(m for m in sys.modules if m.startswith('scipy.optimize'))\n"
)


def test_fit_loads_only_the_minpack_extension_of_scipy_optimize(tmp_path):
    # The fit calls lmder in scipy.optimize._minpack without importing the
    # scipy.optimize package, which loads hundreds of modules; a later import
    # of the package takes the extension the fit loaded.
    code = _FIT + (
        "assert optimize() == [], optimize()\n"
        "fit()\n"
        "assert optimize() == ['scipy.optimize._minpack'], optimize()\n"
        "minpack = sys.modules['scipy.optimize._minpack']\n"
        "import scipy.optimize\n"
        "assert scipy.optimize._minpack_py._minpack is minpack\n"
        "assert acoufilt.fitting._minpack() is minpack\n"
        "fit()\n"
    )
    _run_fresh(code, tmp_path)


def test_fit_calls_the_minpack_of_scipy_optimize_imported_first(tmp_path):
    # The extension is never loaded twice: with scipy.optimize imported
    # first, the fit calls lmder in the module that package loaded.
    code = "import scipy.optimize\n" + _FIT + (
        "minpack = sys.modules['scipy.optimize._minpack']\n"
        "lmder = minpack._lmder\n"
        "calls = []\n"
        "def counting(*args):\n"
        "    calls.append(args)\n"
        "    return lmder(*args)\n"
        "minpack._lmder = counting\n"
        "fit()\n"
        "assert len(calls) == 1, calls\n"
        "assert acoufilt.fitting._minpack() is minpack\n"
    )
    _run_fresh(code, tmp_path)


def test_every_name_the_tracer_patches_exists():
    # A missing one breaks only a traced bench run.
    targets = _tracer_targets()
    missing = [f"acoufilt.{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(f"acoufilt.{module}"), attr)]
    assert targets
    assert missing == []
