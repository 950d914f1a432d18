import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "cold_start.py"
_spec = importlib.util.spec_from_file_location("cold_start", SCRIPT)
cold_start = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_start)


def _stub_tree(root: Path, body: str) -> Path:
    """A tree whose ``python -m acoufilt.cli`` runs body and imports nothing else."""
    package = root / "src" / "acoufilt"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(body)
    return root


def test_table_has_a_median_per_command_and_tree(tmp_path, capsys):
    # The stub keeps the smoke test short; the real tree writes the inputs
    # and runs every command once, so each command line must be valid.
    stub = _stub_tree(tmp_path / "stub", "")
    assert cold_start.main([str(stub), str(ROOT), "--runs", "1", "--points", "201"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("median wall time of 1 cold runs per tree, 201 points")
    assert lines[1].split() == ["command", "parent_s", "change_s", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["simulate", "metrics", "sweep", "fit", "synthesize"]
    assert all(float(value) > 0 for row in rows for value in row[1:])


def test_a_failing_command_is_exit_1(tmp_path, capsys):
    stub = _stub_tree(tmp_path / "stub", "import sys\nsys.exit('boom')\n")
    assert cold_start.main([str(stub), str(stub), "--runs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("exited 1: boom\n")
