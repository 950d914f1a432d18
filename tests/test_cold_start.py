import importlib.util
import subprocess
import sys
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
    assert lines[0].startswith("median wall time and peak RSS of 1 cold runs per tree, "
                               "201 points")
    assert lines[1].split() == ["command", "parent_s", "change_s", "ratio", "parent_mb",
                                "change_mb"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["simulate", "metrics", "sweep", "fit", "synthesize"]
    assert all(float(value) > 0 for row in rows for value in row[1:])
    # The bytecode goes to a temporary prefix, not into the trees.
    assert not list((stub / "src").rglob("__pycache__"))


def test_a_failing_command_is_exit_1(tmp_path, capsys):
    stub = _stub_tree(tmp_path / "stub", "import sys\nsys.exit('boom')\n")
    assert cold_start.main([str(stub), str(stub), "--runs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("exited 1: boom\n")


def test_peak_rss_is_that_of_the_command(tmp_path):
    # A child's ru_maxrss counts its launcher's RSS at the fork too, so the
    # stub is launched from a fresh interpreter, and holds more than that.
    stub = _stub_tree(tmp_path / "stub", "held = b'x' * (64 * 2**20)\n")
    code = (f"import importlib.util, os\n"
            f"spec = importlib.util.spec_from_file_location('cold_start', {str(SCRIPT)!r})\n"
            f"cold_start = importlib.util.module_from_spec(spec)\n"
            f"spec.loader.exec_module(cold_start)\n"
            f"from pathlib import Path\n"
            f"print(cold_start.cli(Path({str(stub)!r}), [], '.', dict(os.environ))[1])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, check=True)
    assert 64 <= float(out.stdout) < 64 + 32
