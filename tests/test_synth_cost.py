import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "synth_cost.py"
_spec = importlib.util.spec_from_file_location("synth_cost", SCRIPT)
synth_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(synth_cost)

STUB_WORKLOADS = """\
from types import SimpleNamespace


class Synth:
    def inputs(self, seed):
        return [SimpleNamespace(fc_target=23.5e9, fbw_target=0.16),
                SimpleNamespace(fc_target=10e9, fbw_target=0.1)]
"""


def _stub_tree(root: Path, evaluations: str, cost: str = "1.5") -> Path:
    """A tree whose synthesize_ladder takes the evaluations expression of
    spec and finds a design of the cost expression."""
    package = root / "src" / "acoufilt"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "synthesis.py").write_text(
        "import time\nfrom types import SimpleNamespace\n\n\n"
        "def synthesize_ladder(spec):\n"
        "    time.sleep(1e-3)\n"
        f"    return SimpleNamespace(evaluations={evaluations}, cost={cost})\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    return root


def test_table_has_a_median_per_spec_and_tree(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "parent", "int(spec.fc_target / 1e8)")
    change = _stub_tree(tmp_path / "change", "int(spec.fc_target / 1e8)")
    assert synth_cost.main([str(parent), str(change), "--runs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("median wall time per synthesis evaluation over 2 rounds")
    assert lines[1].split() == ["spec", "evals", "parent_us", "change_us", "ratio"]
    rows = [line.rsplit(maxsplit=4) for line in lines[2:-1]]
    assert [(row[0], row[1]) for row in rows] == [
        ("23.5 GHz, fbw 0.16", "235"), ("10 GHz, fbw 0.1", "100"), ("all", "335")]
    assert all(float(value) > 0 for row in rows for value in row[2:])
    words = lines[-1].split()
    assert words[:4] == ["peak", "RSS", "per", "worker"]
    assert words[5:] == ["parent", words[6], "MB,", "change", words[9], "MB"]
    assert float(words[6]) > 0 and float(words[9]) > 0


def test_differing_evaluation_counts_are_exit_1(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "parent", "7")
    change = _stub_tree(tmp_path / "change", "8 if spec.fc_target == 10e9 else 7")
    assert synth_cost.main([str(parent), str(change), "--runs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 10 GHz, fbw 0.1: ") and "took 8 evaluations" in err


def test_differing_costs_are_exit_1(tmp_path, capsys):
    # One ulp apart: the costs compare bit for bit.
    parent = _stub_tree(tmp_path / "parent", "7")
    change = _stub_tree(tmp_path / "change", "7",
                        "1.5 if spec.fc_target == 10e9 else 1.5000000000000002")
    assert synth_cost.main([str(parent), str(change), "--runs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 23.5 GHz, fbw 0.16: ")
    assert "cost 0x1.8000000000001p+0" in err and "cost 0x1.8000000000000p+0" in err


def test_the_worker_serves_the_five_synth_specs_of_a_tree():
    worker = synth_cost.Worker(ROOT)
    try:
        assert len(worker.specs) == 5 and "23.5 GHz, fbw 0.16" in worker.specs
    finally:
        worker.close()
