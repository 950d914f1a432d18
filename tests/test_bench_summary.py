import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
GATED = ("setup_s", "op_p50_gauge", "op_mean_gauge", "peak_rss_mb")


def _report(workload, seed, gauge, ops):
    metrics = {name: {"value": gauge if "gauge" in name else 1.0, "unit": "u"}
               for name in GATED}
    return {"environment": {"seed": seed, "python": "3.x", "passes": 2, "ops": len(ops),
                            "inputs": {"workload": workload}},
            "ops": ops,
            "result": {"correct": True, "attempted": len(ops),
                       "failed": sum(not op["ok"] for op in ops), "metrics": metrics}}


def _write(directory, workload, seed, gauge, ops):
    directory.mkdir(exist_ok=True)
    path = directory / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(_report(workload, seed, gauge, ops)))


def _synth_op(evaluations, il_db, ok=True):
    return {"ok": ok, "evaluations": evaluations, "feasible": True, "il_db": il_db,
            "fc_hz": 23.5e9, "fbw3": 0.16, "oob_db": 21.3}


def test_summary_of_paired_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after in ((1, 190.0, 120.0), (2, 180.0, 185.0), (3, 200.0, 130.0)):
        _write(parent, "synth", seed, before, [_synth_op(1439, 2.84174847)] * 2)
        _write(change, "synth", seed, after, [_synth_op(1450, 2.84174808)] * 2)
    _write(parent, "fit", 7, 10.0, [{"ok": True, "target_met": True},
                                    {"ok": False, "target_met": False}])
    _write(change, "fit", 7, 9.0, [{"ok": True, "target_met": True}] * 2)
    _write(change, "files", 9, 100.0, [{"ok": True}])  # no parent run: not a pair
    (parent / "synth-seed1-trace1.json").write_text("{}")  # traced: not read
    out = tmp_path / "BENCH_1.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change),
                           "--out", str(out), "--parent-rev", "aaa", "--change-rev", "bbb"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())

    assert summary["parent"]["revision"] == "aaa"
    assert summary["change"]["environment"] == {"python": "3.x"}
    assert set(summary["workloads"]) == {"synth", "fit"}
    synth = summary["workloads"]["synth"]
    assert synth["seeds"] == [1, 2, 3]
    assert synth["inputs"] == {"workload": "synth"}
    mean = synth["metrics"]["op_mean_gauge"]
    assert mean["parent"] == {"median": 190.0, "q1": 185.0, "q3": 195.0}
    assert mean["change"]["median"] == 130.0
    assert (mean["change_wins"], mean["pairs"]) == (2, 3)
    assert mean["median_change_ratio"] == pytest.approx(-60.0 / 190.0)
    assert mean["parent_iqr"] == 10.0
    assert synth["metrics"]["setup_s"]["change_wins"] == 0  # ties are not wins
    outcome = dict(_synth_op(1450, 2.84174808), ops=6)
    del outcome["ok"]
    assert synth["quality"]["change"]["specs"] == [outcome]

    fit = summary["workloads"]["fit"]["quality"]
    assert fit["parent"]["failed_ops"] == 1 and fit["change"]["failed_ops"] == 0
    assert fit["parent"]["targets_met_per_run"] == [1]
    assert fit["change"]["targets_met_per_run"] == [2]


def test_no_pairs_is_exit_1(tmp_path):
    _write(tmp_path / "parent", "synth", 1, 190.0, [])
    _write(tmp_path / "change", "synth", 2, 120.0, [])
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "parent"),
                           str(tmp_path / "change"), "--out", str(tmp_path / "b.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert not (tmp_path / "b.json").exists()
