"""Smoke test of the benchmark: every workload on a one-item batch.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import gauge  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from acoufilt.errors import AcoufiltError  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    """An empty directory inside the checkout, removed afterwards."""
    run.OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.OUT_DIR, prefix="test-"))
    yield path
    shutil.rmtree(path)


END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_p90_s": "s",
              "op_p50_gauge": "gauge", "op_mean_gauge": "gauge",
              "fail_ratio": "ratio", "target_met_ratio": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{name}.{kind}": unit
       for name in ("curves.validate_grid", "mbvd.resonator_admittance",
                    "network.element_abcd", "network.cascade", "network.abcd_to_s",
                    "network.build_ladder_response", "metrics.passband_metrics")
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{name}.self_s": "s"
       for name in ("mbvd.summarize", "fitting.fit_mbvd", "fitting.initial_guess",
                    "synthesis.synthesize_ladder", "io_formats.write_touchstone",
                    "io_formats.read_touchstone", "svgplot.s21_magnitude_svg")},
    "network.points_per_s": "1/s",
    "fitting.iterations": "count", "fitting.residual_evals": "count",
    "fitting.step_accept_ratio": "ratio",
    "synthesis.evals": "count", "synthesis.capped_ratio": "ratio",
    "synthesis.scored_ratio": "ratio",
    "io_formats.write_mb_per_s": "MB/s", "io_formats.read_mb_per_s": "MB/s",
    "cli.simulate.s": "s", "cli.metrics.s": "s", "cli.fit.s": "s", "cli.sweep.s": "s",
    "cli.self_s": "s", "setup.import_s": "s", "setup.inputs_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unwrapped_s": "s",
}


@pytest.mark.parametrize("workload", ["synth", "fit", "files"])
def test_untraced_run_reports_end_to_end_metrics(workload):
    report = run.run(workload, seed=3, seconds=0, trace=False, probes=1, batch=1)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in END_TO_END.items():
        if name == "op_p90_s" and result["attempted"] < run.P90_MIN_OPS:
            assert name not in report["metrics"]
        elif name == "target_met_ratio" and workload == "files":
            assert name not in report["metrics"]
        else:
            assert report["metrics"][name]["unit"] == unit
            assert math.isfinite(report["metrics"][name]["value"])
    assert report["summary"]["attempted"] == result["attempted"] == len(report["ops"])


@pytest.mark.parametrize("workload", ["synth", "fit", "files"])
def test_traced_run_reports_per_layer_metrics(workload):
    report = run.run(workload, seed=3, seconds=0, trace=True, probes=1, batch=1)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in PER_LAYER.items():
        assert declared[name] == unit
    # Self times of the layers plus the time outside every wrapped call
    # make up the traced wall time.
    acc = report["accounting"]
    assert acc["layer_self_s"] + acc["unwrapped_s"] == pytest.approx(acc["traced_wall_s"])
    assert acc["layer_self_s"] > 0
    assert report["overhead"]["pairs"] >= 1 and report["overhead"]["untraced_s"] > 0
    metrics = result["metrics"]
    if workload == "fit":
        assert 0 < metrics["fitting.step_accept_ratio"]["value"] <= 1
        assert metrics["fitting.residual_evals"]["value"] > 12 * metrics[
            "fitting.iterations"]["value"]
    if workload == "synth":
        assert metrics["synthesis.evals"]["value"] > 0
        assert metrics["network.build_ladder_response.calls"]["value"] > 0


@pytest.mark.xfail(strict=True, raises=AcoufiltError,
                   reason="initial_guess takes a noise dip for the anti-resonance")
def test_known_failing_noisy_fit():
    """A noisy fit that raises; the fit workload draws its batch from a seed without one."""
    seed, n, index = workloads.KNOWN_FAILING_FIT
    item = workloads.draw_fit_items(seed, n)[index]
    wl = workloads.Fit()
    wl.check(item, item.curve, wl.op(item.curve))


class _HalfBroken:
    """Items are numbers; odd ones raise, and 2 returns a wrong output."""

    min_passes = 1

    def prepare(self, item, opdir):
        return item

    def op(self, item):
        if item % 2:
            raise ValueError("odd")
        return item

    def check(self, item, prepared, out):
        if item == 2:
            raise AssertionError("wrong output")
        return {"target_met": True}


def test_fail_ratio_counts_every_op_attempted(scratch):
    records, _, _ = run.measure(_HalfBroken(), [0, 1, 2, 3, 4], 0, str(scratch))
    summary = run.summarize_ops(records, has_target=True)
    assert summary["attempted"] == 5
    assert summary["failed"] == 3
    assert summary["fail_ratio"] == 3 / 5
    assert summary["target_met_ratio"] == 2 / 5


def test_speed_gauge_takes_its_ticks_out_of_the_op_time():
    speed = gauge.SpeedGauge()
    with speed.during():
        t0 = perf_counter()
        while perf_counter() - t0 < 3.5 * gauge.INTERVAL_S:
            pass
        t1 = perf_counter()
    # One sample before, one per tick and one after.
    ticks = speed.samples[1:-1]
    assert len(ticks) >= 3 and all(t0 <= start < end <= t1 for start, end in ticks)
    assert speed.spent(t0, t1) == pytest.approx(sum(end - start for start, end in ticks))
    assert speed.around(t0, t1) == pytest.approx(
        statistics.fmean(end - start for start, end in speed.samples))


def test_exits_nonzero_without_sources(scratch):
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", scratch)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
