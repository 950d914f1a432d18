"""acoufilt benchmark: seeded workloads run against the public API and the CLI.

    python3 perfbench/run.py --workload {synth,fit,files} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Every op is one closed-loop call on one thread: the next starts
when the last returns.  The run makes whole passes over the workload's
inputs until ``--seconds`` have gone by, and checks every op's output.

``--trace 0`` reports the end-to-end metrics.  Op times cover the calls
into the program only, not the checks, and ``ops_per_s`` is ops attempted
over their summed time.  Each op is also timed in gauge units (see
gauge.py): its time over the time a fixed computation took around and
during it, which takes the host's changes of speed out.  Those figures,
``op_p50_gauge`` and ``op_mean_gauge``, are the ones the last line carries.

``--trace 1`` wraps the layers' functions (see spans.py) and reports
per-layer metrics per op, without the gauge, whose ticks would land in the
spans.  It then measures the tracing overhead on pairs of the same op run
back to back, once wrapped and once with the wrappers removed, so that
drift in the machine's speed cancels out of the ratio.

Set-up time is measured in fresh interpreters (probe.py), so the import
cost is real.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit.  ``failed`` counts ops that raised or
failed their check; ``correct`` is false when any op returned a wrong
output.  The full report, with the environment
and each op's time and quality numbers, goes to ``.perfbench/`` in the
checkout, and so do the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from gauge import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# Share of --seconds the traced run spends on pairs that measure its overhead.
OVERHEAD_SHARE = 0.3
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def probe_setup(workload: str, seed: int, n: int) -> list[dict]:
    """Time n fresh interpreters from start until the first op could start."""
    samples = []
    for _ in range(n):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited {code}")
        samples.append(dict(json.loads(line), setup_s=ready))
    return samples


def run_op(wl, item, index: int, workdir: str, tracer, speed=None) -> dict:
    """One op with its check; a SpeedGauge ``speed`` samples around it."""
    opdir = tempfile.mkdtemp(dir=workdir)
    try:
        prepared = wl.prepare(item, opdir)
        with speed.during() if speed else contextlib.nullcontext():
            if tracer:
                tracer.op, tracer.recording = index, True
            t0 = perf_counter()
            try:
                out = wl.op(prepared)
                error = None
            except Exception as exc:  # a failed op is counted, and the run goes on
                error = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer:
                tracer.recording = False
        dt = t1 - t0 - (speed.spent(t0, t1) if speed else 0.0)
        quality = {}
        wrong = False
        if error is None:
            try:
                quality = wl.check(item, prepared, out)
            except Exception as exc:  # includes CheckFailed
                error = f"check {type(exc).__name__}: {exc}"
                wrong = True
    finally:
        shutil.rmtree(opdir)
    return {"op": index, "t_s": dt, "t0": t0, "t1": t1, "ok": error is None,
            "error": error, "wrong_output": wrong, **quality}


def measure(wl, items: list, seconds: float, workdir: str, tracer=None):
    """Whole passes over items until seconds have elapsed; op records and wall time.

    An untraced run also times each op in gauge units.
    """
    records = []
    speed = None if tracer else SpeedGauge()
    start = perf_counter()
    passes = 0
    while passes < wl.min_passes or perf_counter() - start < seconds:
        for pos, item in enumerate(items):
            rec = run_op(wl, item, len(records), workdir, tracer, speed)
            records.append(dict(rec, item=pos))
        passes += 1
    wall = perf_counter() - start
    if speed:
        for r in records:
            r["gauge_s"] = speed.around(r["t0"], r["t1"])
            r["t_gauge"] = r["t_s"] / r["gauge_s"]
    return records, wall, passes


def summarize_ops(records: list[dict], has_target: bool) -> dict:
    """End-to-end figures over the ops of one run; ratios count every op attempted."""
    times = [r["t_s"] for r in records]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    gauged = all("t_gauge" in r for r in records)
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "ops_per_s": attempted / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p50_gauge": (statistics.median(r["t_gauge"] for r in records)
                         if gauged else None),
        # The mean op time over the mean gauge time around the ops.
        "op_mean_gauge": (sum(times) / sum(r["gauge_s"] for r in records)
                          if gauged else None),
        "op_p90_s": (statistics.quantiles(times, n=10)[-1]
                     if attempted >= P90_MIN_OPS else None),
        "target_met_ratio": (sum(bool(r.get("target_met")) for r in records) / attempted
                             if has_target else None),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy older than 1.25
        blas = None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_p90_s": "s",
             "op_p50_gauge": "gauge", "op_mean_gauge": "gauge",
             "fail_ratio": "ratio", "target_met_ratio": "ratio", "peak_rss_mb": "MB"}
# The end-to-end metrics every workload reports on its last line.  Wall
# times of ops spread by a quarter between runs on a shared host, so the
# last line times ops in gauge units; the wall-time figures are printed
# and kept in the report.  The last line carries failures as attempted and
# failed, since fail_ratio is 0 when nothing fails; op_p90_s and
# target_met_ratio exist on some workloads only.
RESULT_METRICS = ("setup_s", "op_p50_gauge", "op_mean_gauge", "peak_rss_mb")


def run(workload: str, seed: int, seconds: float, trace: bool,
        probes: int = SETUP_PROBES, batch: int | None = None) -> dict:
    """One benchmark run; returns the report, whose "result" is the last line.

    ``batch`` keeps only the first items of a pass, for smoke tests.
    """
    import spans
    import workloads

    setup = probe_setup(workload, seed, probes)
    wl = workloads.WORKLOADS[workload]()
    items = wl.inputs(seed)[:batch]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix="work-")
    tracer = spans.Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
            try:
                records, wall, passes = measure(wl, items, seconds, workdir, tracer)
            finally:
                tracer.uninstall()
            overhead = _overhead(wl, items, seconds, workdir)
        else:
            records, wall, passes = measure(wl, items, seconds, workdir)
    finally:
        shutil.rmtree(workdir)

    summary = summarize_ops(records, wl.has_target)
    report = {
        "workload": workload,
        "trace": int(trace),
        "environment": dict(environment(seed), inputs=wl.describe(items),
                            passes=passes, ops=len(records)),
        "setup_probes": setup,
        # Op times in a traced run include the tracing.
        "summary": summary,
        "ops": records,
        "failures": [r for r in records if not r["ok"]],
    }
    if tracer:
        n = len(records)
        metrics = spans.layer_metrics(tracer.spans, n)
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
        metrics["setup.inputs_s"] = (statistics.median(s["inputs_s"] for s in setup), "s")
        covered = spans.root_time(tracer.spans)
        metrics["trace.unwrapped_s"] = ((wall - covered) / n, "s")
        metrics["trace.overhead_ratio"] = (
            overhead["traced_s"] / overhead["untraced_s"], "ratio")
        report["overhead"] = overhead
        report["failures"] += overhead["failures"]
        report["accounting"] = {
            "traced_wall_s": wall,
            "layer_self_s": n * sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS),
            "unwrapped_s": wall - covered,
        }
        tracer.write(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl")
        names = list(metrics)
    else:
        summary["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: (summary[k], unit) for k, unit in E2E_UNITS.items()
                   if summary.get(k) is not None}
        names = RESULT_METRICS
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["result"] = {
        "correct": not any(r["wrong_output"] for r in report["failures"]),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: report["metrics"][k] for k in names},
    }
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def _overhead(wl, items, seconds: float, workdir: str) -> dict:
    """Traced over untraced time of the same ops, each pair run back to back.

    Pairs cover the first items for OVERHEAD_SHARE of ``seconds``; which
    side of a pair runs first alternates.
    """
    import spans

    tracer = spans.Tracer()
    traced = untraced = 0.0
    failures = []
    start = perf_counter()
    for index, item in enumerate(items):
        pair = {}
        for side in (("traced", "untraced") if index % 2 == 0 else ("untraced", "traced")):
            if side == "traced":
                tracer.install()
                try:
                    pair[side] = run_op(wl, item, index, workdir, tracer)
                finally:
                    tracer.uninstall()
            else:
                pair[side] = run_op(wl, item, index, workdir, None)
        traced += pair["traced"]["t_s"]
        untraced += pair["untraced"]["t_s"]
        failures += [dict(r, overhead=side) for side, r in pair.items() if not r["ok"]]
        if perf_counter() - start >= OVERHEAD_SHARE * seconds:
            break
    return {"pairs": index + 1, "traced_s": traced, "untraced_s": untraced,
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("synth", "fit", "files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "acoufilt" / "__init__.py").is_file():
        print(f"error: no acoufilt sources under {ROOT / 'src'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(json.dumps(report["environment"]))
    for name, entry in report["metrics"].items():
        print(f"{args.workload} {name} {entry['value']!r} {entry['unit']}")
    summary = report["summary"]
    print(f"{args.workload} attempted {summary['attempted']} failed {summary['failed']} "
          f"fail_ratio {summary['fail_ratio']!r}")
    for failure in report["failures"][:5]:
        print(f"failed op {failure['op']}: {failure['error']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
