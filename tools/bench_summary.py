"""Summarize paired benchmark runs of a parent and a change into one JSON file.

    python3 tools/bench_summary.py PARENT CHANGE --out BENCH_<n>.json \
        [--parent-rev REV] [--change-rev REV] [--benchmark BENCHMARK.json]

PARENT and CHANGE are checkouts whose ``.perfbench/`` holds the untraced
reports that ``perfbench/run.py --trace 0`` wrote (``<workload>-seed<N>-trace0.json``),
or directories holding those reports.  A pair is one workload and seed run
on both sides.  For each workload the summary gives, per side, the median
and quartiles of every end-to-end metric that the benchmark file gates, how
many pairs the change won, and the quality numbers next to the times:
synthesis evaluations, feasibility and metrics per distinct spec outcome,
fit targets met, and failed ops.  A revision is read with ``git rev-parse
HEAD`` in a checkout unless it is given.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = re.compile(r"(?P<workload>\w+)-seed(?P<seed>-?\d+)-trace0\.json")
# Fields of a report's environment block that differ from run to run or
# describe one workload's inputs.
PER_RUN = ("seed", "passes", "ops", "inputs")
# Quality fields of a synth op that identify its outcome.
SYNTH_OUTCOME = ("evaluations", "feasible", "il_db", "fc_hz", "fbw3", "oob_db")


def load_reports(directory: Path) -> dict[tuple[str, int], dict]:
    """Untraced reports by (workload, seed) in directory or its .perfbench/."""
    if (directory / ".perfbench").is_dir():
        directory = directory / ".perfbench"
    reports = {}
    for path in sorted(directory.iterdir()):
        match = REPORT.fullmatch(path.name)
        if match:
            with open(path) as fh:
                reports[match["workload"], int(match["seed"])] = json.load(fh)
    return reports


def revision(directory: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(directory), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def spread(values: list[float]) -> dict:
    """Median and quartiles; the quartiles of one value are that value."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def quality(workload: str, reports: list[dict]) -> dict:
    """Failed ops, and what the workload's ops achieved, over a side's runs."""
    ops = [op for report in reports for op in report["ops"]]
    out = {"runs": len(reports), "ops": len(ops),
           "failed_ops": sum(report["result"]["failed"] for report in reports),
           "all_correct": all(report["result"]["correct"] for report in reports)}
    if workload == "synth":
        outcomes: dict[tuple, int] = {}
        for op in ops:
            if op["ok"]:
                key = tuple(op.get(k) for k in SYNTH_OUTCOME)
                outcomes[key] = outcomes.get(key, 0) + 1
        out["specs"] = [dict(zip(SYNTH_OUTCOME, key), ops=n) for key, n in
                        sorted(outcomes.items(), key=lambda kv: (kv[0][3] or 0, kv[0][4] or 0))]
    elif workload == "fit":
        met = [sum(bool(op.get("target_met")) for op in report["ops"]) for report in reports]
        out["targets_met_per_run"] = met
        out["fits_per_run"] = [len(report["ops"]) for report in reports]
    return out


def summarize(parent: dict, change: dict, gated: list[dict]) -> dict:
    """Per workload: the paired seeds, its inputs, gated metrics per side,
    and quality."""
    workloads = {}
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        sides = {"parent": [parent[workload, s] for s in seeds],
                 "change": [change[workload, s] for s in seeds]}
        metrics = {}
        for gate in gated:
            name = gate["name"]
            values = {side: [r["result"]["metrics"][name]["value"] for r in runs]
                      for side, runs in sides.items()}
            sign = 1 if gate["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            entry = {side: spread(v) for side, v in values.items()}
            before, after = entry["parent"]["median"], entry["change"]["median"]
            entry.update(unit=gate["unit"], better=gate["better"], change_wins=wins,
                         pairs=len(seeds),
                         median_change_ratio=(after - before) / before if before else None,
                         parent_iqr=entry["parent"]["q3"] - entry["parent"]["q1"])
            metrics[name] = entry
        workloads[workload] = {
            "seeds": seeds,
            "inputs": sides["change"][0]["environment"].get("inputs"),
            "metrics": metrics,
            "quality": {side: quality(workload, runs) for side, runs in sides.items()},
        }
    return workloads


def environment(reports: dict) -> dict | None:
    for report in reports.values():
        return {k: v for k, v in report["environment"].items() if k not in PER_RUN}
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-rev")
    parser.add_argument("--change-rev")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    with open(args.benchmark) as fh:
        gated = json.load(fh)["end_to_end"]
    parent, change = load_reports(args.parent), load_reports(args.change)
    workloads = summarize(parent, change, gated)
    if not workloads:
        print("error: no workload and seed has a report on both sides", file=sys.stderr)
        return 1
    summary = {
        "parent": {"revision": args.parent_rev or revision(args.parent),
                   "environment": environment(parent)},
        "change": {"revision": args.change_rev or revision(args.change),
                   "environment": environment(change)},
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
