"""Time one Nelder-Mead evaluation of the synthesis search in two source trees.

    python3 tools/synth_cost.py PARENT CHANGE [--runs 7]

Each tree gets one long-lived subprocess that imports that tree's
``src/acoufilt`` and ``perfbench/workloads.py`` and runs
``synthesize_ladder`` on the five specs of the ``synth`` workload (in the
order of seed 0) when told to.  Before timing, each subprocess runs every
spec once, so that imports and first-call costs are not timed.  The trees
take turns: in even rounds PARENT runs each spec first, in odd rounds
CHANGE does.  The table gives, per spec, the search's evaluation count and
the median over ``--runs`` rounds of the wall time per evaluation in
microseconds, per tree; the last row does the same for the five specs
together.  The evaluation counts and the costs of the designs found must
be the same in both trees and in every round, the costs bit for bit;
where they are not, or the specs differ, the run stops with exit
status 1.  Standard library only, besides each tree's packages.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def serve(tree: Path) -> None:
    """Answer each spec index read from stdin with one JSON line: the
    evaluations, the cost in hex and the wall seconds of synthesize_ladder
    on that spec."""
    import workloads
    from acoufilt import synthesis

    for module in (synthesis, workloads):
        if tree not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"{module.__name__} is not imported from {tree}")
    specs = workloads.Synth().inputs(0)
    print(json.dumps([f"{s.fc_target / 1e9:.4g} GHz, fbw {s.fbw_target:.3g}"
                      for s in specs]), flush=True)
    for line in sys.stdin:
        spec = specs[int(line)]
        t0 = time.perf_counter()
        result = synthesis.synthesize_ladder(spec)
        elapsed = time.perf_counter() - t0
        print(json.dumps([result.evaluations, result.cost.hex(), elapsed]), flush=True)


class Worker:
    """The subprocess serving one tree."""

    def __init__(self, tree: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])
        self.tree = tree
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve", str(tree)],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.specs = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.tree}: the worker exited {self.proc.wait()}")
        return json.loads(line)

    def run(self, index: int) -> tuple[int, str, float]:
        try:
            self.proc.stdin.write(f"{index}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise RuntimeError(f"{self.tree}: the worker exited {self.proc.wait()}") from None
        return tuple(self._read())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def measure(trees: tuple[Path, Path], runs: int) -> tuple[list[str], list[int], list]:
    """The spec labels, their evaluation counts, and per tree and spec the
    wall seconds of each round."""
    workers = []
    try:
        for tree in trees:
            workers.append(Worker(tree))
        labels = workers[0].specs
        if workers[1].specs != labels:
            raise RuntimeError(f"the trees run different specs: {labels} and "
                               f"{workers[1].specs}")
        # The untimed first pass gives the evaluation counts and costs.
        evals, costs = zip(*(workers[0].run(i)[:2] for i in range(len(labels))))

        def run(side: int, i: int) -> float:
            n, cost, seconds = workers[side].run(i)
            if n != evals[i]:
                raise RuntimeError(f"{labels[i]}: {trees[side]} took {n} evaluations, "
                                   f"{trees[0]} took {evals[i]}")
            if cost != costs[i]:
                raise RuntimeError(f"{labels[i]}: {trees[side]} found a design of cost "
                                   f"{cost}, {trees[0]} one of cost {costs[i]}")
            return seconds

        for i in range(len(labels)):
            run(1, i)
        times = [[[] for _ in labels] for _ in trees]
        for round_ in range(runs):
            order = (0, 1) if round_ % 2 == 0 else (1, 0)
            for i in range(len(labels)):
                for side in order:
                    times[side][i].append(run(side, i))
    finally:
        for worker in workers:
            worker.close()
    return labels, list(evals), times


def table(labels: list[str], evals: list[int], times: list) -> list[str]:
    lines = [f"{'spec':<24} {'evals':>6} {'parent_us':>10} {'change_us':>10} {'ratio':>6}"]
    rows = [(label, n, parent, change)
            for label, n, parent, change in zip(labels, evals, *times)]
    totals = [[sum(t) for t in zip(*side)] for side in times]
    rows.append(("all", sum(evals), *totals))
    for label, n, parent, change in rows:
        a, b = (1e6 * statistics.median(t) / n for t in (parent, change))
        lines.append(f"{label:<24} {n:6d} {a:10.1f} {b:10.1f} {b / a:6.2f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    parser.add_argument("--runs", type=int, default=7, help="rounds per tree, default 7")
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve)
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees, PARENT and CHANGE")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = (args.trees[0].resolve(), args.trees[1].resolve())
    try:
        labels, evals, times = measure(trees, args.runs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"median wall time per synthesis evaluation over {args.runs} rounds per tree, "
          f"Python {sys.version.split()[0]}")
    for line in table(labels, evals, times):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
