"""Time cold command-line runs of two source trees.

    python3 tools/cold_start.py PARENT CHANGE [--runs 7] [--points 4001]

Each command is run as ``python -m acoufilt.cli`` in a fresh interpreter
that imports the tree's ``src/``, so its time is what a user waits for
from the shell, imports included.  The trees take turns: in even rounds
PARENT runs first, in odd rounds CHANGE does.  The commands are
``simulate`` of the 23.5 GHz reference ladder with ``--metrics``,
``metrics`` of that ladder's ``.s2p`` with ``--svg``, ``sweep`` of the
shunt c0 over 9 values, ``fit`` of its series resonator's ``.s1p``, and
``synthesize`` of the criterion-1 spec (23.5 GHz, 16 % FBW) with
``--touchstone``, whose search runs 428 evaluations in about 0.05 s.
Every grid has ``--points`` points.  The inputs are written by CHANGE.
Every run keeps its bytecode under a temporary ``PYTHONPYCACHEPREFIX``
and writes it there even where ``PYTHONDONTWRITEBYTECODE`` is set, so the
trees get no ``__pycache__``; a first, untimed round fills it with every
module the commands import.  The table gives the median wall time of each
command per tree over the ``--runs`` timed rounds.  A
command that exits non-zero stops the run with exit status 1.  Standard
library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The 23.5 GHz reference ladder: shunt-series-shunt MBVD resonators with
# k2 = 0.46 and Q = 50, the shunt c0 matched to 50 ohm at fc.
LADDER = """\
[filter]
z0 = 50

[series]
rm = 3.3639154
lm = 1.1391144e-09
cm = 4.0265880e-14
c0 = 6.7725508e-14
rs = 0
ls = 0

[shunt]
rm = 2.1238972
lm = 9.0818474e-10
cm = 8.0531760e-14
c0 = 1.3545102e-13
rs = 0
ls = 0
"""
RESONATOR = LADDER[LADDER.index("[series]"):LADDER.index("[shunt]")]
# The criterion-1 spec: the paper's 23.5 GHz ladder at 16 % FBW.
SPEC = """\
[spec]
fc = 23.5e9
fbw = 0.16
z0 = 50
oob_min_db = 12
k2 = 0.46
q = 50
il_max_db = 1.6
"""


def commands(points: int) -> dict[str, list[str]]:
    """The timed command lines by name, run in the directory prepare() filled."""
    grid = ["--grid", f"1e9:4e10:{points}"]
    return {
        "simulate": ["simulate", "--design", "ladder.kv", *grid, "--out", "sim.s2p",
                     "--metrics", "sim.csv"],
        "metrics": ["metrics", "--input", "ladder.s2p", "--out", "metrics.csv",
                    "--svg", "metrics.svg"],
        "sweep": ["sweep", "--design", "ladder.kv", "--param", "shunt.c0",
                  "--range", "1.2e-13:1.6e-13:9", *grid, "--out", "sweep.csv"],
        "fit": ["fit", "--input", "resonator.s1p", "--out", "fit.kv",
                "--report", "fit.csv"],
        "synthesize": ["synthesize", "--spec", "spec.kv", *grid, "--out", "synth.kv",
                       "--touchstone", "synth.s2p"],
    }


def cli(tree: Path, argv: list[str], cwd: str, env: dict[str, str]) -> float:
    """Wall time of one fresh ``acoufilt`` run of tree in env; raises when it fails."""
    env = dict(env, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "acoufilt.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: acoufilt {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return elapsed


def prepare(tree: Path, points: int, cwd: str, env: dict[str, str]) -> None:
    """Write the design and spec files and, with tree's CLI, the .s2p and
    .s1p inputs."""
    Path(cwd, "ladder.kv").write_text(LADDER)
    Path(cwd, "resonator.kv").write_text(RESONATOR)
    Path(cwd, "spec.kv").write_text(SPEC)
    cli(tree, ["simulate", "--design", "ladder.kv", "--grid", f"1e9:4e10:{points}",
               "--out", "ladder.s2p"], cwd, env)
    cli(tree, ["simulate", "--design", "resonator.kv", "--grid", f"5e9:1e11:{points}",
               "--out", "resonator.s1p"], cwd, env)


def measure(trees: tuple[Path, Path], runs: int, points: int) -> dict[str, list[list[float]]]:
    """Per command, the wall times of each tree over runs alternating rounds."""
    argvs = commands(points)
    times = {name: [[], []] for name in argvs}
    with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryDirectory() as pycache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        prepare(trees[1], points, cwd, env)
        # Round -1 is not timed: it compiles what each command imports.
        for round_ in range(-1, runs):
            order = (0, 1) if round_ % 2 == 0 else (1, 0)
            for name, argv in argvs.items():
                for side in order:
                    elapsed = cli(trees[side], argv, cwd, env)
                    if round_ >= 0:
                        times[name][side].append(elapsed)
    return times


def table(times: dict[str, list[list[float]]]) -> list[str]:
    lines = [f"{'command':<10} {'parent_s':>9} {'change_s':>9} {'ratio':>6}"]
    for name, (parent, change) in times.items():
        a, b = statistics.median(parent), statistics.median(change)
        lines.append(f"{name:<10} {a:9.3f} {b:9.3f} {b / a:6.2f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=7, help="rounds per tree, default 7")
    parser.add_argument("--points", type=int, default=4001,
                        help="grid points of every command, default 4001")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.points < 2:
        parser.error("--runs must be at least 1 and --points at least 2")
    trees = (args.parent.resolve(), args.change.resolve())
    try:
        times = measure(trees, args.runs, args.points)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"median wall time of {args.runs} cold runs per tree, {args.points} points, "
          f"Python {sys.version.split()[0]}")
    for line in table(times):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
