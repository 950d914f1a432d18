"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload is a class with two attributes, ``min_passes`` (passes a
run makes at least) and ``has_target`` (whether its ops have a quality
target), and these methods:

- ``inputs(seed)`` returns the list of items one pass of the workload runs,
  drawn from a fixed generator seed and put in an order drawn from ``seed``;
- ``describe(items)`` gives their sizes for the report;
- ``prepare(item, opdir)`` does untimed per-op set-up in an empty
  directory of the op's own and returns the argument of ``op``;
- ``op(prepared)`` is the timed call into the program;
- ``check(item, prepared, out)`` verifies the output, raises ``CheckFailed``
  when it is wrong, and returns the op's quality numbers.  The key
  ``target_met`` is True or False where the workload has a target.

The program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from acoufilt import cli, fitting, io_formats, synthesis
from acoufilt.curves import ComplexCurve
from acoufilt.errors import AcoufiltError
from acoufilt.mbvd import K2_MAX, MbvdParams, mbvd_from_targets, resonator_admittance
from acoufilt.metrics import passband_metrics
from acoufilt.network import LadderDesign, build_ladder_response, shunt_series_shunt


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


_PARAM_NAMES = ("rm", "lm", "cm", "c0", "rs", "ls")


# ---------------------------------------------------------------------------
# synth: one synthesize_ladder call per op

# Criterion 1 (the paper's 23.5 GHz, 16 % ladder), criterion 2 (wide FBW
# with fitted losses and parasitics) and the 10 GHz spec of criterion 8.
CRITERION_SPECS = (
    synthesis.DesignSpec(fc_target=23.5e9, fbw_target=0.16, z0=50.0, oob_min_db=12.0,
                         k2=0.46, q=50.0, il_max_db=1.6),
    synthesis.DesignSpec(fc_target=23.5e9, fbw_target=0.17, z0=50.0, oob_min_db=10.0,
                         k2=0.42, q=40.0, rs=0.5, ls=30e-12, il_max_db=3.0),
    synthesis.DesignSpec(10e9, 0.10, 50.0, 10.0, 0.42, 200.0, 0.0, 0.0, 1.0),
)

# The Nelder-Mead search either stops near 600 evaluations or runs to its
# 2000-evaluation cap, and which one happens flips with any change of the
# spec, even an exact rescaling of frequency or impedance.  A batch drawn
# afresh from each seed would make the cost of a run a coin toss per spec,
# so the drawn specs are frozen: they come from this fixed generator seed,
# and --seed only sets the order in which a pass solves the batch.
SYNTH_DRAW_SEED = 0
SYNTH_DRAWS = 2
# The scoring grid synthesize_ladder evaluates every candidate on.
SYNTH_GRID_SPAN = (0.5, 1.8)
SYNTH_GRID_POINTS = 1601


def draw_specs(rng: np.random.Generator, n: int) -> list[synthesis.DesignSpec]:
    """Specs from the ranges fc 10-40 GHz, FBW 8-18 %, k2 0.38-0.5, Q 40-200."""
    return [
        synthesis.DesignSpec(
            fc_target=rng.uniform(10e9, 40e9), fbw_target=rng.uniform(0.08, 0.18),
            z0=50.0, oob_min_db=12.0, k2=rng.uniform(0.38, 0.5), q=rng.uniform(40.0, 200.0),
            rs=rng.uniform(0.0, 0.5), ls=rng.uniform(0.0, 20e-12), il_max_db=3.0)
        for _ in range(n)
    ]


class Synth:
    # A pass takes about 20 s; two of them give every run the same ten ops,
    # whether or not the host was fast enough to start a second one in time.
    min_passes = 2
    has_target = True

    def inputs(self, seed: int) -> list[synthesis.DesignSpec]:
        specs = list(CRITERION_SPECS)
        specs += draw_specs(np.random.default_rng(SYNTH_DRAW_SEED), SYNTH_DRAWS)
        order = np.random.default_rng(seed).permutation(len(specs))
        return [specs[i] for i in order]

    def describe(self, items) -> dict:
        return {"specs": len(items), "grid_points": SYNTH_GRID_POINTS}

    def prepare(self, spec, opdir):
        return spec

    def op(self, spec):
        return synthesis.synthesize_ladder(spec)

    def check(self, spec, prepared, result) -> dict:
        grid = np.linspace(SYNTH_GRID_SPAN[0] * spec.fc_target,
                           SYNTH_GRID_SPAN[1] * spec.fc_target, SYNTH_GRID_POINTS)
        s21 = build_ladder_response(result.design, grid).s21()
        try:
            again = passband_metrics(s21)
        except AcoufiltError:
            again = None
        if again != result.metrics:
            raise CheckFailed("returned metrics differ from passband_metrics of the design")
        feasible = bool(result.feasible)
        quality = {"evaluations": result.evaluations, "feasible": feasible,
                   "target_met": feasible}
        m = result.metrics
        if m is not None:
            quality.update(il_db=m.il_db, fc_hz=m.fc, fbw3=m.fbw3,
                           oob_db=m.oob_rejection_db)
        return quality


# ---------------------------------------------------------------------------
# fit: initial_guess then fit_mbvd per op

FIT_GRID = (5e9, 100e9, 2001)
FIT_BATCH = 256
FIT_NOISE = 0.01
# Criterion-4 worst relative parameter error tolerances.
FIT_TOL_CLEAN = 1e-3
FIT_TOL_NOISY = 2e-2
CRITERION_4_TRUTH = dict(fs=20e9, k2=0.42, c0=50e-15, q=40.0, rs=0.5, ls=100e-12)
CRITERION_4_NOISE_SEED = 42
# Some fits of noisy sweeps fail: initial_guess can take a noise dip just
# above a resonance for the anti-resonance, the fit then diverges and
# ``summarize`` raises SearchError.  That happens to about one noisy sweep
# in eight hundred drawn here (KNOWN_FAILING_FIT is one of them), so a
# batch drawn afresh from each seed would fail an op on some seeds and not
# on others.  The drawn part of the batch is therefore frozen, as in synth:
# it comes from this fixed generator seed, on which every op succeeds, and
# --seed only sets the order in which a pass fits the batch.
FIT_DRAW_SEED = 0
# A sweep whose fit raises: draw_fit_items(seed, n)[index].
KNOWN_FAILING_FIT = (105, 254, 155)


def draw_truths(rng: np.random.Generator, n: int) -> list[MbvdParams]:
    """MBVD truths around the criterion-4 resonator."""
    return [
        mbvd_from_targets(rng.uniform(15e9, 25e9), rng.uniform(0.38, 0.46),
                          rng.uniform(35e-15, 65e-15), rng.uniform(30.0, 100.0),
                          rs=rng.uniform(0.2, 1.0), ls=rng.uniform(50e-12, 150e-12))
        for _ in range(n)
    ]


def _noisy(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = values.size
    return values * (1.0 + FIT_NOISE * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


@dataclass(frozen=True)
class FitItem:
    truth: MbvdParams
    curve: ComplexCurve
    noisy: bool


def draw_fit_items(seed: int, n: int) -> list[FitItem]:
    """n sweeps of truths drawn from seed; every second one has 1 % noise."""
    grid = np.geomspace(*FIT_GRID)
    rng = np.random.default_rng(seed)
    items = []
    for i, truth in enumerate(draw_truths(rng, n)):
        y = resonator_admittance(truth, grid).values
        noisy = i % 2 == 1
        items.append(FitItem(truth, ComplexCurve(grid, _noisy(y, rng) if noisy else y), noisy))
    return items


class Fit:
    min_passes = 1
    has_target = True

    def inputs(self, seed: int) -> list[FitItem]:
        grid = np.geomspace(*FIT_GRID)
        crit4 = mbvd_from_targets(**CRITERION_4_TRUTH)
        clean = resonator_admittance(crit4, grid).values
        items = [
            FitItem(crit4, ComplexCurve(grid, clean), False),
            FitItem(crit4, ComplexCurve(grid, _noisy(clean, np.random.default_rng(
                CRITERION_4_NOISE_SEED))), True),
        ]
        items += draw_fit_items(FIT_DRAW_SEED, FIT_BATCH - 2)
        order = np.random.default_rng(seed).permutation(len(items))
        return [items[i] for i in order]

    def describe(self, items) -> dict:
        return {"fits": len(items), "grid_points": FIT_GRID[2],
                "noisy": sum(it.noisy for it in items)}

    def prepare(self, item, opdir):
        return item.curve

    def op(self, curve):
        return fitting.fit_mbvd(curve, fitting.initial_guess(curve))

    def check(self, item, curve, result) -> dict:
        p = result.params
        values = [getattr(p, k) for k in _PARAM_NAMES + ("r0",)]
        if not all(math.isfinite(v) for v in values + [result.residual_norm]):
            raise CheckFailed("non-finite parameters or residual norm")
        d = resonator_admittance(p, curve.freq_hz).values - curve.values
        w = 1.0 / np.maximum(np.abs(curve.values), 1e-300)
        r = np.concatenate([d.real * w, d.imag * w])
        norm = math.sqrt(float(r @ r))
        if not math.isclose(norm, result.residual_norm, rel_tol=1e-9, abs_tol=1e-300):
            raise CheckFailed(f"residual_norm {result.residual_norm!r} but the "
                              f"returned params give {norm!r}")
        err = max(abs(getattr(p, k) - getattr(item.truth, k)) / getattr(item.truth, k)
                  for k in _PARAM_NAMES)
        tol = FIT_TOL_NOISY if item.noisy else FIT_TOL_CLEAN
        return {"iterations": result.iterations, "converged": bool(result.converged),
                "noisy": item.noisy, "worst_rel_err": err,
                "target_met": bool(result.converged and err <= tol)}


# ---------------------------------------------------------------------------
# files: one CLI design session per op

FILES_GRID_SIZES = (401, 4001, 16001)
FILES_SESSIONS = 12
# How long a session takes depends on its design and resonator (the fit's
# iterations, above all), so sessions drawn afresh from each seed would
# make runs of different seeds differ by a tenth.  As in synth and fit, the
# sessions are frozen and --seed only sets their order.
FILES_DRAW_SEED = 0
FILES_ONE_PORT_POINTS = 2001
FILES_SWEEP_POINTS = 11


@dataclass(frozen=True)
class Session:
    index: int
    design: LadderDesign
    grid: tuple[float, float, int]
    resonator: MbvdParams
    one_port_grid: tuple[float, float, int]
    sweep_range: tuple[float, float, int]


def _spec(start_stop_count: tuple[float, float, int]) -> str:
    """A CLI start:stop:count argument that parses back to the same floats."""
    start, stop, count = start_stop_count
    return f"{start!r}:{stop!r}:{count}"


def _ladder(fc: float, k2: float, q: float) -> LadderDesign:
    """The synthesis seed placement: shunt anti-resonance and series resonance on fc."""
    c0_sh = 1.0 / (2.0 * math.pi * fc * 50.0)
    shunt = mbvd_from_targets(fc * math.sqrt(1.0 - k2 / K2_MAX), k2, c0_sh, q)
    series = mbvd_from_targets(fc, k2, 0.5 * c0_sh, q)
    return shunt_series_shunt(shunt, series, z0=50.0)


class Files:
    # The determinism check compares each session with its first pass.
    min_passes = 2
    has_target = False

    def __init__(self):
        self.digests: dict[int, dict[str, str]] = {}

    def inputs(self, seed: int) -> list[Session]:
        rng = np.random.default_rng(FILES_DRAW_SEED)
        items = []
        for i in range(FILES_SESSIONS):
            fc = rng.uniform(10e9, 40e9)
            design = _ladder(fc, rng.uniform(0.38, 0.5), rng.uniform(40.0, 200.0))
            (res,) = draw_truths(rng, 1)
            fs = 1.0 / (2.0 * math.pi * math.sqrt(res.lm * res.cm))
            c0 = design.elements[0][1].c0
            items.append(Session(
                index=i, design=design,
                grid=(0.05 * fc, 1.7 * fc, FILES_GRID_SIZES[i % len(FILES_GRID_SIZES)]),
                resonator=res,
                one_port_grid=(0.25 * fs, 5.0 * fs, FILES_ONE_PORT_POINTS),
                sweep_range=(0.7 * c0, 1.3 * c0, FILES_SWEEP_POINTS)))
        order = np.random.default_rng(seed).permutation(len(items))
        return [items[i] for i in order]

    def describe(self, items) -> dict:
        return {"sessions": len(items),
                "grid_points": [s.grid[2] for s in items],
                "one_port_points": FILES_ONE_PORT_POINTS, "sweep_values": FILES_SWEEP_POINTS}

    def prepare(self, session: Session, opdir: str) -> dict:
        p = {name: os.path.join(opdir, name) for name in (
            "design.kv", "res.kv", "filter.s2p", "metrics.csv", "plot.svg",
            "res.s1p", "fit.kv", "fit.csv", "sweep.csv")}
        with open(p["design.kv"], "w") as fh:
            fh.write(io_formats.write_ladder_design(session.design))
        with open(p["res.kv"], "w") as fh:
            fh.write("[filter]\nz0 = 50\n\n" + io_formats.write_resonator(session.resonator))
        return {"paths": p, "commands": [
            ["simulate", "--design", p["design.kv"], "--grid", _spec(session.grid),
             "--out", p["filter.s2p"]],
            ["metrics", "--input", p["filter.s2p"], "--out", p["metrics.csv"],
             "--svg", p["plot.svg"]],
            ["simulate", "--design", p["res.kv"], "--grid", _spec(session.one_port_grid),
             "--out", p["res.s1p"]],
            ["fit", "--input", p["res.s1p"], "--out", p["fit.kv"], "--report", p["fit.csv"]],
            ["sweep", "--design", p["design.kv"], "--param", "shunt.c0",
             "--range", _spec(session.sweep_range), "--grid", _spec(session.grid),
             "--out", p["sweep.csv"]],
        ]}

    def op(self, prepared: dict) -> list[int]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in prepared["commands"]:
                codes.append(cli.main(argv))
        return codes

    def check(self, session: Session, prepared: dict, codes: list[int]) -> dict:
        for argv, code in zip(prepared["commands"], codes):
            if code != 0:
                raise CheckFailed(f"{argv[0]} exited {code}")
        p = prepared["paths"]
        block = build_ladder_response(session.design, np.linspace(*session.grid))
        cols = np.loadtxt(p["filter.s2p"], comments=("!", "#"))
        s = block.s
        expected = np.column_stack([block.freq_hz] + [
            part for v in (s[:, 0, 0], s[:, 1, 0], s[:, 0, 1], s[:, 1, 1])
            for part in (v.real, v.imag)])
        if cols.shape != expected.shape:
            raise CheckFailed(f".s2p has shape {cols.shape}, expected {expected.shape}")
        if not np.allclose(cols, expected, rtol=1e-12, atol=1e-12):
            raise CheckFailed(".s2p read back differs from build_ladder_response")
        with open(p["metrics.csv"]) as fh:
            if fh.read() != io_formats.write_metrics_csv(passband_metrics(block.s21())):
                raise CheckFailed("metrics CSV differs from the library's passband_metrics")
        digests = {}
        for name in ("filter.s2p", "metrics.csv", "plot.svg", "res.s1p", "fit.kv",
                     "fit.csv", "sweep.csv"):
            with open(p[name], "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        first = self.digests.setdefault(session.index, digests)
        if first != digests:
            changed = sorted(k for k in digests if digests[k] != first[k])
            raise CheckFailed(f"outputs differ from the first pass: {', '.join(changed)}")
        return {"grid_points": len(block.freq_hz), "repeat": first is not digests}


WORKLOADS = {"synth": Synth, "fit": Fit, "files": Files}
