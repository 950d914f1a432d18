"""Target-driven ladder synthesis: spec in, three-resonator design out.

The shunt anti-resonance is first placed at the target center frequency and
the series resonance on top of it, with the shunt static capacitance sized
to present a |B| = 1/z0 susceptance at center (impedance matching).  A
deterministic Nelder-Mead search over the four placement variables then
trades insertion loss, bandwidth, rejection and centering against each
other through a fixed penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import AcoufiltError, DomainError
from .mbvd import K2_MAX, mbvd_from_targets
from .metrics import FilterMetrics, passband_metrics
from .network import LadderDesign, build_ladder_response, shunt_series_shunt

# Synthesis scoring grid: wide enough to see OoB on both sides of the band.
_GRID_POINTS = 1601
_GRID_SPAN = (0.5, 1.8)
_MAX_EVALS = 2000
_FAILED_EVAL_PENALTY = 1e3


@dataclass(frozen=True)
class DesignSpec:
    """Target specification for a three-resonator bandpass ladder."""

    fc_target: float
    fbw_target: float
    z0: float = 50.0
    oob_min_db: float = 12.0
    k2: float = 0.46
    q: float = 50.0
    rs: float = 0.0
    ls: float = 0.0
    il_max_db: float = 3.0

    def __post_init__(self):
        if min(self.fc_target, self.fbw_target, self.z0, self.oob_min_db,
               self.q, self.il_max_db) <= 0:
            raise DomainError("spec quantities must be positive")
        if self.rs < 0 or self.ls < 0:
            raise DomainError("parasitics must be nonnegative")
        if not 0.0 < self.k2 < K2_MAX:
            raise DomainError(f"k2 must lie in (0, {K2_MAX:g})")

    def bandwidth_within_coupling(self) -> bool:
        """Sanity bound: achievable FBW is limited to about 2*(8/pi^2)*k2."""
        return self.fbw_target < 2.0 * self.k2 / K2_MAX


@dataclass(frozen=True)
class ThicknessScaling:
    """Reference point for inverse-thickness frequency scaling of A1 plates."""

    f_ref: float
    t_ref: float

    def __post_init__(self):
        if self.f_ref <= 0 or self.t_ref <= 0:
            raise DomainError("reference frequency and thickness must be positive")


@dataclass(frozen=True)
class SynthesisResult:
    """Best design found; metrics is None when no passband could be scored."""

    design: LadderDesign
    metrics: FilterMetrics | None
    feasible: bool
    cost: float
    evaluations: int


def thickness_scale(scaling: ThicknessScaling, t_new: float) -> float:
    """A1-mode frequency scales inversely with plate thickness."""
    if t_new <= 0:
        raise DomainError("thickness must be positive")
    return scaling.f_ref * scaling.t_ref / t_new


def _design_from_x(x: np.ndarray, spec: DesignSpec) -> LadderDesign | None:
    fs_se, fs_sh, c0_se, c0_sh = x
    if min(fs_se, fs_sh, c0_se, c0_sh) <= 0:
        return None
    series = mbvd_from_targets(fs_se, spec.k2, c0_se, spec.q, spec.rs, spec.ls)
    shunt = mbvd_from_targets(fs_sh, spec.k2, c0_sh, spec.q, spec.rs, spec.ls)
    return shunt_series_shunt(shunt, series, z0=spec.z0)


def _score(m: FilterMetrics, spec: DesignSpec) -> float:
    return (
        10.0 * max(0.0, m.il_db - spec.il_max_db)
        + 5.0 * abs(m.fbw3 - spec.fbw_target)
        + 2.0 * max(0.0, spec.oob_min_db - m.oob_rejection_db)
        + 20.0 * abs(m.fc - spec.fc_target) / spec.fc_target
    )


def _feasible(m: FilterMetrics, spec: DesignSpec) -> bool:
    return (
        m.il_db <= spec.il_max_db
        and abs(m.fc - spec.fc_target) / spec.fc_target <= 0.005
        and abs(m.fbw3 - spec.fbw_target) <= 0.015
        and m.oob_rejection_db >= spec.oob_min_db
    )


def synthesize_ladder(spec: DesignSpec, guard: float = 0.15) -> SynthesisResult:
    """Search a shunt-series-shunt ladder meeting the spec.

    Always returns the best design found along with freshly recomputed
    metrics; ``feasible`` reports whether every target is met.  The search
    is fully deterministic: fixed initial simplex, fixed evaluation cap.
    """
    grid = np.linspace(_GRID_SPAN[0] * spec.fc_target,
                       _GRID_SPAN[1] * spec.fc_target, _GRID_POINTS)

    def evaluate(x):
        design = _design_from_x(x, spec)
        if design is None:
            return None, None
        sp = build_ladder_response(design, grid)
        try:
            m = passband_metrics(sp.s21(), guard=guard)
        except AcoufiltError:
            return design, None
        return design, m

    n_evals = 0

    def objective(x):
        nonlocal n_evals
        n_evals += 1
        _, m = evaluate(x)
        if m is None:
            return _FAILED_EVAL_PENALTY
        return _score(m, spec)

    # Initial placement: shunt anti-resonance on fc, series resonance on fc;
    # shunt c0 presents |B| = 1/z0 at center, series seeded at half of that.
    fs_sh0 = spec.fc_target * math.sqrt(1.0 - spec.k2 / K2_MAX)
    fs_se0 = spec.fc_target
    c0_sh0 = 1.0 / (2.0 * math.pi * spec.fc_target * spec.z0)
    c0_se0 = 0.5 * c0_sh0
    x0 = np.array([fs_se0, fs_sh0, c0_se0, c0_sh0])

    if not spec.bandwidth_within_coupling():
        # The coupling cannot support the target bandwidth; skip the search
        # and report the seed placement as the (infeasible) best effort.
        design, m = evaluate(x0)
        cost = _score(m, spec) if m is not None else math.inf
        return SynthesisResult(design, m, False, cost, n_evals)

    simplex = np.tile(x0, (5, 1))
    for i in range(4):
        simplex[i + 1, i] *= 1.05

    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "maxfev": _MAX_EVALS,
            "xatol": 1e-12,
            "fatol": 1e-12,
            "adaptive": False,
        },
    )

    design, m = evaluate(res.x)
    if m is None:
        # Fall back to the seed placement if the search wandered off the cliff.
        design, m = evaluate(x0)
        cost = _score(m, spec) if m is not None else math.inf
        return SynthesisResult(design, m, False, cost, n_evals)
    return SynthesisResult(design, m, _feasible(m, spec), _score(m, spec), n_evals)
