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

from . import metrics
from .curves import validate_grid
from .errors import AcoufiltError, DomainError
from .mbvd import K2_MAX, _circuit_terms, _jw, _motional, _routing, mbvd_from_targets
from .metrics import DEFAULT_GUARD, FilterMetrics, _check_guard, passband_metrics
from .network import LadderDesign, _ladder_s21_db, build_ladder_response, shunt_series_shunt

# Synthesis scoring grid: wide enough to see OoB on both sides of the band.
_GRID_POINTS = 1601
_GRID_SPAN = (0.5, 1.8)
_MAX_EVALS = 2000
_FAILED_EVAL_PENALTY = 1e3
# Nelder-Mead stopping tolerances on the scaled variables x / x0 and on the
# score; 1e-6 stops the criterion-2 search short of its optimum.
_XATOL = 1e-8
_FATOL = 1e-8


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
        # q = inf asks for a lossless search; every other field must be finite.
        finite = (self.fc_target, self.fbw_target, self.z0, self.oob_min_db, self.k2,
                  self.rs, self.ls, self.il_max_db)
        if not all(math.isfinite(v) for v in finite) or math.isnan(self.q):
            raise DomainError("spec quantities must be finite (q may be inf)")
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
        if not (0 < self.f_ref < math.inf and 0 < self.t_ref < math.inf):
            raise DomainError("reference frequency and thickness must be positive and finite")


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
    if not 0 < t_new < math.inf:
        raise DomainError("thickness must be positive and finite")
    f = scaling.f_ref * scaling.t_ref / t_new
    if not 0 < f < math.inf:
        raise DomainError(f"scaled frequency {f:g} Hz is not positive and finite")
    return f


def _design_from_x(x: np.ndarray, spec: DesignSpec) -> LadderDesign:
    """The ladder at a placement; a DomainError where it has no circuit."""
    fs_se, fs_sh, c0_se, c0_sh = x
    series = mbvd_from_targets(fs_se, spec.k2, c0_se, spec.q, spec.rs, spec.ls)
    shunt = mbvd_from_targets(fs_sh, spec.k2, c0_sh, spec.q, spec.rs, spec.ls)
    return shunt_series_shunt(shunt, series, z0=spec.z0)


def _s21_db(x: np.ndarray, spec: DesignSpec, jw: np.ndarray,
            routing: np.ndarray | None) -> np.ndarray:
    """|S21| in dB of the ladder _design_from_x(x, spec) on the grid of
    jw = _jw(f), from the floats of x with no design built: the series
    impedance z = den / num and the shunt admittance y = num / den, once
    each, through the one ladder kernel, each divided into a buffer of
    _circuit_terms that is not read again.  routing is
    _routing(jw, spec.rs, spec.ls), formed once per search.  Called under
    np.errstate(all="ignore"), which the search enters once; a DomainError
    where the placement has no circuit or the ladder no response."""
    fs_se, fs_sh, c0_se, c0_sh = x
    rm_se, lm_se, cm_se = _motional(fs_se, spec.k2, c0_se, spec.q)
    rm_sh, lm_sh, cm_sh = _motional(fs_sh, spec.k2, c0_sh, spec.q)
    _, _, num, den = _circuit_terms(jw, rm_se, lm_se, cm_se, c0_se, routing)
    z = np.divide(den, num, out=num)
    _, _, num, den = _circuit_terms(jw, rm_sh, lm_sh, cm_sh, c0_sh, routing)
    y = np.divide(num, den, out=den)
    return _ladder_s21_db(((False, y), (True, z), (False, y)), spec.z0)


def _placement_score(x: np.ndarray, spec: DesignSpec, grid: np.ndarray, jw: np.ndarray,
                     routing: np.ndarray | None, guard: float) -> float:
    """The search's score of placement x on the scoring grid, its jw and
    routing term, from |S21| in dB alone; a toolkit error anywhere is a
    failed evaluation.  Called under np.errstate (see _s21_db)."""
    try:
        m = metrics._metrics_from_db(grid, _s21_db(x, spec, jw, routing), guard)
    except AcoufiltError:
        return _FAILED_EVAL_PENALTY
    return _score(m, spec)


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


def _seed_placement(spec: DesignSpec) -> np.ndarray:
    """Initial placement (fs_se, fs_sh, c0_se, c0_sh): shunt anti-resonance
    on fc, series resonance on fc; shunt c0 presents |B| = 1/z0 at center,
    series seeded at half of that."""
    fs_sh0 = spec.fc_target * math.sqrt(1.0 - spec.k2 / K2_MAX)
    fs_se0 = spec.fc_target
    c0_sh0 = 1.0 / (2.0 * math.pi * spec.fc_target * spec.z0)
    c0_se0 = 0.5 * c0_sh0
    return np.array([fs_se0, fs_sh0, c0_se0, c0_sh0])


def synthesize_ladder(spec: DesignSpec, guard: float = DEFAULT_GUARD) -> SynthesisResult:
    """Search a shunt-series-shunt ladder meeting the spec.

    Always returns the best design found along with freshly recomputed
    metrics; ``feasible`` reports whether every target is met.  The search
    is fully deterministic: fixed initial simplex, fixed evaluation cap.
    ``guard`` is passband_metrics' stopband guard, checked once here.

    What every candidate shares is formed once per search: the grid's jw
    and the spec's routing term rs + jw*ls.  The whole search runs in one
    np.errstate(all="ignore"), so that no candidate enters its own.
    """
    # Imported here, not with the module: scipy.optimize takes about half a
    # second to import, which commands that synthesize nothing skip.
    from scipy.optimize import minimize

    _check_guard(guard)
    grid = validate_grid(np.linspace(_GRID_SPAN[0] * spec.fc_target,
                                     _GRID_SPAN[1] * spec.fc_target, _GRID_POINTS))

    def evaluate(x):
        """The design at x and its metrics from the full two-port response,
        None where the response names a fault or has no scoreable passband."""
        design = _design_from_x(x, spec)
        try:
            return design, passband_metrics(build_ladder_response(design, grid).s21(),
                                            guard=guard)
        except AcoufiltError:
            return design, None

    x0 = _seed_placement(spec)
    m, n_evals = None, 0
    if spec.bandwidth_within_coupling():
        # The search runs on u = x / x0, so hertz and farads share one scale.
        simplex = np.vstack([np.ones(4), np.eye(4) * 0.05 + 1.0])
        with np.errstate(all="ignore"):
            jw = _jw(grid)
            routing = _routing(jw, spec.rs, spec.ls)
            res = minimize(
                lambda u: _placement_score(x0 * u, spec, grid, jw, routing, guard),
                np.ones(4),
                method="Nelder-Mead",
                options={
                    "initial_simplex": simplex,
                    "maxfev": _MAX_EVALS,
                    "xatol": _XATOL,
                    "fatol": _FATOL,
                    "adaptive": False,
                },
            )
        n_evals = res.nfev
        try:
            design, m = evaluate(x0 * res.x)
        except AcoufiltError:  # the search ended on a placement without a circuit
            pass
    feasible = m is not None and _feasible(m, spec)
    if m is None:
        # The seed placement is the (infeasible) best effort when the coupling
        # cannot support the target bandwidth or the search ended where no
        # passband is scoreable; a seed without a circuit raises its error here.
        design, m = evaluate(x0)
    cost = _score(m, spec) if m is not None else math.inf
    return SynthesisResult(design, m, feasible, cost, n_evals)
