"""Extraction of MBVD parameters from a one-port admittance sweep.

A structure-based initial guess (resonance peak, the most prominent
anti-resonance dip above it, and the EM self-resonance above that) seeds a
MINPACK Levenberg-Marquardt search over log-parameters, so positivity can
never be violated.  The search is unbounded; a trial point with a
log-parameter beyond +-_LOG_BOUND gets an infinite residual, which the
search rejects as no reduction and answers with a shorter step.  Residuals
are the concatenated real and imaginary parts of the admittance, by default
weighted by 1/|Y| so the deep anti-resonance counts as much as the resonance
peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.signal import find_peaks

from .curves import ComplexCurve
from .errors import DomainError, SearchError, StructureError
from .mbvd import MbvdParams, ResonatorSummary, _jw, _log_jacobian, _terms, summarize
# Unused here since the fit evaluates the model through _terms; perfbench/spans.py
# still traces the fit's model evaluations under this name.
from .mbvd import resonator_admittance  # noqa: F401

# Fitted parameters, in MbvdParams order; r0 is held at zero.
_FIT_PARAMS = ("rm", "lm", "cm", "c0", "rs", "ls")
# Positive floor standing in for "exactly zero" in log-space.
_LOG_FLOOR = 1e-30
# Largest |log-parameter| a trial point may have: beyond it exp() nears
# overflow, so the residual there is +inf and the step is rejected.  Generous
# for any physical value.
_LOG_BOUND = 300.0
# ftol, xtol and gtol of the least-squares search.
_TOL = 1e-10
_RS_SEED_OHM = 0.5
_LS_SEED_H = 1e-13  # used when no EM self-resonance is visible in the sweep


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    weight_mode: str = "inverse-magnitude"  # or "uniform"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if self.weight_mode not in ("inverse-magnitude", "uniform"):
            raise DomainError(f"unknown weight mode {self.weight_mode!r}")


@dataclass(frozen=True)
class FitResult:
    params: MbvdParams
    residual_norm: float
    iterations: int
    converged: bool
    summary: ResonatorSummary


def _peak_indices(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the |Y| peaks and valleys, and the valleys' prominences."""
    span = float(mag.max() - mag.min())
    prom = 0.01 * span
    peaks, _ = find_peaks(mag, prominence=prom)
    valleys, props = find_peaks(-mag, prominence=prom)
    return peaks, valleys, props["prominences"]


def initial_guess(curve: ComplexCurve) -> MbvdParams:
    """Heuristic MBVD seed from the visible resonance structure of |Y|.

    Needs at least one |Y| maximum followed by one |Y| minimum.  Of the
    minima above the first maximum, the most prominent is the anti-resonance,
    so a noise dip next to the resonance is not taken for it.  A further
    maximum above the anti-resonance, when present, seeds the routing
    inductance from the EM self-resonance against c0.
    """
    _check_finite(curve)
    f = curve.freq_hz
    mag = curve.magnitude
    if f.size < 8:
        raise StructureError("too few samples to identify resonance structure")

    peaks, valleys, valley_prom = _peak_indices(mag)
    if peaks.size == 0:
        raise StructureError("no admittance maximum found (no resonance in band)")
    i_fs = int(peaks[0])
    later = valleys > i_fs
    if not later.any():
        raise StructureError("no admittance minimum above the resonance peak")
    i_fp = int(valleys[later][np.argmax(valley_prom[later])])

    fs = float(f[i_fs])
    fp = float(f[i_fp])

    # Well below resonance the one-port looks like c0 + cm in parallel; split
    # that total using the resonance spacing, since cm/c0 = (fp/fs)^2 - 1.
    n_low = max(f.size // 10, 2)
    c_total = float(np.median(curve.values[:n_low].imag / (2.0 * math.pi * f[:n_low])))
    if c_total <= 0:
        raise StructureError("low-frequency tail is not capacitive")

    ratio = (fp / fs) ** 2 - 1.0
    if ratio <= 0:
        raise StructureError("anti-resonance not above resonance")
    c0 = c_total / (1.0 + ratio)
    cm = c0 * ratio
    lm = 1.0 / ((2.0 * math.pi * fs) ** 2 * cm)
    rm = 1.0 / float(mag[i_fs])

    em_peaks = peaks[peaks > i_fp]
    if em_peaks.size:
        f_em = float(f[int(em_peaks[0])])
        ls = 1.0 / ((2.0 * math.pi * f_em) ** 2 * c0)
    else:
        # EM self-resonance above the sweep: its frequency exceeds the top of
        # the grid, which upper-bounds ls against c0.  Seed at half the bound.
        ls = max(0.5 / ((2.0 * math.pi * float(f[-1])) ** 2 * c0), _LS_SEED_H)
    return MbvdParams(rm=rm, lm=lm, cm=cm, c0=c0, rs=_RS_SEED_OHM, ls=ls)


def _pack(p: MbvdParams) -> np.ndarray:
    vals = [getattr(p, k) for k in _FIT_PARAMS]
    return np.log(np.maximum(np.asarray(vals, dtype=float), _LOG_FLOOR))


def _unpack(x: np.ndarray) -> MbvdParams:
    return MbvdParams(*(float(v) for v in np.exp(x)))


def _check_finite(curve: ComplexCurve) -> None:
    if not np.all(np.isfinite(curve.values)):
        raise DomainError("admittance sweep contains non-finite values")


def fit_mbvd(curve: ComplexCurve, init: MbvdParams, opts: FitOptions = FitOptions()) -> FitResult:
    """Least-squares fit of the MBVD model to a complex admittance sweep.

    scipy's MINPACK Levenberg-Marquardt method (``least_squares`` with
    ``method="lm"``) works on the log-parameters, without bounds, with the
    analytic Jacobian of the model; ``max_iterations`` caps its residual
    evaluations.  A trial point with a log-parameter beyond +-_LOG_BOUND has
    an infinite residual, so the search rejects it and shortens its step.
    The static loss r0 is not fitted and comes back as zero.  Reaching the
    cap gives a non-converged result, not an exception; parameters without a
    resonance, converged or not, raise SearchError.
    """
    n_free = len(_FIT_PARAMS)
    if len(curve) < n_free + 1:
        raise DomainError(f"need at least {n_free + 1} samples to fit {n_free} parameters")
    _check_finite(curve)
    if opts.weight_mode == "inverse-magnitude":
        w = 1.0 / np.maximum(curve.magnitude, 1e-300)
    else:
        w = np.ones(len(curve))
    s = _jw(curve.freq_hz)
    out_of_range = np.full(2 * len(curve), np.inf)
    # The model at the last point evaluated, (p, pm, ps, num, den, y), and
    # that point's bytes.  lm asks for the Jacobian at the point whose
    # residual it has just evaluated, so the two share one evaluation.
    last_key = last = None

    def model(x):
        nonlocal last_key, last
        key = x.tobytes()
        if key != last_key:
            p = _unpack(x)
            pm, ps, num, den = _terms(p, s)
            last_key, last = key, (p, pm, ps, num, den, num / den)
        return last

    def residual(x):
        if np.max(np.abs(x)) > _LOG_BOUND:
            return out_of_range
        d = model(x)[-1] - curve.values
        return np.concatenate([d.real * w, d.imag * w])

    def jacobian(x):
        p, pm, ps, _, den, y = model(x)
        jac = _log_jacobian(p, s, pm, ps, den, y) * w
        return np.concatenate([jac.real, jac.imag], axis=1).T

    x0 = np.clip(_pack(init), -_LOG_BOUND, _LOG_BOUND)
    # Trial steps far from the data can overflow; lm counts a non-finite
    # residual as no reduction and shortens its step.  The start must be finite.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r0 = residual(x0)
        if not math.isfinite(float(r0 @ r0)):
            raise DomainError("weighted residual at the initial guess is not finite")
        res = least_squares(residual, x0, jac=jacobian, method="lm", x_scale="jac",
                            ftol=_TOL, xtol=_TOL, gtol=_TOL, max_nfev=opts.max_iterations)
    params = _unpack(res.x)
    converged = bool(res.status > 0)
    try:
        summary = summarize(params)
    except SearchError as exc:
        if converged:
            raise SearchError(
                f"MBVD fit converged to parameters without a resonance ({exc})"
            ) from exc
        raise SearchError(
            f"MBVD fit diverged: stopped after {res.nfev} of at most "
            f"{opts.max_iterations} residual evaluations at parameters without "
            f"a resonance ({exc})"
        ) from exc
    return FitResult(
        params=params,
        residual_norm=float(np.linalg.norm(res.fun)),
        iterations=int(res.njev),
        converged=converged,
        summary=summary,
    )
