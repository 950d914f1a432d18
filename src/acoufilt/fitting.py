"""Extraction of MBVD parameters from a one-port admittance sweep.

The MBVD admittance is a rational function of s of fixed degree (see
mbvd.rational_coefficients).  A linear least-squares fit of its seven
coefficients to the sweep, reweighted once, gives the six parameters in
closed form, and they seed a MINPACK Levenberg-Marquardt search (lmder,
called in scipy's extension scipy.optimize._minpack, which _minpack loads
without the scipy.optimize package) over log-parameters, so positivity can
never be violated.  The search is unbounded; a trial point with a log-parameter
beyond +-_LOG_BOUND gets an infinite residual, which the search rejects as
no reduction and answers with a shorter step.  Residuals are the
concatenated real and imaginary parts of the admittance, by default
weighted by 1/|Y| as in the seed's first pass (_weights), so the deep
anti-resonance counts as much as the resonance peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ComplexCurve
from .errors import DomainError, SearchError, StructureError
from .mbvd import (MbvdParams, ResonatorSummary, _circuit_terms, _jw, _log_jacobian, _routing,
                   summarize)
# Unused here since the fit evaluates the model through _circuit_terms;
# perfbench/spans.py still traces the fit's model evaluations under this name.
from .mbvd import resonator_admittance  # noqa: F401

# Fitted parameters, in MbvdParams order; r0 is held at zero.
_FIT_PARAMS = ("rm", "lm", "cm", "c0", "rs", "ls")
# Where a zero rm, rs or ls starts, relative to its scale (see _pack).
_ZERO_START = 1e-7
# Largest |log-parameter| a trial point may have: beyond it exp() nears
# overflow, so the residual there is +inf and the step is rejected.  Generous
# for any physical value.
_LOG_BOUND = 300.0
# ftol, xtol and gtol of the least-squares search.
_TOL = 1e-10
# Singular values of the rational fit's rows below this fraction of the
# largest count as zero.  Fixed rather than scaled with the row count, so
# that the rank test reads the same on every grid size; _weights also cuts
# samples at this fraction of the largest |y|.
_RCOND = 1e-12
WEIGHT_MODES = ("inverse-magnitude", "uniform")  # FitOptions.weight_mode's, default first
# Largest max_iterations: MINPACK's evaluation cap, maxfev, is a C int.
MAX_ITERATIONS = 2**31 - 1


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    weight_mode: str = WEIGHT_MODES[0]

    def __post_init__(self):
        n = self.max_iterations
        if type(n) is not int or not 1 <= n <= MAX_ITERATIONS:
            raise DomainError(f"max_iterations must be an integer in [1, {MAX_ITERATIONS}], "
                              f"got {n!r}")
        if self.weight_mode not in WEIGHT_MODES:
            raise DomainError(f"unknown weight mode {self.weight_mode!r}")


@dataclass(frozen=True)
class FitResult:
    params: MbvdParams
    residual_norm: float
    iterations: int
    converged: bool
    summary: ResonatorSummary


def _rational_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a1, a2, a3, b1, b2, b3, b4 of num(t) / den(t) fitted to the samples
    y at t = j*x, in two linear least-squares passes.

    num(t) - y*den(t) = 0 at every sample is linear in the seven
    coefficients (Levy 1959).  Its real and imaginary rows are built from
    the powers of x, with j^k folded into their signs.  The first pass
    weights each row by 1/|y|, the second by 1/|y*den| of the first
    (Sanathanan-Koerner 1963), so that its residual approximates the fit's
    own relative error |num/den - y| / |y|.  A sample that _weights leaves
    out and a zero of den on the grid get weight 0.  Each pass is one
    np.linalg.lstsq on the weighted rows and right-hand side.
    """
    n = x.size
    g, b = y.real, y.imag
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    # Columns a1, a2, a3, b1, b2, b3, b4 and the right-hand side, one per
    # row of ``cols``, of Re and then Im of
    # a1*t + a2*t^2 + a3*t^3 - y*(b1*t + b2*t^2 + b3*t^3 + b4*t^4) = y.
    cols = np.zeros((8, 2 * n))
    re, im = cols[:, :n], cols[:, n:]
    re[1], re[3], re[4], re[5], re[6], re[7] = -x2, x * b, x2 * g, -x3 * b, -x4 * g, g
    im[0], im[2], im[3], im[4], im[5], im[6], im[7] = x, -x3, -x * g, x2 * b, x3 * g, -x4 * b, b
    # The weights of the first pass, then the factor 1/|den| of the second.
    w = _weights(y)
    for _ in range(2):
        w[np.isinf(w)] = 0.0
        cols *= np.concatenate([w, w])
        coef, _, rank, _ = np.linalg.lstsq(cols[:7].T, cols[7], rcond=_RCOND)
        if rank < 7:
            raise StructureError(
                f"the sweep fixes only {rank} of the 7 coefficients of a resonator "
                "with static capacitance and routing parasitics"
            )
        b1, b2, b3, b4 = coef[3:]
        with np.errstate(divide="ignore", over="ignore"):
            w = 1.0 / np.hypot(1.0 - b2 * x2 + b4 * x4, b1 * x - b3 * x3)
    return coef


def initial_guess(curve: ComplexCurve) -> MbvdParams:
    """MBVD seed from a rational fit of the admittance sweep.

    With t = s / w0 and w0 = 2*pi*sqrt(f_first*f_last), Y = num(t) / den(t)
    for the coefficients of mbvd.rational_coefficients (r0 = 0), which
    _rational_fit finds by linear least squares.  The six parameters follow
    in closed form, in the scaled units L = w0*lm and so on: ls = b4/a3,
    rs = (b3 - ls*a2)/a3, rm*C = b1 - rs*a1, L*C = b2 - rs*a2 - ls*a1,
    C0 = a3/(L*C), C = a1 - C0 (_params_from_coefficients).  An rm, rs or
    ls that comes out non-positive is seeded as 0; an lm, cm or c0 that is
    not positive and finite, or coefficients the sweep does not fix, are a
    StructureError.
    """
    _check_finite(curve)
    f = curve.freq_hz
    f0 = math.sqrt(f[0] * f[-1])
    return _params_from_coefficients(_rational_fit(f / f0, curve.values), 2.0 * math.pi * f0)


def _params_from_coefficients(coef: np.ndarray, w0: float) -> MbvdParams:
    """The parameters (r0 = 0) whose rational_coefficients(p, w0) are
    coef = (a1, a2, a3, b1, b2, b3, b4), by the closed form of initial_guess.

    An rm, rs or ls at or below zero, round-off about a zero as a rule, is
    taken as 0 (a NaN one comes with a NaN c0); an lm, cm or c0 that is not
    positive and finite, or an rm, rs or ls that is not finite, is a
    StructureError.
    """
    a1, a2, a3, b1, b2, b3, b4 = coef
    # On numpy scalars a zero divisor gives inf or NaN, which the checks
    # below name.
    with np.errstate(all="ignore"):
        ls = _nonnegative(b4 / a3)
        rs = _nonnegative((b3 - ls * a2) / a3)
        lc = b2 - rs * a2 - ls * a1
        c0 = a3 / lc
        cm = a1 - c0
        lm = lc / cm
        rm = _nonnegative((b1 - rs * a1) / cm)
        values = {"c0": c0 / w0, "cm": cm / w0, "lm": lm / w0, "rm": rm, "rs": rs, "ls": ls / w0}
    for name, v in values.items():
        if not 0.0 < v < math.inf and not (v == 0.0 and name in ("rm", "rs", "ls")):
            raise StructureError(f"the rational fit of the sweep gives {name} = {v:g}")
    return MbvdParams(**{k: float(v) for k, v in values.items()})


def _nonnegative(v):
    """v if it is positive, else 0 (NaN included)."""
    return v if v > 0 else 0.0


def _pack(p: MbvdParams) -> np.ndarray:
    """Log-parameters of p, clipped to +-_LOG_BOUND (a start that underflows
    lands on the bound).  A zero rm or rs starts at _ZERO_START times the
    motional impedance sqrt(lm/cm), and a zero ls at _ZERO_START * lm:
    nearer zero its Jacobian column all but vanishes, lmder's column scaling
    then allows it unbounded steps, and the search stops on rejected trials
    (seen on noisy sweeps of lossless resonators)."""
    z = math.sqrt(p.lm / p.cm)
    scale = {"rm": z, "rs": z, "ls": p.lm}
    # lm, cm and c0 are positive, so only rm, rs and ls can take the scale.
    vals = [getattr(p, k) or _ZERO_START * scale[k] for k in _FIT_PARAMS]
    with np.errstate(divide="ignore"):
        return np.clip(np.log(vals), -_LOG_BOUND, _LOG_BOUND)


def _weights(values: np.ndarray) -> np.ndarray:
    """1/|y|, but 0 where |y| <= _RCOND * max|y| (a weight that would swamp the rest)."""
    mag = np.abs(values)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(mag > _RCOND * mag.max(), 1.0 / mag, 0.0)


def _check_finite(curve: ComplexCurve) -> None:
    if not np.all(np.isfinite(curve.values)):
        raise DomainError("admittance sweep contains non-finite values")


def _minpack():
    """scipy's MINPACK extension, scipy.optimize._minpack, loaded on the
    first fit from its own file, with the scipy package: 24 modules and
    0.01 s after acoufilt's own imports, against 567 modules, 0.35 s and
    46 MB of RSS for the scipy.optimize package around it.  It is entered in
    sys.modules under its own name, so a later import of scipy.optimize
    uses it, and one that scipy.optimize loaded first is reused."""
    import sys

    name = "scipy.optimize._minpack"
    module = sys.modules.get(name)
    if module is None:
        import importlib.util
        import os
        from importlib.machinery import PathFinder

        import scipy

        spec = PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "optimize")])
        if spec is None:
            raise ImportError(f"{name} not found in scipy {scipy.__version__}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def _lmder(*args):
    """MINPACK lmder: scipy.optimize._minpack._lmder(fcn, Dfun, x0, args,
    full_output, col_deriv, ftol, xtol, gtol, maxfev, factor, diag), which
    writes its solution into x0 and returns (x, infodict, info).  A
    module-level name, so that a test can replace it with a spy."""
    return _minpack()._lmder(*args)


def fit_mbvd(curve: ComplexCurve, init: MbvdParams, opts: FitOptions = FitOptions()) -> FitResult:
    """Least-squares fit of the MBVD model to a complex admittance sweep.

    MINPACK's Levenberg-Marquardt lmder, called directly (_lmder), works
    on the log-parameters, without bounds, with the analytic Jacobian of the
    model handed over column-major (one row per log-parameter, as lmder
    stores it); ``max_iterations`` caps its residual evaluations.  Each
    sample gives two real residuals, so a sweep of 3 samples is the least
    that fixes the 6 parameters (lmder needs m >= n).  A trial point with a
    log-parameter beyond +-_LOG_BOUND or NaN has an infinite residual, so
    the search rejects it and shortens its step.  Trial points are evaluated
    on the floats of exp(x), which are positive and finite within the bound,
    so no MbvdParams is built for them: only the result's is built and
    checked.  The static loss r0 is not fitted and comes back as zero.
    Reaching the cap gives a non-converged result, not an exception;
    parameters without a resonance, converged or not, raise SearchError.
    """
    n_free = len(_FIT_PARAMS)
    n = len(curve)
    if 2 * n < n_free:
        raise DomainError(f"need at least {n_free // 2} samples ({n_free} real residuals) "
                          f"to fit {n_free} parameters")
    _check_finite(curve)
    w = _weights(curve.values) if opts.weight_mode == "inverse-magnitude" else np.ones(n)
    s = _jw(curve.freq_hz)
    # The model at the last point evaluated, (q, pm, ps, num, den, y) for
    # its element values q, and that point's bytes.  lm asks for the
    # Jacobian at the point whose residual it has just evaluated, so the two
    # share one evaluation.
    last_key = last = None

    def model(x):
        nonlocal last_key, last
        key = x.tobytes()
        if key != last_key:
            q = rm, lm, cm, c0, rs, ls = np.exp(x).tolist()
            pm, ps, num, den = _circuit_terms(s, rm, lm, cm, c0, _routing(s, rs, ls))
            last_key, last = key, (q, pm, ps, num, den, num / den)
        return last

    def residual(x):
        # A new array on every call, the infinite one included: lmder may
        # hold on to a residual it was handed, and one buffer reused across
        # calls changes the fit's results.  The test is written so that a
        # NaN trial point is out of range too.
        if not np.max(np.abs(x)) <= _LOG_BOUND:
            return np.full(2 * n, np.inf)
        d = model(x)[-1] - curve.values
        return np.concatenate([d.real * w, d.imag * w])

    def jacobian(x):
        q, pm, ps, _, den, y = model(x)
        # Each row straight into its place in the (6, 2n) layout lmder
        # takes: the weighted real parts, then the imaginary parts.
        jac = np.empty((n_free, 2 * n))
        for row, out in zip(_log_jacobian(q, s, pm, ps, den, y), jac):
            np.multiply(row.real, w, out=out[:n])
            np.multiply(row.imag, w, out=out[n:])
        return jac

    x0 = _pack(init)
    # Trial steps far from the data can overflow; lm counts a non-finite
    # residual as no reduction and shortens its step.  The start must be finite.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r0 = residual(x0)
        if not math.isfinite(float(r0 @ r0)):
            raise DomainError("weighted residual at the initial guess is not finite")
        # No extra arguments, full output, column-major Jacobian, and
        # leastsq's step bound factor 100 with lmder's own column scaling.
        x, info, ier = _lmder(residual, jacobian, x0, (), 1, 1, _TOL, _TOL, _TOL,
                              opts.max_iterations, 100.0, None)
    params = MbvdParams(*np.exp(x).tolist())
    # MINPACK's info 1-4 are the convergence tests; 5 is the evaluation cap.
    converged = ier in (1, 2, 3, 4)
    try:
        summary = summarize(params)
    except SearchError as exc:
        if converged:
            raise SearchError(
                f"MBVD fit converged to parameters without a resonance ({exc})"
            ) from exc
        raise SearchError(
            f"MBVD fit diverged: stopped after {info['nfev']} of at most "
            f"{opts.max_iterations} residual evaluations at parameters without "
            f"a resonance ({exc})"
        ) from exc
    return FitResult(
        params=params,
        residual_norm=float(np.linalg.norm(info["fvec"])),
        iterations=int(info["njev"]),
        converged=converged,
        summary=summary,
    )
