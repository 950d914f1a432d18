"""Modified mmWave MBVD resonator model and derived scalar quantities.

The resonator is a series RLC motional branch in parallel with a static
capacitance (optionally lossy), the combination loaded by series routing
resistance and inductance.  High-coupling A1-mode devices additionally show
an EM self-resonance formed by the routing inductance against the static
capacitance; both effects are captured by the same lumped circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .curves import ComplexCurve, validate_grid
from .errors import DomainError, InfeasibleCouplingError, SearchError

# Upper bound of the coupling definition k2 = (pi^2/8) * (fp^2 - fs^2) / fp^2.
K2_MAX = math.pi**2 / 8.0

# Dense-scan density used before the bounded scalar refinement.
_SCAN_POINTS_PER_DECADE = 2001
_PEAK_REL_TOL = 1e-9
_UNDEFINED = "lossless resonator sampled exactly at its {}, {:.10g} Hz: its {} is undefined there"


@dataclass(frozen=True)
class MbvdParams:
    """One resonator's circuit values, SI base units throughout.

    rm/lm/cm form the motional branch, c0 the static capacitance (r0 its
    optional series loss), rs/ls the routing parasitics in series with the
    whole resonator.
    """

    rm: float
    lm: float
    cm: float
    c0: float
    rs: float = 0.0
    ls: float = 0.0
    r0: float = 0.0

    def __post_init__(self):
        vals = (self.rm, self.lm, self.cm, self.c0, self.rs, self.ls, self.r0)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("MBVD parameters must be finite")
        if self.lm <= 0 or self.cm <= 0 or self.c0 <= 0:
            raise DomainError("lm, cm and c0 must be positive")
        if self.rm < 0 or self.rs < 0 or self.ls < 0 or self.r0 < 0:
            raise DomainError("resistances and routing inductance must be nonnegative")

    def lossless(self) -> bool:
        return self.rm == 0.0 and self.rs == 0.0 and self.r0 == 0.0


@dataclass(frozen=True)
class ResonatorSummary:
    """Derived figures of a resonator: resonances, coupling, quality factor."""

    fs: float
    fp: float
    f_perceived: float
    k2: float
    q_antires: float


def _jw(f: np.ndarray) -> np.ndarray:
    """j*omega on a grid, the argument of the branch algebra below."""
    return 1j * (2.0 * math.pi * f)


def _terms(p: MbvdParams, jw):
    """pm, ps, num and den of the admittance Y = num / den of p (see
    _circuit_terms)."""
    return _circuit_terms(jw, p.rm, p.lm, p.cm, p.c0, p.rs, p.ls, p.r0)


def _circuit_terms(jw, rm, lm, cm, c0, rs=0.0, ls=0.0, r0=0.0):
    """pm, ps, num and den of the admittance Y = num / den of the circuit
    with these element values, taken as they are.

    With s = jw, the motional branch is pm / (s*cm), the static branch
    ps / (s*c0) and their parallel admittance num / (pm*ps), so that
    Y = 1 / (rs + s*ls + pm*ps/num) = num / (pm*ps + (rs + s*ls)*num) takes
    one division.  Without r0, ps is 1 and is not formed, and without rs
    and ls the routing term is 0; skipping them gives the same values with
    fewer array passes.
    """
    pm = (jw * lm + rm) * jw * cm + 1.0
    if r0:
        ps = jw * r0 * c0 + 1.0
        num = jw * (cm * ps + c0 * pm)
        branches = pm * ps
    else:
        ps = 1.0
        num = jw * (cm + c0 * pm)
        branches = pm
    den = branches + (rs + jw * ls) * num if rs or ls else branches
    return pm, ps, num, den


def _admittance_values(p: MbvdParams, jw: np.ndarray) -> np.ndarray:
    """Admittance of p from jw = _jw(f); callers on one grid share jw."""
    _, _, num, den = _terms(p, jw)
    return num / den


def _check_defined(p: MbvdParams, f: np.ndarray, inverted: bool = True) -> None:
    """Raise DomainError where the admittance of p, or with ``inverted`` its
    impedance 1 / Y, is a division by zero.

    Both happen only without loss and only exactly at a resonance.  den
    vanishes at the series resonance when rm = rs = ls = 0 and where a
    lossless resonator resonates with ls.  num vanishes at the
    anti-resonance when rm = r0 = 0: there Y = 0 exactly, the physical value
    for a shunt element, and an infinite impedance for a series element or
    a one-port.  Callers evaluate under np.errstate and call this only when
    the result is not finite, so it costs nothing on the hot path.  It
    evaluates quietly too: an overflow is not the fault it names.
    """
    with np.errstate(all="ignore"):
        pm, _, num, den = _terms(p, _jw(f))
    i = np.flatnonzero(den == 0)
    if i.size:
        name = "series resonance" if pm[i[0]] == 0 else "resonance with its routing inductance"
        raise DomainError(_UNDEFINED.format(name, f[i[0]], "admittance"))
    if inverted:
        i = np.flatnonzero(num == 0)
        if i.size:
            raise DomainError(_UNDEFINED.format("anti-resonance", f[i[0]], "impedance"))


def _log_jacobian(p: MbvdParams, jw, pm, ps, den, y) -> np.ndarray:
    """dY/d(log q) = q * dY/dq for q = rm, lm, cm, c0, rs, ls, from the
    terms _terms(p, jw) and y = num / den, one row per parameter.

    The routing R = rs + s*ls enters only den, so dY = -Y^2 dR.  The
    branches enter through pm, ps and num = s*(cm*ps + c0*pm), and there
    dY = (dnum*pm*ps - num*d(pm*ps)) / den^2 reduces, with u = s*cm*ps^2 /
    den^2, to u for cm, -d(log pm)*u for rm and lm (whose d(log pm) are
    s*rm*cm and s^2*lm*cm) and s*c0*pm^2 / den^2 for c0.
    """
    sg = jw / (den * den)
    u = sg * (p.cm * ps * ps)
    su = jw * u
    y2 = y * y
    return np.stack([
        su * (-p.rm * p.cm),
        jw * su * (-p.lm * p.cm),
        u,
        sg * p.c0 * (pm * pm),
        y2 * -p.rs,
        y2 * (jw * -p.ls),
    ])


def admittance_log_jacobian(p: MbvdParams, f: np.ndarray) -> np.ndarray:
    """Derivatives dY/d(log q) = q * dY/dq for q = rm, lm, cm, c0, rs, ls.

    Returns one complex column per parameter, shape (len(f), 6).
    """
    jw = _jw(f)
    pm, ps, num, den = _terms(p, jw)
    return _log_jacobian(p, jw, pm, ps, den, num / den).T


def resonator_admittance(p: MbvdParams, freq_hz) -> ComplexCurve:
    """Input admittance of the full parasitic-loaded resonator on a grid; a
    division by zero (see _check_defined) or an overflow is a DomainError."""
    f = validate_grid(np.atleast_1d(np.asarray(freq_hz, dtype=float)))
    with np.errstate(all="ignore"):
        y = _admittance_values(p, _jw(f))
    if not np.isfinite(y).all():
        _check_defined(p, f, inverted=False)
        raise DomainError("admittance contains non-finite entries")
    return ComplexCurve(f, y)


def series_resonance(p: MbvdParams) -> float:
    """Mechanical series resonance fs = 1 / (2*pi*sqrt(lm*cm)).

    An lm*cm that over- or underflows leaves no finite, nonzero fs and is a
    DomainError.
    """
    lc = p.lm * p.cm
    if not 0.0 < lc < math.inf:
        raise DomainError(
            f"lm*cm = {p.lm:g} H * {p.cm:g} F over- or underflows: no finite series resonance"
        )
    return 1.0 / (2.0 * math.pi * math.sqrt(lc))


def antiresonance(p: MbvdParams) -> float:
    """Anti-resonance fp = fs * sqrt(1 + cm/c0) of the unloaded circuit; a
    cm/c0 so large that fp overflows is a DomainError."""
    fp = series_resonance(p) * math.sqrt(1.0 + p.cm / p.c0)
    if fp == math.inf:
        raise DomainError(f"cm/c0 = {p.cm:g} F / {p.c0:g} F overflows: no finite anti-resonance")
    return fp


def coupling_k2(p: MbvdParams) -> float:
    """Electromechanical coupling k2 = (pi^2/8) * (fp^2 - fs^2) / fp^2."""
    ratio = 1.0 + p.cm / p.c0  # (fp/fs)^2
    return K2_MAX * (1.0 - 1.0 / ratio)


def _motional(fs: float, k2: float, c0: float, q: float) -> tuple[float, float, float]:
    """Motional (rm, lm, cm) of mbvd_from_targets on floats, with no
    MbvdParams built: the same DomainError or InfeasibleCouplingError, and a
    DomainError for every value MbvdParams would reject."""
    if not (fs > 0 and c0 > 0):
        raise DomainError("fs and c0 must be positive")
    if not q > 0:
        raise DomainError("q must be positive")
    if not 0.0 < k2 < K2_MAX:
        raise InfeasibleCouplingError(
            f"k2 must lie in (0, pi^2/8 ~ {K2_MAX:.4f}), got {k2:g}"
        )
    # On Python floats, an overflowing power or a zero divisor raises
    # instead of printing a numpy warning; a product that overflows gives
    # an infinite cm, lm or rm, or an lm of 1/inf = 0, and is the same
    # fault.  An infinite c0 gives an infinite or NaN cm.
    fs, k2, c0, q = float(fs), float(k2), float(c0), float(q)
    try:
        cm = c0 * (1.0 / (1.0 - k2 / K2_MAX) - 1.0)
        lm = 1.0 / ((2.0 * math.pi * fs) ** 2 * cm)
        rm = 0.0 if math.isinf(q) else 2.0 * math.pi * fs * lm / q
        if not (math.isfinite(cm) and 0.0 < lm < math.inf and math.isfinite(rm)):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"no finite motional branch for fs = {fs:g} Hz, k2 = {k2:g}, c0 = {c0:g} F, "
            f"q = {q:g}"
        ) from None
    return rm, lm, cm


def mbvd_from_targets(
    fs: float,
    k2: float,
    c0: float,
    q: float,
    rs: float = 0.0,
    ls: float = 0.0,
) -> MbvdParams:
    """Invert (fs, k2, c0, Q) into motional element values.

    cm = c0 * (1/(1 - 8*k2/pi^2) - 1), lm from fs, rm from the motional
    quality factor Q = 2*pi*fs*lm / rm.  Q = inf gives a lossless motional
    branch.
    """
    rm, lm, cm = _motional(fs, k2, c0, q)
    return MbvdParams(rm=rm, lm=lm, cm=cm, c0=float(c0), rs=rs, ls=ls)


def _peak_frequency(fun, f_lo: float, f_hi: float) -> float:
    """Frequency of the interior maximum of a vectorized function of f.

    A geometric dense scan brackets the largest sample between its two
    neighbours; bounded Brent search refines the maximum inside them.
    """
    decades = math.log10(f_hi / f_lo)
    n = max(int(_SCAN_POINTS_PER_DECADE * decades) + 2, 64)
    grid = np.geomspace(f_lo, f_hi, n)
    i = int(np.argmax(fun(grid)))
    if i == 0 or i == n - 1:
        raise SearchError(
            f"no interior maximum in [{f_lo:g}, {f_hi:g}] Hz (peak on boundary)"
        )
    res = minimize_scalar(lambda f: -float(fun(np.array([f]))[0]),
                          bounds=(grid[i - 1], grid[i + 1]), method="bounded",
                          options={"xatol": _PEAK_REL_TOL * grid[i]})
    return float(res.x)


def perceived_resonance(p: MbvdParams) -> float:
    """Frequency of the admittance-magnitude maximum of the loaded model.

    Routing inductance pulls this below the mechanical fs; with no parasitics
    it coincides with fs.  The search band, fs / 100 to 1.02 fs, covers the
    mechanically driven peak only.
    """
    fs = series_resonance(p)
    return _peak_frequency(lambda g: np.abs(_admittance_values(p, _jw(g))),
                           fs / 100.0, fs * 1.02)


def q_at_antiresonance(p: MbvdParams) -> float:
    """Phase-derivative quality factor at the impedance-magnitude maximum.

    Q = (w/2) * |d(phase Z)/dw| = (w/2) * |Re(Z'/Z)| with Z = den / num and
    ' = d/ds, s = j*w, so Z'/Z = den'/den - num'/num in closed form.  A
    fully lossless resonator has no finite Q; the sentinel value inf is
    returned for that case.
    """
    if p.lossless():
        return math.inf
    fp = antiresonance(p)
    if 2.0 * fp == math.inf:
        raise DomainError(f"2*fp overflows for fp = {fp:g} Hz: no finite Q search band")
    f_max = _peak_frequency(lambda g: 1.0 / np.abs(_admittance_values(p, _jw(g))),
                            series_resonance(p) * 0.5, fp * 2.0)
    w = 2.0 * math.pi * f_max
    s = 1j * w
    pm, ps, num, den = _terms(p, s)
    # d/ds of pm, ps, num and den.
    dpm = 2.0 * s * p.lm * p.cm + p.rm * p.cm
    dps = p.r0 * p.c0
    dnum = p.cm * ps + p.c0 * pm + s * (p.cm * dps + p.c0 * dpm)
    dden = dpm * ps + pm * dps + p.ls * num + (p.rs + s * p.ls) * dnum
    return 0.5 * w * abs((dden / den - dnum / num).real)


def summarize(p: MbvdParams) -> ResonatorSummary:
    """Bundle all derived scalar figures of one resonator."""
    return ResonatorSummary(
        fs=series_resonance(p),
        fp=antiresonance(p),
        f_perceived=perceived_resonance(p),
        k2=coupling_k2(p),
        q_antires=q_at_antiresonance(p),
    )
