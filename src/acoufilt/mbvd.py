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


def _branches(p: MbvdParams, w: np.ndarray):
    """Motional and static branch impedances and their parallel admittance."""
    z_mot = p.rm + 1j * w * p.lm + 1.0 / (1j * w * p.cm)
    z_stat = p.r0 + 1.0 / (1j * w * p.c0)
    return z_mot, z_stat, 1.0 / z_mot + 1.0 / z_stat


def _admittance_values(p: MbvdParams, f: np.ndarray) -> np.ndarray:
    w = 2.0 * math.pi * f
    _, _, y_inner = _branches(p, w)
    return 1.0 / (p.rs + 1j * w * p.ls + 1.0 / y_inner)


def _check_defined(p: MbvdParams, f: np.ndarray) -> None:
    """Raise DomainError where the admittance of p is a division by zero.

    That happens only without loss and only exactly at a resonance: the
    motional impedance vanishes at the series resonance when rm = 0, the
    branch admittances cancel at the anti-resonance when rm = r0 = 0, and
    the whole impedance vanishes where a lossless resonator resonates with
    ls.  Callers evaluate under np.errstate and call this only when the
    result is not finite, so it costs nothing on the hot path.
    """
    w = 2.0 * math.pi * f
    with np.errstate(divide="ignore", invalid="ignore"):
        z_mot, _, y_inner = _branches(p, w)
        z = p.rs + 1j * w * p.ls + 1.0 / y_inner
    for hit, name in ((z_mot == 0, "series resonance"), (y_inner == 0, "anti-resonance"),
                      (z == 0, "resonance with its routing inductance")):
        i = np.flatnonzero(hit)
        if i.size:
            raise DomainError(f"lossless resonator sampled exactly at its {name}, "
                              f"{f[i[0]]:.10g} Hz: its admittance is undefined there")


def admittance_log_jacobian(p: MbvdParams, f: np.ndarray) -> np.ndarray:
    """Derivatives dY/d(log q) = q * dY/dq for q = rm, lm, cm, c0, rs, ls.

    Returns one complex column per parameter, shape (len(f), 6).  With
    Z = rs + j*w*ls + 1/y_inner and Y = 1/Z, dY = -Y^2 dZ, and a branch
    impedance z enters Z through dZ = dz / (y_inner * z)^2.
    """
    w = 2.0 * math.pi * f
    z_mot, z_stat, y_inner = _branches(p, w)
    y = 1.0 / (p.rs + 1j * w * p.ls + 1.0 / y_inner)
    g_mot = -((y / (y_inner * z_mot)) ** 2)
    g_stat = -((y / (y_inner * z_stat)) ** 2)
    g_route = -(y * y)
    return np.stack([
        g_mot * p.rm,
        g_mot * (1j * w * p.lm),
        g_mot * (1j / (w * p.cm)),
        g_stat * (1j / (w * p.c0)),
        g_route * p.rs,
        g_route * (1j * w * p.ls),
    ], axis=1)


def resonator_admittance(p: MbvdParams, freq_hz) -> ComplexCurve:
    """Input admittance of the full parasitic-loaded resonator on a grid."""
    f = validate_grid(np.atleast_1d(np.asarray(freq_hz, dtype=float)))
    return ComplexCurve(f, _admittance_values(p, f), label="Y")


def series_resonance(p: MbvdParams) -> float:
    """Mechanical series resonance fs = 1 / (2*pi*sqrt(lm*cm))."""
    return 1.0 / (2.0 * math.pi * math.sqrt(p.lm * p.cm))


def antiresonance(p: MbvdParams) -> float:
    """Anti-resonance fp = fs * sqrt(1 + cm/c0) of the unloaded circuit."""
    return series_resonance(p) * math.sqrt(1.0 + p.cm / p.c0)


def coupling_k2(p: MbvdParams) -> float:
    """Electromechanical coupling k2 = (pi^2/8) * (fp^2 - fs^2) / fp^2."""
    ratio = 1.0 + p.cm / p.c0  # (fp/fs)^2
    k2 = K2_MAX * (1.0 - 1.0 / ratio)
    return max(k2, 0.0)


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
    if not (fs > 0 and c0 > 0):
        raise DomainError("fs and c0 must be positive")
    if not q > 0:
        raise DomainError("q must be positive")
    if not 0.0 < k2 < K2_MAX:
        raise InfeasibleCouplingError(
            f"k2 must lie in (0, pi^2/8 ~ {K2_MAX:.4f}), got {k2:g}"
        )
    cm = c0 * (1.0 / (1.0 - k2 / K2_MAX) - 1.0)
    lm = 1.0 / ((2.0 * math.pi * fs) ** 2 * cm)
    rm = 0.0 if math.isinf(q) else 2.0 * math.pi * fs * lm / q
    return MbvdParams(rm=rm, lm=lm, cm=cm, c0=c0, rs=rs, ls=ls)


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


def perceived_resonance(p: MbvdParams, search_band: tuple[float, float] | None = None) -> float:
    """Frequency of the admittance-magnitude maximum of the loaded model.

    Routing inductance pulls this below the mechanical fs; with no parasitics
    it coincides with fs.  The band must contain exactly one local maximum of
    |Y|; the default band covers the mechanically driven peak only.
    """
    fs = series_resonance(p)
    if search_band is None:
        search_band = (fs / 100.0, fs * 1.02)
    f_lo, f_hi = search_band
    if not (0.0 < f_lo < f_hi):
        raise DomainError("search band must satisfy 0 < lo < hi")
    return _peak_frequency(lambda g: np.abs(_admittance_values(p, g)), f_lo, f_hi)


def q_at_antiresonance(p: MbvdParams) -> float:
    """Phase-derivative quality factor at the impedance-magnitude maximum.

    Q = (w/2) * |d(phase Z)/dw| = (w/2) * |Im(Z'/Z)|, with Z' = dZ/dw in
    closed form.  A fully lossless resonator has no finite Q; the sentinel
    value inf is returned for that case.
    """
    if p.lossless():
        return math.inf
    f_max = _peak_frequency(lambda g: 1.0 / np.abs(_admittance_values(p, g)),
                            series_resonance(p) * 0.5, antiresonance(p) * 2.0)
    w = 2.0 * math.pi * f_max
    z_mot, z_stat, y_inner = _branches(p, w)
    z = p.rs + 1j * w * p.ls + 1.0 / y_inner
    # dz/dw of the branches: j*lm + j/(w^2*cm) and j/(w^2*c0).
    dy_inner = (-(1j * p.lm + 1j / (w * w * p.cm)) / z_mot**2
                - (1j / (w * w * p.c0)) / z_stat**2)
    dz = 1j * p.ls - dy_inner / y_inner**2
    return 0.5 * w * abs((dz / z).imag)


def summarize(p: MbvdParams) -> ResonatorSummary:
    """Bundle all derived scalar figures of one resonator."""
    return ResonatorSummary(
        fs=series_resonance(p),
        fp=antiresonance(p),
        f_perceived=perceived_resonance(p),
        k2=coupling_k2(p),
        q_antires=q_at_antiresonance(p),
    )
