"""Modified mmWave MBVD resonator model and derived scalar quantities.

The resonator is a series RLC motional branch in parallel with a static
capacitance (optionally lossy), the combination loaded by series routing
resistance and inductance.  High-coupling A1-mode devices additionally show
an EM self-resonance formed by the routing inductance against the static
capacitance; both effects are captured by the same lumped circuit.

Multiplied out, the admittance is a rational function of s of fixed
degree (rational_coefficients).  The fit's seed is a linear fit of its
coefficients, and the perceived resonance and the Q frequency are the
extrema of |Y|, found from the real roots of a polynomial of degree 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ComplexCurve, _unchecked, validate_grid
from .errors import DomainError, InfeasibleCouplingError, SearchError

# Upper bound of the coupling definition k2 = (pi^2/8) * (fp^2 - fs^2) / fp^2.
K2_MAX = math.pi**2 / 8.0

# Largest |Im x| / |x| of a root of the stationary-point polynomial taken as
# real; a near-real pair of a saddle only adds a candidate that loses.
_REAL_ROOT_TOL = 1e-6
# The exact powers j^0 .. j^4, and the exponents 0, 1, 2, ...
_J_POWERS = np.array([1.0, 1j, -1.0, -1j, 1.0])
_POWERS = np.arange(5.0)
_POWERS7 = np.arange(7.0)
_EPS = np.finfo(float).eps
# The perceived resonance's band, as multiples of fs.
_PERCEIVED_BAND = (0.01, 1.02)
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


def _routing(jw, rs: float, ls: float):
    """The routing impedance rs + jw*ls of _circuit_terms, or None where
    rs = ls = 0."""
    return rs + jw * ls if rs or ls else None


def _terms(p: MbvdParams, jw):
    """pm, ps, num and den of the admittance Y = num / den of p (see
    _circuit_terms)."""
    return _circuit_terms(jw, p.rm, p.lm, p.cm, p.c0, _routing(jw, p.rs, p.ls), p.r0)


def _circuit_terms(jw, rm, lm, cm, c0, routing=None, r0=0.0):
    """pm, ps, num and den of the admittance Y = num / den of the circuit
    with these element values, taken as they are.

    With s = jw, the motional branch is pm / (s*cm), the static branch
    ps / (s*c0) and their parallel admittance num / (pm*ps), so that
    Y = 1 / (rs + s*ls + pm*ps/num) = num / (pm*ps + (rs + s*ls)*num) takes
    one division.  ``routing`` is _routing(jw, rs, ls): a caller that
    shares jw and the parasitics among many circuits forms it once.
    Without r0, ps is 1 and is not formed, and without a routing term den
    is pm*ps; skipping them gives the same values with fewer array passes.
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
    den = branches if routing is None else branches + routing * num
    return pm, ps, num, den


def _immittance(p: MbvdParams, f: np.ndarray, impedance: bool = False) -> np.ndarray:
    """The admittance Y = num / den of p on the checked grid f, or with
    ``impedance`` Z = den / num, formed once from _terms.

    A Y or Z that is not finite, or a Z of 0, is a DomainError named from
    num and den.  den vanishes at the series resonance when rm = rs = ls = 0
    and where a lossless resonator resonates with ls; num at the
    anti-resonance when rm = r0 = 0, where Y = 0 exactly (an open shunt) and
    Z is undefined.  Anything else is an overflow, or a Z that underflows.
    """
    with np.errstate(all="ignore"):
        pm, _, num, den = _terms(p, _jw(f))
        v = den / num if impedance else num / den
    if np.isfinite(v).all() and (not impedance or v.all()):
        return v
    i = np.flatnonzero(den == 0)
    if i.size:
        name = "series resonance" if pm[i[0]] == 0 else "resonance with its routing inductance"
        raise DomainError(_UNDEFINED.format(name, f[i[0]], "admittance"))
    if impedance:
        i = np.flatnonzero(num == 0)
        if i.size:
            raise DomainError(_UNDEFINED.format("anti-resonance", f[i[0]], "impedance"))
    raise DomainError(f"{'impedance' if impedance else 'admittance'} contains non-finite entries")


def _log_jacobian(q, jw, pm, ps, den, y) -> tuple:
    """dY/d(log q) = q * dY/dq for the element values q = (rm, lm, cm, c0,
    rs, ls), from the terms _circuit_terms gives for them on jw and
    y = num / den: one complex row per parameter.

    The routing R = rs + s*ls enters only den, so dY = -Y^2 dR.  The
    branches enter through pm, ps and num = s*(cm*ps + c0*pm), and there
    dY = (dnum*pm*ps - num*d(pm*ps)) / den^2 reduces, with u = s*cm*ps^2 /
    den^2, to u for cm, -d(log pm)*u for rm and lm (whose d(log pm) are
    s*rm*cm and s^2*lm*cm) and s*c0*pm^2 / den^2 for c0.
    """
    rm, lm, cm, c0, rs, ls = q
    sg = jw / (den * den)
    u = sg * (cm * ps * ps)
    su = jw * u
    y2 = y * y
    return (
        su * (-rm * cm),
        jw * su * (-lm * cm),
        u,
        sg * c0 * (pm * pm),
        y2 * -rs,
        y2 * (jw * -ls),
    )


def admittance_log_jacobian(p: MbvdParams, f: np.ndarray) -> np.ndarray:
    """Derivatives dY/d(log q) = q * dY/dq for q = rm, lm, cm, c0, rs, ls.

    Returns one complex column per parameter, shape (len(f), 6).
    """
    jw = _jw(f)
    pm, ps, num, den = _terms(p, jw)
    q = (p.rm, p.lm, p.cm, p.c0, p.rs, p.ls)
    return np.stack(_log_jacobian(q, jw, pm, ps, den, num / den), axis=1)


def resonator_admittance(p: MbvdParams, freq_hz) -> ComplexCurve:
    """Input admittance of the full parasitic-loaded resonator on a grid; a
    division by zero or an overflow is a DomainError (see _immittance)."""
    f = validate_grid(np.atleast_1d(np.asarray(freq_hz, dtype=float)))
    return _unchecked(ComplexCurve, freq_hz=f, values=_immittance(p, f))


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


def rational_coefficients(p: MbvdParams, w0: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending coefficients of Y = num(t) / den(t) in t = s / w0.

    num = a1*t + a2*t^2 + a3*t^3 and den = 1 + b1*t + b2*t^2 + b3*t^3 +
    b4*t^4 are _circuit_terms multiplied out.  In t every inductance and
    capacitance is w0 times its value in s, so with L = w0*lm, C = w0*cm,
    C0 = w0*c0 and Ls = w0*ls: a1 = C0 + C, a2 = C0*C*(rm + r0),
    a3 = C0*L*C, b1 = rm*C + r0*C0 + rs*a1, b2 = L*C + rm*C*r0*C0 + rs*a2 +
    Ls*a1, b3 = L*C*r0*C0 + rs*a3 + Ls*a2 and b4 = Ls*a3.  A w0 near the
    resonances keeps the coefficients near 1.  Python floats overflow to inf
    without a warning.
    """
    w0 = float(w0)
    lm, cm, c0, ls = w0 * p.lm, w0 * p.cm, w0 * p.c0, w0 * p.ls
    rm, rs, r0 = float(p.rm), float(p.rs), float(p.r0)
    lc = lm * cm
    a1 = c0 + cm
    a2 = c0 * cm * (rm + r0)
    a3 = c0 * lc
    num = np.array([0.0, a1, a2, a3])
    den = np.array([1.0, rm * cm + r0 * c0 + rs * a1, lc + rm * cm * r0 * c0 + rs * a2 + ls * a1,
                    lc * r0 * c0 + rs * a3 + ls * a2, ls * a3])
    return num, den


def _normalized(c: np.ndarray) -> np.ndarray:
    """c scaled by a power of two to a largest |coefficient| in [0.5, 1).

    The scaling is exact and moves no extremum of |Y|, and it keeps the
    squares and products of the coefficients from overflowing.  Coefficients
    that overflowed in the map stay inf or NaN.
    """
    return np.ldexp(c, -math.frexp(float(np.max(np.abs(c))))[1])


def _squared_magnitude(c: np.ndarray) -> np.ndarray:
    """The coefficients in x = u^2 of |c(j*u)|^2 for real ascending c.

    c(j*u) has the coefficients cj = c * j^k in u, and |c|^2 = c * conj(c)
    those of cj convolved with conj(cj), whose odd powers of u cancel.
    """
    cj = c * _J_POWERS[:c.size]
    return np.convolve(cj, cj.conj())[::2].real


def _stationary_points(p: MbvdParams, fs: float) -> tuple:
    """The real roots x = (f/fs)^2 of D = A'B - AB', the stationary points
    of |Y| of p, with the num and den coefficients of Y in t = s / (2*pi*fs)
    that they were found from, each scaled by a power of two (_normalized),
    and the polynomials A, B, A', B', A'', B'' as columns, which
    _band_extremum evaluates at the roots.

    With x = (f/fs)^2, |Y|^2 = A(x) / B(x) for the polynomials A (degree 3)
    and B (degree 4) of the coefficient map, so that D has degree 6.  One
    np.roots call serves every band that summarize searches.  Coefficients
    that overflow in the map are a DomainError.
    """
    with np.errstate(all="ignore"):
        num, den = (_normalized(c) for c in rational_coefficients(p, 2.0 * math.pi * fs))
        # Columns A, B, A', B', A'', B'', ascending.
        polys = np.zeros((5, 6))
        polys[:4, 0] = _squared_magnitude(num)
        polys[:, 1] = _squared_magnitude(den)
        polys[:4, 2:4] = polys[1:, :2] * _POWERS[1:, None]
        polys[:3, 4:] = polys[1:4, 2:4] * _POWERS[1:4, None]
        if not np.isfinite(polys).all():
            raise DomainError(
                f"the rational coefficients of Y overflow: no closed-form extremum of |Y| "
                f"for fs = {fs:g} Hz"
            )
        a, b, da, db = polys[:4, 0], polys[:, 1], polys[:3, 2], polys[:4, 3]
        d = np.convolve(da, b) - np.convolve(a, db)
        # Leading terms below rounding over the wider band searched only add
        # roots far outside it, and their huge companion entries spoil the
        # others.  That band is the Q band up to 2*fp (fp as antiresonance(p)
        # computes it), or the perceived band where p has no Q band: a
        # lossless resonator, or an fp whose double overflows.
        hi = _PERCEIVED_BAND[1]
        if not p.lossless():
            fp = fs * math.sqrt(1.0 + p.cm / p.c0)
            if 2.0 * fp < math.inf:
                hi = 2.0 * fp / fs
        size = np.abs(d) * (hi * hi) ** _POWERS7
        keep = np.flatnonzero(size > _EPS * size.max())
        r = np.roots(d[:keep[-1] + 1][::-1]) if keep.size else np.empty(0)
        x = r.real[np.abs(r.imag) <= _REAL_ROOT_TOL * np.abs(r)]
    return x, num, den, polys


def _band_extremum(fs: float, points: tuple, lo: float, hi: float, largest: bool) -> float:
    """Frequency of the interior maximum (or minimum) of |Y| on
    [lo*fs, hi*fs], picked from the stationary points of _stationary_points.

    A stationary point x is a maximum of |Y| where D' = A''B - AB'' < 0 and
    a minimum where D' > 0; each such point in the band gets one Newton step
    on D, evaluated from A and B.  The points, then the two band ends, are
    compared on |num / den|, and a band end that wins is a SearchError.  A
    pole of a lossless resonator (B = 0) is a maximum where |Y| is inf.
    """
    roots, num, den, polys = points
    x_lo, x_hi = lo * lo, hi * hi
    with np.errstate(all="ignore"):
        x = roots[(x_lo < roots) & (roots < x_hi)]
        av, bv, dav, dbv, ddav, ddbv = (x[:, None] ** _POWERS @ polys).T
        slope = ddav * bv - av * ddbv
        polished = x - (dav * bv - av * dbv) / slope
        x = np.where((x_lo < polished) & (polished < x_hi), polished, x)
        # Ties go to the first candidate: an interior extremum over a band end.
        x = np.concatenate([x[slope < 0 if largest else slope > 0], [x_lo, x_hi]])
        # |Y| from num and den at t = j*sqrt(x): near a pole, B in powers of
        # x loses its sign to rounding, and |den| does not.
        t = np.sqrt(x)[:, None] ** _POWERS * _J_POWERS
        mag = np.abs(t[:, :4] @ num) / np.abs(t @ den)
    i = int(np.argmax(mag) if largest else np.argmin(mag))
    if i >= x.size - 2:
        raise SearchError(
            f"no interior maximum in [{lo * fs:g}, {hi * fs:g}] Hz (peak on boundary)"
        )
    return fs * math.sqrt(x[i])


def _q(fs: float, fp: float, points: tuple) -> float:
    """Q of a lossy resonator at the minimum of |Y| on [0.5, 2*fp/fs]*fs,
    picked from the stationary points of |Y|; see q_at_antiresonance."""
    if 2.0 * fp == math.inf:
        raise DomainError(f"2*fp overflows for fp = {fp:g} Hz: no finite Q search band")
    u = _band_extremum(fs, points, 0.5, 2.0 * fp / fs, largest=False) / fs
    _, num, den, _ = points
    t = u ** _POWERS * _J_POWERS
    n, dn = t[:4] @ num, t[:3] @ (num[1:] * _POWERS[1:4])
    d, dd = t @ den, t[:4] @ (den[1:] * _POWERS[1:])
    return 0.5 * u * abs((dd / d - dn / n).real)


def perceived_resonance(p: MbvdParams) -> float:
    """Frequency of the admittance-magnitude maximum of the loaded model.

    Routing inductance pulls this below the mechanical fs; with no parasitics
    it coincides with fs.  The search band, fs / 100 to 1.02 fs, covers the
    mechanically driven peak only.  The same float that summarize reports.
    """
    fs = series_resonance(p)
    return _band_extremum(fs, _stationary_points(p, fs), *_PERCEIVED_BAND, largest=True)


def q_at_antiresonance(p: MbvdParams) -> float:
    """Phase-derivative quality factor at the impedance-magnitude maximum.

    Q = (w/2) * |d(phase Z)/dw| with Z = den / num.  In t = s / (2*pi*fs),
    the variable of the coefficients that _stationary_points returns with
    the roots, and at t = j*u, u = f/fs, that is
    Q = (u/2) * |Re(den'/den - num'/num)| with ' = d/dt.  A fully lossless
    resonator has no finite Q; the sentinel value inf is returned for that
    case.  The same float that summarize reports.
    """
    if p.lossless():
        return math.inf
    fs = series_resonance(p)
    return _q(fs, antiresonance(p), _stationary_points(p, fs))


def summarize(p: MbvdParams) -> ResonatorSummary:
    """Bundle all derived scalar figures of one resonator.

    The perceived resonance and the Q frequency are read from one root set
    of the stationary-point polynomial (_stationary_points), formed once.
    An error of the perceived band comes before one of the Q band.
    """
    fs = series_resonance(p)
    fp = antiresonance(p)
    points = _stationary_points(p, fs)
    return ResonatorSummary(
        fs=fs,
        fp=fp,
        f_perceived=_band_extremum(fs, points, *_PERCEIVED_BAND, largest=True),
        k2=coupling_k2(p),
        q_antires=math.inf if p.lossless() else _q(fs, fp, points),
    )
