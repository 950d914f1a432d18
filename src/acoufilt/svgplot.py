"""Minimal hand-emitted SVG magnitude plot (no plotting dependency).

A convenience view only; the CSV outputs are the authoritative data.  The
output is fully deterministic for identical input.

The polyline's numbers, 2 per point, are written as "%.3f" writes them by
a numpy kernel (_polyline_points): each value v in [0, 1000) is scaled to
v*1000 = p + e exactly (Dekker's two-product), rounded to an integer as
"%.3f" rounds it, ties exactly and to even, and written from lookup words.
A polyline with any other value is formatted by "%.3f" itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .curves import ComplexCurve
from .errors import DomainError

_W, _H = 800, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_FLOOR_DB = -80.0
# Most tick intervals an axis is divided into.
_TICKS = 6
# Veltkamp's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0


def _ticks(lo: float, hi: float) -> list[float]:
    """Multiples in [lo, hi], lo < hi, of a round step of at least span / _TICKS."""
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= _TICKS:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    # A step below half the spacing of floats at t would not advance it.
    while t <= hi + 1e-9 * span and t + step > t:
        ticks.append(round(t / step) * step)
        t += step
    return ticks


@functools.cache
def _number_words() -> tuple[np.ndarray, np.ndarray]:
    """The text, as machine words, of each integer part 0-999 with the
    point, and of each 3-digit fraction with a comma (an x) or a space
    (a y) after it, built on the first plot.  A zero byte is a byte the
    kernel leaves out."""
    heads = "".join(f"{i}.".ljust(4, "\0") for i in range(1000))
    tails = "".join(f"{i:03d}{sep}" for sep in ", " for i in range(1000))
    return (np.frombuffer(heads.encode("ascii"), np.uint32),
            np.frombuffer(tails.encode("ascii"), np.uint32))


def _polyline_points(xy: np.ndarray) -> str:
    """The points x0,y0 x1,y1 ... of the interleaved coordinates xy, each
    as "%.3f" formats it.

    With every value in [0, 1000), v*1000 is the exact p + e (Dekker's
    two-product; 1000 has 7 significant bits, so it needs no split), and
    h = p - r, r = rint(p), is exact.  The rounded value is r, or r + 2h,
    p's other integer neighbour, where h = +-0.5 and e has h's sign; an
    exact tie (e = 0) goes to even in rint as in "%.3f".  A value that is
    negative (-0.0 too), not below 1000 or NaN, or one that rounds to 1000,
    leaves the text to "%.3f".
    """
    if not np.signbit(xy).any() and (xy < 1000.0).all():
        p = xy * 1000.0
        c = _SPLIT * xy
        high = c - (c - xy)
        e = (high * 1000.0 - p) + (xy - high) * 1000.0
        r = np.rint(p)
        h = p - r
        away = (np.abs(h) == 0.5) & (np.sign(e) == np.sign(h))
        n = np.where(away, r + 2.0 * h, r).astype(np.int64)
        if n.max() < 1000000:
            heads, tails = _number_words()
            whole, frac = np.divmod(n, 1000)
            words = np.empty((xy.size // 2, 4), np.uint32)
            words[:, 0::2] = heads[whole].reshape(-1, 2)
            words[:, 1::2] = tails[frac.reshape(-1, 2) + (0, 1000)]
            return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")
    return " ".join(["%.3f,%.3f"] * (xy.size // 2)) % tuple(xy.tolist())


def s21_magnitude_svg(curve: ComplexCurve) -> str:
    """Single polyline of |S21| in dB versus frequency in GHz, with ticks; a
    zero frequency span or a non-finite |S21| is a DomainError."""
    f_ghz = curve.freq_hz / 1e9
    x_lo, x_hi = float(f_ghz[0]), float(f_ghz[-1])
    if not x_hi > x_lo:
        raise DomainError("cannot plot a curve whose frequency span is zero in GHz")
    db = np.maximum(curve.magnitude_db, _FLOOR_DB)
    if not np.isfinite(db).all():
        raise DomainError("cannot plot a curve with a non-finite |S21|")
    y_lo = float(math.floor(db.min() / 10.0) * 10.0)
    y_hi = float(math.ceil(db.max() / 10.0) * 10.0)
    if y_hi == y_lo:
        y_hi = y_lo + 10.0

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" font-size="11" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 10}" '
                 f'font-size="12" text-anchor="middle">frequency (GHz)</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(_MT + _H - _MB) / 2:.2f})">|S21| (dB)</text>')
    pts = _polyline_points(np.column_stack((px(f_ghz), py(db))).ravel())
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_MT - 6}" '
                 f'font-size="13" text-anchor="middle">S21 magnitude</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
