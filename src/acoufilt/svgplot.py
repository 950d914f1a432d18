"""Minimal hand-emitted SVG magnitude plot (no plotting dependency).

A convenience view only; the CSV outputs are the authoritative data.  The
output is fully deterministic for identical input.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import ComplexCurve

_W, _H = 800, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_FLOOR_DB = -80.0
# Most tick intervals an axis is divided into.
_TICKS = 6


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= _TICKS:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t / step) * step)
        t += step
    return ticks


def s21_magnitude_svg(curve: ComplexCurve) -> str:
    """Single polyline of |S21| in dB versus frequency in GHz, with ticks."""
    f_ghz = curve.freq_hz / 1e9
    db = np.maximum(curve.magnitude_db, _FLOOR_DB)
    x_lo, x_hi = float(f_ghz[0]), float(f_ghz[-1])
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
    xy = np.column_stack((px(f_ghz), py(db))).ravel().tolist()
    pts = " ".join(["%.3f,%.3f"] * len(f_ghz)) % tuple(xy)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_MT - 6}" '
                 f'font-size="13" text-anchor="middle">S21 magnitude</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
