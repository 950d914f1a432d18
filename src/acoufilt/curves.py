"""Frequency grids and complex-valued frequency sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


def validate_grid(freq_hz: np.ndarray) -> np.ndarray:
    """Validate a frequency grid: 1-D, finite, positive, strictly increasing."""
    f = np.asarray(freq_hz, dtype=float)
    if f.ndim != 1:
        raise DomainError("frequency grid must be one-dimensional")
    if f.size == 0:
        raise DomainError("frequency grid is empty")
    if not np.all(np.isfinite(f)):
        raise DomainError("frequency grid contains non-finite values")
    if np.any(f <= 0.0):
        raise DomainError("all frequencies must be positive")
    if f.size > 1 and np.any(np.diff(f) <= 0.0):
        raise DomainError("frequency grid must be strictly increasing")
    return f


@dataclass(frozen=True)
class ComplexCurve:
    """Complex samples (admittance or an S-parameter entry) on a frequency grid."""

    freq_hz: np.ndarray
    values: np.ndarray
    label: str = field(default="", compare=False)

    def __post_init__(self):
        f = validate_grid(self.freq_hz)
        v = np.asarray(self.values, dtype=complex)
        if v.shape != f.shape:
            raise DomainError("values and frequency grid have mismatched shapes")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.freq_hz.size

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def magnitude_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.values))

    @property
    def phase_deg(self) -> np.ndarray:
        return np.degrees(np.angle(self.values))


def sorted_curve(freq_hz, values, label: str = "") -> ComplexCurve:
    """Build a ComplexCurve from possibly unordered samples, sorting by frequency."""
    f = np.asarray(freq_hz, dtype=float)
    v = np.asarray(values, dtype=complex)
    order = np.argsort(f, kind="stable")
    return ComplexCurve(f[order], v[order], label=label)


def parse_grid_spec(spec: str) -> np.ndarray:
    """Parse a ``start:stop:count`` grid spec (hertz) into a linear grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec {spec!r} is not of the form start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"grid spec {spec!r}: {exc}") from None
    if count < 2:
        raise DomainError("grid count must be at least 2")
    if not (0.0 < start < stop):
        raise DomainError("grid requires 0 < start < stop")
    return np.linspace(start, stop, count)
