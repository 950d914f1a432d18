"""Frequency grids, the ``a:b:n`` specs of grids and ranges, and complex sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Largest count of a start:stop:count grid or --range spec.  A larger count
# is rejected before anything is allocated; a grid of this size takes tens
# of megabytes per complex array.
MAX_POINTS = 1_000_000


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


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass from fields known to be valid."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class ComplexCurve:
    """Complex samples (admittance or an S-parameter entry) on a frequency grid."""

    freq_hz: np.ndarray
    values: np.ndarray

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


def _split_spec(spec: str, name: str) -> tuple[float, float, int]:
    """The floats a, b and the int n of an ``a:b:n`` spec, with n at most
    MAX_POINTS; ``name`` begins each error message."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"{name} spec {spec!r} is not of the form start:stop:count")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"{name} spec {spec!r}: {exc}") from None
    if n > MAX_POINTS:
        raise DomainError(f"{name} count must be at most {MAX_POINTS}")
    return a, b, n


def parse_grid_spec(spec: str) -> np.ndarray:
    """Parse a ``start:stop:count`` grid spec (hertz) into a linear grid."""
    start, stop, count = _split_spec(spec, "grid")
    if count < 2:
        raise DomainError("grid count must be at least 2")
    if not (0.0 < start < stop < math.inf):
        raise DomainError("grid requires 0 < start < stop < inf")
    return np.linspace(start, stop, count)


def _parse_range_spec(spec: str) -> np.ndarray:
    """Parse the ``a:b:n`` values of a swept parameter (a ``--range``)."""
    a, b, n = _split_spec(spec, "--range")
    if n < 1 or not (a <= b and math.isfinite(b - a)):
        raise DomainError("--range requires finite a <= b and n >= 1")
    return np.linspace(a, b, n)
