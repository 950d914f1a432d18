"""Two-port ladder algebra: ABCD cascades and S-parameter conversion."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import ComplexCurve, validate_grid
from .errors import DomainError, GridAlignmentError, SingularConversionError
from .mbvd import MbvdParams, _admittance_values, _check_defined, resonator_admittance


class ElementKind(enum.Enum):
    SERIES = "series"
    SHUNT = "shunt"


@dataclass(frozen=True)
class AbcdBlock:
    """Per-frequency 2x2 chain (ABCD) matrices on a shared grid."""

    freq_hz: np.ndarray
    mats: np.ndarray  # shape (n, 2, 2), complex

    def __post_init__(self):
        f = validate_grid(self.freq_hz)
        m = np.asarray(self.mats, dtype=complex)
        if m.shape != (f.size, 2, 2):
            raise DomainError("ABCD matrices must have shape (n, 2, 2)")
        if not np.all(np.isfinite(m)):
            raise DomainError("ABCD matrices contain non-finite entries")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "mats", m)


@dataclass(frozen=True)
class SParameterBlock:
    """Per-frequency 2x2 scattering matrices with a real reference impedance."""

    freq_hz: np.ndarray
    s: np.ndarray  # shape (n, 2, 2), complex
    z0: float = 50.0

    def __post_init__(self):
        f = validate_grid(self.freq_hz)
        s = np.asarray(self.s, dtype=complex)
        if s.shape != (f.size, 2, 2):
            raise DomainError("S matrices must have shape (n, 2, 2)")
        if not self.z0 > 0:
            raise DomainError("reference impedance must be positive")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "s", s)

    # The grid and the shape of s were checked when the block was built.
    def s21(self) -> ComplexCurve:
        return _unchecked(ComplexCurve, freq_hz=self.freq_hz, values=self.s[:, 1, 0],
                          label="S21")

    def s11(self) -> ComplexCurve:
        return _unchecked(ComplexCurve, freq_hz=self.freq_hz, values=self.s[:, 0, 0],
                          label="S11")


@dataclass(frozen=True)
class LadderDesign:
    """Ordered series/shunt elements, each referencing an MBVD record."""

    elements: tuple[tuple[ElementKind, MbvdParams], ...]
    z0: float = 50.0

    def __post_init__(self):
        if len(self.elements) == 0:
            raise DomainError("a ladder needs at least one element")
        for kind, p in self.elements:
            if not isinstance(kind, ElementKind) or not isinstance(p, MbvdParams):
                raise DomainError("elements must be (ElementKind, MbvdParams) pairs")
        if not self.z0 > 0:
            raise DomainError("port impedance must be positive")
        object.__setattr__(self, "elements", tuple(self.elements))


def shunt_series_shunt(shunt: MbvdParams, series: MbvdParams, z0: float = 50.0) -> LadderDesign:
    """The canonical three-resonator topology with identical shunts."""
    return LadderDesign(
        elements=(
            (ElementKind.SHUNT, shunt),
            (ElementKind.SERIES, series),
            (ElementKind.SHUNT, shunt),
        ),
        z0=z0,
    )


def _element(kind: ElementKind, y: np.ndarray) -> tuple:
    """Chain-matrix entries (a, b, c, d) of one element with admittance y."""
    if kind is ElementKind.SERIES:
        return 1.0, 1.0 / y, 0.0, 1.0
    if kind is ElementKind.SHUNT:
        return 1.0, 0.0, y, 1.0
    raise DomainError(f"unknown element kind {kind!r}")


def _product(m: tuple, n: tuple) -> tuple:
    """Per-frequency 2x2 product m @ n of chain matrices held as (a, b, c, d)."""
    a1, b1, c1, d1 = m
    a2, b2, c2, d2 = n
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _entries(mats: np.ndarray) -> tuple:
    return mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]


def _stack(n: int, a, b, c, d) -> np.ndarray:
    """(n, 2, 2) array from four entries, each a vector or a scalar."""
    mats = np.empty((n, 2, 2), dtype=complex)
    mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1] = a, b, c, d
    return mats


def _to_s(freq_hz: np.ndarray, a, b, c, d, z0: float) -> np.ndarray:
    """Scattering matrices at reference z0 of the chain matrices (a, b, c, d)."""
    bz, cz = b / z0, c * z0
    delta = a + bz + cz + d
    bad = np.flatnonzero(delta == 0)
    if bad.size:
        raise SingularConversionError(float(freq_hz[bad[0]]))
    return _stack(freq_hz.size,
                  (a + bz - cz - d) / delta,
                  2.0 * (a * d - b * c) / delta,
                  2.0 / delta,
                  (-a + bz - cz + d) / delta)


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass from fields known to be valid."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def element_abcd(kind: ElementKind, p: MbvdParams, freq_hz) -> AbcdBlock:
    """ABCD block of one resonator used as a series or shunt element."""
    y = resonator_admittance(p, freq_hz)
    return AbcdBlock(y.freq_hz, _stack(len(y), *_element(kind, y.values)))


def identity_block(freq_hz) -> AbcdBlock:
    f = validate_grid(np.asarray(freq_hz, dtype=float))
    return AbcdBlock(f, _stack(f.size, 1.0, 0.0, 0.0, 1.0))


def cascade(blocks: Sequence[AbcdBlock], grid=None) -> AbcdBlock:
    """Left-to-right per-frequency matrix product of two-port blocks.

    All blocks must share one exact grid; no resampling is ever performed.
    An empty sequence needs an explicit grid and yields the identity.
    """
    blocks = list(blocks)
    if not blocks:
        if grid is None:
            raise DomainError("cascade of zero blocks requires an explicit grid")
        return identity_block(grid)
    ref = blocks[0].freq_hz
    for b in blocks[1:]:
        if b.freq_hz.shape != ref.shape or not np.array_equal(b.freq_hz, ref):
            raise GridAlignmentError("cascaded blocks are on different frequency grids")
    chain = _entries(blocks[0].mats)
    for b in blocks[1:]:
        chain = _product(chain, _entries(b.mats))
    return AbcdBlock(ref, _stack(ref.size, *chain))


def abcd_to_s(block: AbcdBlock, z0: float) -> SParameterBlock:
    """Convert chain matrices to scattering parameters at reference z0."""
    if not z0 > 0:
        raise DomainError("reference impedance must be positive")
    s = _to_s(block.freq_hz, *_entries(block.mats), z0)
    return SParameterBlock(block.freq_hz, s, z0=z0)


def build_ladder_response(design: LadderDesign, freq_hz) -> SParameterBlock:
    """Evaluate a ladder design to two-port S-parameters on a grid.

    The grid is checked once; the chain matrices are carried as four
    complex vectors a, b, c, d and multiplied elementwise.
    """
    f = validate_grid(np.atleast_1d(np.asarray(freq_hz, dtype=float)))
    chain = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for kind, p in design.elements:
            m = _element(kind, _admittance_values(p, f))
            chain = m if chain is None else _product(chain, m)
    if not all(np.all(np.isfinite(v)) for v in chain):
        for _, p in design.elements:
            _check_defined(p, f)
        raise DomainError("ABCD matrices contain non-finite entries")
    return _unchecked(SParameterBlock, freq_hz=f, s=_to_s(f, *chain, design.z0),
                      z0=design.z0)


def one_port_s11(p: MbvdParams, freq_hz, z0: float = 50.0) -> ComplexCurve:
    """Reflection coefficient of a resonator measured as a one-port."""
    if not z0 > 0:
        raise DomainError("reference impedance must be positive")
    y = resonator_admittance(p, freq_hz)
    z = 1.0 / y.values
    return ComplexCurve(y.freq_hz, (z - z0) / (z + z0), label="S11")


def admittance_from_s11(s11: ComplexCurve, z0: float = 50.0) -> ComplexCurve:
    """Invert a one-port reflection measurement back to input admittance."""
    if not z0 > 0:
        raise DomainError("reference impedance must be positive")
    y = (1.0 - s11.values) / (1.0 + s11.values) / z0
    return ComplexCurve(s11.freq_hz, y, label="Y")
