"""Two-port ladder algebra: ABCD cascades and S-parameter conversion."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import ComplexCurve, validate_grid
from .errors import DomainError, GridAlignmentError, SingularConversionError
from .mbvd import MbvdParams, _admittance_values, _check_defined, _jw, resonator_admittance


def _check_z0(z0: float, name: str = "reference impedance") -> None:
    if not 0 < z0 < math.inf:
        raise DomainError(f"{name} must be positive and finite")


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
        _check_z0(self.z0)
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
        _check_z0(self.z0, "port impedance")
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


def _fold(chain: tuple, kind: ElementKind, y: np.ndarray) -> tuple:
    """Chain matrix (a, b, c, d) times the element of kind with admittance y,
    written out with the element's 1s and 0s."""
    a, b, c, d = chain
    if kind is ElementKind.SERIES:
        z = 1.0 / y
        return a, a * z + b, c, c * z + d
    if kind is ElementKind.SHUNT:
        return a + b * y, b, c + d * y, d
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


def _delta(a, b, c, d, z0: float):
    """Denominator delta = a + b/z0 + c*z0 + d of the ABCD->S conversion."""
    return a + b / z0 + c * z0 + d


def _nonzero(freq_hz: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """delta, or SingularConversionError at the first frequency where it is 0."""
    if not delta.all():
        raise SingularConversionError(float(freq_hz[np.flatnonzero(delta == 0)[0]]))
    return delta


def _to_s(freq_hz: np.ndarray, a, b, c, d, z0: float, delta: np.ndarray) -> np.ndarray:
    """Scattering matrices at reference z0 of the chain matrices (a, b, c, d),
    given their nonzero delta = _delta(a, b, c, d, z0)."""
    bz, cz = b / z0, c * z0
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
    _check_z0(z0)
    f = block.freq_hz
    chain = _entries(block.mats)
    s = _to_s(f, *chain, z0, _nonzero(f, _delta(*chain, z0)))
    return SParameterBlock(f, s, z0=z0)


def _chain(design: LadderDesign, f: np.ndarray, jw: np.ndarray) -> tuple:
    """Chain matrix (a, b, c, d) of a ladder on a checked grid f, jw = _jw(f),
    and its nonzero delta at the port impedance.

    Each distinct resonator (equal MbvdParams) is evaluated once, and each
    element is folded into the chain.  Any non-finite entry makes delta
    non-finite, so only delta is checked; only then are the entries checked
    and a lossless resonator sampled exactly at a resonance named by
    _check_defined.
    """
    admittances: dict[MbvdParams, np.ndarray] = {}
    chain = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for kind, p in design.elements:
            y = admittances.get(p)
            if y is None:
                y = admittances[p] = _admittance_values(p, jw)
            chain = _element(kind, y) if chain is None else _fold(chain, kind, y)
        delta = _delta(*chain, design.z0)
    if not np.isfinite(delta).all() and not all(np.all(np.isfinite(v)) for v in chain):
        for kind, p in design.elements:
            _check_defined(p, f, inverted=kind is ElementKind.SERIES)
        raise DomainError("ABCD matrices contain non-finite entries")
    return chain, _nonzero(f, delta)


def build_ladder_response(design: LadderDesign, freq_hz) -> SParameterBlock:
    """Evaluate a ladder design to two-port S-parameters on a grid.

    The grid is checked once; the chain matrices are carried as four
    complex vectors a, b, c, d and updated elementwise.
    """
    f = validate_grid(np.atleast_1d(np.asarray(freq_hz, dtype=float)))
    chain, delta = _chain(design, f, _jw(f))
    s = _to_s(f, *chain, design.z0, delta)
    return _unchecked(SParameterBlock, freq_hz=f, s=s, z0=design.z0)


_DB_OF_2 = 20.0 * math.log10(2.0)


def _ladder_s21_db(design: LadderDesign, f: np.ndarray, jw: np.ndarray) -> np.ndarray:
    """|S21| in dB of a ladder on a checked grid f, jw = _jw(f), from delta
    alone: 20*log10|2/delta| as 20*log10(2) - 20*log10|delta|."""
    _, delta = _chain(design, f, jw)
    return _DB_OF_2 - 20.0 * np.log10(np.abs(delta))


def one_port_s11(p: MbvdParams, freq_hz, z0: float = 50.0) -> ComplexCurve:
    """Reflection coefficient of a resonator measured as a one-port."""
    _check_z0(z0)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = resonator_admittance(p, freq_hz)
        z = 1.0 / y.values
        s11 = (z - z0) / (z + z0)
    if not np.all(np.isfinite(s11)):
        _check_defined(p, y.freq_hz)
        raise DomainError("S11 contains non-finite entries")
    return ComplexCurve(y.freq_hz, s11, label="S11")


def admittance_from_s11(s11: ComplexCurve, z0: float = 50.0) -> ComplexCurve:
    """Invert a one-port reflection measurement back to input admittance.

    A sample at S11 = -1, a short circuit, has no finite admittance and
    raises DomainError naming its frequency.
    """
    _check_z0(z0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = (1.0 - s11.values) / (1.0 + s11.values) / z0
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        i = bad[0]
        raise DomainError(f"S11 = {s11.values[i]:.6g} at {s11.freq_hz[i]:.10g} Hz has no "
                          "finite admittance (S11 = -1 is a short circuit)")
    return ComplexCurve(s11.freq_hz, y, label="Y")
