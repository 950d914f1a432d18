"""Two-port ladder algebra: ABCD cascades and S-parameter conversion.

build_ladder_response gives a ladder's full S block.  _ladder_s21 gives
S21 alone, for a caller that scores only |S21| (the CLI's sweep): both
share the checked denominator delta (_ladder_delta), so they raise the
same errors, except that _ladder_s21 keeps a design whose S11 or S22
alone overflows.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import ComplexCurve, _unchecked, validate_grid
from .errors import DomainError, GridAlignmentError, SingularConversionError
from .mbvd import MbvdParams, _immittance, resonator_admittance


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
        return _unchecked(ComplexCurve, freq_hz=self.freq_hz, values=self.s[:, 1, 0])


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


def _entries(mats: np.ndarray) -> tuple:
    return mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]


def _stack(n: int, a, b, c, d) -> np.ndarray:
    """(n, 2, 2) array from four entries, each a vector or a scalar."""
    mats = np.empty((n, 2, 2), dtype=complex)
    mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1] = a, b, c, d
    return mats


def _nonzero(freq_hz: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """delta, or SingularConversionError at the first frequency where it is 0."""
    if not delta.all():
        raise SingularConversionError(float(freq_hz[np.flatnonzero(delta == 0)[0]]))
    return delta


def element_abcd(kind: ElementKind, p: MbvdParams, freq_hz) -> AbcdBlock:
    """ABCD block of one resonator as a series element of impedance z or a
    shunt of admittance y; an undefined or non-finite z or y is a DomainError."""
    if not isinstance(kind, ElementKind):
        raise DomainError(f"unknown element kind {kind!r}")
    f = validate_grid(np.atleast_1d(np.asarray(freq_hz, dtype=float)))
    series = kind is ElementKind.SERIES
    v = _immittance(p, f, impedance=series)
    mats = _stack(f.size, 1.0, v, 0.0, 1.0) if series else _stack(f.size, 1.0, 0.0, v, 1.0)
    return _unchecked(AbcdBlock, freq_hz=f, mats=mats)


def identity_block(freq_hz) -> AbcdBlock:
    f = validate_grid(np.asarray(freq_hz, dtype=float))
    return AbcdBlock(f, _stack(f.size, 1.0, 0.0, 0.0, 1.0))


def cascade(blocks: Sequence[AbcdBlock], grid=None) -> AbcdBlock:
    """Left-to-right per-frequency matrix product of two-port blocks, by
    np.matmul on their (n, 2, 2) stacks, into a new array.

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
    with np.errstate(all="ignore"):
        mats = functools.reduce(np.matmul, [b.mats for b in blocks[1:]], blocks[0].mats.copy())
    return AbcdBlock(ref, mats)


def _b_over_z0(b: np.ndarray, z0: float) -> np.ndarray:
    """B/z0 as B*(1/z0); where 1/z0 overflows (a subnormal z0), part by part
    as B.real/z0 and B.imag/z0, so that a zero part stays 0 where 0*inf
    would be NaN."""
    inverse = 1.0 / z0
    if inverse < math.inf:
        return b * inverse
    bz = np.empty_like(b)
    np.divide(b.real, z0, out=bz.real)
    np.divide(b.imag, z0, out=bz.imag)
    return bz


def abcd_to_s(block: AbcdBlock, z0: float) -> SParameterBlock:
    """Convert chain matrices to scattering parameters at reference z0; a zero
    denominator is a SingularConversionError and an overflow a DomainError."""
    _check_z0(z0)
    f = block.freq_hz
    a, b, c, d = _entries(block.mats)
    with np.errstate(all="ignore"):
        bz, cz = _b_over_z0(b, z0), c * z0
        delta = _nonzero(f, a + bz + cz + d)
        s = _stack(f.size, (a + bz - cz - d) / delta, 2.0 * (a * d - b * c) / delta,
                   2.0 / delta, (-a + bz - cz + d) / delta)
    if not np.isfinite(s).all():
        raise DomainError("S-parameters contain non-finite entries")
    return _unchecked(SParameterBlock, freq_hz=f, s=s, z0=z0)


def _row(elements, p, q) -> tuple:
    """The row (p, q) @ M of the ladder's chain matrix M.

    elements are (series, v) pairs in ladder order.  A series element of
    impedance v = z maps each row (p, q) to (p, p*z + q), a shunt of
    admittance v = y to (p + q*y, q).  The row [1, z0] @ M = (P, Q) gives
    the ABCD->S denominator delta = P + Q/z0.  Nothing is checked here, and
    callers evaluate under np.errstate: any non-finite value in that row,
    from a division by zero or an overflow, makes delta non-finite.

    Each update is a new product to which the other entry is added in
    place, so that p and q, once updated, are arrays of their own, and the
    sums keep their bits.
    """
    for series, v in elements:
        if series:
            pv = p * v
            pv += q
            q = pv
        else:
            qv = q * v
            qv += p
            p = qv
    return p, q


def _over_z0(q, z0: float):
    """Q/z0 of a row entry from _row, as Q*(1/z0).

    A Q that no series element touched is still the scalar +-z0, and its
    Q/z0 is +-1 exactly, where z0*(1/z0) need not be (at a subnormal z0,
    1/z0 overflows)."""
    return q * (1.0 / z0) if isinstance(q, np.ndarray) else q / z0


def _ladder_delta(design: LadderDesign, freq_hz) -> tuple:
    """The checked grid, the ladder's (series, v) elements (see _row), and
    P, Q/z0 and delta = P + Q/z0 of its row [1, z0].

    The grid is checked once, and each distinct (kind, resonator) pair is
    evaluated once by _immittance, as z for a series element and y for a
    shunt, which names a lossless resonator sampled exactly at a resonance
    and an overflow.  A delta that is not finite is a DomainError, and a
    zero delta a SingularConversionError.

    Each Q/z0 is formed as Q*(1/z0): numpy divides a complex array by a
    real scalar as a multiply by its reciprocal, so every component keeps
    its value, and its bits unless it is 0 (which may take the other sign),
    without a complex division pass.
    """
    f = validate_grid(np.atleast_1d(np.asarray(freq_hz, dtype=float)))
    z0 = design.z0
    values: dict[tuple[ElementKind, MbvdParams], np.ndarray] = {}
    elements = []
    for kind, res in design.elements:
        series = kind is ElementKind.SERIES
        v = values.get((kind, res))
        if v is None:
            v = values[kind, res] = _immittance(res, f, impedance=series)
        elements.append((series, v))
    with np.errstate(all="ignore"):
        p, q = _row(elements, 1.0, z0)
        q_z0 = _over_z0(q, z0)
        delta = p + q_z0
    if not np.isfinite(delta).all():
        raise DomainError("ladder response contains non-finite entries")
    return f, elements, p, q_z0, _nonzero(f, delta)


def build_ladder_response(design: LadderDesign, freq_hz) -> SParameterBlock:
    """Evaluate a ladder design to two-port S-parameters on a grid.

    delta = P + Q/z0 comes from _ladder_delta, with its checks; the row
    [1, -z0] = (R, T) is then carried through the same chain matrices.
    S11 = (R + T/z0) / delta, S22 = (Q/z0 - P) / delta and
    S21 = S12 = 2 / delta, since every element's chain matrix has
    determinant 1 (Pozar, Microwave Engineering, sec. 4.4).  Values that
    overflow raise DomainError instead of giving non-finite S-parameters.
    """
    f, elements, p, q_z0, delta = _ladder_delta(design, freq_hz)
    z0 = design.z0
    with np.errstate(all="ignore"):
        r, t = _row(elements, 1.0, -z0)
        s21 = 2.0 / delta
        s = _stack(f.size, (r + _over_z0(t, z0)) / delta, s21, s21, (q_z0 - p) / delta)
    if not np.isfinite(s).all():
        raise DomainError("S-parameters contain non-finite entries")
    return _unchecked(SParameterBlock, freq_hz=f, s=s, z0=z0)


def _ladder_s21(design: LadderDesign, freq_hz) -> ComplexCurve:
    """S21 = 2 / delta of a ladder design on a grid, with the checks of
    build_ladder_response's delta (_ladder_delta); an S21 that is not
    finite is a DomainError.  Its values have the bits of
    build_ladder_response(design, freq_hz).s21().values, without the row
    [1, -z0], S11 and S22.
    """
    f, _, _, _, delta = _ladder_delta(design, freq_hz)
    with np.errstate(all="ignore"):
        s21 = 2.0 / delta
    if not np.isfinite(s21).all():
        raise DomainError("S-parameters contain non-finite entries")
    return _unchecked(ComplexCurve, freq_hz=f, values=s21)


_DB_OF_2 = 20.0 * math.log10(2.0)


def _ladder_s21_db(elements, z0: float) -> np.ndarray:
    """|S21| in dB of the ladder of (series, v) elements (see _row), from
    delta = P + Q*(1/z0) alone: 20*log10|2/delta| as
    20*log10(2) - 20*log10|delta|.

    Called under np.errstate.  Where build_ladder_response of the same
    elements names a fault (a delta that is not finite or is 0, or a series
    short, z = 0), this raises one generic DomainError.  The test runs on
    |delta|, which the dB needs anyway: a |delta| that is positive and
    finite everywhere is a finite, nonzero delta, and only where it is not
    (a fault, or a finite delta whose |delta| overflows) are delta's own
    entries tested.  delta is formed, and |delta| turned into dB, in place,
    with every value's bits those of the expressions above.
    """
    p, q = _row(elements, 1.0, z0)
    delta = _over_z0(q, z0)
    delta += p
    mag = np.abs(delta)
    if ((not (mag.min() > 0.0 and mag.max() < math.inf)
         and (not np.isfinite(delta).all() or not delta.all()))
            or any(series and not v.all() for series, v in elements)):
        raise DomainError("the ladder has no finite response")
    np.log10(mag, out=mag)
    mag *= -20.0
    mag += _DB_OF_2
    return mag


def one_port_s11(p: MbvdParams, freq_hz, z0: float = 50.0) -> ComplexCurve:
    """Reflection coefficient of a resonator measured as a one-port."""
    _check_z0(z0)
    with np.errstate(all="ignore"):
        y = resonator_admittance(p, freq_hz)
        z = 1.0 / y.values
        s11 = (z - z0) / (z + z0)
    if not np.all(np.isfinite(s11)):
        _immittance(p, y.freq_hz, impedance=True)
        raise DomainError("S11 contains non-finite entries")
    return _unchecked(ComplexCurve, freq_hz=y.freq_hz, values=s11)


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
    return ComplexCurve(s11.freq_hz, y)
