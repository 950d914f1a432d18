"""Filter figures of merit extracted from a transmission curve.

All definitions are magnitude-only: insertion loss at the |S21| peak, band
edges by linear interpolation of the dB magnitude in frequency, center
frequency as the mean of the 3-dB edges, shape factor as the 20-dB to 3-dB
bandwidth ratio, and out-of-band rejection over a guarded stopband.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .curves import ComplexCurve
from .errors import (
    BandEdgeError,
    DegeneratePassbandError,
    DomainError,
    StopbandError,
)

DEFAULT_GUARD = 0.15

# "3 dB" edges use the exact half-power level 10*log10(2) ~ 3.0103 dB, the
# convention under which a single-pole resonator's 3-dB bandwidth is f0/Q.
_LEVEL3_DB = 10.0 * np.log10(2.0)
_LEVEL20_DB = 20.0

# Row names of the FilterMetrics fields, in field and CSV serialization order.
METRIC_NAMES = ("fc_hz", "il_db", "bw3_hz", "fbw3", "f_lo3_hz", "f_hi3_hz",
                "bw20_hz", "shape_factor20", "oob_rejection_db")


@dataclass(frozen=True)
class FilterMetrics:
    fc: float
    il_db: float
    bw3_hz: float
    fbw3: float
    f_lo3: float
    f_hi3: float
    bw20_hz: float
    shape_factor20: float
    oob_rejection_db: float

    def as_rows(self) -> list[tuple[str, float]]:
        """Named (metric, value) rows, the CSV serialization order."""
        return list(zip(METRIC_NAMES, astuple(self)))


def crossing_interpolate(
    f_a: float, y_a_db: float, f_b: float, y_b_db: float, target_db: float
) -> float:
    """Linear-in-frequency interpolation of a dB-level crossing."""
    if not f_a < f_b:
        raise DomainError("crossing bracket requires f_a < f_b")
    lo, hi = min(y_a_db, y_b_db), max(y_a_db, y_b_db)
    if not lo < target_db < hi:
        raise DomainError(
            f"target {target_db:g} dB not strictly inside bracket "
            f"({y_a_db:g}, {y_b_db:g}) dB"
        )
    t = (target_db - y_a_db) / (y_b_db - y_a_db)
    return f_a + t * (f_b - f_a)


def _edge(freq, mag_db, peak_idx, target_db, direction, level_db):
    """Nearest target_db crossing walking from the peak; direction is -1/+1."""
    n = freq.size
    i = peak_idx
    while True:
        j = i + direction
        if j < 0 or j >= n:
            raise BandEdgeError("low" if direction < 0 else "high", level_db)
        if mag_db[j] == target_db:
            return float(freq[j])
        if mag_db[j] < target_db:
            if direction < 0:
                return crossing_interpolate(freq[j], mag_db[j], freq[i], mag_db[i], target_db)
            return crossing_interpolate(freq[i], mag_db[i], freq[j], mag_db[j], target_db)
        i = j


def passband_metrics(s21: ComplexCurve, guard: float = DEFAULT_GUARD) -> FilterMetrics:
    """Extract all passband figures of merit from a transmission sweep.

    The grid must be dense enough to bracket both the 3-dB and the 20-dB
    crossings, and the |S21| maximum must be interior.  ``guard`` is the
    fractional offset from the 3-dB edges at which the stopband starts.
    """
    if guard < 0:
        raise DomainError("guard must be nonnegative")
    freq = s21.freq_hz
    mag_db = s21.magnitude_db
    peak_idx = int(np.argmax(mag_db))
    if peak_idx == 0 or peak_idx == freq.size - 1:
        raise DegeneratePassbandError("|S21| maximum sits on the grid boundary")
    peak_db = mag_db[peak_idx]

    f_lo3 = _edge(freq, mag_db, peak_idx, peak_db - _LEVEL3_DB, -1, 3.0)
    f_hi3 = _edge(freq, mag_db, peak_idx, peak_db - _LEVEL3_DB, +1, 3.0)
    f_lo20 = _edge(freq, mag_db, peak_idx, peak_db - _LEVEL20_DB, -1, 20.0)
    f_hi20 = _edge(freq, mag_db, peak_idx, peak_db - _LEVEL20_DB, +1, 20.0)

    bw3 = f_hi3 - f_lo3
    bw20 = f_hi20 - f_lo20
    fc = 0.5 * (f_lo3 + f_hi3)

    stop = (freq <= f_lo3 * (1.0 - guard)) | (freq >= f_hi3 * (1.0 + guard))
    if not np.any(stop):
        raise StopbandError("no grid points in the out-of-band region")
    oob = peak_db - float(np.max(mag_db[stop]))

    return FilterMetrics(
        fc=fc,
        il_db=-peak_db,
        bw3_hz=bw3,
        fbw3=bw3 / fc,
        f_lo3=f_lo3,
        f_hi3=f_hi3,
        bw20_hz=bw20,
        shape_factor20=bw20 / bw3,
        oob_rejection_db=oob,
    )
