"""Filter figures of merit extracted from a transmission curve.

All definitions are magnitude-only: insertion loss at the |S21| peak, band
edges by linear interpolation of the dB magnitude in frequency, center
frequency as the mean of the 3-dB edges, shape factor as the 20-dB to 3-dB
bandwidth ratio, and out-of-band rejection over a guarded stopband.
"""

from __future__ import annotations

import math
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
_LEVEL3_DB = 10.0 * math.log10(2.0)
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
    """Linear-in-frequency interpolation of a dB-level crossing.

    An endpoint at -inf dB (a zero magnitude) gives the formula's limit, the
    frequency of the finite endpoint; the formula reaches it by itself only
    when that endpoint is f_a.
    """
    if not f_a < f_b:
        raise DomainError("crossing bracket requires f_a < f_b")
    lo, hi = min(y_a_db, y_b_db), max(y_a_db, y_b_db)
    if not lo < target_db < hi:
        raise DomainError(
            f"target {target_db:g} dB not strictly inside bracket "
            f"({y_a_db:g}, {y_b_db:g}) dB"
        )
    if y_a_db == -np.inf:
        return float(f_b)
    t = (target_db - y_a_db) / (y_b_db - y_a_db)
    return f_a + t * (f_b - f_a)


def _edge(freq, mag_db, peak_idx, target_db, direction, level_db):
    """Nearest target_db crossing walking from the peak; direction is -1/+1.

    The crossing sample j is the first one at or below the level on that
    side of the peak; its neighbour towards the peak is still above it.
    """
    below = mag_db[peak_idx + direction::direction] <= target_db
    k = int(below.argmax())
    if not below[k]:
        raise BandEdgeError("low" if direction < 0 else "high", level_db)
    j = peak_idx + direction * (k + 1)
    if mag_db[j] == target_db:
        return freq.item(j)
    a = j if direction < 0 else j - 1
    return crossing_interpolate(freq.item(a), mag_db.item(a), freq.item(a + 1),
                                mag_db.item(a + 1), target_db)


def _stopband_peak(freq, mag_db, stop_lo, stop_hi) -> float:
    """Largest mag_db where freq <= stop_lo or freq >= stop_hi.

    Those samples are a head and a tail of the increasing grid.  searchsorted
    sorts a NaN bound last, but neither comparison holds for it.  A NaN
    sample in either part is the result, as it is for np.max.
    """
    head = freq.searchsorted(stop_lo, side="right") if stop_lo == stop_lo else 0
    tail = freq.searchsorted(stop_hi, side="left")
    if not head and tail == freq.size:
        raise StopbandError("no grid points in the out-of-band region")
    lo = mag_db[:head].max().item() if head else -math.inf
    hi = mag_db[tail:].max().item() if tail < freq.size else -math.inf
    return hi if hi != hi or hi > lo else lo


def passband_metrics(s21: ComplexCurve, guard: float = DEFAULT_GUARD) -> FilterMetrics:
    """Extract all passband figures of merit from a transmission sweep.

    The grid must be dense enough to bracket both the 3-dB and the 20-dB
    crossings, and the |S21| maximum must be interior.  ``guard`` is the
    fractional offset from the 3-dB edges at which the stopband starts; it
    must be nonnegative and finite.
    """
    _check_guard(guard)
    return _metrics_from_db(s21.freq_hz, s21.magnitude_db, guard)


def _check_guard(guard: float) -> None:
    if not 0.0 <= guard < math.inf:
        raise DomainError(f"guard must be nonnegative and finite, got {guard:g}")


def _metrics_from_db(freq: np.ndarray, mag_db: np.ndarray, guard: float) -> FilterMetrics:
    """passband_metrics of the |S21| samples mag_db, in dB, on the checked
    grid freq, with a guard its callers have checked (_check_guard)."""
    peak_idx = int(mag_db.argmax())
    if peak_idx == 0 or peak_idx == freq.size - 1:
        raise DegeneratePassbandError("|S21| maximum sits on the grid boundary")
    peak_db = mag_db.item(peak_idx)

    f_lo3 = _edge(freq, mag_db, peak_idx, peak_db - _LEVEL3_DB, -1, 3.0)
    f_hi3 = _edge(freq, mag_db, peak_idx, peak_db - _LEVEL3_DB, +1, 3.0)
    f_lo20 = _edge(freq, mag_db, peak_idx, peak_db - _LEVEL20_DB, -1, 20.0)
    f_hi20 = _edge(freq, mag_db, peak_idx, peak_db - _LEVEL20_DB, +1, 20.0)

    bw3 = f_hi3 - f_lo3
    bw20 = f_hi20 - f_lo20
    fc = 0.5 * (f_lo3 + f_hi3)

    oob = peak_db - _stopband_peak(freq, mag_db, f_lo3 * (1.0 - guard), f_hi3 * (1.0 + guard))
    if bw3 == 0:
        # Both edges are the peak frequency: its neighbours are at -inf dB,
        # or the grid is spaced by a few ulps.
        raise DegeneratePassbandError("3-dB bandwidth is zero")

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
