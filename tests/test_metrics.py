import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acoufilt import ComplexCurve, crossing_interpolate, metrics, passband_metrics
from acoufilt.errors import (
    AcoufiltError,
    BandEdgeError,
    DegeneratePassbandError,
    DomainError,
    StopbandError,
)
from acoufilt.metrics import METRIC_NAMES

F0 = 10e9
Q = 10.0


def rlc_curve(f_lo=0.3 * F0, f_hi=3.0 * F0, n=16001):
    """Single-pole bandpass S21 = 1 / (1 + j*Q*(f/f0 - f0/f))."""
    f = np.linspace(f_lo, f_hi, n)
    x = f / F0 - F0 / f
    return ComplexCurve(f, 1.0 / (1.0 + 1j * Q * x))


def band_edge(level_ratio):
    """Closed-form crossing offsets: Q*x = c at |S21|^2 = 1/(1+c^2)."""
    c = level_ratio / Q
    hi = F0 * (c / 2 + math.sqrt(1 + c * c / 4))
    lo = F0 * (-c / 2 + math.sqrt(1 + c * c / 4))
    return lo, hi


def test_rlc_analytic_metrics():
    m = passband_metrics(rlc_curve())
    lo3, hi3 = band_edge(1.0)
    lo20, hi20 = band_edge(math.sqrt(99.0))
    assert m.il_db == pytest.approx(0.0, abs=1e-5)
    assert m.bw3_hz == pytest.approx(F0 / Q, rel=1e-4)
    assert m.f_lo3 == pytest.approx(lo3, rel=1e-5)
    assert m.f_hi3 == pytest.approx(hi3, rel=1e-5)
    assert m.bw20_hz == pytest.approx(hi20 - lo20, rel=1e-4)
    assert m.shape_factor20 == pytest.approx(math.sqrt(99.0), rel=5e-4)
    assert m.fc == pytest.approx(0.5 * (lo3 + hi3), rel=1e-5)
    assert m.fbw3 == pytest.approx(m.bw3_hz / m.fc, rel=1e-12)


def test_flat_curve_is_degenerate():
    f = np.linspace(1e9, 2e9, 101)
    with pytest.raises(DegeneratePassbandError):
        passband_metrics(ComplexCurve(f, np.ones(101, dtype=complex)))


def test_unbracketed_band_edge_names_the_side():
    # Grid stops before the high-side 20 dB crossing.
    with pytest.raises(BandEdgeError) as err:
        passband_metrics(rlc_curve(0.3 * F0, 1.3 * F0))
    assert err.value.side == "high"
    with pytest.raises(BandEdgeError) as err:
        passband_metrics(rlc_curve(0.8 * F0, 3.0 * F0))
    assert err.value.side == "low"


def test_empty_stopband():
    with pytest.raises(StopbandError):
        passband_metrics(rlc_curve(0.55 * F0, 1.75 * F0), guard=0.9)


@pytest.mark.parametrize("guard", [-0.1, math.nan, math.inf, -math.inf])
def test_guard_must_be_nonnegative_and_finite(guard):
    with pytest.raises(DomainError, match="guard must be nonnegative and finite"):
        passband_metrics(rlc_curve(), guard=guard)


def test_phase_rotation_invariance():
    base = rlc_curve()
    rotated = ComplexCurve(base.freq_hz, base.values * np.exp(1j * 1.234))
    m1 = passband_metrics(base)
    m2 = passband_metrics(rotated)
    for name, value in m1.as_rows():
        assert value == pytest.approx(dict(m2.as_rows())[name], rel=1e-9)


def test_grid_refinement_converges():
    lo3, hi3 = band_edge(1.0)
    exact_bw3 = F0 / Q
    coarse = passband_metrics(rlc_curve(n=2001))
    fine = passband_metrics(rlc_curve(n=4001))
    assert abs(fine.bw3_hz - exact_bw3) <= abs(coarse.bw3_hz - exact_bw3) + 1e-3
    assert abs(fine.bw3_hz - exact_bw3) < abs(coarse.bw3_hz - exact_bw3) * 0.6 + 1.0


def test_shape_factor_at_least_one():
    for n in (2001, 16001):
        assert passband_metrics(rlc_curve(n=n)).shape_factor20 >= 1.0


def test_oob_rejection_monotone_in_guard():
    curve = rlc_curve()
    values = [passband_metrics(curve, guard=g).oob_rejection_db
              for g in (0.05, 0.15, 0.3, 0.5)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_crossing_interpolate_examples():
    assert crossing_interpolate(1e9, -2.0, 2e9, -4.0, -3.0) == pytest.approx(1.5e9)
    assert crossing_interpolate(1e9, -2.0, 2e9, -4.0, -2.5) == pytest.approx(1.25e9)
    with pytest.raises(DomainError):
        crossing_interpolate(1e9, -2.0, 2e9, -4.0, -5.0)
    with pytest.raises(DomainError):
        crossing_interpolate(2e9, -2.0, 1e9, -4.0, -3.0)


def test_zero_magnitude_sample_gives_the_finite_endpoint_edge():
    # |S21| = 0 at 2 GHz is -inf dB.  Both low edges fall in the bracket
    # (-inf dB at 2 GHz, 0 dB at 3 GHz), whose interpolation limit is 3 GHz.
    assert crossing_interpolate(2e9, -math.inf, 3e9, 0.0, -3.0) == 3e9
    assert crossing_interpolate(2e9, 0.0, 3e9, -math.inf, -3.0) == 2e9
    f = np.arange(1.0, 8.0) * 1e9
    db = np.array([-50.0, -np.inf, 0.0, -1.0, -30.0, -40.0, -50.0])
    m = passband_metrics(ComplexCurve(f, 10.0 ** (db / 20.0)))
    assert all(math.isfinite(v) for v in astuple(m))
    assert m.f_lo3 == 3e9
    assert m.bw20_hz == pytest.approx(4e9 + (-20.0 + 1.0) / -29.0 * 1e9 - 3e9)
    assert m.f_hi3 == pytest.approx(4e9 + (-10 * math.log10(2) + 1.0) / -29.0 * 1e9)


def test_crossing_interpolate_against_analytic_root():
    # A sampled monotone segment of the RLC skirt: the interpolated 3-dB
    # crossing converges to the closed-form edge as the grid refines.
    _, hi3 = band_edge(1.0)
    for step, tol in ((2e7, 2e-4), (1e7, 5e-5)):
        f_a = hi3 - 0.4 * step
        f_b = f_a + step
        def db(f):
            x = f / F0 - F0 / f
            return 20 * math.log10(1 / math.sqrt(1 + (Q * x) ** 2))
        got = crossing_interpolate(f_a, db(f_a), f_b, db(f_b), -3.0102999566398120)
        assert got == pytest.approx(hi3, rel=tol)


def _walking_edge(freq, mag_db, peak_idx, target_db, direction, level_db):
    """The sample-by-sample walk from the peak that _edge replaced, kept as
    its oracle."""
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


@st.composite
def single_peaked_curves(draw):
    """|S21| that rises to one interior peak and falls after it, in steps of
    0-20 dB (zero steps give plateaus), on a strictly increasing grid."""
    n = draw(st.integers(3, 120))
    f = np.sort(np.array(draw(st.lists(st.floats(1e9, 1e11), min_size=n, max_size=n,
                                       unique=True))))
    k = draw(st.integers(1, n - 2))
    step = st.floats(0.0, 20.0)
    rises = np.array(draw(st.lists(step, min_size=k, max_size=k)), dtype=float)
    falls = np.array(draw(st.lists(step, min_size=n - 1 - k, max_size=n - 1 - k)),
                     dtype=float)
    peak_db = draw(st.floats(-20.0, 0.0))
    below = np.concatenate([np.cumsum(rises[::-1])[::-1], [0.0], np.cumsum(falls)])
    return ComplexCurve(f, 10.0 ** ((peak_db - below) / 20.0))


def _outcome(curve, guard):
    try:
        return astuple(passband_metrics(curve, guard=guard))
    except AcoufiltError as exc:
        return type(exc), str(exc)


@given(single_peaked_curves(), st.sampled_from([0.0, 0.05, 0.15]))
def test_band_edges_match_the_walking_oracle(curve, guard):
    got = _outcome(curve, guard)
    with mock.patch.object(metrics, "_edge", _walking_edge):
        expected = _outcome(curve, guard)
    assert got == expected


# Seven grid points; the examples below put a NaN edge, or a stopband bound
# exactly on a grid point, where a 3-dB sample sits exactly on the level.
_GHZ = np.arange(1.0, 8.0) * 1e9


def _masked_stopband_peak(freq, mag_db, stop_lo, stop_hi):
    """The full-grid stopband mask that _stopband_peak's head and tail
    replaced, kept as its oracle."""
    stop = (freq <= stop_lo) | (freq >= stop_hi)
    if not np.any(stop):
        raise StopbandError("no grid points in the out-of-band region")
    return float(np.max(mag_db[stop]))


@st.composite
def db_curves_with_holes(draw):
    """dB samples of a single-peaked curve with up to four samples set to
    NaN or -inf."""
    curve = draw(single_peaked_curves())
    mag_db = curve.magnitude_db.copy()
    for i in draw(st.lists(st.integers(0, mag_db.size - 1), max_size=4)):
        mag_db[i] = draw(st.sampled_from([math.nan, -math.inf]))
    return curve.freq_hz, mag_db


def _db_outcome(freq, mag_db, guard):
    # An -inf sample at a crossing makes an edge NaN, and a NaN guard makes
    # both stopband bounds NaN; the metrics carry them on without warnings.
    with np.errstate(all="ignore"):
        try:
            return np.array(astuple(metrics._metrics_from_db(freq, mag_db, guard))).tobytes()
        except AcoufiltError as exc:
            return type(exc), str(exc)


@given(db_curves_with_holes(), st.sampled_from([0.0, 0.05, 0.15, math.nan]))
@example((_GHZ, np.array([-50.0, -np.inf, 0.0, -1.0, -30.0, -40.0, -50.0])), 0.05)
@example((_GHZ, np.array([-50.0, -metrics._LEVEL3_DB, 0.0, -1.0, -30.0, -40.0, -50.0])), 0.0)
@example((_GHZ, np.array([-50.0, -30.0, -1.0, 0.0, -metrics._LEVEL3_DB, -40.0, -50.0])), 0.0)
def test_metrics_from_db_match_the_mask_and_walking_oracles(case, guard):
    # Bit for bit, or the same exception class with the same message.
    freq, mag_db = case
    got = _db_outcome(freq, mag_db, guard)
    with mock.patch.object(metrics, "_edge", _walking_edge), \
            mock.patch.object(metrics, "_stopband_peak", _masked_stopband_peak):
        expected = _db_outcome(freq, mag_db, guard)
    assert got == expected


@settings(max_examples=20)
@given(single_peaked_curves(), st.sampled_from([0.0, 0.05, 0.15]))
@example(ComplexCurve(_GHZ, 10.0 ** (np.array(
    [-50.0, -metrics._LEVEL3_DB, 0.0, -1.0, -30.0, -40.0, -50.0]) / 20.0)), 0.0)
def test_metrics_are_python_floats(curve, guard):
    # Whether an edge is interpolated or sits exactly on a sample.
    try:
        m = passband_metrics(curve, guard=guard)
    except AcoufiltError:
        return
    assert [type(v) for v in astuple(m)] == [float] * len(METRIC_NAMES)


def _adjacent_doubles(f, n):
    grid = [f]
    for _ in range(n - 1):
        grid.append(np.nextafter(grid[-1], np.inf))
    return np.array(grid)


@pytest.mark.parametrize("freq, db", [
    # |S21| = 0 next to the peak: both 3-dB edges are the peak frequency.
    (np.arange(1.0, 6.0) * 1e9, [-50.0, -np.inf, 0.0, -np.inf, -50.0]),
    # Five adjacent doubles: both 3-dB edges round to the peak frequency.
    (_adjacent_doubles(10e9, 5), [-40.0, -10.0, 0.0, -10.0, -40.0]),
])
def test_zero_3db_bandwidth_is_degenerate(freq, db):
    # Not a ZeroDivisionError, and not a NaN shape factor with a warning.
    curve = ComplexCurve(freq, 10.0 ** (np.array(db) / 20.0))
    with pytest.raises(DegeneratePassbandError, match="3-dB bandwidth is zero"):
        passband_metrics(curve, guard=0.0)
