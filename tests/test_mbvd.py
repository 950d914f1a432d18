import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from acoufilt import (
    MbvdParams,
    antiresonance,
    coupling_k2,
    mbvd_from_targets,
    perceived_resonance,
    q_at_antiresonance,
    resonator_admittance,
    series_resonance,
    summarize,
)
from acoufilt.errors import AcoufiltError, DomainError, InfeasibleCouplingError, SearchError
from acoufilt.mbvd import (
    K2_MAX,
    _band_extremum,
    _circuit_terms,
    _jw,
    _log_jacobian,
    _stationary_points,
    _terms,
    rational_coefficients,
)

# Resonator derived from (fs 20 GHz, k2 0.42, c0 50 fF, Q 40); the closed
# forms give cm 25.81 fF, lm 2.4537 nH, rm 7.709 ohm.
REF = mbvd_from_targets(20e9, 0.42, 50e-15, 40.0)


@st.composite
def lossy_resonators(draw):
    """Lossy, parasitic-loaded resonators whose |Z| peaks inside (fs/2, 2*fp)."""
    p = mbvd_from_targets(
        draw(st.floats(5e9, 40e9)), draw(st.floats(0.2, 0.7)),
        draw(st.floats(2e-14, 2e-13)), draw(st.floats(30.0, 500.0)),
        rs=draw(st.floats(0.0, 1.0)), ls=draw(st.floats(0.0, 2e-11)),
    )
    return dataclasses.replace(p, r0=draw(st.floats(0.0, 0.5)))


def test_admittance_at_fs_is_motional_conductance_plus_static_susceptance():
    # At fs the motional branch is purely resistive: Y = 1/rm + j*2*pi*f*c0.
    fs = series_resonance(REF)
    y = resonator_admittance(REF, [fs]).values[0]
    expected = 1.0 / REF.rm + 1j * 2.0 * math.pi * fs * REF.c0
    assert y == pytest.approx(expected, rel=1e-12)


def test_admittance_dc_blocking():
    fs = series_resonance(REF)
    y = resonator_admittance(REF, [fs / 1000.0, fs])
    assert abs(y.values[0]) < abs(y.values[1])


def test_series_inductance_lowers_admittance_peak():
    loaded = dataclasses.replace(REF, ls=100e-12)
    grid = np.geomspace(1e9, 30e9, 20000)
    mags = np.abs(resonator_admittance(loaded, grid).values)
    assert grid[np.argmax(mags)] < series_resonance(REF)


def test_admittance_rejects_bad_input():
    with pytest.raises(DomainError):
        resonator_admittance(REF, [0.0, 1e9])
    with pytest.raises(DomainError):
        resonator_admittance(REF, [2e9, 1e9])
    with pytest.raises(DomainError):
        MbvdParams(rm=math.nan, lm=1e-9, cm=1e-14, c0=1e-13)


def test_series_resonance_examples():
    p = MbvdParams(rm=0, lm=2.4545e-9, cm=25.80e-15, c0=50e-15)
    assert series_resonance(p) == pytest.approx(20.00e9, rel=5e-4)
    # Oracle: fs is the zero of the motional reactance.
    def motional_reactance(f):
        w = 2 * math.pi * f
        return w * p.lm - 1.0 / (w * p.cm)
    fs_oracle = brentq(motional_reactance, 1e9, 100e9, xtol=1e-3)
    assert series_resonance(p) == pytest.approx(fs_oracle, rel=1e-10)

    quadrupled = dataclasses.replace(p, lm=4 * p.lm)
    assert series_resonance(quadrupled) == pytest.approx(series_resonance(p) / 2, rel=1e-12)

    unit = MbvdParams(rm=0, lm=1.0, cm=1.0, c0=1.0)
    assert series_resonance(unit) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)


@pytest.mark.parametrize("lm, cm", [(1e-200, 1e-200), (1e200, 1e200)])
def test_lm_cm_product_out_of_range_is_named(lm, cm):
    # lm*cm underflows to 0 (fs would divide by zero) or overflows to inf
    # (fs would be 0); every figure built on fs names the product.
    p = MbvdParams(1.0, lm, cm, 1e-13)
    for figure in (series_resonance, antiresonance, perceived_resonance, summarize):
        with pytest.raises(DomainError, match=r"^lm\*cm = .* over- or underflows"):
            figure(p)


def test_antiresonance_examples():
    p = mbvd_from_targets(20.00e9, 0.42, 50e-15, math.inf)
    assert p.cm / p.c0 == pytest.approx(0.5160, rel=2e-3)
    assert antiresonance(p) == pytest.approx(24.63e9, rel=2e-4)

    tiny = MbvdParams(rm=0, lm=1e-9, cm=1e-20, c0=1e-13)
    assert antiresonance(tiny) == pytest.approx(series_resonance(tiny), rel=1e-6)

    p2 = MbvdParams(rm=0, lm=1e-9, cm=3e-13, c0=1e-13)
    assert antiresonance(p2) == pytest.approx(2 * series_resonance(p2), rel=1e-12)


def test_antiresonance_matches_numerical_admittance_zero():
    # Lossless, parasitic-free: Y is purely imaginary and crosses zero at fp.
    p = MbvdParams(rm=0, lm=2.45e-9, cm=25.8e-15, c0=50e-15)
    fs = series_resonance(p)

    def im_y(f):
        return resonator_admittance(p, [f]).values[0].imag

    fp_oracle = brentq(im_y, fs * 1.0001, fs * 3.0, xtol=1e-3)
    assert antiresonance(p) == pytest.approx(fp_oracle, rel=1e-9)


def test_coupling_examples():
    assert coupling_k2(REF) == pytest.approx(0.420, abs=5e-4)
    tiny = MbvdParams(rm=0, lm=1e-9, cm=1e-20, c0=1e-13)
    assert coupling_k2(tiny) == pytest.approx(0.0, abs=1e-6)
    # A representative measured-device coupling target is representable.
    p = mbvd_from_targets(23.5e9, 0.46, 50e-15, 50.0)
    assert coupling_k2(p) == pytest.approx(0.46, rel=1e-12)


def test_mbvd_from_targets_example_values():
    assert REF.cm == pytest.approx(25.80e-15, rel=5e-4)
    assert REF.lm == pytest.approx(2.4545e-9, rel=5e-4)
    assert REF.rm == pytest.approx(7.712, rel=5e-4)


def test_mbvd_from_targets_round_trip_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        fs = rng.uniform(1e9, 60e9)
        k2 = rng.uniform(1e-3, 0.9)
        c0 = rng.uniform(5e-15, 5e-13)
        q = rng.uniform(5, 500)
        p = mbvd_from_targets(fs, k2, c0, q)
        assert series_resonance(p) == pytest.approx(fs, rel=1e-12)
        assert coupling_k2(p) == pytest.approx(k2, rel=1e-12)


def test_mbvd_from_targets_infinite_q_is_lossless():
    p = mbvd_from_targets(20e9, 0.42, 50e-15, math.inf)
    assert p.rm == 0.0


def test_cm_c0_ratio_out_of_range_is_named():
    # cm/c0 = 1e350 overflows, so fp = fs*sqrt(1 + cm/c0) does; every figure
    # built on fp names the ratio, and the Q search does not start.
    p = MbvdParams(1.0, 1e-150, 1e150, 1e-200)
    for figure in (antiresonance, q_at_antiresonance, summarize):
        with pytest.raises(DomainError, match=r"^cm/c0 = .* overflows"):
            figure(p)
    # fs = 1.0026e160 Hz and cm/c0 = 1e296: fp = 1.0026e308 Hz is finite,
    # but the Q search band up to 2*fp is not.
    p = MbvdParams(1.0, (2 * math.pi * 1e160) ** -2 / 1e-20, 1e-20, 1e-316)
    assert antiresonance(p) == pytest.approx(1.0026346717e308)
    with pytest.raises(DomainError, match=r"^2\*fp overflows"):
        q_at_antiresonance(p)


def test_mbvd_from_targets_rejects_a_non_positive_q():
    with pytest.raises(DomainError, match="q must be positive"):
        mbvd_from_targets(20e9, 0.42, 50e-15, 0.0)


def test_mbvd_from_targets_rejects_excess_coupling():
    with pytest.raises(InfeasibleCouplingError):
        mbvd_from_targets(20e9, K2_MAX, 50e-15, 40.0)
    with pytest.raises(InfeasibleCouplingError):
        mbvd_from_targets(20e9, 1.3, 50e-15, 40.0)


@pytest.mark.parametrize("fs, k2, c0", [(1e300, 0.42, 1e-13), (1e-300, 0.42, 1e-13),
                                         (20e9, 1e-300, 1e-13), (20e9, 0.42, 1e300)])
def test_mbvd_from_targets_without_a_finite_branch_is_a_domain_error(fs, k2, c0):
    # On float64 inputs too, with warnings as errors: no numpy warning first.
    with pytest.raises(DomainError):
        mbvd_from_targets(np.float64(fs), np.float64(k2), np.float64(c0), np.float64(40.0))


@pytest.mark.parametrize("fs, c0, q", [(1e-160, 1.0, 50.0), (23.5e9, 1e300, 50.0),
                                        (23.5e9, 1e-13, 1e-310), (20e9, math.inf, 40.0)])
def test_overflowing_motional_branch_is_named(fs, c0, q):
    # lm overflows to inf, lm underflows to 0, rm overflows, cm is inf.
    with pytest.raises(DomainError, match="no finite motional branch"):
        mbvd_from_targets(fs, 0.46, c0, q)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True)


@given(_POSITIVE, st.floats(0.0, K2_MAX, exclude_min=True, exclude_max=True), _POSITIVE,
       _POSITIVE)
def test_mbvd_from_targets_rejects_what_mbvd_params_would(fs, k2, c0, q):
    # Positive targets, infinities included: the motional arithmetic names
    # every branch MbvdParams would reject, so its checks never fire.
    try:
        mbvd_from_targets(fs, k2, c0, q)
    except DomainError as exc:
        assert str(exc).startswith("no finite motional branch")


def test_perceived_resonance_unloaded_lossless_equals_fs():
    p = mbvd_from_targets(20e9, 0.42, 50e-15, math.inf)
    assert perceived_resonance(p) == pytest.approx(20e9, rel=1e-6)


def test_perceived_resonance_unloaded_lossy_is_near_fs():
    # Motional loss nudges the |Y| peak slightly off the mechanical fs.
    assert perceived_resonance(REF) == pytest.approx(20e9, rel=1e-2)


def test_perceived_resonance_below_fs_with_routing_inductance():
    loaded = dataclasses.replace(REF, ls=100e-12)
    f = perceived_resonance(loaded)
    assert f < series_resonance(REF)
    # Dense-grid scan oracle.
    grid = np.geomspace(2e9, 21e9, 50000)
    mags = np.abs(resonator_admittance(loaded, grid).values)
    assert f == pytest.approx(grid[np.argmax(mags)], rel=1e-3)


def test_perceived_resonance_monotone_in_ls():
    values = [perceived_resonance(dataclasses.replace(REF, ls=ls))
              for ls in (0.0, 50e-12, 100e-12, 200e-12)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))


def test_perceived_resonance_no_interior_maximum():
    # A 1 mH routing inductance resonates with c0 + cm near 18 MHz, below the
    # band fs/100 .. 1.02*fs, so |Y| falls across the whole band.
    with pytest.raises(SearchError, match=r"no interior maximum in \[2e\+08, 2\.04e\+10\] Hz"):
        perceived_resonance(dataclasses.replace(REF, ls=1e-3))


def test_q_band_without_an_interior_minimum_is_named():
    # A 366-ohm rm damps the resonance out: |Y| rises across the whole Q
    # band [fs/2, 2*fp], so its least value is on the band's low end.
    p = MbvdParams(rm=365.79, lm=5.654e-10, cm=1.120e-13, c0=1.911e-13, rs=47.43, ls=1.767e-12)
    with pytest.raises(SearchError, match=r"^no interior minimum in \[1\.00001e\+10, "
                                          r"5\.03763e\+10\] Hz \(dip on boundary\)$"):
        q_at_antiresonance(p)


@given(lossy_resonators())
def test_perceived_resonance_matches_dense_grid_oracle_for_random_resonators(p):
    fs = series_resonance(p)
    grid = np.geomspace(fs / 100.0, fs * 1.02, 400001)
    mags = np.abs(resonator_admittance(p, grid).values)
    i = int(np.argmax(mags))
    assert 0 < i < grid.size - 1
    f = perceived_resonance(p)
    assert f == pytest.approx(grid[i], rel=1e-4)
    # No grid point beats the closed-form maximum beyond rounding.
    assert abs(resonator_admittance(p, [f]).values[0]) >= mags[i] * (1.0 - 1e-12)


def test_flat_peak_is_found_and_the_q_band_overflow_named():
    # Q = 2*pi*fs*lm/rm is about 1e-141, so |Y| equals 1/rm to every digit
    # across the band; the stationary point at fs is still exact.  The Q
    # search band up to 2*fp overflows, and summarize names that.
    p = MbvdParams(1.0, (2 * math.pi * 1e160) ** -2 / 1e-20, 1e-20, 1e-316)
    assert perceived_resonance(p) == pytest.approx(series_resonance(p), rel=1e-12)
    with pytest.raises(DomainError, match=r"^2\*fp overflows"):
        summarize(p)


def test_overflowing_rational_form_is_a_domain_error():
    # ls*w0 = 1e300 H * 2*pi*1.6 GHz overflows in the coefficient map.
    p = MbvdParams(1.0, 1e-10, 1e-10, 1e-13, ls=1e300)
    for figure in (perceived_resonance, q_at_antiresonance, summarize):
        with pytest.raises(DomainError, match=r"rational coefficients of Y overflow"):
            figure(p)


def _error(figure, p):
    """The message of the error figure(p) raises, or None."""
    try:
        figure(p)
    except AcoufiltError as exc:
        return str(exc)
    return None


# Lossy resonators, lossless ones (ls only), and routing up to 1 mH, whose
# resonance with c0 + cm falls below the perceived band in about half the
# draws, so that summarize raises the perceived band's SearchError.
@given(lossy_resonators()
       | st.builds(lambda fs, k2, c0, ls: mbvd_from_targets(fs, k2, c0, math.inf, ls=ls),
                   st.floats(5e9, 40e9), st.floats(0.2, 0.7), st.floats(2e-14, 2e-13),
                   st.floats(0.0, 2e-11))
       | st.builds(lambda fs, k2, c0, q, rs, ls: mbvd_from_targets(fs, k2, c0, q, rs=rs, ls=ls),
                   st.floats(5e9, 40e9), st.floats(0.2, 0.7), st.floats(2e-14, 2e-13),
                   st.floats(30.0, 500.0), st.floats(0.0, 5.0),
                   st.floats(-11.0, -3.0).map(lambda e: 10.0**e)))
def test_summary_figures_are_the_public_ones_bit_for_bit(p):
    try:
        s = summarize(p)
    except AcoufiltError as exc:
        # The perceived band's error comes first.
        first = _error(perceived_resonance, p) or _error(q_at_antiresonance, p)
        assert str(exc) == first
        return
    assert s.f_perceived.hex() == perceived_resonance(p).hex()
    assert float(s.q_antires).hex() == float(q_at_antiresonance(p)).hex()


def test_summarize_finds_the_roots_once(monkeypatch):
    calls = []
    roots = np.roots

    def counting_roots(c):
        calls.append(c)
        return roots(c)

    monkeypatch.setattr(np, "roots", counting_roots)
    summary = summarize(dataclasses.replace(REF, rs=0.5, ls=100e-12, r0=0.3))
    assert math.isfinite(summary.q_antires)
    assert len(calls) == 1


def test_rational_coefficients_reproduce_the_admittance():
    p = dataclasses.replace(REF, rs=0.5, ls=100e-12, r0=0.3)
    f = np.geomspace(1e9, 100e9, 301)
    w0 = 2.0 * math.pi * 20e9
    num, den = rational_coefficients(p, w0)
    t = _jw(f) / w0
    y = np.polynomial.polynomial.polyval(t, num) / np.polynomial.polynomial.polyval(t, den)
    assert np.allclose(y, resonator_admittance(p, f).values, rtol=1e-12, atol=0.0)


def test_q_lossless_sentinel():
    p = mbvd_from_targets(20e9, 0.42, 50e-15, math.inf)
    assert q_at_antiresonance(p) == math.inf


def test_q_matches_dense_grid_phase_derivative_oracle():
    # Independent oracle: phase derivative of Z by np.gradient on a dense
    # grid, read at the grid |Z| maximum.
    fp = antiresonance(REF)
    grid = np.linspace(fp * 0.9, fp * 1.1, 400001)
    z = 1.0 / resonator_admittance(REF, grid).values
    phi = np.unwrap(np.angle(z))
    q_grid = 0.5 * grid * np.abs(np.gradient(phi, grid))
    q_oracle = q_grid[np.argmax(np.abs(z))]
    assert q_at_antiresonance(REF) == pytest.approx(q_oracle, rel=1e-3)
    # Frozen bracket from the oracle above.
    assert 48.0 < q_at_antiresonance(REF) < 50.0


@given(lossy_resonators())
def test_q_matches_dense_grid_oracle_for_random_resonators(p):
    fp = antiresonance(p)
    grid = np.linspace(fp * 0.9, fp * 1.1, 400001)
    z = 1.0 / resonator_admittance(p, grid).values
    phi = np.unwrap(np.angle(z))
    q_grid = 0.5 * grid * np.abs(np.gradient(phi, grid))
    i = int(np.argmax(np.abs(z)))
    assert 0 < i < grid.size - 1
    assert q_at_antiresonance(p) == pytest.approx(q_grid[i], rel=1e-3)


def _branch_q(p, f):
    """Q at f from the one-division terms of the admittance differentiated
    by hand, ' = d/ds: Q = (w/2) * |Re(den'/den - num'/num)|."""
    w = 2.0 * math.pi * f
    s = 1j * w
    pm = (s * p.lm + p.rm) * s * p.cm + 1.0
    ps = s * p.r0 * p.c0 + 1.0
    num = s * (p.cm * ps + p.c0 * pm)
    den = pm * ps + (p.rs + s * p.ls) * num
    dpm = 2.0 * s * p.lm * p.cm + p.rm * p.cm
    dps = p.r0 * p.c0
    dnum = p.cm * ps + p.c0 * pm + s * (p.cm * dps + p.c0 * dpm)
    dden = dpm * ps + pm * dps + p.ls * num + (p.rs + s * p.ls) * dnum
    return 0.5 * w * abs((dden / den - dnum / num).real)


@given(st.builds(
    lambda fs, k2, c0, q, rs, ls, r0: dataclasses.replace(
        mbvd_from_targets(fs, k2, c0, q, rs=rs, ls=ls), r0=r0),
    st.floats(5e9, 40e9), st.floats(0.2, 0.7), st.floats(2e-14, 2e-13), st.floats(30.0, 500.0),
    st.floats(0.0, 1.0) | st.just(0.0), st.floats(0.0, 2e-11) | st.just(0.0),
    st.floats(0.0, 0.5) | st.just(0.0)))
def test_q_matches_the_branch_form_at_the_same_frequency(p):
    fs = series_resonance(p)
    f = _band_extremum(fs, _stationary_points(p, fs), 0.5, 2.0 * antiresonance(p) / fs,
                       largest=False)
    assert q_at_antiresonance(p) == pytest.approx(_branch_q(p, f), rel=1e-10)


def admittance_log_jacobian(p, f):
    """dY/d(log q) = q * dY/dq for q = rm, lm, cm, c0, rs, ls, one complex
    column per parameter, shape (len(f), 6), from the terms the fit uses."""
    jw = _jw(f)
    pm, ps, num, den = _terms(p, jw)
    q = (p.rm, p.lm, p.cm, p.c0, p.rs, p.ls)
    return np.stack(_log_jacobian(q, jw, pm, ps, den, num / den), axis=1)


@given(lossy_resonators())
def test_log_jacobian_matches_central_differences(p):
    # Column k is dY/d(log q_k) for q = rm, lm, cm, c0, rs, ls.
    fs = series_resonance(p)
    grid = np.geomspace(0.3 * fs, 3.0 * fs, 301)
    jac = admittance_log_jacobian(p, grid)
    # Central differences resolve a column down to rounding in Y itself.
    floor = 1e-8 * np.max(np.abs(resonator_admittance(p, grid).values))
    h = 1e-6
    for k, name in enumerate(("rm", "lm", "cm", "c0", "rs", "ls")):
        v = getattr(p, name)
        hi = resonator_admittance(dataclasses.replace(p, **{name: v * math.exp(h)}), grid)
        lo = resonator_admittance(dataclasses.replace(p, **{name: v * math.exp(-h)}), grid)
        fd = (hi.values - lo.values) / (2.0 * h)
        assert np.max(np.abs(fd - jac[:, k])) <= 1e-5 * np.max(np.abs(jac[:, k])) + floor


def _branch_log_jacobian(p, f):
    """The log Jacobian through the branch impedances, kept as an oracle:
    with Z = rs + j*w*ls + 1/y_inner and Y = 1/Z, dY = -Y^2 dZ, and a branch
    impedance z enters Z through dZ = dz / (y_inner * z)^2."""
    w = 2.0 * math.pi * f
    jw = 1j * w
    z_mot = p.rm + jw * p.lm + 1.0 / (jw * p.cm)
    z_stat = p.r0 + 1.0 / (jw * p.c0)
    y_inner = 1.0 / z_mot + 1.0 / z_stat
    y = 1.0 / (p.rs + jw * p.ls + 1.0 / y_inner)
    g_mot = -((y / (y_inner * z_mot)) ** 2)
    g_stat = -((y / (y_inner * z_stat)) ** 2)
    g_route = -(y * y)
    return np.stack([g_mot * p.rm, g_mot * (jw * p.lm), g_mot * (1j / (w * p.cm)),
                     g_stat * (1j / (w * p.c0)), g_route * p.rs, g_route * (jw * p.ls)],
                    axis=1)


@given(lossy_resonators())
def test_log_jacobian_matches_the_branch_form(p):
    fs = series_resonance(p)
    grid = np.geomspace(0.3 * fs, 3.0 * fs, 301)
    jac = admittance_log_jacobian(p, grid)
    ref = _branch_log_jacobian(p, grid)
    assert jac.shape == ref.shape == (grid.size, 6)
    # Both forms round differently near the resonances, so the bound is
    # relative to each column's largest entry.
    bound = 1e-10 * np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(jac - ref) <= bound)


def test_q_monotone_in_rm():
    values = [q_at_antiresonance(dataclasses.replace(REF, rm=rm))
              for rm in (2.0, 5.0, 10.0, 20.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_real_admittance_nonnegative():
    rng = np.random.default_rng(11)
    grid = np.geomspace(1e8, 1e11, 400)
    for _ in range(50):
        p = MbvdParams(
            rm=rng.uniform(0, 20),
            lm=rng.uniform(1e-10, 1e-8),
            cm=rng.uniform(1e-15, 1e-13),
            c0=rng.uniform(1e-14, 1e-12),
            rs=rng.uniform(0, 2),
            ls=rng.uniform(0, 2e-10),
            r0=rng.uniform(0, 1),
        )
        y = resonator_admittance(p, grid).values
        assert np.all(y.real >= -1e-18)


def test_fp_identity_against_extremum_with_losses_removed():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = MbvdParams(rm=0, lm=rng.uniform(1e-10, 1e-8),
                       cm=rng.uniform(1e-15, 1e-13), c0=rng.uniform(1e-14, 1e-12))
        fs = series_resonance(p)

        def im_y(f):
            return resonator_admittance(p, [f]).values[0].imag

        fp_oracle = brentq(im_y, fs * (1 + 1e-9), fs * 50, xtol=1e-6)
        assert antiresonance(p) == pytest.approx(fp_oracle, rel=1e-9)


def test_summarize_consistency():
    s = summarize(REF)
    assert 0 < s.fs < s.fp
    assert 0 < s.k2 < 1
    assert s.q_antires > 0
    assert s.f_perceived <= s.fs * (1 + 1e-2)


def _generic_admittance(p, jw):
    """The one-division admittance with every term formed, kept as the
    oracle of the shortcuts _terms takes when r0, or rs and ls, are 0."""
    pm = (jw * p.lm + p.rm) * jw * p.cm + 1.0
    ps = jw * p.r0 * p.c0 + 1.0
    num = jw * (p.cm * ps + p.c0 * pm)
    return num / (pm * ps + (p.rs + jw * p.ls) * num)


def _branch_admittance(p, jw):
    """Textbook form: routing in series with the parallel motional and
    static branches, six divisions."""
    z_mot = p.rm + jw * p.lm + 1.0 / (jw * p.cm)
    z_stat = p.r0 + 1.0 / (jw * p.c0)
    return 1.0 / (p.rs + jw * p.ls + 1.0 / (1.0 / z_mot + 1.0 / z_stat))


@given(st.builds(
    MbvdParams, rm=st.floats(0.0, 20.0) | st.just(0.0), lm=st.floats(1e-10, 1e-8),
    cm=st.floats(1e-15, 1e-13), c0=st.floats(2e-14, 3e-13),
    rs=st.floats(0.0, 1.5) | st.just(0.0), ls=st.floats(0.0, 8e-11) | st.just(0.0),
    r0=st.floats(0.0, 0.5) | st.just(0.0)),
    st.lists(st.floats(1e9, 50e9), min_size=1, max_size=64, unique=True))
def test_admittance_matches_the_generic_and_branch_forms(p, points):
    f = np.sort(np.array(points))
    jw = _jw(f)
    y = resonator_admittance(p, f).values
    assert np.array_equal(y, _generic_admittance(p, jw))
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = _branch_admittance(p, jw)
    # Near a resonance both forms lose digits to cancellation, so the bound
    # is relative to the largest |Y| on the grid.
    ok = np.isfinite(ref)
    assert np.all(np.abs(y[ok] - ref[ok]) <= 1e-11 * np.max(np.abs(ref[ok]), initial=0.0))


def _allocating_circuit_terms(jw, rm, lm, cm, c0, routing=None, r0=0.0):
    """_circuit_terms as first written, a new array for every operation."""
    pm = (jw * lm + rm) * jw * cm + 1.0
    if r0:
        ps = jw * r0 * c0 + 1.0
        num = jw * (cm * ps + c0 * pm)
        branches = pm * ps
    else:
        ps = 1.0
        num = jw * (cm + c0 * pm)
        branches = pm
    den = branches if routing is None else branches + routing * num
    return pm, ps, num, den


def assert_same_bits(got, ref):
    """Complex arrays equal bit for bit where not NaN, and NaN at the same
    components (whose sign and payload may differ)."""
    got, ref = (np.atleast_1d(np.ascontiguousarray(a, dtype=complex)).view(float)
                for a in (got, ref))
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), ref[~nan].view(np.int64))


# Element values from the physical range up to ones whose products
# overflow, with 0 and inf for the NaNs of 0 * inf.
_ELEMENT = st.floats(1e-16, 1e-8) | st.floats(0.0, 1e300) | st.sampled_from([0.0, math.inf])


@given(st.lists(st.floats(0.0, 1e300) | st.floats(1e9, 50e9), min_size=1, max_size=40),
       _ELEMENT, _ELEMENT, _ELEMENT, _ELEMENT, st.just(0.0) | _ELEMENT,
       st.none() | st.tuples(_ELEMENT, _ELEMENT))
def test_circuit_terms_match_their_allocating_form(points, rm, lm, cm, c0, r0, parasitics):
    # _circuit_terms forms its arrays in place, in the same operations up to
    # the order of commuting operands, so every component keeps its bits.
    with np.errstate(all="ignore"):
        jw = _jw(np.array(points))
        routing = None if parasitics is None else parasitics[0] + jw * parasitics[1]
        got = _circuit_terms(jw, rm, lm, cm, c0, routing, r0)
        ref = _allocating_circuit_terms(jw, rm, lm, cm, c0, routing, r0)
    for g, r in zip(got, ref):
        assert_same_bits(g, r)
