import math

import numpy as np
import pytest

from acoufilt import (
    ComplexCurve,
    FitOptions,
    coupling_k2,
    fit_mbvd,
    initial_guess,
    mbvd_from_targets,
    resonator_admittance,
)
from acoufilt.curves import sorted_curve
from acoufilt.errors import DomainError, StructureError

PARAM_NAMES = ("rm", "lm", "cm", "c0", "rs", "ls")

TRUTH = mbvd_from_targets(20e9, 0.42, 50e-15, 40.0, rs=0.5, ls=100e-12)
GRID = np.geomspace(5e9, 100e9, 2001)
CURVE = resonator_admittance(TRUTH, GRID)


def rel_errors(fitted):
    return {k: abs(getattr(fitted, k) - getattr(TRUTH, k)) / getattr(TRUTH, k)
            for k in PARAM_NAMES}


def test_initial_guess_recovers_structure():
    clean = mbvd_from_targets(20e9, 0.42, 50e-15, 40.0)
    curve = resonator_admittance(clean, np.geomspace(5e9, 60e9, 3001))
    guess = initial_guess(curve)
    assert abs(guess.c0 - clean.c0) / clean.c0 < 0.10
    fs_guess = 1.0 / (2 * math.pi * math.sqrt(guess.lm * guess.cm))
    assert abs(fs_guess - 20e9) / 20e9 < 0.005


def test_initial_guess_pure_capacitor_is_structure_error():
    f = np.geomspace(1e9, 50e9, 500)
    y = 1j * 2 * math.pi * f * 50e-15
    with pytest.raises(StructureError):
        initial_guess(ComplexCurve(f, y))


def test_initial_guess_ls_from_em_resonance():
    # EM self-resonance of ls = 100 pH against c0 sits near 70 GHz, inside
    # the sweep, and seeds ls within a factor of two.
    guess = initial_guess(CURVE)
    assert TRUTH.ls / 2 <= guess.ls <= TRUTH.ls * 2


def test_fit_from_truth_is_immediate():
    result = fit_mbvd(CURVE, TRUTH)
    assert result.converged
    assert result.iterations <= 2
    assert result.residual_norm < 1e-12 * len(CURVE)


def test_fit_round_trip_noiseless():
    result = fit_mbvd(CURVE, initial_guess(CURVE))
    assert result.converged
    assert max(rel_errors(result.params).values()) < 1e-3


def test_fit_round_trip_with_seeded_noise():
    rng = np.random.default_rng(42)
    noise = 1.0 + 0.01 * (rng.standard_normal(GRID.size)
                          + 1j * rng.standard_normal(GRID.size))
    noisy = ComplexCurve(GRID, CURVE.values * noise)
    result = fit_mbvd(noisy, initial_guess(noisy))
    assert result.converged
    assert max(rel_errors(result.params).values()) < 0.02
    assert abs(result.summary.k2 - coupling_k2(TRUTH)) < 0.01


def test_fit_residual_not_above_init_residual():
    init = initial_guess(CURVE)
    d = resonator_admittance(init, GRID).values - CURVE.values
    w = 1.0 / CURVE.magnitude
    r0 = np.concatenate([d.real * w, d.imag * w])
    result = fit_mbvd(CURVE, init)
    assert result.residual_norm <= float(np.linalg.norm(r0))


def test_fit_invariant_to_sample_order():
    rng = np.random.default_rng(9)
    perm = rng.permutation(GRID.size)
    shuffled = sorted_curve(GRID[perm], CURVE.values[perm])
    a = fit_mbvd(CURVE, initial_guess(CURVE))
    b = fit_mbvd(shuffled, initial_guess(shuffled))
    for k in PARAM_NAMES:
        assert getattr(a.params, k) == getattr(b.params, k)


def test_refit_is_a_fixed_point():
    first = fit_mbvd(CURVE, initial_guess(CURVE))
    second = fit_mbvd(CURVE, first.params)
    for k in PARAM_NAMES:
        v1, v2 = getattr(first.params, k), getattr(second.params, k)
        assert abs(v2 - v1) <= 1e-8 * abs(v1)


def test_summary_reproduces_generating_figures():
    result = fit_mbvd(CURVE, initial_guess(CURVE))
    assert result.summary.fs == pytest.approx(20e9, rel=1e-3)
    assert result.summary.k2 == pytest.approx(0.42, abs=1e-3)


def test_fit_requires_enough_samples():
    short = ComplexCurve(GRID[:5], CURVE.values[:5])
    with pytest.raises(DomainError):
        fit_mbvd(short, TRUTH)


def test_fit_options_validation():
    with pytest.raises(DomainError):
        FitOptions(max_iterations=0)
    with pytest.raises(DomainError):
        FitOptions(weight_mode="nope")


def test_uniform_weighting_also_recovers():
    result = fit_mbvd(CURVE, initial_guess(CURVE), FitOptions(weight_mode="uniform"))
    assert result.converged
    assert max(rel_errors(result.params).values()) < 1e-3


def test_non_finite_sweep_is_domain_error():
    values = CURVE.values.copy()
    values[100] = complex(math.nan, 0.0)
    bad = ComplexCurve(GRID, values)
    with pytest.raises(DomainError):
        initial_guess(bad)
    with pytest.raises(DomainError):
        fit_mbvd(bad, TRUTH)


def test_overflowing_weighted_residual_is_domain_error():
    # A sample at 1e-200 S weighs 1e200 under inverse-magnitude weighting,
    # so the squared residual overflows; that is reported, not warned about.
    values = CURVE.values.copy()
    values[100] = 1e-200
    with pytest.raises(DomainError):
        fit_mbvd(ComplexCurve(GRID, values), TRUTH)