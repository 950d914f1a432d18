import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import least_squares

from acoufilt import (
    ComplexCurve,
    FitOptions,
    MbvdParams,
    coupling_k2,
    fit_mbvd,
    fitting,
    initial_guess,
    mbvd_from_targets,
    resonator_admittance,
    series_resonance,
)
from acoufilt.errors import AcoufiltError, DomainError, SearchError, StructureError
from acoufilt.mbvd import rational_coefficients

PARAM_NAMES = ("rm", "lm", "cm", "c0", "rs", "ls")

TRUTH = mbvd_from_targets(20e9, 0.42, 50e-15, 40.0, rs=0.5, ls=100e-12)
GRID = np.geomspace(5e9, 100e9, 2001)
CURVE = resonator_admittance(TRUTH, GRID)


def rel_errors(fitted, truth=TRUTH):
    return {k: abs(getattr(fitted, k) - getattr(truth, k)) / getattr(truth, k)
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


def _motional_branch_only(f):
    # The clean resonator without c0: |Y| peaks at fs and falls from there.
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40.0)
    s = 2j * math.pi * f
    return ComplexCurve(f, 1.0 / (p.rm + s * p.lm + 1.0 / (s * p.cm)))


def _inductive_tail(f):
    # The conjugate has the same |Y| but a negative susceptance below fs.
    y = resonator_admittance(mbvd_from_targets(20e9, 0.42, 50e-15, 40.0), f)
    return ComplexCurve(f, np.conj(y.values))


@pytest.mark.parametrize("curve, match", [
    # Y = s*cm / (1 + s*rm*cm + s^2*lm*cm) is of lower degree, so any common
    # factor of num and den fits it as well: two coefficients are free.
    (_motional_branch_only, r"the sweep fixes only 5 of the 7 coefficients"),
    # Y(-s) has the coefficients of Y(s) with alternating signs.
    (_inductive_tail, r"the rational fit of the sweep gives c0 = -5e-14$"),
])
def test_initial_guess_names_the_missing_structure(curve, match):
    with pytest.raises(StructureError, match=match):
        initial_guess(curve(np.geomspace(5e9, 60e9, 3001)))


def test_initial_guess_leaves_out_a_zero_sample():
    # 1/|Y| has no finite value there; the other 2000 samples fix the seed.
    values = CURVE.values.copy()
    values[100] = 0.0
    guess = initial_guess(ComplexCurve(GRID, values))
    assert max(rel_errors(guess).values()) < 1e-6


@pytest.mark.parametrize("tiny", [1e-300, 1e-100, 1e-20])
def test_initial_guess_leaves_out_a_tiny_sample(tiny):
    # Its weight 1/|Y| would swamp the rank test: a sample at or below
    # 1e-12 of the largest |Y| is left out like a zero one.  The uniform
    # fit, which the sample does not dominate, converges from that seed.
    values = CURVE.values.copy()
    values[100] = tiny
    curve = ComplexCurve(GRID, values)
    guess = initial_guess(curve)
    assert max(rel_errors(guess).values()) < 1e-9
    result = fit_mbvd(curve, guess, FitOptions(weight_mode="uniform"))
    assert result.converged
    assert max(rel_errors(result.params).values()) < 1e-3


# The criterion-4 sweep with one sample, near the low end or near the
# anti-resonance, at or below 1e-12 of the largest |Y| (1.93 S).
@pytest.mark.parametrize("index", [100, 1000])
@pytest.mark.parametrize("tiny", [1e-300, 1e-100, 1e-30, 1e-20, 1e-13, 1e-12])
def test_fit_leaves_out_a_dropout_sample(index, tiny):
    # The fit weighs samples as the seed does, so the sample that 1/|Y|
    # would let outweigh the other 2000 counts for nothing in either.
    values = CURVE.values.copy()
    values[index] = tiny
    curve = ComplexCurve(GRID, values)
    result = fit_mbvd(curve, initial_guess(curve))
    assert result.converged
    assert max(rel_errors(result.params).values()) <= 1e-9


# Each sample gives two real rows, so four fix the seven coefficients; the
# rank test and the solve read the same on grids 25 000 times as long.
@pytest.mark.parametrize("n", [4, 7, 201, 16001, 100001])
def test_clean_sweeps_fix_the_seed(n):
    guess = initial_guess(resonator_admittance(TRUTH, np.geomspace(5e9, 100e9, n)))
    assert max(rel_errors(guess).values()) <= 1e-9


def test_three_samples_are_too_few_for_the_seed():
    with pytest.raises(StructureError, match=r"the sweep fixes only 6 of the 7 coefficients"):
        initial_guess(resonator_admittance(TRUTH, np.geomspace(5e9, 100e9, 3)))


def test_initial_guess_ls_from_em_resonance():
    # The routing inductance of 100 pH is one of the fitted coefficients
    # (b4 = ls*a3), so the seed has it within a factor of two and closer.
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


def _seeded_noisy_curve():
    """The criterion-4 sweep with 1 % complex noise from seed 42."""
    rng = np.random.default_rng(42)
    noise = 1.0 + 0.01 * (rng.standard_normal(GRID.size)
                          + 1j * rng.standard_normal(GRID.size))
    return ComplexCurve(GRID, CURVE.values * noise)


def test_fit_round_trip_with_seeded_noise():
    noisy = _seeded_noisy_curve()
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


def test_fit_residual_norm_matches_the_returned_params():
    result = fit_mbvd(CURVE, initial_guess(CURVE))
    d = resonator_admittance(result.params, GRID).values - CURVE.values
    w = 1.0 / CURVE.magnitude
    norm = float(np.linalg.norm(np.concatenate([d.real * w, d.imag * w])))
    assert result.residual_norm == pytest.approx(norm, rel=1e-9)


def test_fit_evaluates_each_point_once(monkeypatch):
    # The residual and the Jacobian at one point share one model evaluation,
    # the start is evaluated once, and so is each Jacobian, the one at the
    # start that leastsq's shape check and lmder both ask for included.
    points = []
    jacobians = []
    circuit_terms = fitting._circuit_terms
    log_jacobian = fitting._log_jacobian

    def counting_terms(jw, rm, lm, cm, c0, routing):
        points.append((rm, lm, cm, c0, None if routing is None else routing.tobytes()))
        return circuit_terms(jw, rm, lm, cm, c0, routing)

    def counting_log_jacobian(q, *args):
        jacobians.append(tuple(q))
        return log_jacobian(q, *args)

    monkeypatch.setattr(fitting, "_circuit_terms", counting_terms)
    monkeypatch.setattr(fitting, "_log_jacobian", counting_log_jacobian)
    result = fit_mbvd(CURVE, initial_guess(CURVE))
    assert result.converged
    assert len(points) > result.iterations
    assert len(set(points)) == len(points)
    assert len(jacobians) == result.iterations
    assert len(set(jacobians)) == len(jacobians)


@pytest.mark.parametrize("weight_mode", fitting.WEIGHT_MODES)
@pytest.mark.parametrize("curve", [CURVE, _seeded_noisy_curve()], ids=["clean", "noisy"])
def test_fit_hands_minpack_the_jacobian_of_its_residual(monkeypatch, curve, weight_mode):
    # The (6, 2n) array passed as Dfun, one row per log-parameter: the
    # derivatives of the weighted residual, real parts then imaginary parts.
    # Checked at the start and at the returned point against central
    # differences of the residual, each Jacobian asked for after a residual
    # at another point, so that one cached for a stale point fails.
    calls = []
    leastsq = fitting.leastsq

    def spy(func, x0, Dfun, **kw):
        out = leastsq(func, x0, Dfun=Dfun, **kw)
        calls.append((func, Dfun, x0, out[0]))
        return out

    monkeypatch.setattr(fitting, "leastsq", spy)
    fit_mbvd(curve, initial_guess(curve), FitOptions(weight_mode=weight_mode))
    [(residual, jacobian, x0, x_end)] = calls
    h = 1e-6
    for x in (x0, x_end):
        fd = np.array([(residual(x + e) - residual(x - e)) / (2.0 * h)
                       for e in np.eye(x.size) * h])
        jac = jacobian(x)
        assert jac.shape == fd.shape == (6, 2 * len(curve))
        err = np.max(np.abs(jac - fd), axis=1)
        assert np.all(err <= 1e-6 * np.max(np.abs(jac), axis=1))


def test_fit_builds_one_params_before_its_summary(monkeypatch):
    # Trial points are evaluated on floats; only the result is an MbvdParams.
    curve = _seeded_noisy_curve()
    init = initial_guess(curve)
    built = []
    at_summary = []
    post_init = MbvdParams.__post_init__
    summarize = fitting.summarize

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def spy(p):
        at_summary.append(len(built))
        return summarize(p)

    monkeypatch.setattr(MbvdParams, "__post_init__", counting_post_init)
    monkeypatch.setattr(fitting, "summarize", spy)
    result = fit_mbvd(curve, init)
    assert result.iterations > 1
    assert at_summary == [1]
    assert built == [result.params]


# From the rational seed the clean fit converges within any cap (in 2
# residual evaluations) and the noisy one in 4, so a cap of 3 on the noisy
# fit stops it before it converges.
@pytest.mark.parametrize("noisy, max_iterations", [(False, 200), (True, 200), (True, 3)])
def test_leastsq_takes_the_steps_of_least_squares_lm(monkeypatch, noisy, max_iterations):
    # leastsq and least_squares(method="lm", x_scale="jac") both run MINPACK
    # lmder with factor 100 and diag=None; the fit's column-major Jacobian,
    # transposed, is the row-major one least_squares expects.
    curve = _seeded_noisy_curve() if noisy else CURVE
    runs = []
    leastsq = fitting.leastsq

    def spy(func, x0, **kw):
        out = leastsq(func, x0, **kw)
        ref = least_squares(func, x0, jac=lambda x: kw["Dfun"](x).T, method="lm",
                            x_scale="jac", ftol=kw["ftol"], xtol=kw["xtol"],
                            gtol=kw["gtol"], max_nfev=kw["maxfev"])
        runs.append((out, ref))
        return out

    monkeypatch.setattr(fitting, "leastsq", spy)
    result = fit_mbvd(curve, initial_guess(curve), FitOptions(max_iterations=max_iterations))
    (((x, _, info, _, _), ref),) = runs
    assert x.tobytes() == ref.x.tobytes()
    assert (info["nfev"], info["njev"]) == (ref.nfev, ref.njev)
    assert info["fvec"].tobytes() == ref.fun.tobytes()
    assert result.converged == (ref.status > 0) == (max_iterations == 200)


def test_nan_trial_point_has_an_infinite_residual(monkeypatch):
    # lmder can step to a NaN point; the residual must reject it, not hand
    # it to the model.
    leastsq = fitting.leastsq

    def spy(func, x0, **kw):
        assert np.all(func(np.full(6, np.nan)) == np.inf)
        return leastsq(func, x0, **kw)

    monkeypatch.setattr(fitting, "leastsq", spy)
    assert fit_mbvd(CURVE, TRUTH).converged


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
    # Two samples give 4 real residuals for 6 parameters.
    short = ComplexCurve(GRID[:2], CURVE.values[:2])
    with pytest.raises(DomainError, match=r"need at least 3 samples \(6 real residuals\)"):
        fit_mbvd(short, TRUTH)


# Each sample gives two real residuals, so 3 samples fix the 6 parameters;
# from 4 on, the seed fixes them too (see test_clean_sweeps_fix_the_seed).
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("offset", [1.0, 1.2])
def test_fit_takes_sweeps_of_three_to_six_samples(n, offset):
    curve = resonator_admittance(TRUTH, np.geomspace(5e9, 100e9, n))
    start = TRUTH if n == 3 else initial_guess(curve)
    start = MbvdParams(*(getattr(start, k) * offset for k in PARAM_NAMES))
    result = fit_mbvd(curve, start)
    assert result.converged
    assert max(rel_errors(result.params).values()) <= 1e-12


def test_fit_options_validation():
    with pytest.raises(DomainError):
        FitOptions(max_iterations=0)
    with pytest.raises(DomainError):
        FitOptions(weight_mode="nope")


@pytest.mark.parametrize("n", [0, -1, 2**31, 2.5, 200.0, True, "200", None])
def test_max_iterations_outside_minpacks_int_is_domain_error(n):
    # MINPACK's maxfev is a C int: 2**31 overflowed it and 2.5 failed in scipy.
    with pytest.raises(DomainError, match=r"an integer in \[1, 2147483647\]"):
        FitOptions(max_iterations=n)


def test_largest_max_iterations_reaches_minpack():
    result = fit_mbvd(CURVE, initial_guess(CURVE), FitOptions(max_iterations=2**31 - 1))
    assert result.converged


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
    # Every sample scaled to about 1e-200 S weighs about 1e200 under
    # inverse-magnitude weighting, so the squared residual of the unscaled
    # truth overflows; that is reported, not warned about.
    with pytest.raises(DomainError, match="weighted residual at the initial guess is not finite"):
        fit_mbvd(ComplexCurve(GRID, CURVE.values * 1e-200), TRUTH)


def _runaway_sweep(seed, index):
    """Sweep ``index`` of 254 drawn from generator ``seed``: truths around the
    criterion-4 resonator, every second sweep with 1 % complex noise.  In
    sweeps 105/155 and 111/15 the noise puts a dip just above the resonance;
    a seed that takes that dip for the anti-resonance (NOISE_DIP_SEED) runs
    away, and the rational seed, which fits the whole sweep, does not."""
    rng = np.random.default_rng(seed)
    truths = [
        mbvd_from_targets(rng.uniform(15e9, 25e9), rng.uniform(0.38, 0.46),
                          rng.uniform(35e-15, 65e-15), rng.uniform(30.0, 100.0),
                          rs=rng.uniform(0.2, 1.0), ls=rng.uniform(50e-12, 150e-12))
        for _ in range(254)
    ]
    for _ in range(1, index, 2):
        rng.standard_normal(GRID.size)
        rng.standard_normal(GRID.size)
    y = resonator_admittance(truths[index], GRID).values
    noise = rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size)
    return truths[index], ComplexCurve(GRID, y * (1.0 + 0.01 * noise))


@pytest.mark.parametrize("seed, index", [(105, 155), (111, 15)])
def test_noise_dip_is_not_taken_for_the_anti_resonance(seed, index):
    truth, curve = _runaway_sweep(seed, index)
    result = fit_mbvd(curve, initial_guess(curve))
    assert result.converged
    assert max(rel_errors(result.params, truth).values()) < 0.02


# The first |Y| valley above the resonance of sweep 111/15, a noise dip, taken
# for the anti-resonance.  From it the search crosses the log-parameter limit
# on some trial points.
NOISE_DIP_SEED = MbvdParams(rm=8.030384545453904, lm=3.774185776521559e-07,
                            cm=1.7212045084376096e-16, c0=5.736920074255682e-14,
                            rs=0.5, ls=1.1255761681188162e-09)


def test_diverged_fit_reports_divergence():
    _, curve = _runaway_sweep(111, 15)
    with pytest.raises(SearchError, match=r"MBVD fit diverged: stopped after 20 of at most "
                                          r"20 residual evaluations") as err:
        fit_mbvd(curve, NOISE_DIP_SEED, FitOptions(max_iterations=20))
    assert isinstance(err.value, AcoufiltError)
    assert isinstance(err.value.__cause__, SearchError)


def test_converged_fit_without_a_resonance_is_named():
    _, curve = _runaway_sweep(111, 15)
    with pytest.raises(SearchError, match=r"MBVD fit converged to parameters without "
                                          r"a resonance \(no interior minimum") as err:
        fit_mbvd(curve, NOISE_DIP_SEED)
    assert isinstance(err.value.__cause__, SearchError)


def test_no_two_residuals_share_memory(monkeypatch):
    # leastsq may hold on to a residual it was handed, so each one, the
    # infinite residual of a point beyond the log-parameter limit included,
    # must be an array of its own.  From NOISE_DIP_SEED the search crosses
    # that limit.
    residuals = []
    leastsq = fitting.leastsq

    def spy(func, x0, **kw):
        def recording(x):
            residuals.append(func(x))
            return residuals[-1]

        return leastsq(recording, x0, **kw)

    monkeypatch.setattr(fitting, "leastsq", spy)
    fit_mbvd(CURVE, initial_guess(CURVE))
    _, curve = _runaway_sweep(111, 15)
    with pytest.raises(SearchError):
        fit_mbvd(curve, NOISE_DIP_SEED)
    assert sum(np.isinf(r).all() for r in residuals) >= 2
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(residuals) for b in residuals[:i])


# Resonators around the criterion-4 one, r0 = 0, each of rm (Q = inf), rs and
# ls either drawn or exactly zero.
_zero_or = st.just(0.0).__or__


@st.composite
def fit_truths(draw):
    q = draw(st.just(math.inf) | st.floats(30.0, 100.0))
    return mbvd_from_targets(draw(st.floats(15e9, 25e9)), draw(st.floats(0.38, 0.46)),
                             draw(st.floats(35e-15, 65e-15)), q,
                             rs=draw(_zero_or(st.floats(0.2, 1.0))),
                             ls=draw(_zero_or(st.floats(50e-12, 150e-12))))


@given(fit_truths(), st.floats(0.2, 5.0))
def test_coefficient_map_round_trip(p, scale):
    # params -> rational_coefficients -> the seed's closed form -> params.
    w0 = 2.0 * math.pi * series_resonance(p) * scale
    num, den = rational_coefficients(p, w0)
    back = fitting._params_from_coefficients(np.concatenate([num[1:], den[1:]]), w0)
    # A zero rm, rs or ls comes back as round-off about zero.
    for k in PARAM_NAMES:
        assert getattr(back, k) == pytest.approx(getattr(p, k), rel=1e-9,
                                                 abs=1e-12 * getattr(TRUTH, k))


def _zero_scaled_errors(p, ref, truth):
    """|p - ref| per parameter over the truth's value, or over the
    criterion-4 resonator's where the truth's is zero."""
    return {k: abs(getattr(p, k) - getattr(ref, k)) / (getattr(truth, k) or getattr(TRUTH, k))
            for k in PARAM_NAMES}


@given(fit_truths())
def test_seeded_fit_meets_criterion_4_on_clean_sweeps(truth):
    curve = resonator_admittance(truth, GRID)
    result = fit_mbvd(curve, initial_guess(curve))
    assert result.converged
    assert max(_zero_scaled_errors(result.params, truth, truth).values()) <= 1e-3


@given(fit_truths(), st.integers(0, 2**32 - 1))
def test_seeded_fit_of_noisy_sweeps_finds_the_fit_from_the_truth(truth, seed):
    # Criterion 4's 2 % tolerance, against the fit started at the truth: the
    # noise alone moves that fit's rs by more than 2 % of the truth in about
    # one draw in nine, and its other parameters by less.  A parameter whose
    # optimum is zero drifts towards it, and the two fits stop at slightly
    # different small values, so their residuals may differ in the 6th digit.
    rng = np.random.default_rng(seed)
    noise = 1.0 + 0.01 * (rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size))
    curve = ComplexCurve(GRID, resonator_admittance(truth, GRID).values * noise)
    result = fit_mbvd(curve, initial_guess(curve))
    reference = fit_mbvd(curve, truth)
    assert result.converged and reference.converged
    assert result.residual_norm <= reference.residual_norm * (1.0 + 1e-4)
    assert max(_zero_scaled_errors(result.params, reference.params, truth).values()) <= 0.02
    errors = _zero_scaled_errors(result.params, truth, truth)
    assert max(v for k, v in errors.items() if k != "rs") <= 0.02
