import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_network import kernel_s21_db

from acoufilt import (
    DesignSpec,
    ElementKind,
    ThicknessScaling,
    build_ladder_response,
    mbvd_from_targets,
    passband_metrics,
    series_resonance,
    synthesize_ladder,
    thickness_scale,
)
from acoufilt import metrics, synthesis
from acoufilt.errors import AcoufiltError, DomainError
from acoufilt.mbvd import _circuit_terms, _jw, _motional, _routing
from acoufilt.synthesis import _GRID_POINTS, _GRID_SPAN

REFERENCE_SPEC = DesignSpec(
    fc_target=23.5e9, fbw_target=0.16, z0=50.0, oob_min_db=12.0,
    k2=0.46, q=50.0, il_max_db=1.6,
)


@pytest.fixture(scope="module")
def reference_result():
    return synthesize_ladder(REFERENCE_SPEC)


def test_reference_spec_is_feasible(reference_result):
    m = reference_result.metrics
    assert reference_result.feasible
    assert abs(m.il_db - 1.47) <= 0.5
    assert abs(m.fc - 23.5e9) / 23.5e9 <= 0.005
    assert abs(m.fbw3 - 0.16) <= 0.015
    assert m.oob_rejection_db >= 12.0


def test_topology_and_shunt_identity(reference_result):
    kinds = [k for k, _ in reference_result.design.elements]
    assert kinds == [ElementKind.SHUNT, ElementKind.SERIES, ElementKind.SHUNT]
    assert reference_result.design.elements[0][1] is reference_result.design.elements[2][1]


def test_series_resonates_above_shunt(reference_result):
    shunt = reference_result.design.elements[0][1]
    series = reference_result.design.elements[1][1]
    assert series_resonance(series) > series_resonance(shunt)


def test_reported_metrics_match_fresh_evaluation(reference_result):
    spec = REFERENCE_SPEC
    grid = np.linspace(_GRID_SPAN[0] * spec.fc_target,
                       _GRID_SPAN[1] * spec.fc_target, _GRID_POINTS)
    block = build_ladder_response(reference_result.design, grid)
    fresh = passband_metrics(block.s21(), guard=0.15)
    assert fresh == reference_result.metrics


def test_determinism(reference_result):
    again = synthesize_ladder(REFERENCE_SPEC)
    assert again.design == reference_result.design
    assert again.metrics == reference_result.metrics


def test_insufficient_coupling_is_flagged_infeasible():
    spec = DesignSpec(fc_target=23.5e9, fbw_target=0.16, k2=0.001, q=50.0,
                      oob_min_db=12.0, il_max_db=1.6)
    result = synthesize_ladder(spec)
    assert not result.feasible


def test_self_consistency_on_secondary_spec():
    spec = DesignSpec(fc_target=10e9, fbw_target=0.10, k2=0.42, q=200.0,
                      oob_min_db=10.0, il_max_db=1.0)
    result = synthesize_ladder(spec)
    assert result.feasible
    grid = np.linspace(_GRID_SPAN[0] * spec.fc_target,
                       _GRID_SPAN[1] * spec.fc_target, _GRID_POINTS)
    fresh = passband_metrics(build_ladder_response(result.design, grid).s21(),
                             guard=0.15)
    assert fresh == result.metrics


def _scoring_grid(spec):
    return np.linspace(_GRID_SPAN[0] * spec.fc_target, _GRID_SPAN[1] * spec.fc_target,
                       _GRID_POINTS)


def _full_response_db(design, grid):
    return build_ladder_response(design, grid).s21().magnitude_db


def test_scoring_on_s21_alone_matches_the_full_response(monkeypatch, reference_result):
    # The search must take the same path when every candidate is scored from
    # |S21| in dB of the full two-port response of its built design.
    grid = _scoring_grid(REFERENCE_SPEC)
    calls = []

    def full_response_db(x, spec, jw, routing):
        calls.append(x)
        return _full_response_db(synthesis._design_from_x(x, spec), grid)

    monkeypatch.setattr(synthesis, "_s21_db", full_response_db)
    assert synthesize_ladder(REFERENCE_SPEC) == reference_result
    assert len(calls) == reference_result.evaluations


def _built_design_score(x, spec, grid, guard, s21_db):
    """The score of placement x from its built design."""
    try:
        m = metrics._metrics_from_db(grid, s21_db(synthesis._design_from_x(x, spec), grid), guard)
    except AcoufiltError:
        return synthesis._FAILED_EVAL_PENALTY
    return synthesis._score(m, spec)


SCORED_SPECS = (
    REFERENCE_SPEC,
    dataclasses.replace(REFERENCE_SPEC, q=math.inf),
    dataclasses.replace(REFERENCE_SPEC, rs=0.5, ls=20e-12, q=1e-300),
    DesignSpec(fc_target=10e9, fbw_target=0.10, k2=0.42, q=200.0, oob_min_db=10.0,
               il_max_db=1.0, rs=0.3, ls=5e-12),
)


@st.composite
def seed_scales(draw):
    """Factors u of the seed placement near 1, where most candidates score,
    and sometimes one factor that leaves no circuit or no scoreable
    passband."""
    u = draw(st.lists(st.floats(0.6, 1.6), min_size=4, max_size=4))
    if draw(st.booleans()):
        u[draw(st.integers(0, 3))] = draw(
            st.floats(-0.5, 3.0) | st.sampled_from([0.0, 1e-300, 1e-160, 1e160, 1e300]))
    return u


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCORED_SPECS), seed_scales(),
       st.sampled_from([0.0, 0.15]))
@example(REFERENCE_SPEC, [1.0, 1.0, 1.0, 1.0], 0.15)
@example(REFERENCE_SPEC, [1.0, 1.0, 1.0, 1e300], 0.15)
@example(REFERENCE_SPEC, [1e-160, 1.0, 1.0, 1.0], 0.15)
def test_float_path_score_matches_the_built_design(spec, u, guard):
    # Bit for bit through the same kernel, with the failed-evaluation penalty
    # at the same placements (the examples: the seed, a shunt c0 that
    # overflows cm, a series lm that overflows).  From the full response,
    # whose S21 = 2/delta rounds differently, the penalty falls at the same
    # placements and the score agrees to rounding.
    grid = _scoring_grid(spec)
    with np.errstate(over="ignore"):  # x may hold inf: a placement without a circuit
        x = synthesis._seed_placement(spec) * np.array(u)
    # Scored as the search scores it: under its errstate, with its routing term.
    with np.errstate(all="ignore"):
        jw = _jw(grid)
        got = synthesis._placement_score(x, spec, grid, jw, _routing(jw, spec.rs, spec.ls),
                                         guard)
    assert got.hex() == _built_design_score(x, spec, grid, guard, kernel_s21_db).hex()
    full = _built_design_score(x, spec, grid, guard, _full_response_db)
    assert (got == synthesis._FAILED_EVAL_PENALTY) == (full == synthesis._FAILED_EVAL_PENALTY)
    assert got == pytest.approx(full, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("spec", SCORED_SPECS)
def test_scoring_leaves_the_shared_arrays_alone(spec):
    # The search forms jw and the routing term once and shares them among
    # all candidates, whose arithmetic runs in place on arrays of their own.
    grid = _scoring_grid(spec)
    x = synthesis._seed_placement(spec)
    with np.errstate(all="ignore"):
        jw = _jw(grid)
        routing = _routing(jw, spec.rs, spec.ls)
        shared = [a for a in (jw, routing) if a is not None]
        before = [a.tobytes() for a in shared]
        scores = [synthesis._placement_score(x, spec, grid, jw, routing, 0.15)
                  for _ in range(2)]
        assert [a.tobytes() for a in shared] == before
        assert scores[0].hex() == scores[1].hex()
        rm, lm, cm = _motional(x[0], spec.k2, x[2], spec.q)
        for r0 in (0.0, 0.5):
            pm, ps, num, den = _circuit_terms(jw, rm, lm, cm, x[2], routing, r0)
            owned = [pm, num, den] + ([ps] if r0 else [])
            assert not any(np.shares_memory(a, b) for a in owned for b in shared)
            assert (den is pm) == (routing is None and not r0)


def _scipy_nelder_mead(f, simplex, maxfev, xatol, fatol):
    """(x, fun, nfev) of scipy's Nelder-Mead, which _nelder_mead must match."""
    from scipy.optimize import minimize

    res = minimize(f, simplex[0], method="Nelder-Mead",
                   options={"initial_simplex": simplex, "maxfev": maxfev, "xatol": xatol,
                            "fatol": fatol, "adaptive": False})
    return res.x, res.fun, res.nfev


def _assert_same_search(f, simplex, maxfev, xatol, fatol):
    """_nelder_mead and scipy's Nelder-Mead on f() (a new objective for each)
    return the same x, fun and nfev, bit for bit."""
    x, fun, nfev = synthesis._nelder_mead(f(), simplex, maxfev, xatol, fatol)
    ref_x, ref_fun, ref_nfev = _scipy_nelder_mead(f(), simplex, maxfev, xatol, fatol)
    assert (x.tobytes(), float(fun).hex(), nfev) == (
        ref_x.tobytes(), float(ref_fun).hex(), ref_nfev)


CRITERION_2_SPEC = DesignSpec(fc_target=23.5e9, fbw_target=0.17, z0=50.0, oob_min_db=10.0,
                              k2=0.42, q=40.0, rs=0.5, ls=30e-12, il_max_db=3.0)


@pytest.mark.parametrize("spec", [REFERENCE_SPEC, CRITERION_2_SPEC])
def test_search_takes_the_steps_of_scipys_nelder_mead(monkeypatch, spec):
    # Replayed on the objective, simplex, cap and tolerances that
    # synthesize_ladder hands its search.  With a stable sort in place of
    # np.argsort, criterion 2 ends after 1465 evaluations instead of 1471.
    nelder_mead, searches = synthesis._nelder_mead, []

    def spy(*args):
        searches.append(args)
        return nelder_mead(*args)

    monkeypatch.setattr(synthesis, "_nelder_mead", spy)
    result = synthesize_ladder(spec)
    (f, simplex, maxfev, xatol, fatol), = searches
    with np.errstate(all="ignore"):
        _assert_same_search(lambda: f, simplex, maxfev, xatol, fatol)
    assert nelder_mead(f, simplex, maxfev, xatol, fatol)[2] == result.evaluations


@st.composite
def tied_searches(draw):
    """A simplex of 1-4 variables on a coarse lattice, a cap of 3-60
    evaluations, tolerances, and the values f returns in call order: one of
    four levels, lowered by 1 every third call, so that values and vertices
    tie and some steps expand.  The cap falls in the initial simplex and in
    every kind of step: expansion, both contractions and shrink."""
    n = draw(st.integers(1, 4))
    coordinate = st.integers(-4, 4).map(lambda k: k / 4)
    simplex = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n),
                            min_size=n + 1, max_size=n + 1))
    maxfev = draw(st.integers(3, 60))
    levels = draw(st.lists(st.integers(0, 3), min_size=maxfev, max_size=maxfev))
    values = [float(level - i // 3) for i, level in enumerate(levels)]
    tolerance = draw(st.sampled_from([0.0, 0.25]))
    return np.array(simplex), maxfev, values, tolerance


@settings(max_examples=300, deadline=None)
@given(tied_searches())
def test_search_matches_scipy_on_tied_values_up_to_its_cap(search):
    simplex, maxfev, values, tolerance = search

    def objective():
        it = iter(values)
        return lambda x: next(it)

    _assert_same_search(objective, simplex, maxfev, tolerance, tolerance)


def test_evaluation_bugs_are_not_scored_as_failed_evaluations(monkeypatch):
    # Only toolkit errors mean "no scoreable passband"; anything else is a
    # bug, whether it happens while scoring a candidate or in the final
    # re-evaluation.
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(metrics, "_metrics_from_db", broken)
    with pytest.raises(TypeError):
        synthesize_ladder(REFERENCE_SPEC)


def test_spec_validation():
    with pytest.raises(DomainError):
        DesignSpec(fc_target=-1e9, fbw_target=0.1, k2=0.4, q=50)
    with pytest.raises(DomainError):
        DesignSpec(fc_target=1e9, fbw_target=0.1, k2=1.5, q=50)
    with pytest.raises(DomainError):
        DesignSpec(fc_target=1e9, fbw_target=0.1, k2=0.4, q=50, rs=-1.0)


NON_FINITE_FIELDS = [(f.name, v) for f in dataclasses.fields(DesignSpec)
                     for v in (math.nan, math.inf, -math.inf)
                     if not (f.name == "q" and v == math.inf)]


@pytest.mark.parametrize("field, value", NON_FINITE_FIELDS)
def test_spec_rejects_non_finite_fields(field, value):
    with pytest.raises(DomainError):
        dataclasses.replace(REFERENCE_SPEC, **{field: value})


def test_spec_accepts_lossless_q():
    assert dataclasses.replace(REFERENCE_SPEC, q=math.inf).q == math.inf


def test_thickness_scale():
    scaling = ThicknessScaling(f_ref=20e9, t_ref=90e-9)
    assert thickness_scale(scaling, 90e-9) == pytest.approx(20e9)
    assert thickness_scale(scaling, 75e-9) == pytest.approx(20e9 * 1.2, rel=1e-12)
    assert thickness_scale(ThicknessScaling(5e9, 100e-9), 50e-9) == pytest.approx(10e9)
    with pytest.raises(DomainError):
        thickness_scale(scaling, 0.0)
    with pytest.raises(DomainError):
        ThicknessScaling(f_ref=0.0, t_ref=90e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_thickness_scaling_rejects_non_finite_values(value):
    scaling = ThicknessScaling(f_ref=20e9, t_ref=90e-9)
    for f_ref, t_ref in ((value, 90e-9), (20e9, value)):
        with pytest.raises(DomainError, match="positive and finite"):
            ThicknessScaling(f_ref=f_ref, t_ref=t_ref)
    with pytest.raises(DomainError, match="positive and finite"):
        thickness_scale(scaling, value)


@pytest.mark.parametrize("f_ref, t_ref, t_new", [(1e300, 1e300, 1.0), (1e-300, 1e-300, 1.0),
                                                  (1e10, 1e-7, 1e-320)])
def test_thickness_scale_rejects_a_result_that_is_not_positive_and_finite(f_ref, t_ref,
                                                                            t_new):
    # f_ref * t_ref / t_new over- or underflows: inf, 0.0 and inf.
    with pytest.raises(DomainError, match="not positive and finite"):
        thickness_scale(ThicknessScaling(f_ref, t_ref), t_new)


@pytest.mark.parametrize("guard", [-0.1, math.nan, math.inf])
def test_guard_is_checked_before_the_search(monkeypatch, guard):
    # A non-finite guard once spent the search and returned infeasible.
    monkeypatch.setattr(synthesis, "_placement_score", None)
    with pytest.raises(DomainError, match="guard must be nonnegative and finite"):
        synthesize_ladder(REFERENCE_SPEC, guard=guard)


@pytest.mark.parametrize("field, value", [("q", 1e-300), ("ls", 1e300)])
def test_candidates_that_name_faults_give_a_best_effort(field, value):
    # Every placement's chain names a fault (non-finite ABCD entries); the
    # search still returns its seed design, flagged infeasible.
    result = synthesize_ladder(dataclasses.replace(REFERENCE_SPEC, **{field: value}))
    assert not result.feasible and result.metrics is None and result.cost == math.inf
    assert [kind for kind, _ in result.design.elements] == [
        ElementKind.SHUNT, ElementKind.SERIES, ElementKind.SHUNT]


@pytest.mark.parametrize("field, value", [("fc_target", 1e300), ("fc_target", 1e-300),
                                          ("k2", 1e-300), ("z0", 1e-300)])
def test_spec_without_a_seed_circuit_is_a_domain_error(field, value):
    # Warnings are errors here: the placement arithmetic on the search's
    # float64 values must not print numpy overflow or divide warnings.
    with pytest.raises(DomainError):
        synthesize_ladder(dataclasses.replace(REFERENCE_SPEC, **{field: value}))


def test_seed_whose_motional_inductance_underflows_names_the_branch():
    # With z0 = 1e-300 the seed's c0 is about 6.8e288 F: (2*pi*fs)^2 * cm
    # overflows to inf and lm = 1/inf = 0, an overflow of the placement,
    # not a nonpositive element the caller gave.
    with pytest.raises(DomainError, match="no finite motional branch"):
        mbvd_from_targets(23.5e9, 0.46, 1e300, 50.0)
    with pytest.raises(DomainError, match="no finite motional branch"):
        synthesize_ladder(dataclasses.replace(REFERENCE_SPEC, z0=1e-300))
