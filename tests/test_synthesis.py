import numpy as np
import pytest

from acoufilt import (
    DesignSpec,
    ElementKind,
    ThicknessScaling,
    build_ladder_response,
    passband_metrics,
    series_resonance,
    synthesize_ladder,
    thickness_scale,
)
from acoufilt import synthesis
from acoufilt.errors import DomainError
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


def test_evaluation_bugs_are_not_scored_as_failed_evaluations(monkeypatch):
    # Only toolkit errors mean "no scoreable passband"; anything else is a bug.
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(synthesis, "passband_metrics", broken)
    with pytest.raises(TypeError):
        synthesize_ladder(REFERENCE_SPEC)


def test_spec_validation():
    with pytest.raises(DomainError):
        DesignSpec(fc_target=-1e9, fbw_target=0.1, k2=0.4, q=50)
    with pytest.raises(DomainError):
        DesignSpec(fc_target=1e9, fbw_target=0.1, k2=1.5, q=50)
    with pytest.raises(DomainError):
        DesignSpec(fc_target=1e9, fbw_target=0.1, k2=0.4, q=50, rs=-1.0)


def test_thickness_scale():
    scaling = ThicknessScaling(f_ref=20e9, t_ref=90e-9)
    assert thickness_scale(scaling, 90e-9) == pytest.approx(20e9)
    assert thickness_scale(scaling, 75e-9) == pytest.approx(20e9 * 1.2, rel=1e-12)
    assert thickness_scale(ThicknessScaling(5e9, 100e-9), 50e-9) == pytest.approx(10e9)
    with pytest.raises(DomainError):
        thickness_scale(scaling, 0.0)
    with pytest.raises(DomainError):
        ThicknessScaling(f_ref=0.0, t_ref=90e-9)
