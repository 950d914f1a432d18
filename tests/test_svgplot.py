"""The |S21| SVG plot on curves it cannot or can barely draw."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from acoufilt import build_ladder_response, mbvd_from_targets, shunt_series_shunt, svgplot
from acoufilt.curves import ComplexCurve
from acoufilt.errors import DomainError
from acoufilt.svgplot import _polyline_points, s21_magnitude_svg


@pytest.mark.parametrize("freq, values, match", [
    ([1e9], [0.5], "frequency span is zero"),
    ([1e9, 2e9], [math.nan, 0.5], "non-finite"),
    ([1e9, 2e9], [math.inf, 0.5], "non-finite"),
    ([1e9, 2e9], [1.7e308 + 1.7e308j, 0.5], "non-finite"),
], ids=["one-point", "nan", "inf", "magnitude-overflow"])
def test_degenerate_curves_are_domain_errors(freq, values, match):
    with pytest.raises(DomainError, match=match):
        s21_magnitude_svg(ComplexCurve(freq, values))


def test_frequency_span_of_one_float_spacing_is_drawn():
    # 1e18 Hz and the next frequency that differs in GHz: the tick step
    # is below half the float spacing at 1e9 GHz, so it cannot advance.
    lo = 1e18
    hi = np.nextafter(lo, 2e18)
    while hi / 1e9 == lo / 1e9:
        hi = np.nextafter(hi, 2e18)
    svg = s21_magnitude_svg(ComplexCurve([lo, hi], [0.5, 0.5]))
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")


def test_zero_magnitude_is_drawn_at_the_floor():
    svg = s21_magnitude_svg(ComplexCurve([1e9, 2e9], [0.0, 1.0]))
    assert ">-80<" in svg


def test_flat_curve_is_drawn_on_a_ten_db_axis():
    # A flat 0 dB curve has y_lo == y_hi before the axis is widened.
    svg = s21_magnitude_svg(ComplexCurve([1e9, 2e9, 3e9], [1.0, 1.0, 1.0]))
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    xy = np.array([float(v) for pt in points.split() for v in pt.split(",")])
    assert xy.size == 6 and np.isfinite(xy).all()
    assert ">0<" in svg and ">10<" in svg


def _percent_points(xy):
    return " ".join(["%.3f,%.3f"] * (len(xy) // 2)) % tuple(xy)


def _neighbours(v):
    return [float(np.nextafter(v, -math.inf)), v, float(np.nextafter(v, math.inf))]


# Exact ties of v*1000 (74437.5, 83312.5) and values whose rounding
# carries into the next integer digit, each with its one-ulp neighbours;
# the plot's bounds; and values the kernel leaves to "%.3f": 1000 and
# above, one that rounds to 1000.000, negative, -0.0 and non-finite.
_EDGES = [*_neighbours(74.4375), *_neighbours(83.3125), *_neighbours(9.9995),
          *_neighbours(99.9995), *_neighbours(0.0005)[1:], 70.0, 780.0, 20.0, 0.0,
          999.9995, 999.9996, 1000.0, 1e4, -1.0, -0.0, math.nan, math.inf]


@given(st.lists(st.floats(0.0, 1000.0, exclude_max=True) | st.sampled_from(_EDGES),
                min_size=1, max_size=16))
@example([74.4375, 83.3125])
@example(_EDGES[:16])
@example(_EDGES[16:])
@example([999.9996, 20.0])
@example([70.0, 780.0])
@example([20.0, 1000.0])
def test_polyline_points_are_formatted_as_percent_3f(values):
    xy = np.array(values + values[-1:] * (len(values) % 2))
    assert _polyline_points(xy) == _percent_points(xy.tolist())


def test_linear_grid_plot_is_the_same_without_the_kernel(monkeypatch):
    # A 4001-point linear grid puts many x values on exact ties of v*1000.
    fc = 23.5e9
    c0 = 1 / (2 * math.pi * fc * 50)
    design = shunt_series_shunt(
        mbvd_from_targets(fc * math.sqrt(1 - 0.46 / (math.pi**2 / 8)), 0.46, c0, 50),
        mbvd_from_targets(fc, 0.46, c0 / 2, 50))
    curve = build_ladder_response(design, np.linspace(1e9, 4e10, 4001)).s21()
    seen = []

    def spy(xy):
        seen.append(xy)
        return _polyline_points(xy)

    monkeypatch.setattr(svgplot, "_polyline_points", spy)
    svg = s21_magnitude_svg(curve)
    p = seen[0] * 1000.0
    assert (np.abs(p - np.rint(p)) == 0.5).sum() > 100
    monkeypatch.setattr(svgplot, "_polyline_points", lambda xy: _percent_points(xy.tolist()))
    assert s21_magnitude_svg(curve) == svg
