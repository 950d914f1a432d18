"""The |S21| SVG plot on curves it cannot or can barely draw."""

import math
import re

import numpy as np
import pytest

from acoufilt.curves import ComplexCurve
from acoufilt.errors import DomainError
from acoufilt.svgplot import s21_magnitude_svg


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
