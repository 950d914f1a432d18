"""Frequency grids, a:b:n specs and complex sweeps: what each rejects."""

import math

import numpy as np
import pytest

from acoufilt.curves import MAX_POINTS, ComplexCurve, _parse_range_spec, parse_grid_spec
from acoufilt.errors import DomainError


@pytest.mark.parametrize("freq, values, match", [
    (np.ones((2, 2)), np.ones((2, 2)), "frequency grid must be one-dimensional"),
    ([1.0, math.inf], [0.0, 0.0], "frequency grid contains non-finite values"),
    ([1.0, 2.0], [0.0], "values and frequency grid have mismatched shapes"),
], ids=["two-dimensional", "non-finite", "mismatched-shapes"])
def test_complex_curve_rejections(freq, values, match):
    with pytest.raises(DomainError, match=match):
        ComplexCurve(freq, values)


@pytest.mark.parametrize("parse, spec, match", [
    (parse_grid_spec, "1:2", r"^grid spec '1:2' is not of the form start:stop:count$"),
    (parse_grid_spec, "1:x:3", r"^grid spec '1:x:3': could not convert string to float"),
    (parse_grid_spec, f"1:2:{MAX_POINTS + 1}", f"^grid count must be at most {MAX_POINTS}$"),
    (parse_grid_spec, "1:2:1", "^grid count must be at least 2$"),
    (parse_grid_spec, "2:1:3", r"^grid requires 0 < start < stop < inf$"),
    (_parse_range_spec, "1:2:3:4", r"^--range spec '1:2:3:4' is not of the form"),
    (_parse_range_spec, "1:2:2.5", r"^--range spec '1:2:2.5': invalid literal for int"),
    (_parse_range_spec, f"2:1:{MAX_POINTS + 1}", f"^--range count must be at most {MAX_POINTS}$"),
    (_parse_range_spec, "1:2:0", "^--range requires finite a <= b and n >= 1$"),
    (_parse_range_spec, "2:1:3", "^--range requires finite a <= b and n >= 1$"),
    (_parse_range_spec, "-1e308:1e308:3", "^--range requires finite a <= b and n >= 1$"),
])
def test_spec_rejections(parse, spec, match):
    with pytest.raises(DomainError, match=match):
        parse(spec)


def test_range_spec_takes_one_value():
    assert _parse_range_spec("1e-13:1e-13:1").tolist() == [1e-13]
    assert _parse_range_spec("0:1:3").tolist() == [0.0, 0.5, 1.0]
