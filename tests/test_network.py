import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_mbvd import assert_same_bits

from acoufilt import (
    AbcdBlock,
    ElementKind,
    LadderDesign,
    MbvdParams,
    abcd_to_s,
    admittance_from_s11,
    build_ladder_response,
    cascade,
    element_abcd,
    mbvd_from_targets,
    one_port_s11,
    resonator_admittance,
    series_resonance,
    shunt_series_shunt,
)
from acoufilt import network
from acoufilt.errors import (
    AcoufiltError,
    DomainError,
    GridAlignmentError,
    SingularConversionError,
)
from acoufilt.curves import parse_grid_spec
from acoufilt.mbvd import _jw, _terms
from acoufilt.io_formats import TouchstoneHeader
from acoufilt.network import SParameterBlock, _ladder_s21_db, identity_block

GRID = np.linspace(1e9, 40e9, 101)


def _series_z_block(z, grid=GRID):
    mats = np.broadcast_to(np.eye(2, dtype=complex), (grid.size, 2, 2)).copy()
    mats[:, 0, 1] = z
    return AbcdBlock(grid, mats)


def _shunt_y_block(y, grid=GRID):
    mats = np.broadcast_to(np.eye(2, dtype=complex), (grid.size, 2, 2)).copy()
    mats[:, 1, 0] = y
    return AbcdBlock(grid, mats)


def _random_params(rng, lossless=False):
    return mbvd_from_targets(
        fs=rng.uniform(5e9, 35e9),
        k2=rng.uniform(0.05, 0.8),
        c0=rng.uniform(2e-14, 3e-13),
        q=math.inf if lossless else rng.uniform(10, 300),
        rs=0.0 if lossless else rng.uniform(0, 1.5),
        ls=rng.uniform(0, 8e-11),
    )


def _random_design(rng, lossless=False):
    n = int(rng.integers(1, 6))
    kinds = [ElementKind.SERIES if rng.random() < 0.5 else ElementKind.SHUNT
             for _ in range(n)]
    return LadderDesign(
        elements=tuple((k, _random_params(rng, lossless)) for k in kinds),
        z0=50.0,
    )


def test_element_abcd_determinant_is_one():
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40, rs=0.5, ls=50e-12)
    for kind in (ElementKind.SERIES, ElementKind.SHUNT):
        block = element_abcd(kind, p, GRID)
        det = np.linalg.det(block.mats)
        assert np.max(np.abs(det - 1.0)) < 1e-12


def test_element_abcd_series_b_entry_matches_admittance():
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    fs = series_resonance(p)
    block = element_abcd(ElementKind.SERIES, p, [fs])
    y = resonator_admittance(p, [fs]).values[0]
    assert block.mats[0, 0, 1] == pytest.approx(1.0 / y, rel=1e-12)


def test_element_abcd_rejects_empty_grid():
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    with pytest.raises(DomainError):
        element_abcd(ElementKind.SERIES, p, np.array([]))


def test_cascade_empty_and_singleton():
    ident = cascade([], grid=GRID)
    assert np.allclose(ident.mats, np.eye(2), atol=0)
    with pytest.raises(DomainError):
        cascade([])
    x = _series_z_block(3 + 4j)
    assert np.array_equal(cascade([x]).mats, x.mats)
    assert not np.shares_memory(cascade([x]).mats, x.mats)


def test_cascade_of_series_impedances_adds():
    z1, z2 = 10 + 5j, 3 - 2j
    combined = cascade([_series_z_block(z1), _series_z_block(z2)])
    # Oracle: direct per-frequency matrix multiplication.
    oracle = np.matmul(_series_z_block(z1).mats, _series_z_block(z2).mats)
    assert np.array_equal(combined.mats, oracle)
    assert np.allclose(combined.mats[:, 0, 1], z1 + z2, rtol=1e-15)


def test_cascade_grid_mismatch_is_an_error():
    other = np.linspace(1e9, 40e9, 100)
    with pytest.raises(GridAlignmentError):
        cascade([_series_z_block(1.0), _series_z_block(1.0, other)])


def test_abcd_to_s_identity_is_through():
    s = abcd_to_s(identity_block(GRID), 50.0)
    assert np.allclose(s.s[:, 0, 0], 0.0, atol=1e-15)
    assert np.allclose(s.s[:, 1, 0], 1.0, atol=1e-15)


def test_abcd_to_s_series_50_ohm():
    s = abcd_to_s(_series_z_block(50.0), 50.0)
    assert np.allclose(s.s[:, 1, 0], 2.0 / 3.0, rtol=1e-14)
    db = 20 * math.log10(2.0 / 3.0)
    assert db == pytest.approx(-3.522, abs=1e-3)


def test_abcd_to_s_shunt_20_millisiemens():
    s = abcd_to_s(_shunt_y_block(0.020), 50.0)
    assert np.allclose(s.s[:, 1, 0], 2.0 / 3.0, rtol=1e-14)


def test_abcd_to_s_reciprocity():
    rng = np.random.default_rng(5)
    design = _random_design(rng)
    s = build_ladder_response(design, GRID)
    assert np.max(np.abs(s.s[:, 0, 1] - s.s[:, 1, 0])) < 1e-12


def test_overflowing_cascade_is_named():
    # Warnings are errors here: a * a overflows in the matrix product.
    mats = np.array([[[1e200, 0.0], [0.0, 1e-200]]], dtype=complex)
    block = AbcdBlock([1e9], mats)
    with pytest.raises(DomainError, match="ABCD matrices contain non-finite entries"):
        cascade([block, block])


def test_overflowing_abcd_to_s_is_named():
    # b / z0 overflows: S11 and S22 would be inf / inf.
    block = AbcdBlock([1e9], np.array([[[1.0, 1.7e308], [0.0, 1.0]]], dtype=complex))
    with pytest.raises(DomainError, match="S-parameters contain non-finite entries"):
        abcd_to_s(block, 1e-3)


def test_block_api_matches_the_ladder_kernel():
    # element_abcd, cascade and abcd_to_s against build_ladder_response.
    rng = np.random.default_rng(31)
    for _ in range(100):
        design = _random_design(rng)
        blocks = [element_abcd(k, p, GRID) for k, p in design.elements]
        s = abcd_to_s(cascade(blocks), design.z0).s
        assert np.max(np.abs(s - build_ladder_response(design, GRID).s)) <= 1e-12


def test_abcd_to_s_singular_denominator():
    # A shunt with Y = -2/z0 makes delta = 0.
    with pytest.raises(SingularConversionError) as err:
        abcd_to_s(_shunt_y_block(-2.0 / 50.0), 50.0)
    assert err.value.frequency_hz == GRID[0]


def test_single_transparent_shunt_is_through():
    # Near-zero admittance: S21 ~ 1.
    p = MbvdParams(rm=1e12, lm=1.0, cm=1e-30, c0=1e-30)
    design = LadderDesign(elements=((ElementKind.SHUNT, p),), z0=50.0)
    s = build_ladder_response(design, GRID)
    assert np.allclose(s.s[:, 1, 0], 1.0, atol=1e-9)


def test_shunt_only_ladder_at_a_subnormal_z0_is_through():
    # At z0 = 5e-324, y*z0 underflows to 0 and 1/z0 overflows.  The rows'
    # Q = +-z0, which no series element touches, still give Q/z0 = +-1,
    # so delta = 2 and S is an exact through.
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    design = LadderDesign(elements=((ElementKind.SHUNT, p),), z0=5e-324)
    s = build_ladder_response(design, GRID).s
    assert np.array_equal(s, np.broadcast_to([[0.0, 1.0], [1.0, 0.0]], s.shape))


@pytest.mark.parametrize("z0", [5e-324, 1e-310])
def test_block_api_at_a_subnormal_z0_is_the_ladder_kernel(z0):
    # 1/z0 overflows, so B*(1/z0) of a zero B would be 0*inf = NaN.  The
    # identity block and a one-shunt block (B = 0) are the exact through
    # that build_ladder_response gives, bit for bit.
    s = abcd_to_s(identity_block(GRID), z0).s
    assert np.array_equal(s, np.broadcast_to([[0.0, 1.0], [1.0, 0.0]], s.shape))
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    s = abcd_to_s(element_abcd(ElementKind.SHUNT, p, GRID), z0).s
    ref = build_ladder_response(LadderDesign(((ElementKind.SHUNT, p),), z0=z0), GRID)
    assert_same_bits(s, ref.s)
    # S21 is a strided view of the block.
    assert_same_bits(s[:, 1, 0], ref.s21().values)


def test_reference_topology_is_a_bandpass_near_center():
    fc = 23.5e9
    fs_sh = fc * math.sqrt(1 - 0.46 / (math.pi**2 / 8))
    c0_sh = 1 / (2 * math.pi * fc * 50)
    design = shunt_series_shunt(
        mbvd_from_targets(fs_sh, 0.46, c0_sh, 50),
        mbvd_from_targets(fc, 0.46, c0_sh / 2, 50),
        z0=50.0,
    )
    grid = np.linspace(0.5 * fc, 1.8 * fc, 1601)
    s = build_ladder_response(design, grid)
    mag = np.abs(s.s[:, 1, 0])
    f_peak = grid[np.argmax(mag)]
    assert abs(f_peak - fc) / fc < 0.1
    assert mag.max() > 0.7


def test_reversed_ladder_has_same_s21():
    rng = np.random.default_rng(17)
    design = _random_design(rng)
    reversed_design = LadderDesign(elements=design.elements[::-1], z0=design.z0)
    s_fwd = build_ladder_response(design, GRID)
    s_rev = build_ladder_response(reversed_design, GRID)
    assert np.max(np.abs(s_fwd.s[:, 1, 0] - s_rev.s[:, 1, 0])) < 1e-12


def test_passivity_and_determinant_on_random_designs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        design = _random_design(rng)
        blocks = [element_abcd(k, p, GRID) for k, p in design.elements]
        combined = cascade(blocks)
        assert np.max(np.abs(np.linalg.det(combined.mats) - 1.0)) < 1e-10
        s = build_ladder_response(design, GRID)
        sv = np.linalg.svd(s.s, compute_uv=False)
        assert sv.max() <= 1 + 1e-6


def test_lossless_energy_conservation():
    rng = np.random.default_rng(29)
    design = _random_design(rng, lossless=True)
    s = build_ladder_response(design, GRID)
    power = np.abs(s.s[:, 0, 0]) ** 2 + np.abs(s.s[:, 1, 0]) ** 2
    assert np.max(np.abs(power - 1.0)) < 1e-9


# A lossless resonator mbvd_from_targets(fs, 0.4, 1e-13, inf) sampled at f,
# exactly on its anti-resonance: num = 0 there, so Y = 0 and 1 / Y is a
# division by zero.
LOSSLESS_HITS = [
    (8.16e9, 9926359364.099905, "anti-resonance, 9926359364 Hz"),
]


@pytest.mark.parametrize("fs, f, name", LOSSLESS_HITS)
def test_lossless_resonance_on_the_grid_is_named(fs, f, name):
    # A lossless series resonator sampled exactly at its anti-resonance has
    # no impedance there.  Runs with warnings as errors.
    p = mbvd_from_targets(fs, 0.4, 1e-13, math.inf)
    design = LadderDesign(((ElementKind.SERIES, p),), z0=50.0)
    with pytest.raises(DomainError, match=f"lossless resonator .* {name}"):
        build_ladder_response(design, [f])
    with pytest.raises(DomainError, match=f"lossless resonator .* {name}"):
        element_abcd(ElementKind.SERIES, p, [f])


@pytest.mark.parametrize("fs, f, name", LOSSLESS_HITS)
def test_lossless_resonance_in_one_port_s11_is_named(fs, f, name):
    # Runs with warnings as errors: no numpy warning, no NaN S11.
    p = mbvd_from_targets(fs, 0.4, 1e-13, math.inf)
    with pytest.raises(DomainError, match=f"lossless resonator .* {name}"):
        one_port_s11(p, [f])


def test_lossless_shunt_at_its_anti_resonance_is_open():
    # Y = 0 exactly: the shunt element is an open circuit, not an error.
    fs, f, _ = LOSSLESS_HITS[0]
    p = mbvd_from_targets(fs, 0.4, 1e-13, math.inf)
    assert resonator_admittance(p, [f]).values[0] == 0
    assert element_abcd(ElementKind.SHUNT, p, [f]).mats[0, 1, 0] == 0
    s = build_ladder_response(LadderDesign(((ElementKind.SHUNT, p),), z0=50.0), [f]).s
    assert s[0, 1, 0] == 1 and s[0, 0, 0] == 0


# mbvd_from_targets(8.6396873e9, 0.4, 1e-13, inf) at its nominal series
# resonance: the motional branch is not exactly zero in floating point, so
# Y is huge but finite.
_NEAR_FS = 8.6396873e9


def test_lossless_series_element_near_series_resonance_is_a_short():
    p = mbvd_from_targets(_NEAR_FS, 0.4, 1e-13, math.inf)
    s = build_ladder_response(LadderDesign(((ElementKind.SERIES, p),), z0=50.0), [_NEAR_FS]).s
    assert np.all(np.isfinite(s))
    assert abs(s[0, 1, 0] - 1) < 1e-12 and abs(s[0, 0, 0]) < 1e-12


def test_lossless_one_port_near_series_resonance_is_a_short():
    p = mbvd_from_targets(_NEAR_FS, 0.4, 1e-13, math.inf)
    assert abs(one_port_s11(p, [_NEAR_FS]).values[0] + 1) < 1e-12


# A lossless resonator whose motional branch vanishes exactly at 10 GHz in
# floating point (lm chosen to the last bit): den = 0 there.
_EXACT_FS = MbvdParams(rm=0.0, lm=1.2665147955292223e-08, cm=2e-14, c0=1e-13)


@pytest.mark.parametrize("kind", list(ElementKind))
def test_exact_series_resonance_on_the_grid_is_named(kind):
    match = "lossless resonator .* series resonance, 1e\\+10 Hz"
    with pytest.raises(DomainError, match=match):
        build_ladder_response(LadderDesign(((kind, _EXACT_FS),), z0=50.0), [1e10])
    with pytest.raises(DomainError, match=match):
        one_port_s11(_EXACT_FS, [1e10])
    with pytest.raises(DomainError, match=match):
        resonator_admittance(_EXACT_FS, [1e10])
    with pytest.raises(DomainError, match=match):
        element_abcd(kind, _EXACT_FS, [1e10])
    # An open shunt at its anti-resonance on the same grid is not the error.
    fs, f, _ = LOSSLESS_HITS[0]
    shunt = mbvd_from_targets(fs, 0.4, 1e-13, math.inf)
    design = LadderDesign(((ElementKind.SHUNT, shunt), (kind, _EXACT_FS)), z0=50.0)
    with pytest.raises(DomainError, match=match):
        build_ladder_response(design, [f, 1e10])


def test_equal_resonators_are_evaluated_once(monkeypatch):
    calls = []
    immittance = network._immittance

    def counting(p, f, impedance=False):
        calls.append(p)
        return immittance(p, f, impedance)

    shunt = mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    design = LadderDesign(((ElementKind.SHUNT, shunt),
                           (ElementKind.SERIES, mbvd_from_targets(23e9, 0.42, 25e-15, 40)),
                           (ElementKind.SHUNT, dataclasses.replace(shunt))), z0=50.0)
    monkeypatch.setattr(network, "_immittance", counting)
    build_ladder_response(design, GRID)
    assert len(calls) == 2


@pytest.mark.parametrize("z0", [math.inf, -math.inf, math.nan, 0.0, -50.0])
def test_reference_impedance_must_be_positive_and_finite(z0):
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    s11 = one_port_s11(p, GRID)
    calls = (lambda: LadderDesign(((ElementKind.SHUNT, p),), z0=z0),
             lambda: SParameterBlock(GRID, np.zeros((GRID.size, 2, 2)), z0=z0),
             lambda: abcd_to_s(identity_block(GRID), z0),
             lambda: one_port_s11(p, GRID, z0=z0),
             lambda: admittance_from_s11(s11, z0=z0),
             lambda: TouchstoneHeader(reference_resistance=z0))
    for call in calls:
        with pytest.raises(DomainError, match="must be positive and finite"):
            call()


def test_one_port_round_trip():
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40, rs=0.3, ls=30e-12)
    s11 = one_port_s11(p, GRID, z0=50.0)
    y_back = admittance_from_s11(s11, z0=50.0)
    y_direct = resonator_admittance(p, GRID)
    assert np.max(np.abs(y_back.values - y_direct.values)) < 1e-12 * np.max(np.abs(y_direct.values))


@st.composite
def ladders(draw):
    """Ladders of 1-6 series/shunt resonators.

    The motional branch is always lossy: a lossless one has an infinite
    admittance at a grid point that hits its resonance exactly.
    """
    elements = []
    for _ in range(draw(st.integers(1, 6))):
        p = mbvd_from_targets(
            fs=draw(st.floats(5e9, 35e9)),
            k2=draw(st.floats(0.05, 0.8)),
            c0=draw(st.floats(2e-14, 3e-13)),
            q=draw(st.floats(10.0, 1e4)),
            rs=draw(st.floats(0.0, 1.5)),
            ls=draw(st.floats(0.0, 8e-11)),
        )
        elements.append((draw(st.sampled_from(ElementKind)), p))
    return LadderDesign(elements=tuple(elements), z0=draw(st.sampled_from([25.0, 50.0, 75.0])))


def grids():
    """Strictly increasing grids of 1-64 points in 1-50 GHz."""
    return st.lists(st.floats(1e9, 50e9), min_size=1, max_size=64, unique=True).map(
        lambda f: np.sort(np.array(f)))


def _matmul_reference(design, grid):
    """S-parameters through an (n, 2, 2) np.matmul cascade and the textbook
    ABCD-to-S formulas (Pozar, Microwave Engineering, ch. 4)."""
    mats = np.broadcast_to(np.eye(2, dtype=complex), (grid.size, 2, 2))
    for kind, p in design.elements:
        y = resonator_admittance(p, grid).values
        if kind is ElementKind.SERIES:
            element = _series_z_block(1.0 / y, grid)
        else:
            element = _shunt_y_block(y, grid)
        mats = np.matmul(mats, element.mats)
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    z0 = design.z0
    delta = a + b / z0 + c * z0 + d
    s = np.empty_like(mats)
    s[:, 0, 0] = (a + b / z0 - c * z0 - d) / delta
    s[:, 0, 1] = 2.0 * (a * d - b * c) / delta
    s[:, 1, 0] = 2.0 / delta
    s[:, 1, 1] = (-a + b / z0 - c * z0 + d) / delta
    return s


@given(ladders(), grids())
def test_ladder_response_matches_matmul_reference(design, grid):
    s = build_ladder_response(design, grid).s
    ref = _matmul_reference(design, grid)
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.all(np.max(np.abs(s - ref), axis=(1, 2)) <= 1e-12 * scale)


@given(ladders(), grids())
def test_ladder_response_is_reciprocal_and_passive(design, grid):
    s = build_ladder_response(design, grid).s
    assert np.array_equal(s[:, 0, 1], s[:, 1, 0])
    assert np.linalg.svd(s, compute_uv=False).max() <= 1.0 + 1e-9


@st.composite
def ladders_with_repeats(draw):
    """Ladders of 1-6 elements drawn from 1-3 resonators, lossy or lossless,
    each use either the same object or an equal copy; the grid sometimes
    holds a resonator's series resonance exactly."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        lossless = draw(st.booleans())
        pool.append(mbvd_from_targets(
            fs=draw(st.floats(5e9, 35e9)),
            k2=draw(st.floats(0.05, 0.8)),
            c0=draw(st.floats(2e-14, 3e-13)),
            q=math.inf if lossless else draw(st.floats(10.0, 1e4)),
            rs=0.0 if lossless else draw(st.floats(0.0, 1.5)),
            ls=draw(st.floats(0.0, 8e-11)),
        ))
    elements = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            p = dataclasses.replace(p)
        elements.append((draw(st.sampled_from(ElementKind)), p))
    design = LadderDesign(elements=tuple(elements),
                          z0=draw(st.sampled_from([25.0, 50.0, 75.0])))
    points = draw(st.lists(st.floats(1e9, 50e9), min_size=1, max_size=64))
    points += [series_resonance(p) for p in pool if draw(st.booleans())]
    return design, np.unique(np.array(points))


_HIT = mbvd_from_targets(_NEAR_FS, 0.4, 1e-13, math.inf)
_LOSSY = mbvd_from_targets(8.0e9, 0.4, 2e-13, 50.0)


def kernel_s21_db(design, grid):
    """|S21| in dB of a design through the ladder kernel alone, from the
    immittances of its elements as synthesis forms them."""
    jw = _jw(grid)
    with np.errstate(all="ignore"):
        elements = []
        for kind, p in design.elements:
            _, _, num, den = _terms(p, jw)
            series = kind is ElementKind.SERIES
            elements.append((series, den / num if series else num / den))
        return _ladder_s21_db(elements, design.z0)


@given(ladders_with_repeats())
@example((LadderDesign(((ElementKind.SHUNT, _LOSSY), (ElementKind.SERIES, _HIT),
                        (ElementKind.SHUNT, _LOSSY)), z0=50.0),
          np.array([8e9, _NEAR_FS, 9e9])))
@example((LadderDesign(((ElementKind.SERIES, _LOSSY), (ElementKind.SHUNT, _EXACT_FS)),
                       z0=50.0), np.array([8e9, 1e10])))
@example((LadderDesign(((ElementKind.SHUNT, _LOSSY), (ElementKind.SERIES, _LOSSY),
                        (ElementKind.SHUNT, _LOSSY)), z0=50.0), np.array([7e9, 8e9, 9e9])))
@example((LadderDesign(((ElementKind.SERIES, _LOSSY), (ElementKind.SHUNT, _HIT)), z0=75.0),
          np.array([8e9, _NEAR_FS, 9e9])))
@example((LadderDesign(((ElementKind.SHUNT, _LOSSY), (ElementKind.SERIES, _EXACT_FS)),
                       z0=50.0), np.array([8e9, 1e10])))
def test_s21_db_path_matches_build_ladder_response(case):
    # The kernel on element immittances, as synthesis feeds it, is within
    # 1e-12 dB of 20*log10|S21|, and fails exactly where the full response
    # names a fault.  The last three examples use one resonator as both a
    # series and a shunt element, start with a series element, and put a
    # series short (z = 0) on the grid.
    design, grid = case
    try:
        db = kernel_s21_db(design, grid)
    except AcoufiltError:
        db = None
    try:
        ref = build_ladder_response(design, grid).s21().magnitude_db
    except AcoufiltError:
        assert db is None
        return
    assert db.shape == ref.shape
    assert np.all(np.abs(db - ref) <= 1e-12)


_SUBNORMAL = 5e-324
_HUGE = 1.5e308  # finite, but hypot of two of them overflows
_components = st.builds(lambda m, negative: -m if negative else m,
                        st.floats(1e-300, 1e300), st.booleans())
_reference_impedances = (st.floats(0.0, math.inf, exclude_min=True, exclude_max=True)
                         | st.sampled_from([50.0, _SUBNORMAL, 1e-310, 1e308, 1.7976931348623157e308]))


@given(st.lists(st.tuples(_components, _components), min_size=1, max_size=64),
       _reference_impedances)
@example([(-1e-300, -1.0), (1e-300, -1.0), (-1.0, 1e-300)], 1e300)
@example([(1.0, -4.796679607020972e-145)], 1.9417175217085397e+179)
@example([(1e300, -1e300), (-1e-300, 1e-300)], _SUBNORMAL)
def test_dividing_by_z0_is_multiplying_by_its_reciprocal(entries, z0):
    # The ladder kernel forms Q/z0 as Q*(1/z0) and relies on numpy giving
    # the same value in every component: its complex divide by z0 + 0j
    # scales by 1/z0.  The values compare as floats: a component that
    # underflows to 0 may take either sign (the second example), which no
    # |delta| reads, and every other component has the same bits.  If numpy
    # changes that, the synthesis scores, and with them the search path,
    # move.
    q = np.array([complex(a, b) for a, b in entries])
    with np.errstate(all="ignore"):
        quotient, product = (q / z0).view(float), (q * (1.0 / z0)).view(float)
    assert np.array_equal(quotient, product)


_ELEMENT_VALUES = st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 1e300])
_OPTIONAL_VALUES = st.just(0.0) | _ELEMENT_VALUES


@st.composite
def extreme_ladders(draw):
    """Ladders of 1-4 resonators whose element values, z0 and grid points
    reach 1e+-300, with a subnormal z0 among them."""
    elements = tuple(
        (draw(st.sampled_from(ElementKind)),
         MbvdParams(rm=draw(_OPTIONAL_VALUES), lm=draw(_ELEMENT_VALUES),
                    cm=draw(_ELEMENT_VALUES), c0=draw(_ELEMENT_VALUES),
                    rs=draw(_OPTIONAL_VALUES), ls=draw(_OPTIONAL_VALUES),
                    r0=draw(_OPTIONAL_VALUES)))
        for _ in range(draw(st.integers(1, 4))))
    z0 = draw(_ELEMENT_VALUES | st.sampled_from([_SUBNORMAL, 1e-310]))
    points = draw(st.lists(_ELEMENT_VALUES | st.floats(1e9, 50e9), min_size=1, max_size=8))
    return LadderDesign(elements, z0=z0), np.unique(np.array(points))


# At 1/(2*pi) Hz, a shunt of y = 5j and a series element of
# z = 1e307 + 3.5e307j at z0 = 1: delta and S21 are finite, but the row
# [1, -z0] overflows, so S11 is not.
_ONLY_S11_OVERFLOWS = (
    LadderDesign(((ElementKind.SHUNT, MbvdParams(rm=0.0, lm=1e-20, cm=1e-20, c0=5.0)),
                  (ElementKind.SERIES, MbvdParams(rm=0.0, lm=3.0, cm=1.0, c0=1.0,
                                                  rs=1e307, ls=3.5e307))), z0=1.0),
    np.array([1.0 / (2.0 * math.pi)]))


def _outcome(evaluate, design, grid):
    """S21 of evaluate(design, grid), or the AcoufiltError it raised."""
    try:
        return evaluate(design, grid).values
    except AcoufiltError as exc:
        return exc


def _assert_s21_alone_matches_the_full_response(design, grid):
    ref = _outcome(lambda d, f: build_ladder_response(d, f).s21(), design, grid)
    got = _outcome(network._ladder_s21, design, grid)
    if isinstance(got, AcoufiltError):
        assert (type(got), str(got)) == (type(ref), str(ref))
    elif isinstance(ref, AcoufiltError):
        # Only S11 or S22 is not finite (_ONLY_S11_OVERFLOWS): the full
        # response refuses the design, and S21 alone is kept.
        assert str(ref) == "S-parameters contain non-finite entries"
        assert np.isfinite(got).all()
    else:
        assert_same_bits(got, ref)


@given(ladders_with_repeats() | extreme_ladders())
@example((LadderDesign(((ElementKind.SHUNT, _LOSSY), (ElementKind.SERIES, _EXACT_FS)),
                       z0=50.0), np.array([8e9, 1e10])))
@example((LadderDesign(((ElementKind.SERIES, mbvd_from_targets(LOSSLESS_HITS[0][0], 0.4, 1e-13,
                                                                math.inf)),), z0=50.0),
          np.array([LOSSLESS_HITS[0][1]])))
@example((LadderDesign(((ElementKind.SHUNT, _LOSSY),), z0=_SUBNORMAL), GRID))
@example((LadderDesign(((ElementKind.SHUNT, _LOSSY), (ElementKind.SERIES, _LOSSY)),
                       z0=_SUBNORMAL), GRID))
@example(_ONLY_S11_OVERFLOWS)
def test_s21_alone_fails_where_the_full_response_does(case):
    # _ladder_s21 raises the same error as build_ladder_response, class and
    # message, and elsewhere gives the bits of its S21; the one exception
    # is a design whose S11 or S22 alone is not finite.  The examples: a
    # series short (z = 0), a lossless series element at its
    # anti-resonance, a shunt-only ladder at a subnormal z0 (an exact
    # through), one with a series element there (1/z0 overflows), and
    # _ONLY_S11_OVERFLOWS.
    _assert_s21_alone_matches_the_full_response(*case)


@pytest.mark.parametrize("immittances, z0, error", [
    ([(ElementKind.SHUNT, -2.0 / 50.0)], 50.0, SingularConversionError),
    ([(ElementKind.SERIES, -(2.0**20)), (ElementKind.SERIES, 2.0**-1010),
      (ElementKind.SHUNT, -(2.0**1010))], 2.0**20, DomainError),
], ids=["zero-delta", "s21-overflows"])
def test_s21_alone_fails_where_the_full_response_does_on_active_elements(
        monkeypatch, immittances, z0, error):
    # No ladder of passive resonators has delta = 0 or |delta| small enough
    # for 2/delta to overflow, so each element's z or y is set instead:
    # a shunt of y = -2/z0, and a chain whose P cancels to 0 and whose
    # Q/z0 = 2**-1030, so that S21 = 2**1031 overflows.
    resonators = [mbvd_from_targets(8e9, 0.4, (i + 1) * 1e-13, 50.0)
                  for i in range(len(immittances))]
    table = {p: v for p, (_, v) in zip(resonators, immittances)}
    monkeypatch.setattr(network, "_immittance",
                        lambda p, f, impedance=False: np.full(f.shape, complex(table[p])))
    design = LadderDesign(tuple((kind, p) for p, (kind, _) in zip(resonators, immittances)),
                          z0=z0)
    with pytest.raises(error):
        network._ladder_s21(design, GRID)
    _assert_s21_alone_matches_the_full_response(design, GRID)


def _reference_ladder_s21_db(elements, z0):
    """The kernel's |S21| in dB as first written: delta = P + Q/z0 tested
    entry by entry; None where that names a fault."""
    p, q = network._row(elements, 1.0, z0)
    delta = p + q / z0
    if (not np.isfinite(delta).all() or not delta.all()
            or any(series and not v.all() for series, v in elements)):
        return None
    return network._DB_OF_2 - 20.0 * np.log10(np.abs(delta))


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, _HUGE, -_HUGE, _SUBNORMAL, 1e300]


@st.composite
def kernel_elements(draw):
    """1-4 (series, v) elements on a shared grid of 1-8 points, v of modest
    size with a few components replaced by 0, +-inf, NaN or huge values."""
    n = draw(st.integers(1, 8))
    elements = []
    for _ in range(draw(st.integers(1, 4))):
        v = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=2 * n, max_size=2 * n)))
        for _ in range(draw(st.integers(0, 2))):
            v[draw(st.integers(0, 2 * n - 1))] = draw(st.sampled_from(_SPECIAL))
        elements.append((draw(st.booleans()), v.view(complex)))
    return elements


@given(kernel_elements(), st.floats(1e-3, 1e3) | st.sampled_from([1.0, _SUBNORMAL, 1e308]))
@example([(False, np.array([complex(_HUGE, _HUGE)]))], 1.0)
@example([(True, np.array([0j, 1 + 1j]))], 50.0)
@example([(False, np.array([complex(math.inf, 0.0)]))], 50.0)
@example([(False, np.array([complex(math.nan, 1.0)]))], 50.0)
@example([(False, np.array([-1.0 + 0j]))], 2.0)
@example([(False, np.array([0j]))], _SUBNORMAL)
def test_kernel_names_a_fault_exactly_where_the_entrywise_test_does(elements, z0):
    # The kernel tests |delta| first and delta's entries only where |delta|
    # is not positive and finite.  It must raise exactly where the
    # entrywise test on delta = P + Q/z0 names a fault (a non-finite or zero
    # delta, or a series short), and elsewhere return the same bits.  The
    # examples: a finite delta whose |delta| overflows (-inf dB), a series
    # short, delta = inf and delta = NaN, delta = 0 (a shunt y = -2/z0),
    # and a shunt-only ladder at a subnormal z0, where Q = z0 is untouched
    # and Q/z0 = 1 although z0 * (1/z0) overflows.
    with np.errstate(all="ignore"):
        ref = _reference_ladder_s21_db(elements, z0)
        if ref is None:
            with pytest.raises(DomainError, match="no finite response"):
                _ladder_s21_db(elements, z0)
            return
        got = _ladder_s21_db(elements, z0)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def _allocating_row(elements, p, q):
    """_row as first written, a new array for every product and sum."""
    for series, v in elements:
        if series:
            q = p * v + q
        else:
            p = p + q * v
    return p, q


@given(kernel_elements(), st.floats(1e-3, 1e3) | st.sampled_from([1.0, _SUBNORMAL, 1e308]))
def test_row_matches_its_allocating_form(elements, z0):
    # _row adds each new product to the other entry in place; the sums
    # commute, so every component keeps its bits.
    for start in ((1.0, z0), (1.0, -z0)):
        with np.errstate(all="ignore"):
            got, ref = network._row(elements, *start), _allocating_row(elements, *start)
        for g, r in zip(got, ref):
            assert_same_bits(g, r)


# Grids on which the admittance itself overflows; on the others only a
# series element's impedance 1 / y does.
_ADMITTANCE_OVERFLOWS = ("1e150:1e160:3", "1e300:1e308:3")


@pytest.mark.parametrize("grid", ["1e150:1e160:3", "1e300:1e308:3", "1e-300:1e-299:3"])
def test_overflowing_ladder_response_is_named(grid):
    # Warnings are errors here: no numpy warning and no non-finite S.
    p = mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    design = shunt_series_shunt(p, p)
    with pytest.raises(DomainError, match="non-finite entries"):
        build_ladder_response(design, parse_grid_spec(grid))
    with pytest.raises(DomainError, match="non-finite entries"):
        one_port_s11(p, parse_grid_spec(grid))
    with pytest.raises(DomainError, match="non-finite entries"):
        element_abcd(ElementKind.SERIES, p, parse_grid_spec(grid))
    if grid in _ADMITTANCE_OVERFLOWS:
        with pytest.raises(DomainError, match="admittance contains non-finite entries"):
            resonator_admittance(p, parse_grid_spec(grid))
    else:
        assert np.isfinite(resonator_admittance(p, parse_grid_spec(grid)).values).all()


@pytest.mark.parametrize("build, match", [
    (lambda: AbcdBlock(GRID[:2], np.zeros((2, 2))), "ABCD matrices must have shape"),
    (lambda: AbcdBlock(GRID[:1], np.full((1, 2, 2), np.nan)), "non-finite entries"),
    (lambda: SParameterBlock(GRID[:2], np.zeros((2, 2))), "S matrices must have shape"),
    (lambda: LadderDesign(()), "at least one element"),
    (lambda: LadderDesign((("series", mbvd_from_targets(20e9, 0.42, 50e-15, 40)),)),
     r"\(ElementKind, MbvdParams\) pairs"),
    (lambda: element_abcd("series", mbvd_from_targets(20e9, 0.42, 50e-15, 40), GRID),
     "unknown element kind 'series'"),
], ids=["abcd-shape", "abcd-non-finite", "s-shape", "empty-ladder", "bad-pair", "unknown-kind"])
def test_malformed_network_objects_are_rejected(build, match):
    with pytest.raises(DomainError, match=match):
        build()
