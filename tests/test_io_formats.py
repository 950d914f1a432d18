import math
import re
from pathlib import Path

import numpy as np
import pytest

from acoufilt import (
    ComplexCurve,
    DesignSpec,
    ElementKind,
    LadderDesign,
    MbvdParams,
    SParameterBlock,
    mbvd_from_targets,
    shunt_series_shunt,
)
from acoufilt.errors import DomainError, FormatError
from acoufilt.io_formats import (
    TouchstoneHeader,
    parse_design_text,
    read_design_spec,
    read_ladder_design,
    read_resonators,
    read_touchstone,
    write_design_spec,
    write_ladder_design,
    write_metrics_csv,
    write_resonator,
    write_touchstone,
)


def random_block(rng, n=15):
    f = np.sort(rng.uniform(1e9, 50e9, n))
    while np.any(np.diff(f) <= 0):
        f = np.sort(rng.uniform(1e9, 50e9, n))
    s = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    return SParameterBlock(f, 0.5 * s, z0=50.0)


def test_read_ma_zero_angle():
    data = read_touchstone("# GHz S MA R 50\n1.0 0.5 0.0\n")
    assert data.n_ports == 1
    assert data.freq_hz[0] == 1e9
    assert data.s[0, 0, 0] == 0.5 + 0j


def test_read_ri_two_port():
    line = "2e10 0.1 -0.2 0.3 0.4 0.3 0.4 0.5 -0.6"
    data = read_touchstone(f"# Hz S RI R 50\n{line}\n")
    assert data.n_ports == 2
    assert data.freq_hz[0] == 2e10
    assert data.s[0, 0, 0] == 0.1 - 0.2j
    # v1 column order: S11 S21 S12 S22
    assert data.s[0, 1, 0] == 0.3 + 0.4j
    assert data.s[0, 0, 1] == 0.3 + 0.4j
    assert data.s[0, 1, 1] == 0.5 - 0.6j


def test_read_db_format():
    data = read_touchstone("# GHz S DB R 50\n1.0 -6.0206 0.0\n")
    assert abs(data.s[0, 0, 0]) == pytest.approx(0.5, abs=1e-5)


def test_default_header_is_ghz_s_ma_50():
    data = read_touchstone("1.0 1.0 0.0\n")
    assert data.header.frequency_unit == "GHz"
    assert data.header.format == "MA"
    assert data.header.reference_resistance == 50.0
    assert data.freq_hz[0] == 1e9


@pytest.mark.parametrize("line, header", [
    ("#", TouchstoneHeader()),
    ("# R 1e3 khz", TouchstoneHeader("khz", "S", "MA", 1000.0)),
])
def test_option_line_omissions_take_the_header_defaults(line, header):
    assert read_touchstone(f"{line}\n1.0 1.0 0.0\n").header == header


def test_comments_are_ignored():
    text = "! leading comment\n# GHz S RI R 50\n1.0 0.1 0.2 ! inline\n"
    data = read_touchstone(text)
    assert data.s[0, 0, 0] == 0.1 + 0.2j


@pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
def test_touchstone_round_trip_all_formats(fmt):
    rng = np.random.default_rng(31)
    block = random_block(rng)
    header = TouchstoneHeader("GHz", "S", fmt, 50.0)
    back = read_touchstone(write_touchstone(block, header)).to_block()
    assert np.max(np.abs(back.s - block.s)) < 1e-12
    assert np.max(np.abs(back.freq_hz - block.freq_hz)) < 1e-12 * block.freq_hz.max()


def test_touchstone_one_port_round_trip():
    f = np.linspace(1e9, 5e9, 3)
    curve = ComplexCurve(f, np.array([0.1 + 0.2j, -0.3 + 0.1j, 0.9 - 0.05j]))
    back = read_touchstone(write_touchstone(curve)).to_curve()
    assert np.max(np.abs(back.values - curve.values)) < 1e-15


def test_empty_touchstone_round_trip():
    text = "# GHz S RI R 50\n"
    data = read_touchstone(text)
    assert data.freq_hz.size == 0
    again = read_touchstone(write_touchstone(data))
    assert again.freq_hz.size == 0


def test_cross_format_consistency():
    rng = np.random.default_rng(37)
    block = random_block(rng)
    results = [
        read_touchstone(write_touchstone(block, TouchstoneHeader("MHz", "S", fmt, 50.0))).to_block().s
        for fmt in ("RI", "MA", "DB")
    ]
    for other in results[1:]:
        assert np.max(np.abs(other - results[0])) < 1e-12


def test_touchstone_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        read_touchstone("# Hz S RI R 50\n2e9 0 0\n1e9 0 0\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        read_touchstone("# Hz S RI R 50\n1e9 0 0 0\n")
    assert err.value.line == 2
    with pytest.raises(FormatError) as err:
        read_touchstone("# Hz S XY R 50\n")
    assert err.value.line == 1
    with pytest.raises(FormatError):
        read_touchstone("# Hz S RI R 50\n1e9 0 zz\n")


def test_touchstone_rejects_non_finite_numbers():
    for text, line in (("1 nan 0\n", 1), ("inf 1 0\n", 1),
                       ("# GHz S MA R 50\n1 1 0\n2 1 inf\n", 3),
                       ("# GHz S DB R 50\n1 inf 0\n", 2)):
        with pytest.raises(FormatError) as err:
            read_touchstone(text)
        assert err.value.line == line


def test_touchstone_db_magnitude_overflow_is_format_error():
    # 10 ** (7000 / 20) overflows a float.
    with pytest.raises(FormatError) as err:
        read_touchstone("# GHz S DB R 50\n1 -3 0\n2 7000 0\n")
    assert err.value.line == 3
    assert "DB magnitude overflows" in str(err.value)


def test_touchstone_frequency_overflow_is_format_error():
    with pytest.raises(FormatError) as err:
        read_touchstone("# GHz S RI R 50\n1 0.5 0\n1e300 0.5 0\n")
    assert err.value.line == 3
    assert "overflows" in str(err.value)
    # the same in a noise-parameter row
    with pytest.raises(FormatError) as err:
        read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS + "1.0 0.8 0.3 45.0 0.2\n"
                        "1e300 0.8 0.3 45.0 0.2\n")
    assert err.value.line == 5
    assert "overflows" in str(err.value)


def test_touchstone_first_bad_line_wins():
    # A value error is found by the column checks, a layout error during the
    # line pass; the earlier line is reported either way.
    for text, line in (("# GHz S RI R 50\n1 nan 0\n2 0 0 0\n", 2),
                       ("# GHz S RI R 50\n1 0 0\n2 0 0 0\n3 nan 0\n", 3),
                       ("# GHz S RI R 50\n2 0 0\n1 0 0\n# GHz S RI R 50\n", 3),
                       ("# GHz S RI R 50\n-1 0 0\n-2 0 0\n", 2)):
        with pytest.raises(FormatError) as err:
            read_touchstone(text)
        assert err.value.line == line


TWO_PORT_ROWS = (
    "1.0 0.1 -0.2 0.3 0.4 0.3 0.4 0.5 -0.6\n"
    "2.0 0.2 -0.1 0.4 0.3 0.4 0.3 0.6 -0.5\n"
)
NOISE_ROWS = (
    "! noise parameters: freq NFmin |Gopt| <Gopt Rn/z0\n"
    "1.0 0.8 0.3 45.0 0.2\n"
    "2.0 1.1 0.25 60.0 0.25\n"
)


def test_touchstone_two_port_noise_block_is_skipped():
    plain = read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS)
    data = read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS + NOISE_ROWS)
    assert np.array_equal(data.freq_hz, plain.freq_hz)
    assert np.array_equal(data.s, plain.s)
    assert data.s.shape == (2, 2, 2)


def test_touchstone_five_columns_elsewhere_are_rejected():
    bad = (
        # among the S data, at a frequency above the previous row
        ("# GHz S RI R 50\n" + TWO_PORT_ROWS + "3.0 0.8 0.3 45.0 0.2\n", 4),
        # as the first data row
        ("# GHz S RI R 50\n1.0 0.8 0.3 45.0 0.2\n", 2),
        # in a one-port file
        ("# GHz S RI R 50\n1.0 0.1 0.2\n0.5 0.8 0.3 45.0 0.2\n", 3),
        # a two-port row inside the noise block
        ("# GHz S RI R 50\n" + TWO_PORT_ROWS + NOISE_ROWS
         + "3.0 0.1 -0.2 0.3 0.4 0.3 0.4 0.5 -0.6\n", 7),
        # noise frequencies that do not increase
        ("# GHz S RI R 50\n" + TWO_PORT_ROWS + "1.0 0.8 0.3 45.0 0.2\n"
         "1.0 0.8 0.3 45.0 0.2\n", 5),
    )
    for text, line in bad:
        with pytest.raises(FormatError) as err:
            read_touchstone(text)
        assert err.value.line == line


def test_touchstone_db_reads_minus_inf_as_zero():
    # The DB writer gives an exact zero as -inf dB; reading it back is exact.
    curve = ComplexCurve(np.array([1e9, 2e9]), np.array([0.0, 0.5]))
    text = write_touchstone(curve, TouchstoneHeader("GHz", "S", "DB", 50.0))
    assert list(read_touchstone(text).s[:, 0, 0]) == [0.0, 0.5]


def test_touchstone_default_headers():
    # Written without a header: RI in hertz, at the block's z0 or, for a
    # one-port curve, at the header's default reference resistance.
    f = np.array([1e9, 2e9])
    curve = ComplexCurve(f, np.array([0.25, 0.5j]))
    block = SParameterBlock(f, np.full((2, 2, 2), 0.5 + 0j), z0=75.0)
    assert write_touchstone(curve).splitlines()[0] == "# Hz S RI R 50"
    assert write_touchstone(block).splitlines()[0] == "# Hz S RI R 75"


def test_readme_spec_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    (example,) = [b for b in blocks if b.startswith("[spec]")]
    spec = read_design_spec(example)
    assert spec.fc_target > 0 and spec.fbw_target > 0


def test_design_file_resonator_parse():
    text = "[shunt]\nrm = 7.7\nlm = 2.45e-9\ncm = 2.58e-14\nc0 = 5e-14\nrs = 0\nls = 0\n"
    res = read_resonators(text)
    assert res["shunt"].c0 == 5e-14
    assert res["shunt"].r0 == 0.0


def test_design_file_duplicate_key():
    text = "[shunt]\nrm = 1\nrm = 2\n"
    with pytest.raises(FormatError) as err:
        parse_design_text(text)
    assert err.value.line == 3


def test_design_file_unknown_key_and_section():
    with pytest.raises(FormatError):
        parse_design_text("[shunt]\nbogus = 1\n")
    with pytest.raises(FormatError):
        parse_design_text("[what]\n")
    with pytest.raises(FormatError):
        parse_design_text("rm = 1\n")
    with pytest.raises(FormatError):
        parse_design_text("[shunt]\nrm = abc\n")


def test_design_file_missing_key():
    with pytest.raises(FormatError):
        read_resonators("[shunt]\nrm = 1\n")


def test_ladder_design_round_trip():
    design = shunt_series_shunt(
        mbvd_from_targets(20e9, 0.4, 1e-13, 40, rs=0.2, ls=2e-11),
        mbvd_from_targets(23e9, 0.4, 5e-14, 40, rs=0.2, ls=2e-11),
        z0=50.0,
    )
    assert read_ladder_design(write_ladder_design(design)) == design


def test_resonator_round_trip():
    p = MbvdParams(rm=7.7, lm=2.45e-9, cm=2.58e-14, c0=5e-14, rs=0.5, ls=1e-10, r0=0.3)
    assert read_resonators(write_resonator(p, "series"))["series"] == p


def test_spec_round_trip():
    spec = DesignSpec(23.5e9, 0.16, 50.0, 12.0, 0.46, 50.0, 0.1, 1e-11, 1.6)
    assert read_design_spec(write_design_spec(spec)) == spec


def test_spec_omitted_keys_take_the_spec_defaults():
    text = "[spec]\nfc = 2.35e10\nfbw = 0.16\nk2 = 0.42\nq = 80\n"
    assert read_design_spec(text) == DesignSpec(2.35e10, 0.16, k2=0.42, q=80.0)


def test_design_comments_and_blank_lines():
    text = "# a comment\n\n[filter]\nz0 = 50  # inline\n"
    assert parse_design_text(text) == {"filter": {"z0": 50.0}}


def test_metrics_csv_layout():
    from acoufilt.metrics import FilterMetrics
    m = FilterMetrics(fc=1e9, il_db=1.0, bw3_hz=1e8, fbw3=0.1, f_lo3=0.95e9,
                      f_hi3=1.05e9, bw20_hz=3e8, shape_factor20=3.0,
                      oob_rejection_db=15.0)
    lines = write_metrics_csv(m).splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].startswith("fc_hz,")
    assert len(lines) == 10


def test_locale_independent_number_parse():
    with pytest.raises(FormatError):
        parse_design_text("[filter]\nz0 = 1,5\n")
    assert math.isclose(parse_design_text("[filter]\nz0 = 1.5\n")["filter"]["z0"], 1.5)


_RESONATOR = MbvdParams(rm=7.7, lm=2.45e-9, cm=2.58e-14, c0=5e-14)


@pytest.mark.parametrize("call, error, match", [
    (lambda: TouchstoneHeader(frequency_unit="THz"), DomainError, "unknown frequency unit"),
    (lambda: TouchstoneHeader(parameter="Y"), DomainError, "only S-parameter"),
    (lambda: TouchstoneHeader(format="XY"), DomainError, "unknown Touchstone format"),
    (lambda: read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS).to_curve(), DomainError,
     "to_curve requires one-port data"),
    (lambda: read_touchstone("# GHz Y RI\n1 0 0\n"), FormatError,
     "^line 1: unsupported parameter type 'Y'$"),
    (lambda: read_touchstone("# GHz S RI R\n1 0 0\n"), FormatError,
     "^line 1: R option missing its resistance value$"),
    (lambda: read_touchstone("# GHz S MA R fifty\n1 0 0\n"), FormatError,
     "^line 1: bad reference resistance 'fifty'$"),
    (lambda: read_touchstone("# GHz MHz S RI\n1 0 0\n"), FormatError,
     "^line 1: repeated option 'MHz': a second frequency unit$"),
    (lambda: read_touchstone("# S GHz s RI\n1 0 0\n"), FormatError,
     "^line 1: repeated option 's': a second parameter$"),
    (lambda: read_touchstone("# GHz S RI MA\n1 0 0\n"), FormatError,
     "^line 1: repeated option 'MA': a second format$"),
    (lambda: read_touchstone("# GHz S RI R 50 R 75\n1 0 0\n"), FormatError,
     "^line 1: repeated option 'R': a second reference resistance$"),
    # the first field of a two-port row is read to tell a noise row
    (lambda: read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS.replace("2.0", "1..0")),
     FormatError, "^line 3: malformed number: could not convert string to float: '1..0'$"),
    # a two-port row is converted once, but a malformed later number is
    # named only after its column count
    (lambda: read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS + "1.0 0.8 0.3x 45.0\n"),
     FormatError, "^line 4: expected 5 columns in the noise parameter block, got 4$"),
    (lambda: read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS + "3.0 0.8 0.3x\n"),
     FormatError, "^line 4: inconsistent column count$"),
    (lambda: read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS + "1.0 0.8 0.3x 45.0 0.2\n"),
     FormatError, "^line 4: malformed number: could not convert string to float: '0.3x'$"),
    (lambda: read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS + "1.0 nan 0.3 45.0 0.2\n"),
     FormatError, "^line 4: non-finite number 'nan'$"),
    (lambda: read_touchstone("# GHz S RI R 50\n" + TWO_PORT_ROWS + "-1.0 0.8 0.3 45.0 0.2\n"),
     FormatError, "^line 4: non-positive frequency$"),
    (lambda: read_touchstone("1 0 0 0 0 0 0 0 0\n\n2 0 0\n"), FormatError,
     "^line 3: inconsistent column count$"),
    (lambda: write_resonator(_RESONATOR, section="x"), DomainError,
     "resonator section must be 'series' or 'shunt'"),
    (lambda: write_ladder_design(LadderDesign(((ElementKind.SERIES, _RESONATOR),))), DomainError,
     "only shunt-series-shunt ladders"),
], ids=["header-unit", "header-parameter", "header-format", "to-curve-two-port",
        "option-y", "option-r-without-value", "option-r-not-a-number",
        "option-repeated-unit", "option-repeated-parameter", "option-repeated-format",
        "option-repeated-r",
        "two-port-first-field-malformed", "noise-columns-before-malformed-number",
        "columns-before-malformed-number", "noise-malformed-number", "noise-non-finite",
        "noise-non-positive",
        "inconsistent-columns", "resonator-section", "non-canonical-ladder"])
def test_io_rejections(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_ladder_design_names_its_first_fault_in_file_order():
    # Both sections lack keys: [series], written first, is named.
    with pytest.raises(FormatError, match=r"^section \[series\] missing keys: lm, "):
        read_ladder_design("[series]\nrm = 1\n[shunt]\nrm = 1\nlm = 1\n")
    with pytest.raises(FormatError, match=r"^missing \[series\] section$"):
        read_ladder_design("[filter]\nz0 = 50\n")
