"""Touchstone reader and writer against the line-by-line reference.

The reference below converts and checks one number at a time with the
``math`` module, as the reader and writer did before they worked on numpy
columns.  It differs from that earlier code only where the earlier code
crashed: a DB magnitude or a frequency in hertz that overflows is a
FormatError at its line, not an OverflowError or an infinite frequency.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acoufilt import io_formats
from acoufilt.errors import AcoufiltError, DomainError, FormatError
from acoufilt.io_formats import (
    TouchstoneData,
    TouchstoneHeader,
    _parse_option_line,
    read_touchstone,
    write_touchstone,
)

# ---------------------------------------------------------------------------
# Reference implementation


def _number(token: str, lineno: int) -> float:
    """float() of token; a malformed one is named as the reader names it."""
    try:
        return float(token)
    except ValueError as exc:
        raise FormatError(f"malformed number: {exc}", lineno)


def _pair_to_complex(a: float, b: float, fmt: str, lineno: int) -> complex:
    if fmt == "RI":
        return complex(a, b)
    if fmt == "MA":
        return a * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
    try:
        mag = 10.0 ** (a / 20.0)
    except OverflowError:
        raise FormatError("DB magnitude overflows", lineno)
    return mag * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))


def _complex_to_pair(v: complex, fmt: str) -> tuple[float, float]:
    if fmt == "RI":
        return v.real, v.imag
    try:
        mag = abs(v)
    except OverflowError:  # numpy gives inf, which the reader then rejects
        mag = math.inf
    ang = math.degrees(math.atan2(v.imag, v.real))
    if fmt == "MA":
        return mag, ang
    return 20.0 * math.log10(mag) if mag > 0 else -math.inf, ang


def reference_read(text: str) -> TouchstoneData:
    header = None
    freqs, rows, noise_freqs = [], [], []
    n_ports = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is not None:
                raise FormatError("duplicate option line", lineno)
            if rows:
                raise FormatError("option line after data", lineno)
            header = _parse_option_line(line[1:].split(), lineno)
            continue
        if header is None:
            header = TouchstoneHeader()
        fields = line.split()
        if n_ports == 2 and (
            noise_freqs or _number(fields[0], lineno) * header.unit_scale <= freqs[-1]
        ):
            if len(fields) != 5:
                raise FormatError(
                    f"expected 5 columns in the noise parameter block, got {len(fields)}", lineno)
            nums = [_number(tok, lineno) for tok in fields]
            for tok, v in zip(fields, nums):
                if not math.isfinite(v):
                    raise FormatError(f"non-finite number {tok!r}", lineno)
            f_hz = nums[0] * header.unit_scale
            if not math.isfinite(f_hz):
                raise FormatError("frequency overflows when scaled to hertz", lineno)
            if f_hz <= 0:
                raise FormatError("non-positive frequency", lineno)
            if noise_freqs and f_hz <= noise_freqs[-1]:
                raise FormatError("frequencies must be strictly increasing", lineno)
            noise_freqs.append(f_hz)
            continue
        if len(fields) not in (3, 9):
            raise FormatError(
                f"expected 3 (1-port) or 9 (2-port) columns, got {len(fields)}", lineno)
        ports = 1 if len(fields) == 3 else 2
        if n_ports is None:
            n_ports = ports
        elif ports != n_ports:
            raise FormatError("inconsistent column count", lineno)
        nums = [_number(tok, lineno) for tok in fields]
        for i, v in enumerate(nums):
            zero_db = header.format == "DB" and i % 2 == 1 and v == -math.inf
            if not (math.isfinite(v) or zero_db):
                raise FormatError(f"non-finite number {fields[i]!r}", lineno)
        f_hz = nums[0] * header.unit_scale
        if not math.isfinite(f_hz):
            raise FormatError("frequency overflows when scaled to hertz", lineno)
        if f_hz <= 0:
            raise FormatError("non-positive frequency", lineno)
        if freqs and f_hz <= freqs[-1]:
            raise FormatError("frequencies must be strictly increasing", lineno)
        freqs.append(f_hz)
        rows.append([_pair_to_complex(nums[i], nums[i + 1], header.format, lineno)
                     for i in range(1, len(nums), 2)])
    header = header or TouchstoneHeader()
    n_ports = n_ports or 1
    s = np.zeros((len(freqs), n_ports, n_ports), dtype=complex)
    for i, vals in enumerate(rows):
        if n_ports == 1:
            s[i, 0, 0] = vals[0]
        else:
            s[i, 0, 0], s[i, 1, 0], s[i, 0, 1], s[i, 1, 1] = vals
    return TouchstoneData(header, np.asarray(freqs, dtype=float), s)


def reference_table(data: TouchstoneData) -> np.ndarray:
    """The numbers the per-row writer printed, one row per frequency."""
    header = data.header
    out = []
    for i, f in enumerate(data.freq_hz):
        s = data.s[i]
        vals = (s[0, 0],) if data.n_ports == 1 else (s[0, 0], s[1, 0], s[0, 1], s[1, 1])
        row = [f / header.unit_scale]
        for v in vals:
            row.extend(_complex_to_pair(complex(v), header.format))
        out.append(row)
    return np.array(out, dtype=float).reshape(len(data.freq_hz), -1)


# ---------------------------------------------------------------------------
# Helpers and strategies


def outcome(read, text):
    try:
        return read(text)
    except AcoufiltError as exc:
        return type(exc), exc.line, str(exc)


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def within_ulps(got: np.ndarray, want: np.ndarray, ulps: int) -> bool:
    with np.errstate(invalid="ignore", over="ignore"):
        close = np.abs(got - want) <= ulps * np.spacing(np.abs(want))
    return bool(np.all(close | (np.isinf(want) & (got == want))))


def assert_same_complex(got: np.ndarray, want: np.ndarray, exact: bool) -> None:
    assert got.shape == want.shape
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        if exact:
            assert np.array_equal(bits(g), bits(w))
        else:
            assert within_ulps(g, w, 4)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
WILD_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "zz", "1,5", "0x1p3",
                     "7000", "1e308", "1_0"]),
)


def rarely(draw, odds: int) -> bool:
    return draw(st.integers(0, odds - 1)) == 0


def token(draw, odds: int) -> str:
    """Mostly an ordinary number; one time in odds anything a file might hold."""
    if rarely(draw, odds):
        return draw(WILD_TOKENS)
    return repr(draw(st.floats(-100.0, 100.0)))


def option_line(draw) -> str:
    unit = draw(st.sampled_from(["Hz", "kHz", "MHz", "GHz", "ghz"]))
    fmt = draw(st.sampled_from(["RI", "MA", "DB", "db"]))
    r = draw(st.sampled_from(["50", "75"]))
    extra = ""
    if rarely(draw, 6):
        extra = draw(st.sampled_from([" Z", " R", " XY", " R x", " R 0"]))
    return f"# {unit} S {fmt} R {r}{extra}"


@st.composite
def touchstone_texts(draw, odds: int = 8):
    """Text that is mostly a valid one- or two-port file, with mistakes mixed in.

    Numbers are separated by spaces, or in one file in four by tabs or
    no-break spaces, which str.split() also splits on.
    """
    width = draw(st.sampled_from([3, 9]))
    sep = draw(st.sampled_from(["\t", "\xa0"])) if rarely(draw, 4) else " "
    lines = [option_line(draw)] if not rarely(draw, 4) else []
    freq = noise_freq = 0
    kinds = ["row"] * 40 + ["comment", "blank", "option", "noise", "odd-row"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=16)):
        if kind == "comment":
            lines.append("! a comment")
        elif kind == "blank":
            lines.append("   ")
        elif kind == "option":
            lines.append(option_line(draw))
        elif kind == "noise":
            noise_freq += 0 if rarely(draw, 4) else 1
            values = [token(draw, odds) for _ in range(4)]
            lines.append(sep.join([repr(float(noise_freq))] + values))
        else:
            freq += draw(st.sampled_from([0, -1])) if rarely(draw, 20) else 1
            f = draw(WILD_TOKENS) if rarely(draw, 30) else repr(float(freq))
            n = width if kind == "row" else draw(st.sampled_from([1, 3, 4, 5, 9]))
            values = [token(draw, odds) for _ in range(n - 1)]
            comment = " ! inline" if rarely(draw, 6) else ""
            lines.append(sep.join([f] + values) + comment)
    return "\n".join(lines) + "\n"


ALPHABET = "0123456789.eE+-_ #!\n\t\rxinfaSsDBMRHzGkI,"

_HEAD = "# GHz S RI R 50\n"
_ROW1 = "1.0000000000000000e+00 5.0000000000000000e-01 -2.5000000000000000e-01\n"
_ROW2 = "2.0000000000000000e+00 2.5000000000000000e-01 1.2500000000000000e-01\n"
_ROWS9 = ("1.0000000000000000e+00" + " 1.0000000000000000e-01 0.0000000000000000e+00" * 4 + "\n"
          "2.0000000000000000e+00" + " 2.0000000000000000e-01 0.0000000000000000e+00" * 4 + "\n")
# Texts just outside the writer's grammar, which the table kernel leaves to
# the line walk.
NEAR_WRITTEN = {
    "E": _HEAD + _ROW1 + _ROW2.replace("e-01", "E-01", 1),
    "crlf": (_HEAD + _ROW1 + _ROW2).replace("\n", "\r\n"),
    "double space": _HEAD + _ROW1.replace(" ", "  ", 1) + _ROW2,
    "trailing space": _HEAD + _ROW1[:-1] + " \n" + _ROW2,
    "leading plus": _HEAD + _ROW1 + "+" + _ROW2,
    "no final newline": _HEAD + _ROW1 + _ROW2[:-1],
    "comment after a row": _HEAD + _ROW1[:-1] + " ! a comment\n" + _ROW2,
    "4-digit exponent": _HEAD + _ROW1 + _ROW2.replace("e-01", "e-0001", 1),
    "-inf dB": "# GHz S DB R 50\n" + _ROW1 + _ROW2.replace("2.5000000000000000e-01", "-inf"),
    "noise block": _HEAD + _ROWS9 + "1.0000000000000000e+00 8.0000000000000000e-01 "
                   "3.0000000000000000e-01 4.5000000000000000e+01 2.0000000000000000e-01\n",
}


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=200)
@given(st.one_of(touchstone_texts(), st.text(alphabet=ALPHABET)))
# Examples the line walk reads: tokens only float() reads, a noise block,
# a row not above the one before, no lines or no data, and no-break spaces,
# which str.split() splits on.
@example("# GHz S RI R 50\n1 1_0 0\n")  # float() only
@example("# GHz S RI R 50\n1 \uff11 0\n")  # float() only: a fullwidth digit
@example("# GHz S RI R 50\n" + "1 0.1 0 0.2 0 0.2 0 0.1 0\n2 0.1 0 0.2 0 0.2 0 0.1 0\n"
         "1 0.8 0.3 45 0.2\n2 1.1 0.25 60 0.25\n")  # a two-port noise block
@example("# GHz S RI R 50\n2 0.1 0 0.2 0 0.2 0 0.1 0\n1 0.1 0 0.2 0 0.2 0 0.1 0\n")  # 9 columns
@example("")  # no lines
@example("! only a comment\n\n")  # no data
@example("# GHz S RI R 50\n1\xa00.5\xa00\n2\xa00.25\xa00\n")  # no-break spaces
@example(_HEAD + _ROW1 + _ROW2)  # read by the table kernel
@example(NEAR_WRITTEN["E"])
@example(NEAR_WRITTEN["crlf"])
@example(NEAR_WRITTEN["double space"])
@example(NEAR_WRITTEN["trailing space"])
@example(NEAR_WRITTEN["leading plus"])
@example(NEAR_WRITTEN["no final newline"])
@example(NEAR_WRITTEN["comment after a row"])
@example(NEAR_WRITTEN["4-digit exponent"])
@example(NEAR_WRITTEN["-inf dB"])
@example(NEAR_WRITTEN["noise block"])
def test_reader_matches_the_line_by_line_reference(text):
    got, want = outcome(read_touchstone, text), outcome(reference_read, text)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, TouchstoneData)
    assert got.header == want.header
    assert np.array_equal(bits(got.freq_hz), bits(want.freq_hz))
    assert_same_complex(got.s, want.s, exact=want.header.format == "RI")


@st.composite
def touchstone_data(draw, fmt):
    # At least one row: the column count is what tells the port count.
    ports = draw(st.sampled_from([1, 2]))
    freq = np.unique(np.array(draw(st.lists(st.floats(min_value=5e-324, allow_infinity=False),
                                            min_size=1, max_size=12)), dtype=float))
    values = draw(st.lists(FINITE, min_size=2 * ports * ports * freq.size,
                           max_size=2 * ports * ports * freq.size))
    pairs = np.array(values, dtype=float).reshape(freq.size, ports, ports, 2)
    header = TouchstoneHeader("Hz", "S", fmt, 50.0)
    return TouchstoneData(header, freq, pairs.view(complex)[..., 0])


@given(touchstone_data("RI"))
def test_ri_write_then_read_is_bit_exact(data):
    back = read_touchstone(write_touchstone(data))
    assert back.header == data.header
    assert np.array_equal(bits(back.freq_hz), bits(data.freq_hz))
    assert_same_complex(back.s, data.s, exact=True)


@settings(max_examples=60)
@given(st.sampled_from(["MA", "DB"]).flatmap(touchstone_data))
def test_ma_and_db_columns_are_within_4_ulp_of_math(data):
    text = write_touchstone(data)
    table = np.array([[float(tok) for tok in line.split()]
                      for line in text.splitlines()[1:]], dtype=float)
    want = reference_table(data)
    assert table.shape == want.shape
    assert within_ulps(table, want, 4)
    # Reading the text back converts with numpy; the reference with math.
    got, ref = outcome(read_touchstone, text), outcome(reference_read, text)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert_same_complex(got.s, ref.s, exact=False)


@given(st.one_of(st.text(), st.text(alphabet=ALPHABET), touchstone_texts()))
def test_reader_raises_only_format_or_domain_errors(text):
    try:
        read_touchstone(text)
    except (FormatError, DomainError):
        pass


def drawn_data(fmt: str, ports: int, seed: int = 7) -> TouchstoneData:
    """40 rows of drawn S matrices with a header of format fmt."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((40, ports, ports)) + 1j * rng.standard_normal((40, ports, ports))
    return TouchstoneData(TouchstoneHeader("GHz", "S", fmt, 75.0), np.linspace(1e9, 4e10, 40), s)


@pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
@pytest.mark.parametrize("ports", [1, 2])
def test_written_files_are_read_without_the_line_walk(monkeypatch, fmt, ports):
    data = drawn_data(fmt, ports)
    text = write_touchstone(data)
    want = reference_read(text)

    def fail(*args):
        raise AssertionError("the line walk read a written file")

    monkeypatch.setattr(io_formats, "_read_lines", fail)
    got = read_touchstone(text)
    assert got.header == data.header
    assert np.array_equal(bits(got.freq_hz), bits(want.freq_hz))
    assert_same_complex(got.s, want.s, exact=fmt == "RI")


@pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
@pytest.mark.parametrize("ports", [1, 2])
def test_written_files_are_read_without_loadtxt(monkeypatch, fmt, ports):
    # No reader hands the table to np.loadtxt, and the digit kernel reads
    # a second draw of written files without the line walk.
    data = drawn_data(fmt, ports, seed=8)
    text = write_touchstone(data)
    want = reference_read(text)

    def fail(*args, **kwargs):
        raise AssertionError("loadtxt or the line walk read a written file")

    monkeypatch.setattr(np, "loadtxt", fail)
    monkeypatch.setattr(io_formats, "_read_lines", fail)
    got = read_touchstone(text)
    assert got.header == data.header
    assert np.array_equal(bits(got.freq_hz), bits(want.freq_hz))
    assert_same_complex(got.s, want.s, exact=fmt == "RI")


@pytest.mark.parametrize("ports", [1, 2])
def test_written_db_file_with_an_exact_zero_reads_as_the_reference(ports):
    # The writer gives the zero as -inf dB, which is outside the kernel's
    # grammar, so the line walk reads the file.  It converts the numbers
    # with numpy, as a bulk read of the float() table does, bit for bit;
    # the math-module reference agrees to within a few ulp.
    data = drawn_data("DB", ports)
    data.s[3] = 0.0
    text = write_touchstone(data)
    assert "-inf" in text
    got, want = read_touchstone(text), reference_read(text)
    _, bulk = io_formats._columns(data.header, np.array(
        [[float(tok) for tok in line.split()] for line in text.splitlines()[1:]]))
    assert got.header == data.header
    assert np.array_equal(bits(got.freq_hz), bits(want.freq_hz))
    assert_same_complex(got.s, bulk, exact=True)
    assert_same_complex(got.s, want.s, exact=False)


def spy_on(monkeypatch, name: str) -> list[tuple]:
    """The arguments of each call of io_formats.name from now on."""
    calls = []
    real = getattr(io_formats, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(io_formats, name, spy)
    return calls


@pytest.mark.parametrize("name", NEAR_WRITTEN)
def test_texts_outside_the_written_grammar_are_left_to_the_other_readers(monkeypatch, name):
    walks = spy_on(monkeypatch, "_read_lines")
    read_touchstone(NEAR_WRITTEN[name])
    assert len(walks) == 1


@pytest.mark.parametrize("name", ["written", *NEAR_WRITTEN])
def test_the_option_line_is_parsed_once(monkeypatch, name):
    # Whichever reader reads the rows, including the line walk after the
    # table kernel refused them.
    text = _HEAD + _ROW1 + _ROW2 if name == "written" else NEAR_WRITTEN[name]
    parses = spy_on(monkeypatch, "_parse_option_line")
    read_touchstone(text)
    assert parses == [(text.splitlines()[0].split("!", 1)[0][1:].split(), 1)]


def test_reading_builds_none_of_the_writers_digit_words():
    data = TouchstoneData(TouchstoneHeader(), np.array([1e9, 2e9]), np.full((2, 1, 1), 0.5j))
    text = write_touchstone(data)
    io_formats._digit_words.cache_clear()
    read_touchstone(text)
    assert io_formats._digit_words.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# Table formatting


def per_value(table: np.ndarray) -> str:
    """The table as _NUM formats each number, one line per row."""
    return "".join(" ".join(map(io_formats._NUM, row)) + "\n" for row in table.tolist())


@settings(max_examples=200)
@given(st.sampled_from([1, 3, 9]).flatmap(
    lambda cols: st.lists(st.integers(0, 2**64 - 1), max_size=60 * cols).map(
        lambda words: np.array(words[:len(words) - len(words) % cols], dtype=np.uint64)
        .view(np.float64).reshape(-1, cols))))
@example(np.empty((0, 3)))  # no rows: empty text
@example(np.empty((0, 9)))
def test_table_formatting_matches_num_for_any_float(table):
    # Drawn as bit patterns: NaN, inf, -0.0 and subnormals included.
    assert io_formats._format_table(table) == per_value(table)


def _edge_values() -> np.ndarray:
    tens = np.array([float(f"1e{j}") for j in range(-300, 301)])
    values = np.concatenate([
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [5e-324, sys.float_info.max, 0.0],
    ])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("cols", [1, 3, 9])
def test_table_formatting_matches_num_at_the_edges(cols):
    values = _edge_values()
    table = np.concatenate([values, np.zeros(-len(values) % cols)]).reshape(-1, cols)
    assert io_formats._format_table(table) == per_value(table)


def test_fallback_rows_on_both_sides_of_a_chunk_boundary():
    n = io_formats._CHUNK_NUMBERS // 3
    table = np.linspace(1.0, 2.0, 3 * (n + 2)).reshape(-1, 3)
    fallback = [0, n - 1, n, n + 1]
    table[fallback, 1] = [np.nan, 2.0**-25, np.inf, 1e300]
    assert io_formats._format_table(table) == per_value(table)
    proven = np.concatenate([io_formats._format_chunk(table[:n])[1],
                             io_formats._format_chunk(table[n:])[1]])
    assert np.flatnonzero(~proven).tolist() == fallback


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(50.0)
@example(50.123456789)
@example(5e-324)
def test_option_line_reads_back_the_same_reference_resistance(z0):
    header = TouchstoneHeader("Hz", "S", "RI", z0)
    line = header.option_line()
    assert _parse_option_line(line[1:].split(), 1) == header
    data = TouchstoneData(header, np.array([1e9]), np.array([[[0.5 + 0.25j]]]))
    assert read_touchstone(write_touchstone(data)).header.reference_resistance == z0


# ---------------------------------------------------------------------------
# Table reading


def float_bits(text: str) -> np.ndarray:
    """The bits of float() of each token of text."""
    return bits(np.array([float(tok) for tok in text.split()]))


@settings(max_examples=200)
@given(st.sampled_from([1, 3, 9]).flatmap(
    lambda cols: st.lists(st.integers(0, 2**64 - 1), min_size=cols, max_size=60 * cols).map(
        lambda words: np.array(words[:len(words) - len(words) % cols], dtype=np.uint64)
        .view(np.float64).reshape(-1, cols))))
def test_table_reading_gives_floats_bits_for_any_float(table):
    # Drawn as bit patterns; a table with NaN or inf is outside the grammar.
    text = io_formats._format_table(table)
    got = io_formats._written_table(text, 0)
    if not np.isfinite(table).all():
        assert got is None
        return
    assert got.shape == table.shape
    assert np.array_equal(bits(got.ravel()), float_bits(text))
    assert np.array_equal(bits(got), bits(table))


@pytest.mark.parametrize("cols", [1, 3, 9])
def test_table_reading_gives_floats_bits_at_the_edges(cols):
    values = _edge_values()
    table = np.concatenate([values, np.zeros(-len(values) % cols)]).reshape(-1, cols)
    text = io_formats._format_table(table)
    assert np.array_equal(bits(io_formats._written_table(text, 0).ravel()), float_bits(text))


# Decimal ties: 2**53 + 1 lies halfway between 2**53 and 2**53 + 2, and
# 2**54 - 1 halfway across the narrower gap below 2**54.
TIES = ["9.0071992547409930e+15", "1.8014398509481983e+16"]


def spy_on_float(monkeypatch) -> list[bytes]:
    """The tokens io_formats hands to float() from now on."""
    tokens = []

    def spy(token):
        if isinstance(token, bytes):
            tokens.append(token)
        return float(token)

    monkeypatch.setattr(io_formats, "float", spy, raising=False)
    return tokens


@pytest.mark.parametrize("tie", TIES)
def test_rounding_ties_are_read_by_float(monkeypatch, tie):
    tokens = spy_on_float(monkeypatch)
    x, width = io_formats._read_chunk(("\n" + tie + "\n" + io_formats._PAD).encode())
    assert width == 1 and tokens == [tie.encode()]
    assert bits(x).tolist() == float_bits(tie).tolist()


def test_a_first_row_longer_than_a_chunk_is_left_to_the_line_walk(monkeypatch):
    # No newline falls within the kernel's first _READ_CHUNK characters, so
    # it refuses the text before it reads any of it.
    row = " ".join(["1.0000000000000000e+00"] * 9000) + "\n"
    assert len(row) > io_formats._READ_CHUNK
    text = _HEAD + row + _ROW2
    assert io_formats._written_table(text, len(_HEAD)) is None
    reads = spy_on(monkeypatch, "_read_chunk")
    walks = spy_on(monkeypatch, "_read_lines")
    with pytest.raises(FormatError) as exc:
        read_touchstone(text)
    assert reads == [] and len(walks) == 1
    assert (exc.value.line, str(exc.value)) == (
        2, "line 2: expected 3 (1-port) or 9 (2-port) columns, got 9000")


def test_unproven_numbers_on_both_sides_of_a_chunk_cut(monkeypatch):
    reads = []
    read_chunk = io_formats._read_chunk

    def spy(chunk):
        reads.append(read_chunk(chunk))
        return reads[-1]

    monkeypatch.setattr(io_formats, "_read_chunk", spy)
    # Every number in [1, 2) is 22 characters long, as the ties are.
    rows = io_formats._format_table(np.linspace(1.0, 2.0, 3 * 6000).reshape(-1, 3))
    io_formats._written_table(rows, 0)
    cut = reads[0][0].size // 3  # the rows of the first chunk
    rows = rows.splitlines(keepends=True)
    for r, tie in zip((cut - 1, cut), TIES):
        f, _, b = rows[r].split(" ")
        rows[r] = f"{f} {tie} {b}"
    text = "".join(rows)
    reads.clear()
    tokens = spy_on_float(monkeypatch)
    got = io_formats._written_table(text, 0)
    assert reads[0][0].size == 3 * cut and len(reads) > 1
    assert tokens == [tie.encode() for tie in TIES]
    assert np.array_equal(bits(got.ravel()), float_bits(text))
