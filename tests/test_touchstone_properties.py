"""Touchstone reader and writer against the line-by-line reference.

The reference below converts and checks one number at a time with the
``math`` module, as the reader and writer did before they worked on numpy
columns.  It differs from that earlier code only where the earlier code
crashed: a DB magnitude or a frequency in hertz that overflows is a
FormatError at its line, not an OverflowError or an infinite frequency.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acoufilt.errors import AcoufiltError, DomainError, FormatError
from acoufilt.io_formats import (
    TouchstoneData,
    TouchstoneHeader,
    _noise_row,
    _number,
    _parse_option_line,
    read_touchstone,
    write_touchstone,
)

# ---------------------------------------------------------------------------
# Reference implementation


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
            noise_freqs.append(_noise_row(fields, header, lineno, noise_freqs))
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
    """Text that is mostly a valid one- or two-port file, with mistakes mixed in."""
    width = draw(st.sampled_from([3, 9]))
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
            lines.append(" ".join([repr(float(noise_freq))] + values))
        else:
            freq += draw(st.sampled_from([0, -1])) if rarely(draw, 20) else 1
            f = draw(WILD_TOKENS) if rarely(draw, 30) else repr(float(freq))
            n = width if kind == "row" else draw(st.sampled_from([1, 3, 4, 5, 9]))
            values = [token(draw, odds) for _ in range(n - 1)]
            comment = " ! inline" if rarely(draw, 6) else ""
            lines.append(" ".join([f] + values) + comment)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=200)
@given(touchstone_texts())
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


ALPHABET = "0123456789.eE+-_ #!\n\t\rxinfaSsDBMRHzGkI,"


@given(st.one_of(st.text(), st.text(alphabet=ALPHABET), touchstone_texts()))
def test_reader_raises_only_format_or_domain_errors(text):
    try:
        read_touchstone(text)
    except (FormatError, DomainError):
        pass
