"""Serialization: Touchstone v1, key-value design files, and CSV reports.

Readers reject malformed input instead of repairing it; an error names the
offending line, or the missing section or key.  read_touchstone reads the
option line once for both data paths.  One key table (_SECTION_KEYS,
_REQUIRED) serves the design-file readers, which build from parsed sections
(_build), and the writers (_write_sections).

Writers emit every number as "%.16e" (_NUM), 17 significant digits, so
write-then-read gives back the same float; the option line's R reads back
as the same float too.  A Touchstone table is formatted 1024 rows at a
time by a numpy kernel (_format_chunk): it scales each |x| by 10**(16 - k),
k an estimate of floor(log10|x|), as a double-double product (Dekker's
two-product, with 10**j as a pair of floats from exact integer
arithmetic), rounds it to the 17-digit integer and writes its digits as
bytes.  A row with a number the kernel cannot prove it rounds as "%.16e"
does (non-finite, outside [1e-280, 1e280], near a rounding tie, or with k
one off) is formatted by "%.16e" itself, so the text is the same, byte
for byte.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .curves import ComplexCurve
from .errors import DomainError, FormatError
from .mbvd import MbvdParams
from .metrics import FilterMetrics
from .network import ElementKind, LadderDesign, SParameterBlock, shunt_series_shunt
from .synthesis import DesignSpec

_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("RI", "MA", "DB")
_NUM = "{:.16e}".format
# Rows per pass of _format_table; bounds its temporary arrays.
_CHUNK_ROWS = 1024
# The table kernel formats |x| in [1e-_EXP_MAX, 1e_EXP_MAX] and zeros; every
# other number goes to _NUM's formatting.
_EXP_MAX = 280
# Veltkamp's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0
# A scaled value this close to a rounding tie is not rounded by the kernel:
# its error is below 1e-13, and the tie needs the exact rule.
_TIE_MARGIN = 1e-6


@dataclass(frozen=True)
class TouchstoneHeader:
    frequency_unit: str = "GHz"
    parameter: str = "S"
    format: str = "MA"
    reference_resistance: float = 50.0

    def __post_init__(self):
        if self.frequency_unit.lower() not in _FREQ_UNITS:
            raise DomainError(f"unknown frequency unit {self.frequency_unit!r}")
        if self.parameter != "S":
            raise DomainError("only S-parameter Touchstone files are supported")
        if self.format not in _FORMATS:
            raise DomainError(f"unknown Touchstone format {self.format!r}")
        if not 0 < self.reference_resistance < math.inf:
            raise DomainError("reference resistance must be positive and finite")

    @property
    def unit_scale(self) -> float:
        return _FREQ_UNITS[self.frequency_unit.lower()]

    def option_line(self) -> str:
        """The option line; R reads back as the same float (50, not 50.0)."""
        r = f"{self.reference_resistance:g}"
        if float(r) != self.reference_resistance:
            r = repr(self.reference_resistance)
        return f"# {self.frequency_unit} {self.parameter} {self.format} R {r}"


@dataclass(frozen=True)
class TouchstoneData:
    """Parsed Touchstone content: 1-port (n,1,1) or 2-port (n,2,2) matrices."""

    header: TouchstoneHeader
    freq_hz: np.ndarray
    s: np.ndarray

    @property
    def n_ports(self) -> int:
        return self.s.shape[1]

    def to_curve(self) -> ComplexCurve:
        if self.n_ports != 1:
            raise DomainError("to_curve requires one-port data")
        return ComplexCurve(self.freq_hz, self.s[:, 0, 0])

    def to_block(self) -> SParameterBlock:
        if self.n_ports != 2:
            raise DomainError("to_block requires two-port data")
        return SParameterBlock(self.freq_hz, self.s,
                               z0=self.header.reference_resistance)


def _parse_option_line(tokens: list[str], lineno: int) -> TouchstoneHeader:
    """The header of an option line: an omitted option keeps its default, a repeated one raises."""
    options = {}
    it = iter(tokens)
    for t in it:
        u = t.upper()
        if t.lower() in _FREQ_UNITS:
            key, value = "frequency_unit", t
        elif u == "S":
            key, value = "parameter", u
        elif u in ("Y", "Z", "H", "G"):
            raise FormatError(f"unsupported parameter type {t!r}", lineno)
        elif u in _FORMATS:
            key, value = "format", u
        elif u == "R":
            key, value = "reference_resistance", next(it, None)
            if value is None:
                raise FormatError("R option missing its resistance value", lineno)
            try:
                value = float(value)
            except ValueError:
                raise FormatError(f"bad reference resistance {value!r}", lineno)
        else:
            raise FormatError(f"unknown option token {t!r}", lineno)
        if key in options:
            raise FormatError(f"repeated option {t!r}: a second {key.replace('_', ' ')}", lineno)
        options[key] = value
    try:
        return TouchstoneHeader(**options)
    except DomainError as exc:
        raise FormatError(str(exc), lineno)


def _number(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise FormatError(f"malformed number: {exc}", lineno)


def _data_row(fields: list[str], header: TouchstoneHeader, lineno: int,
              previous_hz: float | None, s_data: bool) -> tuple[float, list[float]]:
    """The frequency in hertz and the numbers of one data row, checked.

    A row fails if a number is not finite, its frequency overflows in
    hertz, is not positive or does not exceed previous_hz, or (S data in DB
    format) a magnitude overflows; the first check it fails names it.  An
    S-data magnitude of -inf dB is an exact zero, as the DB writer gives it.
    """
    nums = [_number(tok, lineno) for tok in fields]
    db = s_data and header.format == "DB"
    if not all(map(math.isfinite, nums)):
        for i, (tok, v) in enumerate(zip(fields, nums)):
            if not (math.isfinite(v) or (db and i % 2 == 1 and v == -math.inf)):
                raise FormatError(f"non-finite number {tok!r}", lineno)
    f_hz = nums[0] * header.unit_scale
    if not math.isfinite(f_hz):
        raise FormatError("frequency overflows when scaled to hertz", lineno)
    if f_hz <= 0:
        raise FormatError("non-positive frequency", lineno)
    if previous_hz is not None and f_hz <= previous_hz:
        raise FormatError("frequencies must be strictly increasing", lineno)
    # No magnitude up to 6000 dB (1e300) overflows; above it, the arithmetic
    # of _columns decides, so that it accepts every row checked here.
    if db and max(nums[1::2]) > 6000.0:
        with np.errstate(over="ignore"):
            if not np.isfinite(10.0 ** (np.array(nums[1::2]) / 20.0)).all():
                raise FormatError("DB magnitude overflows", lineno)
    return f_hz, nums


def _columns(header: TouchstoneHeader,
             table: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Frequencies in hertz and S matrices of the data rows, or None if a
    row fails a check of _data_row (checked here by column)."""
    n, width = table.shape
    a, b = table[:, 1::2], table[:, 2::2]
    raw_bad = ~np.isfinite(table)
    if header.format == "DB":
        # The DB writer gives an exact zero magnitude as -inf dB.
        raw_bad[:, 1::2] &= a != -np.inf
    with np.errstate(over="ignore"):
        f = table[:, 0] * header.unit_scale
        mag = 10.0 ** (a / 20.0) if header.format == "DB" else a
    if (raw_bad.any() or not np.isfinite(f).all() or (f <= 0).any()
            or (f[1:] <= f[:-1]).any() or not np.isfinite(mag).all()):
        return None
    if header.format == "RI":
        re, im = a, b
    else:
        rad = np.radians(b)
        re, im = mag * np.cos(rad), mag * np.sin(rad)
    s = np.empty(a.shape, dtype=complex)
    s.real, s.imag = re, im
    ports = 1 if width == 3 else 2
    # v1 two-port order S11 S21 S12 S22 fills each 2x2 matrix column by column.
    return f, s.reshape(n, ports, ports).transpose(0, 2, 1).copy()


def read_touchstone(text: str) -> TouchstoneData:
    """Parse Touchstone v1 text; port count inferred from the column count.

    One-port lines carry 3 columns, two-port lines 9 columns in the v1
    S11 S21 S12 S22 order.  Frequencies must be strictly increasing.  In a
    two-port file, the first row whose frequency is not above the previous
    one starts the noise-parameter block (Touchstone v1.1): its 5-column
    rows are checked and ignored.

    A well-formed file is read by one np.loadtxt call after its option line.
    Every other file (a noise block, an error, no data, a token only float()
    reads, such as 1_0) is read by the line walk, which checks each row as
    it reads it and so names the first offending line.
    """
    lines = text.splitlines()
    # The first non-blank line is the option line, or a data line of a file
    # without one; lines[start:] are the lines after the option line.
    start = next((i for i, raw in enumerate(lines) if raw.split("!", 1)[0].split()), len(lines))
    header = TouchstoneHeader()
    option = lines[start].split("!", 1)[0].strip() if start < len(lines) else ""
    if option.startswith("#"):
        header = _parse_option_line(option[1:].split(), start + 1)
        start += 1
    return _read_table(header, lines, start) or _read_lines(header, lines, start)


def _read_table(header: TouchstoneHeader, lines: list[str], start: int) -> TouchstoneData | None:
    """The data of lines[start:] without noise block or error, or None.

    None hands the file to the line walk; loadtxt's C parser reads a subset
    of what float() reads, to the same bits.
    """
    try:
        # An input without data rows warns; the line walk reads it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines[start:], comments="!", ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape[1] not in (3, 9):
        return None
    # A two-port row whose frequency is not above the previous one (the
    # start of a noise block) is a failing row here.
    cols = _columns(header, table)
    return None if cols is None else TouchstoneData(header, *cols)


def _read_lines(header: TouchstoneHeader, lines: list[str], start: int) -> TouchstoneData:
    """The line walk over lines[start:]: each line's layout and numbers are
    checked as it is read, so an error names the first offending line."""
    scale = header.unit_scale
    width = 0  # columns of an S-data row: 3 (one-port) or 9 (two-port)
    rows: list[list[float]] = []
    last_hz = noise_hz = None  # frequency of the last S-data and noise row
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        fields = raw.split("!", 1)[0].split()
        if not fields:
            continue
        if fields[0].startswith("#"):
            raise FormatError("duplicate option line", lineno)
        if width == 9 and (noise_hz is not None or _number(fields[0], lineno) * scale <= last_hz):
            # A noise row: frequency, NFmin (dB), |Gamma_opt|, angle of
            # Gamma_opt and the normalized noise resistance.
            if len(fields) != 5:
                raise FormatError(
                    f"expected 5 columns in the noise parameter block, got {len(fields)}", lineno
                )
            noise_hz = _data_row(fields, header, lineno, noise_hz, s_data=False)[0]
            continue
        if len(fields) != width:
            if len(fields) not in (3, 9):
                raise FormatError(
                    f"expected 3 (1-port) or 9 (2-port) columns, got {len(fields)}", lineno
                )
            if width:
                raise FormatError("inconsistent column count", lineno)
            width = len(fields)
        last_hz, nums = _data_row(fields, header, lineno, last_hz, s_data=True)
        rows.append(nums)
    cols = _columns(header, np.array(rows).reshape(-1, width or 3))
    if cols is None:
        raise AssertionError("_columns refused rows that _data_row accepted")
    return TouchstoneData(header, *cols)


def _ascii(text: str, dtype: type) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype)


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built on the first write.

    10**j for j in 16 - k, k in [-_EXP_MAX - 1, _EXP_MAX] (an estimate of
    floor(log10|x|) may be one low), as hi + lo: hi the nearest float and
    lo the nearest float to the rest, from exact integer arithmetic; hi's
    Veltkamp halves; and the text, as machine words, of a sign and leading
    digit with the point, of each 4-digit group, and of each exponent with
    a space after it.  A zero byte is a byte the kernel leaves out.
    """
    his, los = [], []
    for j in range(16 - _EXP_MAX, 16 + _EXP_MAX + 2):
        if j >= 0:
            hi = float(10 ** j)
            lo = float(10 ** j - int(hi))
        else:
            d = 10 ** -j
            hi = 1 / d  # int division rounds correctly
            num, den = hi.as_integer_ratio()
            lo = (den - num * d) / (den * d)
        his.append(hi)
        los.append(lo)
    hi, lo = np.array(his), np.array(los)
    c = _SPLIT * hi
    hi_high = c - (c - hi)
    heads = _ascii("".join(f"{sign}{d}.\0" for sign in "\0-" for d in range(10)), np.uint32)
    groups = _ascii("".join(f"{g:04d}" for g in range(10000)), np.uint32)
    exponents = _ascii("".join(
        "e" + "+-"[k < 0] + (f"{abs(k):03d}" if abs(k) >= 100 else f"\0{abs(k):02d}") + " \0\0"
        for k in range(-_EXP_MAX - 1, _EXP_MAX + 1)), np.uint64)
    return hi, hi_high, hi - hi_high, lo, heads, groups, exponents


def _format_chunk(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of chunk as bytes that, once their zero bytes are dropped,
    are its line as _NUM formats its numbers (32 bytes a number), and
    whether that holds for the row.

    It holds unless the row has a number that is neither zero nor in
    [1e-_EXP_MAX, 1e_EXP_MAX], whose scaled value lies within _TIE_MARGIN
    of a rounding tie, or whose exponent estimate was one off (the scaled
    value is outside [1e16, 1e17)).
    """
    rows, cols = chunk.shape
    x = chunk.ravel()
    a = np.abs(x)
    zero = a == 0.0
    proven = zero | ((a >= 10.0 ** -_EXP_MAX) & (a <= 10.0 ** _EXP_MAX))
    a = np.where(proven & ~zero, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, hi_high, hi_low, lo, heads, groups, exponents = _format_tables()
    # a * 10**(16 - k) as the double-double p + e: Dekker's two-product of
    # a and hi, plus a * lo.
    j = _EXP_MAX - k
    p = a * hi[j]
    c = _SPLIT * a
    a_high = c - (c - a)
    a_low = a - a_high
    h_high, h_low = hi_high[j], hi_low[j]
    e = (((a_high * h_high - p) + a_high * h_low) + a_low * h_high) + a_low * h_low
    e += a * lo[j]
    # p >= 1e16 > 2**53 is an integer, so e holds the fraction.
    r = np.rint(e)
    n = p.astype(np.int64) + r.astype(np.int64)
    # The check is on the unrounded value: one just below 10**16 may round
    # up to it.
    proven &= (p > 1e16) | ((p == 1e16) & (e >= 0))
    proven &= n < 10 ** 17
    proven &= np.abs(np.abs(e - r) - 0.5) >= _TIE_MARGIN
    # A zero's digits are 0 (its a was 1, so k is 0); an unproven
    # number's are not used.
    n[zero | ~proven] = 0
    # The 17 digits of n: the leading one and four groups of 4.  A
    # number's 32 bytes are its sign (or 0), leading digit, point and a 0,
    # the 16 other digits, four 0s, and its exponent, a space and two 0s.
    top, low = np.divmod(n, 10 ** 8)
    lead, mid = np.divmod(top.astype(np.int32), 10 ** 8)
    out = np.empty((x.size, 4), np.uint64)
    words = out.view(np.uint32)
    words[:, 0] = heads[lead + 10 * np.signbit(x)]
    for col, part in ((1, mid), (3, low.astype(np.int32))):
        high, rest = np.divmod(part, 10 ** 4)
        words[:, col] = groups[high]
        words[:, col + 1] = groups[rest]
    words[:, 5] = 0
    out[:, 3] = exponents[k + _EXP_MAX + 1]
    text = out.view(np.uint8).reshape(rows, cols * 32)
    text[:, -3] = ord("\n")  # the space after a row's last number
    return text, proven.reshape(rows, cols).all(axis=1)


def _format_table(table: np.ndarray) -> str:
    """One line per row of a float table, each number formatted as _NUM does.

    A row is _format_chunk's text where that is proven, else formatted
    by %.16e.
    """
    row = " ".join(["%.16e"] * table.shape[1]) + "\n"
    pieces = []
    for chunk in np.split(table, range(_CHUNK_ROWS, len(table), _CHUNK_ROWS)):
        text, proven = _format_chunk(chunk)
        start = 0
        for i in np.flatnonzero(~proven):
            pieces += [text[start:i].tobytes().translate(None, b"\0").decode("ascii"),
                       row % tuple(chunk[i].tolist())]
            start = i + 1
        pieces.append(text[start:].tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


def write_touchstone(data: SParameterBlock | ComplexCurve | TouchstoneData,
                     header: TouchstoneHeader | None = None) -> str:
    """Serialize one-port (.s1p) or two-port (.s2p) data; v1 column order."""
    if isinstance(data, TouchstoneData):
        freq, s = data.freq_hz, data.s
        if header is None:
            header = data.header
    elif isinstance(data, ComplexCurve):
        freq = data.freq_hz
        s = data.values.reshape(-1, 1, 1)
    else:
        freq, s = data.freq_hz, data.s
    if header is None:
        header = TouchstoneHeader("Hz", "S", "RI")
        if isinstance(data, SParameterBlock):
            header = replace(header, reference_resistance=data.z0)
    # v1 order S11 S21 S12 S22: each 2x2 matrix column by column.
    cols = s.transpose(0, 2, 1).reshape(len(freq), s.shape[1] ** 2)
    table = np.empty((len(freq), 1 + 2 * cols.shape[1]))
    table[:, 0] = freq / header.unit_scale
    if header.format == "RI":
        table[:, 1::2], table[:, 2::2] = cols.real, cols.imag
    else:
        # np.hypot is the libm hypot that abs(complex) uses; a magnitude
        # beyond the float range is written as inf, and 0 as -inf dB.
        with np.errstate(over="ignore", divide="ignore"):
            mag = np.hypot(cols.real, cols.imag)
            table[:, 1::2] = 20.0 * np.log10(mag) if header.format == "DB" else mag
        table[:, 2::2] = np.degrees(np.arctan2(cols.imag, cols.real))
    return header.option_line() + "\n" + _format_table(table)


# ---------------------------------------------------------------------------
# Key-value design files

_RESONATOR_KEYS = ("rm", "lm", "cm", "c0", "rs", "ls", "r0")
_SECTION_KEYS = {
    "series": _RESONATOR_KEYS,
    "shunt": _RESONATOR_KEYS,
    "filter": ("z0",),
    "spec": ("fc", "fbw", "z0", "oob_min_db", "k2", "q", "rs", "ls", "il_max_db"),
}
# The keys a section must give; every other key takes its field's default.
_REQUIRED = {
    "series": _RESONATOR_KEYS[:-1],
    "shunt": _RESONATOR_KEYS[:-1],
    "spec": ("fc", "fbw", "k2", "q"),
}
# The keys that are not the name of their field (both in [spec]); every
# other key of a section is its field's name.
_FIELDS = {"fc": "fc_target", "fbw": "fbw_target"}


def parse_design_text(text: str) -> dict[str, dict[str, float]]:
    """Strict section/key-value parse of a design file."""
    sections: dict[str, dict[str, float]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTION_KEYS:
                raise FormatError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise FormatError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise FormatError("key-value pair before any section header", lineno)
        if "=" not in line:
            raise FormatError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _SECTION_KEYS[current]:
            raise FormatError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise FormatError(f"duplicate key {key!r}", lineno)
        try:
            sections[current][key] = float(value.strip())
        except ValueError:
            raise FormatError(f"malformed number {value.strip()!r}", lineno)
    return sections


def _build(sections: dict[str, dict[str, float]], name: str) -> MbvdParams | DesignSpec:
    """The resonator of a [series] or [shunt] section, or the DesignSpec of
    [spec], from the parsed sections of a design file."""
    if name not in sections:
        raise FormatError(f"missing [{name}] section")
    sec = sections[name]
    missing = [k for k in _REQUIRED[name] if k not in sec]
    if missing:
        raise FormatError(f"section [{name}] missing keys: {', '.join(missing)}")
    cls = DesignSpec if name == "spec" else MbvdParams
    return cls(**{_FIELDS.get(k, k): v for k, v in sec.items()})


def read_resonators(text: str) -> dict[str, MbvdParams]:
    """All resonator sections of a design file, keyed by section name."""
    return _resonators(parse_design_text(text))


def _resonators(sections: dict[str, dict[str, float]]) -> dict[str, MbvdParams]:
    out = {name: _build(sections, name) for name in ("series", "shunt") if name in sections}
    if not out:
        raise FormatError("no [series] or [shunt] section found")
    return out


def read_ladder_design(text: str) -> LadderDesign:
    """A shunt-series-shunt ladder from a file with both resonator sections."""
    return _ladder_design(parse_design_text(text))


def _ladder_design(sections: dict[str, dict[str, float]]) -> LadderDesign:
    """The ladder of parsed design-file sections; [series] is checked first."""
    series = _build(sections, "series")
    return shunt_series_shunt(_build(sections, "shunt"), series, **sections.get("filter", {}))


def read_design_spec(text: str) -> DesignSpec:
    return _build(parse_design_text(text), "spec")


def _write_sections(*sections: tuple[str, object]) -> str:
    """Design-file text of (name, obj) sections, a blank line between them:
    each key of section [name] with the value of its field of obj."""
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {_NUM(getattr(obj, _FIELDS.get(key, key)))}\n"
                                for key in _SECTION_KEYS[name])
        for name, obj in sections)


def write_resonator(p: MbvdParams, section: str = "series") -> str:
    if section not in ("series", "shunt"):
        raise DomainError("resonator section must be 'series' or 'shunt'")
    return _write_sections((section, p))


def write_ladder_design(design: LadderDesign) -> str:
    """Serialize the canonical shunt-series-shunt ladder."""
    kinds = tuple(kind for kind, _ in design.elements)
    if kinds != (ElementKind.SHUNT, ElementKind.SERIES, ElementKind.SHUNT):
        raise DomainError("only shunt-series-shunt ladders have a file representation")
    return _write_sections(("filter", design), ("series", design.elements[1][1]),
                           ("shunt", design.elements[0][1]))


def write_design_spec(spec: DesignSpec) -> str:
    return _write_sections(("spec", spec))


# ---------------------------------------------------------------------------
# CSV

def write_csv(rows: Iterable[Sequence[str | float]]) -> str:
    """CSV text of rows of strings and numbers; each number is written as
    _NUM writes it, NaN as nan."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [v if isinstance(v, str) else _NUM(v) for v in row] for row in rows)
    return buf.getvalue()


def write_metrics_csv(metrics: FilterMetrics) -> str:
    return write_csv([("metric", "value"), *metrics.as_rows()])
