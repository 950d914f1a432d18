"""Serialization: Touchstone v1, key-value design files, and CSV reports.

Readers reject malformed input instead of repairing it, and every error
carries the offending line number.  Writers emit 17 significant digits so
write-then-read is an identity to better than 1e-12 relative.
"""

from __future__ import annotations

import array
import csv
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
# Rows per string-formatting call of _format_table; bounds the temporary
# tuple of Python floats.
_CHUNK_ROWS = 4096


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
        return (f"# {self.frequency_unit} {self.parameter} {self.format} "
                f"R {self.reference_resistance:g}")


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
    """The header an option line gives; an option it omits keeps the default."""
    options = {}
    it = iter(tokens)
    for t in it:
        u = t.upper()
        if t.lower() in _FREQ_UNITS:
            options["frequency_unit"] = t
        elif u == "S":
            options["parameter"] = u
        elif u in ("Y", "Z", "H", "G"):
            raise FormatError(f"unsupported parameter type {t!r}", lineno)
        elif u in _FORMATS:
            options["format"] = u
        elif u == "R":
            value = next(it, None)
            if value is None:
                raise FormatError("R option missing its resistance value", lineno)
            try:
                options["reference_resistance"] = float(value)
            except ValueError:
                raise FormatError(f"bad reference resistance {value!r}", lineno)
        else:
            raise FormatError(f"unknown option token {t!r}", lineno)
    try:
        return TouchstoneHeader(**options)
    except DomainError as exc:
        raise FormatError(str(exc), lineno)


def _number(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise FormatError(f"malformed number: {exc}", lineno)


def _noise_row(fields: list[str], header: TouchstoneHeader, lineno: int,
               previous: list[float]) -> float:
    """Check one noise-parameter row and return its frequency in hertz.

    A row is frequency, NFmin (dB), |Gamma_opt|, angle of Gamma_opt and the
    normalized noise resistance: five finite numbers.
    """
    if len(fields) != 5:
        raise FormatError(
            f"expected 5 columns in the noise parameter block, got {len(fields)}", lineno
        )
    nums = [_number(tok, lineno) for tok in fields]
    for tok, v in zip(fields, nums):
        if not math.isfinite(v):
            raise FormatError(f"non-finite number {tok!r}", lineno)
    f_hz = nums[0] * header.unit_scale
    if not math.isfinite(f_hz):
        raise FormatError("frequency overflows when scaled to hertz", lineno)
    if f_hz <= 0:
        raise FormatError("non-positive frequency", lineno)
    if previous and f_hz <= previous[-1]:
        raise FormatError("frequencies must be strictly increasing", lineno)
    return f_hz


# Messages of the row checks after the first, in the order they are tried.
_ROW_CHECKS = ("frequency overflows when scaled to hertz", "non-positive frequency",
               "frequencies must be strictly increasing", "DB magnitude overflows")


def _columns(header: TouchstoneHeader, table: np.ndarray, linenos: list[int] | None = None,
             lines: list[str] | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """Frequencies in hertz and S matrices of the data rows, checked by column.

    A row fails if a number is not finite (-inf dB excepted), its frequency
    overflows in hertz, is not positive or does not exceed the previous
    row's, or a DB magnitude overflows.  The first failing row is reported
    with its line number and the first check it fails, in that order;
    without line numbers a failing row gives None.
    """
    n, width = table.shape
    a, b = table[:, 1::2], table[:, 2::2]
    raw_bad = ~np.isfinite(table)
    if header.format == "DB":
        # The DB writer gives an exact zero magnitude as -inf dB.
        raw_bad[:, 1::2] &= a != -np.inf
    with np.errstate(over="ignore"):
        f = table[:, 0] * header.unit_scale
        mag = 10.0 ** (a / 20.0) if header.format == "DB" else a
    not_increasing = np.zeros(n, dtype=bool)
    not_increasing[1:] = f[1:] <= f[:-1]
    bad = np.column_stack((raw_bad.any(axis=1), ~np.isfinite(f), f <= 0, not_increasing,
                           ~np.isfinite(mag).all(axis=1)))
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        if linenos is None:
            return None
        row = rows[0]
        check = int(np.argmax(bad[row]))
        lineno = linenos[row]
        if check == 0:
            fields = lines[lineno - 1].split("!", 1)[0].split()
            raise FormatError(f"non-finite number {fields[np.argmax(raw_bad[row])]!r}", lineno)
        raise FormatError(_ROW_CHECKS[check - 1], lineno)
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
    reads, such as 1_0) is read by the line walk, which names the first
    offending line.
    """
    lines = text.splitlines()
    return _read_table(lines) or _read_lines(lines)


def _read_table(lines: list[str]) -> TouchstoneData | None:
    """The data of a file without noise block or error, or None.

    None hands the file to the line walk; loadtxt's C parser reads a subset
    of what float() reads, to the same bits.
    """
    for start, raw in enumerate(lines):
        fields = raw.split("!", 1)[0].split()
        if fields:
            break
    else:
        return None
    header = TouchstoneHeader()
    if fields[0].startswith("#"):
        header = _parse_option_line(" ".join(fields)[1:].split(), start + 1)
        start += 1
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


def _read_lines(lines: list[str]) -> TouchstoneData:
    """The line walk: one pass over the lines checks their layout and
    collects the numbers, which are then checked and converted by column;
    an error names the first offending line either way."""
    header: TouchstoneHeader | None = None
    scale = 1.0
    width = 0  # columns of an S-data row: 3 (one-port) or 9 (two-port)
    nums = array.array("d")
    linenos: list[int] = []
    noise_freqs: list[float] = []
    try:
        for lineno, raw in enumerate(lines, start=1):
            fields = raw.split("!", 1)[0].split()
            if not fields:
                continue
            if fields[0].startswith("#"):
                if header is not None:
                    raise FormatError("duplicate option line", lineno)
                header = _parse_option_line(" ".join(fields)[1:].split(), lineno)
                scale = header.unit_scale
                continue
            if header is None:
                header = TouchstoneHeader()
                scale = header.unit_scale
            first = None  # the first field of a two-port row, converted once
            if width == 9 and (
                noise_freqs or (first := _number(fields[0], lineno)) * scale <= nums[-9] * scale
            ):
                noise_freqs.append(_noise_row(fields, header, lineno, noise_freqs))
                continue
            if len(fields) != width:
                if len(fields) not in (3, 9):
                    raise FormatError(
                        f"expected 3 (1-port) or 9 (2-port) columns, got {len(fields)}", lineno
                    )
                if width:
                    raise FormatError("inconsistent column count", lineno)
                width = len(fields)
            try:
                nums.fromlist([first, *map(float, fields[1:])] if first is not None
                              else list(map(float, fields)))
            except ValueError as exc:
                raise FormatError(f"malformed number: {exc}", lineno)
            linenos.append(lineno)
    except FormatError:
        # A row before the failing line may hold a value error found only
        # by the column checks; the earlier line is the one to report.
        if linenos:
            _columns(header, np.frombuffer(nums).reshape(-1, width), linenos, lines)
        raise

    if header is None:
        header = TouchstoneHeader()
    freq, s = _columns(header, np.frombuffer(nums).reshape(-1, width or 3), linenos, lines)
    return TouchstoneData(header, freq, s)


def _format_table(table: np.ndarray) -> str:
    """One line per row of a float table, each number formatted as _NUM does."""
    row = " ".join(["%.16e"] * table.shape[1]) + "\n"
    return "".join((row * len(chunk)) % tuple(chunk.ravel().tolist())
                   for chunk in np.split(table, range(_CHUNK_ROWS, len(table), _CHUNK_ROWS)))


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
_RESONATOR_REQUIRED = ("rm", "lm", "cm", "c0", "rs", "ls")
_SECTION_KEYS = {
    "series": _RESONATOR_KEYS,
    "shunt": _RESONATOR_KEYS,
    "filter": ("z0",),
    "spec": ("fc", "fbw", "z0", "oob_min_db", "k2", "q", "rs", "ls", "il_max_db"),
}
# The [spec] keys that are not the name of their DesignSpec field; every
# other key of a section is its field's name.
_SPEC_FIELDS = {"fc": "fc_target", "fbw": "fbw_target"}


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


def _resonator_from_section(sec: dict[str, float], name: str) -> MbvdParams:
    missing = [k for k in _RESONATOR_REQUIRED if k not in sec]
    if missing:
        raise FormatError(f"section [{name}] missing keys: {', '.join(missing)}")
    return MbvdParams(**sec)


def read_resonators(text: str) -> dict[str, MbvdParams]:
    """All resonator sections of a design file, keyed by section name."""
    return _resonators(parse_design_text(text))


def _resonators(sections: dict[str, dict[str, float]]) -> dict[str, MbvdParams]:
    out = {}
    for name in ("series", "shunt"):
        if name in sections:
            out[name] = _resonator_from_section(sections[name], name)
    if not out:
        raise FormatError("no [series] or [shunt] section found")
    return out


def read_ladder_design(text: str) -> LadderDesign:
    """A shunt-series-shunt ladder from a file with both resonator sections."""
    sections = parse_design_text(text)
    for name in ("series", "shunt"):
        if name not in sections:
            raise FormatError(f"missing [{name}] section for a ladder design")
    return shunt_series_shunt(
        _resonator_from_section(sections["shunt"], "shunt"),
        _resonator_from_section(sections["series"], "series"),
        **sections.get("filter", {}),
    )


def read_design_spec(text: str) -> DesignSpec:
    sections = parse_design_text(text)
    if "spec" not in sections:
        raise FormatError("missing [spec] section")
    sec = sections["spec"]
    required = ("fc", "fbw", "k2", "q")
    missing = [k for k in required if k not in sec]
    if missing:
        raise FormatError(f"section [spec] missing keys: {', '.join(missing)}")
    return DesignSpec(**{_SPEC_FIELDS.get(k, k): v for k, v in sec.items()})


def _resonator_lines(name: str, p: MbvdParams) -> list[str]:
    lines = [f"[{name}]"]
    for key in _RESONATOR_KEYS:
        lines.append(f"{key} = {_NUM(getattr(p, key))}")
    return lines


def write_resonator(p: MbvdParams, section: str = "series") -> str:
    if section not in ("series", "shunt"):
        raise DomainError("resonator section must be 'series' or 'shunt'")
    return "\n".join(_resonator_lines(section, p)) + "\n"


def write_ladder_design(design: LadderDesign) -> str:
    """Serialize the canonical shunt-series-shunt ladder."""
    kinds = tuple(kind for kind, _ in design.elements)
    if kinds != (ElementKind.SHUNT, ElementKind.SERIES, ElementKind.SHUNT):
        raise DomainError("only shunt-series-shunt ladders have a file representation")
    shunt = design.elements[0][1]
    series = design.elements[1][1]
    lines = ["[filter]", f"z0 = {_NUM(design.z0)}", ""]
    lines += _resonator_lines("series", series)
    lines.append("")
    lines += _resonator_lines("shunt", shunt)
    return "\n".join(lines) + "\n"


def write_design_spec(spec: DesignSpec) -> str:
    lines = ["[spec]"] + [f"{k} = {_NUM(getattr(spec, _SPEC_FIELDS.get(k, k)))}"
                          for k in _SECTION_KEYS["spec"]]
    return "\n".join(lines) + "\n"


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
