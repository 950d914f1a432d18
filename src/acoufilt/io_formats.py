"""Serialization: Touchstone v1, key-value design files, and CSV reports.

Readers reject malformed input instead of repairing it, and every error
carries the offending line number.  Writers emit 17 significant digits so
write-then-read is an identity to better than 1e-12 relative.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

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
        if not self.reference_resistance > 0:
            raise DomainError("reference resistance must be positive")

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
        return ComplexCurve(self.freq_hz, self.s[:, 0, 0], label="S11")

    def to_block(self) -> SParameterBlock:
        if self.n_ports != 2:
            raise DomainError("to_block requires two-port data")
        return SParameterBlock(self.freq_hz, self.s,
                               z0=self.header.reference_resistance)


def _parse_option_line(tokens: list[str], lineno: int) -> TouchstoneHeader:
    unit, param, fmt, r = "GHz", "S", "MA", 50.0
    i = 0
    while i < len(tokens):
        t = tokens[i]
        tl = t.lower()
        if tl in _FREQ_UNITS:
            unit = t
        elif t.upper() == "S":
            param = "S"
        elif t.upper() in ("Y", "Z", "H", "G"):
            raise FormatError(f"unsupported parameter type {t!r}", lineno)
        elif t.upper() in _FORMATS:
            fmt = t.upper()
        elif t.upper() == "R":
            if i + 1 >= len(tokens):
                raise FormatError("R option missing its resistance value", lineno)
            try:
                r = float(tokens[i + 1])
            except ValueError:
                raise FormatError(f"bad reference resistance {tokens[i + 1]!r}", lineno)
            i += 1
        else:
            raise FormatError(f"unknown option token {t!r}", lineno)
        i += 1
    try:
        return TouchstoneHeader(unit, param, fmt, r)
    except DomainError as exc:
        raise FormatError(str(exc), lineno)


def _pair_to_complex(a: float, b: float, fmt: str) -> complex:
    if fmt == "RI":
        return complex(a, b)
    if fmt == "MA":
        return a * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
    # DB: a is 20*log10(magnitude), b an angle in degrees
    mag = 10.0 ** (a / 20.0)
    return mag * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))


def _complex_to_pair(v: complex, fmt: str) -> tuple[float, float]:
    if fmt == "RI":
        return v.real, v.imag
    mag = abs(v)
    ang = math.degrees(math.atan2(v.imag, v.real))
    if fmt == "MA":
        return mag, ang
    with np.errstate(divide="ignore"):
        return 20.0 * float(np.log10(mag)) if mag > 0 else -math.inf, ang


def _numbers(fields: list[str], lineno: int) -> list[float]:
    try:
        return [float(tok) for tok in fields]
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
    nums = _numbers(fields, lineno)
    for tok, v in zip(fields, nums):
        if not math.isfinite(v):
            raise FormatError(f"non-finite number {tok!r}", lineno)
    f_hz = nums[0] * header.unit_scale
    if f_hz <= 0:
        raise FormatError("non-positive frequency", lineno)
    if previous and f_hz <= previous[-1]:
        raise FormatError("frequencies must be strictly increasing", lineno)
    return f_hz


def read_touchstone(text: str) -> TouchstoneData:
    """Parse Touchstone v1 text; port count inferred from the column count.

    One-port lines carry 3 columns, two-port lines 9 columns in the v1
    S11 S21 S12 S22 order.  Frequencies must be strictly increasing.  In a
    two-port file, the first row whose frequency is not above the previous
    one starts the noise-parameter block (Touchstone v1.1): its 5-column
    rows are checked and ignored.
    """
    header: TouchstoneHeader | None = None
    freqs: list[float] = []
    rows: list[list[complex]] = []
    n_ports: int | None = None
    noise_freqs: list[float] = []

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
            noise_freqs or _numbers(fields[:1], lineno)[0] * header.unit_scale <= freqs[-1]
        ):
            noise_freqs.append(_noise_row(fields, header, lineno, noise_freqs))
            continue
        if len(fields) == 3:
            ports = 1
        elif len(fields) == 9:
            ports = 2
        else:
            raise FormatError(
                f"expected 3 (1-port) or 9 (2-port) columns, got {len(fields)}", lineno
            )
        if n_ports is None:
            n_ports = ports
        elif ports != n_ports:
            raise FormatError("inconsistent column count", lineno)
        nums = _numbers(fields, lineno)
        for i, v in enumerate(nums):
            # The DB writer gives an exact zero magnitude as -inf dB.
            zero_db = header.format == "DB" and i % 2 == 1 and v == -math.inf
            if not (math.isfinite(v) or zero_db):
                raise FormatError(f"non-finite number {fields[i]!r}", lineno)
        f_hz = nums[0] * header.unit_scale
        if f_hz <= 0:
            raise FormatError("non-positive frequency", lineno)
        if freqs and f_hz <= freqs[-1]:
            raise FormatError("frequencies must be strictly increasing", lineno)
        freqs.append(f_hz)
        vals = [_pair_to_complex(nums[i], nums[i + 1], header.format)
                for i in range(1, len(nums), 2)]
        rows.append(vals)

    if header is None:
        header = TouchstoneHeader()
    if n_ports is None:
        n_ports = 1
    n = len(freqs)
    s = np.zeros((n, n_ports, n_ports), dtype=complex)
    for i, vals in enumerate(rows):
        if n_ports == 1:
            s[i, 0, 0] = vals[0]
        else:
            # v1 two-port order: S11 S21 S12 S22
            s[i, 0, 0], s[i, 1, 0], s[i, 0, 1], s[i, 1, 1] = vals
    return TouchstoneData(header, np.asarray(freqs, dtype=float), s)


def write_touchstone(data: SParameterBlock | ComplexCurve | TouchstoneData,
                     header: TouchstoneHeader | None = None) -> str:
    """Serialize one-port (.s1p) or two-port (.s2p) data; v1 column order."""
    if isinstance(data, TouchstoneData):
        freq, s = data.freq_hz, data.s
        one_port = data.n_ports == 1
        if header is None:
            header = data.header
    elif isinstance(data, ComplexCurve):
        freq = data.freq_hz
        s = data.values.reshape(-1, 1, 1)
        one_port = True
    else:
        freq, s, one_port = data.freq_hz, data.s, False
    if header is None:
        z0 = data.z0 if isinstance(data, SParameterBlock) else 50.0
        header = TouchstoneHeader("Hz", "S", "RI", z0)
    lines = [header.option_line()]
    scale = header.unit_scale
    for i, f in enumerate(freq):
        if one_port:
            vals = (s[i, 0, 0],)
        else:
            vals = (s[i, 0, 0], s[i, 1, 0], s[i, 0, 1], s[i, 1, 1])
        parts = [_NUM(f / scale)]
        for v in vals:
            a, b = _complex_to_pair(complex(v), header.format)
            parts.extend((_NUM(a), _NUM(b)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


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
    return MbvdParams(rm=sec["rm"], lm=sec["lm"], cm=sec["cm"], c0=sec["c0"],
                      rs=sec["rs"], ls=sec["ls"], r0=sec.get("r0", 0.0))


def read_resonators(text: str) -> dict[str, MbvdParams]:
    """All resonator sections of a design file, keyed by section name."""
    sections = parse_design_text(text)
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
    z0 = sections.get("filter", {}).get("z0", 50.0)
    return shunt_series_shunt(
        _resonator_from_section(sections["shunt"], "shunt"),
        _resonator_from_section(sections["series"], "series"),
        z0=z0,
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
    return DesignSpec(
        fc_target=sec["fc"],
        fbw_target=sec["fbw"],
        z0=sec.get("z0", 50.0),
        oob_min_db=sec.get("oob_min_db", 12.0),
        k2=sec["k2"],
        q=sec["q"],
        rs=sec.get("rs", 0.0),
        ls=sec.get("ls", 0.0),
        il_max_db=sec.get("il_max_db", 3.0),
    )


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
    pairs = (
        ("fc", spec.fc_target), ("fbw", spec.fbw_target), ("z0", spec.z0),
        ("oob_min_db", spec.oob_min_db), ("k2", spec.k2), ("q", spec.q),
        ("rs", spec.rs), ("ls", spec.ls), ("il_max_db", spec.il_max_db),
    )
    lines = ["[spec]"] + [f"{k} = {_NUM(v)}" for k, v in pairs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV

def write_curve_csv(curve: ComplexCurve) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["frequency_hz", "re", "im", "mag_db", "phase_deg"])
    mag_db = curve.magnitude_db
    phase = curve.phase_deg
    for i, f in enumerate(curve.freq_hz):
        v = curve.values[i]
        w.writerow([_NUM(f), _NUM(v.real), _NUM(v.imag), _NUM(mag_db[i]), _NUM(phase[i])])
    return buf.getvalue()


def write_metrics_csv(metrics: FilterMetrics) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["metric", "value"])
    for name, value in metrics.as_rows():
        w.writerow([name, _NUM(value)])
    return buf.getvalue()
