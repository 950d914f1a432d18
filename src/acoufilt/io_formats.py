"""Serialization: Touchstone v1, key-value design files, and CSV reports.

Readers reject malformed input instead of repairing it; an error names the
offending line, or the missing section or key.  read_touchstone reads the
option line once for both data paths.  One key table (_SECTION_KEYS,
_REQUIRED) serves the design-file readers, which build from parsed sections
(_build), and the writers (_write_sections).

Writers emit every number as "%.16e" (_NUM), 17 significant digits, so
write-then-read gives back the same float; the option line's R reads back
as the same float too.  A Touchstone table is formatted 4032 numbers (448 two-port
rows) at a time by a numpy kernel (_format_chunk): it scales each |x| by 10**(16 - k),
k an estimate of floor(log10|x|), as a double-double product (Dekker's
two-product, with 10**j as a pair of floats from exact integer
arithmetic), rounds it to the 17-digit integer and writes its digits as
bytes.  A row with a number the kernel cannot prove it rounds as "%.16e"
does (non-finite, outside [1e-280, 1e280], near a rounding tie, or with k
one off) is formatted by "%.16e" itself, so the text is the same, byte
for byte.

read_touchstone has two readers.  A file in the writer's own grammar is
read back by the mirror kernel (_read_chunk), about 192 kB of text at a
time: it reads each number's 17 digits as machine words, forms the
mantissa exactly, and multiplies it by 10**(E - 16) from the same table of
powers as a double-double product.  A number it cannot prove rounds as
float() does (exponent or value outside the table's range, or near a
rounding tie) is read by float() itself, so the bits are float()'s.  Every
other file goes to the line walk (_read_lines).
"""

from __future__ import annotations

import csv
import functools
import io
import math
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
# Numbers per pass of _format_table, in whole rows; bounds its temporary
# arrays.  A pass's 32-byte-a-number buffer stays under glibc's 128 kB mmap
# threshold, so freeing it gives its pages back.
_CHUNK_NUMBERS = 4032
# Characters per pass of the table reader, about; bounds its temporary arrays.
_READ_CHUNK = 3 * 2**16
# The table kernels format and read |x| in [1e-_EXP_MAX, 1e_EXP_MAX] and
# zeros; every other number goes to _NUM's formatting or to float().
_EXP_MAX = 280
# The power of ten of the first entry of _powers_of_ten(): the reader
# scales a 17-digit mantissa by 10**(E - 16), E down to -_EXP_MAX.
_TEN_LOW = -_EXP_MAX - 16
# Veltkamp's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0
# A scaled value this close to a rounding tie is not rounded by the kernel:
# its error is below 1e-13, and the tie needs the exact rule.
_TIE_MARGIN = 1e-6
# Bytes after a reader pass's text: every gather of _read_chunk stays in it.
_PAD = "\0" * 24


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
              previous_hz: float | None, s_data: bool,
              nums: list[float] | None = None) -> tuple[float, list[float]]:
    """The frequency in hertz and the numbers of one data row, checked;
    nums are the fields as numbers, when the caller has converted them.

    A row fails if a number is not finite, its frequency overflows in
    hertz, is not positive or does not exceed previous_hz, or (S data in DB
    format) a magnitude overflows; the first check it fails names it.  An
    S-data magnitude of -inf dB is an exact zero, as the DB writer gives it.
    """
    if nums is None:
        try:
            nums = list(map(float, fields))
        except ValueError as exc:
            raise FormatError(f"malformed number: {exc}", lineno)
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
    row fails a check of _data_row (checked here by column).  Both readers
    convert here; the line walk's rows are checked already."""
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

    Two readers: a file in the writer's own grammar is read by the table
    kernel (_read_written), and every other file by the line walk, which
    checks each row as it reads it and so names the first offending line.
    """
    data = _read_written(text)
    if data is not None:
        return data
    lines = text.splitlines()
    # The first non-blank line is the option line, or a data line of a file
    # without one; lines[start:] are the lines after the option line.
    start = next((i for i, raw in enumerate(lines) if raw.split("!", 1)[0].split()), len(lines))
    header = TouchstoneHeader()
    option = lines[start].split("!", 1)[0].strip() if start < len(lines) else ""
    if option.startswith("#"):
        header = _parse_option_line(option[1:].split(), start + 1)
        start += 1
    return _read_lines(header, lines, start)


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
        nums = head = None
        if width == 9 and noise_hz is None:
            # A two-port row is converted once.  Its first field tells
            # whether it starts the noise block, so a malformed one is named
            # here; a malformed later one is named by _data_row, after the
            # column counts are checked.
            try:
                nums = list(map(float, fields))
            except ValueError:
                pass
            head = nums[0] if nums is not None else _number(fields[0], lineno)
        if noise_hz is not None or (head is not None and head * scale <= last_hz):
            # A noise row: frequency, NFmin (dB), |Gamma_opt|, angle of
            # Gamma_opt and the normalized noise resistance.
            if len(fields) != 5:
                raise FormatError(
                    f"expected 5 columns in the noise parameter block, got {len(fields)}", lineno
                )
            noise_hz = _data_row(fields, header, lineno, noise_hz, s_data=False, nums=nums)[0]
            continue
        if len(fields) != width:
            if len(fields) not in (3, 9):
                raise FormatError(
                    f"expected 3 (1-port) or 9 (2-port) columns, got {len(fields)}", lineno
                )
            if width:
                raise FormatError("inconsistent column count", lineno)
            width = len(fields)
        last_hz, nums = _data_row(fields, header, lineno, last_hz, s_data=True, nums=nums)
        rows.append(nums)
    cols = _columns(header, np.array(rows).reshape(-1, width or 3))
    if cols is None:
        raise AssertionError("_columns refused rows that _data_row accepted")
    return TouchstoneData(header, *cols)


def _read_written(text: str) -> TouchstoneData | None:
    """The data of a file in the writer's own grammar, or None.

    The grammar is an option line of printable ASCII starting with "#",
    then rows of 3 or 9 numbers as _written_table reads them.  The table
    goes through _columns, so a file that fails a check is None too: the
    line walk, the other of the two readers, names its line.
    """
    start = text.find("\n") + 1
    head = text[:start - 1]
    if not (0 < start < len(text) and head.startswith("#") and head.isascii()
            and head.isprintable() and text.endswith("\n")):
        return None
    header = _parse_option_line(head.split("!", 1)[0][1:].split(), 1)
    table = _written_table(text, start)
    if table is None or table.shape[1] not in (3, 9):
        return None
    cols = _columns(header, table)
    return None if cols is None else TouchstoneData(header, *cols)


def _written_table(text: str, start: int) -> np.ndarray | None:
    """The numbers of text[start:] as float() reads them, one table row a
    line, or None unless it is one or more rows of equal width in the
    writer's grammar.

    The text is read by _read_chunk in pieces of about _READ_CHUNK
    characters, each cut after a newline.
    """
    # A number and its separator take at least 23 characters.
    values = np.empty((len(text) - start) // 23)
    size = width = 0
    while start < len(text):
        stop = text.rfind("\n", start, start + _READ_CHUNK) + 1
        if stop <= start:
            return None
        try:
            read = _read_chunk(("\n" + text[start:stop] + _PAD).encode("ascii"))
        except UnicodeEncodeError:
            return None
        if read is None or width not in (0, read[1]):
            return None
        chunk_values, width = read
        values[size:size + chunk_values.size] = chunk_values
        size += chunk_values.size
        start = stop
    return values[:size].reshape(-1, width) if width else None


def _read_chunk(chunk: bytes) -> tuple[np.ndarray, int] | None:
    """The numbers of chunk's rows as float() reads them and the row width;
    None if the rows are not in the writer's grammar, -?D.D{16}e[+-]DD[D]
    with one space between numbers and a newline after each row, or differ
    in width.

    chunk is a newline, whole rows, and _PAD.  Each number is found from
    its point.  Its 16 fraction digits are read as two 8-byte words
    (Lemire's SWAR conversion), its mantissa is the exact double-double
    9 digits * 1e8 + 8 digits, and that times 10**(E - 16) as a
    double-double product rounds to the float.  A number is read again by
    float() if that is not proven: its exponent is outside
    [-_EXP_MAX, _EXP_MAX], its value is neither zero nor in
    [1e-_EXP_MAX, 1e_EXP_MAX], or the product lies within _TIE_MARGIN
    gaps of a rounding tie, the gap being the one between floats on the
    side of the rounded value that the product lies.
    """
    buf = np.frombuffer(chunk, np.uint8)
    dots = np.flatnonzero(buf == ord("."))
    if dots.size == 0:
        return None
    minus = buf[dots - 2] == ord("-")
    starts = dots - 1 - minus
    lead, e1, e2, e3 = (buf[dots + i] - np.uint8(ord("0")) for i in (-1, 19, 20, 21))
    long_exp = e3 < 10
    ends = dots + 21 + long_exp
    seps = buf[ends]
    newline = seps == ord("\n")
    rows = np.flatnonzero(newline)
    width = int(rows[0]) + 1 if rows.size else 0
    words = np.ndarray((buf.size - 7,), "<u8", chunk, 0, (1,))
    high, low = words[dots + 1], words[dots + 9]
    exp_sign = buf[dots + 18]
    # The numbers and their single separators tile the rows exactly.
    if not (width and dots.size == width * rows.size
            and starts[0] == 1 and ends[-1] == len(chunk) - len(_PAD) - 1
            and (starts[1:] == ends[:-1] + 1).all()
            and (rows == np.arange(width - 1, dots.size, width)).all()
            and (newline | (seps == ord(" "))).all()
            and (lead < 10).all() and (e1 < 10).all() and (e2 < 10).all()
            and (buf[dots + 17] == ord("e")).all()
            and ((exp_sign == ord("+")) | (exp_sign == ord("-"))).all()
            and _eight_digits_valid(high).all() and _eight_digits_valid(low).all()):
        return None
    e = 10 * e1.astype(np.intp) + e2
    e += long_exp * (9 * e + e3)  # 10 * e + e3 where there is a third digit
    e *= 1 - 2 * (exp_sign == ord("-"))
    proven = np.abs(e) <= _EXP_MAX
    hi, hi_high, hi_low, lo = _powers_of_ten()
    # The index of 10**(E - 16); an unproven number's power is not used.
    j = np.clip(e, -_EXP_MAX, _EXP_MAX) + _EXP_MAX
    # The mantissa m + m_lo, exactly: 9 digits * 1e8 is exact (below 2**57
    # with 8 factors of 2), and Fast2Sum gives the rest of the sum.
    a = (lead * 1e8 + _eight_digits(high)) * 1e8
    b = _eight_digits(low).astype(np.float64)
    m = a + b
    m_lo = (a - m) + b
    # (m + m_lo) * (hi + lo) as p + err: Dekker's two-product of m and hi,
    # plus m * lo and m_lo * hi.
    p_hi = hi[j]
    p = m * p_hi
    c = _SPLIT * m
    m_high = c - (c - m)
    m_low = m - m_high
    h_high, h_low = hi_high[j], hi_low[j]
    err = (((m_high * h_high - p) + m_high * h_low) + m_low * h_high) + m_low * h_low
    err += m * lo[j] + m_lo * p_hi
    x = p + err
    # The rest of p + err above x (p - x is exact), and the gap from x to
    # the next float on the side the rest lies (x >= 0, so that float's
    # bits are x's plus or minus 1); below a power of two the gap is half.
    rest = (p - x) + err
    step = (rest >= 0).astype(np.uint64) * 2 - 1
    gap = np.abs((x.view(np.uint64) + step).view(np.float64) - x)
    proven &= (m == 0) | ((x >= 10.0 ** -_EXP_MAX) & (x <= 10.0 ** _EXP_MAX))
    proven &= np.abs(np.abs(rest) - 0.5 * gap) >= _TIE_MARGIN * gap
    np.negative(x, out=x, where=minus)
    for i in np.flatnonzero(~proven):
        x[i] = float(chunk[starts[i]:ends[i]])
    return x, width


def _eight_digits_valid(words: np.ndarray) -> np.ndarray:
    """Whether each little-endian word's 8 bytes are ASCII digits."""
    return ((words & 0xF0F0F0F0F0F0F0F0)
            | (((words + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4)) == 0x3333333333333333


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of each word's 8 ASCII digits, its first byte the leading digit."""
    words = ((words & 0x0F0F0F0F0F0F0F0F) * 2561) >> 8
    words = ((words & 0x00FF00FF00FF00FF) * 6553601) >> 16
    return ((words & 0x0000FFFF0000FFFF) * 42949672960001) >> 32


def _ascii(text: str, dtype: type) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype)


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**j for j in [_TEN_LOW, _EXP_MAX + 17], built on the first use.

    The reader takes 10**(E - 16), E in [-_EXP_MAX, _EXP_MAX]; the writer
    10**(16 - k), k in [-_EXP_MAX - 1, _EXP_MAX] (an estimate of
    floor(log10|x|) may be one low).  Each is hi + lo: hi the nearest float
    and lo the nearest float to the rest, from exact integer arithmetic;
    with hi's Veltkamp halves.
    """
    his, los = [], []
    for j in range(_TEN_LOW, _EXP_MAX + 18):
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
    return hi, hi_high, hi - hi_high, lo


@functools.cache
def _digit_words() -> tuple[np.ndarray, ...]:
    """The writer's text, as machine words, of a sign and leading digit
    with the point, of each 4-digit group, and of each exponent with a
    space after it, built on the first write.  A zero byte is a byte the
    kernel leaves out.
    """
    heads = _ascii("".join(f"{sign}{d}.\0" for sign in "\0-" for d in range(10)), np.uint32)
    groups = _ascii("".join(f"{g:04d}" for g in range(10000)), np.uint32)
    exponents = _ascii("".join(
        "e" + "+-"[k < 0] + (f"{abs(k):03d}" if abs(k) >= 100 else f"\0{abs(k):02d}") + " \0\0"
        for k in range(-_EXP_MAX - 1, _EXP_MAX + 1)), np.uint64)
    return heads, groups, exponents


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
    hi, hi_high, hi_low, lo = _powers_of_ten()
    heads, groups, exponents = _digit_words()
    # a * 10**(16 - k) as the double-double p + e: Dekker's two-product of
    # a and hi, plus a * lo.
    j = 16 - k - _TEN_LOW  # the index of 10**(16 - k)
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


def _format_table(table: np.ndarray, head: str = "") -> str:
    """head, then one line per row of a float table, each number formatted
    as _NUM does.

    A row is _format_chunk's text where that is proven, else formatted
    by %.16e.
    """
    row = " ".join(["%.16e"] * table.shape[1]) + "\n"
    step = _CHUNK_NUMBERS // table.shape[1]
    pieces = [head]
    for chunk in np.split(table, range(step, len(table), step)):
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
    return _format_table(table, header.option_line() + "\n")


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
