"""Design files: write-then-read identity over the full range of valid values,
and the readers on arbitrary text."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from acoufilt import DesignSpec, MbvdParams, shunt_series_shunt
from acoufilt.errors import DomainError, FormatError
from acoufilt.io_formats import (
    parse_design_text,
    read_design_spec,
    read_ladder_design,
    read_resonators,
    write_design_spec,
    write_ladder_design,
)
from acoufilt.mbvd import K2_MAX

NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

resonators = st.builds(MbvdParams, rm=NONNEGATIVE, lm=POSITIVE, cm=POSITIVE, c0=POSITIVE,
                       rs=NONNEGATIVE, ls=NONNEGATIVE, r0=NONNEGATIVE)

specs = st.builds(
    DesignSpec, fc_target=POSITIVE, fbw_target=POSITIVE, z0=POSITIVE, oob_min_db=POSITIVE,
    k2=st.floats(0.0, K2_MAX, exclude_min=True, exclude_max=True),
    q=st.one_of(POSITIVE, st.just(math.inf)), rs=NONNEGATIVE, ls=NONNEGATIVE,
    il_max_db=POSITIVE)


@given(resonators, resonators, POSITIVE)
def test_ladder_design_write_then_read_is_identity(shunt, series, z0):
    design = shunt_series_shunt(shunt, series, z0=z0)
    assert read_ladder_design(write_ladder_design(design)) == design


@given(specs)
def test_design_spec_write_then_read_is_identity(spec):
    assert read_design_spec(write_design_spec(spec)) == spec


# Every line of a valid file: a ladder design and a spec; a spec alone.
_SPEC_LINES = write_design_spec(DesignSpec(23.5e9, 0.16, k2=0.46, q=50.0)).splitlines()
_VALID_LINES = (
    write_ladder_design(shunt_series_shunt(
        MbvdParams(rm=7.7, lm=2.45e-9, cm=2.58e-14, c0=5e-14, rs=0.5, ls=1e-11),
        MbvdParams(rm=5.1, lm=2.1e-9, cm=2.2e-14, c0=2.5e-14, rs=0.5, ls=1e-11)))
).splitlines() + _SPEC_LINES

_ODD_VALUES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "", "abc", "1 2", "1_0", "0x10",
                     "1 = 2", "[spec]"]),
)


@st.composite
def design_texts(draw, valid_lines=tuple(_VALID_LINES)):
    """A valid design file, given by its lines, with a few lines dropped,
    repeated, mangled or given odd values."""
    lines = list(valid_lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "repeat", "value", "value", "mangle"]))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        elif action == "value" and "=" in lines[i]:
            lines[i] = lines[i].split("=")[0] + "= " + draw(_ODD_VALUES)
        elif action == "mangle":
            lines[i] = draw(st.text(alphabet="[]=#.eE+-0123456789 \tabcsz_", max_size=12))
    return "\n".join(lines)


@settings(max_examples=100)
@given(st.one_of(st.text(), design_texts()))
def test_design_readers_raise_only_format_or_domain_errors(text):
    for read in (parse_design_text, read_ladder_design, read_resonators, read_design_spec):
        try:
            read(text)
        except (FormatError, DomainError):
            pass


@given(st.one_of(st.text(), design_texts(_SPEC_LINES)))
def test_spec_reader_gives_a_spec_or_a_named_error(text):
    # Whatever spec it reads writes and reads back to itself.
    try:
        spec = read_design_spec(text)
    except (FormatError, DomainError):
        return
    assert read_design_spec(write_design_spec(spec)) == spec
