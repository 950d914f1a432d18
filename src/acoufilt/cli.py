"""Command-line front end: simulate, fit, synthesize, metrics, sweep.

sweep scores each swept value from S21 alone (network._ladder_s21), and a
value that leaves no valid design or no finite S21 is an error naming the
parameter and the value.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
import tempfile

from . import fitting, io_formats, svgplot
from .curves import _parse_range_spec, parse_grid_spec
from .errors import AcoufiltError
from .metrics import DEFAULT_GUARD, METRIC_NAMES, _check_guard, passband_metrics
from .network import (
    LadderDesign,
    _ladder_s21,
    admittance_from_s11,
    build_ladder_response,
    one_port_s11,
)
# Unused here since sweep builds designs through io_formats; perfbench/spans.py
# still traces the canonical ladder constructor under this name.
from .network import shunt_series_shunt  # noqa: F401
from .synthesis import synthesize_ladder


def _atomic_write(path: str, text: str) -> None:
    """Write via temp file + rename so interrupted runs never corrupt files.

    As with an ordinary write, a symlinked ``path`` stays a link and the
    file it resolves to gets the text.  The temp file is created private
    (0600) beside that file; before the rename it gets the permission bits
    of the file it replaces, or, for a new file, 0666 less the umask.  A
    ``path`` that exists and is not a regular file, a FIFO or a device, is
    written through with open(), as ``cat > path`` would: a rename would
    replace it, and a FIFO blocks until a reader opens it.  An OSError is
    raised again naming ``path``, not the temp file.
    """
    real = os.path.realpath(path)
    tmp = None
    try:
        try:
            mode = os.stat(real).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | (0o666 & ~umask)
        if not stat.S_ISREG(mode):
            with open(real, "w") as fh:
                fh.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".acoufilt-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode & 0o777)
        os.replace(tmp, real)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write_outputs(outputs: list[tuple[str, str]], inputs: list[str]) -> None:
    """Write each (path, text); none when a path names one of the command's
    inputs or two paths name one file, since the write would silently
    replace the input or the first output.  realpath resolves ``./`` and
    symlinks."""
    sources = {os.path.realpath(path): path for path in inputs}
    seen: dict[str, str] = {}
    for path, _ in outputs:
        real = os.path.realpath(path)
        if real in sources:
            raise AcoufiltError(f"output {path!r} names the input {sources[real]!r}")
        if real in seen:
            raise AcoufiltError(f"outputs {seen[real]!r} and {path!r} name the same file")
        seen[real] = path
    for path, text in outputs:
        _atomic_write(path, text)


def _read(path: str) -> str:
    """The text of path as UTF-8, less a leading byte-order mark.  A byte
    that does not decode is an AcoufiltError naming its offset in the file,
    which "utf-8-sig" would count from after the mark."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise AcoufiltError(f"cannot read {path!r} as UTF-8: byte "
                                f"{exc.object[exc.start]:#04x} at offset {exc.start}") from exc


def _cmd_simulate(args) -> int:
    one_port = args.out.lower().endswith(".s1p")
    if one_port and args.metrics:
        raise AcoufiltError("--metrics applies to two-port simulation only")
    grid = parse_grid_spec(args.grid)
    text = _read(args.design)
    outputs: list[tuple[str, str]] = []
    if one_port:
        sections = io_formats.parse_design_text(text)
        resonators = io_formats._resonators(sections)
        if len(resonators) != 1:
            raise AcoufiltError(
                "one-port output requires a design file with exactly one resonator section"
            )
        ((_, params),) = resonators.items()
        z0 = sections.get("filter", {}).get("z0", LadderDesign.z0)
        s11 = one_port_s11(params, grid, z0=z0)
        header = io_formats.TouchstoneHeader("Hz", "S", "RI", z0)
        outputs.append((args.out, io_formats.write_touchstone(s11, header)))
    else:
        design = io_formats.read_ladder_design(text)
        block = build_ladder_response(design, grid)
        outputs.append((args.out, io_formats.write_touchstone(block)))
        if args.metrics:
            m = passband_metrics(block.s21(), guard=args.guard)
            outputs.append((args.metrics, io_formats.write_metrics_csv(m)))
    _write_outputs(outputs, [args.design])
    return 0


def _cmd_fit(args) -> int:
    data = io_formats.read_touchstone(_read(args.input))
    s11 = data.to_curve()
    z0 = data.header.reference_resistance
    curve = admittance_from_s11(s11, z0=z0)
    init = fitting.initial_guess(curve)
    opts = fitting.FitOptions(max_iterations=args.max_iterations,
                              weight_mode=args.weight)
    result = fitting.fit_mbvd(curve, init, opts)
    outputs = [(args.out, io_formats.write_resonator(result.params, args.section))]
    if args.report:
        outputs.append((args.report, _fit_report_csv(result)))
    _write_outputs(outputs, [args.input])
    print(f"fit: converged={result.converged} iterations={result.iterations} "
          f"residual_norm={result.residual_norm:.6e}")
    return 0


def _fit_report_csv(result: fitting.FitResult) -> str:
    p, s = result.params, result.summary
    return io_formats.write_csv([
        ("quantity", "value"),
        *((key, getattr(p, key)) for key in io_formats._RESONATOR_KEYS),
        ("fs_hz", s.fs), ("fp_hz", s.fp), ("f_perceived_hz", s.f_perceived),
        ("k2", s.k2), ("q_antires", s.q_antires),
        ("residual_norm", result.residual_norm),
        ("iterations", str(result.iterations)),
        ("converged", str(result.converged).lower()),
    ])


def _cmd_synthesize(args) -> int:
    spec = io_formats.read_design_spec(_read(args.spec))
    grid = parse_grid_spec(args.grid)
    result = synthesize_ladder(spec, guard=args.guard)
    block = build_ladder_response(result.design, grid)
    outputs = [(args.out, io_formats.write_ladder_design(result.design))]
    if args.touchstone:
        outputs.append((args.touchstone, io_formats.write_touchstone(block)))
    if args.metrics:
        m = passband_metrics(block.s21(), guard=args.guard)
        outputs.append((args.metrics, io_formats.write_metrics_csv(m)))
    _write_outputs(outputs, [args.spec])
    m = result.metrics
    flag = "feasible" if result.feasible else "INFEASIBLE"
    if m is None:
        print(f"synthesize: {flag} (best effort has no scoreable passband) "
              f"evaluations={result.evaluations}")
    else:
        print(f"synthesize: {flag} il={m.il_db:.3f}dB fc={m.fc / 1e9:.4f}GHz "
              f"fbw={100 * m.fbw3:.2f}% oob={m.oob_rejection_db:.2f}dB "
              f"evaluations={result.evaluations}")
    return 0


def _cmd_metrics(args) -> int:
    data = io_formats.read_touchstone(_read(args.input))
    block = data.to_block()
    s21 = block.s21()
    m = passband_metrics(s21, guard=args.guard)
    text = io_formats.write_metrics_csv(m)
    outputs = []
    if args.out:
        outputs.append((args.out, text))
    if args.svg:
        outputs.append((args.svg, svgplot.s21_magnitude_svg(s21)))
    _write_outputs(outputs, [args.input])
    if not args.out:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    section, _, key = args.param.partition(".")
    if section == "spec" or key not in io_formats._SECTION_KEYS.get(section, ()):
        raise AcoufiltError(f"--param must be series.KEY, shunt.KEY (KEY one of "
                            f"{', '.join(io_formats._RESONATOR_KEYS)}) or filter.z0, "
                            f"got {args.param!r}")
    sections = io_formats.parse_design_text(_read(args.design))
    io_formats._ladder_design(sections)
    values = _parse_range_spec(args.range)
    grid = parse_grid_spec(args.grid)
    swept = sections.setdefault(section, {})

    rows = [(args.param, *METRIC_NAMES)]
    for value in values:
        swept[key] = float(value)
        try:
            s21 = _ladder_s21(io_formats._ladder_design(sections), grid)
        except AcoufiltError as exc:
            raise AcoufiltError(f"{args.param} = {swept[key]!r}: {exc}") from exc
        try:
            m = passband_metrics(s21, guard=args.guard)
            rows.append((value, *(v for _, v in m.as_rows())))
        except AcoufiltError:
            rows.append((value, *[math.nan] * len(METRIC_NAMES)))
    _write_outputs([(args.out, io_formats.write_csv(rows))], [args.design])
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: callers
    must not modify it."""
    parser = argparse.ArgumentParser(
        prog="acoufilt",
        description="Acoustic resonator / ladder filter modeling, fitting and synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    guard = argparse.ArgumentParser(add_help=False)
    guard.add_argument("--guard", type=float, default=DEFAULT_GUARD,
                       help="fractional stopband offset from the 3-dB edges")

    p = sub.add_parser("simulate", parents=[guard],
                       help="evaluate a design file to Touchstone output")
    p.add_argument("--design", required=True, help="key-value design file")
    p.add_argument("--grid", required=True, help="frequency grid start:stop:count (Hz)")
    p.add_argument("--out", required=True, help="output .s2p (ladder) or .s1p (one resonator)")
    p.add_argument("--metrics", help="also write passband metrics CSV")

    p = sub.add_parser("fit", help="extract MBVD parameters from a one-port .s1p")
    p.add_argument("--input", required=True, help="one-port Touchstone file")
    p.add_argument("--out", required=True, help="fitted design file to write")
    p.add_argument("--report", help="CSV fit report")
    p.add_argument("--section", default="series", choices=("series", "shunt"),
                   help="section name used in the fitted design file")
    p.add_argument("--max-iterations", type=int, default=fitting.FitOptions.max_iterations,
                   help="cap on the fit's residual evaluations, an integer in "
                        f"[1, {fitting.MAX_ITERATIONS}], default %(default)s "
                        "(the report's iterations counts Jacobian evaluations)")
    p.add_argument("--weight", default=fitting.FitOptions.weight_mode,
                   choices=fitting.WEIGHT_MODES,
                   help="residual weight per sample: inverse-magnitude (default) is 1/|Y|, "
                        "and 0 at or below 1e-12 of the largest |Y|; uniform is 1")

    p = sub.add_parser("synthesize", parents=[guard],
                       help="search a ladder design meeting a spec file")
    p.add_argument("--spec", required=True, help="design spec file with a [spec] section")
    p.add_argument("--out", required=True, help="design file to write")
    p.add_argument("--grid", required=True, help="output grid start:stop:count (Hz)")
    p.add_argument("--touchstone", help="also write the .s2p response")
    p.add_argument("--metrics", help="also write metrics CSV")

    p = sub.add_parser("metrics", parents=[guard], help="score a two-port .s2p file")
    p.add_argument("--input", required=True, help="two-port Touchstone file")
    p.add_argument("--out", help="metrics CSV (stdout when omitted)")
    p.add_argument("--svg", help="also write an |S21| SVG plot")

    p = sub.add_parser("sweep", parents=[guard],
                       help="sweep one design parameter and tabulate metrics")
    p.add_argument("--design", required=True, help="key-value design file")
    p.add_argument("--param", required=True, help="parameter as section.key, e.g. shunt.c0")
    p.add_argument("--range", required=True, help="swept values a:b:n")
    p.add_argument("--grid", required=True, help="frequency grid start:stop:count (Hz)")
    p.add_argument("--out", required=True, help="CSV of one metrics row per value")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Looked up on each call: the parser is cached, and a command function
    # rebound after it was built (by a tracing wrapper, say) is the one run.
    command = globals()[f"_cmd_{args.command}"]
    try:
        # Checked before any input is read: sweep scores a row whose
        # metrics fail as NaN, and would do so for every row.
        if "guard" in args:
            _check_guard(args.guard)
        return command(args)
    except (AcoufiltError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
