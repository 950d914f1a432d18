import contextlib
import dataclasses
import io
import os
import stat
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_design_file_properties import _VALID_LINES, design_texts
from test_touchstone_properties import ALPHABET, rarely, touchstone_texts

import acoufilt
from acoufilt import cli, io_formats
from acoufilt.cli import main
from acoufilt.curves import MAX_POINTS, parse_grid_spec
from acoufilt.errors import DomainError
from acoufilt.metrics import METRIC_NAMES


@pytest.fixture()
def reference_design(tmp_path):
    import math
    fc = 23.5e9
    fs_sh = fc * math.sqrt(1 - 0.46 / (math.pi**2 / 8))
    c0_sh = 1 / (2 * math.pi * fc * 50)
    design = acoufilt.shunt_series_shunt(
        acoufilt.mbvd_from_targets(fs_sh, 0.46, c0_sh, 50),
        acoufilt.mbvd_from_targets(fc, 0.46, c0_sh / 2, 50),
        z0=50.0,
    )
    path = tmp_path / "reference.kv"
    path.write_text(io_formats.write_ladder_design(design))
    return path, design


def test_simulate_matches_library_call(tmp_path, reference_design):
    path, design = reference_design
    out = tmp_path / "filter.s2p"
    mcsv = tmp_path / "m.csv"
    rc = main(["simulate", "--design", str(path), "--grid", "1e9:4e10:4001",
               "--out", str(out), "--metrics", str(mcsv)])
    assert rc == 0
    grid = np.linspace(1e9, 4e10, 4001)
    block = acoufilt.build_ladder_response(design, grid)
    expected = io_formats.write_metrics_csv(
        acoufilt.passband_metrics(block.s21(), guard=0.15))
    assert mcsv.read_text() == expected
    back = io_formats.read_touchstone(out.read_text()).to_block()
    assert np.max(np.abs(back.s - block.s)) < 1e-12


def test_simulate_then_metrics_agrees(tmp_path, reference_design):
    path, _ = reference_design
    out = tmp_path / "filter.s2p"
    mcsv = tmp_path / "m.csv"
    main(["simulate", "--design", str(path), "--grid", "1e9:4e10:4001",
          "--out", str(out), "--metrics", str(mcsv)])
    m2 = tmp_path / "m2.csv"
    rc = main(["metrics", "--input", str(out), "--out", str(m2)])
    assert rc == 0
    assert m2.read_text() == mcsv.read_text()


def test_metrics_on_through_line_fails_cleanly(tmp_path, capsys):
    f = np.linspace(1e9, 2e9, 11)
    s = np.zeros((11, 2, 2), dtype=complex)
    s[:, 0, 1] = s[:, 1, 0] = 1.0
    block = acoufilt.SParameterBlock(f, s, 50.0)
    path = tmp_path / "thru.s2p"
    path.write_text(io_formats.write_touchstone(block))
    rc = main(["metrics", "--input", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, z0", [("", 50.0), ("[filter]\nz0 = 75\n\n", 75.0)])
def test_one_port_simulate_takes_z0_from_the_design(tmp_path, section, z0):
    p = acoufilt.mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    design = tmp_path / "res.kv"
    design.write_text(section + io_formats.write_resonator(p, "shunt"))
    out = tmp_path / "res.s1p"
    assert main(["simulate", "--design", str(design), "--grid", "5e9:1e11:5",
                 "--out", str(out)]) == 0
    s11 = acoufilt.one_port_s11(p, parse_grid_spec("5e9:1e11:5"), z0=z0)
    assert out.read_text() == io_formats.write_touchstone(
        s11, io_formats.TouchstoneHeader("Hz", "S", "RI", z0))


def test_one_port_simulate_reads_the_extension_in_either_case(tmp_path):
    p = acoufilt.mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    design = tmp_path / "res.kv"
    design.write_text(io_formats.write_resonator(p, "series"))
    out = tmp_path / "RES.S1P"
    assert main(["simulate", "--design", str(design), "--grid", "5e9:1e11:5",
                 "--out", str(out)]) == 0
    assert out.read_text() == io_formats.write_touchstone(
        acoufilt.one_port_s11(p, parse_grid_spec("5e9:1e11:5")))


def test_fit_end_to_end(tmp_path):
    truth = acoufilt.mbvd_from_targets(20e9, 0.42, 50e-15, 40, rs=0.3, ls=30e-12)
    res_kv = tmp_path / "res.kv"
    res_kv.write_text("[filter]\nz0 = 50\n\n" + io_formats.write_resonator(truth, "series"))
    s1p = tmp_path / "res.s1p"
    assert main(["simulate", "--design", str(res_kv), "--grid", "5e9:1e11:3001",
                 "--out", str(s1p)]) == 0
    fitted_kv = tmp_path / "fitted.kv"
    report = tmp_path / "fit.csv"
    assert main(["fit", "--input", str(s1p), "--out", str(fitted_kv),
                 "--report", str(report)]) == 0
    fitted = io_formats.read_resonators(fitted_kv.read_text())["series"]
    for k in ("rm", "lm", "cm", "c0", "rs", "ls"):
        tv, fv = getattr(truth, k), getattr(fitted, k)
        assert abs(fv - tv) <= 1e-3 * tv
    assert report.read_text().startswith("quantity,value")


def test_fit_at_a_non_round_z0_recovers_the_resonator(tmp_path):
    # The option line carries z0 to the fit: a z0 cut to 6 digits (50.1235)
    # moves the fitted values by about 1e-6.
    truth = acoufilt.mbvd_from_targets(20e9, 0.42, 50e-15, 40, rs=0.3, ls=30e-12)
    res_kv = tmp_path / "res.kv"
    res_kv.write_text("[filter]\nz0 = 50.123456789\n\n" + io_formats.write_resonator(truth))
    s1p = tmp_path / "res.s1p"
    assert main(["simulate", "--design", str(res_kv), "--grid", "5e9:1e11:3001",
                 "--out", str(s1p)]) == 0
    header = io_formats.read_touchstone(s1p.read_text()).header
    assert header.reference_resistance == 50.123456789
    fitted_kv = tmp_path / "fitted.kv"
    assert main(["fit", "--input", str(s1p), "--out", str(fitted_kv)]) == 0
    fitted = io_formats.read_resonators(fitted_kv.read_text())["series"]
    for k in ("rm", "lm", "cm", "c0", "rs", "ls"):
        assert getattr(fitted, k) == pytest.approx(getattr(truth, k), rel=1e-9)


def test_fit_report_layout(tmp_path):
    truth = acoufilt.mbvd_from_targets(20e9, 0.42, 50e-15, 40, rs=0.3, ls=30e-12)
    s1p = tmp_path / "res.s1p"
    s1p.write_text(io_formats.write_touchstone(
        acoufilt.one_port_s11(truth, np.linspace(5e9, 1e11, 3001))))
    report = tmp_path / "fit.csv"
    assert main(["fit", "--input", str(s1p), "--out", str(tmp_path / "fit.kv"),
                 "--report", str(report)]) == 0
    rows = [line.split(",") for line in report.read_text().splitlines()]
    assert [name for name, _ in rows] == [
        "quantity", "rm", "lm", "cm", "c0", "rs", "ls", "r0", "fs_hz", "fp_hz",
        "f_perceived_hz", "k2", "q_antires", "residual_norm", "iterations", "converged"]
    assert rows[0] == ["quantity", "value"]
    for _, value in rows[1:-2]:
        assert value == "{:.16e}".format(float(value))
    assert rows[-2][1].isdigit() and rows[-1][1] in ("true", "false")


def test_synthesize_writes_design_and_flag(tmp_path, capsys):
    spec = acoufilt.DesignSpec(10e9, 0.10, 50.0, 10.0, 0.42, 200.0, 0.0, 0.0, 1.0)
    spec_kv = tmp_path / "spec.kv"
    spec_kv.write_text(io_formats.write_design_spec(spec))
    out_kv = tmp_path / "design.kv"
    s2p = tmp_path / "design.s2p"
    rc = main(["synthesize", "--spec", str(spec_kv), "--grid", "5e9:1.8e10:2001",
               "--out", str(out_kv), "--touchstone", str(s2p)])
    assert rc == 0
    assert "feasible" in capsys.readouterr().out
    design = io_formats.read_ladder_design(out_kv.read_text())
    assert len(design.elements) == 3
    assert io_formats.read_touchstone(s2p.read_text()).n_ports == 2


@pytest.mark.parametrize("option", [None, "--touchstone", "--metrics"])
def test_synthesize_builds_the_response_only_for_its_outputs(tmp_path, capsys, option):
    # No admittance is finite on this grid, so only an output that needs
    # the response on it fails, and then no file is written.
    spec = acoufilt.DesignSpec(10e9, 0.10, 50.0, 10.0, 0.42, 200.0, 0.0, 0.0, 1.0)
    spec_kv = tmp_path / "spec.kv"
    spec_kv.write_text(io_formats.write_design_spec(spec))
    also = [option, str(tmp_path / "response")] if option else []
    rc = main(["synthesize", "--spec", str(spec_kv), "--grid", "1e300:1e301:3",
               "--out", str(tmp_path / "d.kv"), *also])
    if option:
        assert rc == 1
        assert capsys.readouterr().err == "error: admittance contains non-finite entries\n"
        assert [p.name for p in tmp_path.iterdir()] == ["spec.kv"]
    else:
        assert rc == 0
        assert len(io_formats.read_ladder_design((tmp_path / "d.kv").read_text()).elements) == 3


def test_sweep_rows_in_input_order(tmp_path, reference_design):
    path, _ = reference_design
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--design", str(path), "--param", "shunt.c0",
               "--range", "5e-14:1.5e-13:3", "--grid", "1e9:4e10:2001",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(("shunt.c0",) + METRIC_NAMES)
    assert len(lines) == 4
    values = [float(l.split(",")[0]) for l in lines[1:]]
    assert values == sorted(values)


def test_sweep_rows_match_the_library(tmp_path, reference_design):
    path, design = reference_design
    grid = np.linspace(1e9, 4e10, 801)
    for param, values in (("series.lm", (0.9, 1.1)), ("shunt.c0", (0.8, 1.2)),
                          ("filter.z0", (40.0, 60.0))):
        section, key = param.split(".")
        if section == "filter":
            designs = [dataclasses.replace(design, z0=v) for v in values]
        else:
            kind = acoufilt.ElementKind(section)
            (base,) = {p for k, p in design.elements if k is kind}
            values = tuple(f * getattr(base, key) for f in values)
            designs = [dataclasses.replace(design, elements=tuple(
                (k, dataclasses.replace(p, **{key: v}) if k is kind else p)
                for k, p in design.elements)) for v in values]
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--design", str(path), "--param", param,
                   "--range", f"{values[0]!r}:{values[1]!r}:2", "--grid", "1e9:4e10:801",
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        for row, d in zip(rows, designs):
            m = acoufilt.passband_metrics(acoufilt.build_ladder_response(d, grid).s21())
            assert row.split(",")[1:] == ["{:.16e}".format(v) for _, v in m.as_rows()]


def test_sweep_row_whose_metrics_fail_reads_nan(tmp_path, reference_design):
    # Some series routing inductances leave no scoreable passband.
    path, _ = reference_design
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--design", str(path), "--param", "series.ls",
               "--range", "0:5e-9:7", "--grid", "1e9:4e10:401", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["{:.16e}".format(v) for v in np.linspace(0, 5e-9, 7)]
    failed = [row for row in rows if "nan" in row[1:]]
    assert failed and all(row[1:] == ["nan"] * len(METRIC_NAMES) for row in failed)


@pytest.mark.parametrize("param", ["shunt.bogus", "filter.rm", "spec.fc", "shunt"])
def test_bad_sweep_param_is_exit_1(tmp_path, reference_design, capsys, param):
    path, _ = reference_design
    rc = main(["sweep", "--design", str(path), "--param", param, "--range", "1:2:2",
               "--grid", "1e9:4e10:801", "--out", str(tmp_path / "sweep.csv")])
    assert rc == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("param, values, message", [
    ("shunt.c0", "0:1e-13:3", "shunt.c0 = 0.0: lm, cm and c0 must be positive"),
    ("filter.z0", "0:50:2", "filter.z0 = 0.0: port impedance must be positive and finite"),
    ("series.ls", "1e-9:1e307:2", "series.ls = 1e+307: impedance contains non-finite entries"),
], ids=["c0", "z0", "ls"])
def test_sweep_value_that_leaves_no_valid_design_is_named(tmp_path, reference_design, capsys,
                                                          param, values, message):
    path, _ = reference_design
    rc = main(["sweep", "--design", str(path), "--param", param, "--range", values,
               "--grid", "1e9:4e10:801", "--out", str(tmp_path / "sweep.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_svg_output_is_deterministic(tmp_path, reference_design):
    path, _ = reference_design
    s2p = tmp_path / "f.s2p"
    main(["simulate", "--design", str(path), "--grid", "1e9:4e10:801",
          "--out", str(s2p)])
    svgs = []
    for name in ("a.svg", "b.svg"):
        svg = tmp_path / name
        main(["metrics", "--input", str(s2p), "--out", str(tmp_path / "m.csv"),
              "--svg", str(svg)])
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]
    assert svgs[0].startswith(b"<svg")


def test_repeated_runs_byte_identical(tmp_path, reference_design):
    path, _ = reference_design
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.s2p"
        mcsv = tmp_path / f"{name}.csv"
        main(["simulate", "--design", str(path), "--grid", "1e9:4e10:801",
              "--out", str(out), "--metrics", str(mcsv)])
        outputs.append(out.read_bytes() + mcsv.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, err", [
    # one-port output of a design with both resonator sections
    (["simulate", "--design", "{design}", "--grid", "1e9:4e10:11", "--out", "{tmp}/o.s1p"],
     "error: one-port output requires a design file with exactly one resonator section\n"),
    # --metrics of a one-port run is refused before the design is read
    (["simulate", "--design", "{tmp}/none.kv", "--grid", "1e9:4e10:11", "--out",
      "{tmp}/o.s1p", "--metrics", "{tmp}/m.csv"],
     "error: --metrics applies to two-port simulation only\n"),
    # a --range of two parts
    (["sweep", "--design", "{design}", "--param", "shunt.c0", "--range", "1e-13:2e-13",
      "--grid", "1e9:4e10:11", "--out", "{tmp}/o.csv"],
     "error: --range spec '1e-13:2e-13' is not of the form start:stop:count\n"),
    # --out names a directory: the rename fails after the temp file is written
    (["simulate", "--design", "{design}", "--grid", "1e9:4e10:11", "--out", "{tmp}"],
     "error: [Errno "),
    # --out names a file in a missing directory: the error names that file,
    # not the temp file that could not be made beside it
    (["simulate", "--design", "{design}", "--grid", "1e9:4e10:11", "--out",
      "{tmp}/missing/o.s2p"],
     "error: [Errno 2] No such file or directory: '{tmp}/missing/o.s2p'\n"),
], ids=["one-port-of-a-ladder", "one-port-metrics", "malformed-range", "out-is-a-directory",
        "out-in-a-missing-directory"])
def test_rejected_runs_leave_no_files(tmp_path, reference_design, capsys, argv, err):
    path, _ = reference_design
    before = sorted(tmp_path.iterdir())
    rc = main([a.format(design=path, tmp=tmp_path) for a in argv])
    assert rc == 1
    message = capsys.readouterr().err
    assert message.startswith(err.format(tmp=tmp_path)) and message.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


@pytest.fixture()
def command_inputs(tmp_path, reference_design):
    """An input file for each command, named by the key its argv uses."""
    path, design = reference_design
    s2p = tmp_path / "filter.s2p"
    s2p.write_text(io_formats.write_touchstone(
        acoufilt.build_ladder_response(design, parse_grid_spec("1e9:4e10:201"))))
    s1p = tmp_path / "res.s1p"
    truth = acoufilt.mbvd_from_targets(20e9, 0.42, 50e-15, 40)
    s1p.write_text(io_formats.write_touchstone(
        acoufilt.one_port_s11(truth, parse_grid_spec("5e9:1e11:401"))))
    # Infeasible coupling: synthesize returns the seed without a search.
    spec = tmp_path / "spec.kv"
    spec.write_text(io_formats.write_design_spec(acoufilt.DesignSpec(10e9, 1.5, k2=0.1)))
    return {"design": path, "s2p": s2p, "s1p": s1p, "spec": spec, "tmp": tmp_path}


@pytest.mark.parametrize("argv, first, second", [
    (["simulate", "--design", "{design}", "--grid", "1e9:4e10:401", "--out", "{tmp}/a.s2p",
      "--metrics", "{tmp}/a.s2p"], "{tmp}/a.s2p", "{tmp}/a.s2p"),
    (["simulate", "--design", "{design}", "--grid", "1e9:4e10:401", "--out", "{tmp}/a.s2p",
      "--metrics", "{tmp}/./a.s2p"], "{tmp}/a.s2p", "{tmp}/./a.s2p"),
    # a symlink, dangling until the output it points at is written
    (["simulate", "--design", "{design}", "--grid", "1e9:4e10:401", "--out", "{tmp}/a.s2p",
      "--metrics", "{tmp}/link.csv"], "{tmp}/a.s2p", "{tmp}/link.csv"),
    (["fit", "--input", "{s1p}", "--out", "{tmp}/f.kv", "--report", "{tmp}/f.kv"],
     "{tmp}/f.kv", "{tmp}/f.kv"),
    (["metrics", "--input", "{s2p}", "--out", "{tmp}/m", "--svg", "{tmp}/m"],
     "{tmp}/m", "{tmp}/m"),
    (["synthesize", "--spec", "{spec}", "--grid", "5e9:1.8e10:11", "--out", "{tmp}/d.kv",
      "--touchstone", "{tmp}/d.kv"], "{tmp}/d.kv", "{tmp}/d.kv"),
], ids=["simulate-same-string", "simulate-dot-path", "simulate-symlink", "fit", "metrics",
        "synthesize"])
def test_outputs_naming_one_file_are_refused(command_inputs, capsys, argv, first, second):
    tmp = command_inputs["tmp"]
    os.symlink(tmp / "a.s2p", tmp / "link.csv")
    before = sorted(tmp.iterdir())
    rc = main([a.format(**command_inputs) for a in argv])
    assert rc == 1
    first, second = (path.format(**command_inputs) for path in (first, second))
    assert capsys.readouterr().err == (
        f"error: outputs {first!r} and {second!r} name the same file\n")
    assert sorted(tmp.iterdir()) == before


@pytest.mark.parametrize("spelling", ["same-string", "dot-path", "symlink"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--design", "{design}", "--grid", "1e9:4e10:401", "--out", "{out}"],
    ["fit", "--input", "{s1p}", "--out", "{out}"],
    ["synthesize", "--spec", "{spec}", "--grid", "5e9:1.8e10:11", "--out", "{out}"],
    ["metrics", "--input", "{s2p}", "--svg", "{out}"],
    ["sweep", "--design", "{design}", "--param", "shunt.c0", "--range", "1e-13:2e-13:3",
     "--grid", "1e9:4e10:101", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_an_output_naming_the_input_is_refused(command_inputs, capsys, argv, spelling):
    tmp = command_inputs["tmp"]
    given = argv[2].format(**command_inputs)  # each argv names its input first
    source = os.path.basename(given)
    out = {"same-string": given, "dot-path": f"{tmp}/./{source}",
           "symlink": f"{tmp}/link"}[spelling]
    os.symlink(given, tmp / "link")
    before = {path: path.read_bytes() for path in tmp.iterdir()}
    rc = main([a.format(out=out, **command_inputs) for a in argv])
    assert rc == 1
    assert capsys.readouterr().err == f"error: output {out!r} names the input {given!r}\n"
    assert {path: path.read_bytes() for path in tmp.iterdir()} == before


@pytest.mark.parametrize("value", ["0", "2147483648"])
def test_fit_max_iterations_outside_minpacks_int_is_exit_1(command_inputs, capsys, value):
    tmp = command_inputs["tmp"]
    before = sorted(tmp.iterdir())
    rc = main(["fit", "--input", str(command_inputs["s1p"]), "--out", str(tmp / "f.kv"),
               "--max-iterations", value])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: max_iterations must be an integer in [1, 2147483647], got {value}\n")
    assert sorted(tmp.iterdir()) == before


def test_metrics_without_out_writes_to_stdout(tmp_path, reference_design, capsys):
    path, design = reference_design
    s2p = tmp_path / "filter.s2p"
    assert main(["simulate", "--design", str(path), "--grid", "1e9:4e10:801",
                 "--out", str(s2p)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--input", str(s2p)]) == 0
    block = acoufilt.build_ladder_response(design, parse_grid_spec("1e9:4e10:801"))
    expected = io_formats.write_metrics_csv(acoufilt.passband_metrics(block.s21()))
    assert capsys.readouterr().out == expected


def test_missing_input_is_exit_1(tmp_path, capsys):
    rc = main(["metrics", "--input", str(tmp_path / "nope.s2p")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_fit_of_non_finite_sweep_is_exit_1(tmp_path, capsys):
    s1p = tmp_path / "bad.s1p"
    s1p.write_text("# GHz S RI R 50\n1 0.5 0\n2 nan 0\n")
    rc = main(["fit", "--input", str(s1p), "--out", str(tmp_path / "fit.kv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3:") and err.count("\n") == 1


def test_metrics_of_a_zero_reference_resistance_is_exit_1(tmp_path, capsys):
    s2p = tmp_path / "zero.s2p"
    s2p.write_text("# GHz S RI R 0\n1 0 0 1 0 1 0 0 0\n")
    rc = main(["metrics", "--input", str(s2p), "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: line 1: reference resistance must be positive and finite\n")
    assert sorted(tmp_path.iterdir()) == [s2p]


def test_fit_of_db_overflow_is_exit_1(tmp_path, capsys):
    s1p = tmp_path / "loud.s1p"
    s1p.write_text("# GHz S DB R 50\n1 7000 0\n")
    rc = main(["fit", "--input", str(s1p), "--out", str(tmp_path / "fit.kv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: DB magnitude overflows\n"


def test_fit_of_a_short_is_exit_1(tmp_path, capsys):
    rows = [f"{i} 0.1 0.0" for i in range(1, 51)]
    rows[10] = "11 -1.0 0.0"
    s1p = tmp_path / "short.s1p"
    s1p.write_text("# GHz S RI R 50\n" + "\n".join(rows) + "\n")
    rc = main(["fit", "--input", str(s1p), "--out", str(tmp_path / "fit.kv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: S11 = -1+0j at 1.1e+10 Hz") and err.count("\n") == 1
    assert not (tmp_path / "fit.kv").exists()


# A one-port sweep as simulate writes it, and a resonator design file.
_S1P = io_formats.write_touchstone(acoufilt.one_port_s11(
    acoufilt.mbvd_from_targets(20e9, 0.42, 50e-15, 40, rs=0.3, ls=30e-12),
    np.linspace(5e9, 1e11, 301)))
_RESONATOR_KV = "[filter]\nz0 = 50\n\n" + io_formats.write_resonator(
    acoufilt.MbvdParams(rm=5.1, lm=2.1e-9, cm=2.2e-14, c0=2.5e-14), "series")
_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("command, option, out, data", [
    # A valid sweep with one byte replaced by 0xff.
    ("fit", "--input", "fit.kv", _S1P.encode().replace(b"1", b"\xff", 1)),
    # A design file with a comment written in Latin-1, where é is one byte.
    ("simulate", "--design", "o.s1p", (_RESONATOR_KV + "# café\n").encode("latin-1")),
    # 100 random bytes; the first, 0x8b, cannot start a UTF-8 character.
    ("metrics", "--input", "m.csv", np.random.default_rng(7).bytes(100)),
], ids=["fit-0xff", "simulate-latin-1", "metrics-random-bytes"])
def test_undecodable_input_is_one_line_and_exit_1(tmp_path, capsys, command, option, out,
                                                  data):
    path = tmp_path / "input"
    path.write_bytes(data)
    argv = [command, option, str(path), "--out", str(tmp_path / out)]
    assert main(argv + (["--grid", "1e9:6e10:11"] if command == "simulate" else [])) == 1
    # In each input the first byte beyond ASCII is the one that fails.
    i = next(i for i, b in enumerate(data) if b > 0x7F)
    assert capsys.readouterr().err == (f"error: cannot read {str(path)!r} as UTF-8: "
                                       f"byte {data[i]:#04x} at offset {i}\n")
    assert not (tmp_path / out).exists()


def test_fit_reads_past_a_leading_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.s1p", tmp_path / "marked.s1p"
    plain.write_bytes(_S1P.encode())
    marked.write_bytes(_BOM + _S1P.encode())
    for path in (plain, marked):
        assert main(["fit", "--input", str(path), "--out", str(path.with_suffix(".kv"))]) == 0
    assert marked.with_suffix(".kv").read_text() == plain.with_suffix(".kv").read_text()


def _write(path, content):
    """Write a drawn str as UTF-8 text, or drawn bytes as they are."""
    path.write_bytes(content if isinstance(content, bytes) else content.encode())


@settings(max_examples=60)
@given(text=st.one_of(touchstone_texts(odds=2), st.text(alphabet=ALPHABET), st.binary()))
# Generated texts first reach a DB magnitude that overflows after a few
# hundred examples, beyond this budget; the known case always runs.
@example(text="# GHz S DB R 50\n1 7000 0\n")
@example(text=_S1P.encode().replace(b"1", b"\xff", 1))
@example(text="# GHz S RI R 50 ! café\n1 0.5 0\n2 0.4 0.1\n3 0.3 0.2\n".encode("latin-1"))
@example(text=_BOM + _S1P.encode())
def test_metrics_and_fit_on_any_input_exit_cleanly(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "input.snp"
    _write(path, text)
    _assert_clean_exit(["metrics", "--input", str(path), "--out", str(work / "m.csv")])
    _assert_clean_exit(["fit", "--input", str(path), "--out", str(work / "fit.kv")])


def _assert_clean_exit(argv):
    """Exit 0, or exit 1 with a one-line message; never a traceback or a
    warning."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert rc == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Design files: the ladder of test_design_file_properties and a single
# resonator (for .s1p output), mangled, or any text.
_RESONATOR_LINES = ("[filter]", "z0 = 50", "") + tuple(io_formats.write_resonator(
    acoufilt.MbvdParams(rm=5.1, lm=2.1e-9, cm=2.2e-14, c0=2.5e-14, rs=0.5, ls=1e-11),
).splitlines())
_LADDERS = st.one_of(st.just("\n".join(_VALID_LINES)), design_texts(),
                     st.just("\n".join(_VALID_LINES)), st.text(max_size=200))
_RESONATORS = st.one_of(st.just("\n".join(_RESONATOR_LINES)), design_texts(_RESONATOR_LINES))

# Odd parts of start:stop:count strings, including values whose products
# overflow.
_ODD_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "0", "", "abc", "0x10", "1_0", " 2e10 ",
                     "1e-300", "1e150", "1e300", "1.7e308"]),
)
_ODD_COUNTS = st.sampled_from(["", "abc", "1.5", "1e3", "0x10", " 7 ", "1_0"])


@st.composite
def value_specs(draw, lo, hi, max_count):
    """start:stop:count strings: three in four plausible, with start below
    and stop above the middle of [lo, hi], and the rest with odd parts, or a
    part too few or too many.  Counts stay at most max_count: a count is
    what a run allocates."""
    if draw(st.integers(0, 3)):
        mid = 0.5 * (lo + hi)
        return (f"{draw(st.floats(lo, mid))!r}:{draw(st.floats(mid, hi))!r}:"
                f"{draw(st.integers(2, max_count))}")
    count = st.one_of(st.integers(-2, max_count).map(str), _ODD_COUNTS)
    parts = [draw(_ODD_NUMBERS), draw(_ODD_NUMBERS), draw(count)]
    extra = draw(st.sampled_from([0, 0, -1, 1]))
    if extra < 0:
        del parts[draw(st.integers(0, 2))]
    elif extra > 0:
        parts.insert(draw(st.integers(0, 3)), draw(_ODD_NUMBERS))
    return ":".join(parts)


# Grids around the designs' 20-30 GHz passbands.
_GRIDS = (1e9, 6e10)
# Plausible --range bounds of each swept parameter.
_SWEPT = {"filter.z0": (1.0, 200.0), "series.lm": (1e-10, 1e-8), "series.rm": (0.0, 50.0),
          "shunt.c0": (1e-15, 1e-12), "shunt.ls": (0.0, 1e-9)}


@given(text_out=st.one_of(st.tuples(_LADDERS, st.just("o.s2p")),
                         st.tuples(_RESONATORS, st.just("o.s1p")),
                         st.tuples(st.binary(), st.sampled_from(["o.s1p", "o.s2p"]))),
       grid=value_specs(*_GRIDS, 3000), with_metrics=st.booleans())
@example(text_out=("\n".join(_RESONATOR_LINES), "o.s1p"), grid="1e-300:1e-299:3",
         with_metrics=False)
@example(text_out=(_RESONATOR_KV.encode().replace(b"5", b"\xff", 1), "o.s1p"),
         grid="1e9:6e10:11", with_metrics=False)
@example(text_out=((_RESONATOR_KV + "# café\n").encode("latin-1"), "o.s1p"),
         grid="1e9:6e10:11", with_metrics=False)
@example(text_out=(_BOM + _RESONATOR_KV.encode(), "o.s1p"), grid="1e9:6e10:11",
         with_metrics=False)
def test_simulate_on_any_design_and_grid_exits_cleanly(tmp_path_factory, text_out, grid,
                                                       with_metrics):
    text, out = text_out
    work = tmp_path_factory.mktemp("fuzz")
    _write(work / "design.kv", text)
    argv = ["simulate", "--design", str(work / "design.kv"), f"--grid={grid}",
            "--out", str(work / out)]
    _assert_clean_exit(argv + (["--metrics", str(work / "m.csv")] if with_metrics else []))


@given(text=_LADDERS, param_values=st.sampled_from(sorted(_SWEPT)).flatmap(
    lambda param: st.tuples(st.just(param), value_specs(*_SWEPT[param], 20))),
    grid=value_specs(*_GRIDS, 500))
@example(text="\n".join(_VALID_LINES), param_values=("shunt.c0", "-1.7e308:1.7e308:3"),
         grid="1e10:4e10:201")
def test_sweep_on_any_design_range_and_grid_exits_cleanly(tmp_path_factory, text,
                                                          param_values, grid):
    param, values = param_values
    work = tmp_path_factory.mktemp("fuzz")
    (work / "design.kv").write_text(text)
    _assert_clean_exit(["sweep", "--design", str(work / "design.kv"), "--param", param,
                        f"--range={values}", f"--grid={grid}", "--out", str(work / "o.csv")])


# Spec fields: a plausible range, or one time in five an extreme or invalid
# value.
_SPEC_RANGES = {"fc": (1e9, 1e11), "fbw": (0.02, 0.3), "z0": (10.0, 200.0),
                "oob_min_db": (5.0, 30.0), "k2": (0.05, 1.2), "q": (10.0, 1000.0),
                "rs": (0.0, 5.0), "ls": (0.0, 1e-10), "il_max_db": (0.5, 5.0)}
_SPEC_EXTREMES = st.sampled_from(["1e300", "1e-300", "0", "-1", "nan", "inf", "5e-324",
                                  "1.2337", "1e30"])


@st.composite
def spec_texts(draw):
    lines = ["[spec]"]
    for key, (lo, hi) in _SPEC_RANGES.items():
        value = draw(_SPEC_EXTREMES) if rarely(draw, 5) else repr(draw(st.floats(lo, hi)))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# Whole searches take up to half a second each; a few dozen specs at most.
@settings(max_examples=24, deadline=None)
@given(text=spec_texts())
@example(text="[spec]\nfc = 23.5e9\nfbw = 0.16\nk2 = 0.46\nq = 1e-300\n")
@example(text="[spec]\nfc = 1e300\nfbw = 0.16\nk2 = 0.46\nq = 50\n")
@example(text="[spec]\nfc = 23.5e9\nfbw = 0.16\nk2 = 0.46\nq = 50\nz0 = 1e-300\n")
def test_synthesize_on_any_spec_exits_cleanly(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "spec.kv").write_text(text)
    _assert_clean_exit(["synthesize", "--spec", str(work / "spec.kv"), "--out",
                        str(work / "d.kv"), "--grid", "1e9:6e10:201", "--touchstone",
                        str(work / "d.s2p"), "--metrics", str(work / "m.csv")])


@pytest.mark.parametrize("grid, values", [(f"1e9:4e10:{10**12}", "1e-14:1e-13:3"),
                                          ("1e9:4e10:11", f"1e-14:1e-13:{10**12}")])
def test_counts_above_the_bound_are_rejected_before_allocation(
        tmp_path, reference_design, monkeypatch, capsys, grid, values):
    path, _ = reference_design
    linspace = np.linspace

    def bounded_linspace(start, stop, num, **kwargs):
        assert num <= MAX_POINTS, "a count above the bound reached np.linspace"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", bounded_linspace)
    rc = main(["sweep", "--design", str(path), "--param", "shunt.c0", f"--range={values}",
               f"--grid={grid}", "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"at most {MAX_POINTS}" in err
    assert err.count("\n") == 1


def test_synthesize_checks_the_grid_before_the_search(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.kv"
    spec.write_text(io_formats.write_design_spec(acoufilt.DesignSpec(23.5e9, 0.16, k2=0.46, q=50)))

    def fail(*args, **kwargs):
        raise AssertionError("the search ran before the grid was checked")

    monkeypatch.setattr(cli, "synthesize_ladder", fail)
    rc = main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "d.kv"),
               "--grid", "1e10:4e10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid spec '1e10:4e10'")
    assert err.count("\n") == 1
    assert not (tmp_path / "d.kv").exists()


def test_grid_count_bound_is_inclusive():
    assert parse_grid_spec(f"1:2:{MAX_POINTS}").size == MAX_POINTS
    with pytest.raises(DomainError, match="at most"):
        parse_grid_spec(f"1:2:{MAX_POINTS + 1}")


@pytest.mark.parametrize("key, value", [("z0", "inf"), ("oob_min_db", "nan"), ("fc", "nan")])
def test_synthesize_of_non_finite_spec_is_exit_1(tmp_path, capsys, key, value):
    fields = {"fc": "23.5e9", "fbw": "0.16", "k2": "0.46", "q": "50", key: value}
    spec = tmp_path / "spec.kv"
    spec.write_text("[spec]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()))
    rc = main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "d.kv"),
               "--grid", "1e10:4e10:11"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: spec quantities must be finite")
    assert err.count("\n") == 1
    assert not (tmp_path / "d.kv").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("out", ["filter.s2p", "resonator.s1p"])
def test_simulate_of_non_finite_z0_is_exit_1(tmp_path, reference_design, capsys, value, out):
    # Warnings are errors here: no numpy warning, no NaN S-parameters.
    path, design = reference_design
    if out.endswith(".s1p"):
        text = f"[filter]\nz0 = {value}\n\n" + io_formats.write_resonator(design.elements[1][1])
    else:
        text = path.read_text().replace("z0 = 5.0000000000000000e+01", f"z0 = {value}")
        assert f"z0 = {value}" in text
    bad = tmp_path / "bad.kv"
    bad.write_text(text)
    rc = main(["simulate", "--design", str(bad), "--grid", "1e10:3e10:3",
               "--out", str(tmp_path / out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be positive and finite" in err
    assert err.count("\n") == 1
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("guard", ["nan", "inf", "-0.1"])
@pytest.mark.parametrize("command", ["simulate", "synthesize", "metrics", "sweep"])
def test_bad_guard_is_exit_1(tmp_path, reference_design, capsys, command, guard):
    # Before any input is read: sweep would otherwise write NaN rows.
    path, _ = reference_design
    out = tmp_path / "out"
    argv = {
        "simulate": ["--design", str(path), "--grid", "1e10:4e10:101", "--out", f"{out}.s2p"],
        "synthesize": ["--spec", str(path), "--out", str(out), "--grid", "1e10:4e10:101"],
        "metrics": ["--input", str(path), "--out", str(out)],
        "sweep": ["--design", str(path), "--param", "shunt.c0", "--range", "1e-13:2e-13:3",
                  "--grid", "1e10:4e10:101", "--out", str(out)],
    }[command]
    rc = main([command, *argv, f"--guard={guard}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: guard must be nonnegative and finite")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--frobnicate"])
    assert err.value.code == 2


def test_help_lists_flags(capsys):
    for cmd in ("simulate", "fit", "synthesize", "metrics", "sweep"):
        with pytest.raises(SystemExit) as err:
            main([cmd, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out
        # Every command but fit takes --guard, described alike.
        described = "--guard GUARD fractional stopband offset from the 3-dB edges"
        assert (described in " ".join(out.split())) == (cmd != "fit")


def test_bad_grid_spec_is_exit_1(tmp_path, reference_design, capsys):
    path, _ = reference_design
    rc = main(["simulate", "--design", str(path), "--grid", "2e9:1e9:100",
               "--out", str(tmp_path / "x.s2p")])
    assert rc == 1


def test_outputs_get_the_umask_mode(tmp_path, reference_design):
    path, _ = reference_design
    out = tmp_path / "filter.s2p"
    old = os.umask(0o022)
    try:
        rc = main(["simulate", "--design", str(path), "--grid",
                   "10e9:40e9:51", "--out", str(out)])
    finally:
        os.umask(old)
    assert rc == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_a_symlinked_output_is_written_through(tmp_path, reference_design):
    path, _ = reference_design
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "filter.s2p"
    target.write_text("old")
    link = tmp_path / "link.s2p"
    os.symlink(target, link)
    argv = ["simulate", "--design", str(path), "--grid", "10e9:40e9:51"]
    assert main([*argv, "--out", str(link)]) == 0
    assert main([*argv, "--out", str(tmp_path / "direct.s2p")]) == 0
    assert os.readlink(link) == str(target)
    assert target.read_text() == (tmp_path / "direct.s2p").read_text()
    assert sorted(p.name for p in target.parent.iterdir()) == ["filter.s2p"]


def test_an_existing_output_keeps_its_mode(tmp_path, reference_design):
    path, _ = reference_design
    out = tmp_path / "filter.s2p"
    out.write_text("old")
    out.chmod(0o600)
    old = os.umask(0o022)
    try:
        rc = main(["simulate", "--design", str(path), "--grid",
                   "10e9:40e9:51", "--out", str(out)])
    finally:
        os.umask(old)
    assert rc == 0
    assert out.read_text() != "old"
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


def test_a_fifo_output_is_written_through(tmp_path, reference_design):
    # A rename would put a regular file in the FIFO's place, and its reader
    # would never get the text.
    path, _ = reference_design
    pipe = tmp_path / "pipe.s2p"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    argv = ["simulate", "--design", str(path), "--grid", "10e9:40e9:51"]
    assert main([*argv, "--out", str(pipe)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert main([*argv, "--out", str(tmp_path / "direct.s2p")]) == 0
    assert got == [(tmp_path / "direct.s2p").read_text()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.s2p", "pipe.s2p",
                                                         "reference.kv"]


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["oserror", "keyboard-interrupt"])
def test_a_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch, error):
    # The rename is the last step: the temp file is written and chmod'ed.
    def fail(src, dst):
        raise error

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(type(error)) as exc:
        cli._atomic_write("out.s2p", "text\n")
    if isinstance(error, OSError):
        # Named by the path as given, not its realpath or the temp file.
        assert (exc.value.errno, exc.value.filename) == (28, "out.s2p")
    assert list(tmp_path.iterdir()) == []
