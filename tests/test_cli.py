import contextlib
import dataclasses
import io
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_touchstone_properties import ALPHABET, touchstone_texts

import acoufilt
from acoufilt import io_formats
from acoufilt.cli import main
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


@pytest.mark.parametrize("param", ["shunt.bogus", "filter.rm", "spec.fc", "shunt"])
def test_bad_sweep_param_is_exit_1(tmp_path, reference_design, capsys, param):
    path, _ = reference_design
    rc = main(["sweep", "--design", str(path), "--param", param, "--range", "1:2:2",
               "--grid", "1e9:4e10:801", "--out", str(tmp_path / "sweep.csv")])
    assert rc == 1
    assert capsys.readouterr().err.count("\n") == 1
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


@settings(max_examples=60)
@given(text=st.one_of(touchstone_texts(odds=2), st.text(alphabet=ALPHABET)))
# Generated texts first reach a DB magnitude that overflows after a few
# hundred examples, beyond this budget; the known case always runs.
@example(text="# GHz S DB R 50\n1 7000 0\n")
def test_metrics_and_fit_on_any_input_exit_cleanly(tmp_path_factory, text):
    """Exit 0, or exit 1 with a one-line message; never a traceback."""
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "input.snp"
    path.write_text(text)
    for argv in (["metrics", "--input", str(path), "--out", str(work / "m.csv")],
                 ["fit", "--input", str(path), "--out", str(work / "fit.kv")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 1)
        if rc == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


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
