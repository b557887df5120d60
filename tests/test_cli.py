import importlib
import inspect
import json
import math
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import curve_reference
import pytest

import rbswipt
from rbswipt import cli, figures
from rbswipt.cli import run_cli
from rbswipt.config import _CANONICAL_UNIT, SCHEMA, get_preset, set_path
from rbswipt.model import FIELD_UNITS, evaluate_operating_point
from rbswipt.output import write_curve_file


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_single_operating_point(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--preset", "paper-2022",
                           "--p-in", "150W")
        assert code == 0
        assert "status: ok" in out
        assert "p_beam:" in out
        assert "c_tilde:" in out

    def test_set_override(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--set", "geometry.r2=0.93",
                           "--p-in", "100 W")
        assert code == 0
        assert "p_th:" in out

    def test_unstable_exit_code(self, capsys):
        code, out, _ = run(capsys, "evaluate",
                           "--set", "geometry.fr2=10 m")
        assert code == 4
        assert "status: unstable" in out

    @pytest.mark.parametrize("fr2, pinned", [
        ("2 m", "evaluate_unstable.txt"), ("inf m", "evaluate_degenerate.txt")])
    def test_unstable_report_matches_pinned_text(self, capsys, fr2, pinned):
        # the whole report of an unstable and of a degenerate cavity, whose
        # detail is formatted from the point's kept floats when read
        code, out, _ = run(capsys, "evaluate", "--set", f"geometry.fr2={fr2}")
        assert code == 4
        assert out == (Path(__file__).parent / "reference" / pinned).read_text()

    def test_config_error_exit_code(self, capsys):
        code, _, err = run(capsys, "evaluate", "--set", "geometry.r2=1.2")
        assert code == 3
        assert "config error" in err

    def test_overflowing_derived_f2_names_the_distances(self, capsys):
        # f2 = -f1 * M overflows to -inf, and so does the afocal lt = f1 + f2
        code, _, err = run(capsys, "evaluate", "--set", "geometry.f1=1e300 m",
                           "--set", "geometry.tim_magnification=1e10")
        assert code == 3
        assert "telescope spacing lt = f1 + f2 = -inf is not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting, message", [
        ("gain.g0=1 m^-1", "math range error (gain stage)"),
        # f2 = -f1 * M underflows to 0 and -1 / f2 divides by zero
        ("geometry.tim_magnification=5e-324",
         "float division by zero (ray optics stage)"),
    ])
    def test_python_math_error_names_the_stage(self, capsys, setting,
                                               message):
        code, _, err = run(capsys, "evaluate", "--set", setting)
        assert code == 3
        assert f"numeric domain: {message}\n" in err
        assert "Traceback" not in err


class TestSweep:
    def test_writes_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--out-dir", str(tmp_path),
                           "--axis", "receiver.mu:0.1:0.9:5",
                           "--quantity", "c_tilde")
        assert code == 0
        text = (tmp_path / "sweep.csv").read_text()
        assert "# scenario: paper-2022" in text
        assert "# config-digest:" in text
        assert "c_tilde" in text
        # 5 data rows after the header line
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 5

    def test_env_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RBSWIPT_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "sweep",
                         "--axis", "link.p_in:50:150:3")
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()


    def test_units_from_field_table(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--out-dir", str(tmp_path),
                         "--axis", "link.p_in:50:150:3",
                         "--quantity", "p_beam", "--quantity", "c_tilde")
        assert code == 0
        assert ("# columns: link.p_in [W], p_beam [W], c_tilde [bit/s/Hz], "
                "status []") in (tmp_path / "sweep.csv").read_text()

    @pytest.mark.parametrize("axis, message", [
        ("geometry.f1:-1:1:3",
         "geometry.f1 = 0.0 out of range (finite, nonzero)"),
        ("losses.slope_loss_exponent:1:2:3",
         "losses.slope_loss_exponent = 1.5 out of range (1 or 2)")])
    def test_axis_value_out_of_range(self, capsys, tmp_path, axis, message):
        # a grid value inside the axis, out of its path's range, as axis 1
        # or axis 2: exit 3 with the value named, before any file is written
        for axes in ((axis,), ("link.p_in:1:2:2", axis),
                     (axis, "link.p_in:1:2:2")):
            code, out, err = run(capsys, "sweep", "--out-dir", str(tmp_path),
                                 *(a for x in axes for a in ("--axis", x)))
            assert (code, out, err) == (3, "", f"config error: {message}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_bytes_match_row_by_row_reference(self, capsys, tmp_path,
                                              monkeypatch):
        # every field on a p_in x mu grid with sub-threshold rows and
        # mu = 0 (zero cells); the reference writes the same columns
        def both(path, *args):
            write_curve_file(path, *args)
            curve_reference.write_curve_file(tmp_path / "ref.csv", *args)

        monkeypatch.setattr(cli, "write_curve_file", both)
        quantities = [a for q in FIELD_UNITS for a in ("--quantity", q)]
        code, out, err = run(capsys, "sweep", "--out-dir", str(tmp_path),
                             "--axis", "link.p_in:1:150:7",
                             "--axis", "receiver.mu:0:0.99:6", *quantities)
        assert code == 0
        assert out == (f"wrote {tmp_path / 'sweep.csv'} "
                       "(42 points: 36 ok, 6 sub-threshold, 0 unstable)\n")
        assert err == ""
        new = (tmp_path / "sweep.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert b",0.0," in new

    def test_all_fields_match_pinned_bytes(self, capsys, tmp_path):
        # every stage field on an 11 x 11 p_in x mu grid, with sub-threshold
        # rows and empty receiver cells at p_in = 0, byte for byte
        pinned = Path(__file__).parent / "reference" / "sweep_all_fields.csv"
        quantities = [a for q in FIELD_UNITS for a in ("--quantity", q)]
        code, _, _ = run(capsys, "sweep", "--out-dir", str(tmp_path),
                         "--output", pinned.name,
                         "--axis", "link.p_in:0:150:11",
                         "--axis", "receiver.mu:0:0.99:11", *quantities)
        assert code == 0
        assert (tmp_path / pinned.name).read_bytes() == pinned.read_bytes()

    def test_all_unstable_sweep_warns(self, capsys, tmp_path):
        code, out, err = run(capsys, "sweep", "--out-dir", str(tmp_path),
                             "--axis", "link.p_in:1:150:3",
                             "--set", "geometry.fr2=2 m")
        assert code == 0
        assert out == (f"wrote {tmp_path / 'sweep.csv'} "
                       "(3 points: 0 ok, 0 sub-threshold, 3 unstable)\n")
        assert err == "warning: every grid point is unstable\n"


UNWRITABLE_OUTPUT = [
    (["sweep", "--axis", "link.p_in:1:5:2", "--out-dir", "{file}"], "{file}"),
    (["reproduce-figure", "9", "--points", "3", "--out-dir", "{file}"],
     "{file}"),
    (["sweep", "--axis", "link.p_in:1:5:2", "--out-dir", "{file}/sub"],
     "{file}/sub"),
    (["sweep", "--axis", "link.p_in:1:5:2", "--out-dir", "{dir}",
      "--output", "nodir/x.csv"], "{dir}/nodir/x.csv"),
    (["sweep", "--axis", "link.p_in:1:5:2", "--out-dir", "{dir}",
      "--output", "taken"], "{dir}/taken"),
    (["sweep", "--axis", "link.p_in:1:5:2"], "{file}"),
    (["reproduce-figure", "9", "--points", "3", "--out-dir", "{dir}/taken"],
     "{dir}/taken/fig9.csv"),
    # the second file is in the way: the first must not be written either
    (["reproduce-figure", "9", "--points", "3", "--out-dir", "{dir}/plot"],
     "{dir}/plot/fig9.plot.json"),
    # a name that leaves no file under the directory: the CSV would be
    # written as the directory itself, or as its parent
    (["sweep", "--axis", "link.p_in:1:5:2", "--out-dir", "{dir}/new",
      "--output", ""], "'{dir}/new'"),
    (["sweep", "--axis", "link.p_in:1:5:2", "--out-dir", "{dir}/new",
      "--output", "."], "'{dir}/new'"),
    (["sweep", "--axis", "link.p_in:1:5:2", "--out-dir", "{dir}/new",
      "--output", "./"], "'{dir}/new'"),
    (["sweep", "--axis", "link.p_in:1:5:2", "--out-dir", "{dir}/new",
      "--output", ".."], "'{dir}/new/..'"),
]


@pytest.mark.parametrize("argv,path", UNWRITABLE_OUTPUT,
                         ids=[" ".join(a) for a, _ in UNWRITABLE_OUTPUT])
def test_unwritable_output_exit_code(capsys, tmp_path, monkeypatch,
                                     argv, path):
    # {file} is an existing file, {dir}/taken, {dir}/taken/fig9.csv and
    # {dir}/plot/fig9.plot.json existing directories; a case without
    # --out-dir takes RBSWIPT_OUT_DIR
    names = {"file": tmp_path / "file", "dir": tmp_path / "dir"}
    names["file"].write_text("keep\n")
    (names["dir"] / "taken" / "fig9.csv").mkdir(parents=True)
    (names["dir"] / "plot" / "fig9.plot.json").mkdir(parents=True)
    monkeypatch.setenv("RBSWIPT_OUT_DIR", str(names["file"]))

    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran before the output was checked")

    monkeypatch.setattr("rbswipt.cli.run_sweep", no_cells)
    monkeypatch.setattr("rbswipt.figures.run_sweep", no_cells)
    code = run_cli([a.format(**names) for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert path.format(**names) in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == \
        ["dir", "fig9.csv", "fig9.plot.json", "file", "plot", "taken"]
    assert names["file"].read_text() == "keep\n"


BAD_INPUT = [
    (2, ["sweep", "--axis", "link.p_in:1:abc"]),
    (2, ["sweep", "--axis", "link.p_in:1"]),
    (2, ["sweep", "--axis", "link.p_in:1:2:3.5"]),
    (3, ["sweep", "--axis", "receiver.mu:0:1.5:5"]),
    (3, ["sweep", "--axis", "geometry.r2:0.5:1.2:5"]),
    (3, ["sweep", "--axis", "gain.l:-1e-6:3e-6:5"]),
    (3, ["sweep", "--axis", "link.p_in:5:1"]),
    (3, ["sweep", "--axis", "link.nope:1:5"]),
    (3, ["sweep", "--axis", "link.p_in:1:5:1"]),
    (3, ["sweep", "--axis", "link.p_in:0:5:3:log"]),
    (3, ["sweep", "--axis", "link.p_in:1:5", "--quantity", "nope"]),
    (3, ["sweep", "--axis", "link.p_in:1:5", "--quantity", "p_in",
         "--quantity", "p_in"]),
    (3, ["optimize", "--axis", "geometry.r2:0.8:0.99:5",
         "--objective", "nope"]),
    (3, ["optimize", "--axis", "geometry.r2:0.8:1.2:5"]),
    (3, ["sweep", "--axis", "link.p_in:10:50:3",
         "--axis", "link.p_in:100:150:2"]),
    (3, ["optimize", "--axis", "geometry.f2:0.05:0.07:3",
         "--axis", "geometry.tim_magnification:8:12:3"]),
    (3, ["sweep", "--axis", "geometry.d3:2:inf:3"]),
    (3, ["sweep", "--axis", "receiver.p_pth:-1e308:5e307:4"]),
    (3, ["sweep", "--axis", "receiver.p_pth:-1e308:1e308:3"]),
]


@pytest.mark.parametrize("code,argv", BAD_INPUT,
                         ids=[" ".join(a[1:]) for _, a in BAD_INPUT])
def test_bad_sweep_input_exit_code(capsys, tmp_path, code, argv):
    try:
        got = run_cli(argv + ["--out-dir", str(tmp_path)])
    except SystemExit as e:
        got = e.code
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    assert err.strip()
    assert list(tmp_path.iterdir()) == []


def test_infinite_axis_bound_named_as_given(capsys, tmp_path):
    code = run_cli(["sweep", "--axis", "geometry.d3:2:inf:3",
                    "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "geometry.d3: hi = inf" in err
    assert "nan" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_two_value_axis_spanning_the_floats(capsys, tmp_path):
    # the grid [lo, hi] computes no step, so hi - lo = inf is harmless
    code = run_cli(["sweep", "--axis", "receiver.p_pth:-1e308:1e308:2",
                    "--out-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[-2:]] == ["-1e+308", "1e+308"]


def test_rejected_sweep_creates_no_out_dir(capsys, tmp_path):
    out = tmp_path / "new"
    code = run_cli(["sweep", "--out-dir", str(out),
                    "--axis", "geometry.r2:0.5:1.2:5"])
    assert code == 3
    assert "geometry.r2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, last", [
    (["sweep", "--axis", "receiver.mu:0.2:1:7"], "1.0"),
    (["optimize", "--axis", "geometry.r2:0.08:1:11", "--objective",
      "p_beam"], None)], ids=["sweep", "optimize"])
def test_axis_ends_on_hi_in_range(capsys, tmp_path, argv, last):
    # the rounded grid formula lands these axes' last value an ulp above 1
    code = run_cli(argv + ["--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    if last is not None:
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[-1].split(",")[0] == last


def test_sweep_creates_missing_out_dir(capsys, tmp_path):
    out = tmp_path / "a" / "b"
    code = run_cli(["sweep", "--out-dir", str(out),
                    "--axis", "receiver.mu:0:0.9:3"])
    assert code == 0
    assert (out / "sweep.csv").is_file()


NON_FINITE = [
    ("geometry.d3", ["evaluate", "--set", "geometry.d3=inf m"]),
    ("geometry.d1", ["evaluate", "--set", "geometry.d1=inf m"]),
    ("link.p_in", ["evaluate", "--set", "link.p_in=inf W"]),
    ("link.p_in", ["evaluate", "--p-in", "inf W"]),
    ("gain.l", ["evaluate", "--set", "gain.l=inf m"]),
    ("gain.l", ["evaluate", "--set", "gain.l=nan m"]),
    ("geometry.tim_magnification",
     ["evaluate", "--set", "geometry.tim_magnification=inf"]),
    ("receiver.b_x", ["evaluate", "--set", "receiver.b_x=inf Hz"]),
    ("geometry.d3", ["sweep", "--axis", "geometry.d3:2:inf:3"]),
    ("link.p_in", ["sweep", "--axis", "link.p_in:1:inf:3"]),
    ("gain.l", ["optimize", "--axis", "geometry.r2:0.8:0.99:5",
                "--set", "gain.l=inf m"]),
    ("gain.l", ["evaluate", "--config", "{dir}/inf.cfg"]),
    ("gain.l", ["validate", "--config", "{dir}/inf.cfg"]),
]


@pytest.mark.parametrize("key,argv", NON_FINITE,
                         ids=[" ".join(a) for _, a in NON_FINITE])
def test_non_finite_value_exit_code(capsys, tmp_path, key, argv):
    (tmp_path / "inf.cfg").write_text("[gain]\nl = inf m\n")
    argv = [a.format(dir=tmp_path) for a in argv]
    code = run_cli(argv + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--set", "geometry.tim_magnification=1e308"],
    ["sweep", "--axis", "geometry.tim_magnification:24:1e308:2",
     "--quantity", "c_tilde"],
    # f2 = -f1 * M underflows to 0, a division by zero in the one-trip matrix
    ["evaluate", "--set", "geometry.tim_magnification=5e-324"],
])
def test_overflowing_settings_exit_code(capsys, tmp_path, argv):
    code = run_cli(argv + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric domain" in err
    assert list(tmp_path.iterdir()) == []


# README's table: each formula guard a stage keeps, reached by one command
KEPT_GUARDS = [
    ("telescope spacing lt = f1 + f2 = -inf is not finite",
     ["geometry.f1=1e300 m", "geometry.tim_magnification=1e10"]),
    ("spot-radius radicand nan", ["geometry.tim_magnification=1e308"]),
    ("spot radius must be positive", ["geometry.lambda_beam=1e-200 m"]),
    ("v=0.0 outside (0, 1]", ["gain.a=1e-14 m"]),
    ("carrier density must be finite",
     ["gain.n0=1e308 m^-3", "gain.g0=1e3 m^-1"]),
    ("carrier lifetime must be positive", ["gain.auger=1e300 m^6/s"]),
    ("r1*r2*v^1 = 1.0 >= 1",
     ["geometry.r1=1", "geometry.r2=1", "losses.vc=1", "gain.a=1 m"]),
    ("total noise power must be positive",
     ["receiver.i_bg=0 A", "receiver.mu=1", "receiver.t_bg=5e-324 K"]),
]


@pytest.mark.parametrize("message, settings", KEPT_GUARDS,
                         ids=[m for m, _ in KEPT_GUARDS])
def test_kept_formula_guard_reached_by_validated_settings(capsys, message,
                                                          settings):
    argv = ["evaluate"]
    for setting in settings:
        argv += ["--set", setting]
    assert run_cli(["validate", *argv[1:]]) == 0
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert f"numeric domain: {message}" in err
    assert "Traceback" not in err


def test_ideal_retro_reflector_accepted(capsys):
    # fr2 = inf (a flat M2) passes SCHEMA; with the preset's flat M1 the
    # cavity is then unstable, which is exit 4, not a config error
    code = run_cli(["evaluate", "--set", "geometry.fr2=inf m"])
    assert code == 4
    assert "status: unstable" in capsys.readouterr().out


class TestOptimize:
    def test_reports_argmax(self, capsys):
        code, out, _ = run(capsys, "optimize",
                           "--axis", "geometry.r2:0.8:0.99:21",
                           "--set", "gain.l=0.15 um",
                           "--objective", "p_beam")
        assert code == 0
        assert "geometry.r2 = " in out
        assert "p_beam = " in out

    def test_probes_stay_in_schema_range(self, capsys):
        # SCHEMA allows the slope-loss exponent 1 or 2 only: a search
        # probe between them must not be reported
        code, out, _ = run(capsys, "optimize",
                           "--axis", "losses.slope_loss_exponent:1:2:2",
                           "--objective", "p_beam")
        assert code == 0
        line = out.splitlines()[0]
        assert line in ("losses.slope_loss_exponent = 1.0",
                        "losses.slope_loss_exponent = 2.0")

    def test_benchmark_reference_optima(self, capsys, monkeypatch):
        # every search of the optimize benchmark passes the benchmark's own
        # check of its stored optimum (1e-5 in r2, relative 1e-9 in the
        # value), so a search change that would need a regenerated
        # reference fails here first
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "bench"))
        checks = importlib.import_module("checks")
        workloads = importlib.import_module("workloads")
        problems, cases = [], workloads.optimize_cases()
        for case in cases:
            cmd = workloads.Command("optimize", workloads.optimize_argv(case),
                                    {"case": case})
            code, out, err = run(capsys, *cmd.argv)
            assert (code, err) == (0, ""), case
            problems += checks.check_optimum(cmd, out)
        assert problems == []
        assert len(cases) == 300

    def test_optima_match_pinned_text(self, capsys, monkeypatch):
        # the 300 searches of the optimize benchmark print their optima
        # byte for byte as tests/reference/optimize_optima.json holds them,
        # so a change that moves any printed optimum, even within the
        # benchmark's tolerance, fails here
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        pinned = json.loads((Path(__file__).parent / "reference"
                             / "optimize_optima.json").read_text())
        printed = {}
        for case in workloads.optimize_cases():
            code, out, err = run(capsys, *workloads.optimize_argv(case))
            assert (code, err) == (0, ""), case
            printed[workloads.case_key(case)] = out
        assert len(pinned) == 300 and printed == pinned

    def test_no_stable_point_exit_code(self, capsys):
        # fr2 = 2 m leaves every distance in 2-10 m unstable
        code, out, err = run(capsys, "optimize",
                             "--axis", "geometry.d3:2:10:5",
                             "--set", "geometry.fr2=2 m",
                             "--objective", "p_beam")
        assert code == 5
        assert out == ""
        assert err == ("optimization failed: no stable point for objective "
                       "'p_beam' over geometry.d3\n")

    def test_no_stable_point_names_both_axes(self, capsys):
        code, out, err = run(capsys, "optimize",
                             "--axis", "geometry.d3:2:10:5",
                             "--axis", "geometry.tim_magnification:1:2:3",
                             "--set", "geometry.fr2=2 m",
                             "--objective", "p_beam")
        assert code == 5
        assert out == ""
        assert err == ("optimization failed: no stable point for objective "
                       "'p_beam' over geometry.d3 and "
                       "geometry.tim_magnification\n")


class TestReproduceFigure:
    def test_figure_nine(self, capsys, tmp_path):
        code, _, _ = run(capsys, "reproduce-figure", "9",
                         "--out-dir", str(tmp_path), "--points", "9")
        assert code == 0
        csv_text = (tmp_path / "fig9.csv").read_text()
        header = [l for l in csv_text.splitlines()
                  if l and not l.startswith("#")][0]
        assert header.split(",")[0] == "mu"
        assert "c_tilde" in header and "p_e_out" in header \
            and "eta_e" in header
        plot = json.loads((tmp_path / "fig9.plot.json").read_text())
        assert plot["csv_file"] == "fig9.csv"
        assert plot["series"]

    def test_unknown_id_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["reproduce-figure", "99", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_preset_is_usage_error(self, capsys, tmp_path):
        # every figure is defined on paper-2022, so no --preset is offered
        with pytest.raises(SystemExit) as exc:
            run_cli(["reproduce-figure", "9", "--preset", "bogus",
                     "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--preset" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_traced_pins_hold(tmp_path, monkeypatch):
    # the benchmark's counter self-test, run on small inputs through its own
    # tracer: every figure cell is one ray-optics visit and every cell of a
    # p_in x mu sweep that emits every field one receiver visit.  A line's
    # first point opens its cavity inside a model call of its own, and a
    # 1-D line lends at most the spot radius, so both pins hold
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "bench"))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    sweep_argv = ["sweep", "--axis", "link.p_in:20:150:7",
                  "--axis", "receiver.mu:0:0.99:7", "--out-dir", str(tmp_path)]
    for q in workloads.SWEEP_FIELDS:
        sweep_argv += ["--quantity", q]
    runs = {"figures": [["reproduce-figure", fid, "--points", "7",
                         "--out-dir", str(tmp_path)]
                        for fid in workloads.FIGURE_IDS],
            "sweep": [sweep_argv]}
    counts = {}
    for name, commands in runs.items():
        traced = tracer.Tracer()
        traced.install()
        try:
            # through the module: install rebinds cli.run_cli
            codes = [cli.run_cli(argv) for argv in commands]
        finally:
            traced.uninstall()
        assert codes == [0] * len(commands), name
        counts[name] = traced.counts()
    figure, sweep = counts["figures"], counts["sweep"]
    assert figure["ray_optics.calls"] == figure["sweep.cells"] == 245
    assert sweep["receiver.calls"] == sweep["sweep.cells"] == 49


def curve_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """A curve file's column names and data rows, as text cells."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()
                     if not line.startswith("#")]
    return header, rows


def cell_text(value) -> str:
    """A point's field as a curve file writes it: repr, or "" for None."""
    return "" if value is None else repr(value)


class TestParseBack:
    """Every row a curve file writes parses back to the point `evaluate`
    gives: the row's Config, rebuilt from the preset and the row's axis
    values as written, evaluated alone through every stage, has each
    written cell as its field's repr and the written status."""

    @staticmethod
    def draw_axis(rng, path):
        """PATH:LO:HI:COUNT text of a random axis on path: p_in from 0, an
        fr2 range from 1-3 m (unstable) to 15-25 m, any other key 0.5 to
        1.5 times its preset value, kept inside its SCHEMA range."""
        if path == "link.p_in":
            lo, hi = 0.0, rng.uniform(50.0, 150.0)
        elif path == "geometry.fr2":
            lo, hi = rng.uniform(1.0, 3.0), rng.uniform(15.0, 25.0)
        else:
            section, _, key = path.partition(".")
            # the preset sets f2 through its magnification 12: 60 mm
            v = get_preset("paper-2022")[section].get(key, 0.06)
            lo, hi = sorted((v * rng.uniform(0.5, 1.0),
                             v * rng.uniform(1.0, 1.5)))
            if SCHEMA[section][key][2] in ("in (0, 1]", "in [0, 1]"):
                hi = min(hi, 1.0)
        return f"{path}:{lo!r}:{hi!r}:{rng.randint(2, 6)}"

    def test_sweep_cells_match_evaluated_points(self, capsys, tmp_path):
        rng = random.Random(15)
        # every key but those with no finite preset value to scale (lt,
        # fr1) and the exponent, whose range holds 1 and 2 only
        paths = [f"{s}.{k}" for s in SCHEMA for k in SCHEMA[s]
                 if k not in ("lt", "fr1", "slope_loss_exponent")]
        # an unstable p_in grid and a p_in-from-0 line come first
        draws = [("geometry.fr2", "link.p_in"), ("link.p_in",)]
        for _ in range(60):
            draws.append(tuple(rng.sample(paths, rng.choice((1, 2)))))
        statuses, written = set(), 0
        for i, axes in enumerate(draws):
            if set(axes) == {"geometry.f2", "geometry.tim_magnification"}:
                continue
            texts = [self.draw_axis(rng, path) for path in axes]
            quantities = rng.sample(list(FIELD_UNITS), rng.randint(1, 4))
            name = f"sweep{i}.csv"
            code, _, err = run(
                capsys, "sweep", "--out-dir", str(tmp_path), "--output", name,
                *(a for text in texts for a in ("--axis", text)),
                *(a for q in quantities for a in ("--quantity", q)))
            assert code == 0, (texts, err)
            header, rows = curve_rows(tmp_path / name)
            assert header == [*axes, *quantities, "status"]
            assert len(rows) == math.prod(int(t.rsplit(":", 1)[1])
                                          for t in texts)
            for row in rows:
                cfg = get_preset("paper-2022")
                for path, text in zip(axes, row):
                    set_path(cfg, path, float(text))
                point = evaluate_operating_point(cfg)
                assert row[len(axes):] == [
                    *(cell_text(getattr(point, q)) for q in quantities),
                    point.status], (texts, row)
                statuses.add(point.status)
                written += len(quantities)
        assert statuses == {"ok", "sub-threshold", "unstable"}
        assert written > 500

    def test_figure_series_match_evaluated_points(self, capsys, tmp_path):
        # each non-reduced figure's series: the figure's fixed overrides and
        # series value, and the row's swept value, set on the preset
        rng = random.Random(15)
        statuses = set()
        for fid, (series_path, series_values, swept, reduced, fixed,
                  quantities) in figures._FIGURES.items():
            if reduced:
                continue
            points = rng.randint(2, 9)
            code, _, err = run(capsys, "reproduce-figure", fid, "--points",
                               str(points), "--out-dir", str(tmp_path))
            assert code == 0, (fid, err)
            header, rows = curve_rows(tmp_path / f"fig{fid}.csv")
            width = len(quantities) + 1
            assert len(header) == 1 + width * len(series_values)
            assert len(rows) == points
            for row in rows:
                for s, value in enumerate(series_values):
                    cfg = get_preset("paper-2022")
                    for path, v in (*fixed, (series_path, value),
                                    (swept[0], float(row[0]))):
                        set_path(cfg, path, v)
                    point = evaluate_operating_point(cfg)
                    cells = row[1 + s * width:1 + (s + 1) * width]
                    assert cells == [
                        *(cell_text(getattr(point, q)) for q in quantities),
                        point.status], (fid, value, row[0])
                    statuses.add(point.status)
        assert statuses == {"ok", "sub-threshold", "unstable"}


class TestPresetsAndValidate:
    def test_presets_listed(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        assert "paper-2022" in out

    def test_validate_presets(self, capsys, tmp_path):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert "paper-2022: ok" in out
        # no files written
        assert list(tmp_path.iterdir()) == []

    def test_validate_config_file(self, capsys, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("[link]\np_in = 120 W\n")
        code, out, _ = run(capsys, "validate", "--config", str(good))
        assert code == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text("[link]\np_in = 120 parsec\n")
        code, _, err = run(capsys, "validate", "--config", str(bad))
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["--set", "gain.l=-1 um"], ["--set", "bogus"], ["--preset", "nope"]])
    def test_validate_reads_what_it_is_given(self, capsys, argv):
        code, out, err = run(capsys, "validate", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("config error: ")

    def test_config_file_f2_displaces_the_preset_magnification(
            self, capsys, tmp_path):
        f2 = tmp_path / "f2.cfg"
        f2.write_text("[geometry]\nf2 = 60 mm\n")
        code, out, err = run(capsys, "validate", "--config", str(f2))
        assert (code, out, err) == (0, f"{f2}: ok\n", "")
        code, from_file, _ = run(capsys, "evaluate", "--config", str(f2))
        assert code == 0
        _, from_set, _ = run(capsys, "evaluate", "--set", "geometry.f2=60 mm")
        assert from_file == from_set

    def test_config_file_naming_both_keys_rejected(self, capsys, tmp_path):
        both = tmp_path / "both.cfg"
        both.write_text("[geometry]\nf2 = 60 mm\ntim_magnification = 12\n")
        code, out, err = run(capsys, "validate", "--config", str(both))
        assert (code, out) == (3, "")
        assert err == "config error: geometry must define exactly one of " \
            "f2 or tim_magnification\n"

    @pytest.mark.parametrize("argv, message", [
        (["--set", "gain.l=3"], "gain.l: expected '<number> <unit>' "
         "with unit in ['cm', 'm', 'mm', 'nm', 'um'], got '3'"),
        (["--p-in", "3"], "link.p_in: expected '<number> <unit>' "
         "with unit in ['W', 'kW', 'mW'], got '3'"),
        # an unknown path is named once, without a path prefix
        (["--set", "gain.nope=3"], "unknown parameter path 'gain.nope'")])
    def test_typed_value_error_names_its_path(self, capsys, argv, message):
        code, out, err = run(capsys, "evaluate", *argv)
        assert (code, out, err) == (3, "", f"config error: {message}\n")

    def test_validate_names_what_passed(self, capsys, tmp_path):
        code, out, _ = run(capsys, "validate", "--set", "gain.l=0.15 um")
        assert (code, out) == (0, "paper-2022: ok\n")
        good = tmp_path / "good.cfg"
        good.write_text("[link]\np_in = 120 W\n")
        code, out, _ = run(capsys, "validate", "--config", str(good),
                           "--set", "receiver.mu=0.5")
        assert (code, out) == (0, f"{good}: ok\n")


# -- one parser per process ---------------------------------------------

OPTIMIZE_MU = ["optimize", "--axis", "geometry.r2:0.8:0.99:5",
               "--set", "receiver.mu=0.5", "--objective", "p_e_out"]
OPTIMIZE = OPTIMIZE_MU[:3] + OPTIMIZE_MU[5:]


def fresh(capsys, argv):
    """run(...) on a newly built parser."""
    cli._parser.cache_clear()
    return run(capsys, *argv)


def test_reused_parser_keeps_no_option_between_calls(capsys):
    first = run(capsys, *OPTIMIZE_MU)
    second = run(capsys, *OPTIMIZE)
    third = run(capsys, *OPTIMIZE_MU)
    assert first[0] == 0 and first == third
    assert second == fresh(capsys, OPTIMIZE)
    assert second != first      # the objective depends on mu


def test_usage_error_leaves_the_parser_usable(capsys):
    expected = fresh(capsys, OPTIMIZE_MU)
    with pytest.raises(SystemExit) as exc:
        run_cli(["optimize", "--axis", "geometry.r2:0.8", "--sense", "best"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *OPTIMIZE_MU) == expected


def test_parser_built_once_per_process(capsys, monkeypatch):
    build_parser, built = cli.build_parser, []

    def counting():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["presets"], OPTIMIZE, ["validate"], OPTIMIZE_MU):
        assert run(capsys, *argv)[0] == 0
    cli._parser.cache_clear()
    assert built == [1]


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_import_builds_no_parser():
    code = (
        "import argparse, sys\n"
        f"sys.path.insert(0, {str(Path(rbswipt.__file__).parents[1])!r})\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import rbswipt.cli\n"
        "print(len(built), rbswipt.cli._parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0", "0"]


def test_commands_that_write_no_file_load_no_hashlib_or_json():
    # hashlib (the curve files' config digest) and json (plot descriptions)
    # are imported where those files are written, and no command loads
    # dataclasses or inspect; -S keeps site hooks, which may import any of
    # them, out of the fresh interpreter
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(Path(rbswipt.__file__).parents[1])!r})\n"
        "from rbswipt.cli import run_cli\n"
        "loaded = lambda: sorted({'hashlib', 'json', 'dataclasses',\n"
        "                         'inspect'} & set(sys.modules))\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run_cli(['evaluate']), run_cli(['presets']),\n"
        "             run_cli(['validate', '--preset', 'paper-2022']),\n"
        "             run_cli(['optimize', '--axis', 'geometry.r2:0.8:0.99:5',\n"
        "                      '--objective', 'p_beam'])]\n"
        "print(codes, loaded())\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "[0, 0, 0, 0] []"]


# -- every public function serves a command ---------------------------------

def test_commands_reach_every_public_function(capsys, tmp_path):
    # a public function or method no command calls is a second
    # implementation that only tests run; such references live in
    # tests/abcd.py
    config = tmp_path / "my.cfg"
    config.write_text("[link]\np_in = 150 W\n")
    out = ["--out-dir", str(tmp_path)]
    # the unstable point's report formats its detail, in the one place
    # an unstable cavity's text is formatted
    commands = [
        ["evaluate"],
        ["evaluate", "--set", "geometry.fr2=2 m"],
        ["validate", "--config", str(config)],
        ["presets"],
        ["sweep", "--axis", "link.p_in:50:150:3",
         "--axis", "receiver.mu:0:0.99:3", *out],
        ["optimize", "--axis", "geometry.r2:0.8:0.99:5"],
        ["reproduce-figure", "5a", "--points", "3", *out],
        ["reproduce-figure", "9", "--points", "3", *out],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    cli._parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [run_cli(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [0, 4] + [0] * (len(commands) - 2)
    modules = [importlib.import_module(f"rbswipt.{m.name}")
               for m in pkgutil.iter_modules(rbswipt.__path__)]
    public = [(f"{mod.__name__}.{name}", value) for mod in modules
              for name, value in vars(mod).items()
              if not name.startswith("_")
              and getattr(value, "__module__", None) == mod.__name__]
    # every method and property of the package's classes whose code lives
    # in the package, dunders included; namedtuple's generated methods live
    # in the standard library and are not the package's to reach
    src = Path(rbswipt.__file__).parent
    members = [(f"{path}.{name}",
                getattr(member, "fget", getattr(member, "__func__", member)))
               for path, cls in public if inspect.isclass(cls)
               for name, member in vars(cls).items()]
    public += [(path, fn) for path, fn in members if inspect.isfunction(fn)
               and Path(fn.__code__.co_filename).parent == src]
    never = [path for path, fn in public
             if inspect.isfunction(fn) and fn.__code__ not in called]
    assert never == ["rbswipt.cli.main"]


# -- random argv: every input ends in a documented exit code ----------------

PATHS = [f"{s}.{k}" for s, keys in SCHEMA.items() for k in keys]
PRESET = get_preset("paper-2022")
BAD_NUMBERS = ("inf", "-inf", "nan", "-1", "0", "abc", "1e308", "")
WRONG_UNITS = ("parsec", "W", "m", "Hz", "cm^-1")
EXIT_CODES = {0, 2, 3, 4, 5}


def _number(rng, path):
    section, _, key = path.partition(".")
    if rng.random() < 0.4:
        return rng.choice(BAD_NUMBERS)
    base = PRESET.get(section, {}).get(key, 0.06)
    return repr(base * rng.choice((1.0, 1.0, 0.5, 2.0, 0.01, 100.0)))


def _value(rng, path):
    section, _, key = path.partition(".")
    unit = _CANONICAL_UNIT[SCHEMA[section][key][0]] if path in PATHS else "m"
    unit = rng.choice((unit, unit, unit, "", rng.choice(WRONG_UNITS)))
    return f"{_number(rng, path)} {unit}".strip()


def _path(rng):
    return rng.choice(PATHS) if rng.random() < 0.9 else \
        rng.choice(("gain.nope", "nope.l", "link", ""))


def _axis(rng):
    path = _path(rng)
    parts = [path, _number(rng, path), _number(rng, path)]
    parts.append(str(rng.choice((2, 3, 5, 5, 1, 0, -2))))
    if rng.random() < 0.3:
        parts.append(rng.choice(("linear", "log", "cubic")))
    if rng.random() < 0.15:
        parts = parts[:rng.randrange(len(parts))] or ["x"]
    return ":".join(parts)


def _quantity(rng):
    return rng.choice((*FIELD_UNITS, "status", "nope", ""))


def _config_file(rng, directory, index):
    lines = []
    for _ in range(rng.randrange(4)):
        path = _path(rng)
        section, _, key = path.partition(".")
        lines += [f"[{section}]", f"{key} = {_value(rng, path)}"]
    if rng.random() < 0.1:
        lines.append("not a key value line")
    path = directory / f"random{index}.cfg"
    if rng.random() < 0.9:
        path.write_text("\n".join(lines) + "\n")
    return str(path)


def random_argv(rng, directory, index):
    command = rng.choice(("evaluate", "sweep", "optimize",
                          "reproduce-figure", "presets", "validate"))
    argv = [command]
    if command == "presets":
        return argv + (["--extra"] if rng.random() < 0.2 else [])
    if rng.random() < 0.2:
        argv += ["--preset", rng.choice(("paper-2022", "nope"))]
    argv += ["--out-dir", str(directory / "out")]
    if command == "reproduce-figure":
        return argv + [rng.choice(("5a", "5b", "6", "7", "8", "9", "10",
                                   "99")),
                       "--points", rng.choice(("2", "3", "5", "1", "0",
                                               "-1", "abc"))]
    if rng.random() < 0.3:
        argv += ["--config", _config_file(rng, directory, index)]
    if command == "validate":
        return argv
    for _ in range(rng.randrange(3)):
        path = _path(rng)
        argv += ["--set", f"{path}={_value(rng, path)}"
                 if rng.random() < 0.9 else path]
    if command == "evaluate":
        if rng.random() < 0.3:
            argv += ["--p-in", _value(rng, "link.p_in")]
        return argv
    for _ in range(rng.choice((1, 1, 1, 2, 2, 3, 0))):
        argv += ["--axis", _axis(rng)]
    if command == "sweep":
        for _ in range(rng.randrange(3)):
            argv += ["--quantity", _quantity(rng)]
    else:
        if rng.random() < 0.8:
            argv += ["--objective", _quantity(rng)]
        if rng.random() < 0.3:
            argv += ["--sense", rng.choice(("max", "min", "best"))]
    return argv


def test_random_argv_exit_codes(capsys, tmp_path):
    rng = random.Random(20211)
    failures, seen = [], set()
    for index in range(200):
        argv = random_argv(rng, tmp_path, index)
        try:
            code = run_cli(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:      # an uncaught error is the failure
            code = f"{type(e).__name__}: {e}"
        err = capsys.readouterr().err
        seen.add(code)
        if code not in EXIT_CODES or "Traceback" in err:
            failures.append(f"{argv}: {code}")
    assert failures == []
    assert {0, 2, 3} <= seen      # the draws reach past argument parsing


def _rbswipt_lines(text):
    return [line.strip() for line in text.splitlines()
            if line.strip().startswith("rbswipt ")]


def test_ci_runs_the_readme_usage_lines_verbatim():
    # CI's console-script job runs README's usage block as written there
    repo = Path(__file__).resolve().parents[1]
    readme = (repo / "README.md").read_text()
    usage = readme.split("\n## Command line\n")[1].split("```sh\n")[1]
    usage = usage.split("```")[0]
    workflow = (repo / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split(
        "- name: README usage through the installed console script\n")[1]
    step = step.split("- name:")[0]
    assert len(_rbswipt_lines(usage)) == 8
    assert _rbswipt_lines(step) == _rbswipt_lines(usage)
