import copy
import json
import math
import random
import types
from pathlib import Path

import curve_reference
import pytest
from abcd import get_path

from rbswipt import figures, model, sweep
from rbswipt.config import (
    ConfigError,
    check_value,
    get_preset,
    set_path,
)
from rbswipt.gain_power import PowerResult
from rbswipt.model import FIELD_UNITS, OperatingPoint, evaluate_operating_point
from rbswipt.output import Column, write_curve_file
from rbswipt.receiver import SwiptResult
from rbswipt.sweep import (
    Axis,
    OptimizationError,
    SweepSpec,
    find_optimum,
    reduce_max,
    run_sweep,
)


def preset_with(*overrides):
    """The paper-2022 preset with each (path, value) set in turn."""
    cfg = get_preset("paper-2022")
    for path, value in overrides:
        set_path(cfg, path, value)
    return cfg


def mu_spec(count=5) -> SweepSpec:
    return SweepSpec(preset_with(), Axis("receiver.mu", 0.1, 0.9, count))


class TestAxis:
    def test_linear_values(self):
        ax = Axis("link.p_in", 50.0, 150.0, 5)
        assert ax.values() == [50.0, 75.0, 100.0, 125.0, 150.0]

    def test_log_values(self):
        ax = Axis("gain.l", 1e-7, 1e-5, 3, "log")
        vals = ax.values()
        assert vals[0] == pytest.approx(1e-7)
        assert vals[1] == pytest.approx(1e-6)
        assert vals[2] == pytest.approx(1e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Axis("x", 2.0, 1.0, 5)
        with pytest.raises(ValueError):
            Axis("x", 1.0, 2.0, 1)

    @pytest.mark.parametrize("lo,hi,given", [
        (2.0, float("inf"), "hi = inf"),
        (float("-inf"), 2.0, "lo = -inf"),
        (float("nan"), 2.0, "lo = nan")])
    def test_non_finite_bound_named_as_given(self, lo, hi, given):
        with pytest.raises(ValueError, match=f"axis x: {given} is not finite"):
            Axis("x", lo, hi, 5)


class TestRunSweep:
    def test_matches_scalar_evaluation(self):
        spec = mu_spec(count=2)
        result = run_sweep(spec)
        for mu, point in zip(result.axis1_values, result.points):
            cfg = get_preset("paper-2022")
            set_path(cfg, "receiver.mu", mu)
            direct = evaluate_operating_point(cfg)
            assert point == direct

    def test_two_axis_random_cells(self):
        spec = SweepSpec(preset_with(),
                         axis1=Axis("geometry.r2", 0.85, 0.95, 6),
                         axis2=Axis("link.p_in", 50.0, 150.0, 5))
        result = run_sweep(spec)
        rng = random.Random(1)
        for _ in range(5):
            i = rng.randrange(6)
            j = rng.randrange(5)
            cfg = get_preset("paper-2022")
            set_path(cfg, "geometry.r2", result.axis1_values[i])
            set_path(cfg, "link.p_in", result.axis2_values[j])
            assert result.points[i * len(result.axis2_values) + j] == \
                evaluate_operating_point(cfg)

    def test_geometry_grid_with_unstable_cells(self):
        # every cell sets the geometry, and fr2 = 10 m leaves part of the
        # grid unstable
        spec = SweepSpec(preset_with(("geometry.fr2", 10.0)),
                         axis1=Axis("geometry.tim_magnification", 1.0, 14.0, 7),
                         axis2=Axis("geometry.d3", 2.0, 10.0, 6))
        result = run_sweep(spec)
        assert {"ok", "unstable"} <= set(result.statuses())
        for i, m in enumerate(result.axis1_values):
            for j, d3 in enumerate(result.axis2_values):
                cfg = get_preset("paper-2022")
                set_path(cfg, "geometry.fr2", 10.0)
                set_path(cfg, "geometry.tim_magnification", m)
                set_path(cfg, "geometry.d3", d3)
                assert result.points[i * len(result.axis2_values) + j] == \
                evaluate_operating_point(cfg)

    def test_cells_leave_base_config_untouched(self):
        # setting f2 pops tim_magnification from the cell's geometry section
        spec = SweepSpec(preset_with(),
                         axis1=Axis("geometry.f2", 0.02, 0.07, 4))
        run_sweep(spec)
        assert spec.config == preset_with()
        assert "f2" not in spec.config["geometry"]

    @pytest.mark.parametrize("quantities", [
        None, ("p_beam", "status"), ("spot_radius",)],
        ids=["all", "p_beam-status", "spot_radius"])
    @pytest.mark.parametrize("overrides, status", [
        ((), "ok"), ((("link.p_in", 5.0),), "sub-threshold"),
        ((("geometry.fr2", 2.0),), "unstable")],
        ids=["preset", "sub-threshold", "unstable"])
    def test_stages_only_read_their_config(self, overrides, status,
                                           quantities):
        # the cells of a sweep share every section they do not sweep, so
        # no stage may write one: read-only sections change no result
        cfg = preset_with(*overrides)
        frozen = types.MappingProxyType(
            {s: types.MappingProxyType(keys) for s, keys in cfg.items()})
        point = evaluate_operating_point(frozen, quantities)
        assert point == evaluate_operating_point(cfg, quantities)
        if quantities != ("spot_radius",):      # it stops at ray optics
            assert point.status == status

    def test_cell_configs_match_set_path(self):
        # axis 2 sets f2 in axis 1's section: every cell drops
        # tim_magnification, as set_path does
        seen = []

        def record(cfg, quantities=None):
            seen.append(cfg)
            return OperatingPoint("stable", 0.0)

        spec = SweepSpec(preset_with(("receiver.mu", 0.5)),
                         axis1=Axis("geometry.d3", 2.0, 10.0, 3),
                         axis2=Axis("geometry.f2", 0.02, 0.07, 2))
        result = run_sweep(spec, evaluate_fn=record)
        cells = [(d3, f2) for d3 in result.axis1_values
                 for f2 in result.axis2_values]
        for cfg, (d3, f2) in zip(seen, cells, strict=True):
            want = preset_with(("receiver.mu", 0.5))
            set_path(want, "geometry.d3", d3)
            set_path(want, "geometry.f2", f2)
            assert cfg == want
        assert spec.config == preset_with(("receiver.mu", 0.5))

    @pytest.mark.parametrize("path1, path2", [
        ("geometry.d3", "geometry.d3"), ("link.p_in", "link.p_in"),
        ("geometry.f2", "geometry.tim_magnification"),
        ("geometry.tim_magnification", "geometry.f2")])
    def test_two_axes_on_one_parameter_rejected(self, path1, path2):
        # the second axis would overwrite the first in every cell
        with pytest.raises(ValueError, match="set the same parameter"):
            SweepSpec(preset_with(), axis1=Axis(path1, 1.0, 2.0, 3),
                      axis2=Axis(path2, 3.0, 4.0, 3))

    def test_unstable_points_are_statuses_not_errors(self):
        # fr2 = 10 m leaves part of the distance range unstable at M = 12
        spec = SweepSpec(preset_with(("geometry.fr2", 10.0)),
                         axis1=Axis("geometry.d3", 2.0, 10.0, 9))
        result = run_sweep(spec)
        statuses = set(result.statuses())
        assert "unstable" in statuses
        assert "ok" in statuses

    def test_overrides_applied(self):
        spec = SweepSpec(preset_with(("link.p_in", 150.0)),
                         axis1=Axis("receiver.mu", 0.1, 0.9, 2))
        result = run_sweep(spec)
        assert get_path(result.spec.config, "link.p_in") == 150.0
        assert [p.p_in for p in result.points] == [150.0, 150.0]


class TestReduceMax:
    @staticmethod
    def two_axis_result():
        spec = SweepSpec(preset_with(("geometry.fr2", 11.0)),
                         axis1=Axis("geometry.tim_magnification", 1.0, 12.0, 3),
                         axis2=Axis("geometry.d3", 2.0, 10.0, 5))
        return run_sweep(spec)

    def test_elementwise_maximum(self):
        result = self.two_axis_result()
        curve = reduce_max(result, "spot_radius")
        n2 = len(result.axis2_values)
        for i, y in enumerate(curve):
            vals = [p.spot_radius for p in result.points[i * n2:(i + 1) * n2]
                    if p.spot_radius is not None]
            assert y == max(vals)

    def test_constant_quantity(self):
        result = self.two_axis_result()
        curve = reduce_max(result, "p_in")
        assert all(y == 100.0 for y in curve)

    def test_gap_marker_for_empty_slice(self):
        spec = SweepSpec(preset_with(("geometry.fr2", 10.0)),
                         axis1=Axis("geometry.tim_magnification", 12.0, 14.0, 2),
                         axis2=Axis("geometry.d3", 9.0, 10.0, 3))
        curve = reduce_max(run_sweep(spec), "spot_radius")
        assert curve == [None, None]

    def test_tim_curve_below_uncompressed_curve(self):
        # spot maximum over the 2-10 m range: compressed cavities stay well
        # below the uncompressed one
        def curve_for(m):
            spec = SweepSpec(
                preset_with(("geometry.fr2", 11.0)),
                axis1=Axis("geometry.tim_magnification", m, m + 1e-9, 2),
                axis2=Axis("geometry.d3", 2.0, 10.0, 17))
            return reduce_max(run_sweep(spec), "spot_radius")

        with_tim = curve_for(10.0)
        without = curve_for(1.0)
        assert all(a < b for a, b in zip(with_tim, without))

    def test_needs_two_axes(self):
        with pytest.raises(ValueError):
            reduce_max(run_sweep(mu_spec(2)), "p_beam")


def quadratic_stub(vertex, path="receiver.mu"):
    def evaluate(cfg, quantities=None):
        x = get_path(cfg, path)
        return OperatingPoint(status="ok", p_in=0.0,
                              p_beam=-(x - vertex) ** 2)
    return evaluate


class TestFindOptimum:
    def test_recovers_quadratic_vertex(self):
        vertex = 0.4321
        spec = SweepSpec(preset_with(),
                         axis1=Axis("receiver.mu", 0.0, 1.0, 21))
        params, value = find_optimum(spec, "p_beam",
                                     evaluate_fn=quadratic_stub(vertex))
        assert params["receiver.mu"] == pytest.approx(vertex, abs=2e-6)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_minimize(self):
        vertex = 0.25
        def stub(cfg, quantities=None):
            x = get_path(cfg, "receiver.mu")
            return OperatingPoint(status="ok", p_in=0.0,
                                  p_beam=(x - vertex) ** 2)
        spec = SweepSpec(preset_with(),
                         axis1=Axis("receiver.mu", 0.0, 1.0, 11))
        params, value = find_optimum(spec, "p_beam", sense="min",
                                     evaluate_fn=stub)
        assert params["receiver.mu"] == pytest.approx(vertex, abs=2e-6)

    def test_optimal_output_coupling(self):
        # best M2 reflectivity for beam power at 100 W lands near 0.9
        spec = SweepSpec(preset_with(("gain.l", 0.15e-6),
                                     ("link.p_in", 100.0)),
                         axis1=Axis("geometry.r2", 0.80, 0.99, 39))
        params, p_beam = find_optimum(spec, "p_beam")
        assert 0.88 <= params["geometry.r2"] <= 0.97
        assert p_beam > 0

    def test_efficiency_shares_argmax_with_power(self):
        overrides = (("gain.l", 0.15e-6), ("link.p_in", 100.0))
        spec = SweepSpec(preset_with(*overrides),
                         axis1=Axis("geometry.r2", 0.80, 0.99, 39))
        p_params, _ = find_optimum(spec, "p_beam")
        e_params, _ = find_optimum(spec, "eta_b")
        assert p_params["geometry.r2"] == \
            pytest.approx(e_params["geometry.r2"], abs=1e-4)

    def test_probes_stay_in_schema_range(self):
        # the exponent's range is "1 or 2": every golden-section probe
        # between the two grid values falls outside it
        path = "losses.slope_loss_exponent"
        seen = []

        def checked(cfg, quantities=None):
            seen.append(get_path(cfg, path))
            check_value(path, seen[-1])
            return evaluate_operating_point(cfg, quantities)

        spec = SweepSpec(preset_with(), axis1=Axis(path, 1.0, 2.0, 2))
        params, _ = find_optimum(spec, "p_beam", evaluate_fn=checked)
        assert seen == [1.0, 2.0]
        assert params[path] in (1.0, 2.0)

    def test_refines_axis_far_above_one(self):
        # the bracket cannot narrow below the float spacing at 1e24, so the
        # search must stop at a width relative to the axis values
        vertex = 1.7e24
        probes = []
        stub = quadratic_stub(vertex, path="gain.n0")

        def capped(cfg, quantities=None):
            probes.append(get_path(cfg, "gain.n0"))
            if len(probes) > 1000:
                raise RuntimeError("golden-section search does not stop")
            return stub(cfg, quantities)

        spec = SweepSpec(preset_with(), axis1=Axis("gain.n0", 1e24, 3e24, 5))
        params, _ = find_optimum(spec, "p_beam", evaluate_fn=capped)
        assert params["gain.n0"] == pytest.approx(vertex, rel=1e-6)

    def test_no_stable_point_raises(self):
        def never(cfg, quantities=None):
            return OperatingPoint(status="unstable", p_in=0.0)
        spec = SweepSpec(preset_with(),
                         axis1=Axis("receiver.mu", 0.0, 1.0, 5))
        with pytest.raises(OptimizationError):
            find_optimum(spec, "p_beam", evaluate_fn=never)


class TestDeterminism:
    def test_identical_csv_bytes(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            result = run_sweep(mu_spec(9))
            cols = [Column("mu", "", result.axis1_values),
                    Column("c_tilde", "bit/s/Hz",
                           [p.c_tilde for p in result.points]),
                    Column("status", "", result.statuses())]
            write_curve_file(tmp_path / name, "det-check", result.spec.config,
                             cols)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_csv_roundtrips_exact_floats(self, tmp_path):
        result = run_sweep(mu_spec(5))
        values = [p.c_tilde for p in result.points]
        write_curve_file(tmp_path / "c.csv", "rt", result.spec.config,
                         [Column("c_tilde", "", values)])
        rows = [line for line in
                (tmp_path / "c.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        parsed = [float(r) for r in rows[1:]]
        assert parsed == values

    def test_bytes_match_row_by_row_reference(self, tmp_path):
        # values that compare equal but print apart (0.0, -0.0), NaNs that
        # are equal to nothing, one NaN object repeated, one value in two
        # columns, missing values and statuses
        nan = float("nan")
        signed = [0.0, -0.0, 0.0, 2.5, None, -0.0, nan, nan, float("nan"),
                  math.inf, -math.inf, 2.5, 1e-300, -0.0, 0.0]
        columns = [Column("a", "W", signed),
                   Column("b", "", [(-v if v is not None else v)
                                    for v in signed]),
                   Column("c", "m", [2.5, 1e-300] * 7 + [None]),
                   Column("d", "", tuple(reversed(signed))),
                   Column("status", "", ["ok", "unstable", "ok",
                                         "sub-threshold", "unstable"] * 3)]
        cfg = preset_with()
        write_curve_file(tmp_path / "new.csv", "mixed", cfg, columns)
        curve_reference.write_curve_file(tmp_path / "ref.csv", "mixed", cfg,
                                         columns)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        rows = new.decode().splitlines()[-15:]
        assert [r.split(",")[:2] for r in rows[:3]] == \
            [["0.0", "-0.0"], ["-0.0", "0.0"], ["0.0", "-0.0"]]


def unpruned(cfg, quantities=None):
    return evaluate_operating_point(cfg)


class TestPruning:
    """Evaluating only the stages a caller reads changes no number."""

    def test_stages_follow_the_quantities(self):
        cfg = get_preset("paper-2022")
        full = evaluate_operating_point(cfg)
        spot = evaluate_operating_point(cfg, ("spot_radius",))
        gain = evaluate_operating_point(cfg, ("p_beam", "status"))
        assert spot == OperatingPoint("stable", full.p_in, full.spot_radius)
        receiver = ("p_pv_in", "p_apd_in", "p_e_out_raw", "p_e_out", "eta_e",
                    "i_d", "n_thermal_sq", "n_shot_sq", "n_total_sq",
                    "c_tilde")
        assert gain == full._replace(**dict.fromkeys(receiver))
        assert evaluate_operating_point(cfg, FIELD_UNITS) == full
        assert evaluate_operating_point(cfg, None) == full

    @pytest.mark.parametrize("names, depth", [
        (("spot_radius",), 0), (("p_in", "status"), 1),
        (("eta_b", "spot_radius"), 1), (("c_tilde",), 2),
        (("status", "p_e_out", "p_beam"), 2), (tuple(FIELD_UNITS), 2),
    ])
    def test_stage_from_any_iterable_of_names(self, names, depth):
        # the deepest stage any name needs (0 ray optics, 1 gain, 2
        # receiver), read the same from any iterable, a one-shot generator
        # included
        cfg = get_preset("paper-2022")
        point = evaluate_operating_point(cfg, names)
        assert (point.status == "stable") == (depth == 0)
        assert (point.p_beam is None) == (depth < 1)
        assert (point.c_tilde is None) == (depth < 2)
        for quantities in (list(names), dict.fromkeys(names),
                           (n for n in names)):
            assert evaluate_operating_point(cfg, quantities) == point

    def test_no_names_runs_ray_optics_only(self):
        cfg = get_preset("paper-2022")
        full = evaluate_operating_point(cfg)
        for quantities in ((), [], {}, iter(())):
            assert evaluate_operating_point(cfg, quantities) == \
                OperatingPoint("stable", full.p_in, full.spot_radius)

    @pytest.mark.parametrize("names", [("nope",), ("status", "nope"),
                                       ("spot_radius", "x")])
    def test_unknown_name_is_a_key_error(self, names):
        cfg = get_preset("paper-2022")
        for quantities in (names, list(names), (n for n in names)):
            with pytest.raises(KeyError):
                evaluate_operating_point(cfg, quantities)

    @pytest.mark.parametrize("function, stage", [
        ("one_trip_matrix", "ray optics"),
        ("diffraction_survival", "ray optics"),
        ("evaluate_gain", "gain"), ("evaluate_receiver", "receiver"),
    ])
    def test_python_math_error_names_the_stage(self, monkeypatch, function,
                                               stage):
        # Python's own math errors get the stage that raised them named; a
        # formula guard's message names its values and is passed unchanged
        cfg = get_preset("paper-2022")
        for error, message in (
                (OverflowError("math range error"),
                 f"math range error ({stage} stage)"),
                (ZeroDivisionError("float division by zero"),
                 f"float division by zero ({stage} stage)"),
                (ValueError("math domain error"),
                 f"math domain error ({stage} stage)"),
                (ValueError("w = 0"), "w = 0")):
            def fail(*args, error=error):
                raise error
            monkeypatch.setattr(model, function, fail)
            with pytest.raises(ConfigError) as e:
                evaluate_operating_point(cfg)
            assert str(e.value) == \
                f"settings outside the model's numeric domain: {message}"

    @pytest.mark.parametrize("quantities", [None, ("spot_radius",)])
    def test_overflowing_matrix_is_an_error_at_every_depth(self, quantities):
        cfg = get_preset("paper-2022")
        set_path(cfg, "geometry.tim_magnification", 1e308)
        with pytest.raises(ConfigError, match="numeric domain"):
            evaluate_operating_point(cfg, quantities)

    def test_fig5a_spot_only_grids(self):
        statuses = set()
        for _, spec, quantities, reduced in figures._series_sweeps("5a", 25):
            assert quantities == ("spot_radius",) and reduced
            pruned = run_sweep(spec, quantities=quantities)
            full = run_sweep(spec)
            statuses.update(pruned.statuses())
            for p, f in zip(pruned.points, full.points, strict=True):
                assert repr(p.spot_radius) == repr(f.spot_radius)
                assert (p.status == "unstable") == (f.status == "unstable")
        assert statuses == {"stable", "unstable"}

    def test_figures_byte_identical_without_pruning(self, tmp_path,
                                                    monkeypatch):
        for fid in figures.FIGURE_IDS:
            figures.reproduce_figure(fid, tmp_path / "pruned", points=9)
        monkeypatch.setattr(
            figures, "run_sweep",
            lambda spec, quantities=None: sweep.run_sweep(spec))
        for fid in figures.FIGURE_IDS:
            figures.reproduce_figure(fid, tmp_path / "full", points=9)
        names = sorted(f.name for f in (tmp_path / "full").iterdir())
        assert len(names) == 2 * len(figures.FIGURE_IDS)
        for name in names:
            assert (tmp_path / "pruned" / name).read_bytes() == \
                (tmp_path / "full" / name).read_bytes(), name

    @pytest.mark.parametrize("objective", ["p_beam", "p_e_out", "c_tilde"])
    def test_find_optimum_identical_without_pruning(self, objective):
        spec = SweepSpec(preset_with(("gain.l", 0.15e-6),
                                     ("receiver.mu", 0.5)),
                         axis1=Axis("geometry.r2", 0.80, 0.99, 39))
        assert find_optimum(spec, objective) == \
            find_optimum(spec, objective, evaluate_fn=unpruned)


class TestFigures:
    REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

    def test_figures_match_bench_reference(self, tmp_path):
        for fid in figures.FIGURE_IDS:
            figures.reproduce_figure(fid, tmp_path, points=121)
            csv = (tmp_path / f"fig{fid}.csv").read_bytes()
            assert csv == (self.REFERENCE / f"fig{fid}.csv").read_bytes(), fid
            header = next(line for line in csv.decode().splitlines()
                          if not line.startswith("#")).split(",")
            plot = json.loads((tmp_path / f"fig{fid}.plot.json").read_text())
            assert [s["column"] for s in plot["series"]] == \
                [c for c in header[1:] if not c.startswith("status[")], fid

    def test_gap_status_for_empty_slice(self, tmp_path, monkeypatch):
        # fr2 = 10 m leaves every d3 in 9-10 m unstable for M in 12-14
        row = ("geometry.fr2", (10.0,),
               ("geometry.tim_magnification", 12.0, 14.0),
               ("geometry.d3", 9.0, 10.0), (), ("spot_radius",))
        monkeypatch.setitem(figures._FIGURES, "5a", row)
        figures.reproduce_figure("5a", tmp_path, points=3)
        rows = [line.split(",") for line in
                (tmp_path / "fig5a.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0] == ["M", "spot_radius[fr2=10m]", "status[fr2=10m]"]
        assert [r[1:] for r in rows[1:]] == [["", "gap"]] * 3

    def test_unknown_id_creates_no_out_dir(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure id '99'"):
            figures.reproduce_figure("99", tmp_path / "new")
        assert not (tmp_path / "new").exists()


class TestOperatingPoint:
    def test_fields_follow_the_unit_table(self):
        assert OperatingPoint._fields == ("status", *FIELD_UNITS, "detail")

    def test_fields_follow_the_stage_records(self):
        # evaluate_operating_point fills the point positionally from the
        # gain and receiver records
        assert OperatingPoint._fields == (
            "status", "p_in", "spot_radius", *PowerResult._fields,
            *SwiptResult._fields, "detail")

    def test_immutable(self):
        op = evaluate_operating_point(get_preset("paper-2022"))
        with pytest.raises(AttributeError):
            op.p_beam = 0.0
