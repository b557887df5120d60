import copy
import itertools
import json
import math
import random
import re
import types
from pathlib import Path

import curve_reference
import pytest
from abcd import (
    d3_factors,
    d3_roots,
    exact_argmax,
    exact_beam_power,
    get_path,
    stable_d3_intervals,
)

from rbswipt import figures, model, ray_optics, sweep
from rbswipt.config import (
    SCHEMA,
    ConfigError,
    check_value,
    copy_config,
    get_preset,
    set_path,
)
from rbswipt.gain_power import POWER_UNITS, PowerResult, evaluate_gain
from rbswipt.model import FIELD_UNITS, OperatingPoint, evaluate_operating_point
from rbswipt.output import Column, write_curve_file
from rbswipt.receiver import SWIPT_UNITS, SwiptResult
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


def patch_evaluate(monkeypatch, fn):
    """Route every cell and probe through fn, a stand-in for
    model.evaluate_operating_point, which model looks up by its module-global
    name for each point of a line.  fn takes the cell's Config, then the
    quantities and what the line's first point lends, which a stub that
    builds its own point passes on or drops as *rest."""
    monkeypatch.setattr(model, "evaluate_operating_point", fn)


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
        for args, message in [
                (("link.p_in", 2.0, 1.0, 5), "axis link.p_in: need lo < hi"),
                (("link.p_in", 1.0, 2.0, 1),
                 "axis link.p_in: need count >= 2"),
                (("link.p_in", 1.0, 2.0, 3, "cubic"),
                 "axis link.p_in: unknown spacing cubic"),
                (("link.p_in", 0.0, 2.0, 3, "log"),
                 "axis link.p_in: log spacing needs lo > 0"),
                (("link.nope", 1.0, 2.0, 3),
                 "unknown parameter path 'link.nope'"),
                # the path is checked first
                (("x", 2.0, 1.0, 1), "unknown parameter path 'x'"),
                # finite bounds whose grid steps (hi - lo) * i overflow
                (("receiver.p_pth", -1e308, 5e307, 4),
                 "axis receiver.p_pth: lo = -1e+308 and hi = 5e+307 "
                 "overflow a linear grid of 4 values"),
                (("receiver.p_pth", -1e308, 1e308, 3),
                 "axis receiver.p_pth: lo = -1e+308 and hi = 1e+308 "
                 "overflow a linear grid of 3 values")]:
            with pytest.raises(ConfigError) as e:
                Axis(*args)
            assert str(e.value) == message

    @pytest.mark.parametrize("lo,hi,given", [
        (2.0, float("inf"), "hi = inf"),
        (float("-inf"), 2.0, "lo = -inf"),
        (float("nan"), 2.0, "lo = nan")])
    def test_non_finite_bound_named_as_given(self, lo, hi, given):
        with pytest.raises(ConfigError) as e:
            Axis("geometry.d3", lo, hi, 5)
        assert str(e.value) == f"axis geometry.d3: {given} is not finite"

    @pytest.mark.parametrize("lo, hi, count", [
        (0.2, 1.0, 7), (0.08, 1.0, 11), (0.1, 1.0, 14)])
    def test_linear_ends_are_exact(self, lo, hi, count):
        # the rounded formula puts these grids' last value an ulp above hi
        assert lo + (hi - lo) * (count - 1) / (count - 1) > hi
        values = Axis("receiver.mu", lo, hi, count).values()
        assert len(values) == count
        assert (values[0], values[-1]) == (lo, hi)
        assert values == sorted(values)

    @pytest.mark.parametrize("lo, hi, count", [
        (1e-7, 1e-5, 3), (0.3, 0.7, 5), (0.2, 1.0, 7)])
    def test_log_ends_are_exact(self, lo, hi, count):
        # exp(log(x)) need not be x: 1e-7 and 1e-5 come back an ulp off
        values = Axis("receiver.mu", lo, hi, count, "log").values()
        assert len(values) == count
        assert (values[0], values[-1]) == (lo, hi)

    @pytest.mark.parametrize("lo, hi, count, spacing", [
        (-1e308, 1e308, 2, "linear"), (-1e308, 5e307, 2, "linear"),
        (1e-300, 1e308, 5, "log")])
    def test_wide_finite_grids_accepted(self, lo, hi, count, spacing):
        # a 2-value grid computes no step, and a log grid steps in log(x)
        values = Axis("receiver.p_pth", lo, hi, count, spacing).values()
        assert len(values) == count and all(map(math.isfinite, values))
        assert (values[0], values[-1]) == (lo, hi)

    def test_records_are_named_tuples(self):
        ax = Axis("link.p_in", 1.0, 2.0)
        assert ax == ("link.p_in", 1.0, 2.0, 121, "linear")
        spec = SweepSpec(preset_with(), ax)
        assert spec.axis2 is None and spec == (spec.config, ax, None)


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
        assert {"ok", "unstable"} <= {p.status for p in result.points}
        for i, m in enumerate(result.axis1_values):
            for j, d3 in enumerate(result.axis2_values):
                cfg = get_preset("paper-2022")
                set_path(cfg, "geometry.fr2", 10.0)
                set_path(cfg, "geometry.tim_magnification", m)
                set_path(cfg, "geometry.d3", d3)
                assert result.points[i * len(result.axis2_values) + j] == \
                evaluate_operating_point(cfg)

    def test_cells_leave_base_config_untouched(self):
        # setting f2 pops tim_magnification from the cell's geometry
        # section, in a sweep's lines and in a search's probe line
        spec = SweepSpec(preset_with(),
                         axis1=Axis("geometry.f2", 0.02, 0.07, 4))
        for search in (run_sweep, lambda spec: find_optimum(spec, "p_beam")):
            search(spec)
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

    def test_cell_configs_match_set_path(self, monkeypatch):
        # axis 2 sets f2 in axis 1's section: every cell drops
        # tim_magnification, as set_path does.  A line sets one Config in
        # place, so each cell's is recorded as it is at its evaluation
        seen = []

        def record(cfg, *rest):
            seen.append(copy_config(cfg))
            return OperatingPoint("stable", 0.0)

        spec = SweepSpec(preset_with(("receiver.mu", 0.5)),
                         axis1=Axis("geometry.d3", 2.0, 10.0, 3),
                         axis2=Axis("geometry.f2", 0.02, 0.07, 2))
        patch_evaluate(monkeypatch, record)
        result = run_sweep(spec)
        cells = [(d3, f2) for d3 in result.axis1_values
                 for f2 in result.axis2_values]
        for cfg, (d3, f2) in zip(seen, cells, strict=True):
            want = preset_with(("receiver.mu", 0.5))
            set_path(want, "geometry.d3", d3)
            set_path(want, "geometry.f2", f2)
            assert cfg == want
        assert spec.config == preset_with(("receiver.mu", 0.5))

    def test_magnification_lines_on_a_config_holding_f2(self, monkeypatch):
        # f2 wins in open_cavity over a tim_magnification beside it, so a
        # line that kept the Config's f2 would evaluate f2 at every cell:
        # each line drops it from its own copy, as set_path does, in a 1-D
        # sweep, along axis 2 of a grid and in a search's lines.  Each
        # Config is recorded as it is at its evaluation
        seen = []

        def recorded(cfg, quantities=None, *rest):
            point = evaluate_operating_point(cfg, quantities, *rest)
            seen.append((copy_config(cfg), quantities, point))
            return point

        patch_evaluate(monkeypatch, recorded)
        base = ("geometry.f2", 60e-3)
        m_axis = Axis("geometry.tim_magnification", 1.0, 14.0, 9)
        statuses = set()
        for axes, search in (
                ((m_axis,), run_sweep),
                ((Axis("geometry.d3", 2.0, 10.0, 3), m_axis), run_sweep),
                ((m_axis,), lambda spec: find_optimum(spec, "spot_radius"))):
            spec = SweepSpec(preset_with(base), *axes)
            seen.clear()
            search(spec)
            assert len(seen) >= 9
            for cfg, quantities, point in seen:
                want = preset_with(base, *(
                    (a.path, get_path(cfg, a.path)) for a in axes))
                assert cfg == want
                assert repr(point) == repr(
                    evaluate_operating_point(want, quantities))
                statuses.add(point.status)
            assert spec.config == preset_with(base)
        assert {"ok", "sub-threshold", "unstable"} <= statuses

    @pytest.mark.parametrize("path1, path2", [
        ("geometry.d3", "geometry.d3"), ("link.p_in", "link.p_in"),
        ("geometry.f2", "geometry.tim_magnification"),
        ("geometry.tim_magnification", "geometry.f2")])
    def test_two_axes_on_one_parameter_rejected(self, path1, path2):
        # the second axis would overwrite the first in every cell
        with pytest.raises(ConfigError) as e:
            SweepSpec(preset_with(), axis1=Axis(path1, 1.0, 2.0, 3),
                      axis2=Axis(path2, 3.0, 4.0, 3))
        assert str(e.value) == \
            f"axes {path1} and {path2} set the same parameter"

    def test_unstable_points_are_statuses_not_errors(self):
        # fr2 = 10 m leaves part of the distance range unstable at M = 12
        spec = SweepSpec(preset_with(("geometry.fr2", 10.0)),
                         axis1=Axis("geometry.d3", 2.0, 10.0, 9))
        result = run_sweep(spec)
        statuses = {p.status for p in result.points}
        assert "unstable" in statuses
        assert "ok" in statuses

    def test_overrides_applied(self):
        spec = SweepSpec(preset_with(("link.p_in", 150.0)),
                         axis1=Axis("receiver.mu", 0.1, 0.9, 2))
        result = run_sweep(spec)
        assert get_path(result.spec.config, "link.p_in") == 150.0
        assert [p.p_in for p in result.points] == [150.0, 150.0]

    def test_only_a_grid_copies_the_config(self, monkeypatch):
        # a 1-D sweep or search hands spec.config to its one line, which
        # copies and resolves its own section (an f2 line drops
        # tim_magnification there) and writes no Config; only a 2-D grid's
        # rows share a copy of spec.config
        copies = []
        monkeypatch.setattr(sweep, "copy_config",
                            lambda cfg: copies.append(cfg) or copy_config(cfg))
        for axis in (Axis("geometry.f2", 0.05, 0.07, 5),
                     Axis("geometry.tim_magnification", 10.0, 14.0, 5),
                     Axis("geometry.d3", 2.0, 10.0, 5),
                     Axis("receiver.mu", 0.0, 0.99, 5)):
            spec = SweepSpec(preset_with(), axis)
            before = copy.deepcopy(spec.config)
            run_sweep(spec)
            find_optimum(spec, "spot_radius")
            assert spec.config == before, axis.path
        assert copies == []
        spec = p_in_mu_spec(counts=(3, 4))
        run_sweep(spec)
        assert copies == [spec.config]


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
    def evaluate(cfg, *rest):
        x = get_path(cfg, path)
        return OperatingPoint(status="ok", p_in=0.0, power=model._NO_POWER
                              ._replace(p_beam=-(x - vertex) ** 2))
    return evaluate


class TestFindOptimum:
    def test_recovers_quadratic_vertex(self, monkeypatch):
        vertex = 0.4321
        spec = SweepSpec(preset_with(),
                         axis1=Axis("receiver.mu", 0.0, 1.0, 21))
        patch_evaluate(monkeypatch, quadratic_stub(vertex))
        params, value = find_optimum(spec, "p_beam")
        assert params["receiver.mu"] == pytest.approx(vertex, abs=2e-6)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_minimize(self, monkeypatch):
        vertex = 0.25
        def stub(cfg, *rest):
            x = get_path(cfg, "receiver.mu")
            return OperatingPoint(status="ok", p_in=0.0, power=model._NO_POWER
                                  ._replace(p_beam=(x - vertex) ** 2))
        spec = SweepSpec(preset_with(),
                         axis1=Axis("receiver.mu", 0.0, 1.0, 11))
        patch_evaluate(monkeypatch, stub)
        params, value = find_optimum(spec, "p_beam", sense="min")
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

    def test_probes_stay_in_schema_range(self, monkeypatch):
        # the exponent's range is "1 or 2": every probe between the two
        # grid values falls outside it.  The exponent enters at the gain,
        # whose stage sees every grid cell and probe the search evaluates
        path = "losses.slope_loss_exponent"
        seen = []

        def checked(geometry, gain, pump, losses, *rest):
            seen.append(losses["slope_loss_exponent"])
            check_value(path, seen[-1])
            return evaluate_gain(geometry, gain, pump, losses, *rest)

        spec = SweepSpec(preset_with(), axis1=Axis(path, 1.0, 2.0, 2))
        monkeypatch.setattr(model, "evaluate_gain", checked)
        params, _ = find_optimum(spec, "p_beam")
        assert seen == [1.0, 2.0]
        assert params[path] in (1.0, 2.0)

    def test_refines_axis_far_above_one(self, monkeypatch):
        # the bracket cannot narrow below the float spacing at 1e24, so the
        # search must stop at a width relative to the axis values
        vertex = 1.7e24
        probes = []
        stub = quadratic_stub(vertex, path="gain.n0")

        def capped(cfg, *rest):
            probes.append(get_path(cfg, "gain.n0"))
            if len(probes) > 1000:
                raise RuntimeError("search does not stop")
            return stub(cfg, *rest)

        spec = SweepSpec(preset_with(), axis1=Axis("gain.n0", 1e24, 3e24, 5))
        patch_evaluate(monkeypatch, capped)
        params, _ = find_optimum(spec, "p_beam")
        assert params["gain.n0"] == pytest.approx(vertex, rel=1e-6)

        # brackets reaching 1e308, on the real model, whose scores stay
        # finite there: a + b overflows near the top, and a two-value axis
        # spanning the floats is a bracket of infinite width, kept as the
        # grid left it.  Every cell and probe is range-checked first, and
        # a probe out of range reaches no model, so the checks are capped
        monkeypatch.undo()
        checks = itertools.count()

        def capped_check(path, *values):
            if next(checks) > 1000:
                raise RuntimeError("search does not stop")
            check_value(path, *values)

        monkeypatch.setattr(sweep, "check_value", capped_check)
        for axis, objective in [(("link.p_in", 1.0, 1e308, 3), "p_beam"),
                                (("link.p_in", 1e-320, 1e308, 3, "log"),
                                 "p_beam"),
                                (("receiver.p_pth", -1e308, 1e308, 2),
                                 "p_e_out")]:
            spec = SweepSpec(preset_with(), axis1=Axis(*axis))
            assert find_optimum(spec, objective)[0] == {axis[0]: 1e308}

    @pytest.mark.parametrize("path, lo, hi, vertex", [
        ("receiver.p_pth", -1.0, 1.0, 0.0),
        ("gain.l", 1e-320, 3e-320, 2e-320),
        ("gain.l", 1e-321, 5e-321, 2e-321)],
        ids=["across-zero", "subnormal", "subnormal-narrow"])
    def test_refines_axis_near_zero(self, monkeypatch, path, lo, hi, vertex):
        # a stop width relative to the bracket's ends alone would shrink
        # with a bracket closing on 0, and one under the smallest float
        # would round to 0: either search would not stop (a zero width
        # stops the wider subnormal search by chance, at a probe equal to
        # the sum of its halved ends).  Golden-section steps alone take 29
        # probes from a bracket of width 1 to 1e-6
        probes = []
        stub = quadratic_stub(vertex, path=path)

        def capped(cfg, *rest):
            probes.append(get_path(cfg, path))
            if len(probes) > 100:
                raise RuntimeError("search does not stop")
            return stub(cfg, *rest)

        spec = SweepSpec(preset_with(), axis1=Axis(path, lo, hi, 5))
        patch_evaluate(monkeypatch, capped)
        params, _ = find_optimum(spec, "p_beam")
        assert lo <= params[path] <= hi
        if vertex == 0.0:
            # within the stop width, 1e-6 of the starting bracket [-0.5, 0.5]
            assert abs(params[path]) <= 1e-6

    def test_parabola_never_meets_a_non_finite_score(self, monkeypatch):
        # scores read as Watched floats, so a parabola fitted through an
        # unstable probe's -inf would compute nan and raise; the unstable
        # stretch below 0.45 forces golden-section steps until the best
        # three probes are stable
        class Watched(float):
            def _checked(self, op, other):
                out = op(float(self), float(other))
                if math.isnan(out):
                    raise ArithmeticError(f"nan from {self!r} and {other!r}")
                return Watched(out)

            def __mul__(self, other):
                return self._checked(float.__mul__, other)

            def __rmul__(self, other):
                return self._checked(float.__rmul__, other)

            def __sub__(self, other):
                return self._checked(float.__sub__, other)

            def __rsub__(self, other):
                return self._checked(float.__rsub__, other)

        def watched(cfg, *rest):
            x = get_path(cfg, "receiver.mu")
            if x < 0.45:
                return OperatingPoint(status="unstable", p_in=0.0)
            return OperatingPoint(status="ok", p_in=0.0, power=model._NO_POWER
                                  ._replace(p_beam=Watched(-(x - 0.47) ** 2)))

        spec = SweepSpec(preset_with(),
                         axis1=Axis("receiver.mu", 0.0, 1.0, 3))
        patch_evaluate(monkeypatch, watched)
        params, _ = find_optimum(spec, "p_beam")
        assert params["receiver.mu"] == pytest.approx(0.47, abs=2e-6)

    def test_no_stable_point_raises(self, monkeypatch):
        def never(cfg, *rest):
            return OperatingPoint(status="unstable", p_in=0.0)
        spec = SweepSpec(preset_with(),
                         axis1=Axis("receiver.mu", 0.0, 1.0, 5))
        patch_evaluate(monkeypatch, never)
        with pytest.raises(OptimizationError):
            find_optimum(spec, "p_beam")


def exact_cases():
    """(overrides, axis) of the searches judged against the exact optimizer
    oracle: CI's r2 search, the gain.l search whose bracket starts under
    1e-6 wide, then three r2 and three gain.l searches drawn at random."""
    rng = random.Random(2021)
    cases = [((("gain.l", 0.15e-6), ("receiver.mu", 0.5)),
              ("geometry.r2", 0.80, 0.99, 39)),
             ((), ("gain.l", 0.05e-6, 3e-6, 30))]
    for _ in range(3):
        cases.append(((("gain.l", rng.uniform(0.1e-6, 0.3e-6)),
                       ("link.p_in", rng.uniform(50.0, 150.0))),
                      ("geometry.r2", 0.80, 0.99, rng.randint(9, 39))))
    for _ in range(3):
        cases.append(((("geometry.r2", rng.uniform(0.85, 0.97)),
                       ("link.p_in", rng.uniform(50.0, 150.0))),
                      ("gain.l", 0.05e-6, 3e-6, rng.randint(9, 39))))
    return cases


class TestExactOptimum:
    """find_optimum against the exact maximiser of p_beam, from the gain
    chain written again in decimal (tests/abcd.py)."""

    # on these cases every point within the stop width of the maximiser
    # scores within a relative 2.1e-11 of the maximum (at most, on CI's r2
    # search), and float evaluation adds about 1e-15
    REL = 1e-10

    @pytest.mark.parametrize("overrides, axis", exact_cases(),
                             ids=["ci-r2", "gain-l", "r2-1", "r2-2", "r2-3",
                                  "l-1", "l-2", "l-3"])
    def test_lands_within_the_stop_width(self, overrides, axis):
        cfg = preset_with(*overrides)
        path = axis[0]
        params, value = find_optimum(SweepSpec(cfg, Axis(*axis)), "p_beam")
        p_beam = exact_beam_power(cfg, path)
        a, b, x_star = exact_argmax(p_beam, *axis[1:])
        p_star = float(p_beam(x_star))
        stop_width = 1e-6 * float(max(abs(a), abs(b), b - a))
        assert abs(params[path] - float(x_star)) <= stop_width
        assert abs(value - p_star) <= self.REL * p_star
        assert p_star > 0


class TestDeterminism:
    def test_identical_csv_bytes(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            result = run_sweep(mu_spec(9))
            cols = [Column("mu", "", result.axis1_values),
                    Column("c_tilde", "bit/s/Hz",
                           [p.c_tilde for p in result.points]),
                    Column("status", "", [p.status for p in result.points])]
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


def unpruned(cfg, *rest):
    return evaluate_operating_point(cfg)


class TestPruning:
    """Evaluating only the stages a caller reads changes no number."""

    def test_stages_follow_the_quantities(self):
        cfg = get_preset("paper-2022")
        full = evaluate_operating_point(cfg)
        spot = evaluate_operating_point(cfg, ("spot_radius",))
        gain = evaluate_operating_point(cfg, ("p_beam", "status"))
        assert spot == OperatingPoint("stable", full.p_in, full.spot_radius)
        assert gain == full._replace(
            swipt=SwiptResult(*[None] * len(SWIPT_UNITS)))
        assert gain.swipt is model._NO_SWIPT
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
        ("open_cavity", "ray optics"),
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
            statuses.update(p.status for p in pruned.points)
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
    def test_find_optimum_identical_without_pruning(self, objective,
                                                     monkeypatch):
        spec = SweepSpec(preset_with(("gain.l", 0.15e-6),
                                     ("receiver.mu", 0.5)),
                         axis1=Axis("geometry.r2", 0.80, 0.99, 39))
        pruned = find_optimum(spec, objective)
        patch_evaluate(monkeypatch, unpruned)
        assert find_optimum(spec, objective) == pruned


# axes of the row-staging tests, with every entry stage among their
# sections; fr2 up from 2 m leaves rows unstable, p_in from 0 gives p_in = 0
ROW_AXES = (("geometry.fr2", 2.0, 20.0), ("geometry.d3", 2.0, 10.0),
            ("geometry.r2", 0.85, 0.95),
            ("geometry.tim_magnification", 1.0, 14.0),
            ("gain.l", 0.15e-6, 3e-6), ("gain.a", 1e-4, 3e-4),
            ("gain.g0", 1e5, 3e5), ("pump.eta_pc", 0.3, 0.9),
            ("losses.vc", 0.9, 1.0), ("link.p_in", 0.0, 150.0),
            ("receiver.mu", 0.0, 0.99), ("receiver.t_bg", 200.0, 400.0))


def p_in_mu_spec(*overrides, counts=(4, 5)) -> SweepSpec:
    return SweepSpec(preset_with(*overrides),
                     axis1=Axis("link.p_in", 0.0, 150.0, counts[0]),
                     axis2=Axis("receiver.mu", 0.0, 0.99, counts[1]))


# the chain's first three stages are the cavity opened up to lens f2, its
# spot radius and the gain's PowerResult.  Of these, the stages that run
# before a key enters are none for a geometry key but d3 and fr2 (the open
# cavity) and r1 and r2 (its spot radius too), all three for a receiver
# key and two for any other
KEYED = {"geometry.d3": 1, "geometry.fr2": 1, "geometry.r1": 2,
         "geometry.r2": 2}


def stages_before(path):
    return KEYED.get(path, {"geometry": 0, "receiver": 3}.get(
        path.partition(".")[0], 2))


# how many of the three a point of each status ran
STAGES_RAN = {"unstable": 1, "stable": 2, "ok": 3, "sub-threshold": 3}


def line_stage_calls(points, shared):
    """The stage calls a line's points make when each later point reuses
    the first `shared` stages of the line's first point and runs the rest
    itself: a cavity opened, a spot radius taken and a gain evaluated once
    for the whole line when shared, else by every point that needs it."""
    n = len(points)
    gains = sum(p.status in ("ok", "sub-threshold") for p in points)
    return {"open_cavity": 1 if shared >= 1 else n,
            "spot_radius_on_gain": 1 if shared >= 2 else n,
            "evaluate_gain": 1 if shared >= 3 else gains}


class TestRowStaging:
    """A 2-D grid's row is a line: its first cell lends the later cells the
    stages before axis 2 enters, and every cell is still the point of its
    own Config."""

    @staticmethod
    def grid_cases(rng, n):
        """(base overrides, axis-1 path, axis-2 path, quantities): an
        unstable row with p_in as axis 2, p_in = 0 rows, then n drawn at
        random from ROW_AXES."""
        quantity_sets = [None, ("status",), ("spot_radius",),
                         *((name,) for name in FIELD_UNITS)]
        cases = [((), "geometry.fr2", "link.p_in", ("status",)),
                 ((), "link.p_in", "receiver.mu", None),
                 ((("geometry.fr2", 2.0),), "gain.l", "receiver.mu", None)]
        paths = sorted(a[0] for a in ROW_AXES)
        for _ in range(n):
            base = rng.choice([(), (("geometry.fr2", 2.0),),
                               (("link.p_in", 5.0),)])
            path1, path2 = rng.sample(paths, 2)
            if {path1, path2} != {"geometry.fr2",
                                  "geometry.tim_magnification"}:
                cases.append((base, path1, path2, rng.choice(quantity_sets)))
        return cases

    def test_cells_match_single_points(self, monkeypatch):
        rng = random.Random(18)
        by_path = {a[0]: a for a in ROW_AXES}
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain", "evaluate_gain")
        statuses, sections, cuts = set(), set(), set()
        for base, path1, path2, quantities in self.grid_cases(rng, 200):
            spec = SweepSpec(preset_with(*base),
                             Axis(*by_path[path1], rng.randint(2, 4)),
                             Axis(*by_path[path2], rng.randint(2, 4)))
            counts.update(dict.fromkeys(counts, 0))
            result = run_sweep(spec, quantities=quantities)
            made = dict(counts)
            cells = [(v1, v2) for v1 in result.axis1_values
                     for v2 in result.axis2_values]
            for point, (v1, v2) in zip(result.points, cells, strict=True):
                cfg = preset_with(*base, (path1, v1), (path2, v2))
                assert repr(point) == repr(
                    evaluate_operating_point(cfg, quantities))
                statuses.add(point.status)
            sections.add(path2.partition(".")[0])
            # each row's later cells reuse the stages before axis 2 enters
            # that the row's first cell ran, and run the rest themselves:
            # the grid's stage calls, row by row
            n2, want = len(result.axis2_values), dict.fromkeys(counts, 0)
            for i in range(0, len(result.points), n2):
                row = result.points[i:i + n2]
                shared = min(stages_before(path2), STAGES_RAN[row[0].status])
                for name, n in line_stage_calls(row, shared).items():
                    want[name] += n
                cuts.add((row[0].status, shared))
            assert made == want, (base, path1, path2, quantities)
        assert statuses == {"ok", "sub-threshold", "stable", "unstable"}
        assert {"geometry", "receiver", "gain", "link"} <= sections
        # the draw covers every first-cell status with every number of
        # stages its row can reuse: none on a geometry axis but d3, fr2, r1
        # and r2, at most the cavity after an unstable first cell and at
        # most the spot radius after a stable one
        assert cuts == {("ok", 1), ("ok", 2), ("ok", 3),
                        ("stable", 0), ("stable", 1), ("stable", 2),
                        ("sub-threshold", 0), ("sub-threshold", 1),
                        ("sub-threshold", 2), ("sub-threshold", 3),
                        ("unstable", 0), ("unstable", 1)}

    def test_prefix_stops_at_the_deepest_stage_quantities_need(self):
        # g0 = 1 m^-1 overflows the threshold carrier density in the gain
        # stage: a spot-radius grid never reaches it, a beam-power grid does
        spec = p_in_mu_spec(("gain.g0", 1.0))
        result = run_sweep(spec, quantities=("spot_radius",))
        assert {p.status for p in result.points} == {"stable"}
        with pytest.raises(ConfigError) as e:
            run_sweep(spec, quantities=("p_beam",))
        assert str(e.value) == ("settings outside the model's numeric "
                                "domain: math range error (gain stage)")
        # the error cell (0, 0) raises evaluated on its own
        cfg = preset_with(("gain.g0", 1.0), ("link.p_in", 0.0),
                          ("receiver.mu", 0.0))
        with pytest.raises(ConfigError) as single:
            evaluate_operating_point(cfg, ("p_beam",))
        assert str(single.value) == str(e.value)

    def test_one_evaluation_per_cell(self, monkeypatch):
        # a line's first point lends: no point is evaluated only to be lent
        counts = self.count_calls(monkeypatch, "evaluate_operating_point")
        rng = random.Random(23)
        by_path = {a[0]: a for a in ROW_AXES}
        for base, path1, path2, quantities in self.grid_cases(rng, 60):
            axis1 = Axis(*by_path[path1], rng.randint(2, 5))
            axis2 = Axis(*by_path[path2], rng.randint(2, 5))
            for axes, cells in (((axis1,), axis1.count),
                                ((axis1, axis2), axis1.count * axis2.count)):
                counts["evaluate_operating_point"] = 0
                run_sweep(SweepSpec(preset_with(*base), *axes), quantities)
                assert counts["evaluate_operating_point"] == cells, (
                    path1, path2, quantities)

    @pytest.mark.parametrize("path", [
        *SCHEMA, *(f"{s}.{k}" for s in SCHEMA for k in SCHEMA[s])])
    def test_prefix_by_section(self, monkeypatch, path):
        # the stages a line's later points reuse from its first point, as a
        # 2-D row and as a 1-D line, read from the stage calls of a line of
        # three points at one value: the stages before the path enters, in
        # chain order (the cavity up to lens f2, the spot radius, the
        # PowerResult), cut to those the first point ran and, on a 1-D
        # line, to the spot radius.  A section stands for each of its keys
        # that enters with it; the preset derives f2 and lt
        keys = [path] if "." in path else [
            f"{path}.{k}" for k in SCHEMA[path] if f"{path}.{k}" not in KEYED]
        derived = {"geometry.f2": 0.06, "geometry.lt": 0.055}
        points = {"ok": ((), None),
                  "stable": ((), ("spot_radius",)),
                  "sub-threshold": ((("link.p_in", 0.0),), None),
                  "unstable": ((("geometry.fr2", 2.0),), None)}
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain", "evaluate_gain")
        for key in keys:
            for status, (base, quantities) in points.items():
                cfg = preset_with(*base)
                section, _, name = key.partition(".")
                value = cfg[section].get(name, derived.get(key))
                alone = evaluate_operating_point(
                    preset_with(*base, (key, value)), quantities)
                assert alone.status == status, key
                for dims, cap in ((2, 3), (1, 2)):
                    counts.update(dict.fromkeys(counts, 0))
                    line = model.line(cfg, key, quantities, dims == 1)
                    got = line([value] * 3)
                    assert [repr(p) for p in got] == [repr(alone)] * 3
                    shared = min(stages_before(key), STAGES_RAN[status], cap)
                    assert counts == line_stage_calls(got, shared), (
                        key, status, dims)
                    # a 1-D line's points each run the gain they need, and
                    # an unstable first point's line closes every cavity
                    assert dims == 2 or counts["evaluate_gain"] in (0, 3)
                    assert status != "unstable" or \
                        counts["spot_radius_on_gain"] == 3

    @staticmethod
    def count_calls(monkeypatch, *names):
        # each function counted where the chain calls it: by its name in
        # model, where a line's closure and each stage look it up
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, name=name, function=getattr(model, name)):
                counts[name] += 1
                return function(*args)
            monkeypatch.setattr(model, name, counted)
        return counts

    def test_stage_calls_on_a_p_in_mu_grid(self, monkeypatch):
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain", "evaluate_gain",
                                  "evaluate_receiver")
        result = run_sweep(p_in_mu_spec(counts=(4, 5)))
        # axis 1 starts at p_in = 0, whose row runs no receiver
        assert counts == {"open_cavity": 4, "spot_radius_on_gain": 4,
                          "evaluate_gain": 4, "evaluate_receiver": 3 * 5}
        assert [p.p_in for p in result.points[:5]] == [0.0] * 5
        # cells that need nothing past the row's gain run no stage
        counts.update(dict.fromkeys(counts, 0))
        run_sweep(p_in_mu_spec(counts=(4, 5)), quantities=("p_beam",))
        assert counts == {"open_cavity": 4, "spot_radius_on_gain": 4,
                          "evaluate_gain": 4, "evaluate_receiver": 0}

    def test_stage_calls_on_a_geometry_grid(self, monkeypatch):
        # each row along d3 opens its cavity once and closes it per cell
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain")
        spec = SweepSpec(preset_with(),
                         Axis("geometry.tim_magnification", 1.0, 14.0, 4),
                         Axis("geometry.d3", 2.0, 10.0, 5))
        run_sweep(spec, quantities=("spot_radius",))
        assert counts == {"open_cavity": 4, "spot_radius_on_gain": 4 * 5}
        # along M, every cell opens its own cavity
        counts.update(dict.fromkeys(counts, 0))
        run_sweep(SweepSpec(preset_with(), spec.axis2, spec.axis1),
                  quantities=("spot_radius",))
        assert counts == {"open_cavity": 4 * 5, "spot_radius_on_gain": 4 * 5}


class TestLineStaging:
    """A line, the points of a 1-D sweep or the probes of a search, opens
    its cavity once, at its first point, and runs ray optics once when its
    axis enters after ray optics and its first point is stable: each later
    point resumes from the stages the first point lends, and is still the
    point of its own Config."""

    count_calls = staticmethod(TestRowStaging.count_calls)

    def test_stage_calls_on_an_r2_line(self, monkeypatch):
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain",
                                  "diffraction_survival", "evaluate_gain")
        run_sweep(SweepSpec(preset_with(), Axis("geometry.r2", 0.85, 0.95, 7)))
        assert counts == {"open_cavity": 1, "spot_radius_on_gain": 1,
                          "diffraction_survival": 7, "evaluate_gain": 7}

    def test_stage_calls_in_a_search(self, monkeypatch):
        # the 39 grid cells share the grid line's cavity and the 6 probes
        # of Brent's method the probe line's, each opened and closed once
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain", "evaluate_gain")
        spec = SweepSpec(preset_with(("gain.l", 0.15e-6)),
                         Axis("geometry.r2", 0.80, 0.99, 39))
        find_optimum(spec, "p_beam")
        assert counts == {"open_cavity": 2, "spot_radius_on_gain": 2,
                          "evaluate_gain": 39 + 6}

    def test_stage_calls_in_the_ci_r2_search(self, monkeypatch):
        # CI's determinism step searches r2 for p_e_out: 39 grid cells and
        # 6 probes, each through the receiver
        counts = self.count_calls(monkeypatch, "evaluate_gain",
                                  "evaluate_receiver")
        spec = SweepSpec(preset_with(("gain.l", 0.15e-6),
                                     ("receiver.mu", 0.5)),
                         Axis("geometry.r2", 0.80, 0.99, 39))
        find_optimum(spec, "p_e_out")
        assert counts == {"evaluate_gain": 39 + 6,
                          "evaluate_receiver": 39 + 6}

    def test_stage_calls_in_a_d3_search(self, monkeypatch):
        # the 9 grid cells close the grid line's cavity, and the 28 probes
        # the probe line's: 37 evaluations, 2 cavities opened.  The optimum
        # is the axis end d3 = 2 m, where no parabola's vertex falls inside
        # the bracket, so every probe is a golden-section step
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain")
        spec = SweepSpec(preset_with(("geometry.fr2", 11.0)),
                         Axis("geometry.d3", 2.0, 10.0, 9))
        find_optimum(spec, "spot_radius")
        assert counts == {"open_cavity": 2, "spot_radius_on_gain": 9 + 28}
        # the probes set their own copy of the spec's Config
        assert spec.config == preset_with(("geometry.fr2", 11.0))

    def test_stage_calls_on_a_receiver_line(self, monkeypatch):
        # a receiver line (fig 9) lends ray optics only: every point runs
        # survival, the gain and the receiver
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain",
                                  "diffraction_survival", "evaluate_gain",
                                  "evaluate_receiver")
        run_sweep(SweepSpec(preset_with(), Axis("receiver.mu", 0.0, 0.99, 6)))
        assert counts == {"open_cavity": 1, "spot_radius_on_gain": 1,
                          "diffraction_survival": 6, "evaluate_gain": 6,
                          "evaluate_receiver": 6}

    def test_stage_calls_on_a_geometry_line(self, monkeypatch):
        # a geometry key other than r1 and r2 moves the cavity: a d3 or fr2
        # line opens it once and closes it per point, whether its first
        # point is stable or not (fr2 = 2 m), and any other key opens it per
        # point
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain")
        for base, axis, opened, first in (
                ((), ("geometry.d3", 2.0, 10.0), 1, "ok"),
                ((("geometry.fr2", 2.0),), ("geometry.d3", 2.0, 10.0), 1,
                 "unstable"),
                ((), ("geometry.fr2", 20.0, 40.0), 1, "ok"),
                ((), ("geometry.fr2", 2.0, 20.0), 1, "unstable"),
                ((), ("geometry.tim_magnification", 10.0, 14.0), 5, "ok"),
                ((), ("geometry.lt", 0.05, 0.06), 5, "unstable")):
            counts.update(dict.fromkeys(counts, 0))
            result = run_sweep(SweepSpec(preset_with(*base), Axis(*axis, 5)))
            assert counts == {"open_cavity": opened,
                              "spot_radius_on_gain": 5}, axis
            assert result.points[0].status == first, (base, axis)

    def test_unstable_lines_open_one_cavity(self, monkeypatch):
        # an unstable first point lends only its cavity: a line on an
        # unstable cavity opens it once and closes it at every point, as a
        # d3 line does
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain")
        base = (("geometry.fr2", 2.0),)
        for spec, lines, n in (
                (SweepSpec(preset_with(*base),
                           Axis("geometry.r2", 0.85, 0.95, 5)), 1, 5),
                (p_in_mu_spec(*base, counts=(3, 4)), 3, 3 * 4)):
            counts.update(dict.fromkeys(counts, 0))
            result = run_sweep(spec)
            assert counts == {"open_cavity": lines, "spot_radius_on_gain": n}
            axes = [a for a in (spec.axis1, spec.axis2) if a]
            grids = (result.axis1_values, result.axis2_values)[:len(axes)]
            for point, values in zip(result.points, itertools.product(*grids),
                                     strict=True):
                cfg = preset_with(*base, *((a.path, v) for a, v
                                           in zip(axes, values)))
                assert point.status == "unstable"
                assert repr(point) == repr(evaluate_operating_point(cfg))

    def test_line_of_no_values(self, monkeypatch):
        # a line called on no values returns no points and runs no stage;
        # its first value, in a later call, still starts the line
        names = ("evaluate_operating_point", "open_cavity",
                 "spot_radius_on_gain", "diffraction_survival",
                 "evaluate_gain", "evaluate_receiver")
        alone = [evaluate_operating_point(preset_with(("geometry.d3", d3)))
                 for d3 in (3.0, 4.0)]
        counts = self.count_calls(monkeypatch, *names)
        points = model.line(preset_with(), "geometry.d3", None)
        assert points([]) == []
        assert counts == dict.fromkeys(names, 0)
        assert repr(points([3.0, 4.0])) == repr(alone)
        assert points([]) == []
        # the d3 line's first point opened the cavity both points close
        assert counts["open_cavity"] == 1
        assert counts["evaluate_operating_point"] == \
            counts["spot_radius_on_gain"] == 2

    @pytest.mark.parametrize("path, lo, hi, first", [
        ("geometry.d1", 10e-3, 30e-3, None), ("geometry.d3", 2.0, 10.0, None),
        ("geometry.r2", 0.85, 0.95, None), ("gain.l", 0.15e-6, 3e-6, None),
        ("receiver.mu", 0.0, 0.99, None), ("geometry.fr2", 2.0, 40.0, 2.0)],
        ids=["d1", "d3", "r2", "gain-l", "mu", "unstable-first-fr2"])
    def test_line_points_match_single_points(self, path, lo, hi, first):
        # one path per _CHAIN entry, and an fr2 line whose first value is
        # unstable: the line, called on one value at a time in shuffled
        # order as a search calls it, gives each value's point as its own
        # Config evaluated alone does, and never writes the Config handed
        # to line
        rng = random.Random(29)
        values = [lo + (hi - lo) * rng.random() for _ in range(9)]
        values = values if first is None else [first, *values]
        statuses = set()
        # mixed quantities: a line resolves the deepest stage they need once
        for quantities in (None, ("spot_radius",), ("p_beam",),
                           ("status", "spot_radius", "c_tilde"),
                           ("p_beam", "status")):
            for dims in (2, 1):     # a grid's row, a 1-D line
                cfg = preset_with()
                points = model.line(cfg, path, quantities, dims == 1)
                for v in values:
                    point, = points([v])
                    assert repr(point) == repr(evaluate_operating_point(
                        preset_with((path, v)), quantities)), (path, v)
                    statuses.add(point.status)
                assert cfg == preset_with()
        assert ("unstable" in statuses) == (first is not None)
        assert statuses - {"unstable"}

    @staticmethod
    def line_cases(rng, n):
        """(base overrides, axis path) pairs: unstable first points (fr2 =
        2 m), first points at p_in = 0, every ROW_AXES path on the preset,
        then n drawn at random."""
        bases = [(), (("geometry.fr2", 2.0),), (("link.p_in", 0.0),),
                 (("link.p_in", 5.0),)]
        paths = [a[0] for a in ROW_AXES]
        return [((("geometry.fr2", 2.0),), "geometry.r2"),
                ((("geometry.fr2", 2.0),), "receiver.mu"),
                ((), "link.p_in"), ((("link.p_in", 0.0),), "gain.l"),
                *(((), path) for path in paths),
                *((rng.choice(bases), rng.choice(paths)) for _ in range(n))]

    def test_points_match_single_points(self):
        rng = random.Random(22)
        by_path = {a[0]: a for a in ROW_AXES}
        quantity_sets = [None, ("status",), ("spot_radius",),
                         *((name,) for name in FIELD_UNITS)]
        statuses, firsts = set(), set()
        for base, path in self.line_cases(rng, 150):
            quantities = rng.choice(quantity_sets)
            spec = SweepSpec(preset_with(*base),
                             Axis(*by_path[path], rng.randint(2, 5)))
            result = run_sweep(spec, quantities=quantities)
            for point, v in zip(result.points, result.axis1_values,
                                strict=True):
                cfg = preset_with(*base, (path, v))
                assert repr(point) == repr(
                    evaluate_operating_point(cfg, quantities)), (path, v)
                statuses.add(point.status)
            first = result.points[0]
            firsts.add((first.status, first.p_in == 0.0))
        assert statuses == {"ok", "sub-threshold", "stable", "unstable"}
        assert {("unstable", False), ("sub-threshold", True)} <= firsts

    def test_probes_match_single_points(self, monkeypatch):
        # every grid cell and search probe, evaluated with what the
        # search lends it, equals its own Config evaluated alone; each Config
        # is recorded as it is at its evaluation, since a search sets one
        # Config in place
        seen = []

        def recorded(cfg, quantities=None, *rest):
            point = evaluate_operating_point(cfg, quantities, *rest)
            seen.append((copy_config(cfg), quantities, point))
            return point

        patch_evaluate(monkeypatch, recorded)
        counts = self.count_calls(monkeypatch, "open_cavity")
        rng = random.Random(22)
        by_path = {a[0]: a for a in ROW_AXES}
        objectives = ("p_beam", "eta_b", "p_e_out", "c_tilde", "spot_radius")
        opened = evaluated = 0
        for base, path in self.line_cases(rng, 40):
            spec = SweepSpec(preset_with(*base),
                             Axis(*by_path[path], rng.randint(2, 7)))
            seen.clear()
            counts["open_cavity"] = 0
            try:
                find_optimum(spec, rng.choice(objectives))
            except OptimizationError:
                pass
            assert seen
            opened += counts["open_cavity"]
            evaluated += len(seen)
            for cfg, quantities, point in seen:
                assert repr(point) == repr(
                    evaluate_operating_point(cfg, quantities)), path
        # lines that lent saved work: fewer cavities opened than points
        assert opened < evaluated


    @pytest.mark.parametrize("overrides, message", [
        # f2 = -f1 * M and lt = f1 + f2 overflow to -inf
        ((("geometry.f1", 1e300), ("geometry.tim_magnification", 1e10)),
         "telescope spacing lt = f1 + f2 = -inf is not finite"),
        # f2 = -f1 * M underflows to 0
        ((("geometry.f1", 1e-300), ("geometry.tim_magnification", 1e-30)),
         "float division by zero (ray optics stage)")],
        ids=["lt-overflow", "f2-underflow"])
    def test_cavity_line_errors_match_single_points(self, overrides,
                                                    message):
        # a line that would lend its cavity fails at its first point as that
        # point fails evaluated alone: a ConfigError with the same text
        for axes in ((Axis("geometry.d3", 2.0, 10.0, 3),),
                     (Axis("geometry.fr2", 11.0, 20.0, 3),),
                     (Axis("link.p_in", 50.0, 150.0, 2),
                      Axis("geometry.d3", 2.0, 10.0, 3))):
            for quantities in (None, ("spot_radius",)):
                with pytest.raises(ConfigError) as e:
                    run_sweep(SweepSpec(preset_with(*overrides), *axes),
                              quantities)
                first = preset_with(*overrides,
                                    *((a.path, a.lo) for a in axes))
                with pytest.raises(ConfigError) as single:
                    evaluate_operating_point(first, quantities)
                assert str(e.value) == str(single.value)
                assert str(e.value).startswith(
                    f"settings outside the model's numeric domain: {message}")


def _d3_verdicts(result, configs):
    """Per cell of a sweep whose lines run along d3, given each line's
    Config: (unstable, inside a stable_d3_intervals interval, within a
    relative 1e-9 of a d3_roots root)."""
    d3s = result.axis2_values or result.axis1_values
    rows = [result.points[i:i + len(d3s)]
            for i in range(0, len(result.points), len(d3s))]
    for cfg, row in zip(configs, rows, strict=True):
        intervals = stable_d3_intervals(cfg["geometry"])
        roots = d3_roots(cfg["geometry"])
        for point, d3 in zip(row, d3s, strict=True):
            yield (point.status == "unstable",
                   any(lo < d3 < hi for lo, hi in intervals),
                   any(abs(d3 - r) <= 1e-9 * r for r in roots))


def test_statuses_follow_the_closed_form_stable_d3_intervals():
    # the model's status along d3 against tests/abcd.py's closed form: a
    # cell is unstable exactly outside the stable intervals, apart from
    # cells within a relative 1e-9 of a root, whose rounded sign may go
    # either way (figs 5a and 5b have none)
    figure_cells = []
    for fid in ("5a", "5b"):
        for _, spec, quantities, _ in figures._series_sweeps(fid, 121):
            result = run_sweep(spec, quantities)
            lines = [spec.config]
            if spec.axis2 is not None:     # one line along d3 per M
                lines = [copy.deepcopy(spec.config)
                         for _ in result.axis1_values]
                for cfg, m in zip(lines, result.axis1_values):
                    set_path(cfg, spec.axis1.path, m)
            figure_cells += _d3_verdicts(result, lines)
    assert len(figure_cells) == 3 * 121 * 121 + 3 * 121
    assert sum(near for *_, near in figure_cells) == 0
    # 5,130 unstable cells on fig 5a, 134 on fig 5b
    assert sum(unstable for unstable, *_ in figure_cells) == 5130 + 134
    # seeded random d3 lines: cavities drawn around the preset, with a
    # curved or flat M1 and M2, a given f2 or a magnification, and an
    # afocal or a drawn spacing (afocal behind a flat M1 gives c = 0)
    rng = random.Random(4)
    lines, drawn_cells = [], []
    for _ in range(120):
        cfg = preset_with(
            ("geometry.d1", rng.uniform(1e-3, 0.1)),
            ("geometry.d2", rng.uniform(1e-3, 0.1)),
            ("geometry.f1", rng.choice((-1, 1)) * rng.uniform(1e-3, 0.05)),
            rng.choice((("geometry.tim_magnification", rng.uniform(0.5, 20)),
                        ("geometry.f2", rng.choice((-1, 1))
                         * rng.uniform(1e-3, 0.2)))),
            ("geometry.fr1", rng.choice((math.inf, rng.uniform(1.0, 50.0)))),
            ("geometry.fr2", rng.choice((math.inf, rng.uniform(1.0, 50.0)))))
        if rng.random() < 0.5:
            set_path(cfg, "geometry.lt", rng.uniform(-0.1, 0.3))
        lo = rng.uniform(0.01, 20.0)
        axis = Axis("geometry.d3", lo, lo + rng.uniform(0.1, 30.0), 41)
        drawn_cells += _d3_verdicts(
            run_sweep(SweepSpec(cfg, axis), ("spot_radius",)), [cfg])
        lines.append(cfg)
    assert sum(near for *_, near in drawn_cells) == 0
    assert 0 < sum(unstable for unstable, *_ in drawn_cells) < len(drawn_cells)
    assert any(slope == 0 for cfg in lines
               for _, slope in d3_factors(cfg["geometry"]))
    for cells in (figure_cells, drawn_cells):
        assert [c for c in cells if c[0] == c[1] and not c[2]] == []


def _other_value(rng, cfg, path):
    """An in-range value for `path` other than cfg's (None if absent)."""
    section, _, key = path.partition(".")
    value = cfg[section].get(key)
    base = value or 1.0
    while True:
        v = rng.choice((base * rng.uniform(0.5, 1.5), 1.0, 2.0))
        try:
            check_value(path, v)
        except ConfigError:
            continue
        if v != value:
            return v


def _outcome(cfg, names):
    """cfg's status and `names` fields, evaluated through `names`, or
    "error" and the text of its ConfigError."""
    try:
        point = evaluate_operating_point(cfg, names)
    except ConfigError as e:
        return "error", str(e)
    return point.status, [getattr(point, name) for name in names]


def test_no_key_moves_a_field_written_before_its_section_enters():
    # model._CHAIN says at which stage each section, or a key entering later
    # than its section (d3 and fr2 after the open cavity, r1 and r2 at the
    # gain), enters the chain; a row or
    # line point shares every field of the stages before, so no key may
    # move one of them (the echoed p_in aside)
    rng = random.Random(21)
    paths = sorted(f"{s}.{k}" for s in SCHEMA for k in SCHEMA[s])
    configs = [get_preset("paper-2022")]
    while len(configs) < 5:
        cfg = get_preset("paper-2022")
        for path in rng.sample(paths, 6):
            set_path(cfg, path, _other_value(rng, cfg, path))
        configs.append(cfg)
    moved, statuses, keyed = set(), set(), set()
    for cfg in configs:
        for path in paths:
            section = path.partition(".")[0]
            if model._entry(path) != model._entry(section):
                keyed.add(path)
            other = copy.deepcopy(cfg)
            set_path(other, path, _other_value(rng, cfg, path))
            if repr(_outcome(other, FIELD_UNITS)) != repr(
                    _outcome(cfg, FIELD_UNITS)):
                moved.add(section)
            shared = [name for name, stage in model._STAGE.items()
                      if stage < model._entry(path) and name != "p_in"]
            if shared:
                before = _outcome(cfg, shared)
                assert repr(_outcome(other, shared)) == repr(before), path
                statuses.add(before[0])
    # each section's keys move some field, and the shared fields held
    # numbers: a spot radius through ray optics, a gain above threshold; no
    # r1 or r2 change moved the spot radius or the stable status
    assert moved == set(SCHEMA)
    assert {"stable", "ok"} <= statuses
    assert keyed == {"geometry.r1", "geometry.r2", "geometry.d3",
                     "geometry.fr2"}


class TestFigures:
    REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

    def test_figures_match_bench_reference(self, tmp_path):
        for fid in figures.FIGURE_IDS:
            csv_path, plot_path = figures.reproduce_figure(fid, tmp_path,
                                                           points=121)
            assert (csv_path, plot_path) == (
                tmp_path / f"fig{fid}.csv", tmp_path / f"fig{fid}.plot.json")
            csv = csv_path.read_bytes()
            assert csv == (self.REFERENCE / f"fig{fid}.csv").read_bytes(), fid
            header = next(line for line in csv.decode().splitlines()
                          if not line.startswith("#")).split(",")
            plot = json.loads(plot_path.read_text())
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

    @pytest.mark.parametrize("taken, out_dir, path", [
        ("fig9.plot.json/", "", "fig9.plot.json"),
        ("file", "file/new", "file/new/fig9.csv")], ids=["plot", "out-dir"])
    def test_file_in_the_way_writes_nothing(self, tmp_path, monkeypatch,
                                            taken, out_dir, path):
        # a library call checks both files before its first cell, as the
        # command does: a directory where the plot goes, or a file where
        # the directory goes, leaves fig9.csv unwritten too
        if taken.endswith("/"):
            (tmp_path / taken).mkdir()
        else:
            (tmp_path / taken).write_text("keep\n")

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran before the output was checked")

        monkeypatch.setattr(figures, "run_sweep", no_cells)
        with pytest.raises(ConfigError, match=re.escape(str(tmp_path / path))):
            figures.reproduce_figure("9", tmp_path / out_dir, points=3)
        assert [p.name for p in tmp_path.rglob("*")] == [taken.rstrip("/")]


class TestOperatingPoint:
    count_calls = staticmethod(TestRowStaging.count_calls)

    def test_fields_follow_the_unit_table(self):
        # the ray-optics fields, then one record per later stage, whose
        # fields are the rest of FIELD_UNITS in order
        ray = tuple(model._CHAIN[model._RAY_OPTICS].units)
        assert OperatingPoint._fields == (
            "status", *ray, "power", "swipt", "reason")
        assert tuple(FIELD_UNITS) == (*ray, *POWER_UNITS, *SWIPT_UNITS)

    def test_fields_follow_the_stage_records(self):
        # evaluate_operating_point fills the point positionally with the
        # gain and receiver records, each read through the point by field
        assert OperatingPoint._fields == (
            "status", "p_in", "spot_radius", "power", "swipt", "reason")
        assert (tuple(POWER_UNITS), tuple(SWIPT_UNITS)) == (
            PowerResult._fields, SwiptResult._fields)
        p = evaluate_operating_point(preset_with())
        assert [getattr(p, f) for f in PowerResult._fields] == list(p.power)
        assert [getattr(p, f) for f in SwiptResult._fields] == list(p.swipt)

    def test_every_path_builds_a_full_record(self, monkeypatch):
        # each return path of evaluate_operating_point builds its point with
        # tuple.__new__, which checks no length: every one is a whole record.
        # A line's second point resumes from its first: a receiver row's
        # from the cavity, spot radius and gain, a p_in row's from the cavity
        # and spot radius, a d3 line's from the cavity, stable or not
        full = evaluate_operating_point(preset_with())
        counts = self.count_calls(monkeypatch, "open_cavity",
                                  "spot_radius_on_gain", "evaluate_gain")
        seconds, calls = {}, {}
        for name, base, path, quantities, values in (
                ("receiver", (), "receiver.mu", None, [0.99, 0.3]),
                ("gain", (), "link.p_in", None, [100.0, 5.0]),
                ("d3", (), "geometry.d3", ("spot_radius",), [10.0, 3.0]),
                ("unstable d3", (("geometry.fr2", 2.0),), "geometry.d3",
                 None, [10.0, 3.0])):
            counts.update(dict.fromkeys(counts, 0))
            seconds[name] = model.line(preset_with(*base), path,
                                       quantities)(values)[1]
            calls[name] = tuple(counts.values())
        # (cavities opened, spot radii taken, gains evaluated) per line
        assert calls == {"receiver": (1, 1, 1), "gain": (1, 1, 2),
                         "d3": (1, 2, 0), "unstable d3": (1, 2, 0)}
        paths = {
            "spot only": evaluate_operating_point(preset_with(),
                                                  ("spot_radius",)),
            "unstable": evaluate_operating_point(
                preset_with(("geometry.fr2", 2.0))),
            "gain only": evaluate_operating_point(preset_with(), ("p_beam",)),
            "gain only, sub-threshold": evaluate_operating_point(
                preset_with(("link.p_in", 5.0)), ("p_beam",)),
            "full chain": full,
            "p_in = 0": evaluate_operating_point(
                preset_with(("link.p_in", 0.0))),
            "receiver cell lent a cavity, spot radius and gain":
                seconds["receiver"],
            "gain cell lent a cavity and spot radius": seconds["gain"],
            "d3 cell lent a cavity": seconds["d3"],
            "unstable d3 cell lent a cavity": seconds["unstable d3"],
        }
        received = {"full chain",
                    "receiver cell lent a cavity, spot radius and gain",
                    "gain cell lent a cavity and spot radius"}
        for name, p in paths.items():
            assert len(p) == len(OperatingPoint._fields), name
            assert p == OperatingPoint(*p), name
            assert isinstance(p.detail, str), name
            # the flat view: every field reads through the point as the
            # records hold it, each record whole
            assert tuple(getattr(p, f) for f in FIELD_UNITS) == (
                p.p_in, p.spot_radius, *p.power, *p.swipt), name
            assert len(p.power) == len(POWER_UNITS), name
            assert len(p.swipt) == len(SWIPT_UNITS), name
            # a stage that did not run holds the one shared all-None record
            gain_ran = p.status in ("ok", "sub-threshold")
            assert (p.power is model._NO_POWER) != gain_ran, name
            assert (p.swipt is model._NO_SWIPT) != (name in received), name
        assert set(model._NO_POWER + model._NO_SWIPT) == {None}
        assert [p.status for p in paths.values()] == [
            "stable", "unstable", "ok", "sub-threshold", "ok",
            "sub-threshold", "ok", "sub-threshold", "stable", "unstable"]
        assert paths["unstable"].detail.startswith("unstable resonator")
        assert paths["p_in = 0"].c_tilde is None

    def test_detail_formatted_only_when_read(self, monkeypatch):
        # a line of unstable and degenerate d3 cells keeps each cell's
        # format text and floats, as UnstableResonatorError was raised with
        # them, and formats no text until a point's detail is read
        formatted = []
        text_of = ray_optics.UnstableResonatorError.__str__
        monkeypatch.setattr(ray_optics.UnstableResonatorError, "__str__",
                            lambda e: formatted.append(e.args) or text_of(e))
        cases = ((("geometry.fr2", 2.0),), ray_optics._UNSTABLE, 5), (
            (("geometry.fr2", math.inf),), ray_optics._DEGENERATE, 4)
        for base, text, floats in cases:
            points = model.line(preset_with(*base), "geometry.d3", None)(
                [2.0, 4.0, 6.0, 8.0, 10.0])
            assert formatted == []
            for p in points:
                assert p.status == "unstable"
                assert p.reason[0] is text
                assert [type(x) for x in p.reason[1:]] == [float] * floats
                # repr shows the kept floats where it would show the text
                assert repr(p.reason) in repr(p)
            detail = points[2].detail
            assert formatted == [points[2].reason]
            assert type(detail) is str and detail not in repr(points[2])
            assert detail == text.format(*points[2].reason[1:])
            # the same text as the point evaluated alone
            alone = evaluate_operating_point(
                preset_with(*base, ("geometry.d3", 6.0)))
            assert repr(alone) == repr(points[2]) and alone.detail == detail
            formatted.clear()
        # a point of any other status has no reason and an empty detail
        p = evaluate_operating_point(preset_with())
        assert (p.reason, p.detail) == ((), "")

    def test_immutable(self):
        op = evaluate_operating_point(get_preset("paper-2022"))
        with pytest.raises(AttributeError):
            op.p_beam = 0.0
