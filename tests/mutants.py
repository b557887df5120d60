"""Mutation checks: small edits to the package that named tests must catch.

Run with `python tests/mutants.py` (the standard library and pytest only);
it exits 0 when every mutant is killed.  For each entry of MUTANTS it
copies src/ to a temporary directory, replaces the exact old text (which
must occur once) in the named file, checks that `rbswipt` imports from
the copy, runs only the named tests against the copy through PYTHONPATH,
with pytest's plugin autoload off (it roughly triples each start), and
requires each of them to fail.  An old text missing from its file
fails the run, so a refactor that moves mutated code restates its mutants
here.  pytest does not collect this file, and tier 1 does not run it: it
runs pytest once per mutant, two mutants at a time.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

ROW = "tests/test_sweep.py::TestRowStaging::"
PRUNING = "tests/test_sweep.py::TestPruning::"
LINE = "tests/test_sweep.py::TestLineStaging::"
FIND = "tests/test_sweep.py::TestFindOptimum::"
GAIN = "tests/test_gain_power.py::"
RECEIVER = "tests/test_receiver.py::"
TABLE = ("tests/test_sweep.py::"
         "test_no_key_moves_a_field_written_before_its_section_enters")
PINS = "tests/test_cli.py::test_traced_pins_hold"
UNWRITABLE = "tests/test_cli.py::test_unwritable_output_exit_code["
FIGURES = "tests/test_sweep.py::TestFigures::"

# (name, file under src/rbswipt, exact old text, new text, test ids that
# must each fail; a parametrized test fails when any of its cases does)
MUTANTS = [
    # the stage table of model.py
    ("link enters at the receiver", "model.py",
     '''"link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver",)),''',
     '''
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver", "link")),''',
     (ROW + "test_prefix_by_section", ROW + "test_cells_match_single_points",
      TABLE)),
    ("receiver enters at the gain", "model.py",
     '''"geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver",)),''',
     '''"geometry.r1", "geometry.r2", "receiver")),
    _Stage("receiver", SWIPT_UNITS, ()),''',
     (ROW + "test_prefix_by_section",
      ROW + "test_stage_calls_on_a_p_in_mu_grid")),
    ("gain and receiver stage names swapped", "model.py",
     '''_Stage("gain", POWER_UNITS, ("gain", "pump", "losses", "link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS,''',
     '''_Stage("receiver", POWER_UNITS, ("gain", "pump", "losses", "link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("gain", SWIPT_UNITS,''',
     (PRUNING + "test_python_math_error_names_the_stage",
      "tests/test_cli.py::TestEvaluate::test_python_math_error_names_the_stage")),
    ("survival named the gain stage", "model.py",
     'vd, running = diffraction_survival(gain["a"], w), _GAIN',
     'running = _GAIN\n            vd = diffraction_survival(gain["a"], w)',
     (PRUNING + "test_python_math_error_names_the_stage"
      "[diffraction_survival-ray optics]",)),
    # row staging (restated from the hand-run checks of row-staged sweeps):
    # a 2-D row's later cells resume from its first cell
    ("a line's first point runs every stage", "model.py",
     "start_line(cell, quantities, entry)",
     "start_line(cell, None, entry)",
     (ROW + "test_cells_match_single_points",
      ROW + "test_prefix_stops_at_the_deepest_stage_quantities_need")),
    ("rows lend nothing", "model.py",
     "_GAIN) if one_axis else _entry(path)",
     "_GAIN) if one_axis else 0",
     (ROW + "test_stage_calls_on_a_p_in_mu_grid",
      ROW + "test_prefix_by_section")),
    ("gain axes staged as receiver ones", "model.py",
     '''("gain", "pump", "losses", "link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver",)),''',
     '''("pump", "losses", "link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver", "gain")),''',
     (ROW + "test_prefix_by_section", ROW + "test_cells_match_single_points",
      TABLE)),
    # line staging: a 1-D sweep's points and a search's probes resume from
    # the first point's ray optics when the axis enters after ray optics
    ("r2 enters at ray optics", "model.py",
     '''"geometry.r1", "geometry.r2")),
    _Stage("receiver",''',
     '''"geometry.r1")),
    _Stage("receiver",''',
     (LINE + "test_stage_calls_on_an_r2_line",
      LINE + "test_stage_calls_in_a_search", TABLE)),
    ("1-D lines share ray optics", "model.py",
     "entry = min(_entry(path), _GAIN) if one_axis",
     "entry = _GAIN if one_axis",
     (LINE + "test_probes_match_single_points",
      LINE + "test_points_match_single_points")),
    ("d3 probes lent no cavity", "sweep.py",
     "return score(*probe([x]))",
     "return score(*line(spec.config, spec.axis1.path, quantities, True)"
     "([x]))",
     (LINE + "test_stage_calls_in_a_d3_search",
      LINE + "test_stage_calls_in_a_search")),
    ("a line's first point evaluated twice", "model.py",
     """                point, lend = start_line(cell, quantities, entry)
                out.append(point)
            else:
                out.append(evaluate_operating_point(cell, quantities, lend))
""", """                _, lend = start_line(cell, quantities, entry)
            out.append(evaluate_operating_point(cell, quantities, lend))
""",
     (LINE + "test_stage_calls_in_a_d3_search",
      ROW + "test_one_evaluation_per_cell")),
    ("every line shares ray optics", "model.py",
     "min(_entry(path), _GAIN) if one_axis else _entry(path)",
     "_GAIN if one_axis else max(_entry(path), _GAIN)",
     (LINE + "test_stage_calls_on_a_geometry_line",
      LINE + "test_points_match_single_points",
      LINE + "test_probes_match_single_points",
      ROW + "test_prefix_by_section")),
    ("1-D lines lent the first point's gain", "model.py",
     "entry = min(_entry(path), _GAIN) if one_axis",
     "entry = _RECEIVER if one_axis",
     (LINE + "test_probes_match_single_points",
      LINE + "test_points_match_single_points",
      PRUNING + "test_find_optimum_identical_without_pruning")),
    ("receiver lines lend the gain", "sweep.py",
     "line(row, axis.path, quantities, a2 is None)",
     "line(row, axis.path, quantities, False)",
     (LINE + "test_stage_calls_on_a_receiver_line",)),
    # a line decides once, in model.line, how many stages its first point
    # may lend: those before the line's key enters, at most the spot radius
    # on a 1-D line; start_line cuts that to the stages the point ran
    ("rows capped at ray optics", "model.py",
     "if one_axis else _entry(path)",
     "",
     (ROW + "test_stage_calls_on_a_p_in_mu_grid",
      ROW + "test_prefix_by_section")),
    ("the 1-D cap removed", "model.py",
     "min(_entry(path), _GAIN) if one_axis else _entry(path)",
     "_entry(path)",
     (LINE + "test_stage_calls_on_a_receiver_line",
      ROW + "test_prefix_by_section")),
    # the bench's traced pins: one ray-optics visit per figure cell, which
    # needs the 1-D cap and a line's cavity opened inside the model call
    # start_line.  Neither mutant changes an output, and opening the cavity
    # in the closure changes no stage call either
    ("1-D cap removed (raised to the receiver)", "model.py",
     "min(_entry(path), _GAIN) if one_axis",
     "min(_entry(path), _RECEIVER) if one_axis",
     (PINS,)),
    ("cavity opened in the line's closure", "model.py",
     "                point, lend = start_line(cell, quantities, entry)\n",
     """                cavity = open_cavity(cell["geometry"])
                point = evaluate_operating_point(cell, quantities, (cavity,))
                lend = (cavity, point.spot_radius, point.power)[:min(
                    entry, _RAN.get(point.status, _RECEIVER))]
""",
     (PINS,)),
    ("an unstable first point lends its spot radius", "model.py",
     "_RAN = {STATUS_UNSTABLE: _RAY_OPTICS,",
     "_RAN = {STATUS_UNSTABLE: _GAIN,",
     (LINE + "test_points_match_single_points",
      ROW + "test_prefix_by_section", ROW + "test_cells_match_single_points")),
    ("an unstable first point lends nothing", "model.py",
     "_RAN = {STATUS_UNSTABLE: _RAY_OPTICS,",
     "_RAN = {STATUS_UNSTABLE: 0,",
     (LINE + "test_unstable_lines_open_one_cavity",
      ROW + "test_prefix_by_section", ROW + "test_cells_match_single_points")),
    ("a lend one stage too long", "model.py",
     "point.power)[:entry]",
     "point.power)[:entry + 1]",
     (LINE + "test_points_match_single_points",
      ROW + "test_prefix_by_section", ROW + "test_cells_match_single_points")),
    ("a receiver row lent only its spot radius", "model.py",
     "_RAN.get(point.status, _RECEIVER)",
     "_RAN.get(point.status, _GAIN)",
     (ROW + "test_stage_calls_on_a_p_in_mu_grid",
      ROW + "test_prefix_by_section")),
    ("a point evaluated only to be lent", "model.py",
     "_RAN.get(point.status, _RECEIVER)",
     "_RAN.get(evaluate_operating_point(cfg, quantities).status, _RECEIVER)",
     (ROW + "test_one_evaluation_per_cell",)),
    # a d3 or fr2 line opens its cavity once, in its first point's call,
    # and closes it per point
    ("every line lent the first line's results", "model.py",
     "                point, lend = start_line(cell, quantities, entry)\n",
     "                point, lend = start_line(cell, quantities, entry)\n"
     '                lend = line.__dict__.setdefault("lend", lend)\n',
     (ROW + "test_cells_match_single_points",
      "tests/test_sweep.py::TestRunSweep::"
      "test_geometry_grid_with_unstable_cells")),
    ("d3 enters with its section", "model.py",
     '''("geometry.d3", "geometry.fr2")),''',
     '''("geometry.fr2",)),''',
     (LINE + "test_stage_calls_on_a_geometry_line",
      ROW + "test_stage_calls_on_a_geometry_grid",
      ROW + "test_prefix_by_section", TABLE)),
    # spot_radius_on_gain is the one place the cavity is closed
    ("spot_radius_on_gain closes without its fr2 lines", "ray_optics.py",
     """    a, c = -a + 0.0 * c, c2 * a - c
    b, d = -b + 0.0 * d, c2 * b - d
""", "",
     ("tests/test_ray_optics.py::test_bit_identical_to_compose_at_range_edges",
      "tests/test_sweep.py::"
      "test_statuses_follow_the_closed_form_stable_d3_intervals")),
    # an unstable point keeps the format text and floats its error was
    # raised with, and formats them only when its detail is read
    ("detail floats kept out of order", "ray_optics.py",
     "UnstableResonatorError(_UNSTABLE, radicand, a, b, c, d)",
     "UnstableResonatorError(_UNSTABLE, radicand, a, c, b, d)",
     ("tests/test_ray_optics.py::TestSpotRadius::"
      "test_unstable_and_degenerate_details_in_full",
      "tests/test_ray_optics.py::test_bit_identical_to_compose_at_range_edges",
      "tests/test_cli.py::TestEvaluate::"
      "test_unstable_report_matches_pinned_text")),
    ("detail formatted when the point is built", "model.py",
     "_NO_POWER, _NO_SWIPT, e.args))",
     "_NO_POWER, _NO_SWIPT, (str(e),)))",
     ("tests/test_sweep.py::TestOperatingPoint::"
      "test_detail_formatted_only_when_read",)),
    # a line cuts quantities, once, to the name of the deepest stage
    ("a line keeps the shallowest name", "model.py",
     "(max(quantities, key=_STAGE.__getitem__),)",
     "(min(quantities, key=_STAGE.__getitem__),)",
     (LINE + "test_line_points_match_single_points",)),
    # model.line evaluates a line's cells on its own copy of the swept
    # section, set in place, and points are built with tuple.__new__
    ("the swept key set after the cell", "model.py",
     """            swept[key] = value
            if lend is None:
                point, lend = start_line(cell, quantities, entry)
                out.append(point)
            else:
                out.append(evaluate_operating_point(cell, quantities, lend))
""", """            if lend is None:
                swept[key] = value
                point, lend = start_line(cell, quantities, entry)
                out.append(point)
            else:
                out.append(evaluate_operating_point(cell, quantities, lend))
                swept[key] = value
""",
     ("tests/test_sweep.py::TestRunSweep::test_matches_scalar_evaluation",
      "tests/test_sweep.py::TestRunSweep::test_cell_configs_match_set_path",
      LINE + "test_points_match_single_points",
      ROW + "test_cells_match_single_points")),
    ("a point's receiver record one field short", "model.py",
     "if stage == _RECEIVER and p_in > 0 else _NO_SWIPT)",
     "if stage == _RECEIVER and p_in > 0 else _NO_SWIPT[:-1])",
     ("tests/test_sweep.py::TestOperatingPoint::"
      "test_every_path_builds_a_full_record",)),
    # a point holds the gain's and the receiver's records, and reads each
    # of their fields through them
    ("a receiver field reads the power record", "model.py",
     '(("power", POWER_UNITS), ("swipt", SWIPT_UNITS))',
     '(("power", POWER_UNITS), ("power", SWIPT_UNITS))',
     ("tests/test_sweep.py::TestOperatingPoint::"
      "test_every_path_builds_a_full_record",)),
    ("start_line lends the not-run record", "model.py",
     "(cavity, point.spot_radius, point.power)[:entry]",
     "(cavity, point.spot_radius, _NO_POWER)[:entry]",
     (ROW + "test_prefix_by_section", ROW + "test_cells_match_single_points")),
    # the units oracle: a formula that drops a dimensional factor
    ("P_th without lambda_beam", "gain_power.py",
     "/ (lambda_beam * pump[\"eta_pc\"]", "/ (pump[\"eta_pc\"]",
     (GAIN + "test_every_gain_result_carries_its_unit",)),
    ("shot noise without its bandwidth", "receiver.py",
     "(i_d + receiver[\"i_bg\"]) * b_x", "(i_d + receiver[\"i_bg\"])",
     (RECEIVER + "test_every_receiver_result_carries_its_unit",)),
    # a line resolves its key (drops f2 or tim_magnification) on its own
    # copy of the swept section
    ("a line resolved on the caller's Config", "model.py",
     "resolve_path(cell, path)",
     "resolve_path(cfg, path)",
     ("tests/test_sweep.py::TestRunSweep::"
      "test_cells_leave_base_config_untouched",)),
    ("a line leaves its key unresolved", "model.py",
     "    resolve_path(cell, path)\n", "",
     ("tests/test_sweep.py::TestRunSweep::"
      "test_magnification_lines_on_a_config_holding_f2",)),
    ("line writes the caller's swept section", "model.py",
     "cell = {**cfg, section: dict(cfg[section])}",
     "cell = {**cfg}",
     (LINE + "test_line_points_match_single_points",)),
    # a line evaluates a list of values, each once and in order
    ("a line reorders its values", "model.py",
     "        for value in values:\n",
     "        for value in reversed(values):\n",
     (LINE + "test_points_match_single_points",
      ROW + "test_cells_match_single_points")),
    ("a line lends nothing after its first point", "model.py",
     "out.append(evaluate_operating_point(cell, quantities, lend))",
     "out.append(evaluate_operating_point(cell, quantities, ()))",
     (LINE + "test_stage_calls_on_an_r2_line",
      LINE + "test_stage_calls_in_a_d3_search",
      ROW + "test_stage_calls_on_a_p_in_mu_grid")),
    # per-cell overhead: the folded first element, the element powers without
    # isinf tests and the plain clamps
    ("folded d reduced to -1.0", "ray_optics.py",
     "a, b, c, d = -1.0, 0.0, c1, c1 * 0.0 - 1.0",
     "a, b, c, d = -1.0, 0.0, c1, -1.0",
     ("tests/test_ray_optics.py::test_bit_identical_to_compose_at_range_edges",)),
    ("fr2 ignored", "ray_optics.py",
     '1.0 / geometry.get("fr2", math.inf)',
     "0.0",
     ("tests/test_ray_optics.py::test_bit_identical_to_compose_at_range_edges",)),
    # lens f2's power is -1/f2 at f2 = inf too, as every element's is
    ("p2's infinity test put back", "ray_optics.py",
     "p2 = -1.0 / f2",
     "p2 = 0.0 if math.isinf(f2) else -1.0 / f2",
     ("tests/test_ray_optics.py::"
      "test_infinite_focal_lengths_take_no_special_case",)),
    # open_cavity hands out its four floats as a plain tuple, in order
    ("open_cavity returns its entries out of order", "ray_optics.py",
     "    return a, b, c, d\n",
     "    return a, c, b, d\n",
     ("tests/test_ray_optics.py::test_bit_identical_to_compose_at_range_edges",)),
    # the units oracle: w = (lam^2 B D / (pi^2 A C)) ** (1/4) is in m
    ("radicand with one lambda", "ray_optics.py",
     "-(lam * lam) * b * d",
     "-lam * b * d",
     ("tests/test_ray_optics.py::"
      "test_every_ray_optics_result_carries_its_unit",)),
    ("PV clamp keeps -0.0", "receiver.py",
     "p_e_out = p_e_out_raw if p_e_out_raw > 0.0 else 0.0",
     "p_e_out = p_e_out_raw if p_e_out_raw >= 0.0 else 0.0",
     (RECEIVER + "TestPvOutput::test_clamp_is_max_with_zero",)),
    # the stage formulas, each written once in evaluate_gain or
    # evaluate_receiver and tested through the stage
    ("saturation gain with v for v^2", "gain_power.py",
     "g_sat = -math.log(r1 * r2 * v * v)",
     "g_sat = -math.log(r1 * r2 * v)",
     (GAIN + "TestSaturationGain::test_round_trip_identity",
      GAIN + "TestSaturationGain::test_frozen_value",
      "tests/test_acceptance.py::test_criterion_7_property_suites")),
    ("slope efficiency ignoring slope_loss_exponent", "gain_power.py",
     'k = int(losses.get("slope_loss_exponent", 1))',
     "k = 1",
     (GAIN + "TestSlopeEfficiency::test_loss_exponent_two",)),
    ("beam power clamp keeps -0.0", "gain_power.py",
     "p_beam = p if (p := (p_in - p_th) * eta_s) > 0.0 else 0.0",
     "p_beam = p if (p := (p_in - p_th) * eta_s) >= 0.0 else 0.0",
     (GAIN + "TestBeamPower::test_clamp_is_max_with_zero",)),
    ("the APD fed the whole beam", "receiver.py",
     'i_d = receiver["nu"] * p_apd_in',
     'i_d = receiver["nu"] * p_beam',
     (RECEIVER + "TestSpectralEfficiency::test_full_chain_hand_oracle",)),
    ("both splitter arms mu p_beam", "receiver.py",
     "p_apd_in = p_beam - p_pv_in",
     "p_apd_in = p_pv_in",
     (RECEIVER + "TestSplitBeam::test_conservation",
      "tests/test_acceptance.py::test_criterion_7_property_suites")),
    ("shot noise without i_bg", "receiver.py",
     'n_shot_sq = 2.0 * ELECTRON_CHARGE * (i_d + receiver["i_bg"]) * b_x',
     "n_shot_sq = 2.0 * ELECTRON_CHARGE * i_d * b_x",
     (RECEIVER + "TestShotNoise::test_background_only",)),
    # formula guards only where a validated Config can fail
    ("A*C = 0 left unchecked", "ray_optics.py",
     """    if ac == 0:
        raise UnstableResonatorError(_DEGENERATE, a, b, c, d)
""", "",
     ("tests/test_ray_optics.py::TestSpotRadius::test_degenerate_ac_rejected",
      "tests/test_cli.py::test_ideal_retro_reflector_accepted")),
    ("radicand's isfinite test skipped", "ray_optics.py",
     """    if not math.isfinite(radicand):
        raise ValueError(_NOT_FINITE.format(radicand, a, b, c, d))
""", "",
     ("tests/test_cli.py::test_kept_formula_guard_reached_by_validated_"
      "settings[spot-radius radicand nan]",)),
    # every text that names a one-trip matrix formats it with _MATRIX
    ("matrix text without its D entry", "ray_optics.py",
     '_MATRIX = "[[{:.6g}, {:.6g}], [{:.6g}, {:.6g}]]"',
     '_MATRIX = "[[{:.6g}, {:.6g}], [{:.6g}]]"',
     ("tests/test_ray_optics.py::TestSpotRadius::"
      "test_unstable_and_degenerate_details_in_full",)),
    ("lt guard dropped", "ray_optics.py",
     """    if not math.isfinite(lt):
        raise ValueError(
            f"telescope spacing lt = f1 + f2 = {lt} is not finite")
""", "",
     ("tests/test_ray_optics.py::test_bit_identical_to_compose_at_range_edges",
      "tests/test_cli.py::TestEvaluate::"
      "test_overflowing_derived_f2_names_the_distances",
      "tests/test_records.py::"
      "test_no_validated_config_reaches_a_deleted_stage_guard")),
    # the energy budget the fuzz test checks on every ok and sub-threshold
    # point
    ("slope efficiency's log ratio inverted", "gain_power.py",
     "* math.log(r2) / math.log(prod))",
     "* math.log(prod) / math.log(r2))",
     ("tests/test_records.py::"
      "test_no_validated_config_reaches_a_deleted_stage_guard",)),
    ("the PV converter fed the whole beam", "receiver.py",
     'p_e_out_raw = receiver["eta_p"] * p_pv_in + receiver["p_pth"]',
     'p_e_out_raw = receiver["eta_p"] * p_beam + receiver["p_pth"]',
     ("tests/test_records.py::"
      "test_no_validated_config_reaches_a_deleted_stage_guard",)),
    ("losses.vc widened to > 0", "config.py",
     '"vc": ("dimensionless", False, "in (0, 1]"),',
     '"vc": ("dimensionless", False, "finite > 0"),',
     ("tests/test_records.py::"
      "test_no_validated_config_reaches_a_deleted_stage_guard",)),
    # ranges written once, and one entry for typed text
    ("a _RANGES typo", "config.py",
     '"in (0, 1]": lambda v: 0 < v <= 1,',
     '"in (0,1]": lambda v: 0 < v <= 1,',
     ("tests/test_config.py::test_ranges_and_schema_agree",)),
    # check_value checks a whole axis in one call, and validate_config calls
    # each range's check itself
    ("check_value checks only its first value", "config.py",
     "    for value in values:\n",
     "    for value in values[:1]:\n",
     ("tests/test_config.py::TestRangeChecks::"
      "test_check_value_names_the_first_value_out_of_range",
      "tests/test_cli.py::TestSweep::test_axis_value_out_of_range")),
    ("validate_config skips the 1-or-2 range", "config.py",
     "if not _RANGES[bounds](values[key]):",
     'if bounds != "1 or 2" and not _RANGES[bounds](values[key]):',
     ("tests/test_config.py::TestRangeChecks::test_validate_config_words_"
      "every_range[losses.slope_loss_exponent]",)),
    ("no path prefix on a typed value's error", "config.py",
     'raise ConfigError(f"{path}: {e}") from None',
     "raise",
     ("tests/test_cli.py::TestPresetsAndValidate::"
      "test_typed_value_error_names_its_path",)),
    ("parse_config assigns without set_path", "config.py",
     'set_text(cfg, f"{section}.{key}", value)',
     "cfg[section][key] = parse_quantity(value, SCHEMA[section][key][0])",
     ("tests/test_config.py::TestParseConfig::"
      "test_file_f2_displaces_base_magnification",
      "tests/test_cli.py::TestPresetsAndValidate::"
      "test_config_file_f2_displaces_the_preset_magnification")),
    ("no both-keys check in parse_config", "config.py",
     '''    if {"f2", "tim_magnification"} <= named:
        raise ConfigError(_ONE_OF_F2_OR_M)
''', "",
     ("tests/test_config.py::TestParseConfig::"
      "test_f2_and_magnification_exclusive",
      "tests/test_cli.py::TestPresetsAndValidate::"
      "test_config_file_naming_both_keys_rejected")),
    # the search: Brent's method, its stop width and its tie rule
    ("parabolic steps off", "sweep.py",
     "golden, d = False, p / q",
     "d = p / q",
     (LINE + "test_stage_calls_in_a_search",
      LINE + "test_stage_calls_in_the_ci_r2_search")),
    ("parabola through non-finite scores", "sweep.py",
     """        if (abs(e) > tol and math.isfinite(fx) and math.isfinite(fw)
                and math.isfinite(fv)):""",
     "        if abs(e) > tol:",
     (FIND + "test_parabola_never_meets_a_non_finite_score",)),
    ("stop width without the starting bracket", "sweep.py",
     "max(abs(a), abs(b), start_width)",
     "max(abs(a), abs(b))",
     (FIND + "test_refines_axis_near_zero[across-zero]",)),
    ("stop width rounds to 0", "sweep.py",
     "tol = max(0.5 * _TOL * max(abs(a), abs(b), start_width), _TINY)",
     "tol = 0.5 * _TOL * max(abs(a), abs(b), start_width)",
     (FIND + "test_refines_axis_near_zero[subnormal-narrow]",)),
    ("ties keep the best probe", "sweep.py",
     "if fu >= fx:",
     "if fu > fx:",
     ("tests/test_cli.py::TestOptimize::test_benchmark_reference_optima",)),
    ("axis overflow check off for count 3", "sweep.py",
     'if spacing == "linear" and count > 2 and',
     'if spacing == "linear" and count > 3 and',
     ("tests/test_sweep.py::TestAxis::test_invalid",)),
    ("overflowing midpoint", "sweep.py",
     "m = 0.5 * a + 0.5 * b",
     "m = 0.5 * (a + b)",
     (FIND + "test_refines_axis_far_above_one",)),
    ("an infinite bracket refined", "sweep.py",
     "_brent(f, lo, hi) if hi - lo < math.inf else (lo, -math.inf)",
     "_brent(f, lo, hi)",
     (FIND + "test_refines_axis_far_above_one",)),
    ("axis overflow check on count 2", "sweep.py",
     'if spacing == "linear" and count > 2 and',
     'if spacing == "linear" and count > 1 and',
     ("tests/test_sweep.py::TestAxis::test_wide_finite_grids_accepted",
      "tests/test_cli.py::test_two_value_axis_spanning_the_floats")),
    # output paths: checked before any cell, made just before the write
    ("degenerate output names accepted", "output.py",
     'if path == out_dir or path.name == ".." or path.is_dir():',
     "if path.is_dir():",
     (UNWRITABLE + "sweep --axis link.p_in:1:5:2 --out-dir {dir}/new "
      "--output ]",
      UNWRITABLE + "sweep --axis link.p_in:1:5:2 --out-dir {dir}/new "
      "--output ..]")),
    ("write_curve_file makes no directory", "output.py",
     "    path.parent.mkdir(parents=True, exist_ok=True)\n", "",
     ("tests/test_cli.py::test_sweep_creates_missing_out_dir",)),
    ("reproduce_figure checks no file", "figures.py",
     'out_file(out_dir, f"fig{figure_id}{ext}")',
     'Path(out_dir, f"fig{figure_id}{ext}")',
     (FIGURES + "test_file_in_the_way_writes_nothing",
      UNWRITABLE + "reproduce-figure 9 --points 3 --out-dir {dir}/plot]")),
]


def _failed(output: str) -> set[str]:
    """Node ids of the FAILED lines of pytest's short summary."""
    return {m.group(1) for m in
            re.finditer(r"^FAILED (.+?)(?: - .*)?$", output, re.MULTILINE)}


def run_mutant(file: str, old: str, new: str, tests) -> str:
    """'' when every named test fails on the mutant, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="rbswipt-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "*.egg-info"))
        target = src / "rbswipt" / file
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text found {text.count(old)} times in {file}"
        target.write_text(text.replace(old, new))
        # a wide terminal keeps pytest's summary lines whole; the suite
        # needs no third-party pytest plugin, whose loading dominates a start
        env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "400",
               "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import rbswipt; print(rbswipt.__file__)"],
            env=env, capture_output=True, text=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            return f"rbswipt imports from {where or 'nowhere'}, not the copy"
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", *tests],
            cwd=REPO, env=env, capture_output=True, text=True)
    failed = _failed(run.stdout)
    alive = [t for t in tests
             if not any(f == t or f.startswith(t + "[") for f in failed)]
    if alive:
        last = (run.stdout.strip().splitlines() or [run.stderr.strip()])[-1]
        return f"not failed: {', '.join(alive)} (pytest: {last})"
    return ""


def main() -> int:
    start, faults = time.perf_counter(), 0
    # two mutants at a time: each thread only waits on its pytest process
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda m: run_mutant(*m[1:]), MUTANTS)
        for (name, *_, tests), fault in zip(MUTANTS, results):
            faults += bool(fault)
            print(f"{'FAIL  ' if fault else 'killed'} {name} ({len(tests)} "
                  f"test{'s' * (len(tests) > 1)}){': ' + fault if fault else ''}",
                  flush=True)
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
