"""Mutation checks: small edits to the package that named tests must catch.

Run with `python tests/mutants.py` (the standard library and pytest only);
it exits 0 when every mutant is killed.  For each entry of MUTANTS it
copies src/ to a temporary directory, replaces the exact old text (which
must occur once) in the named file, checks that `rbswipt` imports from
the copy, runs only the named tests against the copy through PYTHONPATH,
and requires each of them to fail.  An old text missing from its file
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
TABLE = ("tests/test_sweep.py::"
         "test_no_key_moves_a_field_written_before_its_section_enters")

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
    # row staging (restated from the hand-run checks of row-staged sweeps)
    ("a prefix that ignores quantities", "model.py",
     "to_gain = quantities is None or any(_STAGE[q] >= _GAIN for q in quantities)",
     "to_gain = True",
     (ROW + "test_prefix_by_section",
      ROW + "test_prefix_stops_at_the_deepest_stage_quantities_need")),
    ("no prefix at all", "model.py",
     'return ("status",) if _entry(path) > _GAIN and to_gain else None',
     "return None",
     (ROW + "test_prefix_by_section",
      ROW + "test_stage_calls_on_a_p_in_mu_grid")),
    ("gain axes staged as receiver ones", "model.py",
     '''("gain", "pump", "losses", "link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver",)),''',
     '''("pump", "losses", "link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver", "gain")),''',
     (ROW + "test_prefix_by_section", ROW + "test_cells_match_single_points",
      TABLE)),
    ("no unstable-upstream branch", "model.py",
     '''        elif upstream.status == STATUS_UNSTABLE:
            return upstream._replace(p_in=p_in)
''', "",
     (ROW + "test_cells_match_single_points",)),
    # line staging: a 1-D sweep's points and a search's probes resume from
    # the first point's ray optics when the axis enters after ray optics
    ("r2 enters at ray optics", "model.py",
     '''"geometry.r1", "geometry.r2")),
    _Stage("receiver",''',
     '''"geometry.r1")),
    _Stage("receiver",''',
     (LINE + "test_stage_calls_on_an_r2_line",
      LINE + "test_stage_calls_in_a_search", TABLE)),
    ("d3 lines share ray optics", "model.py",
     "if _entry(path) == _RAY_OPTICS:",
     'if path != "geometry.d3" and _entry(path) == _RAY_OPTICS:',
     (LINE + "test_stage_calls_on_a_geometry_line",
      LINE + "test_points_match_single_points",
      LINE + "test_probes_match_single_points")),
    ("every line shares ray optics", "model.py",
     "if _entry(path) == _RAY_OPTICS:",
     "if _entry(path) < _RAY_OPTICS:",
     (LINE + "test_stage_calls_on_a_geometry_line",
      LINE + "test_points_match_single_points",
      LINE + "test_probes_match_single_points")),
    ("probes lent the whole first point", "sweep.py",
     "up = line_upstream(spec.axis1.path, result.points[0])",
     "up = result.points[0]",
     (LINE + "test_probes_match_single_points",
      PRUNING + "test_find_optimum_identical_without_pruning")),
    ("an unstable first point cut to a stable one", "model.py",
     "return first if first.status == STATUS_UNSTABLE else",
     "return first if first.status == STATUS_OK else",
     (LINE + "test_points_match_single_points",)),
    ("receiver lines lend the gain", "sweep.py",
     "up = line_upstream(spec.axis1.path, points[0])",
     "up = (points[0] if spec.axis1.path.startswith(\"receiver\") else\n"
     "              line_upstream(spec.axis1.path, points[0]))",
     (LINE + "test_stage_calls_on_a_receiver_line",)),
    # per-cell overhead: the folded first element and the plain clamps
    ("folded d reduced to -1.0", "ray_optics.py",
     "a, b, c, d = -1.0, 0.0, c1, c1 * 0.0 - 1.0",
     "a, b, c, d = -1.0, 0.0, c1, -1.0",
     ("tests/test_ray_optics.py::test_bit_identical_to_compose_at_range_edges",)),
    ("PV clamp keeps -0.0", "receiver.py",
     "return raw, raw if raw > 0.0 else 0.0",
     "return raw, raw if raw >= 0.0 else 0.0",
     ("tests/test_receiver.py::TestPvOutput::test_clamp_is_max_with_zero",)),
    # formula guards only where a validated Config can fail
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
    ("axis overflow check off for count 3", "sweep.py",
     'if spacing == "linear" and count > 2 and',
     'if spacing == "linear" and count > 3 and',
     ("tests/test_sweep.py::TestAxis::test_invalid",)),
    ("axis overflow check on count 2", "sweep.py",
     'if spacing == "linear" and count > 2 and',
     'if spacing == "linear" and count > 1 and',
     ("tests/test_sweep.py::TestAxis::test_wide_finite_grids_accepted",
      "tests/test_cli.py::test_two_value_axis_spanning_the_floats")),
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
        # a wide terminal keeps pytest's summary lines whole
        env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "400"}
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
