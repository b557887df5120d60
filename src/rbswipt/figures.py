"""Named reproduction scenarios for the published parameter studies.

Each figure id maps to one row of `_FIGURES`: a family of series swept on
the `paper-2022` preset.  Values the source leaves unstated are documented
assumptions:

* fig 5a/5b: the M2 curvature family {11 m, 15 m, 20 m} (only "set as
  variable" in the source); 5a takes, per magnification, the maximum spot
  radius over the 2-10 m distance range; 5b fixes fr2 = 11 m.
* fig 6: mirror reflectivity r2 = 0.93 per input-power curve.
* fig 7: gain thickness l = 3 um (the preset's) per reflectivity curve.
* fig 8: gain thickness l = 0.15 um, which places the beam-power optimum
  near r2 = 0.90 as reported.
* figs 9/10: the power operating point r2 = 0.90, l = 3 um; fig 9 at
  p_in = 100 W, fig 10 at mu = 0.99.
"""

from __future__ import annotations

from pathlib import Path

from .config import get_preset, path_unit, set_path
from .model import FIELD_UNITS, STATUS_OK
from .output import Column, write_curve_file, write_plot_description
from .sweep import Axis, SweepSpec, reduce_max, run_sweep

_UM = 1e-6
_SPOT = ("spot_radius",)
_BEAM = ("p_beam", "eta_b")
_SWIPT = ("c_tilde", "p_e_out", "eta_e")

# figure id: (series path, series values, swept (path, lo, hi), axis
# reduced by max (path, lo, hi) or None, fixed overrides, quantities)
_FIGURES = {
    "5a": ("geometry.fr2", (11.0, 15.0, 20.0),
           ("geometry.tim_magnification", 1.0, 14.0),
           ("geometry.d3", 2.0, 10.0), (), _SPOT),
    "5b": ("geometry.tim_magnification", (1.0, 10.0, 12.0),
           ("geometry.d3", 2.0, 10.0), None,
           (("geometry.fr2", 11.0),), _SPOT),
    "6": ("link.p_in", (50.0, 100.0, 150.0),
          ("gain.l", 0.05 * _UM, 3.0 * _UM), None,
          (("geometry.r2", 0.93),), _BEAM),
    "7": ("geometry.r2", (0.85, 0.90, 0.95),
          ("link.p_in", 20.0, 150.0), None, (), _BEAM),
    "8": ("link.p_in", (50.0, 100.0, 150.0),
          ("geometry.r2", 0.80, 0.99), None,
          (("gain.l", 0.15 * _UM),), _BEAM),
    "9": ("link.p_in", (100.0,), ("receiver.mu", 0.0, 0.99), None, (),
          _SWIPT),
    "10": ("receiver.mu", (0.99,), ("link.p_in", 50.0, 150.0), None, (),
           _SWIPT),
}
FIGURE_IDS = tuple(_FIGURES)

# display name of a swept or series path where it is not the path's key
_AXIS_NAMES = {"geometry.tim_magnification": "M"}


def _axis_name_unit(path: str) -> tuple[str, str]:
    """Display name and SCHEMA unit of a swept or series path."""
    return _AXIS_NAMES.get(path, path.partition(".")[2]), path_unit(path)


def _series_sweeps(figure_id: str, points: int):
    """Yield (label, spec, quantities, reduce_over_d3) per series."""
    path, values, swept, reduced, fixed, quantities = _FIGURES[figure_id]
    name, unit = _axis_name_unit(path)
    for v in values:
        cfg = get_preset("paper-2022")
        for fixed_path, fixed_value in (*fixed, (path, v)):
            set_path(cfg, fixed_path, fixed_value)
        spec = SweepSpec(cfg, Axis(*swept, points),
                         Axis(*reduced, points) if reduced else None)
        yield f"{name}={v:g}{unit}", spec, quantities, reduced is not None


def reproduce_figure(figure_id: str, out_dir: Path,
                     points: int = 121) -> None:
    """Run the named scenario and emit <out_dir>/fig<id>.csv plus
    fig<id>.plot.json."""
    if figure_id not in _FIGURES:
        raise ValueError(
            f"unknown figure id {figure_id!r}; known: {FIGURE_IDS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    first, columns, series = None, [], []
    for label, spec, quantities, reduce_d3 in _series_sweeps(figure_id, points):
        # a non-reduced series also writes each point's status
        result = run_sweep(spec, quantities=quantities if reduce_d3
                           else (*quantities, "status"))
        # every series shares axis 1; the file records the first one's
        # config, and its points are let go with the series
        first = first or result._replace(points=())
        if reduce_d3:
            ys = [reduce_max(result, q) for q in quantities]
            statuses = ["gap" if y is None else STATUS_OK for y in ys[0]]
        else:
            ys = [[getattr(p, q) for p in result.points] for q in quantities]
            statuses = [p.status for p in result.points]
        for q, y in zip(quantities, ys):
            column = f"{q}[{label}]"
            columns.append(Column(column, FIELD_UNITS[q], y))
            series.append({"label": f"{q}, {label}", "column": column})
        columns.append(Column(f"status[{label}]", "", statuses))
    x_name, x_unit = _axis_name_unit(first.spec.axis1.path)
    columns.insert(0, Column(x_name, x_unit, first.axis1_values))
    csv_path = out_dir / f"fig{figure_id}.csv"
    write_curve_file(csv_path, f"fig{figure_id}", first.spec.config, columns)
    write_plot_description(
        out_dir / f"fig{figure_id}.plot.json",
        title=f"figure {figure_id}",
        x_label=f"{x_name} [{x_unit}]" if x_unit else x_name,
        y_label=", ".join(quantities),
        csv_file=csv_path.name,
        series=series,
    )
