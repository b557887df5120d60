"""Named reproduction scenarios for the published parameter studies.

Each figure id maps to a sweep recipe built on the `paper-2022` preset.
Values the source leaves unstated are documented assumptions:

* fig 5a/5b: the M2 curvature family {11 m, 15 m, 20 m} (only "set as
  variable" in the source); 5a takes, per magnification, the maximum spot
  radius over the 2-10 m distance range.
* fig 6: mirror reflectivity r2 = 0.93 per thickness curve.
* fig 7: gain thickness l = 3 um per input-power curve.
* fig 8: gain thickness l = 0.15 um, which places the beam-power optimum
  near r2 = 0.90 as reported.
* figs 9/10: the power operating point r2 = 0.90, l = 3 um.
"""

from __future__ import annotations

from pathlib import Path

from .config import path_unit
from .model import FIELD_UNITS, STATUS_OK
from .output import Column, write_curve_file, write_plot_description
from .sweep import Axis, Curve, SweepSpec, reduce_max, run_sweep

FIGURE_IDS = ("5a", "5b", "6", "7", "8", "9", "10")

_MM = 1e-3
_UM = 1e-6


def _series_sweeps(figure_id: str, points: int):
    """Yield (label, spec, quantities, reduce_over_d3) per series."""
    if figure_id == "5a":
        for fr2 in (11.0, 15.0, 20.0):
            spec = SweepSpec(
                scenario="paper-2022",
                axis1=Axis("geometry.tim_magnification", 1.0, 14.0, points),
                axis2=Axis("geometry.d3", 2.0, 10.0, points),
                overrides=(("geometry.fr2", fr2),),
            )
            yield f"fr2={fr2:g}m", spec, ("spot_radius",), True
    elif figure_id == "5b":
        for m in (1.0, 10.0, 12.0):
            spec = SweepSpec(
                scenario="paper-2022",
                axis1=Axis("geometry.d3", 2.0, 10.0, points),
                overrides=(("geometry.fr2", 11.0),
                           ("geometry.tim_magnification", m)),
            )
            yield f"M={m:g}", spec, ("spot_radius",), False
    elif figure_id == "6":
        for p_in in (50.0, 100.0, 150.0):
            spec = SweepSpec(
                scenario="paper-2022",
                axis1=Axis("gain.l", 0.05 * _UM, 3.0 * _UM, points),
                overrides=(("geometry.r2", 0.93), ("link.p_in", p_in)),
            )
            yield f"p_in={p_in:g}W", spec, ("p_beam", "eta_b"), False
    elif figure_id == "7":
        for r2 in (0.85, 0.90, 0.95):
            spec = SweepSpec(
                scenario="paper-2022",
                axis1=Axis("link.p_in", 20.0, 150.0, points),
                overrides=(("geometry.r2", r2),),
            )
            yield f"r2={r2:g}", spec, ("p_beam", "eta_b"), False
    elif figure_id == "8":
        for p_in in (50.0, 100.0, 150.0):
            spec = SweepSpec(
                scenario="paper-2022",
                axis1=Axis("geometry.r2", 0.80, 0.99, points),
                overrides=(("gain.l", 0.15 * _UM), ("link.p_in", p_in)),
            )
            yield f"p_in={p_in:g}W", spec, ("p_beam", "eta_b"), False
    elif figure_id == "9":
        spec = SweepSpec(
            scenario="paper-2022",
            axis1=Axis("receiver.mu", 0.0, 0.99, points),
            overrides=(("link.p_in", 100.0),),
        )
        yield "p_in=100W", spec, ("c_tilde", "p_e_out", "eta_e"), False
    elif figure_id == "10":
        spec = SweepSpec(
            scenario="paper-2022",
            axis1=Axis("link.p_in", 50.0, 150.0, points),
            overrides=(("receiver.mu", 0.99),),
        )
        yield "mu=0.99", spec, ("c_tilde", "p_e_out", "eta_e"), False
    else:
        raise ValueError(
            f"unknown figure id {figure_id!r}; known: {FIGURE_IDS}")


# display name of each swept path; the unit comes from SCHEMA
_AXIS_NAMES = {
    "geometry.tim_magnification": "M",
    "geometry.d3": "d3",
    "gain.l": "l",
    "geometry.r2": "r2",
    "link.p_in": "p_in",
    "receiver.mu": "mu",
}


def reproduce_figure(figure_id: str, out_dir: Path,
                     points: int = 121) -> dict:
    """Run the named scenario and emit <out_dir>/fig<id>.csv plus
    fig<id>.plot.json.  Returns {series label: SweepResult}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    x_values = None
    x_path = None
    columns: list[Column] = []
    series_meta = []
    config = None
    for label, spec, quantities, reduce_d3 in _series_sweeps(figure_id, points):
        # a non-reduced series also writes each point's status
        result = run_sweep(spec, quantities=quantities if reduce_d3
                           else (*quantities, "status"))
        results[label] = result
        config = config or result.config
        if reduce_d3:
            curves = [reduce_max(result, q, over_axis=2) for q in quantities]
        else:
            curves = []
            for q in quantities:
                ys = [getattr(p, q) for p in result.points]
                statuses = [p.status for p in result.points]
                curves.append(Curve(x_path=spec.axis1.path, quantity=q,
                                    x=result.axis1_values, y=ys,
                                    statuses=statuses))
        if x_values is None:
            x_values = curves[0].x
            x_path = curves[0].x_path
        for curve in curves:
            name = f"{curve.quantity}[{label}]"
            columns.append(Column(name, FIELD_UNITS[curve.quantity], curve.y))
            series_meta.append({"label": f"{curve.quantity}, {label}",
                                "column": name})
        columns.append(Column(f"status[{label}]", "",
                              curves[0].statuses or
                              [STATUS_OK] * len(x_values)))
    x_name, x_unit = _AXIS_NAMES[x_path], path_unit(x_path)
    columns.insert(0, Column(x_name, x_unit, x_values))
    csv_path = out_dir / f"fig{figure_id}.csv"
    write_curve_file(csv_path, f"fig{figure_id}", config, columns)
    write_plot_description(
        out_dir / f"fig{figure_id}.plot.json",
        title=f"figure {figure_id}",
        x_label=f"{x_name} [{x_unit}]" if x_unit else x_name,
        y_label=", ".join(dict.fromkeys(c["label"].split(", ")[0]
                                        for c in series_meta)),
        csv_file=csv_path.name,
        series=series_meta,
    )
    return results
