"""Command-line entry point.

Subcommands: evaluate, sweep, optimize, reproduce-figure, presets, validate.
Exit codes: 0 success, 2 usage error, 3 configuration error, 4 unstable
resonator, 5 optimization failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .config import (
    PRESETS,
    ConfigError,
    get_preset,
    parse_config,
    path_unit,
    set_text,
)
from .figures import FIGURE_IDS, reproduce_figure
from .model import (
    FIELD_UNITS,
    STATUS_OK,
    STATUS_SUB_THRESHOLD,
    STATUS_UNSTABLE,
    evaluate_operating_point,
)
from .output import Column, operating_point_report, write_curve_file
from .sweep import Axis, OptimizationError, SweepSpec, find_optimum, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_UNSTABLE = 4
EXIT_OPTIMIZATION = 5


def _out_dir(args) -> Path:
    return Path(args.out_dir or os.environ.get("RBSWIPT_OUT_DIR", "."))


def _out_file(out_dir: Path, name: str) -> Path:
    """out_dir / name, checked before any cell to be writable as a file.
    Nothing is created: a missing out_dir passes if its nearest existing
    ancestor is a directory (it is made just before the write), while a
    directory named inside `name` must exist already."""
    path = out_dir / name
    if path.is_dir():
        raise ConfigError(f"output file {str(path)!r} is a directory")
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir() or (path.parent != out_dir
                                and not path.parent.is_dir()):
        raise ConfigError(f"no directory for output file {str(path)!r}")
    return path


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file: {e}") from None


def _load_config(args):
    cfg = get_preset(args.preset)
    if args.config:
        cfg = parse_config(_read_config(args.config), base=cfg)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects path=value, got {item!r}")
        set_text(cfg, *(p.strip() for p in item.split("=", 1)))
    if getattr(args, "p_in", None) is not None:
        set_text(cfg, "link.p_in", args.p_in)
    return cfg


def _axis_arg(text: str) -> tuple:
    """argparse type of --axis: path:lo:hi[:count[:spacing]], lo/hi in SI
    units.  Text that does not parse is a usage error (exit 2)."""
    parts = text.split(":")
    try:
        if not 3 <= len(parts) <= 5:
            raise ValueError
        lo, hi = float(parts[1]), float(parts[2])
        count = int(parts[3]) if len(parts) > 3 else 121
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected PATH:LO:HI[:COUNT[:SPACING]], got {text!r}") from None
    return parts[0], lo, hi, count, parts[4] if len(parts) > 4 else "linear"


def _points_arg(text: str) -> int:
    """argparse type of --points: an integer >= 2 (exit 2 otherwise)."""
    try:
        points = int(text)
    except ValueError:
        points = 0
    if points < 2:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 2, got {text!r}")
    return points


def _check_fields(names) -> None:
    for name in names:
        if name not in FIELD_UNITS:
            raise ConfigError(
                f"unknown quantity {name!r}; known: {', '.join(FIELD_UNITS)}")
        if names.count(name) > 1:
            raise ConfigError(f"quantity {name!r} is given more than once")


def _cfg_spec(args) -> SweepSpec:
    axes = [Axis(*a) for a in args.axis]
    if len(axes) > 2:
        raise ConfigError("at most two axes are supported")
    return SweepSpec(_load_config(args), *axes)


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    op = evaluate_operating_point(cfg)
    sys.stdout.write(operating_point_report(op))
    return EXIT_UNSTABLE if op.status == STATUS_UNSTABLE else EXIT_OK


def cmd_sweep(args) -> int:
    quantities = args.quantity or ["p_beam"]
    _check_fields(quantities)
    spec = _cfg_spec(args)
    out = _out_file(_out_dir(args), args.output)
    result = run_sweep(spec, quantities=(*quantities, "status"))
    # points are axis1-major: axis 1 repeats each value, axis 2 tiles
    a1, a2 = result.axis1_values, result.axis2_values
    n2 = len(a2) if a2 else 1
    columns = [Column(spec.axis1.path, path_unit(spec.axis1.path),
                      [v for v in a1 for _ in range(n2)])]
    if a2:
        columns.append(Column(spec.axis2.path, path_unit(spec.axis2.path),
                              a2 * len(a1)))
    # points to columns, transposed in C; the gain's and the receiver's
    # records only when a field of theirs is asked for
    statuses, p_in, spot, *records, _ = zip(*result.points)
    fields = {"p_in": p_in, "spot_radius": spot}
    for record in records:
        if not set(record[0]._fields).isdisjoint(quantities):
            fields.update(zip(record[0]._fields, zip(*record)))
    columns += [Column(q, FIELD_UNITS[q], fields[q]) for q in quantities]
    columns.append(Column("status", "", statuses))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_curve_file(out, args.preset, spec.config, columns)
    counts = ", ".join(f"{statuses.count(s)} {s}" for s in
                       (STATUS_OK, STATUS_SUB_THRESHOLD, STATUS_UNSTABLE))
    print(f"wrote {out} ({len(statuses)} points: {counts})")
    if statuses.count(STATUS_UNSTABLE) == len(statuses):
        print("warning: every grid point is unstable", file=sys.stderr)
    return EXIT_OK


def cmd_optimize(args) -> int:
    _check_fields([args.objective])
    spec = _cfg_spec(args)
    params, value = find_optimum(spec, args.objective, args.sense)
    for path, v in params.items():
        print(f"{path} = {v!r}")
    print(f"{args.objective} = {value!r}")
    return EXIT_OK


def cmd_reproduce_figure(args) -> int:
    out = _out_dir(args)
    csv, plot = (_out_file(out, f"fig{args.id}{ext}")
                 for ext in (".csv", ".plot.json"))
    reproduce_figure(args.id, out, points=args.points)
    print(f"wrote {csv} and {plot}")
    return EXIT_OK


def cmd_presets(args) -> int:
    print(*sorted(PRESETS), sep="\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    _load_config(args)
    print(f"{args.config or args.preset}: ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbswipt",
        description="Resonant-beam SWIPT link simulator and design search")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--preset", default="paper-2022",
                           help="named preset supplying defaults")
            p.add_argument("--config", help="config file overlaying the preset")
            p.add_argument("--set", action="append", metavar="PATH=VALUE",
                           help="override one parameter, e.g. 'gain.l=0.2 um'")
        p.add_argument("--out-dir", help="output directory "
                       "(default: $RBSWIPT_OUT_DIR or .)")

    p = sub.add_parser("evaluate", help="evaluate a single operating point")
    common(p)
    p.add_argument("--p-in", help="input power, e.g. '150W'")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    common(p)
    p.add_argument("--axis", action="append", required=True, type=_axis_arg,
                   metavar="PATH:LO:HI[:COUNT[:SPACING]]",
                   help="swept axis (SI units); repeat for a 2-D grid")
    p.add_argument("--quantity", action="append",
                   help="operating-point fields to emit (default p_beam)")
    p.add_argument("--output", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="grid + golden-section design search")
    common(p)
    p.add_argument("--axis", action="append", required=True, type=_axis_arg,
                   metavar="PATH:LO:HI[:COUNT[:SPACING]]")
    p.add_argument("--objective", default="p_beam")
    p.add_argument("--sense", choices=("max", "min"), default="max")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("reproduce-figure",
                       help="emit curve data for a named figure scenario")
    common(p, config=False)
    p.add_argument("id", choices=FIGURE_IDS)
    p.add_argument("--points", type=_points_arg, default=121)
    p.set_defaults(func=cmd_reproduce_figure)

    p = sub.add_parser("presets", help="list available presets")
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("validate",
                       help="validate a preset, config file and --set values")
    common(p)
    p.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser run_cli reuses: built on first use, not at import.  Reuse
    is sound because no default is read at build time ($RBSWIPT_OUT_DIR is
    read when a command runs) and the append options copy their default."""
    return build_parser()


def run_cli(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OptimizationError as e:
        print(f"optimization failed: {e}", file=sys.stderr)
        return EXIT_OPTIMIZATION
    except OSError as e:
        # config files are read through _read_config, so this is an output
        # path that cannot be written
        print(f"config error: cannot write output: {e}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
