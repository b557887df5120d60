#!/usr/bin/env python3
"""rbswipt benchmark.

    python3 bench/run.py --workload figures|sweep-full|optimize \\
        [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process on one thread as a closed loop: each
command goes through `rbswipt.cli.run_cli` after the previous one returns.
It repeats passes of the workload for about `--seconds`, checks every
output, and prints the metrics, one per line with unit and sample count,
then a JSON object as the last line.  `--trace 0` reports the end-to-end
metrics, with times scaled to a nominal machine speed (calibrate.py);
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checks
import workloads
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 11

# layers the benchmark expects to do work on each workload
NAMED_LAYERS = {
    "figures": ("config", "ray_optics", "sweep", "figures"),
    "sweep-full": ("config", "gain_power", "receiver", "output"),
    "optimize": ("config", "model", "sweep", "cli"),
}

_SETUP_PROBE = """\
import sys, time
sys.path[:0] = {paths!r}
import rbswipt.cli, workloads
workloads.build({name!r}, {seed!r}, {out!r})
print(repr(time.perf_counter()))
"""


def import_program():
    """`rbswipt.cli` from the checkout's src/, or None when it is absent."""
    if not (SRC / "rbswipt" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rbswipt.cli
    if not Path(rbswipt.cli.__file__).resolve().is_relative_to(SRC):
        return None
    return rbswipt.cli


def setup_probe(name: str, seed: int, out_dir: Path) -> float:
    """Fresh-interpreter time until rbswipt.cli is imported and the
    workload's argv is built, scaled to the nominal machine speed."""
    code = _SETUP_PROBE.format(paths=[str(SRC), str(BENCH)], name=name,
                               seed=seed, out=str(out_dir))
    before = calibrate.kernel_seconds()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    raw = float(proc.stdout.split()[-1]) - t0
    return raw * calibrate.scale(before, calibrate.kernel_seconds())


@dataclass
class Result:
    cmd: workloads.Command
    seconds: float          # scaled to the nominal machine speed if calibrated
    raw_seconds: float
    rc: object
    out: str
    err: str


def run_pass(cli, wl: workloads.Workload, out_dir: Path,
             calibrated: bool) -> list[Result]:
    """One pass of the workload, one result per command."""
    for f in out_dir.iterdir():
        f.unlink()              # a command that writes nothing must not pass
    gc.collect()
    windows, outputs = [], []
    cal = calibrate.Calibrator() if calibrated else contextlib.nullcontext()
    with cal:
        for cmd in wl.commands:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = cli.run_cli(cmd.argv)  # the tracer rebinds it
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # a crash fails the command, not the run
                rc = f"{type(e).__name__}: {e}"
            windows.append((t0, time.perf_counter()))
            outputs.append((rc, out.getvalue(), err.getvalue()))
    results = []
    for cmd, (t0, t1), output in zip(wl.commands, windows, outputs):
        raw, scaled = cal.measure(t0, t1) if calibrated else (t1 - t0,) * 2
        results.append(Result(cmd, scaled, raw, *output))
    return results


def check_pass(name: str, results: list[Result], out_dir: Path) -> list[str]:
    """One line per failed command."""
    read, check, _ = checks.CHECKS[name]
    failures = []
    for r in results:
        if r.rc != 0:
            failures.append(f"{r.cmd.label}: exit {r.rc} {r.err.strip()[-300:]}")
            continue
        try:
            problems = check(r.cmd, read(r.cmd, r.out, out_dir))
        except (OSError, ValueError, IndexError, KeyError) as e:
            problems = [f"{r.cmd.label}: unreadable output: {e!r}"]
        if problems:
            failures.append(problems[0])
    return failures


def perturbation_self_test(name: str, results: list[Result],
                           out_dir: Path) -> list[str]:
    """A perturbed copy of the first output must fail its check."""
    read, check, perturb = checks.CHECKS[name]
    r = results[0]
    if check(r.cmd, perturb(read(r.cmd, r.out, out_dir))):
        return []
    return [f"self-test: perturbed {r.cmd.label} output passed its check"]


def counter_self_test(name: str, wl, counts: dict[str, int]) -> list[str]:
    problems = [f"self-test: layer {layer} recorded no calls on {name}"
                for layer in NAMED_LAYERS[name] if counts[f"{layer}.calls"] == 0]
    expected = {
        "figures": {"sweep.cells": wl.cells, "ray_optics.calls": wl.cells},
        "sweep-full": {"receiver.calls": wl.cells},
    }.get(name, {})
    problems += [f"self-test: {key} = {counts[key]}, expected {want}"
                 for key, want in expected.items() if counts[key] != want]
    return problems


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment(args) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure(args, cli, wl, out_dir: Path) -> dict:
    """Run passes for about args.seconds; alternate traced passes when
    tracing.  Stops before a pass that would overrun the budget.  Untraced
    runs spread the set-up probes over the run, so that their median sees
    the same machine as the passes."""
    passes = []
    setup: list[float] = []
    failures: list[str] = []
    self_test: list[str] = []
    start = time.perf_counter()
    while True:
        if not args.trace:
            elapsed = time.perf_counter() - start
            while len(setup) < SETUP_PROBES * min(elapsed / args.seconds, 1):
                setup.append(setup_probe(args.workload, args.seed, out_dir))
        tracer = Tracer() if args.trace and len(passes) % 2 else None
        if tracer:
            tracer.install()
        try:
            results = run_pass(cli, wl, out_dir, calibrated=not args.trace)
        finally:
            if tracer:
                tracer.uninstall()
        wall = sum(r.seconds for r in results)
        pass_failures = check_pass(args.workload, results, out_dir)
        failures += pass_failures
        if not passes and not pass_failures:
            self_test += perturbation_self_test(args.workload, results, out_dir)
        passes.append({"wall": wall, "results": results, "tracer": tracer})
        elapsed = time.perf_counter() - start
        if (len(passes) >= (2 if args.trace else 1)
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, args.seed, out_dir))
    return {"passes": passes, "setup": setup, "failures": failures,
            "self_test": self_test}


def end_to_end(wl, setup: list[float], passes) -> dict:
    walls = [p["wall"] for p in passes]
    lat_ms = [r.seconds * 1e3 for p in passes for r in p["results"]]
    wall = statistics.median(walls)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (wall, "s", len(walls)),
        "cells_per_s": (wl.cells / wall, "1/s", len(walls)),
        "cmd_p50_ms": (percentile(lat_ms, 50), "ms", len(lat_ms)),
        "cmd_p90_ms": (percentile(lat_ms, 90), "ms", len(lat_ms)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1),
    }


def per_layer(name, wl, passes, self_test: list[str]) -> dict:
    traced = [p for p in passes if p["tracer"]]
    untraced = [p for p in passes if not p["tracer"]]
    first = traced[0]["tracer"]
    counts = first.counts()
    for p in traced[1:]:
        if p["tracer"].counts() != counts:
            self_test.append("self-test: traced counts differ between passes")
            break
    self_test += counter_self_test(name, wl, counts)
    n = len(traced)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count", 1)
        out[f"{layer}.self_s"] = (statistics.median(
            p["tracer"].self_s[layer] for p in traced), "s", n)
    out["config.copies"] = (counts["config.copies"], "count", 1)
    out["sweep.cells"] = (counts["sweep.cells"], "count", 1)
    out["sweep.evals_per_search"] = (
        first.search_evals / first.searches if first.searches else 0.0,
        "evals/search", 1)
    for status in ("ok", "unstable", "sub-threshold"):
        key = f"sweep.{status.replace('-', '_')}_frac"
        out[key] = (first.status_frac(status), "ratio", 1)
    out["figures.unused_stage_calls"] = (counts["figures.unused_stage_calls"],
                                         "count", 1)
    out["output.rows"] = (counts["output.rows"], "count", 1)
    out["output.bytes"] = (counts["output.bytes"], "B", 1)
    # untraced and traced passes alternate; pairing neighbours cancels the
    # machine's drift
    ratios = [t["wall"] / u["wall"] for u, t in zip(untraced, traced)]
    out["trace.overhead_frac"] = (statistics.median(ratios) - 1, "ratio",
                                  len(ratios))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    if cli is None:
        print(f"bench: no rbswipt package under {SRC}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, str(out_dir))
        run = measure(args, cli, wl, out_dir)
    finally:
        shutil.rmtree(out_dir)

    passes = run["passes"]
    attempted = sum(len(p["results"]) for p in passes)
    failed = len(run["failures"])
    if args.trace:
        metrics = per_layer(args.workload, wl, passes, run["self_test"])
    else:
        metrics = end_to_end(wl, run["setup"], passes)

    print("env " + json.dumps(environment(args)))
    for key, (value, unit, n) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit} (n={n})")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"(n={attempted})")
    if not args.trace:
        raw = [sum(r.raw_seconds for r in p["results"]) for p in passes]
        print(f"{args.workload} raw_wall_s = {statistics.median(raw):.6g} s "
              f"(n={len(raw)}; unscaled)")
    if args.workload == "figures" and not args.trace:
        for cmd in wl.commands:
            t = [r.seconds for p in passes for r in p["results"] if r.cmd is cmd]
            print(f"figures {cmd.label}_s = {statistics.median(t):.6g} s "
                  f"(n={len(t)})")
    for line in run["failures"][:10] + run["self_test"]:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": failed == 0 and not run["self_test"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
