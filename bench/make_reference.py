#!/usr/bin/env python3
"""Regenerate bench/reference/ from the program in src/.

The reference pins the figure CSVs and the optimum of every optimize case.
Regenerate it only for a change that is meant to alter those outputs, and
say why in the change.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from rbswipt.cli import run_cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ref = checks.REFERENCE
    ref.mkdir(exist_ok=True)
    tmp = ROOT / ".bench_build" / "reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for cmd in workloads.build("figures", 0, str(tmp)).commands:
            with contextlib.redirect_stdout(io.StringIO()):
                if run_cli(cmd.argv) != 0:
                    raise SystemExit(f"{cmd.argv} failed")
            name = f"fig{cmd.expect['figure']}.csv"
            shutil.copyfile(tmp / name, ref / name)
    finally:
        shutil.rmtree(tmp)
    optima = {}
    path = workloads.OPT_AXIS.split(":")[0]
    for case in workloads.optimize_cases():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if run_cli(workloads.optimize_argv(case)) != 0:
                raise SystemExit(f"optimize {case} failed")
        got = checks.parse_optimum(buf.getvalue())
        optima[workloads.case_key(case)] = [got[path], got[case[3]]]
    (ref / "optimize.json").write_text(json.dumps(optima, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
