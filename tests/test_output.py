"""Curve files of at least `output._FORK_CELLS` cells are formatted on two
processes: a forked child formats the second half of the rows.  These tests
pin that the bytes are those of the serial path (and of the row-by-row
reference writer), that only large files fork, that a failed child costs
nothing but time, and that no child outlives a write."""

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import curve_reference
import pytest

from rbswipt import output
from rbswipt.cli import run_cli
from rbswipt.config import get_preset
from rbswipt.model import FIELD_UNITS
from rbswipt.output import Column, write_curve_file

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="a curve file forks only where os.fork and os.sched_getaffinity "
           "exist")

ALL_FIELDS = [a for q in FIELD_UNITS for a in ("--quantity", q)]
REAL_FORK = getattr(os, "fork", None)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made, in a process that may run on two CPUs
    whatever the machine it runs on."""
    calls = []

    def counted():
        calls.append(os.getpid())
        return REAL_FORK()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sweep(capsys, out_dir, *argv):
    code = run_cli(["sweep", "--out-dir", str(out_dir), *argv])
    capsys.readouterr()
    assert code == 0
    return (out_dir / "sweep.csv").read_bytes()


def columns(rows):
    """Columns of `rows` rows: a distinct float per row and column, shared
    floats, zeros of both signs, None and str cells."""
    return [Column("x", "m", [1.5 + i / 7 for i in range(rows)]),
            Column("y", "W", [(0.1, -0.0, None, 0.0, 2.5)[i % 5]
                              for i in range(rows)]),
            Column("z", "", [0.1 * (i + 1) for i in range(rows)]),
            Column("status", "", [("ok", "unstable")[i % 2]
                                  for i in range(rows)])]


def reference(tmp_path, cols):
    path = tmp_path / "reference.csv"
    curve_reference.write_curve_file(path, "s", get_preset("paper-2022"),
                                     cols)
    return path.read_bytes()


def test_full_sweep_forks_to_the_serial_bytes(capsys, tmp_path, forks,
                                              monkeypatch):
    # the benchmark's sweep-full grid: 121 x 121 p_in x mu, every field,
    # 351,384 cells; one usable CPU takes the serial path
    axes = ["--axis", "link.p_in:20:150:121",
            "--axis", "receiver.mu:0:0.99:121", *ALL_FIELDS]
    forked = sweep(capsys, tmp_path / "forked", *axes)
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = sweep(capsys, tmp_path / "serial", *axes)
    assert len(forks) == 1
    assert forked == serial
    body = [ln for ln in forked.splitlines() if not ln.startswith(b"#")]
    assert len(body) == 1 + 121 * 121


def test_pinned_all_fields_sweep_forks_to_its_bytes(capsys, tmp_path, forks,
                                                    monkeypatch):
    pinned = Path(__file__).parent / "reference" / "sweep_all_fields.csv"
    monkeypatch.setattr(output, "_FORK_CELLS", 1)
    forked = sweep(capsys, tmp_path, "--axis", "link.p_in:0:150:11",
                   "--axis", "receiver.mu:0:0.99:11", *ALL_FIELDS)
    assert len(forks) == 1
    assert forked == pinned.read_bytes()
    assert_no_child()


@pytest.mark.parametrize("rows", [1, 2, 3, 10])
def test_small_files_fork_and_match(tmp_path, forks, monkeypatch, rows):
    monkeypatch.setattr(output, "_FORK_CELLS", 1)
    cols = columns(rows)
    write_curve_file(tmp_path / "forked.csv", "s", get_preset("paper-2022"),
                     cols)
    assert len(forks) == 1
    assert_no_child()
    assert (tmp_path / "forked.csv").read_bytes() == reference(tmp_path, cols)


@pytest.mark.parametrize("fail", ["exit 1", "SIGKILL"])
def test_failed_child_leaves_the_bytes(tmp_path, monkeypatch, fail):
    # the child dies before it formats a row: this process formats its half
    def failing():
        pid = REAL_FORK()
        if pid == 0:
            if fail == "SIGKILL":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(1)
        return pid

    monkeypatch.setattr(os, "fork", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(output, "_FORK_CELLS", 1)
    cols = columns(3)
    write_curve_file(tmp_path / "forked.csv", "s", get_preset("paper-2022"),
                     cols)
    assert_no_child()
    assert (tmp_path / "forked.csv").read_bytes() == reference(tmp_path, cols)


@pytest.mark.parametrize("case", ["one CPU", "no affinity", "no fork",
                                  "a second thread"])
def test_serial_path_when_a_fork_cannot_pay(tmp_path, forks, monkeypatch,
                                            case):
    monkeypatch.setattr(output, "_FORK_CELLS", 1)
    if case == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    elif case in ("no affinity", "no fork"):
        monkeypatch.delattr(os, "sched_getaffinity" if case == "no affinity"
                            else "fork")
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if case == "a second thread":
        thread.start()
    try:
        cols = columns(3)
        write_curve_file(tmp_path / "serial.csv", "s",
                         get_preset("paper-2022"), cols)
    finally:
        done.set()
        if case == "a second thread":
            thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert (tmp_path / "serial.csv").read_bytes() == reference(tmp_path, cols)


def test_figures_never_fork(capsys, tmp_path, monkeypatch):
    # every figure file at the benchmark's 121 points has at most 1,210
    # cells, far below _FORK_CELLS
    def refused():
        raise AssertionError("a figure file forked")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for fid in ("5a", "5b", "6", "7", "8", "9", "10"):
        code = run_cli(["reproduce-figure", fid, "--points", "121",
                        "--out-dir", str(tmp_path)])
        assert code == 0, fid
    capsys.readouterr()


def test_unflushed_stdout_shows_once(tmp_path):
    # stdout into a pipe is block-buffered, so the text printed before the
    # write is still in this process's buffer when the child is forked; a
    # child that flushed it on its way out would print it twice
    src = str(Path(output.__file__).resolve().parents[1])
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from pathlib import Path\n"
        "from rbswipt import output\n"
        "from rbswipt.config import get_preset\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "output._FORK_CELLS = 1\n"
        "print('printed before the write')\n"
        f"output.write_curve_file(Path({str(tmp_path / 'x.csv')!r}), 's',\n"
        "    get_preset('paper-2022'),\n"
        "    [output.Column('x', 'm', [1.0, 2.0, 3.0])])\n"
        "print('forks:', len(forks))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "printed before the write\nforks: 1\n"
    assert (tmp_path / "x.csv").read_text().endswith("\nx\n1.0\n2.0\n3.0\n")
