import json

import pytest

from rbswipt.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_single_operating_point(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--preset", "paper-2022",
                           "--p-in", "150W")
        assert code == 0
        assert "status: ok" in out
        assert "p_beam:" in out
        assert "c_tilde:" in out

    def test_set_override(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--set", "geometry.r2=0.93",
                           "--p-in", "100 W")
        assert code == 0
        assert "p_th:" in out

    def test_unstable_exit_code(self, capsys):
        code, out, _ = run(capsys, "evaluate",
                           "--set", "geometry.fr2=10 m")
        assert code == 4
        assert "status: unstable" in out

    def test_config_error_exit_code(self, capsys):
        code, _, err = run(capsys, "evaluate", "--set", "geometry.r2=1.2")
        assert code == 3
        assert "config error" in err


class TestSweep:
    def test_writes_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--out-dir", str(tmp_path),
                           "--axis", "receiver.mu:0.1:0.9:5",
                           "--quantity", "c_tilde")
        assert code == 0
        text = (tmp_path / "sweep.csv").read_text()
        assert "# scenario: paper-2022" in text
        assert "# config-digest:" in text
        assert "c_tilde" in text
        # 5 data rows after the header line
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 5

    def test_env_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RBSWIPT_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "sweep",
                         "--axis", "link.p_in:50:150:3")
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()


    def test_units_from_field_table(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--out-dir", str(tmp_path),
                         "--axis", "link.p_in:50:150:3",
                         "--quantity", "p_beam", "--quantity", "c_tilde")
        assert code == 0
        assert ("# columns: link.p_in [], p_beam [W], c_tilde [bit/s/Hz], "
                "status []") in (tmp_path / "sweep.csv").read_text()


BAD_INPUT = [
    (2, ["sweep", "--axis", "link.p_in:1:abc"]),
    (2, ["sweep", "--axis", "link.p_in:1"]),
    (2, ["sweep", "--axis", "link.p_in:1:2:3.5"]),
    (3, ["sweep", "--axis", "receiver.mu:0:1.5:5"]),
    (3, ["sweep", "--axis", "geometry.r2:0.5:1.2:5"]),
    (3, ["sweep", "--axis", "gain.l:-1e-6:3e-6:5"]),
    (3, ["sweep", "--axis", "link.p_in:5:1"]),
    (3, ["sweep", "--axis", "link.nope:1:5"]),
    (3, ["sweep", "--axis", "link.p_in:1:5:1"]),
    (3, ["sweep", "--axis", "link.p_in:0:5:3:log"]),
    (3, ["sweep", "--axis", "link.p_in:1:5", "--quantity", "nope"]),
    (3, ["optimize", "--axis", "geometry.r2:0.8:0.99:5",
         "--objective", "nope"]),
    (3, ["optimize", "--axis", "geometry.r2:0.8:1.2:5"]),
]


@pytest.mark.parametrize("code,argv", BAD_INPUT,
                         ids=[" ".join(a[1:]) for _, a in BAD_INPUT])
def test_bad_sweep_input_exit_code(capsys, tmp_path, code, argv):
    try:
        got = run_cli(argv + ["--out-dir", str(tmp_path)])
    except SystemExit as e:
        got = e.code
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    assert err.strip()
    assert list(tmp_path.iterdir()) == []


class TestOptimize:
    def test_reports_argmax(self, capsys):
        code, out, _ = run(capsys, "optimize",
                           "--axis", "geometry.r2:0.8:0.99:21",
                           "--set", "gain.l=0.15 um",
                           "--objective", "p_beam")
        assert code == 0
        assert "geometry.r2 = " in out
        assert "p_beam = " in out


class TestReproduceFigure:
    def test_figure_nine(self, capsys, tmp_path):
        code, _, _ = run(capsys, "reproduce-figure", "9",
                         "--out-dir", str(tmp_path), "--points", "9")
        assert code == 0
        csv_text = (tmp_path / "fig9.csv").read_text()
        header = [l for l in csv_text.splitlines()
                  if l and not l.startswith("#")][0]
        assert header.split(",")[0] == "mu"
        assert "c_tilde" in header and "p_e_out" in header \
            and "eta_e" in header
        plot = json.loads((tmp_path / "fig9.plot.json").read_text())
        assert plot["csv_file"] == "fig9.csv"
        assert plot["series"]

    def test_unknown_id_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["reproduce-figure", "99", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2


class TestPresetsAndValidate:
    def test_presets_listed(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        assert "paper-2022" in out

    def test_validate_presets(self, capsys, tmp_path):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert "paper-2022: ok" in out
        # no files written
        assert list(tmp_path.iterdir()) == []

    def test_validate_config_file(self, capsys, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("[link]\np_in = 120 W\n")
        code, out, _ = run(capsys, "validate", "--config", str(good))
        assert code == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text("[link]\np_in = 120 parsec\n")
        code, _, err = run(capsys, "validate", "--config", str(bad))
        assert code == 3
