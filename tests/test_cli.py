"""Command-line configuration: a bad key or value is a config error (exit 2)
before any computation starts."""
import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crackwave import cli, material
from crackwave import dispersion as disp
from crackwave.material import critical_speed

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ROOT / "presets"

ERR_SWEEP = """\
material.eta = 0
material.h0 = 0.707
load.L_over_ell = 10
load.p = 1
sweep.variable = m_of_limit
sweep.start = 0.05
sweep.stop = 0.999
sweep.count = 24
"""

FIELDS = """\
material.eta = -0.9
material.h0 = 0.707
state.m = 0.3
load.L_over_ell = 1
load.p = 1
fields.points = 160
"""

DISPERSION = """\
material.eta = 0.9
material.h0 = 0.8
sweep.variable = omega
sweep.start = 0.05
sweep.stop = 50
sweep.count = 120
sweep.scale = log
"""

LIMIT_STUDY = """\
material.eta = 0.9
material.h0 = 0.6
state.m = 0.3
load.L_over_ell = 2
load.p = 1
sweep.variable = m
sweep.start = 0.1
sweep.stop = 0.3
sweep.count = 2
"""


@pytest.mark.parametrize("subcommand,text,message", [
    # A misspelt key used to be dropped silently, running at L/ell = 1.
    ("err-sweep", ERR_SWEEP.replace("load.L_over_ell", "load.L_over_el"),
     "unknown config key(s) ['load.L_over_el']"),
    ("fields", FIELDS.replace("= 160", "= abc"), "bad value for 'fields.points'"),
    ("fields", FIELDS.replace("= 160", "= -3"), "bad value for 'fields.points'"),
    # A dispersion config used to trace an m grid as omega, with exit 0.
    ("dispersion", DISPERSION.replace("variable = omega", "variable = m"),
     "unsupported sweep variable 'm'"),
    ("limit-study", LIMIT_STUDY.replace("variable = m", "variable = h0"),
     "unsupported sweep variable 'h0'"),
    # Used to end in a KeyError traceback.
    ("err-sweep", ERR_SWEEP.split("sweep.")[0], "this subcommand needs a sweep block"),
    # The last of two values used to win silently, running at eta = -0.9.
    ("fields", "material.eta = 0.9\n" + FIELDS, ":2: 'material.eta' repeats line 1"),
    ("dispersion", DISPERSION.replace("start = 0.05", "start = -1"),
     "log sweep needs a positive start"),
    ("dispersion", DISPERSION.replace("scale = log", "scale = cubic"),
     "sweep.scale must be linear or log, got 'cubic'"),
    # The density was read and checked, but no result depends on it.
    ("fields", "material.rho = 1.0\n" + FIELDS, "unknown config key(s) ['material.rho']"),
    # Results are in units of ell, G and T0, so the scales are no keys.
    ("fields", "material.G = 2.0\nmaterial.ell = 0.5\nload.T0 = 3.0\n" + FIELDS,
     "unknown config key(s) ['load.T0', 'material.G', 'material.ell']"),
], ids=["misspelt-key", "points-not-int", "points-negative", "variable-unknown",
        "limit-variable-unknown", "no-sweep-block", "repeated-key", "log-start",
        "scale-unknown", "density-removed", "scales-removed"])
def test_bad_config_exits_with_config_error(tmp_path, capsys, subcommand, text, message):
    config = tmp_path / "run.conf"
    config.write_text(text)
    rc = cli.main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # The config error is reported also when --out cannot be written: the
    # sweep checks used to run after the --out check, which then won.
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = cli.main([subcommand, "--config", str(config), "--out", str(blocker / "x")])
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,key,value", [
    ("limit-study", "material.h0", "nan"),
    ("err-sweep", "load.L_over_ell", "nan"),
    ("fields", "state.m", "nan"),
])
def test_nonfinite_value_exits_with_regime_error(tmp_path, capsys, subcommand, key,
                                                 value):
    # NaN used to pass the positivity checks: L/ell ended in a ValueError
    # traceback with exit 1, and h0 and m reached the symbol.
    text = {"limit-study": LIMIT_STUDY, "fields": FIELDS,
            "err-sweep": ERR_SWEEP.replace("sweep.count = 24", "sweep.count = 2")}[subcommand]
    lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
    config = tmp_path / "run.conf"
    config.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    rc = cli.main([subcommand, "--config", str(config), "--out", str(out)])
    assert rc == cli.EXIT_REGIME
    assert f"got {value}" in capsys.readouterr().err
    assert not out.exists()


L_SWEEP = LIMIT_STUDY.replace("variable = m", "variable = L_over_ell") \
    .replace("start = 0.1", "start = 1").replace("stop = 0.3", "stop = 3")


@pytest.mark.parametrize("subcommand,text,key,value", [
    # dispersion traced omega = nan and exited 3 ("no dispersion root found").
    ("dispersion", DISPERSION, "sweep.stop", "inf"),
    # The L/ell sweeps exited 4 ("L must be positive and finite, got nan").
    ("tmax-sweep", L_SWEEP, "sweep.stop", "1e400"),
    ("err-sweep", L_SWEEP, "sweep.stop", "inf"),
    ("limit-study", L_SWEEP, "sweep.start", "-inf"),
], ids=["dispersion", "tmax-sweep", "err-sweep", "limit-study"])
def test_nonfinite_sweep_bound_exits_with_config_error(tmp_path, capsys, subcommand,
                                                       text, key, value):
    lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
    config = tmp_path / "run.conf"
    config.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    rc = cli.main([subcommand, "--config", str(config), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert f"{key} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_must_be_positive(tmp_path, capsys, jobs):
    # A nonpositive worker count is a config error, not a serial run.
    with pytest.raises(SystemExit) as exc:
        cli.main(["regime-map", "--config", str(PRESETS / "fig3.conf"),
                  "--out", str(tmp_path), "--jobs", jobs])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "regime-map.csv").exists()


def test_validate_rejects_a_config(tmp_path, capsys):
    # validate reads no config, so one given is an error, not ignored.
    rc = cli.main(["validate", "--config", str(PRESETS / "fig3.conf"),
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "validate takes no --config" in capsys.readouterr().err
    assert not (tmp_path / "validate_report.csv").exists()


def test_unwritable_out_exits_with_config_error(tmp_path, capsys):
    # An --out below a regular file used to end in a NotADirectoryError
    # traceback with exit 1.
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = cli.main(["regime-map", "--config", str(PRESETS / "fig3.conf"),
                   "--out", str(blocker / "out")])
    assert rc == cli.EXIT_CONFIG
    assert "cannot write output" in capsys.readouterr().err


def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch):
    # err-sweep on fig9 used to solve all 24 rows, and validate to run every
    # check, before the first CSV write failed.
    calls = []
    monkeypatch.setattr(cli, "solve_crack", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "_validate_checks", lambda: calls.append("validate"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (["err-sweep", "--config", str(PRESETS / "fig9.conf")], ["validate"]):
        assert cli.main(argv + ["--out", str(blocker / "out")]) == cli.EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err
    assert calls == []
    # The check creates nothing: a bad config leaves no directory behind.
    config = tmp_path / "run.conf"
    config.write_text(ERR_SWEEP.replace("load.L_over_ell", "load.L_over_el"))
    rc = cli.main(["err-sweep", "--config", str(config), "--out", str(tmp_path / "a" / "b")])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "a").exists()


def test_small_eta_runs(tmp_path):
    # For 0 < |eta| <= 1e-4, upsilon changes sign within ~1e-16 of the
    # speed where the radical sqrt(1 − 2h0²m²) vanishes.
    config = tmp_path / "map.conf"
    config.write_text("material.eta = 1e-4\nmaterial.h0 = 0.707\n")
    assert cli.main(["regime-map", "--config", str(config), "--out", str(tmp_path)]) == 0
    config = tmp_path / "err.conf"
    config.write_text(ERR_SWEEP.replace("material.eta = 0", "material.eta = 1e-5")
                      .replace("material.h0 = 0.707", "material.h0 = 0.9")
                      .replace("sweep.count = 24", "sweep.count = 2"))
    assert cli.main(["err-sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "err-sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    m_c = critical_speed(1e-5, 0.9)
    assert m_c < 1.0
    assert [float(r["m"]) for r in rows] == [0.05 * m_c, 0.999 * m_c]


@pytest.mark.parametrize("preset", sorted(PRESETS.glob("*.conf")), ids=lambda p: p.stem)
def test_every_preset_parses(preset):
    run = cli.RunConfig.from_file(preset)
    assert run.points >= 1
    assert run.sweep.get("variable") in (None, "omega", "k", "m", "m_of_limit",
                                         "L_over_ell")


def test_limit_study_sweeps_its_variable(tmp_path):
    # limit-study used to run any sweep grid as L/ell.
    config = tmp_path / "run.conf"
    config.write_text(LIMIT_STUDY)
    rc = cli.main(["limit-study", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "limit-study.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["m"]) for r in rows] == [0.1, 0.3]
    assert [float(r["L_over_ell"]) for r in rows] == [2.0, 2.0]


def test_validate_checks_the_balance():
    checks = {check_id: (target, computed, tol)
              for check_id, target, computed, tol in cli._validate_checks()}
    for check_id in ("balance_T0", "balance_T0_L30_p3"):
        target, computed, tol = checks[check_id]
        assert (target, tol) == (1.0, 1e-5)
        assert abs(computed - target) <= tol



def test_validate_checks_the_fields_near_the_tip():
    # One point on each side of C_t's sign change at m = 0.316.
    checks = {check_id: (target, computed, tol)
              for check_id, target, computed, tol in cli._validate_checks()}
    for field, tol in (("t23", 1e-3), ("w", 2e-4)):
        for m in (0.2, 0.433):
            target, computed, got_tol = checks[f"neartip_{field}_m{m}"]
            assert (target, got_tol) == (1.0, tol)
            assert abs(computed - target) <= tol


class TestRootSolves:
    """One lockstep bracketed_root call per dispersion curve and per
    regime-map curve, and one critical speed per m_of_limit sweep."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        for module in (disp, material):
            real = module.bracketed_root
            monkeypatch.setattr(module, "bracketed_root",
                                lambda *a, real=real, **k: calls.append(a[1]) or real(*a, **k))
        return calls

    def test_regime_map_solves_twice(self, solves, tmp_path):
        rc = cli.main(["regime-map", "--config", str(PRESETS / "fig3.conf"),
                       "--out", str(tmp_path)])
        assert rc == 0
        # h0* at the preset's eta for m_c over the whole h0 grid, then h0*
        # over the eta grid (eta = 0 included).
        assert [np.shape(lo) for lo in solves] == [(), (39,)]

    def test_dispersion_solves_once(self, solves, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(DISPERSION)
        assert cli.main(["dispersion", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert [len(lo) for lo in solves] == [120]

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """f calls per bracketed_root solve, endpoints included."""
        counts = []
        for module in (disp, material):
            real = module.bracketed_root

            def counting(f, *a, real=real, **k):
                counts.append(0)

                def g(x):
                    counts[-1] += 1
                    return f(x)
                return real(g, *a, **k)
            monkeypatch.setattr(module, "bracketed_root", counting)
        return counts

    @pytest.mark.parametrize("preset", ["fig1", "fig2"])
    def test_dispersion_preset_solve_takes_few_steps(self, evaluations, tmp_path, preset):
        # One lockstep solve of the 120 brackets.
        assert cli.main(["dispersion", "--config", str(PRESETS / f"{preset}.conf"),
                         "--out", str(tmp_path)]) == 0
        assert len(evaluations) == 1 and evaluations[0] <= 10

    def test_regime_map_solves_take_few_steps(self, evaluations, tmp_path):
        # The h0* solve behind m_c over the h0 grid, then h0* over the 39
        # eta in [-0.95, 0.95].
        assert cli.main(["regime-map", "--config", str(PRESETS / "fig3.conf"),
                         "--out", str(tmp_path)]) == 0
        m_c, h_star = evaluations
        assert m_c <= 10 and h_star <= 20

    def test_m_of_limit_sweep_takes_one_critical_speed(self, monkeypatch, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(ERR_SWEEP.replace("material.eta = 0", "material.eta = -0.9"))
        run = cli.RunConfig.from_file(config)
        calls = []
        monkeypatch.setattr(cli, "critical_speed",
                            lambda eta, h0: calls.append((eta, h0)) or critical_speed(eta, h0))
        args = cli._sweep_args(run)
        assert calls == [(-0.9, 0.707)]
        m_limit = critical_speed(-0.9, 0.707)
        assert m_limit < 1.0
        assert [m for _, _, m in args] == [v * m_limit for v in run.grid()]


def test_process_pool_rows_match_serial_rows(tmp_path):
    # --jobs > 1 runs the sweep rows in a process pool; the CSV must be the
    # serial run's, byte for byte.
    config = tmp_path / "run.conf"
    config.write_text(ERR_SWEEP.replace("sweep.count = 24", "sweep.count = 2"))
    csvs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["err-sweep", "--config", str(config), "--out", str(out),
                         "--jobs", jobs]) == 0
        csvs[jobs] = (out / "err-sweep.csv").read_bytes()
    assert csvs["2"] == csvs["1"]
    assert len(csvs["1"].splitlines()) == 3


def test_rewrite_gives_identical_bytes(tmp_path):
    # The second run replaces the first run's CSV with the same bytes.
    argv = ["regime-map", "--config", str(PRESETS / "fig3.conf"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    first = (tmp_path / "regime-map.csv").read_bytes()
    assert cli.main(argv) == 0
    assert (tmp_path / "regime-map.csv").read_bytes() == first


def _write_csv_per_value(path, header, rows):
    """The per-value writer whose bytes `cli._write_csv` keeps."""
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return v

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def test_csv_columns_write_the_per_value_bytes(tmp_path):
    # Columns of mixed types, a NaN column whose last NaN is another object,
    # -0.0 beside 0.0 (equal, not identical), one object throughout, and
    # plain floats.
    nan, shared = float("nan"), 0.1 + 0.2
    header = ["str", "int", "bool", "np_bool", "f64", "f32", "nan", "signed_zero",
              "shared", "float"]
    rows = [("a", 1, True, np.bool_(True), np.float64(0.1), np.float32(0.1), nan,
             -0.0, shared, 2.5),
            ("b", np.int64(2), False, np.bool_(False), np.float64(1e-300),
             np.float32(3.0), nan, 0.0, shared, 1e300),
            ("b", 3, True, np.bool_(True), np.float64(-2.0), np.float32(-0.0),
             float("nan"), -0.0, shared, -0.0)]
    cli._write_csv(tmp_path / "columns.csv", header, rows)
    _write_csv_per_value(tmp_path / "values.csv", header, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()
    cli._write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_text().splitlines() == [",".join(header)]

    # Fields csv.writer quotes (a comma, a double quote, CR, LF) or converts
    # (None to an empty field, np.bool_ by str), in the header too; and one
    # column, where csv.writer writes a row's one empty field as "".
    tables = [(["check, id", 'say "x"', "none", "np_bool"],
               [("a,b", 'q"uote', None, np.bool_(True)),
                ("cr\rhere", '""', "", np.bool_(False)),
                ("lf\nhere", "plain", None, np.bool_(True)),
                ("crlf\r\n", ",", "x", np.bool_(True))]),
              (["only"], [("",), (None,), ("a",), ("",)]),
              (["only"], [("",), ("",)]),
              ([""], [(1.5,), (None,)])]
    for header, rows in tables:
        cli._write_csv(tmp_path / "columns.csv", header, rows)
        _write_csv_per_value(tmp_path / "values.csv", header, rows)
        assert ((tmp_path / "columns.csv").read_bytes()
                == (tmp_path / "values.csv").read_bytes()), header


def test_every_golden_matches():
    # Every preset's CSV and the validate report against bench/golden.
    proc = subprocess.run([sys.executable, "bench/run.py", "--check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
