"""Command-line configuration: a bad key or value is a config error (exit 2)
before any computation starts."""
from pathlib import Path

import pytest

from crackwave import cli

PRESETS = Path(__file__).resolve().parents[1] / "presets"

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
dispersion.axis = omega
"""


@pytest.mark.parametrize("subcommand,text,message", [
    # A misspelt key used to be dropped silently, running at L/ell = 1.
    ("err-sweep", ERR_SWEEP.replace("load.L_over_ell", "load.L_over_el"),
     "unknown config key(s) ['load.L_over_el']"),
    ("fields", FIELDS.replace("= 160", "= abc"), "bad value for 'fields.points'"),
    ("fields", FIELDS.replace("= 160", "= -3"), "bad value for 'fields.points'"),
    ("dispersion", DISPERSION.replace("axis = omega", "axis = kk"),
     "bad value for 'dispersion.axis'"),
], ids=["misspelt-key", "points-not-int", "points-negative", "axis-unknown"])
def test_bad_config_exits_with_config_error(tmp_path, capsys, subcommand, text, message):
    config = tmp_path / "run.conf"
    config.write_text(text)
    rc = cli.main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset", sorted(PRESETS.glob("*.conf")), ids=lambda p: p.stem)
def test_every_preset_parses(preset):
    run = cli.RunConfig.from_file(preset)
    assert run.points >= 1 and run.axis in ("omega", "k")
