"""Self-tests of the benchmark harness: seeded inputs, metric names, tracing
that changes no result and leaves no wrapper behind, failure accounting and
the golden comparison.

    python3 -m pytest bench/tests -q
"""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import outputs  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def cli():
    return bench.load_cli()


def _small(preset, name=None, **values):
    """A cut-down variant of a preset as one invocation."""
    text = workloads._render(workloads.read_preset(preset),
                             {k.replace("__", "."): v for k, v in values.items()})
    return workloads.Invocation(name or preset, preset,
                                workloads.PRESET_SUBCOMMANDS[preset], text)


def _run(cli, invs, out_dir: Path):
    configs = {}
    for inv in invs:
        configs[inv.name] = out_dir / f"{inv.name}.conf"
        configs[inv.name].parent.mkdir(parents=True, exist_ok=True)
        configs[inv.name].write_text(inv.config)
    _, _, codes = bench.run_pass(cli, invs, configs, out_dir)
    return codes


SMALL = [
    dict(preset="fig1", sweep__count="6"),
    dict(preset="fig3"),
    dict(preset="fig5", fields__points="3"),
    dict(preset="fig7", sweep__count="2"),
    dict(preset="fig8", sweep__count="2"),
]


# -- seeded inputs -------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_configs(workload):
    for seed in (0, 1, 17):
        assert workloads.invocations(workload, seed) == workloads.invocations(workload, seed)
    assert workloads.invocations(workload, 1) != workloads.invocations(workload, 2)


def _grid(cfg: dict):
    space = np.geomspace if cfg.get("sweep.scale") == "log" else np.linspace
    return space(float(cfg["sweep.start"]), float(cfg["sweep.stop"]), int(cfg["sweep.count"]))


ROW_KEYS = ("sweep.start", "sweep.stop", "sweep.count", "fields.points")


def _rest(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k not in ROW_KEYS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_is_the_presets(workload):
    """Seed 0 runs the preset files apart from which rows a pass runs, and
    those rows are the preset's own."""
    for inv in workloads.invocations(workload, 0):
        preset_text = workloads.read_preset(inv.preset)
        if inv.config == preset_text:
            assert (inv.row0, inv.row_step) == (0, 1)
            continue
        cfg, expected = outputs.parse_config(inv.config), outputs.parse_config(preset_text)
        assert _rest(cfg) == _rest(expected) and cfg.keys() == expected.keys()
        if "sweep.count" in cfg:
            rows = _grid(expected)[inv.row0::inv.row_step][:int(cfg["sweep.count"])]
            assert _grid(cfg).tolist() == rows.tolist()
        else:
            assert inv.row0 == 0
            assert (int(cfg["fields.points"]) - 1) * inv.row_step \
                == int(expected["fields.points"]) - 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seeds_keep_sweep_shape(workload):
    """Another seed draws other values into the same invocations and rows."""
    drawn, zero = workloads.invocations(workload, 3), workloads.invocations(workload, 0)
    assert len({inv.name for inv in drawn}) == len(drawn)
    assert [(i.name, i.preset, i.subcommand, i.row0, i.row_step) for i in drawn] == \
        [(i.name, i.preset, i.subcommand, i.row0, i.row_step) for i in zero]
    for inv, ref in zip(drawn, zero):
        cfg, ref_cfg = outputs.parse_config(inv.config), outputs.parse_config(ref.config)
        assert cfg.keys() == ref_cfg.keys()
        for key in ("sweep.variable", "sweep.count", "sweep.scale", "fields.points"):
            assert cfg.get(key) == ref_cfg.get(key)


def test_every_preset_is_mapped_and_has_a_golden(cli):
    presets = {p.stem for p in (ROOT / "presets").glob("*.conf")}
    assert presets == set(workloads.PRESET_SUBCOMMANDS)
    for preset, sub in workloads.PRESET_SUBCOMMANDS.items():
        assert sub in cli.SUBCOMMANDS
        assert (outputs.GOLDEN_DIR / f"{preset}.csv").is_file()


# -- metric names ----------------------------------------------------------------

def test_metric_names_and_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layers == {m: bench.layer_unit(m) for m in bench.PER_LAYER}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in [*e2e, *layers, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


# -- tracing ---------------------------------------------------------------------

def test_traced_outputs_identical_and_sites_restored(cli, tmp_path):
    invs = [_small(**kw) for kw in SMALL]
    plain = _run(cli, invs, tmp_path / "plain")
    tracer = tracing.Tracer()
    sites = tracer.sites()
    with tracer.installed():
        assert all(getattr(owner, attr) is not orig for owner, attr, orig, _ in sites)
        traced = _run(cli, invs, tmp_path / "traced")
    assert plain == traced == [0] * len(invs)
    assert bench._mismatched_rows(invs, tmp_path / "plain", tmp_path / "traced") == 0
    for owner, attr, original, _ in sites:
        assert getattr(owner, attr) is original, (owner, attr)

    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == len(invs)
    assert summary["kernel.factorize"]["calls"] == 1 + 2 + 2  # fields, tmax rows, err rows
    assert summary["dispersion.trace_curve"]["calls"] == 1
    assert tracer.counters["dispersion.points"] == 6
    assert tracer.counters["numerics.panel_nodes"] > 0
    assert 0.0 < tracer.gauges["loading.F_crosscheck_rel_max"] < 1e-6
    ids = {span[0] for span in tracer.spans}
    assert len(ids) == len(tracer.spans)
    assert all(parent in ids for _, parent, *_ in tracer.spans if parent != -1)
    for stats in summary.values():
        assert stats["self_s"] <= stats["total_s"] + 1e-12


def test_sites_restored_when_the_traced_block_raises():
    tracer = tracing.Tracer()
    sites = tracer.sites()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    for owner, attr, original, _ in sites:
        assert getattr(owner, attr) is original


def test_every_import_site_is_wrapped(cli):
    import crackwave.cli
    import crackwave.energy
    import crackwave.kernel
    import crackwave.numerics
    names = {(owner.__name__, attr): name for owner, attr, _, name in tracing.Tracer().sites()}
    for mod in (crackwave.cli, crackwave.energy, crackwave.kernel):
        assert names[(mod.__name__, "factorize")] == "kernel.factorize"
    assert names[("crackwave.dispersion", "bracketed_root")] == "dispersion.bracketed_root"
    assert names[("crackwave.material", "bracketed_root")] == "material.bracketed_root"
    assert names[("crackwave.fields", "oscillatory_halfline")] == "numerics.oscillatory_halfline"


# -- failure accounting and golden comparison ------------------------------------

def test_failing_row_is_counted_not_raised(cli, tmp_path):
    good = _small("fig3")
    # h0 far past the regime: m = 0.3 is above the critical speed there.
    bad = _small("fig5", name="bad", material__h0="3", fields__points="4")
    codes = _run(cli, [good, bad], tmp_path)
    assert codes[0] == 0 and codes[1] != 0
    attempted, failed = bench.check_pass([good, bad], codes, tmp_path, golden=True)
    assert attempted == outputs.REGIME_MAP_ROWS + 4
    assert failed == 4


def test_golden_tolerance(cli, tmp_path):
    inv = _small("fig3")
    (rc,) = _run(cli, [inv], tmp_path)
    csv_path = tmp_path / "fig3" / "regime-map.csv"
    assert outputs.failed_rows("regime-map", inv.config, rc, tmp_path / "fig3", "fig3") \
        == (outputs.REGIME_MAP_ROWS, 0)
    lines = csv_path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-4))
    lines[5] = ",".join(cells)
    del lines[-3:]
    csv_path.write_text("\n".join(lines) + "\n")
    assert outputs.failed_rows("regime-map", inv.config, rc, tmp_path / "fig3", "fig3") \
        == (outputs.REGIME_MAP_ROWS, 1 + 3)


def test_part_of_a_sweep_is_compared_with_its_own_golden_rows(cli, tmp_path):
    last = [inv for inv in workloads.invocations("speed_dispersion", 0)
            if inv.preset == "fig8"][-1]
    assert last.row0 > 0
    (rc,) = _run(cli, [last], tmp_path)
    rows = outputs.expected_rows(last.subcommand, last.config)
    assert outputs.failed_rows(last.subcommand, last.config, rc, tmp_path / last.name,
                               "fig8", last.row0) == (rows, 0)
    assert outputs.failed_rows(last.subcommand, last.config, rc, tmp_path / last.name,
                               "fig8", 0) == (rows, rows)
