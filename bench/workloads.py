"""Seeded workload generator: turns (workload, seed) into the list of CLI
invocations a benchmark pass runs.

A pass runs a part of each preset's rows (see `_pass_parts`), kept small so
that a run repeats every invocation many times.  Seed 0 is the figure
presets verbatim apart from that choice of rows, so their outputs can be
checked against the golden files.  Any other seed keeps each preset's sweep
shape (variable, count, scale, points) and draws (eta, h0, m, L/ell, the
m-fraction ends and, for the err sweeps, p) inside that preset's regime.
Draws are never filtered: a point that makes the program fail is kept and
counted as failed rows.

Why each workload exists (share of rows that share a symbol (m, eta, h0),
i.e. could reuse one factorization):

* speed_dispersion -- fig8 + fig9 err-sweep over m_of_limit (8 of their 48
  rows, including the last of each, nearest the limiting speed), then
  the fig1 (omega axis), fig2 (k axis) and fig3 (regime-map) presets at
  ATLAS_GROUPS (eta, h0) points on both sides of h0*.  Kernel construction,
  the split, the Liouville cross-check and the dispersion and material root
  finders do the work; no field inversion.  Every err-sweep row has its own
  m, so 0% of rows share a symbol: this workload bypasses kernel reuse and
  batched inversion.  It is the only workload that runs the dispersion and
  material root finders; one preset trio takes about 0.1 s, noise beside
  set-up, hence the repetition.
* crack_line -- fig4 + fig5 fields profiles (54 X x 5 field kinds on one
  symbol each) and fig7 tmax-sweep over L/ell (two 2-row invocations on one
  symbol, so 1 of each pair's 2 factorizations is redundant).  Crack-line inversion dominates; this
  is the workload for batched inversion and kernel reuse, and the bypass for
  changes to the dispersion and material layers.

The tier-1 test runtime is not a timed metric: the tests change between
revisions, so that number would not compare across them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from outputs import parse_config

PRESET_DIR = Path(__file__).resolve().parent.parent / "presets"

# The presets do not name their subcommand; this map is the benchmark's own.
PRESET_SUBCOMMANDS = {
    "fig1": "dispersion",
    "fig2": "dispersion",
    "fig3": "regime-map",
    "fig4": "fields",
    "fig5": "fields",
    "fig6": "tmax-sweep",
    "fig7": "tmax-sweep",
    "fig8": "err-sweep",
    "fig9": "err-sweep",
    "fig10": "limit-study",
}

ATLAS_GROUPS = 6
# Which of a preset's rows a pass runs, and as which invocations.  A pass
# is kept to a few seconds, so that a run repeats every invocation many
# times (see `pass_time` in run.py):
#   fig8, fig9  rows 10-11 and 22-23 of 24, one pair per invocation; no
#               two of their rows share a symbol, so the pairs lose no reuse;
#   fig7        rows 10-11 and 12-13 of 14 (L/ell 2.9 to 10), one pair per
#               invocation; a pair shares one symbol, so one of its two
#               factorizations is redundant;
#   fig4, fig5  every third of the 160 profile points (54 points).
PAIRS = {"fig8": (10, 22), "fig9": (10, 22), "fig7": (10, 12)}  # first rows
FIELDS_STEP = 3

# workload -> ((presets, repetitions), ...) in pass order.
WORKLOADS = {
    "speed_dispersion": ((("fig8", "fig9"), 1), (("fig1", "fig2", "fig3"), ATLAS_GROUPS)),
    "crack_line": ((("fig4", "fig5", "fig7"), 1),),
}


@dataclass(frozen=True)
class Invocation:
    """One `crackwave <subcommand> --config <file>` call of a pass."""

    name: str          # unique within the pass; names the config and out dir
    preset: str        # preset it derives from (golden file key)
    subcommand: str
    config: str        # config file text
    row0: int = 0      # its row i is row row0 + row_step * i of the preset
    row_step: int = 1


def read_preset(preset: str) -> str:
    return (PRESET_DIR / f"{preset}.conf").read_text()


def _render(preset_text: str, values: dict) -> str:
    """Preset text with the given keys' values replaced (comments and key
    order kept)."""
    out, used = [], set()
    for raw in preset_text.splitlines():
        key = raw.split("=", 1)[0].strip()
        if "=" in raw and not raw.lstrip().startswith("#") and key in values:
            raw = f"{key} = {values[key]}"
            used.add(key)
        out.append(raw)
    missing = set(values) - used
    if missing:
        raise KeyError(f"preset has no key(s) {sorted(missing)}")
    return "\n".join(out) + "\n"


def _sweep_pair(text: str, first: int) -> str:
    """The config for rows first and first + 1 of the config's sweep.  A
    2-row grid is its two end points, so these are the sweep's rows bit for
    bit."""
    cfg = parse_config(text)
    space = np.geomspace if cfg.get("sweep.scale") == "log" else np.linspace
    grid = space(float(cfg["sweep.start"]), float(cfg["sweep.stop"]), int(cfg["sweep.count"]))
    return _render(text, {"sweep.start": repr(float(grid[first])),
                          "sweep.stop": repr(float(grid[first + 1])),
                          "sweep.count": "2"})


def _pass_parts(name: str, preset: str, text: str) -> list[Invocation]:
    """The invocations that run a pass's rows of one preset config."""
    sub = PRESET_SUBCOMMANDS[preset]
    if preset in PAIRS:
        return [Invocation(f"{name}-r{a:02d}", preset, sub, _sweep_pair(text, a), a)
                for a in PAIRS[preset]]
    if preset in ("fig4", "fig5"):
        points = int(parse_config(text)["fields.points"])
        assert (points - 1) % FIELDS_STEP == 0
        text = _render(text, {"fields.points": str((points - 1) // FIELDS_STEP + 1)})
        return [Invocation(name, preset, sub, text, 0, FIELDS_STEP)]
    return [Invocation(name, preset, sub, text)]


def _f(x: float) -> str:
    return f"{x:.6g}"


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _draw_err_sweep(rng, eta, h0, p):
    return {
        "material.eta": _f(rng.uniform(*eta)),
        "material.h0": _f(rng.uniform(*h0)),
        "load.L_over_ell": _f(_loguniform(rng, 7.0, 14.0)),
        "load.p": str(rng.choice(p)),
        "sweep.start": _f(rng.uniform(0.04, 0.06)),
        # The sweep keeps its last rows close to the limiting speed.
        "sweep.stop": _f(rng.uniform(0.995, 0.999)),
    }


def _draw_crack(rng, eta):
    # p stays at the preset's value: the crack-line inversion costs about
    # 30% more at p = 2 than at p = 0, which would make the pass time a
    # property of the seed rather than of the code.
    return {
        "material.eta": _f(rng.uniform(*eta)),
        "state.m": _f(rng.uniform(0.26, 0.33)),
        "load.L_over_ell": _f(_loguniform(rng, 0.9, 1.1)),
    }


# Regimes, with h0*(eta) and m_c from the material module:
#   fig8  eta ~ 0, h0 just below h0*(0) = 0.7071, so m_c = 1;
#   fig9  eta ~ 0.9, h0 << h0* (small rotational inertia), m_c = 1;
#   fig4  eta ~ -0.9, h0 > h0* ~ 0.3, m = 0.3 below m_c >= 0.35;
#   fig5, fig7  eta ~ 0.9, h0 > h0* ~ 0.69, m = 0.3 below m_c ~ 0.9;
#   fig1, fig2  eta in [0.8, 0.95] where h0* lies in [0.679, 0.690]; the
#               atlas alternates h0 below and above that band;
#   fig3  the regime map depends on eta only.
def _draw(preset: str, rng: random.Random, group: int = 0) -> dict:
    if preset == "fig8":
        return _draw_err_sweep(rng, (-0.05, 0.05), (0.64, 0.7065), (0, 1, 2))
    if preset == "fig9":
        return _draw_err_sweep(rng, (0.85, 0.93), (0.005, 0.02), (0, 1))
    if preset == "fig4":
        vals = _draw_crack(rng, (-0.92, -0.86))
        vals["material.h0"] = _f(rng.uniform(0.66, 0.74))
        return vals
    if preset in ("fig5", "fig7"):
        vals = _draw_crack(rng, (0.85, 0.93))
        vals["material.h0"] = _f(rng.uniform(0.69, 0.75))
        if preset == "fig7":
            del vals["load.L_over_ell"]
            vals["sweep.start"] = _f(0.05 * _loguniform(rng, 0.9, 1.1))
            vals["sweep.stop"] = _f(10.0 * _loguniform(rng, 0.9, 1.1))
        return vals
    if preset in ("fig1", "fig2"):
        band = (0.45, 0.66) if group % 2 == 0 else (0.71, 0.9)
        return {"material.eta": _f(rng.uniform(0.8, 0.95)),
                "material.h0": _f(rng.uniform(*band))}
    if preset == "fig3":
        return {"material.eta": _f(rng.uniform(-0.93, -0.85))}
    raise KeyError(f"no draw defined for preset {preset!r}")


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    out = []
    for presets, groups in WORKLOADS[workload]:
        for g in range(groups):
            # One generator per (workload, seed, block, group): a group's
            # draws do not depend on how many groups come before it.
            rng = random.Random(f"{workload}:{seed}:{presets[0]}:{g}")
            # fig1 and fig2 of one atlas group share their (eta, h0) point.
            point = None
            for preset in presets:
                text = read_preset(preset)
                if seed != 0:
                    vals = _draw(preset, rng, g)
                    if preset in ("fig1", "fig2"):
                        point = point or vals
                        vals = point
                    text = _render(text, vals)
                name = preset if groups == 1 else f"{preset}-g{g:02d}"
                out.extend(_pass_parts(name, preset, text))
    return out
