"""Batch driver: reproduces every figure's data as CSV and runs the oracle
suite (`validate`).

Configuration is flat `section.key = value` text; see the presets directory
for one config per figure.  Exit codes: 2 config error (or an output
directory that cannot be written), 3 numerical failure, 4 regime violation.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dispersion as disp
from . import fields
from .classical import h_coefficients, h_coefficients_contour
from .errors import (ConfigError, CrackwaveError, DomainError, PoleError,
                     QuadratureError, RegimeError)
from .kernel import KernelParams, factorize
from .energy import (err_ratio_large_length, err_result, err_small_length,
                     solve_crack)
from .loading import LoadProfile, build_split, kp_coefficient
from .material import Material, critical_speed, h0_star, lambda_surface

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4

CONFIG_KEYS = frozenset({
    "material.eta", "material.h0", "load.L_over_ell", "load.p", "state.m",
    "sweep.variable", "sweep.start", "sweep.stop", "sweep.count", "sweep.scale",
    "fields.points",
})


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_config(path) -> dict:
    """Flat `section.key = value` file; '#' starts a comment.  A key may
    appear once."""
    out, seen = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: {key!r} repeats line {seen[key]}")
        out[key], seen[key] = value, lineno
    return out


def _get(cfg, key, cast, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing config key {key!r}")
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r}") from exc


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


@dataclass
class RunConfig:
    material: Material
    profile: LoadProfile
    m: float
    sweep: dict = field(default_factory=dict)
    points: int = 160

    @classmethod
    def from_file(cls, path):
        cfg = parse_config(path)
        unknown = sorted(set(cfg) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s) {unknown}; "
                              f"known keys are {sorted(CONFIG_KEYS)}")
        material = Material(
            eta=_get(cfg, "material.eta", float),
            h0=_get(cfg, "material.h0", float),
        )
        profile = LoadProfile(
            L=_get(cfg, "load.L_over_ell", float, 1.0),
            p=_get(cfg, "load.p", int, 0),
        )
        m = _get(cfg, "state.m", float, 0.0)
        sweep = {}
        if "sweep.variable" in cfg:
            sweep = dict(
                variable=cfg["sweep.variable"],
                start=_get(cfg, "sweep.start", float),
                stop=_get(cfg, "sweep.stop", float),
                count=_get(cfg, "sweep.count", int),
                scale=cfg.get("sweep.scale", "linear"),
            )
            for key in ("sweep.start", "sweep.stop"):
                if not math.isfinite(float(cfg[key])):
                    raise ConfigError(f"{key} must be finite, got {cfg[key]}")
            if sweep["scale"] not in ("linear", "log"):
                raise ConfigError("sweep.scale must be linear or log, "
                                  f"got {sweep['scale']!r}")
            if sweep["count"] < 2 or not sweep["stop"] > sweep["start"]:
                raise ConfigError("sweep grid must be strictly increasing")
        return cls(material=material, profile=profile, m=m, sweep=sweep,
                   points=_get(cfg, "fields.points", _positive_int, 160))

    def grid(self):
        if not self.sweep:
            raise ConfigError("this subcommand needs a sweep block")
        s = self.sweep
        if s["scale"] == "log":
            if s["start"] <= 0:
                raise ConfigError("log sweep needs a positive start")
            return np.geomspace(s["start"], s["stop"], s["count"])
        return np.linspace(s["start"], s["stop"], s["count"])


def _check_sweep(subcommand: str, run: RunConfig):
    """Raise ConfigError unless the run has the sweep that ``subcommand``
    takes, if it takes one."""
    variables = _SWEEP_VARIABLES.get(subcommand)
    if variables is None:
        return
    run.grid()
    variable = run.sweep["variable"]
    if variable not in variables:
        raise ConfigError(f"unsupported sweep variable {variable!r}; "
                          f"{subcommand} sweeps {' or '.join(variables)}")


def _check_out(out: Path):
    """Raise OSError unless CSVs can be written below ``out``: its nearest
    existing ancestor must be a directory this process may write into.
    Nothing is created, so a run that fails later leaves no directory."""
    existing = out.absolute()
    while not existing.exists():
        existing = existing.parent
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise OSError(f"{existing} is not a writable directory (--out {out})")


def _csv_field(v):
    """One value as csv.writer writes it after the CLI's formatting: a float
    as its shortest round-trip decimal, an integer by ``str(int(v))``, None
    empty, anything else by ``str``; by the QUOTE_MINIMAL rule, text that
    holds a comma, a double quote, CR or LF is quoted, its quotes doubled."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    text = "" if v is None else str(v)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\r" in text or "\n" in text:
        return '"' + text + '"'
    return text


def _format_column(values):
    """``_csv_field`` of every value of a column: once for a column that
    holds one object throughout (identity, so -0.0 beside 0.0 stays apart),
    by ``float.__repr__`` for a column of floats and float subclasses such
    as ``np.float64``."""
    first = values[0]
    if all(v is first for v in values):
        return [_csv_field(first)] * len(values)
    if all(issubclass(t, float) for t in set(map(type, values))):
        return list(map(float.__repr__, values))
    return list(map(_csv_field, values))


def _write_csv(path: Path, header, rows):
    """Write ``header`` and ``rows``, each row as wide as the header, in the
    bytes of csv.writer's default dialect: QUOTE_MINIMAL fields and CRLF
    line ends."""
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [_format_column(values) for values in zip(*rows)]
    lines = list(map(",".join, [list(map(_csv_field, header)), *zip(*columns)]))
    if len(header) == 1:  # csv.writer quotes a row's one field when empty
        lines = [line or '""' for line in lines]
    # Truncating an existing file waits for its writeback; a fresh file
    # does not.
    path.unlink(missing_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each subcommand but validate returns the header and rows of
# ``<subcommand>.csv``.

def _cmd_dispersion(run: RunConfig):
    pts = disp.trace_curve(run.grid(), run.material.eta, run.material.h0,
                           axis=run.sweep["variable"])
    rows = [(run.material.eta, run.material.h0, p.omega_norm, p.k_norm, p.mR)
            for p in pts]
    return ["eta", "h0", "omega_ell_over_cs", "k_ell", "m_R"], rows


def _cmd_regime_map(run: RunConfig):
    eta = run.material.eta
    h0s = np.linspace(0.02, 1.2, 60)
    etas = np.linspace(-0.95, 0.95, 39)
    rows = [("m_c_vs_h0", eta, h0, m_c)
            for h0, m_c in zip(h0s, critical_speed(eta, h0s))]
    rows += [("h0_star_vs_eta", e, float("nan"), h)
             for e, h in zip(etas, h0_star(etas))]
    return ["curve", "eta", "h0", "value"], rows


def _cmd_fields(run: RunConfig):
    split = solve_crack(run.material, run.m, run.profile)
    header = ["m", "eta", "h0", "p", "L_over_ell", "X", "X_over_ell",
              "w", "w_G_over_T0_ell", "p3", "p3_ell_over_T0",
              "sigma23_ell_over_T0", "tau23_ell_over_T0", "mu22_over_T0",
              "t23_ell_over_T0"]
    meta = (run.m, run.material.eta, run.material.h0, run.profile.p,
            run.profile.L)
    xs = np.geomspace(*fields.crack_line_window(split), run.points)
    fl = fields.crack_line_fields(xs, split)
    w, p3 = fl["w"], fl["p3"]
    # The library is in units of ℓ, G and T0, so each normalized column
    # repeats the raw one before it.
    rows = [meta + (x, x, w[i], w[i], p3[i], p3[i], fl["sigma23"][i],
                    fl["tau23"][i], fl["mu22"][i], fl["t23"][i])
            for i, x in enumerate(xs)]
    return header, rows


def _tmax_row(material: Material, profile: LoadProfile, m: float):
    split = solve_crack(material, m, profile)
    t23max, x_at = fields.max_total_shear(split)
    return (m, material.eta, material.h0, profile.p, profile.L, t23max,
            t23max, x_at)


def _err_row(material: Material, profile: LoadProfile, m: float):
    res = err_result(solve_crack(material, m, profile))
    return (m, material.eta, material.h0, profile.p, profile.L, res.E,
            res.E, res.E_cl, res.ratio)


def _limit_row(material: Material, profile: LoadProfile, m: float):
    """ERR ratio and the drift of F from F_lim = H_p/(zeta·L), the
    vanishing-microstructure limit: 2i·F_lim²/Upsilon = E_cl."""
    split = solve_crack(material, m, profile)
    res = err_result(split)
    L = profile.L
    f_lim = h_coefficients(profile.p, L)[-1] / (split.kernel.params.zeta * L)
    return (m, material.eta, material.h0, profile.p, L, res.E, res.E_cl,
            res.ratio, abs(res.ratio - 1.0), abs(split.F / f_lim - 1.0))


def _sweep_args(run: RunConfig):
    """(material, profile, m) of every row of the run's sweep, whose
    variable ``_check_sweep`` has accepted.  The material is fixed along a
    sweep, so an m_of_limit sweep takes one critical speed."""
    grid = run.grid()
    mat, prof, variable = run.material, run.profile, run.sweep["variable"]
    if variable == "m":
        return [(mat, prof, v) for v in grid]
    if variable == "m_of_limit":
        m_limit = critical_speed(mat.eta, mat.h0)
        return [(mat, prof, v * m_limit) for v in grid]
    return [(mat, replace(prof, L=v), run.m) for v in grid]


# The sweep subcommands: the worker that computes a row at each point of
# the sweep, and the CSV header.
_SWEEPS = {
    "tmax-sweep": (_tmax_row, ["m", "eta", "h0", "p", "L_over_ell", "t23max",
                               "t23max_ell_over_T0", "X_at_over_ell"]),
    "err-sweep": (_err_row, ["m", "eta", "h0", "p", "L_over_ell", "E",
                             "E_G_ell_over_T0sq", "E_classical", "ratio"]),
    "limit-study": (_limit_row, ["m", "eta", "h0", "p", "L_over_ell", "E",
                                 "E_classical", "ratio", "abs_ratio_minus_1",
                                 "F_limit_drift"]),
}
# The sweep variables of the subcommands that run a sweep.
_SWEEP_VARIABLES = {
    "dispersion": ("omega", "k"),
    **dict.fromkeys(_SWEEPS, ("m", "m_of_limit", "L_over_ell")),
}


def _cmd_sweep(worker, header, run: RunConfig, jobs: int):
    """worker(material, profile, m) at every point of the run's sweep, in
    ``jobs`` worker processes when more than one."""
    args = _sweep_args(run)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return header, list(pool.map(worker, *zip(*args)))
    return header, [worker(*a) for a in args]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validate_checks():
    """Quick oracle suite: (check_id, target, computed, tolerance) rows."""
    checks = []

    mc = critical_speed(-0.9, 0.707)
    checks.append(("critical_speed_eta-0.9_h0-0.707", 0.441, mc, 5e-3))
    checks.append(("critical_speed_degenerate", 1.0,
                   critical_speed(0.0, 1.0 / math.sqrt(2.0)), 1e-8))
    checks.append(("h0_star_eta0", 1.0 / math.sqrt(2.0), h0_star(0.0), 1e-8))
    checks.append(("lambda_at_h0star", 0.0,
                   lambda_surface(0.9, h0_star(0.9), 1.0), 1e-10))

    pts = disp.trace_curve(np.geomspace(0.1, 10.0, 25), 0.0, 0.707, axis="k")
    dev = max(abs(p.mR - disp.shear_phase_speed(p.k_norm, 0.707)) for p in pts)
    checks.append(("dispersion_shear_degeneracy", 0.0, dev, 1e-8))
    m_inf = disp.trace_curve(np.array([1e3]), 0.9, 0.8, axis="omega")[0].mR
    checks.append(("dispersion_highfreq_limit", critical_speed(0.9, 0.8),
                   m_inf, 1e-3))
    # The determinant, a second route to the curve: at fig1's material it
    # changes sign across [m_R(1 − 1e-9), m_R(1 + 1e-9)] at every point of
    # fig1's grid.
    grid = np.geomspace(0.05, 50.0, 120)
    flips = 0
    for axis in ("omega", "k"):
        m_r = np.array([p.mR for p in disp.trace_curve(grid, 0.9, 0.8, axis)])
        d = disp._scaled_det(m_r[:, None] * np.array([1.0 - 1e-9, 1.0 + 1e-9]),
                             0.9, 0.8, **{f"{axis}_norm": grid[:, None]})
        flips += int(np.sum(d[:, 0] * d[:, 1] < 0.0))
    checks.append(("dispersion_det_sign_change", 2 * grid.size, flips, 0.0))

    hj = h_coefficients(3, 2.0)
    hj2 = h_coefficients_contour(3, 2.0)
    checks.append(("classical_coefficients_contour", 0.0,
                   float(np.abs(hj - hj2).max()), 1e-10))
    kp_dev = max(abs(kp_coefficient(p) - v)
                 for p, v in enumerate((1.0, 0.5, 0.375, 0.3125)))
    checks.append(("kp_closed_form", 0.0, kp_dev, 1e-12))

    kernel = factorize(KernelParams(m=0.3, eta=0.9, h0=0.707))
    # The boundary value k⁺_line from the θ interpolant, which the field
    # integrands use, against the off-axis Cauchy integral just above the
    # axis.
    xi = np.geomspace(1e-2, 1e3, 100)
    jump = max(abs(kernel.k_plus(x + 1e-6j * x) - kernel.k_plus_line(x))
               / abs(kernel.k_plus_line(x)) for x in xi)
    checks.append(("kplus_boundary_value", 0.0, float(jump), 1e-6))

    split = build_split(kernel, LoadProfile(L=10.0, p=1))
    checks.append(("liouville_cross_check", 0.0,
                   abs(split.F - split.F_alt) / abs(split.F), 1e-6))
    w0 = fields.crack_opening(-1e-10, split)
    w_ref = abs(fields.crack_opening(-3.0, split))
    checks.append(("tip_closure", 0.0, abs(w0) / w_ref, 1e-6))
    checks.append(("balance_T0", 1.0, fields.balance_integral(split), 1e-5))
    split_30 = build_split(kernel, LoadProfile(L=30.0, p=3))
    checks.append(("balance_T0_L30_p3", 1.0, fields.balance_integral(split_30), 1e-5))
    # The fields near the tip against their closed-form singular terms,
    # t23 ~ C_t·x^{−3/2} ahead and w ~ C_w·x^{3/2} behind, at x = 1e-5·ℓ on
    # either side of C_t's sign change at m = 0.316 (eta = −0.9, h0 = 0.707).
    # The inverted fields approach them with an error proportional to x.
    tip_material = Material(eta=-0.9, h0=0.707)
    x = 1e-5
    for m in (0.2, 0.433):
        tip_split = solve_crack(tip_material, m, LoadProfile(L=1.0, p=1))
        near = fields.neartip_coefficients(tip_split)
        fl = fields.crack_line_fields(x, tip_split)
        checks.append((f"neartip_t23_m{m}", 1.0, fl["t23"] / (near.C_t * x**-1.5), 1e-3))
        checks.append((f"neartip_w_m{m}", 1.0, fl["w"] / (near.C_w * x**1.5), 2e-4))
    res = err_result(split)
    checks.append(("err_positive", 1.0, 1.0 if res.E > 0 else 0.0, 0.5))
    # E at both ends of the L/ℓ axis against its closed forms: E/E_cl to
    # first order in ℓ/L, whose remainder is O((ℓ/L)²), so a tolerance of
    # 2(ℓ/L)²; and E to leading order in L/ℓ, whose relative remainder is
    # O(L/ℓ), so a tolerance of 10·L/ℓ.
    large = build_split(kernel, LoadProfile(L=1e4, p=1))
    checks.append(("err_ratio_large_L1e4", err_ratio_large_length(large),
                   err_result(large).ratio, 2e-7))
    small = build_split(kernel, LoadProfile(L=1e-4, p=1))
    checks.append(("err_small_L1e-4", 1.0,
                   err_result(small).E / err_small_length(small), 1e-3))
    return checks


def _cmd_validate(out: Path):
    checks = _validate_checks()
    rows = []
    n_fail = 0
    print(f"{'check':40s} {'target':>14s} {'computed':>14s} {'tol':>9s}  status")
    for check_id, target, computed, tol in checks:
        ok = abs(computed - target) <= tol
        n_fail += 0 if ok else 1
        print(f"{check_id:40s} {target:14.6g} {computed:14.6g} {tol:9.1e}  "
              f"{'pass' if ok else 'FAIL'}")
        rows.append((check_id, target, computed, tol, ok))
    _write_csv(out / "validate_report.csv",
               ["check_id", "target", "computed", "tolerance", "pass"], rows)
    if n_fail:
        raise QuadratureError(f"{n_fail} validation checks failed")
    return out / "validate_report.csv"


_DISPATCH = {
    "dispersion": _cmd_dispersion,
    "regime-map": _cmd_regime_map,
    "fields": _cmd_fields,
}
SUBCOMMANDS = (*_DISPATCH, *_SWEEPS, "validate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crackwave",
        description="Steady antiplane moving-crack solver for couple-stress "
                    "elasticity (CSV outputs).")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for sweep rows")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        if args.subcommand == "validate":
            if args.config:
                raise ConfigError("validate takes no --config")
            _check_out(out)
            path = _cmd_validate(out)
        else:
            if not args.config:
                raise ConfigError(f"{args.subcommand} requires --config")
            run = RunConfig.from_file(args.config)
            _check_sweep(args.subcommand, run)
            _check_out(out)
            if args.subcommand in _SWEEPS:
                header, rows = _cmd_sweep(*_SWEEPS[args.subcommand], run, args.jobs)
            else:
                header, rows = _DISPATCH[args.subcommand](run)
            path = _write_csv(out / f"{args.subcommand}.csv", header, rows)
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RegimeError, DomainError, PoleError) as exc:
        print(f"regime/domain violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except CrackwaveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
