#!/usr/bin/env python3
"""Benchmark of the crackwave CLI.

    python3 bench/run.py --workload speed_dispersion --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --check
    python3 bench/run.py --write-golden

A workload run is this one Python process.  It measures set-up (fresh
interpreters importing crackwave.cli), imports crackwave.cli itself, writes
the seeded configs, then runs whole passes -- one `cli.main` call per
invocation, `--jobs 1`, in-process, the way a user runs a preset -- while
the next pass is expected to end within `--seconds`.  A pass time is the
sum over invocations of each invocation's best time over the passes.
Outputs are checked after every pass, outside the timed region.  With `--trace 1` passes alternate untraced
and traced; the traced pass reports per-layer figures, and its CSVs must be
byte-identical to the untraced pass's.

`--check` runs every preset once against its golden file, fig6 and fig10
included, plus `crackwave validate`; it exits nonzero if anything fails.
`--write-golden` regenerates the golden files from the presets.

The last stdout line is the JSON result; the lines before it are the run
record and a metric table.  BLAS thread counts default to 1 (a caller's
`*_NUM_THREADS` settings are kept and recorded), because CPU time depends on
them.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
IMPORT_PROBE = "import crackwave.cli, time; print(repr(time.perf_counter()))"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "solve_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Per-layer metric -> (span or counter name, field); see README.md for the
# end-to-end metric and workload each one should move.
PER_LAYER = {
    "cli.main.self_s": ("cli.main", "self_s"),
    "material.critical_speed.calls": ("material.critical_speed", "calls"),
    "material.critical_speed.self_s": ("material.critical_speed", "self_s"),
    "material.h0_star.self_s": ("material.h0_star", "self_s"),
    "dispersion.trace_curve.calls": ("dispersion.trace_curve", "calls"),
    "dispersion.trace_curve.self_s": ("dispersion.trace_curve", "self_s"),
    "dispersion.points": ("dispersion.points", "counter"),
    "dispersion.bracketed_root.calls": ("dispersion.bracketed_root", "calls"),
    "kernel.factorize.calls": ("kernel.factorize", "calls"),
    "kernel.factorize.self_s": ("kernel.factorize", "self_s"),
    "kernel.factorize.p50_ms": ("kernel.factorize", "p50_ms"),
    "kernel.theta_exact.calls": ("kernel.theta_exact", "calls"),
    "kernel.theta_exact.self_s": ("kernel.theta_exact", "self_s"),
    "kernel.k_plus.calls": ("kernel.k_plus", "calls"),
    "kernel.cauchy_integral.self_s": ("kernel.cauchy_integral", "self_s"),
    "kernel.k_line.calls": ("kernel.k_line", "calls"),
    "kernel.k_line.self_s": ("kernel.k_line", "self_s"),
    "loading.build_split.calls": ("loading.build_split", "calls"),
    "loading.build_split.self_s": ("loading.build_split", "self_s"),
    "loading.split_coefficients.self_s": ("loading.split_coefficients", "self_s"),
    "loading.split_coefficients.total_s": ("loading.split_coefficients", "total_s"),
    "loading.liouville_constant.self_s": ("loading.liouville_constant", "self_s"),
    "loading.F_crosscheck_rel_max": ("loading.F_crosscheck_rel_max", "gauge"),
    "numerics.oscillatory_halfline.calls": ("numerics.oscillatory_halfline", "calls"),
    "numerics.oscillatory_halfline.self_s": ("numerics.oscillatory_halfline", "self_s"),
    "numerics.panel_sums.calls": ("numerics.panel_sums", "calls"),
    "numerics.panel_nodes": ("numerics.panel_nodes", "counter"),
    "numerics.power_tail.calls": ("numerics.power_tail", "calls"),
    "numerics.power_tail.self_s": ("numerics.power_tail", "self_s"),
    "numerics.fit_power_tail.calls": ("numerics.fit_power_tail", "calls"),
    "numerics.contour_coefficients.self_s": ("numerics.contour_coefficients", "self_s"),
    **{f"fields.{fn}.{field}": (f"fields.{fn}", field)
       for fn in ("crack_opening", "traction_ahead", "stresses_on_line", "max_total_shear")
       for field in ("calls", "p50_ms", "self_s")},
    "energy.err_result.calls": ("energy.err_result", "calls"),
    "energy.err_result.self_s": ("energy.err_result", "self_s"),
    "trace.overhead_frac": ("trace", "overhead_frac"),
}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_frac") or metric.endswith("_rel_max"):
        return "frac"
    return "count"


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        return "unknown"


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": "unknown (not a git checkout)", "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": "unknown (git unavailable)", "dirty": None}
    return {"sha": sha or "unknown", "dirty": bool(status.strip())}


def run_record(**extra) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": _blas(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "git": _git(),
        **extra,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds from spawning a fresh interpreter to `crackwave.cli` imported
    (time.perf_counter is one system-wide monotonic clock)."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing crackwave.cli failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def load_cli():
    sys.path.insert(0, str(SRC))
    import crackwave.cli as cli
    return cli


def _invoke(cli, argv) -> int:
    """One CLI call; an exception escaping the CLI is reported and counted
    as a failed invocation, so the pass goes on."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def run_pass(cli, invs, configs: dict, out_dir: Path):
    """Run every invocation once; returns per-invocation wall and CPU
    seconds and exit codes.  The CLI's `wrote ...` lines are kept off
    stdout."""
    walls, cpus, codes = [], [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for inv in invs:
            t0, c0 = time.perf_counter(), time.process_time()
            codes.append(_invoke(cli, [inv.subcommand, "--config", str(configs[inv.name]),
                                       "--out", str(out_dir / inv.name), "--jobs", "1"]))
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
    return walls, cpus, codes


def pass_time(samples) -> float:
    """Time of one pass from several: the sum over invocations of each
    invocation's best time over the passes.  The host's slow spells only
    ever add time, and they last seconds, so the best of an invocation's
    repeats is the one the spells missed; the median of the repeats moves
    with how much of the run the spells covered."""
    return sum(min(per_inv) for per_inv in zip(*samples))


def check_pass(invs, codes, out_dir: Path, golden: bool):
    import outputs
    attempted = failed = 0
    for inv, rc in zip(invs, codes):
        a, f = outputs.failed_rows(inv.subcommand, inv.config, rc, out_dir / inv.name,
                                   inv.preset if golden else None, inv.row0, inv.row_step)
        attempted += a
        failed += f
    return attempted, failed


def _csv_bytes(out_dir: Path) -> dict:
    return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*.csv"))}


def _mismatched_rows(invs, reference: Path, traced: Path) -> int:
    """Rows of invocations whose traced CSV differs from the untraced one."""
    import outputs
    ref, got = _csv_bytes(reference), _csv_bytes(traced)
    bad = 0
    for inv in invs:
        mine = {k: v for k, v in got.items() if k.parts[0] == inv.name}
        theirs = {k: v for k, v in ref.items() if k.parts[0] == inv.name}
        if mine != theirs:
            bad += outputs.expected_rows(inv.subcommand, inv.config)
    return bad


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
    import tracing
    import workloads

    setup = [] if trace else measure_setup()
    cli = load_cli()
    invs = workloads.invocations(workload, seed)
    configs = {}
    for inv in invs:
        path = scratch / "configs" / f"{inv.name}.conf"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(inv.config)
        configs[inv.name] = path

    walls = {False: [], True: []}
    cpus = {False: [], True: []}
    attempted = failed = 0
    tracer = tracing.Tracer()
    start = time.perf_counter()
    n = 0
    # Whole passes while the next one is expected to fit in the window (a
    # traced run needs one untraced and one traced pass at least), so a run
    # ends near `seconds` however long its passes are.
    while True:
        traced = trace and n % 2 == 1
        last = walls[traced][-1] if walls[traced] else []
        if last and time.perf_counter() - start + sum(last) > seconds:
            break
        out_dir = scratch / f"pass{n}"
        with tracer.installed() if traced else contextlib.nullcontext():
            wall, cpu, codes = run_pass(cli, invs, configs, out_dir)
        walls[traced].append(wall)
        cpus[traced].append(cpu)
        a, f = check_pass(invs, codes, out_dir, golden=seed == 0)
        attempted += a
        failed += f
        if traced:
            failed += _mismatched_rows(invs, scratch / "pass0", out_dir)
        if n > 0:
            shutil.rmtree(out_dir)
        n += 1

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        values = {
            "setup_s": statistics.median(setup),
            "solve_s": pass_time(walls[False]),
            "cpu_s": pass_time(cpus[False]),
            "peak_rss_mb": rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        per_pass = len(walls[True])
        spans = tracer.summary(passes=per_pass)
        values = {}
        for metric, (name, field) in PER_LAYER.items():
            if field == "counter":
                values[metric] = tracer.counters.get(name, 0) / per_pass
            elif field == "gauge":
                values[metric] = tracer.gauges.get(name, 0.0)
            elif name == "trace":
                values[metric] = pass_time(walls[True]) / pass_time(walls[False]) - 1.0
            else:
                values[metric] = spans.get(name, {}).get(field, 0.0)
        units = {m: layer_unit(m) for m in PER_LAYER}
    record = run_record(workload=workload, seed=seed, trace=int(trace),
                        passes=n, setup_samples=len(setup),
                        pass_s=[round(sum(w), 4) for w in walls[False]],
                        # the same pass time from per-invocation medians
                        median_pass_s=round(sum(map(statistics.median, zip(*walls[False]))), 4),
                        traced_pass_s=[round(sum(w), 4) for w in walls[True]],
                        fail_frac=failed / attempted)
    return record, attempted, failed, values, units


# ---------------------------------------------------------------------------
# golden check and regeneration
# ---------------------------------------------------------------------------

def _preset_invocations():
    import workloads
    for preset in sorted(workloads.PRESET_SUBCOMMANDS, key=lambda p: int(p[3:])):
        yield workloads.Invocation(preset, preset, workloads.PRESET_SUBCOMMANDS[preset],
                                   workloads.read_preset(preset))


def _run_preset(cli, inv, scratch: Path) -> int:
    config = scratch / f"{inv.name}.conf"
    config.write_text(inv.config)
    _, _, (rc,) = run_pass(cli, [inv], {inv.name: config}, scratch)
    return rc


def check_all(scratch: Path) -> bool:
    """Every preset once against its golden file, then `validate`."""
    import outputs
    cli = load_cli()
    ok = True
    for inv in _preset_invocations():
        rc = _run_preset(cli, inv, scratch)
        attempted, failed = outputs.failed_rows(inv.subcommand, inv.config, rc,
                                                scratch / inv.name, inv.preset)
        print(f"golden {inv.preset:6s} {inv.subcommand:12s} rc={rc} "
              f"rows={attempted} failed={failed}")
        ok &= failed == 0
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = _invoke(cli, ["validate", "--out", str(scratch / "validate")])
    print(sink.getvalue().rstrip())
    print(f"validate rc={rc}")
    return ok and rc == 0


def write_goldens(scratch: Path):
    import outputs
    cli = load_cli()
    for inv in _preset_invocations():
        rc = _run_preset(cli, inv, scratch)
        if rc != 0:
            raise SystemExit(f"preset {inv.preset} exited {rc}; golden not written")
        print(f"wrote {outputs.write_golden(inv.preset, inv.subcommand, scratch / inv.name)}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "crackwave" / "cli.py").is_file() or not (ROOT / "presets").is_dir():
        print(f"crackwave sources not found under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads
    if not (args.check or args.write_golden) and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    scratch = ROOT / ".bench_out" / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_golden:
            write_goldens(scratch)
            return 0
        if args.check:
            ok = check_all(scratch)
            print(json.dumps(run_record(check="golden+validate", passed=ok)))
            return 0 if ok else 1
        record, attempted, failed, values, units = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    print("record " + json.dumps(record, sort_keys=True))
    print(f"{'fail_frac':40s} {failed / attempted:14.6g} frac  ({failed} of {attempted} rows)")
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
