"""Correctness checks on the CSVs a benchmark pass writes.

Every invocation promises a number of rows.  A row fails when its
invocation exited nonzero (all of that invocation's rows fail), when it is
missing, when a checked value is not finite, when it breaks an invariant of
its subcommand, or -- for presets run verbatim (seed 0) -- when it lies
outside the golden tolerance:

    |value - golden| <= RTOL * max(|golden|, FLOOR * max|golden column|)

The floor keeps values at a sign change of a profile from demanding
digits that the column's scale does not carry.  Golden files hold every
row, except the fields profiles, which keep every FIELDS_STRIDE-th row.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-6
FLOOR = 1e-6
FIELDS_STRIDE = 8
REGIME_MAP_ROWS = 60 + 39  # h0 grid and eta grid, fixed in the CLI

CSV_NAME = {
    "dispersion": "dispersion.csv",
    "regime-map": "regime-map.csv",
    "fields": "fields.csv",
    "tmax-sweep": "tmax-sweep.csv",
    "err-sweep": "err-sweep.csv",
    "limit-study": "limit-study.csv",
}


def parse_config(text: str) -> dict:
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def expected_rows(subcommand: str, config_text: str) -> int:
    cfg = parse_config(config_text)
    if subcommand == "regime-map":
        return REGIME_MAP_ROWS
    if subcommand == "fields":
        return int(cfg.get("fields.points", 160))
    return int(cfg["sweep.count"])


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _numbers(header, row, skip=()):
    """Row as {column: float}; the `curve` label and skipped columns are
    left out."""
    return {h: float(v) for h, v in zip(header, row) if h != "curve" and h not in skip}


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _invariant(subcommand: str, r: dict) -> bool:
    """Cheap physical checks that hold at every seed."""
    if subcommand == "dispersion":
        # 0 < m_R <= planar shear speed m_B(k), and omega = m_R k.
        k = r["k_ell"]
        m_b = math.sqrt((1.0 + 0.5 * k * k) / (1.0 + r["h0"] ** 2 * k * k))
        return 0.0 < r["m_R"] <= m_b * (1.0 + 1e-9) \
            and _close(r["omega_ell_over_cs"], r["m_R"] * k)
    if subcommand == "regime-map":
        return 0.0 < r["value"] <= 1.0
    if subcommand == "fields":
        return _close(r["t23_ell_over_T0"],
                      r["sigma23_ell_over_T0"] + r["tau23_ell_over_T0"], 1e-6) \
            or abs(r["t23_ell_over_T0"]) < 1e-12
    if subcommand == "tmax-sweep":
        return r["t23max"] > 0.0 and 1e-3 * (1 - 1e-9) <= r["X_at_over_ell"] \
            <= 1e2 * max(r["L_over_ell"], 1.0) * (1 + 1e-9)
    if subcommand == "err-sweep":
        return r["E"] > 0.0 and r["E_classical"] > 0.0 \
            and _close(r["ratio"], r["E"] / r["E_classical"], 1e-8)
    if subcommand == "limit-study":
        return r["E"] > 0.0 and _close(r["ratio"], r["E"] / r["E_classical"], 1e-8)
    raise KeyError(subcommand)


def golden_rows(preset: str):
    return read_csv(GOLDEN_DIR / f"{preset}.csv")


def golden_stride(subcommand: str) -> int:
    return FIELDS_STRIDE if subcommand == "fields" else 1


def _matches_golden(header, row, g_header, g_row, scale) -> bool:
    if header != g_header:
        return False
    for h, v, g in zip(header, row, g_row):
        if h == "curve":
            if v != g:
                return False
            continue
        v, g = float(v), float(g)
        if math.isnan(g):
            if not math.isnan(v):
                return False
        elif not abs(v - g) <= RTOL * max(abs(g), FLOOR * scale[h]):
            return False
    return True


def _column_scale(header, rows):
    scale = {}
    for i, h in enumerate(header):
        if h == "curve":
            continue
        vals = [abs(float(r[i])) for r in rows if not math.isnan(float(r[i]))]
        scale[h] = max(vals, default=0.0)
    return scale


def failed_rows(subcommand: str, config_text: str, rc: int, out_dir: Path,
                golden_preset: str | None = None, row0: int = 0,
                row_step: int = 1) -> tuple[int, int]:
    """(attempted, failed) rows of one invocation whose CLI exit code was
    ``rc`` and whose outputs are in ``out_dir``.  With ``golden_preset`` the
    rows are also compared with that preset's golden file; the
    invocation's row i is the preset's row ``row0 + row_step * i``."""
    attempted = expected_rows(subcommand, config_text)
    path = Path(out_dir) / CSV_NAME[subcommand]
    if rc != 0 or not path.exists():
        return attempted, attempted
    header, rows = read_csv(path)
    golden = None
    if golden_preset is not None:
        g_header, g_rows = golden_rows(golden_preset)
        golden = (g_header, g_rows, _column_scale(g_header, g_rows))
    stride = golden_stride(subcommand)
    ok = 0
    # The regime map's h0 column is NaN by design on its h0* rows.
    skip = ("h0",) if subcommand == "regime-map" else ()
    for i, row in enumerate(rows[:attempted]):
        try:
            r = _numbers(header, row, skip)
        except ValueError:
            continue
        if not all(math.isfinite(v) for v in r.values()) or not _invariant(subcommand, r):
            continue
        k = row0 + row_step * i
        if golden is not None and k % stride == 0:
            j = k // stride
            if j >= len(golden[1]) or not _matches_golden(header, row, golden[0],
                                                          golden[1][j], golden[2]):
                continue
        ok += 1
    return attempted, attempted - ok


def write_golden(preset: str, subcommand: str, out_dir: Path) -> Path:
    """Store ``out_dir``'s CSV (subsampled for fields) as the golden file."""
    header, rows = read_csv(Path(out_dir) / CSV_NAME[subcommand])
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{preset}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows[::golden_stride(subcommand)])
    return path
