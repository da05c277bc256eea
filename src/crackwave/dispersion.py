"""Antiplane couple-stress surface-wave dispersion.

Evaluates the traction-free-surface determinant and traces the phase-speed
curve m_R(omega) or m_R(k).  The decaying-mode branch exists for m_R below
the planar-shear curve m_B(k)² = (1 + k²ℓ²/2)/(1 + h0²k²ℓ²), where both
decay exponents are real; at eta = 0 the root sits exactly on that boundary
(the surface wave degenerates to the planar shear wave).

Every grid point is solved on its own, with no continuation from its
neighbour: a fixed scan in m below m_B takes the primary (fastest) branch,
the last sign change of the determinant, and one lockstep root solve
refines the brackets of the whole curve.  The scan runs from the top: the
points nearest m_B first, and the lower ones only where those hold no sign
change.  Neighbouring points that differ by more than 5% are reported
after the solve.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RootLossError
from .kernel import wave_exponents
from .numerics import bracketed_root, row_blocks

__all__ = [
    "DispersionPoint",
    "trace_curve",
    "shear_phase_speed",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DispersionPoint:
    """One point of the dispersion curve; mR·k_norm = omega_norm."""

    omega_norm: float
    k_norm: float
    mR: float


def shear_phase_speed(k_norm: float, h0: float):
    """Planar shear phase speed m(k) = sqrt((1 + k²ℓ²/2)/(1 + h0²k²ℓ²)).

    This is the eta = 0 oracle for the surface-wave curve and, for any eta,
    the upper boundary of the decaying-mode branch (beta = 0 there).
    """
    k2 = np.asarray(k_norm, dtype=float) ** 2
    out = np.sqrt((1.0 + 0.5 * k2) / (1.0 + h0 * h0 * k2))
    return float(out) if np.ndim(k_norm) == 0 else out


def _branch_boundary_omega(omega_norm, h0: float):
    """m_B at fixed omega: solves m² = (1 + (omega/m)²/2)/(1 + h0²(omega/m)²);
    vectorized over omega_norm.

    The root m² = (b + s)/2, with b = 1 − h0²omega² and s = sqrt(b² +
    2omega²), cancels where b < 0 (h0·omega > 1); there it is formed as the
    equal omega²/(s − b)."""
    w2 = omega_norm * omega_norm
    b = 1.0 - h0 * h0 * w2
    s = np.sqrt(b * b + 2.0 * w2)
    return np.sqrt(np.where(b >= 0.0, 0.5 * (b + s), w2 / (s - b)))


def _scaled_det(m, eta: float, h0: float, *, k_norm=None, omega_norm=None):
    """Determinant of the traction-free boundary system at (m_R, k) scaled
    by (1 + k)^5, in real arithmetic, vectorized over m.

    Raises DomainError when beta² is negative beyond rounding (the mode no
    longer decays); rounding-level negatives at the branch boundary are
    clipped to zero.
    """
    k = omega_norm / m if k_norm is None else k_norm
    k2 = k * k
    _, alpha, b2 = wave_exponents(k, m, h0)
    off = b2 < -1e-10 * (alpha * alpha)
    if np.any(off):
        i = np.flatnonzero(off)[0]
        raise DomainError(
            f"point (mR={np.broadcast_to(m, off.shape).flat[i]}, "
            f"k={np.broadcast_to(k, off.shape).flat[i]}) lies off the "
            f"decaying-mode branch"
        )
    b2 = np.maximum(b2, 0.0)
    beta = np.sqrt(b2)
    p = k2 * (2.0 + eta - 2.0 * (h0 * m) ** 2)
    d11 = alpha**3 - alpha * (2.0 + p)
    d12 = beta**3 - beta * (2.0 + p)
    d21 = alpha**2 + eta * k2
    d22 = b2 + eta * k2
    return (d11 * d22 - d12 * d21) / (1.0 + k) ** 5


# Branch scan in m below the boundary m_b: 160 linear points, then 80
# geometric ones closing in on m_b, in blocks of grid points
# (numerics.row_blocks).  The primary branch is the last sign change, so
# the scan runs from the top: scan points _SCAN_TOP on first (the top 33
# linear points and the geometric ones, m ≥ 0.78·m_b), and the lower ones
# only for the grid points with no sign change there.
_SCAN_LINEAR = 160
_SCAN_GEOMETRIC = 80
_SCAN_TOP = 127


def _brackets(det, g, m_b, axis):
    """Primary-branch bracket (lo, hi) of each grid point from the scan of
    ``det(m, g)``; both NaN where the scan finds no sign change.

    Each part of the scan, the top one and then the rest for the points it
    left open, keeps its last sign change; the top part's is the last of
    the whole scan.  The debug line on multiple roots lists only the sign
    changes of the part scanned, so roots below a top-part root go unlisted."""
    lo = np.full(g.shape, np.nan)
    hi = np.full(g.shape, np.nan)
    approach = 1.0 - np.geomspace(2e-2, 1e-11, _SCAN_GEOMETRIC)
    for part in (slice(_SCAN_TOP, None), slice(0, _SCAN_TOP + 1)):
        rest = np.flatnonzero(np.isnan(lo))
        for block in row_blocks(rest.size, _SCAN_LINEAR + _SCAN_GEOMETRIC):
            rows = rest[block]
            top = m_b[rows]
            m = np.concatenate([np.linspace(1e-2, top * 0.98, _SCAN_LINEAR, axis=-1),
                                top[:, None] * approach], axis=1)[:, part]
            vals = det(m, g[rows, None])
            change = vals[:, :-1] * vals[:, 1:] < 0.0
            for r in np.flatnonzero(change.sum(axis=1) > 1):
                log.debug("multiple dispersion roots at %s=%s: brackets %s", axis,
                          g[rows[r]], [(m[r, i], m[r, i + 1])
                                       for i in np.flatnonzero(change[r])])
            found = np.flatnonzero(change.any(axis=1))
            # The last sign change of a row is the fastest (primary) branch.
            i = change.shape[1] - 1 - np.argmax(change[found, ::-1], axis=1)
            lo[rows[found]] = m[found, i]
            hi[rows[found]] = m[found, i + 1]
    return lo, hi


def trace_curve(grid, eta: float, h0: float, axis: str = "omega"):
    """Trace m_R along an increasing grid of omega_norm (axis='omega') or
    k_norm (axis='k') as a list of DispersionPoint.

    Each point takes the primary branch of its own scan (no continuation
    hint), and one lockstep ``bracketed_root`` call refines every bracket to
    1e-13.  A point whose scan has no sign change is a boundary root m_b
    when |det| falls towards m_b (the eta = 0 degeneracy); otherwise
    RootLossError is raised, with ``last_good`` the point before the first
    lost one.  Jumps above 5% between neighbours are logged as warnings
    after the solve.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise DomainError("grid must be strictly increasing and positive")
    if axis not in ("omega", "k"):
        raise DomainError(f"axis must be 'omega' or 'k', got {axis!r}")

    if axis == "k":
        m_b = shear_phase_speed(grid, h0)
    else:
        m_b = _branch_boundary_omega(grid, h0)

    def det(m, g):
        return _scaled_det(m, eta, h0, **{f"{axis}_norm": g})

    lo, hi = _brackets(det, grid, m_b, axis)
    m_r = m_b.copy()
    inner = np.flatnonzero(~np.isnan(lo))
    if inner.size:
        m_r[inner] = bracketed_root(lambda m: det(m, grid[inner]),
                                    lo[inner], hi[inner], tol=1e-13)

    # No interior sign change: a boundary root (det ∝ beta → 0 at m_b with no
    # crossing) when |det| near m_b is small against |det| further in.
    edge = np.flatnonzero(np.isnan(lo))
    if edge.size:
        d = np.abs(det(m_b[edge, None] * np.array([1.0 - 1e-4, 1.0 - 1e-8]),
                       grid[edge, None]))
        lost = edge[~((d[:, 1] <= 0.05 * d[:, 0]) | (d[:, 0] == 0.0))]
        if lost.size:
            i = lost[0]
            raise RootLossError(
                f"no dispersion root found (eta={eta}, h0={h0}, {axis}={grid[i]})",
                last_good=_point(grid[i - 1], m_r[i - 1], axis) if i else None,
            )

    jumps = np.flatnonzero(np.abs(np.diff(m_r)) > 0.05 * m_r[:-1])
    for i in jumps:
        log.warning("dispersion curve jump at %s=%g: %g -> %g",
                    axis, grid[i + 1], m_r[i], m_r[i + 1])
    return [_point(g, m, axis) for g, m in zip(grid.tolist(), m_r.tolist())]


def _point(g: float, m: float, axis: str) -> DispersionPoint:
    g, m = float(g), float(m)
    if axis == "k":
        return DispersionPoint(omega_norm=m * g, k_norm=g, mR=m)
    return DispersionPoint(omega_norm=g, k_norm=g / m, mR=m)

