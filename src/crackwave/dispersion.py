"""Antiplane couple-stress surface-wave dispersion.

Evaluates the traction-free-surface determinant and traces the phase-speed
curve m_R(omega) or m_R(k).  The decaying-mode branch exists for m_R below
the planar-shear curve m_B(k)² = (1 + k²ℓ²/2)/(1 + h0²k²ℓ²), where both
decay exponents are real; at eta = 0 the root sits exactly on that boundary
(the surface wave degenerates to the planar shear wave).

In q = alpha·beta, with q² = 2k²(1 − m²) + k⁴(1 − 2h0²m²), the determinant
factors as D = (alpha − beta)·Q, where

    Q = q² + 2q(1 + (1 + eta)k² − h0²k²m²) − eta²k⁴.

q falls from its m = 0 value to 0 on the boundary m_B, so the curve is a
root of Q with q ≥ 0, the one root of a small polynomial on each axis:

* at fixed k, (1 + h0²k²)·Q is the cubic Q_k(q) = h0²q³ + (1 + h0²k²)q²
  + (2 + 2k²(1 + eta) + h0²k⁴(1 + 2eta))q − eta²k⁴(1 + h0²k²), with
  exactly one positive root (Descartes' rule) below q(m = 0) = k·sqrt(2 + k²),
  and m_R² = (k²(2 + k²) − q²)/(2k²(1 + h0²k²));
* at fixed omega, k² = K(q) = sqrt(g² + 2omega² + q²) − g with
  g = 1 − h0²omega², m_R = omega/sqrt(K), and the root is the sign change
  of F = −Q = eta²K² − 2(1 + eta)qK − q² − 2gq on [0, q_hi]: F(0) ≥ 0,
  and the bounds q − g ≤ K ≤ q + c, c = |g| − g + sqrt(2)·omega, give
  F(q_hi) ≤ 0 at the positive root q_hi of
  (3 − eta)(1 + eta)q² − 2eta(g + eta·c)q − eta²c².

Every grid point is solved on its own bracket, in one lockstep root solve
over the grid, to float precision; at eta = 0 the root is q = 0 exactly
and m_R = m_B.  Neighbouring points that differ by more than 5% are
reported after the solve.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError, RootLossError
from .material import SQRT2, _check_eta
from .numerics import bracketed_root

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


def _omega_k2(omega_norm, h0: float, q):
    """k² = K(q) = sqrt(g² + 2omega² + q²) − g at fixed omega, with
    g = 1 − h0²omega² and q = alpha·beta; vectorized.  The difference
    cancels where g > 0, and is formed there as the equal
    (2omega² + q²)/(sqrt(…) + g).  At q = 0, omega/sqrt(K) is the branch
    boundary m_B at fixed omega."""
    w2 = omega_norm * omega_norm
    g = 1.0 - h0 * h0 * w2
    r = np.sqrt(g * g + 2.0 * w2 + q * q)
    return np.where(g > 0.0, (2.0 * w2 + q * q) / (r + g), r - g)


def _wave_exponents(xi, m, h0: float):
    """Decay-exponent pieces (chi, alpha, beta²) at real xi and speed m
    (vectorized over both): with base = 1 + (1 − h0²m²)·xi², alpha² =
    base + chi and beta² = base − chi, formed without cancellation as
    (2(1 − m)(1 + m) + xi²(1 − 2h0²m²))·xi²/(base + chi), so that
    beta ≈ sqrt(1 − m²)·|xi| keeps its relative accuracy as xi → 0 and as
    m → 1.  beta² is negative off the decaying-mode branch."""
    x2 = xi * xi
    hm2 = (h0 * m) ** 2
    chi = np.sqrt(1.0 + 2.0 * (1.0 - h0 * h0) * (m * m) * x2 + (h0 * m) ** 4 * x2 * x2)
    base = 1.0 + (1.0 - hm2) * x2
    alpha = np.sqrt(base + chi)
    beta2 = (2.0 * (1.0 - m) * (1.0 + m) + x2 * (1.0 - 2.0 * hm2)) * x2 / (base + chi)
    return chi, alpha, beta2


def _scaled_det(m, eta: float, h0: float, *, k_norm=None, omega_norm=None):
    """Determinant of the traction-free boundary system at (m_R, k) scaled
    by (1 + k)^5, in real arithmetic, vectorized over m.

    Raises DomainError when beta² is negative beyond rounding (the mode no
    longer decays); rounding-level negatives at the branch boundary are
    clipped to zero.
    """
    k = omega_norm / m if k_norm is None else k_norm
    k2 = k * k
    _, alpha, b2 = _wave_exponents(k, m, h0)
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


# A grid point where the polynomial over- or underflows is named by the
# RootLossError below, not by numpy warnings.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def trace_curve(grid, eta: float, h0: float, axis: str = "omega"):
    """Trace m_R along an increasing grid of omega_norm (axis='omega') or
    k_norm (axis='k') as a list of DispersionPoint.

    Each point is the root q = alpha·beta of Q_k (k axis) or F (omega
    axis) on its closed-form bracket [0, q_hi] (see the module docstring),
    and one lockstep ``bracketed_root`` call solves every bracket to float
    precision.  RootLossError names the first point whose bracket shows no
    sign change or whose m_R is not a positive float (a grid so large or
    small that the polynomial over- or underflows).  Jumps above 5%
    between neighbours are logged as warnings after the solve.
    """
    _check_eta(eta)
    if not 0.0 <= h0 < math.inf:
        raise DomainError(f"h0 must be nonnegative and finite, got {h0}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError(f"grid must be a nonempty 1-D array, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"grid must be finite, got {grid[~np.isfinite(grid)][0]}")
    if np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise DomainError("grid must be strictly increasing and positive")

    if axis == "k":
        k2 = grid * grid
        hk = 1.0 + h0 * h0 * k2
        c1 = 2.0 + 2.0 * (1.0 + eta) * k2 + h0 * h0 * (1.0 + 2.0 * eta) * k2 * k2
        c0 = -(eta * k2) ** 2 * hk
        top = k2 * (2.0 + k2)  # q² at m = 0
        q_hi = np.sqrt(top)

        def f(q):
            return ((h0 * h0 * q + hk) * q + c1) * q + c0

        def speed(q):
            return np.sqrt((top - q * q) / (2.0 * k2 * hk))
    elif axis == "omega":
        g = 1.0 - h0 * h0 * grid * grid
        c = np.abs(g) - g + SQRT2 * grid
        a, b = (3.0 - eta) * (1.0 + eta), eta * (g + eta * c)
        q_hi = (b + np.sqrt(b * b + a * (eta * c) ** 2)) / a

        def f(q):
            k2 = _omega_k2(grid, h0, q)
            return (eta * k2) ** 2 - 2.0 * (1.0 + eta) * q * k2 - q * q - 2.0 * g * q

        def speed(q):
            return grid / np.sqrt(_omega_k2(grid, h0, q))
    else:
        raise DomainError(f"axis must be 'omega' or 'k', got {axis!r}")

    lo = np.zeros_like(grid)
    try:
        m_r = speed(bracketed_root(f, lo, q_hi))
        lost = ~((0.0 < m_r) & (m_r < math.inf))
    except BracketError:
        f_lo, f_hi = f(lo), f(q_hi)
        lost = ~(np.isfinite(f_lo) & np.isfinite(f_hi) & (f_lo * f_hi <= 0.0))
    if lost.any():
        raise RootLossError(f"no dispersion root found (eta={eta}, h0={h0}, "
                            f"{axis}={grid[np.argmax(lost)]})")

    jumps = np.flatnonzero(np.abs(np.diff(m_r)) > 0.05 * m_r[:-1])
    for i in jumps:
        log.warning("dispersion curve jump at %s=%g: %g -> %g",
                    axis, grid[i + 1], m_r[i], m_r[i + 1])
    omega, k = (m_r * grid, grid) if axis == "k" else (grid, grid / m_r)
    return [DispersionPoint(omega_norm=w, k_norm=kn, mR=m)
            for w, kn, m in zip(omega.tolist(), k.tolist(), m_r.tolist())]
