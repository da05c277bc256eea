"""Antiplane couple-stress surface-wave dispersion.

Evaluates the traction-free-surface determinant and traces the phase-speed
curve m_R(omega) or m_R(k) by continuation.  The decaying-mode branch exists
for m_R below the planar-shear curve m_B(k)² = (1 + k²ℓ²/2)/(1 + h0²k²ℓ²),
where both decay exponents are real; at eta = 0 the root sits exactly on that
boundary (the surface wave degenerates to the planar shear wave).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RootLossError
from .kernel import wave_exponents
from .numerics import bracketed_root

__all__ = [
    "DispersionPoint",
    "SurfaceModeShape",
    "dispersion_det",
    "trace_curve",
    "shear_phase_speed",
    "surface_mode_shape",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DispersionPoint:
    """One point of the dispersion curve; mR·k_norm = omega_norm."""

    omega_norm: float
    k_norm: float
    mR: float


@dataclass(frozen=True)
class SurfaceModeShape:
    """Decay exponents and amplitude pair of the two-term surface mode."""

    alpha: complex
    beta: complex
    A: complex
    B: complex


def shear_phase_speed(k_norm: float, h0: float):
    """Planar shear phase speed m(k) = sqrt((1 + k²ℓ²/2)/(1 + h0²k²ℓ²)).

    This is the eta = 0 oracle for the surface-wave curve and, for any eta,
    the upper boundary of the decaying-mode branch (beta = 0 there).
    """
    k2 = np.asarray(k_norm, dtype=float) ** 2
    out = np.sqrt((1.0 + 0.5 * k2) / (1.0 + h0 * h0 * k2))
    return float(out) if np.ndim(k_norm) == 0 else out


def _branch_boundary_omega(omega_norm: float, h0: float) -> float:
    """m_B at fixed omega: solves m² = (1 + (omega/m)²/2)/(1 + h0²(omega/m)²)."""
    w2 = omega_norm * omega_norm
    b = 1.0 - h0 * h0 * w2
    m2 = 0.5 * (b + math.sqrt(b * b + 2.0 * w2))
    return math.sqrt(m2)


def _det_rows(mR, k_norm, eta, h0):
    """Boundary-system rows in real arithmetic, vectorized over (mR, k_norm).

    Raises DomainError when beta² is negative beyond rounding (the mode no
    longer decays); rounding-level negatives at the branch boundary are
    clipped to zero.
    """
    k2 = k_norm * k_norm
    _, alpha, b2 = wave_exponents(k_norm, mR, h0)
    if np.any(b2 < -1e-10 * (alpha * alpha)):
        raise DomainError(
            f"point (mR={mR}, k={k_norm}) lies off the decaying-mode branch"
        )
    b2 = np.maximum(b2, 0.0)
    beta = np.sqrt(b2)
    p = k2 * (2.0 + eta - 2.0 * (h0 * mR) ** 2)
    d11 = alpha**3 - alpha * (2.0 + p)
    d12 = beta**3 - beta * (2.0 + p)
    d21 = alpha**2 + eta * k2
    d22 = b2 + eta * k2
    return alpha, beta, (d11, d12, d21, d22)


def dispersion_det(mR: float, omega_norm: float, eta: float, h0: float) -> float:
    """Determinant of the traction-free boundary system at (m_R, omega).

    Real and continuous on the decaying-mode branch; evaluation beyond the
    branch boundary (complex decay exponents) raises DomainError.
    """
    if mR <= 0 or omega_norm <= 0:
        raise DomainError("dispersion_det needs mR > 0 and omega_norm > 0")
    k_norm = omega_norm / mR
    alpha, beta, (d11, d12, d21, d22) = _det_rows(mR, k_norm, eta, h0)
    if abs(alpha + beta) < 1e-300:
        raise DomainError("degenerate mode normalization: alpha + beta = 0")
    return d11 * d22 - d12 * d21


def _scaled_det(m, eta: float, h0: float, *, k_norm=None, omega_norm=None):
    """Determinant scaled by (1 + k)^5, vectorized over m."""
    k = omega_norm / m if k_norm is None else k_norm
    _, _, (d11, d12, d21, d22) = _det_rows(m, k, eta, h0)
    return (d11 * d22 - d12 * d21) / (1.0 + k) ** 5


def _root_at(eta, h0, *, k_norm=None, omega_norm=None, hint=None):
    """Surface-wave root in m at one grid value, continuation-aware."""
    if k_norm is not None:
        m_b = float(shear_phase_speed(k_norm, h0))
    else:
        m_b = _branch_boundary_omega(omega_norm, h0)

    def f(m):
        return _scaled_det(m, eta, h0, k_norm=k_norm, omega_norm=omega_norm)

    def bisect_on(grid):
        vals = f(grid)
        idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        if idx.size == 0:
            return None
        if idx.size > 1:
            log.debug(
                "multiple dispersion roots at k=%s omega=%s: brackets %s",
                k_norm, omega_norm, [(grid[i], grid[i + 1]) for i in idx],
            )
        i = idx[-1]  # keep the fastest (primary) branch
        return bracketed_root(f, grid[i], grid[i + 1], tol=1e-13)

    if hint is not None:
        lo = max(1e-3, hint * 0.9)
        hi = min(hint * 1.1, m_b * (1.0 - 1e-12))
        if hi > lo:
            root = bisect_on(np.linspace(lo, hi, 64))
            if root is not None:
                return root

    grid = np.concatenate([
        np.linspace(1e-2, m_b * 0.98, 160),
        m_b * (1.0 - np.geomspace(2e-2, 1e-11, 80)),
    ])
    root = bisect_on(grid)
    if root is not None:
        return root

    # No interior sign change: test for a boundary root (det ∝ beta → 0 at
    # m_b with no crossing), which is the eta = 0 degeneracy.
    d_far = abs(f(m_b * (1.0 - 1e-4)))
    d_near = abs(f(m_b * (1.0 - 1e-8)))
    if d_near <= 0.05 * d_far or d_far == 0.0:
        return m_b
    raise RootLossError(
        f"no dispersion root found (eta={eta}, h0={h0}, k={k_norm}, omega={omega_norm})"
    )


def trace_curve(grid, eta: float, h0: float, axis: str = "omega"):
    """Trace m_R along an increasing grid of omega_norm (axis='omega') or
    k_norm (axis='k').  Continuation from the previous root keeps the branch;
    jumps above 5% between neighbours are logged as warnings."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise DomainError("grid must be strictly increasing and positive")
    if axis not in ("omega", "k"):
        raise DomainError(f"axis must be 'omega' or 'k', got {axis!r}")

    points: list[DispersionPoint] = []
    hint = None
    for g in grid:
        try:
            if axis == "k":
                m = _root_at(eta, h0, k_norm=float(g), hint=hint)
                k, w = float(g), m * float(g)
            else:
                m = _root_at(eta, h0, omega_norm=float(g), hint=hint)
                w, k = float(g), float(g) / m
        except RootLossError as exc:
            raise RootLossError(str(exc), last_good=points[-1] if points else None) from exc
        if hint is not None and abs(m - hint) > 0.05 * hint:
            log.warning("dispersion curve jump at %s=%g: %g -> %g", axis, g, hint, m)
        points.append(DispersionPoint(omega_norm=w, k_norm=k, mR=m))
        hint = m
    return points


def surface_mode_shape(mR: float, k_norm: float, eta: float, h0: float) -> SurfaceModeShape:
    """Amplitude pair (A, B) of the two decaying exponentials at a dispersion
    point, normalized to unit maximum amplitude."""
    alpha, beta, (d11, d12, d21, d22) = _det_rows(mR, k_norm, eta, h0)
    if alpha.real <= 0.0 or beta.real < 0.0:
        raise DomainError(
            f"unbounded mode: Re(alpha)={alpha.real:g}, Re(beta)={beta.real:g}"
        )
    # Null vector of the 2x2 system from its better-scaled row.
    if max(abs(d11), abs(d12)) >= max(abs(d21), abs(d22)):
        A, B = d12, -d11
    else:
        A, B = d22, -d21
    norm = max(abs(A), abs(B))
    if norm == 0.0:
        A, B = 1.0, 0.0
    else:
        A, B = A / norm, B / norm
    return SurfaceModeShape(alpha=complex(alpha), beta=complex(beta),
                            A=complex(A), B=complex(B))
