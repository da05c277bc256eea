"""Classical-elasticity antiplane steady crack: the split coefficients H_j
and the energy release rate, and the half-power moment of a general
loading.

The couple-stress pipeline meets classical elasticity through the energy
release rate: ``energy.err_result`` divides by ``classical_err``, the one
closed form of E_cl.  ``energy.err_smalllength_limit`` is the
vanishing-microstructure limit for any integrable loading, by
``half_power_moment_quadrature``; on the loading family it is the
quadrature route to E_cl.  ``h_coefficients_contour`` runs the split's
contour with a unit symbol, against the closed form ``h_coefficients``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError, RegimeError
from .loading import LoadProfile, kp_coefficient, split_coefficients
from .numerics import TAIL_FIT_POINTS, fit_power_tail, oscillatory_halfline

__all__ = [
    "h_coefficients",
    "h_coefficients_contour",
    "classical_err",
]


def h_coefficients(p: int, L: float) -> np.ndarray:
    """Closed-form split coefficients H_0..H_p of 1/s₊^{1/2} in powers of
    1+isL: H_j = K_j·(i/L)^{−1/2}."""
    root = math.sqrt(L) * np.exp(-1j * np.pi / 4.0)
    return np.array([kp_coefficient(j) * root for j in range(p + 1)], dtype=complex)


class _UnitKernel:
    """Trivial symbol k ≡ 1 (classical elasticity)."""

    @staticmethod
    def k_plus(z):
        return 1.0 + 0.0j


def h_coefficients_contour(p: int, L: float) -> np.ndarray:
    """H_j by the circle-contour definition (cross-check path)."""
    profile = LoadProfile(T0=1.0, L=L, p=p)
    return split_coefficients(_UnitKernel(), profile, 1.0)


def classical_err(profile: LoadProfile, m: float, G: float) -> float:
    """Classical energy release rate T0²K_p²/(G·L·sqrt(1−m²)), the one
    closed form of E_cl."""
    if not 0.0 <= m < 1.0:
        raise RegimeError(f"classical energy release rate needs m < 1, got {m}")
    kp = kp_coefficient(profile.p)
    return profile.T0**2 * kp * kp / (G * profile.L * math.sqrt(1.0 - m * m))


def half_power_moment_quadrature(tau) -> float:
    """∫_{−∞}^0 tau(X)·|X|^{−1/2} dX for a general integrable loading given
    as a vectorized callable, as the zero-frequency half-line integral of
    f(t) = tau(−t)·t^{−1/2} (its t^{−1/2} head is the engine's √t head).

    The panels end at the first T of 2e3·10^k (k = 0..5) beyond which the
    tail is known: there is none when |f| ≤ 1e-11 on [T/4, T], and f is one
    decaying power c·t^λ when the slopes λ of log|f| against log t at 8
    points of [T/4, T] and of [T/40, T/10] agree to 1e-2 relative; c is then
    fitted on [T/25, T].  ``QuadratureError`` is raised unless λ < −1.05
    (the integral diverges, or decays too slowly to be trusted), and when
    no T qualifies."""
    def f(t):
        return np.asarray(tau(-t) / np.sqrt(t), dtype=complex)[None]

    def slope(t):
        vals = np.abs(f(t)[0])
        return np.polyfit(np.log(t), np.log(vals), 1)[0] if np.all(vals > 0) else 0.0

    for T in 2.0e3 * 10.0 ** np.arange(6):
        pts = np.geomspace(0.25 * T, T, 8)
        if np.all(np.abs(f(pts)[0]) <= 1e-11):
            ladder, fit = (), ((), 0.0)
            break
        lam = slope(pts)
        if abs(lam - slope(pts / 10.0)) <= 1e-2 * abs(lam):
            if not lam < -1.05:
                raise QuadratureError("the loading's half-power moment has no "
                                      f"decaying tail beyond |X| = {T:g}")
            ts = np.geomspace(T / 25.0, T, TAIL_FIT_POINTS)
            ladder, fit = (lam,), fit_power_tail(ts, f(ts)[0], (lam,))
            break
    else:
        raise QuadratureError(f"no tail model fits the loading up to |X| = {T:g}")
    val, _ = oscillatory_halfline(f, T, [ladder], [fit])(0.0)
    return float(np.real(val[0]))
