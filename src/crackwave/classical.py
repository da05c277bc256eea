"""Classical-elasticity antiplane steady crack: the split coefficients H_j
and the energy release rate.

The couple-stress pipeline meets classical elasticity through the energy
release rate: ``energy.err_result`` divides by ``classical_err``, the one
closed form of E_cl, which ``energy.err_ratio_large_length`` approaches as
ℓ/L → 0.  As L/ℓ → 0 the split tends to ``h_coefficients``, the one closed
form of that end (``energy.err_small_length``, ``limit-study``'s drift);
``h_coefficients_contour`` runs the split's contour with a unit symbol.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import RegimeError
from .loading import LoadProfile, kp_coefficient, split_coefficients

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
    return split_coefficients(_UnitKernel(), LoadProfile(L=L, p=p))


def classical_err(profile: LoadProfile, m: float) -> float:
    """Classical energy release rate K_p²/(L·sqrt(1−m²)) in units of
    T0²/(G·ℓ), with L in units of ℓ: the one closed form of E_cl."""
    if not 0.0 <= m < 1.0:
        raise RegimeError(f"classical energy release rate needs m < 1, got {m}")
    kp = kp_coefficient(profile.p)
    return kp * kp / (profile.L * math.sqrt((1.0 - m) * (1.0 + m)))

