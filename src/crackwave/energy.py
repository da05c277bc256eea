"""Dynamic energy release rate of the steady antiplane crack.

``solve_crack`` builds the split of one parameter point and ``err_result``
reads it: the couple-stress closed form E = Re[2i·F²·T0²/(G·ℓ·Upsilon)]
against its classical counterpart E_cl = T0²·K_p²/(G·L·sqrt(1−m²)), whose
one closed form is ``classical.classical_err``.  Their quotient is E/E_cl;
that it equals 2i·F²·L·sqrt(1−m²)/(ℓ·K_p²·Upsilon) follows by algebra from
the same F, so it is no second route.  ``err_smalllength_limit``
is the vanishing-microstructure limit of E for any integrable loading, by
quadrature of its half-power moment; on the loading family it is a second
route to E_cl, which ``validate`` checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import classical_err, half_power_moment_quadrature
from .errors import RealnessError, RegimeError
from .kernel import KernelParams, factorize
from .loading import LoadProfile, SplitData, build_split
from .material import Material

__all__ = [
    "ErrResult",
    "solve_crack",
    "err_smalllength_limit",
    "err_result",
]

@dataclass(frozen=True)
class ErrResult:
    """Energy release rate, its classical counterpart and their ratio."""

    E: float
    E_cl: float
    ratio: float


def solve_crack(material: Material, m: float, profile: LoadProfile) -> SplitData:
    """One-call solution: factorize the symbol at (m, eta, h0) and build the
    split data for the given loading.  ``KernelParams`` raises RegimeError
    at a point that is not sub-Rayleigh."""
    kernel = factorize(KernelParams(m=m, eta=material.eta, h0=material.h0))
    return build_split(kernel, material, profile)


def err_smalllength_limit(tau, m: float, G: float) -> float:
    """Vanishing-microstructure limit of the energy release rate:
    (1/(pi·G·sqrt(1−m²)))·(∫tau|X|^{−1/2}dX)².

    ``tau`` is a vectorized loading density on X < 0, called with numpy
    arrays of negative X; its moment is integrated by panel quadrature."""
    if m >= 1.0:
        raise RegimeError(f"limit energy release rate needs m < 1, got {m}")
    moment = half_power_moment_quadrature(tau)
    return moment * moment / (math.pi * G * math.sqrt((1.0 - m) * (1.0 + m)))


def err_result(split: SplitData) -> ErrResult:
    """E, E_cl and E/E_cl at the split's own point; E must be real to 1e-8
    relative.  The ratio equals 2i·F²·L·sqrt(1−m²)/(ℓ·K_p²·Upsilon) by
    algebra, so it is formed as the quotient and not checked again."""
    profile, F, T0 = split.profile, split.F, split.T0
    params = split.kernel.params
    value = 2j * F * F * T0 * T0 / (split.G * split.ell * params.upsilon)
    if abs(value.imag) > 1e-8 * max(abs(value), 1e-300):
        raise RealnessError("energy release rate has a large imaginary residue",
                            value)
    e = float(value.real)
    e_cl = classical_err(profile, params.m, split.G)
    return ErrResult(E=e, E_cl=e_cl, ratio=e / e_cl)
