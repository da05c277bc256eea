"""Dynamic energy release rate of the steady antiplane crack.

``solve_crack`` builds the split of one parameter point and ``err_result``
reads it: the couple-stress closed form E = Re[2i·F²/Upsilon] against its
classical counterpart E_cl = K_p²/(L·sqrt(1−m²)), whose one closed form is
``classical.classical_err``; both are in units of T0²/(G·ℓ), and L is L/ℓ.
Their quotient is E/E_cl; that it equals 2i·F²·L·sqrt(1−m²)/(K_p²·Upsilon)
follows by algebra from the same F, so it is no second route.

Both ends of the L/ℓ axis have closed forms, which ``validate`` checks E
against (B. Noble, *Methods Based on the Wiener–Hopf Technique*, 1958,
ch. 4).  As ℓ/L → 0, k⁺(z) = 1 + iθ′(0)·z + o(z) in F gives
``err_ratio_large_length``; as L/ℓ → 0 the transform pole i/L goes where
k⁺ → 1, so F_j → H_j (``classical.h_coefficients``) and E → the closed form
at F = Σ_j H_j, ``err_small_length``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .classical import classical_err, h_coefficients
from .errors import RealnessError
from .kernel import KernelParams, factorize
from .loading import LoadProfile, SplitData, build_split
from .material import Material

__all__ = [
    "ErrResult",
    "solve_crack",
    "err_result",
    "err_ratio_large_length",
    "err_small_length",
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
    return build_split(kernel, profile)


def _err_at(split: SplitData, F: complex) -> float:
    """Re[2i·F²/Upsilon] at the split's point, the closed form of E at
    Liouville constant F; it must be real to 1e-8 relative."""
    value = 2j * F * F / split.kernel.params.upsilon
    if abs(value.imag) > 1e-8 * max(abs(value), 1e-300):
        raise RealnessError("energy release rate has a large imaginary residue",
                            value)
    return float(value.real)


def err_result(split: SplitData) -> ErrResult:
    """E, E_cl and E/E_cl at the split's own point.  The ratio equals
    2i·F²·L·sqrt(1−m²)/(K_p²·Upsilon) by algebra, so it is formed as the
    quotient and not checked again."""
    e = _err_at(split, split.F)
    e_cl = classical_err(split.profile, split.kernel.params.m)
    return ErrResult(E=e, E_cl=e_cl, ratio=e / e_cl)


def err_ratio_large_length(split: SplitData) -> float:
    """E/E_cl to first order in ℓ/L at the split's point:
    1 + 2(θ′(0) + 1/zeta)/((2p − 1)L), with θ′(0) the kernel's
    ``theta_slope``.  The remainder is O((ℓ/L)²)."""
    p = split.profile.p
    slope = split.kernel.theta_slope + 1.0 / split.kernel.params.zeta
    return 1.0 + 2.0 * slope / ((2 * p - 1) * split.profile.L)


def err_small_length(split: SplitData) -> float:
    """E to leading order in L/ℓ at the split's point: the closed form at
    F = Σ_{j≤p} H_j, the classical coefficients ``h_coefficients`` that the
    F_j tend to.  The relative remainder is O(L/ℓ)."""
    return _err_at(split, h_coefficients(split.profile.p, split.profile.L).sum())
