"""Crack-face traction family, its transform, the additive split of the
Wiener-Hopf right-hand side, and the Liouville constant.

Lengths are in units of ℓ, so the load length L is L/ℓ, and the load has
unit resultant.  The split writes k⁺(s)/(s₊^{1/2}(1+isL)^{1+p}) =
G⁻(s) + G⁺(s) with

    G⁻(s) = Σ_{j=0..p} F_j (1+isL)^{j-p-1},

where F_j are the Taylor coefficients of k⁺(s)/s₊^{1/2} in powers of
u = 1 + isL about the transform pole s = i/L; the split keeps only these.
The Liouville constant is F = G⁻(−i·zeta); it is cross-checked against
the independent ratio-of-integrals definition

    F = ∫ G⁻(s)/(s₋^{1/2} Ψ k⁻) ds / ∫ 1/(s₋^{1/2} Ψ k⁻) ds

evaluated by quadrature along the real axis.  ``energy.solve_crack``
builds the split of one parameter point.  As L/ℓ → 0 the F_j tend to the
classical H_j = K_j·(i/L)^{−1/2} of ``classical.h_coefficients``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, DomainError, PoleError
from .kernel import FactorizedKernel, sqrt_plus
from .numerics import contour_coefficients, oscillatory_halfline

__all__ = [
    "LoadProfile",
    "SplitData",
    "traction",
    "traction_transform",
    "kp_coefficient",
    "split_coefficients",
    "g_minus",
    "liouville_constant",
    "build_split",
]

# |1 + isL| on the coefficient contour: clear of the branch point s = 0
# (|u| = 1) and of the symbol pole s = −i·zeta (|u| = 1 + zeta·L).
_CONTOUR_RADIUS = 0.4
_F_CHECK_RTOL = 1e-6   # allowed |F − F_alt|/|F| of the Liouville cross-check


@dataclass(frozen=True)
class LoadProfile:
    """Traction family on the crack faces, of unit resultant: length scale
    L (in units of ℓ, so L/ℓ) and exponent p (the maximum sits at
    X = −p·L)."""

    L: float
    p: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise DomainError(f"L must be positive and finite, got {self.L}")
        if not isinstance(self.p, (int, np.integer)) or self.p < 0:
            raise DomainError(f"p must be a nonnegative integer, got {self.p!r}")


def traction(X, profile: LoadProfile):
    """tau(X) ≥ 0 for X < 0; integrates to 1 over the crack faces."""
    X = np.asarray(X, dtype=float)
    if np.any(X >= 0):
        raise DomainError("traction is defined on the crack faces X < 0")
    r = -X / profile.L
    out = np.exp(
        profile.p * np.log(r, where=r > 0, out=np.zeros_like(r))
        - r - math.lgamma(profile.p + 1)
    ) / profile.L
    return float(out) if out.ndim == 0 else out


def traction_transform(s, profile: LoadProfile):
    """1/(1 + isL)^{1+p}; analytic for Im s < 0, pole at s = i/L."""
    s = np.asarray(s, dtype=complex)
    u = 1.0 + 1j * s * profile.L
    if np.any(np.abs(u) < 1e-12):
        raise PoleError("traction transform evaluated at its pole s = i/L")
    out = u ** (-(1 + profile.p))
    return complex(out) if out.ndim == 0 else out


def kp_coefficient(p: int) -> float:
    """K_p = Γ(p+1/2)/(p!·sqrt(pi)) = Π_{j=1}^{p} (2j−1)/(2j);
    K_0..K_3 = 1, 1/2, 3/8, 5/16, each exact in floating point."""
    out = 1.0
    for j in range(1, p + 1):
        out *= (2 * j - 1) / (2 * j)
    return out


def _pole_factor(k_plus, L: float):
    """g(u) = k⁺(s)/s₊^{1/2} at s = i(1 − u)/L, vectorized in u."""
    zl = 1j / L  # transform variable at the contour centre

    def g(u):
        z = zl * (1.0 - np.atleast_1d(u))
        return k_plus(z) / sqrt_plus(z)
    return g


def split_coefficients(kernel, profile: LoadProfile) -> np.ndarray:
    """Taylor coefficients F_0..F_p of k⁺(s)/s₊^{1/2} in powers of
    u = 1+isL, by a circle contour about s = i/L.

    ``kernel`` only needs a ``k_plus`` method: with k⁺ ≡ 1 the coefficients
    are the classical H_j (``classical.h_coefficients_contour``).
    """
    return contour_coefficients(_pole_factor(kernel.k_plus, profile.L),
                                _CONTOUR_RADIUS, profile.p + 1)


@dataclass(frozen=True, eq=False)
class SplitData:
    """Everything needed to evaluate the split functions and invert the
    crack-line fields: the coefficients F_0..F_p of G⁻, the Liouville
    constant F, the symbol factorization and the load echo.  The point's
    parameters and quantities (m, nu, Upsilon, zeta, Psi) are
    ``kernel.params``."""

    profile: LoadProfile
    coeffs: np.ndarray
    F: complex
    F_alt: complex
    kernel: FactorizedKernel


def _g_minus_u(u, coeffs, p: int):
    """G⁻ = Σ_{j=0..p} F_j u^{j−p−1} as a function of u = 1 + isL."""
    acc = 0.0
    for j in range(p + 1):
        acc = acc + coeffs[j] * u ** (j - p - 1)
    return acc


def g_minus(s, split: SplitData):
    """G⁻(s) = Σ_j F_j (1+isL)^{j−p−1}; analytic off its pole at s = i/L."""
    s = np.asarray(s, dtype=complex)
    u = 1.0 + 1j * s * split.profile.L
    if np.any(np.abs(u) < 1e-12):
        raise PoleError("g_minus evaluated at its pole s = i/L")
    acc = np.asarray(_g_minus_u(u, split.coeffs, split.profile.p), dtype=complex)
    return complex(acc) if acc.ndim == 0 else acc


def _appendix_ratio(kernel: FactorizedKernel, coeffs, profile: LoadProfile) -> complex:
    """Ratio-of-integrals definition of F, by real-axis quadrature.

    Both half-lines are evaluated explicitly through the branch functions,
    exercising the factor boundary values rather than any symmetry shortcut:
    each evaluation of the folded integrands makes one symbol call and one
    G⁻ call on the points ±t.  The truncation radius lies far beyond both
    scales of the integrands, zeta and 1/L, on which G⁻ varies.
    """
    params = kernel.params
    L = profile.L

    def gm(x):
        return _g_minus_u(1.0 + 1j * x * L, coeffs, profile.p)

    def h(x):
        return 1.0 / kernel.symbol_minus_line(x)

    def folded(t):
        """Both integrands folded onto t > 0, stacked: G⁻·h and h."""
        both = np.concatenate([t, -t])
        h_both = h(both)
        v = np.stack([gm(both) * h_both, h_both]).reshape(2, 2, t.size)
        return v[:, 0] + v[:, 1]

    radius = max(2.0e3, 50.0 * params.zeta, 2.0e3 / L)
    fit_start = min(max(30.0 * params.zeta, radius / 50.0), radius / 2.0)
    ladders = ((-3.5, -4.5, -5.5), (-2.5, -3.5, -4.5))
    transform, _ = oscillatory_halfline(folded, radius, ladders, fit_start)
    (i1, i2), _ = transform(0.0)
    return complex(i1 / i2)


def liouville_constant(kernel: FactorizedKernel, profile: LoadProfile):
    """Liouville constant F = G⁻(−i·zeta), with the mandatory agreement
    check (relative 1e-6) against the ratio-of-integrals computation.

    Returns ``(F, F_alt, coeffs)`` with the coefficients F_0..F_p of G⁻.
    """
    coeffs = split_coefficients(kernel, profile)
    u_pole = 1.0 + kernel.params.zeta * profile.L  # real, > 1
    F = complex(_g_minus_u(u_pole, coeffs, profile.p))
    F_alt = _appendix_ratio(kernel, coeffs, profile)
    if abs(F - F_alt) > _F_CHECK_RTOL * abs(F):
        raise CrossCheckError(
            "Liouville constant disagrees with its ratio-of-integrals form",
            F, F_alt,
        )
    return F, F_alt, coeffs


def build_split(kernel: FactorizedKernel, profile: LoadProfile) -> SplitData:
    """Assemble the full split data for a sub-Rayleigh crack solution."""
    F, F_alt, coeffs = liouville_constant(kernel, profile)
    return SplitData(
        profile=profile,
        coeffs=coeffs,
        F=F,
        F_alt=F_alt,
        kernel=kernel,
    )
