"""Crack-face traction family, its transform, the additive split of the
Wiener-Hopf right-hand side, and the Liouville constant.

The split writes k⁺(sℓ)/((sℓ)₊^{1/2}(1+isL)^{1+p}) = G⁻(s) + G⁺(s) with

    G⁻(s) = Σ_{j=0..p} F_j (1+isL)^{j-p-1},

where F_j are the Taylor coefficients of k⁺(sℓ)/(sℓ)₊^{1/2} in powers of
u = 1 + isL about the transform pole s = i/L; the split keeps only these.
The Liouville constant is F = G⁻(−i·zeta/ℓ); it is cross-checked against
the independent ratio-of-integrals definition

    F = ∫ G⁻(s)/((sℓ)₋^{1/2} Ψ k⁻) ds / ∫ 1/((sℓ)₋^{1/2} Ψ k⁻) ds

evaluated by quadrature along the real axis.  ``energy.solve_crack``
builds the split of one parameter point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, DomainError, PoleError
from .kernel import FactorizedKernel, sqrt_plus
from .material import Material
from .numerics import (TAIL_FIT_POINTS, contour_coefficients, fit_power_tail,
                       oscillatory_halfline)

__all__ = [
    "LoadProfile",
    "SplitData",
    "traction",
    "traction_transform",
    "traction_half_power_moment",
    "kp_coefficient",
    "split_coefficients",
    "g_minus",
    "liouville_constant",
    "build_split",
]

# |1 + isL| on the coefficient contour: clear of the branch point s = 0
# (|u| = 1) and of the symbol pole s = −i·zeta/ℓ (|u| = 1 + zeta·L/ℓ).
_CONTOUR_RADIUS = 0.4
_F_CHECK_RTOL = 1e-6   # allowed |F − F_alt|/|F| of the Liouville cross-check


@dataclass(frozen=True)
class LoadProfile:
    """Traction family on the crack faces: resultant T0, length scale L,
    exponent p (the maximum sits at X = −p·L)."""

    T0: float
    L: float
    p: int

    def __post_init__(self):
        if not 0 < self.T0 < math.inf:
            raise DomainError(f"T0 must be positive and finite, got {self.T0}")
        if not 0 < self.L < math.inf:
            raise DomainError(f"L must be positive and finite, got {self.L}")
        if not isinstance(self.p, (int, np.integer)) or self.p < 0:
            raise DomainError(f"p must be a nonnegative integer, got {self.p!r}")


def traction(X, profile: LoadProfile):
    """tau(X) ≥ 0 for X < 0; integrates to T0 over the crack faces."""
    X = np.asarray(X, dtype=float)
    if np.any(X >= 0):
        raise DomainError("traction is defined on the crack faces X < 0")
    r = -X / profile.L
    out = profile.T0 / profile.L * np.exp(
        profile.p * np.log(r, where=r > 0, out=np.zeros_like(r))
        - r - math.lgamma(profile.p + 1)
    )
    return float(out) if out.ndim == 0 else out


def traction_transform(s, profile: LoadProfile):
    """T0/(1 + isL)^{1+p}; analytic for Im s < 0, pole at s = i/L."""
    s = np.asarray(s, dtype=complex)
    u = 1.0 + 1j * s * profile.L
    if np.any(np.abs(u) < 1e-12):
        raise PoleError("traction transform evaluated at its pole s = i/L")
    out = profile.T0 * u ** (-(1 + profile.p))
    return complex(out) if out.ndim == 0 else out


def kp_coefficient(p: int) -> float:
    """K_p = Γ(p+1/2)/(p!·sqrt(pi)) = Π_{j=1}^{p} (2j−1)/(2j);
    K_0..K_3 = 1, 1/2, 3/8, 5/16, each exact in floating point."""
    out = 1.0
    for j in range(1, p + 1):
        out *= (2 * j - 1) / (2 * j)
    return out


def traction_half_power_moment(profile: LoadProfile) -> float:
    """∫_{−∞}^0 tau(X)|X|^{−1/2} dX = T0·Γ(p+1/2)/(Γ(p+1)·sqrt(L))."""
    return profile.T0 * kp_coefficient(profile.p) * math.sqrt(math.pi / profile.L)


def _pole_factor(k_plus, L: float, ell: float):
    """g(u) = k⁺(sℓ)/(sℓ)₊^{1/2} at s = i(1 − u)/L, vectorized in u."""
    zl = 1j * ell / L  # transform variable at the contour centre

    def g(u):
        z = zl * (1.0 - np.atleast_1d(u))
        return k_plus(z) / sqrt_plus(z)
    return g


def split_coefficients(kernel, profile: LoadProfile, ell: float) -> np.ndarray:
    """Taylor coefficients F_0..F_p of k⁺(sℓ)/(sℓ)₊^{1/2} in powers of
    u = 1+isL, by a circle contour about s = i/L.

    ``kernel`` only needs a ``k_plus`` method: with k⁺ ≡ 1 the coefficients
    are the classical H_j (``classical.h_coefficients_contour``).
    """
    return contour_coefficients(_pole_factor(kernel.k_plus, profile.L, ell),
                                _CONTOUR_RADIUS, profile.p + 1)


@dataclass(frozen=True, eq=False)
class SplitData:
    """Everything needed to evaluate the split functions and invert the
    crack-line fields: the coefficients F_0..F_p of G⁻, the Liouville
    constant F, the symbol factorization and the load echo.  The point's
    parameters and quantities (m, nu, Upsilon, zeta, Psi) are
    ``kernel.params``."""

    profile: LoadProfile
    G: float
    ell: float
    coeffs: np.ndarray
    F: complex
    F_alt: complex | None
    kernel: FactorizedKernel

    @property
    def L_over_ell(self) -> float:
        return self.profile.L / self.ell

    @property
    def T0(self) -> float:
        return self.profile.T0


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


def _appendix_ratio(kernel: FactorizedKernel, coeffs, profile: LoadProfile,
                    ell: float) -> complex:
    """Ratio-of-integrals definition of F, by real-axis quadrature.

    Both half-lines are evaluated explicitly through the branch functions,
    exercising the factor boundary values rather than any symmetry shortcut.
    """
    params = kernel.params
    Lt = profile.L / ell

    def gm(x):
        return _g_minus_u(1.0 + 1j * x * Lt, coeffs, profile.p)

    def h(x):
        return 1.0 / kernel.symbol_minus_line(x)

    def folded(t):
        """Both integrands folded onto t > 0, stacked: G⁻·h and h."""
        h_pos, h_neg = h(t), h(-t)
        return np.stack([gm(t) * h_pos + gm(-t) * h_neg, h_pos + h_neg])

    radius = max(2.0e3, 50.0 * params.zeta)
    ts = np.geomspace(min(max(25.0, 30.0 * params.zeta), radius / 2.0), radius,
                      TAIL_FIT_POINTS)
    ladders = ((-3.5, -4.5, -5.5), (-2.5, -3.5, -4.5))
    fits = [fit_power_tail(ts, v, lam) for v, lam in zip(folded(ts), ladders)]
    (i1, i2), _ = oscillatory_halfline(folded, radius, ladders, fits)(0.0)
    return complex(i1 / i2)


def liouville_constant(kernel: FactorizedKernel, profile: LoadProfile,
                       material: Material):
    """Liouville constant F = G⁻(−i·zeta/ℓ), with the mandatory agreement
    check (relative 1e-6) against the ratio-of-integrals computation.

    Returns ``(F, F_alt, coeffs)`` with the coefficients F_0..F_p of G⁻.
    """
    ell = material.ell
    coeffs = split_coefficients(kernel, profile, ell)
    u_pole = 1.0 + kernel.params.zeta * profile.L / ell  # real, > 1
    F = complex(_g_minus_u(u_pole, coeffs, profile.p))
    F_alt = _appendix_ratio(kernel, coeffs, profile, ell)
    if abs(F - F_alt) > _F_CHECK_RTOL * abs(F):
        raise CrossCheckError(
            "Liouville constant disagrees with its ratio-of-integrals form",
            F, F_alt,
        )
    return F, F_alt, coeffs


def build_split(kernel: FactorizedKernel, material: Material,
                profile: LoadProfile) -> SplitData:
    """Assemble the full split data for a sub-Rayleigh crack solution."""
    params = kernel.params
    if not (material.eta == params.eta and material.h0 == params.h0):
        raise DomainError("kernel parameters do not match the material")
    F, F_alt, coeffs = liouville_constant(kernel, profile, material)
    return SplitData(
        profile=profile,
        G=material.G,
        ell=material.ell,
        coeffs=coeffs,
        F=F,
        F_alt=F_alt,
        kernel=kernel,
    )


def limit_constant(profile: LoadProfile, zeta_value: float) -> complex:
    """Vanishing-microstructure limit of F·ℓ^{−1/2}:
    e^{−iπ/4}·∫tau|X|^{−1/2}dX / (sqrt(pi)·zeta·T0)."""
    moment = traction_half_power_moment(profile)
    return np.exp(-1j * np.pi / 4.0) * moment / (math.sqrt(math.pi) * zeta_value * profile.T0)
