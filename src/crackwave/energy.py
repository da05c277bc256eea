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
from .errors import CrackwaveError, RealnessError, RegimeError
from .kernel import KernelParams, factorize
from .loading import LoadProfile, SplitData, build_split
from .material import Material, critical_speed

__all__ = [
    "ErrResult",
    "solve_crack",
    "err_smalllength_limit",
    "err_result",
    "err_max_sweep",
]

# Proxy for "m at its limiting value" in sweeps.  At a surface-wave limit
# (m_c < 1) both E and E_cl stay finite, so the ratio at this factor is close
# to its limit.  Below h0*, m_c = 1: E tends to a finite E(m_c) while E_cl
# diverges, so the ratio is about E(m_c)·G·L·sqrt(1−m²)/(T0²·K_p²) and
# reaches 0 only as the factor tends to 1 (0.415 at eta = −0.9,
# h0 = 0.5·h0*, L/ℓ = 10, p = 0).
LIMIT_SPEED_FACTOR = 0.999


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
    return moment * moment / (math.pi * G * math.sqrt(1.0 - m * m))


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


def _fail_row(row: dict, exc: CrackwaveError):
    row.update(m=float("nan"), m_limit=float("nan"), E=float("nan"),
               E_cl=float("nan"), ratio=float("nan"), error=str(exc))


def err_max_sweep(material: Material, h0_values, profile: LoadProfile, *,
                  m_factor: float = LIMIT_SPEED_FACTOR):
    """Limiting energy release rate along an h0 grid at fixed (eta, p, L/ℓ).

    Each row evaluates E and E/E_cl at m = m_factor·m_c(eta, h0), with the
    m_c of all rows from one broadcast ``critical_speed`` call.
    Failed rows echo (h0, eta, p, L_over_ell), carry NaN values and an
    ``error`` message, and the sweep continues.

    Below h0*(eta) the limit is the shear-wave speed, where E_cl diverges and
    E stays finite: a row gives E/E_cl ≈ E(m_c)·G·L·sqrt(1−m²)/(T0²·K_p²),
    which reaches 0 only as m_factor → 1.  At the default factor 0.999 with
    eta = −0.9, h0 = 0.5·h0*, L/ℓ = 10 and p = 0 it is 0.415, not 0.
    """
    rows, mats = [], {}
    for i, h0 in enumerate(h0_values):
        rows.append({"h0": float(h0), "eta": material.eta, "p": profile.p,
                     "L_over_ell": profile.L / material.ell})
        try:
            mats[i] = Material(G=material.G, rho=material.rho, ell=material.ell,
                               eta=material.eta, h0=float(h0))
        except CrackwaveError as exc:
            _fail_row(rows[i], exc)
    limits = critical_speed(material.eta, [mat.h0 for mat in mats.values()])
    for (i, mat), m_lim in zip(mats.items(), limits.tolist()):
        try:
            m = m_factor * m_lim
            res = err_result(solve_crack(mat, m, profile))
            rows[i].update(m=m, m_limit=m_lim, E=res.E, E_cl=res.E_cl,
                           ratio=res.ratio, error="")
        except CrackwaveError as exc:
            _fail_row(rows[i], exc)
    return rows
