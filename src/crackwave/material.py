"""Material parameters and the scalar velocity functions of antiplane
couple-stress elasticity.

Everything here is a pure function of (eta, h0, m): the surface-wave limit
functions Upsilon and Lambda, the critical crack speed m_c, the threshold
rotational inertia h0* above which m_c < 1, the pole location zeta of the
factorized symbol, and the propagation-regime classification.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError, RegimeError
from .numerics import bracketed_root

__all__ = [
    "Material",
    "PropagationState",
    "Regime",
    "RayleighRange",
    "SonicRange",
    "upsilon",
    "lambda_surface",
    "critical_speed",
    "h0_star",
    "zeta",
    "classify_regime",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Material:
    """Couple-stress material: shear modulus G, density rho, characteristic
    length ell, length ratio eta (−1 < eta < 1) and normalized rotational
    inertia h0 = sqrt(J/4rho)/ell ≥ 0."""

    G: float
    rho: float
    ell: float
    eta: float
    h0: float

    def __post_init__(self):
        if self.G <= 0:
            raise DomainError(f"shear modulus must be positive, got {self.G}")
        if self.rho <= 0:
            raise DomainError(f"density must be positive, got {self.rho}")
        if self.ell <= 0:
            raise DomainError(f"characteristic length must be positive, got {self.ell}")
        if not -1.0 < self.eta < 1.0:
            raise DomainError(f"eta must lie in (-1, 1), got {self.eta}")
        if self.h0 < 0:
            raise DomainError(f"h0 must be nonnegative, got {self.h0}")

    @property
    def c_s(self) -> float:
        """Shear wave speed sqrt(G/rho)."""
        return math.sqrt(self.G / self.rho)

    @property
    def J(self) -> float:
        """Rotational inertia 4·rho·(h0·ell)²."""
        return 4.0 * self.rho * (self.h0 * self.ell) ** 2

    @property
    def ell_bending(self) -> float:
        return self.ell / SQRT2

    @property
    def ell_torsion(self) -> float:
        return self.ell * math.sqrt(1.0 + self.eta)


@dataclass(frozen=True)
class PropagationState:
    """Normalized steady crack-tip speed m = V/c_s ≥ 0."""

    m: float

    def __post_init__(self):
        if self.m < 0:
            raise DomainError(f"crack speed must be nonnegative, got {self.m}")

    def velocity(self, material: Material) -> float:
        return self.m * material.c_s


class RayleighRange(enum.Enum):
    SUB_RAYLEIGH = "sub-rayleigh"
    SUPER_RAYLEIGH = "super-rayleigh"


class SonicRange(enum.Enum):
    SUBSONIC = "subsonic"
    SUPERSONIC = "supersonic"


@dataclass(frozen=True)
class Regime:
    rayleigh: RayleighRange
    sonic: SonicRange

    @property
    def is_sub_rayleigh(self) -> bool:
        return self.rayleigh is RayleighRange.SUB_RAYLEIGH

    @property
    def is_subsonic(self) -> bool:
        return self.sonic is SonicRange.SUBSONIC


def _check_eta(eta):
    if not np.all(np.greater(eta, -1.0) & np.less(eta, 1.0)):
        raise DomainError(f"eta must lie in (-1, 1), got {eta}")


def _u_radical(eta, h0, m) -> np.ndarray | float:
    """sqrt(1 − 2 h0² m²), broadcast over (h0, m).  Where h0 = 0 the radical
    is identically 1, whatever m is, and m is not domain-checked."""
    h0 = np.asarray(h0, dtype=float)
    r = 1.0 - 2.0 * (h0 * np.asarray(m, dtype=float)) ** 2
    off = (r < -1e-12) & (h0 != 0.0)
    if np.any(off):
        raise DomainError(
            f"1 - 2 h0^2 m^2 = {np.min(r[off]):g} < 0 (h0={h0}, m={m!r})"
        )
    u = np.where(h0 == 0.0, 1.0, np.sqrt(np.clip(r, 0.0, None)))
    return float(u) if u.ndim == 0 else u


def upsilon(eta, h0, m):
    """Surface-wave limit function: positive in the sub-Rayleigh range, zero
    at the critical speed.  Broadcasts over (eta, h0, m); all-scalar
    arguments give a float."""
    _check_eta(eta)
    u = _u_radical(eta, h0, m)
    eta = np.asarray(eta, dtype=float)
    h2m2 = (np.asarray(h0, dtype=float) * np.asarray(m, dtype=float)) ** 2
    val = (1.0 - eta * eta - 2.0 * h2m2 + 2.0 * u * (1.0 + eta - h2m2)) / (1.0 + u)
    return float(val) if val.ndim == 0 else val


def lambda_surface(eta: float, h0: float, m) -> float:
    """High-frequency determinant coefficient whose zero set defines the
    minimum surface-wave speed.

    Identity used in tests: lambda_surface = 2 h0² m² · upsilon, so both
    functions vanish together and share signs for h0·m > 0.
    """
    _check_eta(eta)
    u = _u_radical(eta, h0, m)
    val = (1.0 + eta) ** 2 * u - (u * u + eta) ** 2
    return float(val) if np.ndim(m) == 0 else val


def critical_speed(eta: float, h0):
    """Smallest positive zero of upsilon in m (to 1e-10), capped at the
    shear-wave value 1 (returned as exactly 1 when no slower zero exists).

    Broadcasts over h0: one 512-point upsilon scan of (0, m_hi] per h0, and
    one lockstep root solve on the first sign change of every scan.  A
    scalar h0 gives a float.
    """
    _check_eta(eta)
    h0 = np.asarray(h0, dtype=float)
    if not np.all(h0 >= 0):
        raise DomainError(f"h0 must be nonnegative, got {h0}")
    with np.errstate(divide="ignore"):
        m_hi = np.minimum(1.0, 1.0 / (SQRT2 * h0))
    out = np.array(m_hi)  # an array even for scalar h0, to assign into
    # At eta = 0, upsilon = u(u²+u+1)/(1+u) vanishes only at u = 0, i.e.
    # m = 1/(√2 h0); at h0 = 0 there is no zero (m_hi = 1).
    scan = (h0 != 0.0) & (eta != 0.0)
    if scan.any():
        h0s, m_top = h0[scan], m_hi[scan]
        grid = np.linspace(0.0, m_top, 512, axis=-1)
        vals = upsilon(eta, h0s[:, None], grid)
        change = vals[:, :-1] * vals[:, 1:] <= 0.0
        found = change.any(axis=1)
        lost = np.flatnonzero(~found & (m_top < 1.0))
        if lost.size:
            raise BracketError(f"no upsilon sign change found on (0, {m_top[lost[0]]}] "
                               f"for eta={eta}, h0={h0s[lost[0]]}")
        i = change[found].argmax(axis=1)
        root = bracketed_root(lambda m: upsilon(eta, h0s[found], m),
                              grid[found, i], grid[found, i + 1], tol=1e-10)
        m_c = np.ones(m_top.shape)
        m_c[found] = np.minimum(root, 1.0)
        out[scan] = m_c
    return float(out) if out.ndim == 0 else out


def h0_star(eta):
    """Rotational inertia threshold: for h0 > h0*(eta) the critical speed
    drops below the shear-wave speed.  Solves upsilon(eta, h0, 1) = 0 on
    (0, 1/sqrt(2)] to 1e-12; broadcasts over eta with one lockstep solve.
    A scalar eta gives a float."""
    _check_eta(eta)
    eta = np.asarray(eta, dtype=float)
    out = np.full(eta.shape, 1.0 / SQRT2)
    solve = eta != 0.0
    if solve.any():
        es = eta[solve]
        out[solve] = bracketed_root(lambda h0: upsilon(es, h0, 1.0),
                                    np.full(es.shape, 1e-9),
                                    np.full(es.shape, 1.0 / SQRT2), tol=1e-12)
    return float(out) if out.ndim == 0 else out


def zeta(eta: float, h0: float, m: float) -> float:
    """Positive pole location of the factorized symbol on the imaginary axis:
    zeta = sqrt(2 sqrt(1−m²)/upsilon).  Sub-Rayleigh only."""
    if m >= 1.0:
        raise RegimeError(f"zeta requires m < 1, got m={m}")
    ups = upsilon(eta, h0, m)
    if ups <= 0.0:
        raise RegimeError(
            f"zeta requires upsilon > 0 (sub-Rayleigh); "
            f"upsilon({eta}, {h0}, {m}) = {ups:g}"
        )
    return math.sqrt(2.0 * math.sqrt(1.0 - m * m) / ups)


def classify_regime(eta: float, h0: float, m: float) -> Regime:
    """Sub/super-Rayleigh and sub/supersonic classification of a speed m."""
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    m_c = critical_speed(eta, h0)
    sonic = SonicRange.SUBSONIC if m < 1.0 else SonicRange.SUPERSONIC
    sub = m < min(1.0, m_c)
    rayleigh = RayleighRange.SUB_RAYLEIGH if sub else RayleighRange.SUPER_RAYLEIGH
    return Regime(rayleigh=rayleigh, sonic=sonic)
