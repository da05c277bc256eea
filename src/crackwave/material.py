"""Material parameters and the scalar velocity functions of antiplane
couple-stress elasticity.

Everything here is a pure function of (eta, h0, m): the surface-wave limit
functions Upsilon and Lambda, the critical crack speed m_c and the threshold
rotational inertia h0* above which m_c < 1.  The quantities of one
sub-Rayleigh point that build on Upsilon (nu, zeta, Psi, and the symbol's
large-xi coefficient c2) live on ``kernel.KernelParams``.

With u = sqrt(1 − 2h0²m²), Upsilon = P(u)/(1 + u) for the cubic
P(u) = u³ + u² + (1 + 2η)u − η², which depends on eta alone and has one
root u* in [0, 1).  So h0* = sqrt(1 − u*²)/sqrt(2), and the critical speed
is m_c = min(1, h0*/h0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import bracketed_root

__all__ = [
    "Material",
    "upsilon",
    "lambda_surface",
    "critical_speed",
    "h0_star",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Material:
    """Couple-stress material in units of its shear modulus G and its
    characteristic length ell: the length ratio eta (−1 < eta < 1) and the
    normalized rotational inertia h0 = sqrt(J/4rho)/ell ≥ 0, with J the
    rotational inertia and rho the density.  Speeds enter as m = v/c_s, and
    h0 absorbs rho."""

    eta: float
    h0: float

    def __post_init__(self):
        if not -1.0 < self.eta < 1.0:
            raise DomainError(f"eta must lie in (-1, 1), got {self.eta}")
        if not 0 <= self.h0 < math.inf:
            raise DomainError(f"h0 must be nonnegative and finite, got {self.h0}")


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
    """Critical crack speed m_c = min(1, h0*(eta)/h0), with h0* from the
    root u* of the cubic P(u) = u³ + u² + (1 + 2η)u − η²: below the
    shear-wave speed, upsilon vanishes where sqrt(1 − 2h0²m²) = u*, i.e. at
    m = h0*/h0; otherwise m_c is exactly 1 (also at h0 = 0).  Broadcasts
    over h0; a scalar h0 gives a float."""
    h0 = np.asarray(h0, dtype=float)
    if not np.all(h0 >= 0):
        raise DomainError(f"h0 must be nonnegative, got {h0}")
    with np.errstate(divide="ignore", over="ignore"):  # h0 = 0 or subnormal
        m_c = np.minimum(1.0, h0_star(eta) / h0)
    return float(m_c) if m_c.ndim == 0 else m_c


def h0_star(eta):
    """Rotational inertia threshold h0*(eta) = sqrt(1 − u*²)/sqrt(2), with
    u* the one root in [0, 1) of the cubic P(u) = u³ + u² + (1 + 2η)u − η²
    (upsilon's numerator at h0²m² = (1 − u²)/2): for h0 > h0* the critical
    speed drops below the shear-wave speed.

    One lockstep solve over eta, to float precision, in w = 1 − u, so that
    1 − u* keeps its relative precision as eta → −1, where h0* → 0:
    P(1 − w) = c − w·b − w(1 − w)(3 − w) with c = P(1) = (1 + η)(3 − η) > 0
    and b = c + η² = 3 + 2η formed from c, so that b ≥ c and P(0) = c − b is
    never positive (exactly 0 at eta = 0, giving h0* = 1/sqrt(2)).  A scalar
    eta gives a float."""
    _check_eta(eta)
    eta = np.asarray(eta, dtype=float)
    c = (1.0 + eta) * (3.0 - eta)
    b = c + eta * eta
    w = bracketed_root(lambda w: c - w * b - w * (1.0 - w) * (3.0 - w),
                       np.zeros(eta.shape), np.ones(eta.shape))
    hs = np.sqrt(w * (2.0 - w)) / SQRT2
    return float(hs) if hs.ndim == 0 else hs
