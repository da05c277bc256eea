"""Wiener-Hopf symbol of the steady antiplane crack and its multiplicative
factorization into half-plane-analytic factors.

The symbol is normalized so that on the real axis

    k(xi) = [alpha·beta·(alpha² + beta² + 2·eta·xi²) + alpha²beta² − eta²xi⁴]
            / ( |xi| · Psi(xi) · (alpha + beta) ),

which is even, real, positive in the sub-Rayleigh regime, and tends to 1 at
both xi = 0 and |xi| → ∞.  A zero-index Cauchy-integral factorization then
applies:

    k±(z) = exp( −(1/2πi) ∫_R log k(t)/(t − z) dt ),   Im z ≷ 0,

with boundary values k⁺ = e^{iθ}/√k and k⁻ = √k·e^{iθ} on the real axis,
where θ(xi) = (1/2π) PV ∫ log k(t)/(t − xi) dt is odd.  The identity
k⁻/k⁺ = k holds on the axis and k±(∞) = 1.  Each factor has one evaluator
per domain: ``k_plus`` for Im z > 0 only, and ``k_plus_line`` and
``k_minus_line`` on the real axis.  Below the axis no evaluator is needed:
the symbol is even, so k⁻(z) = 1/k⁺(−z).

θ is computed once per factorization, by one trapezoid lattice in log t,
at the 16 Gauss-Legendre nodes of each quarter-decade panel of log xi over
[1e-6, xi_hi], and stored as one polynomial per panel (a constant matrix
takes the node values to power coefficients in the panel coordinate).  The
real-axis factors and k±_line evaluate it by Horner's rule; below 1e-6 it
continues linearly and beyond xi_hi as 1/xi.  ``theta_exact`` is an
independent reference with panels refined about each xi.

The off-axis Cauchy sums of a batch of points are formed in row blocks
(``numerics.row_blocks``) that stay below glibc's 128 KiB mmap threshold
and in L2, so a warm process maps no fresh pages for them.  Each row is
summed alone, so a point's sum does not depend on its batch.  The off-axis
rule that unclustered points share, with its L(t)·w, is built once per
factorization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import DomainError, RegimeError
from .material import _u_radical
from .material import upsilon as _upsilon
from .numerics import panel_nodes, row_blocks

__all__ = [
    "sqrt_plus",
    "sqrt_minus",
    "wave_exponents",
    "KernelParams",
    "CauchyFactorization",
    "FactorizedKernel",
    "factorize",
]

_HALF_PI = 0.5 * math.pi


def sqrt_plus(z):
    """Half-power xi^{1/2} analytic for Im z > 0, cut along the negative
    imaginary axis, equal to sqrt(z) for z real positive.
    Convention: (−i)^{1/2} = e^{−iπ/4}."""
    z = np.asarray(z, dtype=complex)
    ang = np.angle(z)
    ang = np.where(ang < -_HALF_PI, ang + 2.0 * np.pi, ang)
    out = np.sqrt(np.abs(z)) * np.exp(0.5j * ang)
    return out if out.ndim else complex(out)


def sqrt_minus(z):
    """Half-power xi^{1/2} analytic for Im z < 0, cut along the positive
    imaginary axis; sqrt_plus(z)·sqrt_minus(z) = |z| on the real axis."""
    z = np.asarray(z, dtype=complex)
    ang = np.angle(z)
    ang = np.where(ang > _HALF_PI, ang - 2.0 * np.pi, ang)
    out = np.sqrt(np.abs(z)) * np.exp(0.5j * ang)
    return out if out.ndim else complex(out)


def wave_exponents(xi, m, h0: float):
    """Decay-exponent pieces (chi, alpha, beta²) at real transform variable
    xi for normalized speed m (vectorized over both).

    With base = 1 + (1 − h0²m²)·xi², alpha² = base + chi and

        beta² = base − chi = (2(1 − m²) + xi²(1 − 2h0²m²))·xi² / (base + chi),

    formed in that cancellation-free form so that beta ≈ sqrt(1 − m²)·|xi|
    keeps full relative accuracy as xi → 0.  beta² is returned rather than
    beta because it is negative off the decaying-mode branch, where
    2(1 − m²) + xi²(1 − 2h0²m²) < 0 (the unclipped 1 − 2h0²m² may itself be
    negative there); on the branch beta = sqrt(beta²) ≥ 0.
    """
    x2 = xi * xi
    hm2 = (h0 * m) ** 2
    chi = np.sqrt(1.0 + 2.0 * (1.0 - h0 * h0) * (m * m) * x2 + (h0 * m) ** 4 * x2 * x2)
    base = 1.0 + (1.0 - hm2) * x2
    alpha = np.sqrt(base + chi)
    beta2 = (2.0 * (1.0 - m * m) + x2 * (1.0 - 2.0 * hm2)) * x2 / (base + chi)
    return chi, alpha, beta2


@dataclass(frozen=True)
class KernelParams:
    """Sub-Rayleigh parameter point (m, eta, h0) of the crack symbol, and
    the one home of its scalar quantities: Upsilon, nu = sqrt(1 − m²), the
    radical u = sqrt(1 − 2h0²m²), the pole zeta, Psi and c2 (log k ~ c2/xi²)."""

    m: float
    eta: float
    h0: float

    def __post_init__(self):
        for name in ("m", "eta", "h0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not self.m >= 0:
            raise DomainError(f"m must be nonnegative, got {self.m}")
        if self.m >= 1.0:
            raise RegimeError(f"sub-Rayleigh regime requires m < 1, got {self.m}")
        if self.h0 > 0 and 1.0 - 2.0 * (self.h0 * self.m) ** 2 < 0.0:
            raise RegimeError(
                f"1 - 2 h0^2 m^2 < 0 at m={self.m}, h0={self.h0}"
            )
        if self.upsilon <= 0.0:
            raise RegimeError(
                f"upsilon({self.eta}, {self.h0}, {self.m}) = {self.upsilon:g} <= 0: "
                "super-Rayleigh point"
            )

    @cached_property
    def upsilon(self) -> float:
        return _upsilon(self.eta, self.h0, self.m)

    @cached_property
    def nu(self) -> float:
        return math.sqrt(1.0 - self.m * self.m)

    @cached_property
    def u(self) -> float:
        return _u_radical(self.eta, self.h0, self.m)

    @cached_property
    def zeta(self) -> float:
        """Positive root of Psi(i·zeta) = 0: zeta = sqrt(2·nu/Upsilon), the
        pole of the factorized symbol on the imaginary axis."""
        return math.sqrt(2.0 * self.nu / self.upsilon)

    def psi(self, xi):
        """Psi(xi) = Upsilon·xi² + 2·nu, for real or complex xi."""
        return self.upsilon * (xi * xi) + 2.0 * self.nu

    @cached_property
    def c2(self) -> float:
        """Large-xi coefficient of log k ~ c2/xi²: c2 = (a0 − 2·nu)/Upsilon,
        with a0 the constant term of k·Psi = Upsilon·xi² + a0 + O(xi⁻²).  h0
        enters a0 through u alone, which is positive at a sub-Rayleigh point."""
        eta, u = self.eta, self.u
        q = (eta * eta + 2.0 * eta * (u * u + u + 1.0)
             + u**4 + 3.0 * u**3 + 5.0 * u * u + 3.0 * u + 1.0)
        a0 = (eta * eta + 2.0 * eta + 2.0 * u**3 + 4.0 * u * u + 2.0 * u + 1.0
              - self.m * self.m * q / (1.0 + u)) / (u * (1.0 + u) ** 2)
        return (a0 - 2.0 * self.nu) / self.upsilon


# ---------------------------------------------------------------------------
# Cauchy-integral factorization of an even, positive, index-zero kernel.
# ---------------------------------------------------------------------------

_THETA_ORDER = 16  # Gauss nodes per boundary-phase panel (polynomial degree + 1)


def _values_to_monomials(order: int) -> np.ndarray:
    """Matrix taking a polynomial's values at the ``order`` Gauss-Legendre
    nodes of [−1, 1] to its coefficients in powers of x (degree < order):
    the Legendre coefficients by the exact discrete orthogonality of the
    Gauss rule, then their power-series form."""
    x, w = leggauss(order)
    basis = legvander(x, order - 1)  # P_k(x_j)
    to_legendre = (np.arange(order) + 0.5)[:, None] * (basis * w[:, None]).T
    # Column k: power coefficients of P_k, by (n+1)P_{n+1} = (2n+1)x·P_n − n·P_{n−1}.
    to_power = np.zeros((order, order))
    to_power[0, 0] = to_power[1, 1] = 1.0
    for n in range(1, order - 1):
        to_power[1:, n + 1] = (2 * n + 1) * to_power[:-1, n]
        to_power[:, n + 1] -= n * to_power[:, n - 1]
        to_power[:, n + 1] /= n + 1
    return to_power @ to_legendre


_THETA_FIT = _values_to_monomials(_THETA_ORDER)


def _quarter_decade_edges(lo: float, hi: float) -> np.ndarray:
    n = max(2, int(math.ceil(4.0 * math.log10(hi / lo))) + 1)
    return np.geomspace(lo, hi, n)


def _clustered_edges(x: float, lo: float, hi: float, delta: float, n: int) -> np.ndarray:
    """Panel edges on [lo, hi] graded geometrically toward x from both sides,
    n per side, the innermost a distance delta from x."""
    left = x - np.geomspace(x - lo, delta, n)
    right = x + np.geomspace(delta, hi - x, n)
    return np.concatenate([[lo], left, right, [hi]])


def _artanh_excess(w):
    """artanh(w) − w; the difference cancels for small |w|, where the series
    w³/3 + w⁵/5 is used instead."""
    w = np.asarray(w)
    return np.where(np.abs(w) < 1e-4, w**3 / 3.0 + w**5 / 5.0, np.arctanh(w) - w)


class CauchyFactorization:
    """Multiplicative factorization k = k⁻/k⁺ of an even, real, positive
    kernel on the real line with k(0) = k(∞) = 1.

    Parameters
    ----------
    k_line : callable
        Vectorized kernel on the real axis (called with |t| ≥ 0).
    xi_hi : float
        Upper end of the cached boundary-phase interpolant.  The off-axis
        Cauchy integrals and ``theta_exact`` are truncated at
        t_cut = 40·xi_hi, with the analytic tail beyond from ``c2``.
    c2 : float
        The kernel's large-t coefficient, log k ~ c2/t², in closed form.

    Raises ``RegimeError`` if log k is not finite on the θ lattice.
    """

    def __init__(self, k_line, xi_hi: float, c2: float):
        self._k_line = k_line
        self.xi_hi = float(xi_hi)
        self.t_cut = 40.0 * self.xi_hi
        self._xi_lo = 1e-6
        self._c2 = float(c2)
        self._build_theta_interpolant()

    # -- real-axis kernel -----------------------------------------------
    def k_real(self, xi):
        out = self._k_line(np.abs(np.asarray(xi, dtype=float)))
        return out

    def log_k(self, t):
        return np.log(self.k_real(t))

    # -- boundary phase ---------------------------------------------------
    def _build_theta_interpolant(self):
        """Piecewise-polynomial theta in log xi: its values at the
        _THETA_ORDER Gauss nodes of each of the equal panels, a quarter
        decade or a little less, of log xi over [_xi_lo, xi_hi], turned into
        power coefficients in the panel coordinate by the constant
        _THETA_FIT.

        With L = log k, t = e^s and xi = e^u,
        theta(e^u) = (1/2π) PV∫ L(e^s)/sinh(s − u) ds, and the trapezoid
        rule with nodes at u + (n + ½)h is exponentially accurate for it
        with no subtraction (Weideman 1995, Math. Comp. 64, 745–762).  With
        h half the panel width, Gauss position g of panel p sits half a step
        off the lattice s_{g,j} = lo + h(1 + x_g) + (j + ½)h, at
        s_{g,j} − u = (j − 2p + ½)h, so one weight matrix 1/sinh serves every
        position.  The lattice spans t ∈ [1e-20, 1e9]: below, the omitted
        part is about L(0)·1e-20/(π·xi); above, L ~ c2/t² is below rounding.
        """
        lo, hi = math.log(self._xi_lo), math.log(self.xi_hi)
        panels = max(1, math.ceil(4.0 * math.log10(self.xi_hi / self._xi_lo)))
        h = 0.5 * (hi - lo) / panels
        u, _ = panel_nodes(np.linspace(lo, hi, panels + 1), _THETA_ORDER)
        j = np.arange(math.floor((math.log(1e-20) - lo) / h),
                      math.ceil((math.log(1e9) - lo) / h))
        with np.errstate(divide="ignore", invalid="ignore"):
            L = self.log_k(np.exp(u[0, :, None] + (j + 0.5) * h))  # (position, lattice)
        if not np.isfinite(L).all():
            raise RegimeError("kernel not positive on the real axis; "
                              "factorization requires the sub-Rayleigh regime")
        weights = 1.0 / np.sinh((j - 2.0 * np.arange(panels)[:, None] + 0.5) * h)
        vals = h / (2.0 * np.pi) * (weights @ L.T)  # (panel, position)
        self._theta_coef = _THETA_FIT @ vals.T  # (power, panel)
        self._theta_axis = (lo, panels / (hi - lo))  # start, panels per unit
        self._theta_lo_slope = float(self._theta_panels(lo)) / self._xi_lo
        self._theta_hi_edge = float(self._theta_panels(hi))

    def _theta_panels(self, u):
        """The interpolant at log xi = u in [log _xi_lo, log xi_hi], by
        Horner's rule in the coordinate of u's panel."""
        lo, scale = self._theta_axis
        t = (np.asarray(u) - lo) * scale
        i = np.minimum(t.astype(np.intp), self._theta_coef.shape[1] - 1)
        x = 2.0 * (t - i) - 1.0
        c = self._theta_coef
        out = c[-1].take(i) * x
        for k in range(_THETA_ORDER - 2, 0, -1):
            out += c[k].take(i)
            out *= x
        return out + c[0].take(i)

    def theta(self, xi):
        """Boundary phase (odd in xi) from the cached interpolant, continued
        linearly below _xi_lo and as 1/xi beyond xi_hi."""
        x = np.asarray(xi, dtype=float)
        ax = np.abs(x)
        out = np.empty_like(ax)
        small = ax < self._xi_lo
        big = ax > self.xi_hi
        mid = ~(small | big)
        out[small] = self._theta_lo_slope * ax[small]
        out[big] = self._theta_hi_edge * self.xi_hi / ax[big]
        out[mid] = self._theta_panels(np.log(ax[mid]))
        out = np.copysign(1.0, x) * out
        return out if out.ndim else float(out)

    def theta_exact(self, xi: float) -> float:
        """Boundary phase at one xi by a rule refined around t = xi: the
        reference path, independent of the cached interpolant and of its
        shared nodes."""
        x = abs(float(xi))
        if x == 0.0:
            return 0.0
        T = self.t_cut

        # Panels clustered toward t = x; the window |t−x| < delta, where the
        # subtracted integrand cancels catastrophically in floating point, is
        # handled by its Taylor value L'(x)/(2x).
        delta = 1e-4 * x
        lo, hi = x / math.sqrt(10.0), min(x * math.sqrt(10.0), T)
        base = np.concatenate([[0.0], _quarter_decade_edges(min(1e-3, 0.5 * lo), T)])
        edges = np.union1d(base[(base < lo) | (base > hi)],
                           _clustered_edges(x, lo, hi, delta, 18))
        edges = edges[edges <= T]
        t, wt = panel_nodes(edges, 16)
        outside = np.abs(0.5 * (edges[1:] + edges[:-1]) - x) >= delta
        t, wt = t[outside], wt[outside]
        Lx = float(self.log_k(x))
        val = float(np.sum((self.log_k(t) - Lx) / (t * t - x * x) * wt))

        h = 1e-5 * x
        lprime = float(self.log_k(x + h) - self.log_k(x - h)) / (2.0 * h)
        val += lprime / (2.0 * x) * 2.0 * delta
        # Closed-form t > T part, with log k ≈ c2/t²: (c2/x²)·d − L(x)·(d + 1/T)
        # with d = (artanh(x/T) − x/T)/x, which is O((x/T)²/T).
        d = float(_artanh_excess(x / T)) / x
        val += (self._c2 / x**2) * d - Lx * (d + 1.0 / T)
        theta = x / math.pi * val
        return theta if xi >= 0 else -theta

    # -- off-axis Cauchy integral ----------------------------------------
    @staticmethod
    def _clustered(z) -> np.ndarray:
        """Whether the integrand ∫ L(t)(1/(t−z) − 1/(t+z))dt peaks near
        t = |Re z| sharply enough to need panels clustered there."""
        x, y = np.abs(z.real), np.abs(z.imag)
        return x > np.maximum(4.0 * y, 1e-5)

    def _cauchy_rule(self, T: float, z: complex | None = None):
        """Panel nodes t on [0, T] and L(t)·w for ∫ L(t)(1/(t−z) − 1/(t+z))dt,
        clustered geometrically around |Re z| when z is given and the
        integrand peaks there."""
        edges = np.concatenate([[0.0], _quarter_decade_edges(1e-3, T)])
        if z is not None and self._clustered(z) and abs(z.real) < T / 3.0:
            x, y = abs(z.real), abs(z.imag)
            lo, hi = x / math.sqrt(10.0), x * math.sqrt(10.0)
            delta = 0.5 * max(y, 1e-8 * max(x, 1.0))
            edges = np.union1d(edges[(edges < lo) | (edges > hi)],
                               _clustered_edges(x, lo, hi, delta, 12))
        t, wt = panel_nodes(edges, 12)
        t = t.ravel()
        return t, self.log_k(t) * wt.ravel()

    @cached_property
    def _shared_rule(self):
        """The rule of every point that needs neither clustered panels nor
        a larger T, built once per factorization."""
        return self._cauchy_rule(self.t_cut)

    @staticmethod
    def _cauchy_sums(z: np.ndarray, t: np.ndarray, Lw: np.ndarray) -> np.ndarray:
        """∫₀^T L(t)(1/(t−z) − 1/(t+z))dt at points z (1-D) on one rule
        (nodes t, L(t)·w), in real arithmetic: the integrand is
        2z·L(t)/(t² − z²) = 2z·L(t)(a + ib)/(a² + b²) with a = Re(t² − z²)
        and b = Im z².  With z = x + iy, a is formed as (t − x)(t + x) + y²,
        which keeps its relative accuracy at t ≈ |x| when z is near the
        axis (t² − Re z² loses 7e-14 of the sum at z = −40 + 1e-4i).  Each
        row is summed alone, in row blocks (numerics.row_blocks), so a
        point's value does not depend on the batch."""
        sums = np.empty(z.shape, dtype=complex)
        for rows in row_blocks(z.size, t.size):
            zr = z[rows]
            x, y = zr.real[:, None], zr.imag
            a = (t - x) * (t + x) + (y * y)[:, None]
            b = 2.0 * zr.real * y
            q = Lw / (a * a + (b * b)[:, None])
            sums[rows] = 2.0 * zr * ((q * a).sum(axis=-1) + 1j * b * q.sum(axis=-1))
        return sums

    def cauchy_integral(self, z):
        """E(z) = ∫_R log k(t)/(t − z) dt for z off the real axis (a scalar
        gives a complex scalar, an array an array of its shape).

        Integrated directly on [0, T] with T = max(t_cut, 4|z|); beyond T the
        kernel's log ≈ c2/t² tail is added in closed form.  Points that need
        neither clustered panels nor a larger T share one node set.
        """
        zs = np.asarray(z, dtype=complex)
        flat = zs.ravel()
        if np.any(flat.imag == 0.0):
            raise DomainError("cauchy_integral requires Im z != 0")
        T = np.maximum(self.t_cut, 4.0 * np.abs(flat))
        val = np.empty_like(flat)
        shared = (T == self.t_cut) & ~self._clustered(flat)
        if shared.any():
            val[shared] = self._cauchy_sums(flat[shared], *self._shared_rule)
        for i in np.flatnonzero(~shared):
            rule = self._cauchy_rule(T[i], flat[i])
            val[i] = self._cauchy_sums(flat[i:i + 1], *rule)[0]
        # ∫_T^∞ (c2/t²)(1/(t−z) − 1/(t+z)) dt = −(c2/z²)(ln((T−z)/(T+z)) + 2z/T)
        # = (2c2/z²)(artanh(z/T) − z/T); the log cancels to O((z/T)³).
        val = val + 2.0 * self._c2 / (flat * flat) * _artanh_excess(flat / T)
        return val.reshape(zs.shape) if zs.ndim else complex(val[0])

    # -- factors -----------------------------------------------------------
    def k_plus(self, z):
        """Upper factor k⁺(z) = exp(−E(z)/2πi), analytic and zero-free for
        Im z > 0 only (a scalar gives a complex scalar, an array an array of
        its shape); k⁺(∞) = 1.  The kernel is even, so k⁻(z) = 1/k⁺(−z)."""
        zs = np.asarray(z, dtype=complex)
        if np.any(zs.imag <= 0.0):
            raise DomainError("k_plus is defined for Im z > 0; "
                              "use k_plus_line on the real axis")
        out = np.exp(-self.cauchy_integral(zs.ravel()) / (2j * np.pi))
        return out.reshape(zs.shape) if zs.ndim else complex(out[0])

    # Boundary values from the cached phase interpolant.
    def k_plus_line(self, xi):
        return np.exp(1j * self.theta(xi)) / np.sqrt(self.k_real(xi))

    def k_minus_line(self, xi):
        return np.exp(1j * self.theta(xi)) * np.sqrt(self.k_real(xi))


class FactorizedKernel(CauchyFactorization):
    """Factorization of the physical crack symbol at a sub-Rayleigh point."""

    def __init__(self, params: KernelParams):
        self.params = params
        xi_hi = max(4.0e3, 60.0 * params.zeta)
        super().__init__(self._symbol_line, xi_hi=xi_hi, c2=params.c2)

    def _symbol_line(self, t):
        """Normalized symbol on the real axis (vectorized, t ≥ 0)."""
        p = self.params
        t = np.asarray(t, dtype=float)
        t2 = t * t
        # beta² ≥ 0 on the whole axis in the sub-Rayleigh regime.
        _, alpha, b2 = wave_exponents(t, p.m, p.h0)
        beta = np.sqrt(b2)
        num = alpha * beta * (alpha * alpha + b2 + 2.0 * p.eta * t2)
        num = num + alpha * alpha * b2 - p.eta**2 * t2 * t2
        with np.errstate(divide="ignore", invalid="ignore"):
            k = num / (t * p.psi(t) * (alpha + beta))
        k = np.where(t < 1e-140, 1.0, k)
        return k

    def symbol_minus_line(self, xi):
        """xi₋^{1/2}·Psi(xi)·k⁻(xi) on the real axis: the factor of the
        unnormalized symbol |xi|·Psi·k = (xi₊^{1/2}/k⁺)·(xi₋^{1/2}·Psi·k⁻)
        that is analytic below the axis, with its zero at xi = −i·zeta."""
        return sqrt_minus(xi) * self.params.psi(xi) * self.k_minus_line(xi)


def factorize(params: KernelParams) -> FactorizedKernel:
    """Build evaluable half-plane factors (k⁺, k⁻) of the crack symbol."""
    return FactorizedKernel(params)
