"""Crack-line fields by inverse transform: opening w(X<0), traction p3(X>0),
stresses sigma23/tau23/mu22, total shear t23 = sigma23 + tau23, the windowed
maximum of t23, and the closed-form near-tip coefficients.

Lengths are in units of ℓ and the load has unit resultant, so each field
is its normalized value: w·G/(T0·ℓ), p3 and the stresses times ℓ/T0, and
mu22/T0.  Every field is a folded half-line integral
2·Re[pref·∫₀^∞ g(xi) e^{−iX·xi} dxi] evaluated by the shared oscillatory
engine; the large-xi behaviour of each integrand is an algebraic
half-integer ladder, which the engine fits on a window whose start is
chosen here and sums in closed form beyond the truncation radius.  The
total shear grows like xi^{1/2} (its transform is square-root singular),
handled the same way.

The public evaluators take a scalar X (giving floats) or an array of X.
Each is one transform per (split, field kinds): the integrands of all kinds
are stacked columns, evaluated once on nodes that do not depend on X, and
the transform is then called on the X grid, so each X's value is the same
as when it is evaluated alone.  ``max_total_shear`` calls its one transform
twice, on its grid and at the refined point.  All kinds use the √t head
rule, which is exact for both the t^{−1/2} endpoint of the opening and
stresses and the t^{1/2} endpoint of the traction.

The traction's rational piece is transformed in closed form through
e^w·E_q(w) = S(1 − q, w), in the scaled incomplete gamma that also sums
the ladder tails (``upper_gamma_ladder``).  The balance ∫p3 dX = 1
(``balance_integral``) is integrated on Gauss panels in log X after the
tip singularity is subtracted (its coefficients from the traction
transform's own tail fit), with closed-form tip and tail pieces fitted on
the same nodes.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RealnessError
from .kernel import KernelParams, sqrt_plus
from .loading import SplitData, g_minus
from .numerics import (fit_power_tail, oscillatory_halfline, panel_nodes,
                       upper_gamma_ladder)

__all__ = [
    "FieldKind",
    "FieldProfile",
    "NearTipCoefficients",
    "crack_opening",
    "traction_ahead",
    "stresses_on_line",
    "crack_line_fields",
    "crack_line_window",
    "field_profile",
    "max_total_shear",
    "neartip_coefficients",
    "balance_integral",
]

TIP_WINDOW_FLOOR = 1e-3  # t23-max window starts at X = 1e-3 (singular zone excluded)
_TMAX_POINTS = 90        # log-spaced points of the t23-max window
_BALANCE_ORDER = 12      # Gauss nodes per half-decade panel of the balance integral


class FieldKind(str, enum.Enum):
    OPENING = "opening"
    TRACTION = "traction"
    SIGMA_SHEAR = "sigma23"
    TAU_SHEAR = "tau23"
    COUPLE_STRESS = "mu22"
    TOTAL_SHEAR = "t23"


@dataclass(frozen=True)
class FieldProfile:
    """Sampled field with the quadrature's error estimate at each X."""

    X: np.ndarray
    values: np.ndarray
    kind: FieldKind
    error: np.ndarray


@dataclass(frozen=True)
class NearTipCoefficients:
    """Closed-form singular coefficients: w ~ C_w·(−X)^{3/2},
    t23 ~ C_t·X^{−3/2}, mu22 ~ C_mu·X^{−1/2}."""

    C_w: float
    C_t: float
    C_mu: float


# Large-xi exponent ladders of the folded integrands.
_LADDERS = {
    FieldKind.OPENING: (-2.5, -3.5, -4.5, -5.5, -6.5),
    FieldKind.SIGMA_SHEAR: (-1.5, -2.5, -3.5, -4.5, -5.5),
    FieldKind.TAU_SHEAR: (0.5, -0.5, -1.5, -2.5, -3.5),
    FieldKind.COUPLE_STRESS: (-0.5, -1.5, -2.5, -3.5, -4.5),
    FieldKind.TOTAL_SHEAR: (0.5, -0.5, -1.5, -2.5, -3.5),
    FieldKind.TRACTION: (0.5, -0.5, -1.5, -2.5, -3.5),
}

_STRESS_KINDS = (FieldKind.SIGMA_SHEAR, FieldKind.TAU_SHEAR,
                 FieldKind.COUPLE_STRESS, FieldKind.TOTAL_SHEAR)


def _stress_multipliers(params: KernelParams, xi):
    """(r_sigma, r_tau), which take the opening's q to the integrands of
    sigma23 and tau23 at signed real xi, in ``KernelParams.root_sums``."""
    eta, u2 = params.eta, params.u * params.u
    r, a, s = params.root_sums(xi)
    xi2 = xi * xi
    ab = np.abs(xi) * r  # alpha·beta
    r_tau = ab * ab + (a + ab) * eta * xi2 - u2 * xi2 * (eta * xi2 - ab)
    return (ab - eta * xi2) / s, r_tau / s


def _integrands(split: SplitData, kinds, xi):
    """Signed-argument integrands of the inversion integrals of ``kinds``,
    stacked: shape (len(kinds),) + xi.shape.

    Evaluated through the explicit branch functions so that they are valid
    on both half-lines (the folded evaluation only uses xi > 0).  The
    opening and the stresses share the factor q, and the stresses its
    multipliers r_sigma, r_tau; each is computed once for all ``kinds``.
    The traction integrand here is only the half-integer-ladder part; its
    rational piece (1+i·xi·L)^{−1−p} is transformed in closed form by the
    caller.
    """
    xi = np.asarray(xi, dtype=float)
    gm = g_minus(xi, split)
    kernel = split.kernel
    rows = {}
    if FieldKind.TRACTION in kinds:
        rows[FieldKind.TRACTION] = sqrt_plus(xi) * (split.F - gm) / kernel.k_plus_line(xi)
    stresses = [k for k in kinds if k in _STRESS_KINDS]
    if FieldKind.OPENING in kinds or stresses:
        q = (gm - split.F) / kernel.symbol_minus_line(xi)
        rows[FieldKind.OPENING] = q
    if stresses:
        r_sigma, r_tau = _stress_multipliers(kernel.params, xi)
        rows[FieldKind.SIGMA_SHEAR] = r_sigma * q
        rows[FieldKind.TAU_SHEAR] = r_tau * q
        rows[FieldKind.COUPLE_STRESS] = xi * r_sigma * q
        rows[FieldKind.TOTAL_SHEAR] = (2.0 * r_sigma + r_tau) * q
    return np.array([rows[k] for k in kinds])


def _prefactor(split: SplitData, kind: FieldKind) -> complex:
    if kind is FieldKind.OPENING:
        return 1.0 / math.pi
    if kind is FieldKind.TRACTION:
        return 1.0 / (2.0 * math.pi)
    if kind is FieldKind.SIGMA_SHEAR:
        return -1.0 / math.pi
    if kind in (FieldKind.TAU_SHEAR, FieldKind.TOTAL_SHEAR):
        return -1.0 / (2.0 * math.pi)
    if kind is FieldKind.COUPLE_STRESS:
        return -1j * (1.0 + split.kernel.params.eta) / math.pi
    raise DomainError(f"unknown field kind {kind!r}")


def _truncation_radius(split: SplitData) -> float:
    """Truncation radius far beyond both scales of the integrands: zeta and
    1/L, on which G⁻ varies (the tail ladder is an expansion in 1/(xi·L))."""
    return max(4.0e3, 50.0 * split.kernel.params.zeta, 2.0e3 / split.profile.L)


def _check_domain(kind: FieldKind, X):
    X = np.asarray(X)
    if kind is FieldKind.OPENING:
        if np.any(X >= 0.0):
            raise DomainError(f"crack opening is defined for X < 0, got {X.max()}")
    elif np.any(X <= 0.0):
        raise DomainError(f"{kind.value} is defined ahead of the tip, X > 0; "
                          f"got {X.min()}")


def _rational_transform(split: SplitData, a):
    """Closed form of ∫₀^∞ (1+i·t·L)^{−1−p} e^{−iat} dt for a > 0:
    e^{w}·E_{p+1}(w)/(i·L) = S(−p, w)/(i·L) with w = a/L, in the scaled
    incomplete gamma of ``upper_gamma_ladder``."""
    L = split.profile.L
    ((scaled,),) = upper_gamma_ladder([[-split.profile.p]], a / L)
    return scaled / (1j * L)


def _field_values(split: SplitData, kinds):
    """The transform of the fields ``kinds`` of a split: ``(values, coeffs)``.

    ``values`` is a callable that maps distances x > 0 from the tip — behind
    it (X = −x) for the opening, ahead of it (X = x) for the others — to the
    fields and their error estimates, both of shape (len(kinds),) + x.shape.
    The integrands of all kinds are evaluated and their tails fitted once,
    here, on the window from max(40, 30·zeta, radius/50) to the truncation
    radius; each call inverts at the frequencies x, and a distance's value
    does not depend on the other distances of the call.  ``coeffs`` holds
    each kind's fitted ladder coefficients (``_LADDERS``).

    The opening enters through ∫q·e^{+iat}dt = conj(∫conj(q)·e^{−iat}dt),
    so every column shares one table of moments, and its coefficients are
    those of conj(q)."""
    radius = _truncation_radius(split)
    behind = np.array([k is FieldKind.OPENING for k in kinds])

    def columns(t):
        v = _integrands(split, kinds, t)
        v[behind] = np.conj(v[behind])
        return v

    fit_start = max(40.0, 30.0 * split.kernel.params.zeta, radius / 50.0)
    transform, coeffs = oscillatory_halfline(
        columns, radius, [_LADDERS[kind] for kind in kinds], fit_start)
    pref = np.array([_prefactor(split, kind) for kind in kinds])

    def values(x):
        a = np.asarray(x, dtype=float)
        val, err = transform(a)
        for i, kind in enumerate(kinds):
            if kind is FieldKind.OPENING:
                val[i] = np.conj(val[i])
            elif kind is FieldKind.TRACTION:
                val[i] = val[i] + _rational_transform(split, a)
        scale = pref.reshape(pref.shape + (1,) * a.ndim)
        return 2.0 * np.real(scale * val), 2.0 * np.abs(scale) * err

    return values, coeffs


def _out(values):
    """A float for a scalar evaluation, the array otherwise."""
    return float(values) if np.ndim(values) == 0 else values


def crack_opening(X, split: SplitData):
    """Opening displacement w(X) behind the tip (X < 0); a float for a
    scalar X, an array for an array."""
    _check_domain(FieldKind.OPENING, X)
    return _out(_field_values(split, (FieldKind.OPENING,))[0](np.negative(X))[0][0])


def traction_ahead(X, split: SplitData):
    """Reduced traction p3(X) ahead of the tip (X > 0); a float for a
    scalar X, an array for an array."""
    _check_domain(FieldKind.TRACTION, X)
    return _out(_field_values(split, (FieldKind.TRACTION,))[0](X)[0][0])


def _stress_dict(sigma, tau, mu) -> dict:
    return {"sigma23": _out(sigma), "tau23": _out(tau), "mu22": _out(mu),
            "t23": _out(sigma + tau)}


def stresses_on_line(X, split: SplitData) -> dict:
    """sigma23, tau23, mu22 and t23 = sigma23 + tau23 at X > 0, by one
    inversion; floats for a scalar X, arrays for an array."""
    _check_domain(FieldKind.SIGMA_SHEAR, X)
    kinds = (FieldKind.SIGMA_SHEAR, FieldKind.TAU_SHEAR, FieldKind.COUPLE_STRESS)
    return _stress_dict(*_field_values(split, kinds)[0](X)[0])


def crack_line_fields(x, split: SplitData) -> dict:
    """Every crack-line field at distance x > 0 from the tip, by one
    inversion: the opening ``w`` at X = −x and the traction ``p3`` and the
    stresses of ``stresses_on_line`` at X = x."""
    _check_domain(FieldKind.TRACTION, x)
    kinds = (FieldKind.OPENING, FieldKind.TRACTION, FieldKind.SIGMA_SHEAR,
             FieldKind.TAU_SHEAR, FieldKind.COUPLE_STRESS)
    w, p3, sigma, tau, mu = _field_values(split, kinds)[0](x)[0]
    return {"w": _out(w), "p3": _out(p3), **_stress_dict(sigma, tau, mu)}


def crack_line_window(split: SplitData) -> tuple[float, float]:
    """Distances 1e-3 … 1e2·max(L, 1) from the tip over which the
    crack-line fields are tabulated and the t23 maximum is sought.  The
    lower end keeps out of the tip's singular zone."""
    return TIP_WINDOW_FLOOR, 1e2 * max(split.profile.L, 1.0)


def field_profile(split: SplitData, kind: FieldKind, *, n: int = 400,
                  x_lo: float | None = None, x_hi: float | None = None) -> FieldProfile:
    """Sampled profile on a logarithmic |X| grid (signed for the opening),
    by default from 1e-5 to the upper end of ``crack_line_window``."""
    x_lo = 1e-5 if x_lo is None else x_lo
    x_hi = crack_line_window(split)[1] if x_hi is None else x_hi
    grid = np.geomspace(x_lo, x_hi, n)
    sign = -1.0 if kind is FieldKind.OPENING else 1.0
    values, error = _field_values(split, (kind,))[0](grid)
    return FieldProfile(X=sign * grid, values=values[0], kind=kind, error=error[0])


def max_total_shear(split: SplitData):
    """Maximum of t23 over 90 log-spaced points of ``crack_line_window``
    ahead of the tip, refined by a parabola in log X about the largest.

    The window starts at X = 1e-3: the total shear is square-root-cubed
    singular at the tip, so a maximum is only meaningful outside the
    singular zone.  The grid and the refined point are two calls of one
    transform.  Returns ``(t23max, X_at)``."""
    total_shear, _ = _field_values(split, (FieldKind.TOTAL_SHEAR,))
    grid = np.geomspace(*crack_line_window(split), _TMAX_POINTS)
    vals = total_shear(grid)[0][0]
    i = int(np.argmax(vals))
    if 0 < i < _TMAX_POINTS - 1:
        # Parabolic refinement in log X.
        u = np.log(grid[i - 1: i + 2])
        y = vals[i - 1: i + 2]
        denom = (y[0] - 2.0 * y[1] + y[2])
        if denom < 0.0:
            du = 0.5 * (y[0] - y[2]) / denom * (u[1] - u[0])
            x_ref = math.exp(u[1] + du)
            v_ref = total_shear(x_ref)[0][0]
            if v_ref > vals[i]:
                return float(v_ref), float(x_ref)
    return float(vals[i]), float(grid[i])


def neartip_coefficients(split: SplitData) -> NearTipCoefficients:
    """Closed-form singular coefficients from the Liouville constant.

    The half-power branch constants make all three real; a relative
    imaginary residue above 1e-10 raises RealnessError."""
    params = split.kernel.params
    ups, u, eta, h0 = params.upsilon, params.u, params.eta, params.h0
    F = split.F
    rt_pi = math.sqrt(math.pi)
    i_m32 = np.exp(-0.75j * np.pi)  # (i)^{−3/2} under the upper branch
    i_p12 = np.exp(0.25j * np.pi)   # (i)^{1/2}

    cw = -8.0 * F * i_m32 / (3.0 * rt_pi * ups)
    ct = -F * (1.0 + eta - 2.0 * (h0 * params.m) ** 2) * i_p12 / (2.0 * rt_pi * ups)
    cmu = 2.0 * F * (u - eta) * (1.0 + eta) * i_p12 / (rt_pi * ups * (1.0 + u))

    out = []
    for name, c in (("C_w", cw), ("C_t", ct), ("C_mu", cmu)):
        if abs(c.imag) > 1e-10 * max(abs(c), 1e-300):
            raise RealnessError(f"near-tip coefficient {name} is not real", c)
        out.append(float(c.real))
    return NearTipCoefficients(C_w=out[0], C_t=out[1], C_mu=out[2])


def balance_integral(split: SplitData) -> float:
    """Finite-part integral ∫₀^∞ p3 dX, which equals 1, the load's resultant.

    p3 ~ C_p·X^{−3/2} at the tip is not locally integrable; the balance holds
    in the finite-part sense (the zero-transform value).  The singular model
    C_p·X^{−3/2}·e^{−X/λ} is integrated in closed form (finite part
    Γ(−1/2)/sqrt(λ) = −2·sqrt(pi/λ)) and subtracted from p3 before numeric
    integration, so the result is first-order insensitive to everything but
    the closed-form coefficient itself.  That coefficient, and the
    X^{−1/2} one beside it, come from the tail fit of the one traction
    transform that also gives p3.
    """
    lam = max(split.profile.L, 1.0)
    traction, (coeffs,) = _field_values(split, (FieldKind.TRACTION,))
    # Singular coefficients of the transform's own tail fit, so the
    # subtraction cancels identically at small X: the xi^{1/2} and
    # xi^{−1/2} ladder heads transform to X^{−3/2} and X^{−1/2} terms with
    # c = 2·Re[pref·c_k·Γ(λ+1)e^{−iπ(λ+1)/2}].
    pref = _prefactor(split, FieldKind.TRACTION)
    c32 = math.sqrt(math.pi) * float(np.real(
        pref * coeffs[0] * np.exp(-0.75j * np.pi)))
    c12 = 2.0 * math.sqrt(math.pi) * float(np.real(
        pref * coeffs[1] * np.exp(-0.25j * np.pi)))
    c_sing = (c32, c12)
    # fp ∫₀^∞ X^{−3/2}e^{−X/λ} = −2·sqrt(pi/λ); ∫ X^{−1/2}e^{−X/λ} = sqrt(pi·λ).
    analytic = -2.0 * math.sqrt(math.pi / lam) * c32 \
        + math.sqrt(math.pi * lam) * c12

    # Middle: ∫ reg dX = ∫ reg·X d(log X) by Gauss panels of half a decade
    # in log X, on whose nodes the tip and tail are fitted as well.  A grid
    # ending at 400λ leaves the fitted tail off by up to 1.2e-5; at 4000λ
    # the balance holds to 1e-7.  X stays below 1e7, inside the engine's
    # head limit X ≤ 4π·1e6.
    x_min, x_max = 1e-6, min(4000.0 * lam, 1e7)
    panels = math.ceil(2.0 * math.log10(x_max / x_min))
    u, wu = panel_nodes(np.linspace(math.log(x_min), math.log(x_max), panels + 1),
                        _BALANCE_ORDER)
    grid = np.exp(u.ravel())
    p3 = traction(grid)[0][0]
    reg = p3 - (c_sing[0] * grid ** -1.5 + c_sing[1] * grid ** -0.5) \
        * np.exp(-grid / lam)
    middle = float(np.sum(wu.ravel() * reg * grid))

    # Tip: reg ~ c·X^{−1/2} + d + e·sqrt(X) below x_min (the X^{−1/2} piece
    # is fed by the damping expansion of the subtracted model).
    sel = grid <= 100.0 * x_min
    c, _ = fit_power_tail(grid[sel], reg[sel], (-0.5, 0.0, 0.5))
    tip = float(np.real(2.0 * c[0] * math.sqrt(x_min) + c[1] * x_min
                        + 2.0 / 3.0 * c[2] * x_min ** 1.5))

    # Tail: the leading X^{−3/2} coefficient is known in closed form (it comes
    # from the xi^{1/2} term of the integrand at xi = 0, with coefficient
    # F − ΣF_j); only the remainder ladder is fitted.
    g2 = split.F - g_minus(0.0, split)
    c_far = math.sqrt(math.pi) * float(np.real(
        pref * g2 * np.exp(-0.75j * np.pi)))
    sel = grid >= x_max / 30.0
    c, _ = fit_power_tail(grid[sel], reg[sel] - c_far * grid[sel] ** -1.5, (-2.5, -3.5))
    tail = float(np.real(2.0 * c_far / math.sqrt(x_max)
                         + 2.0 / 3.0 * c[0] * x_max ** -1.5
                         + 0.4 * c[1] * x_max ** -2.5))
    return analytic + middle + tip + tail
