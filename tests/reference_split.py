"""The other half of the additive split, G⁺, as the reference that the
split tests compare G⁻ against; and the Liouville cross-check with each
half-line from its own symbol call.

``crackwave.loading`` writes k⁺(s)/(s₊^{1/2}(1+isL)^{1+p}) = G⁻(s) + G⁺(s)
and keeps only G⁻'s coefficients; nothing in the package reads G⁺.  Here
G⁺ is the direct difference away from the transform pole s = i/L and a
Cauchy integral over the coefficient circle near it.
"""
import numpy as np

from crackwave.loading import _CONTOUR_RADIUS, _g_minus_u, _pole_factor
from crackwave.numerics import oscillatory_halfline

_NEAR_POLE = 0.35      # g_plus takes the contour integral inside this |u|
# Trapezoid nodes of g_plus's Cauchy integral on |u| = 0.4.  Its error at u
# falls like (|u|/0.4)^N, which is 0.875^N at |u| = 0.35: 1.4e-15 for
# N = 256, but 2e-4 for the 64 nodes of the coefficient contour.
_NEAR_POLE_NODES = 256


def _k_plus_closed(kernel):
    """k⁺ on the closed upper half-plane, where G⁺ is evaluated: the
    boundary value ``k_plus_line`` on the real axis, ``k_plus`` above it."""
    def k_plus(z):
        z = np.asarray(z, dtype=complex)
        out = np.empty_like(z)
        axis = z.imag == 0.0
        out[axis] = kernel.k_plus_line(z[axis].real)
        out[~axis] = kernel.k_plus(z[~axis])
        return out
    return k_plus


def g_plus(s, split):
    """G⁺(s) = k⁺(s)/(s₊^{1/2}(1+isL)^{1+p}) − G⁻(s), regular at s = i/L.

    Away from that point it is the direct difference.  Inside |1+isL| < 0.35
    it is the Cauchy integral of G⁺ over the coefficient circle |u| = 0.4,
    G⁺(u) = mean_k G⁺(u_k)·u_k/(u_k − u), by the trapezoid rule on
    ``_NEAR_POLE_NODES`` nodes, where the difference has no cancellation."""
    g = _pole_factor(_k_plus_closed(split.kernel), split.profile.L)
    p = split.profile.p

    def direct(u):
        return g(u) / u ** (1 + p) - _g_minus_u(u, split.coeffs, p)

    u = 1.0 + 1j * np.atleast_1d(np.asarray(s, dtype=complex)) * split.profile.L
    near = np.abs(u) < _NEAR_POLE
    out = np.empty_like(u)
    out[~near] = direct(u[~near])
    if near.any():
        nodes = _CONTOUR_RADIUS * np.exp(2j * np.pi * np.arange(_NEAR_POLE_NODES)
                                         / _NEAR_POLE_NODES)
        out[near] = np.mean(direct(nodes) * nodes / (nodes - u[near, None]), axis=1)
    return complex(out[0]) if np.ndim(s) == 0 else out


def appendix_ratio_two_calls(kernel, coeffs, profile):
    """F_alt as ``loading._appendix_ratio`` forms it, on the same rules, but
    with G⁻ and the symbol evaluated at t and at −t in separate calls."""
    L = profile.L
    zeta = kernel.params.zeta

    def gm(x):
        return _g_minus_u(1.0 + 1j * x * L, coeffs, profile.p)

    def h(x):
        return 1.0 / kernel.symbol_minus_line(x)

    def folded(t):
        h_pos, h_neg = h(t), h(-t)
        return np.stack([gm(t) * h_pos + gm(-t) * h_neg, h_pos + h_neg])

    radius = max(2.0e3, 50.0 * zeta, 2.0e3 / L)
    fit_start = min(max(30.0 * zeta, radius / 50.0), radius / 2.0)
    ladders = ((-3.5, -4.5, -5.5), (-2.5, -3.5, -4.5))
    transform, _ = oscillatory_halfline(folded, radius, ladders, fit_start)
    (i1, i2), _ = transform(0.0)
    return complex(i1 / i2)
