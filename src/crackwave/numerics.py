"""Shared numerical machinery.

Oscillatory half-line panel quadrature with its algebraic tail ladder fit,
circle-contour Taylor coefficients and bracketed root finding.  Every routine
is deterministic (no randomized algorithms) and every quadrature returns
``(value, error_estimate)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BracketError, QuadratureError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "fit_power_tail",
    "oscillatory_halfline",
    "contour_coefficients",
    "bracketed_root",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and truncation controls for the half-line quadrature.

    ``abs_tol`` bounds negligible tails and the averaging limit;
    ``truncation_radius`` is where direct panel integration stops and the
    analytic tail model takes over.
    """

    abs_tol: float = 1e-11
    truncation_radius: float = 2.0e3

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.truncation_radius <= 0:
            raise ValueError("truncation_radius must be positive")


DEFAULT_SPEC = QuadratureSpec()

TAIL_FIT_POINTS = 32   # log-spaced samples of a tail-ladder fit
_CONTOUR_NODES = 256   # trapezoid nodes on each coefficient circle

_gauss = lru_cache(maxsize=None)(leggauss)


def panel_nodes(edges, order: int):
    """Gauss-Legendre nodes ``t`` and weights ``w`` of ``order`` points on
    each panel between consecutive ``edges``; both of shape (panels, order)."""
    edges = np.asarray(edges, dtype=float)
    x, w = _gauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


def panel_sums(f, edges, order=12):
    """Per-panel Gauss-Legendre integrals of a vectorized ``f`` over consecutive
    ``edges``.  Returns a complex array with one entry per panel."""
    t, w = panel_nodes(edges, order)
    vals = np.asarray(f(t.ravel()), dtype=complex).reshape(t.shape)
    return (vals * w).sum(axis=1)


def _upper_gamma(s: float, z: complex) -> complex:
    """Upper incomplete gamma Γ(s, z) for complex z (mpmath-backed)."""
    return complex(mpmath.gammainc(s, a=z))


def power_tail(coeffs, exponents, freq, t0) -> complex:
    """Closed form of ∫_{t0}^∞ Σ c_k t^{λ_k} e^{−i·freq·t} dt.

    Uses ∫_T^∞ t^λ e^{−iat} dt = (ia)^{−λ−1} Γ(λ+1, iaT) for freq ≠ 0 and the
    elementary power integral otherwise (which then needs λ < −1).
    """
    total = 0.0 + 0.0j
    if freq == 0.0:
        for c, lam in zip(coeffs, exponents):
            if lam >= -1.0:
                raise QuadratureError(
                    f"non-integrable tail power t^{lam} with zero frequency"
                )
            total += c * t0 ** (lam + 1.0) / (-lam - 1.0)
        return total
    ia = 1j * freq
    for c, lam in zip(coeffs, exponents):
        total += c * ia ** (-lam - 1.0) * _upper_gamma(lam + 1.0, ia * t0)
    return total


def fit_power_tail(t, values, exponents):
    """Least-squares coefficients c_k of values ≈ Σ c_k t^{λ_k} at the
    sample points ``t``.  Returns ``(coeffs, max_residual)``."""
    basis = t[:, None] ** np.asarray(exponents, dtype=float)[None, :]
    # Column scaling keeps the normal equations well conditioned.
    scale = np.abs(basis).max(axis=0)
    coeffs, *_ = np.linalg.lstsq(basis / scale, values, rcond=None)
    coeffs = coeffs / scale
    resid = np.abs(basis @ coeffs - values).max()
    return coeffs, resid


def _average_tail(partial_sums, abs_tol):
    """Limit of oscillatory partial sums by iterated averaging.

    Works for alternating-type sequences whose envelope varies algebraically,
    which is what half-period panel sums of t^λ e^{−iat} produce (Abel sense
    for growing envelopes).
    """
    s = np.asarray(partial_sums, dtype=complex)
    if s.size == 1:
        return s[0], abs(s[0])
    s = s[-min(s.size, 160):]
    est = s[-1]
    delta = abs(s[-1] - s[-2])
    for _ in range(s.size - 1):
        s = 0.5 * (s[:-1] + s[1:])
        new = s[-1]
        delta = abs(new - est)
        est = new
        if s.size >= 2 and delta < 0.25 * abs_tol:
            break
    return est, delta


def _head_integral(f, freq, b, sqrt_singularity, order=20):
    """∫₀^b f(t)e^{−i·freq·t}dt with an optional t^{−1/2} singularity at 0.

    Panels are geometrically graded toward 0, which also absorbs milder
    endpoint structure (|t| kinks, t·log t terms) left over after the
    substitution t = v² removes the declared square-root singularity.
    """
    if b <= 0.0:
        return 0.0 + 0.0j, 0.0

    graded = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 16)])
    if sqrt_singularity:
        def g(v):
            t = v * v
            return np.asarray(f(t), dtype=complex) * np.exp(-1j * freq * t) * 2.0 * v

        edges = np.sqrt(b) * graded
    else:
        def g(t):
            return np.asarray(f(t), dtype=complex) * np.exp(-1j * freq * t)

        edges = b * graded

    val = panel_sums(g, edges, order=order).sum()
    ref = panel_sums(g, edges, order=order - 6).sum()
    return val, abs(val - ref)


def _build_edges(lo, hi, freq, breakpoints):
    """Panel edges on [lo, hi] resolving both geometric structure (eight
    panels per decade) and the oscillation of e^{−i·freq·t} (≤ half a period
    per panel)."""
    pts = {lo, hi}
    if hi / max(lo, 1e-300) > 1.0:
        n_geo = max(2, int(math.ceil(8 * math.log10(hi / lo))))
        pts.update(np.geomspace(lo, hi, n_geo))
    if freq != 0.0:
        h = math.pi / abs(freq)
        n0 = int(math.floor(lo / h)) + 1
        n1 = int(math.ceil(hi / h))
        if n1 - n0 < 4 * len(pts) + 100000:
            marks = h * np.arange(n0, n1 + 1)
            pts.update(marks[(marks > lo) & (marks < hi)])
    for p in breakpoints:
        if lo < p < hi:
            pts.add(float(p))
    return np.array(sorted(pts))


def oscillatory_halfline(
    f,
    freq: float,
    spec: QuadratureSpec | None = None,
    *,
    sqrt_singularity: bool = False,
    breakpoints=(),
    tail_exponents=None,
    tail_coefficients=None,
    fit_start: float | None = None,
):
    """Compute ∫₀^∞ f(t)·exp(−i·freq·t) dt for a vectorized integrand.

    ``f`` must accept numpy arrays.  Strategy:

    * a small head panel on [0, 1e-4] handles an optional t^{−1/2} endpoint
      singularity (substitution t = v²);
    * panels that resolve both the integrand's geometric structure and the
      oscillation cover the midrange;
    * the tail is either the closed-form transform of a fitted algebraic
      ladder Σ c_k t^{λ_k} (``tail_exponents`` given, slow oscillation) or the
      iterated-averaging limit of half-period partial sums (fast oscillation
      or no ladder supplied).  The ladder is fitted by least squares on
      ``TAIL_FIT_POINTS`` log-spaced points of [``fit_start``, truncation
      radius] unless ``tail_coefficients`` are given.

    Returns ``(value, error_estimate)``.
    """
    spec = spec or DEFAULT_SPEC
    a = float(freq)
    T = spec.truncation_radius
    n_half = abs(a) * T / math.pi if a != 0.0 else 0.0
    # Slow oscillation: fitted algebraic tail.  Enough half-periods: partial-
    # sum averaging, which resolves the tail without any model.
    use_ladder = tail_exponents is not None and n_half <= 150.0

    if a == 0.0 and tail_exponents is None:
        # Fit a decaying power automatically; refuse if not integrable.
        slope_pts = np.geomspace(0.25 * T, T, 8)
        vals = np.abs(np.asarray(f(slope_pts), dtype=complex))
        if np.all(vals <= spec.abs_tol):
            tail_exponents, tail_coefficients = (), ()
            use_ladder = True
        elif np.all(vals > 0):
            slope = np.polyfit(np.log(slope_pts), np.log(vals), 1)[0]
            if slope < -1.05:
                tail_exponents = (slope,)
                use_ladder = True
        if tail_exponents is None:
            raise QuadratureError(
                "zero-frequency half-line integral needs decaying tail_exponents"
            )

    head_end = min(1e-4, T)
    if a != 0.0 and not use_ladder:
        head_end = max(head_end, math.pi / abs(a))
    head_end = min(head_end, T)

    val_head, err_head = _head_integral(f, a, head_end, sqrt_singularity)

    def fw(t):
        return np.asarray(f(t), dtype=complex) * np.exp(-1j * a * t)

    if use_ladder:
        edges = _build_edges(head_end, T, a, breakpoints)
        body = panel_sums(fw, edges, order=12)
        body_ref = panel_sums(fw, edges, order=8)
        val_body = body.sum()
        err_body = abs(val_body - body_ref.sum())

        if tail_coefficients is not None:
            coeffs, resid = np.asarray(tail_coefficients, dtype=complex), 0.0
        else:
            lo_default = max(head_end * 4.0, T / 25.0)
            fit_lo = min(max(fit_start or lo_default, head_end * 2.0), T / 2.0)
            ts = np.geomspace(fit_lo, T, TAIL_FIT_POINTS)
            coeffs, resid = fit_power_tail(ts, np.asarray(f(ts), dtype=complex),
                                           tail_exponents)
        val_tail = power_tail(coeffs, tail_exponents, a, T)
        err_tail = resid * min(T, 2.0 / abs(a) if a != 0.0 else T)
        return val_head + val_body + val_tail, err_head + err_body + err_tail

    # Fast-oscillation branch: half-period partial sums + averaging.
    h = math.pi / abs(a)
    max_halves = 600
    halves = np.arange(max_halves + 1, dtype=float) * h + head_end
    geo = _build_edges(head_end, halves[-1], 0.0, breakpoints)
    edges = np.unique(np.concatenate([halves, geo]))
    sums = panel_sums(fw, edges, order=12)
    sums_ref = panel_sums(fw, edges, order=8)
    idx = np.searchsorted(edges, halves[1:])
    partial = np.add.accumulate(sums)[idx - 1]
    val_tailed, err_avg = _average_tail(partial, spec.abs_tol)
    err_gl = abs(sums.sum() - sums_ref.sum())
    return val_head + val_tailed, err_head + err_avg + err_gl


def contour_coefficients(
    g,
    center: complex,
    radius: float,
    count: int,
    *,
    check_count: int | None = None,
):
    """First ``count`` Taylor coefficients of a vectorized ``g`` about
    ``center`` via a trapezoid rule on a circle (spectrally accurate for
    analytic ``g``).

    The coefficients are recomputed at half the radius; disagreement beyond
    1e-10 (relative to max(1, |c|)) on the first ``check_count`` of them
    signals a singularity inside the disc and raises QuadratureError.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    check_count = count if check_count is None else min(check_count, count)

    def coeffs_at(r):
        phi = 2.0 * np.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES
        z = center + r * np.exp(1j * phi)
        vals = np.asarray(g(z), dtype=complex)
        j = np.arange(count)
        modes = np.exp(-1j * np.outer(j, phi))
        return (modes @ vals) / _CONTOUR_NODES / r ** j

    c_full = coeffs_at(radius)
    c_half = coeffs_at(0.5 * radius)
    scale = max(1.0, float(np.abs(c_full[:check_count]).max(initial=0.0)))
    drift = float(np.abs(c_full[:check_count] - c_half[:check_count]).max(initial=0.0))
    if drift > 1e-10 * scale:
        raise QuadratureError(
            f"contour coefficients not radius-invariant (drift {drift:.3e}); "
            f"is g analytic on the disc of radius {radius}?"
        )
    return c_full


def bracketed_root(f, lo: float, hi: float, tol: float = 1e-12):
    """Root of ``f`` on a sign-change bracket [lo, hi], to bracket width
    ``tol`` or after 300 steps.

    Bisection with a secant proposal each step: guaranteed convergence, and
    exact in one secant step for affine ``f``.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if not (np.isfinite(flo) and np.isfinite(fhi)) or flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo!r}, {fhi!r}")

    stalled = 0
    for _ in range(300):
        if hi - lo <= tol:
            break
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not (lo < x < hi) or not np.isfinite(x) or stalled >= 2:
            x = 0.5 * (lo + hi)
            stalled = 0
        fx = f(x)
        if fx == 0.0:
            return x
        width = hi - lo
        if fx * flo < 0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        stalled = stalled + 1 if (hi - lo) > 0.5 * width else 0
    return 0.5 * (lo + hi)
