"""Independent references for the half-line transform of
``crackwave.numerics.oscillatory_halfline`` and the folded crack-line fields.

``averaged_halfline`` integrates ∫₀^∞ f(t)·e^{−iat}dt for a scalar a ≠ 0
without a tail model: a graded Gauss head on [0, π/|a|], plain Gauss panel
sums over 600 half periods past it, and the iterated-averaging limit of
their partial sums, which resolves an algebraically varying tail in the
Abel sense.  It builds its own head and panels from ``panel_nodes`` and
shares no ladder fit, Filon moment or rule with the engine.
Its head is one 16-panel graded rule over [0, π/|a|], so at small |a| it
loses accuracy: t23 at X = 1e-3·ℓ (L/ℓ = 1) comes out 1.2e-7 from the
laddered value, which agrees with 4× and 10× the truncation radius to
1e-8, while the route reports 6.5e-8.  It is a reference only for
|a| ≳ 0.05/ℓ.

``field_unfolded`` integrates both half-lines of a field explicitly, with no
conjugate-symmetry folding; the imaginary part of the result measures the
consistency of the branch conventions.
"""
import math

import numpy as np

from crackwave import fields
from crackwave.fields import FieldKind
from crackwave.numerics import oscillatory_halfline, panel_nodes

ABS_TOL = 1e-11     # stop of the averaging limit
MAX_HALVES = 600    # half periods summed past the head


def gauss_panel_sums(f, edges, order):
    """Gauss-Legendre integral of a vectorized ``f`` over each panel between
    consecutive ``edges``."""
    t, w = panel_nodes(edges, order)
    return (np.asarray(f(t.ravel()), dtype=complex).reshape(t.shape) * w).sum(axis=-1)


def average_tail(partial_sums):
    """Limit of oscillatory partial sums by iterated averaging:
    ``(limit, change of the last averaging step)``.

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
        if s.size >= 2 and delta < 0.25 * ABS_TOL:
            break
    return est, delta


def graded_head(b, order, sqrt_singularity):
    """Gauss nodes and weights on [0, b] over 16 panels graded geometrically
    toward 0, in v = √t when f has a t^{−1/2} endpoint singularity."""
    graded = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 16)])
    if sqrt_singularity:
        v, w = panel_nodes(math.sqrt(b) * graded, order)
        return v * v, 2.0 * v * w
    return panel_nodes(b * graded, order)


def averaged_halfline(f, a, truncation_radius=2.0e3, *, sqrt_singularity=False,
                      breakpoints=()):
    """∫₀^∞ f(t)·e^{−iat}dt for a scalar a ≠ 0 by the ladder-free averaging
    route: ``(value, error_estimate)``.  The head ends at π/|a| (at least
    1e-4, at most ``truncation_radius``); the panels past it end at every
    half period, at eight geometric points per decade and at the
    ``breakpoints``."""
    head_end = min(max(1e-4, math.pi / abs(a)), truncation_radius)
    t, w = graded_head(head_end, 20, sqrt_singularity)
    t_ref, w_ref = graded_head(head_end, 14, sqrt_singularity)

    def fw(t):
        return np.asarray(f(t), dtype=complex) * np.exp(-1j * a * t)

    val_head = (fw(t) * w).sum()
    err_head = abs(val_head - (fw(t_ref) * w_ref).sum())

    halves = np.arange(MAX_HALVES + 1, dtype=float) * (math.pi / abs(a)) + head_end
    end = halves[-1]
    geo = np.geomspace(head_end, end, max(2, math.ceil(8 * math.log10(end / head_end))))
    inside = [p for p in breakpoints if head_end < p < end]
    edges = np.unique(np.concatenate([halves, geo, inside]))
    sums = gauss_panel_sums(fw, edges, 12)
    sums_ref = gauss_panel_sums(fw, edges, 8)
    idx = np.searchsorted(edges, halves[1:])
    partial = np.add.accumulate(sums)[idx - 1]
    val_tailed, err_avg = average_tail(partial)
    err_gl = abs(sums.sum() - sums_ref.sum())
    return val_head + val_tailed, err_head + err_avg + err_gl


def field_unfolded(split, kind: FieldKind, X: float) -> complex:
    """The field ``kind`` at X with both half-lines integrated by the
    laddered engine, each with its own ladder fit on the window of
    ``fields._field_values``: the complex value before taking the real part."""
    fields._check_domain(kind, X)
    radius = fields._truncation_radius(split)
    ladder = fields._LADDERS[kind]
    fit_start = max(40.0, 30.0 * split.kernel.params.zeta, radius / 50.0)

    def halfline(f, freq):
        transform, _ = oscillatory_halfline(f, radius, [ladder], fit_start)
        return transform(freq)[0][0]

    def f(t):
        return fields._integrands(split, (kind,), t)

    total = halfline(f, X) + halfline(lambda t: f(-t), -X)
    if kind is FieldKind.TRACTION:
        # Rational piece and its mirror on the negative half-line.
        rational = fields._rational_transform(split, X)
        total = total + rational + np.conj(rational)
    return fields._prefactor(split, kind) * total
