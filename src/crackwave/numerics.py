"""Shared numerical machinery: the half-line transform with its algebraic
tail ladder, circle-contour Taylor coefficients and bracketed root finding.

The half-line transform ∫₀^∞ f(t)·e^{−iat}dt has one convention: f returns
stacked columns, and the caller gives each column the algebraic ladder
Σ c_k t^{λ_k} of its large-t behaviour and the fit of that ladder
(``fit_power_tail`` on a window of the caller's choice).  It runs in two
stages.  ``oscillatory_halfline`` evaluates f once, on nodes that do not
depend on ``a`` (one vectorized call for the head and one per body rule,
whatever the number of columns), and returns the transform, a callable of
``a``.  Each call of the transform contracts those values with the phases
and moments of its frequencies, one (array of) ``a`` at a time, in row
blocks of frequencies (``row_blocks``), and adds the tails.

* Head [0, 1e-6]: Gauss panels (orders 20 and 14) in v = √t, graded
  geometrically toward 0, so a t^{−1/2} endpoint singularity is integrated
  exactly; the phase is applied at the nodes, so the head must span at most
  two periods (|a| ≤ 4π·1e6), or ``QuadratureError`` is raised.
* Body [1e-6, T]: Legendre–Filon panels, eight per decade.  ``panel_sums``
  turns each panel's order-12 Gauss values into the Legendre coefficients
  of the interpolant, whose transform is a sum of the closed-form moments
  ∫₋₁¹ P_k(x)e^{−iωx}dx = 2(−i)^k·j_k(ω) (Iserles & Nørsett 2005,
  Proc. R. Soc. A 461).  The table of j_0 … j_11 at ω·h (h the panel
  half-width) for every frequency and panel is built once per transform
  call, in numpy (``_bessel_table``): upward recurrence from sin/cos for
  |ω·h| ≥ 12, Miller's downward recurrence normalized by j_0 or j_1 below
  that (Gautschi 1967, SIAM Rev. 9, 24–82; DLMF §10.51) and, for
  |ω·h| < 1, the power series by Horner's rule in (ω·h)² from a constant
  coefficient table (DLMF §10.53.1).  At a frequency of 0 the head and the
  body are the plain Gauss-Legendre sums, as every phase is 1 and
  j_k(0) = δ_k0, and when every frequency is 0 no table is built.
* Tail [T, ∞): the fitted ladder in closed form through Γ(λ+1, iaT) for
  half-integer λ (``power_tail``), computed in numpy by recurrence in λ
  from the power series of γ(1/2, z) for |z| < 2 and from a continued
  fraction for |z| ≥ 2 (``_upper_gamma_half``), one batch for all columns;
  at a = 0 any λ < −1.

Each column's error estimate adds the order-14 head and order-8 body
differences and the tail bound max_residual·min(T, 2/|a|).  The columns
share the integrand calls, the rules, the moment table and the phases.  A
frequency's value does not depend on the other frequencies of a call, nor
on which call of the transform it comes in.

Every routine is deterministic (no randomized algorithms) and every
quadrature returns ``(value, error_estimate)``.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import BracketError, QuadratureError

__all__ = [
    "fit_power_tail",
    "oscillatory_halfline",
    "contour_coefficients",
    "bracketed_root",
    "scaled_upper_gamma",
]


TAIL_FIT_POINTS = 32   # log-spaced samples of a tail-ladder fit
# Trapezoid nodes on each coefficient circle.  For g analytic on |z| < R the
# rule at radius r aliases coefficient j with j + N, …, an error of order
# (r/R)^N; at the split's r = 0.4, R = 1 that is 0.4^64 ≈ 3e-26.
CONTOUR_NODES = 64
_HEAD_END = 1e-6       # end of the fixed Gauss head of a half-line call
_FILON_ORDER = 12      # Gauss points and Legendre degree + 1 of a body panel
_MILLER_START = 40     # start order of the downward Bessel recurrence
_GAMMA_SERIES_TERMS = 30  # terms of the γ(1/2, z) series, |z| < 2
_BESSEL_SERIES_TERMS = 10  # terms of the j_k power series, |x| < 1

_gauss = lru_cache(maxsize=None)(leggauss)


def panel_nodes(edges, order: int):
    """Gauss-Legendre nodes ``t`` and weights ``w`` of ``order`` points on
    each panel between consecutive ``edges``; both of shape (panels, order)."""
    edges = np.asarray(edges, dtype=float)
    x, w = _gauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


# Bytes of one row block of a float64 2-D temporary: below glibc's default
# mmap threshold of 128 KiB, above which each allocation maps and zero-fills
# fresh pages, and small enough for a block's temporaries to stay in L2.
_BLOCK_BYTES = 100 * 1024


def row_blocks(rows: int, cols: int) -> list:
    """Slices that cover ``range(rows)`` in blocks of rows of ``cols``
    float64 values: the largest power of two of them that fits in
    ``_BLOCK_BYTES`` (at least one row).  An expression whose rows are
    computed independently in numpy gives the same bits block by block as
    in one matrix."""
    step = 1 << max(0, (_BLOCK_BYTES // (8 * cols)).bit_length() - 1)
    return [slice(start, start + step) for start in range(0, rows, step)]


def panel_sums(f, edges, order, basis):
    """Per-panel Gauss-Legendre integrals of f·basis_k for a vectorized
    ``f`` over consecutive ``edges``, where ``basis`` holds functions of the
    panel coordinate x ∈ [−1, 1] at the ``order`` Gauss nodes (shape
    (k, order)); shape (panels, k).  An ``f`` returning stacked columns
    (shape (c, n) for n nodes) gets a leading axis of c."""
    t, w = panel_nodes(edges, order)
    vals = np.asarray(f(t.ravel()), dtype=complex)
    vals = vals.reshape(vals.shape[:-1] + t.shape) * w
    # One 2-D product over every column's panels: its rows do not depend on
    # how many columns are stacked.
    return (vals.reshape(-1, order) @ basis.T).reshape(vals.shape[:-1] + basis.shape[:1])


def scaled_upper_gamma(s, z):
    """z^{−s}·e^z·Γ(s, z) for real ``s`` and ``z`` (real or complex) away
    from the origin and the negative real axis, broadcast together, by the
    even continued fraction Γ(s, z) = z^s e^{−z} / (z+1−s − 1(1−s)/(z+3−s
    − 2(2−s)/(z+5−s − …))) evaluated by modified Lentz (Gil, Segura & Temme
    2007, Numerical Methods for Special Functions, §6.5).  It converges the
    faster the larger |z| is; for s = 1 − q it is e^z·E_q(z).  Each element
    stops at its own convergence and does the arithmetic of its lone run, so
    an (orders × z) batch gives every value bit for bit as that run does.
    """
    tiny = 1e-300
    b = z + 1.0 - s
    c = np.full_like(b, 1.0 / tiny)
    d = 1.0 / b
    h = d
    active = np.ones(b.shape, dtype=bool)
    for n in range(1, 500):
        an = -n * (n - s)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = d * c
        h = np.where(active, h * step, h)
        active &= np.abs(step - 1.0) >= 4e-16
        if not active.any():
            return h
    raise QuadratureError("incomplete-gamma continued fraction did not converge")


def _upper_gamma_half(orders, z):
    """Upper incomplete gamma Γ(s, z) for stacked columns of half-integer
    orders and complex z ≠ 0 (1-D): one array of shape (len(orders[j]),
    len(z)) per column j.

    For |z| < 2 it starts from Γ(1/2, z) = √π − γ(1/2, z), with the power
    series γ(1/2, z) = √z·e^{−z}·Σ_k z^k/((1/2)(3/2)⋯(k+1/2)), shared by
    the columns, and recurs down with Γ(s−1, z) = (Γ(s, z) −
    z^{s−1}e^{−z})/(s−1) and up with Γ(s+1, z) = s·Γ(s, z) + z^s·e^{−z}.
    For |z| ≥ 2 it evaluates the continued fraction (``scaled_upper_gamma``)
    at every column's lowest s in one batch and recurs up.  The switch sits
    where the two recurrences lose about equally: the downward one amplifies
    the error of Γ(1/2, z) more the larger |z| is, the upward one that of the
    lowest Γ(s, z) more the smaller |z| is.
    """
    orders = [np.asarray(s_values, dtype=float) for s_values in orders]
    for s_values in orders:
        if np.any(np.mod(s_values - 0.5, 1.0) != 0.0):
            raise QuadratureError(f"tail exponents must be half-integers, got {s_values}")
    z = np.asarray(z, dtype=complex)
    lows = [min(float(s_values.min()), 0.5) for s_values in orders]
    ez = np.exp(-z)

    near = np.abs(z) < 2.0
    far = ~near
    zn, en, zf, ef = z[near], ez[near], z[far], ez[far]
    if zn.size:
        term = np.full_like(zn, 2.0)
        series = term.copy()
        for k in range(1, _GAMMA_SERIES_TERMS):
            term = term * zn / (k + 0.5)
            series += term
        g_half = math.sqrt(math.pi) - np.sqrt(zn) * en * series
    if zf.size:
        lowest = scaled_upper_gamma(np.array(lows)[:, None], zf)

    out = []
    for j, (s_values, lo) in enumerate(zip(orders, lows)):
        ladder = np.arange(lo, max(float(s_values.max()), 0.5) + 0.5)
        g = np.empty((ladder.size, z.size), dtype=complex)
        if zn.size:
            gn = np.empty((ladder.size, zn.size), dtype=complex)
            i0 = int(round(0.5 - lo))
            gn[i0] = g_half
            for i in range(i0, 0, -1):
                s = ladder[i] - 1.0
                gn[i - 1] = (gn[i] - zn**s * en) / s
            for i in range(i0, ladder.size - 1):
                s = ladder[i]
                gn[i + 1] = s * gn[i] + zn**s * en
            g[:, near] = gn
        if zf.size:
            gf = np.empty((ladder.size, zf.size), dtype=complex)
            gf[0] = zf**lo * ef * lowest[j]
            for i in range(ladder.size - 1):
                s = ladder[i]
                gf[i + 1] = s * gf[i] + zf**s * ef
            g[:, far] = gf
        out.append(g[np.round(s_values - lo).astype(int)])
    return out


def power_tail(coeffs, ladders, freq, t0):
    """Closed form of ∫_{t0}^∞ Σ_k c_k t^{λ_k} e^{−i·freq·t} dt for stacked
    columns, elementwise over a 1-D array ``freq``: column j has the
    coefficients ``coeffs[j]`` of the exponents ``ladders[j]`` (possibly
    none); shape (columns, freq.size).

    Uses ∫_T^∞ t^λ e^{−iat} dt = (ia)^{−λ−1} Γ(λ+1, iaT), which needs
    half-integer λ, for freq ≠ 0 (one continued-fraction batch for all
    columns) and the elementary power integral at freq = 0 (which then
    needs λ < −1).
    """
    af = np.asarray(freq, dtype=float)
    out = np.zeros((len(ladders),) + af.shape, dtype=complex)
    columns = [(j, np.asarray(c, dtype=complex), np.asarray(lam, dtype=float))
               for j, (c, lam) in enumerate(zip(coeffs, ladders)) if len(lam)]
    zero = af == 0.0
    if zero.any():
        for j, c, lam in columns:
            if np.any(lam >= -1.0):
                raise QuadratureError(
                    f"non-integrable tail power t^{lam.max()} with zero frequency"
                )
            out[j, zero] = np.sum(c * t0 ** (lam + 1.0) / (-lam - 1.0))
    if not zero.all() and columns:
        ia = 1j * af[~zero]
        gammas = _upper_gamma_half([lam + 1.0 for _, _, lam in columns], ia * t0)
        for (j, c, lam), gam in zip(columns, gammas):
            # Term by term, so a frequency's sum does not depend on the batch.
            total = np.zeros(ia.shape, dtype=complex)
            for ck, lk, gk in zip(c, lam, gam):
                total = total + ck * ia ** (-lk - 1.0) * gk
            out[j, ~zero] = total
    return out


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


def _head_nodes(b, order):
    """Nodes ``t`` and weights ``w`` of the head rule on [0, b], both of
    shape (panels, order).

    The panels live in v = √t, so a t^{−1/2} endpoint singularity is
    integrated exactly (the weights carry dt = 2v·dv), and are graded
    geometrically toward 0, which also absorbs milder endpoint structure
    (|t| kinks, t·log t terms).
    """
    graded = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 16)])
    v, w = panel_nodes(math.sqrt(b) * graded, order)
    return v * v, 2.0 * v * w


@lru_cache(maxsize=None)
def _filon_basis(order: int) -> np.ndarray:
    """B[k, j] = (2k+1)·(−i)^k·P_k(x_j) at the Gauss nodes x_j of ``order``
    points.  On a panel of half-width h, the ``panel_sums`` of f·B_k are
    2h·(−i)^k·c_k for the Legendre coefficients c_k of the interpolant p of
    f, so ∫ p(t)e^{−iωt}dt over the panel is e^{−iω·mid}·Σ_k j_k(ωh)·sums_k
    by ∫₋₁¹ P_k(x)e^{−iωx}dx = 2(−i)^k·j_k(ω)."""
    x, _ = _gauss(order)
    k = np.arange(order)
    phase = np.array([1.0, -1j, -1.0, 1j])[k % 4]
    return ((2 * k + 1) * phase)[:, None] * legvander(x, order - 1).T


# c[m, k] = (−1/2)^m/(m!·(2k+2m+1)!!), so that j_k(x) = x^k·Σ_m c[m, k]·x^{2m}
# (DLMF §10.53.1); each entry is its exact rational rounded once.
_SERIES_COEFFS = np.array([
    [(-1) ** m / (2 ** m * math.factorial(m) * math.prod(range(1, 2 * k + 2 * m + 2, 2)))
     for k in range(_FILON_ORDER)]
    for m in range(_BESSEL_SERIES_TERMS)])


def _bessel_table(x):
    """Spherical Bessel functions j_0(x) … j_11(x) of the Filon moments,
    shape x.shape + (12,).

    For |x| ≥ 12, where upward recurrence is stable for every order k < |x|,
    it recurs up from j_0 = sin x/x and j_1 = (j_0 − cos x)/x with
    j_{k+1} = (2k+1)/x·j_k − j_{k−1}.  For 1 ≤ |x| < 12 it runs the same
    recurrence down from order ``_MILLER_START`` (Miller's algorithm) and
    normalizes by whichever of j_0, j_1 is larger in magnitude.  For |x| < 1
    it sums the power series x^k·Σ_m c[m, k]·x^{2m} from the constant table
    ``_SERIES_COEFFS``: Horner's rule in x² on an (order, x) array, updated in
    place, times x^k from a running product.  It gives δ_k0 exactly at x = 0.
    Negative x use j_k(−x) = (−1)^k·j_k(x).  Every branch works on
    contiguous (order, x) rows, and Miller's keeps only the two latest orders
    above j_11, so no temporary grows with ``_MILLER_START``.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).ravel()
    count = _FILON_ORDER
    out = np.empty((ax.size, count))

    up = ax >= 12.0
    miller = (ax >= 1.0) & ~up
    for sel, upward in ((up, True), (miller, False)):
        if not sel.any():
            continue
        z = ax[sel]
        j0 = np.sin(z) / z
        j1 = (j0 - np.cos(z)) / z
        acc = np.empty((count, z.size))   # order-major: one row per order
        if upward:
            acc[0], acc[1] = j0, j1
            for n in range(1, count - 1):
                acc[n + 1] = (2 * n + 1) / z * acc[n] - acc[n - 1]
        else:
            # Only the two latest orders are kept above the stored ones.
            above, f = np.zeros_like(z), np.ones_like(z)   # orders 41, 40
            for n in range(_MILLER_START, 0, -1):
                above, f = f, (2 * n + 1) / z * f - above
                if n <= count:
                    acc[n - 1] = f
            by_j0 = np.abs(j0) >= np.abs(j1)
            acc *= np.where(by_j0, j0, j1) / np.where(by_j0, acc[0], acc[1])
        out[sel] = acc.T

    series = ax < 1.0
    if series.any():
        z = ax[series]
        z2 = z * z
        acc = np.empty((count, z.size))   # order-major: one row per order
        acc[:] = _SERIES_COEFFS[-1][:, None]
        for row in _SERIES_COEFFS[-2::-1]:
            acc *= z2
            acc += row[:, None]
        zk = np.ones_like(z)
        for n in range(1, count):
            zk *= z
            acc[n] *= zk
        out[series] = acc.T

    out[x.ravel() < 0.0, 1::2] *= -1.0
    return out.reshape(x.shape + (count,))


def _filon_body(sums, phase, table):
    """Legendre–Filon sums Σ_p ∫_{panel p} p_p(t)e^{−i·freq·t}dt, shape
    (columns, freq), from the ``_filon_basis`` panel sums as real and
    imaginary rows (2·columns × panels × order).  ``phase`` is
    e^{−i·freq·mid} (freq × panels) and ``table`` holds j_k(freq·half)
    (freq × panels × ≥ order).  Each (row, frequency, panel) is contracted
    over the order alone and each (column, frequency) over the panels alone,
    so a frequency's value does not depend on the other frequencies or
    columns."""
    inner = np.einsum("fpk,cpk->cfp", table[..., :sums.shape[-1]], sums)
    half = len(sums) // 2
    return (phase * (inner[:half] + 1j * inner[half:])).sum(axis=-1)


def _head_sums(wv, t, freq):
    """Head rule Σ_n w_n·v_n·e^{−i·freq·t_n}, shape (columns, freq), from the
    weighted values as real and imaginary rows ``wv`` (2·columns × nodes) at
    the nodes ``t``, each (row, frequency) contracted over the nodes alone."""
    x = freq[:, None] * t
    cos_wv = np.einsum("fn,cn->cf", np.cos(x), wv)
    sin_wv = np.einsum("fn,cn->cf", np.sin(x), wv)
    half = len(wv) // 2
    return (cos_wv[:half] + sin_wv[half:]) + 1j * (cos_wv[half:] - sin_wv[:half])


def _build_edges(lo, hi):
    """Panel edges on [lo, hi]: eight geometric panels per decade."""
    return np.geomspace(lo, hi, max(2, math.ceil(8 * math.log10(hi / lo))))


def oscillatory_halfline(f, truncation_radius: float, ladders, fits):
    """The transform ∫₀^∞ f(t)·exp(−i·freq·t) dt of the stacked columns of a
    vectorized integrand, as a callable ``freq → (value, error_estimate)``,
    both of shape (c,) + freq.shape.

    ``f`` maps a 1-D array of n nodes to c integrands stacked, shape (c, n).
    Column k has the tail ladder ``ladders[k]`` (exponents λ, possibly none)
    and its fit ``fits[k]`` = ``(coeffs, max_residual)``, as from
    ``fit_power_tail``, on the caller's window below ``truncation_radius``
    (> 0), where the panels end and the ladder tail starts.

    This call makes every evaluation of f: the head values of both head
    rules and the order-12 and order-8 ``panel_sums``, on nodes that do not
    depend on the frequencies.  Each call of the transform then contracts
    them with that call's phases and moment table (built once per call, not
    at all when every frequency is 0) and adds the tails, one
    continued-fraction batch for all columns.  Every frequency's value does
    not depend on the other frequencies of the call, and a frequency of 0
    takes the plain Gauss sums, as every phase is 1 and j_k(0) = δ_k0 there.
    """
    if truncation_radius <= 0:
        raise ValueError("truncation_radius must be positive")
    T = truncation_radius
    head_end = min(_HEAD_END, T)
    nodes = [_head_nodes(head_end, order) for order in (20, 14)]
    values = np.asarray(f(np.concatenate([t.ravel() for t, _ in nodes])), dtype=complex)
    columns = len(values)
    if not columns == len(ladders) == len(fits):
        raise ValueError(f"{columns} columns need as many ladders and fits, "
                         f"got {len(ladders)} and {len(fits)}")
    edges = _build_edges(head_end, T)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    # Weighted values of the order-20 head rule and of its order-14 check,
    # and the body panel sums of the order-12 rule and of its order-8 check.
    weighted = [w.ravel() * v for (_, w), v in
                zip(nodes, np.split(values, [nodes[0][0].size], axis=-1))]
    sums = [panel_sums(f, edges, order, _filon_basis(order)) for order in (_FILON_ORDER, 8)]
    plain = np.array([wv.sum(axis=-1) for wv in weighted]
                     + [s[..., 0].sum(axis=-1) for s in sums])
    # The contractions run on real and imaginary rows.
    heads = [(t.ravel(), np.concatenate([wv.real, wv.imag]))
             for (t, _), wv in zip(nodes, weighted)]
    bodies = [np.concatenate([s.real, s.imag]) for s in sums]
    coeffs = [c for c, _ in fits]
    resid = np.array([r for _, r in fits], dtype=float)
    # float64 values per frequency of a block's largest temporaries: the head
    # phases at the order-20 nodes, and the body's (columns × panels) complex
    # sums over the order.
    width = max(nodes[0][0].size, 2 * columns * mid.size)

    def transform(freq):
        a = np.asarray(freq, dtype=float)
        af = a.ravel()
        # The order-20 head keeps ~1e-14 up to two periods on [0, head_end].
        if np.abs(af).max(initial=0.0) * head_end > 4.0 * math.pi:
            raise QuadratureError(
                f"frequency {np.abs(af).max():g} oscillates more than two periods "
                f"on the head [0, {head_end:g}]"
            )
        # Rows: the head, its check, the body and its check.
        parts = np.empty((4, columns, af.size), dtype=complex)
        zero = af == 0.0
        parts[:, :, zero] = plain[:, :, None]
        live = af[~zero]
        if live.size:
            table = _bessel_table(live[:, None] * half)
            out = np.empty((4, columns, live.size), dtype=complex)
            for rows in row_blocks(live.size, width):
                fr = live[rows]
                phase = np.exp(-1j * fr[:, None] * mid)
                out[:2, :, rows] = [_head_sums(wv, t, fr) for t, wv in heads]
                out[2:, :, rows] = [_filon_body(body, phase, table[rows])
                                    for body in bodies]
            parts[:, :, ~zero] = out
        val_tail = power_tail(coeffs, ladders, af, T)
        with np.errstate(divide="ignore"):
            err_tail = resid[:, None] * np.minimum(T, 2.0 / np.abs(af))
        shape = (columns,) + a.shape
        return ((parts[0] + parts[2] + val_tail).reshape(shape),
                (np.abs(parts[0] - parts[1]) + np.abs(parts[2] - parts[3])
                 + err_tail).reshape(shape))

    return transform


def contour_coefficients(g, radius: float, count: int):
    """First ``count`` Taylor coefficients of a vectorized ``g`` about 0 via
    a trapezoid rule on the circle |z| = ``radius`` (spectrally accurate for
    analytic ``g``).

    The coefficients are recomputed at half the radius; disagreement of any
    of them beyond 1e-10 (relative to max(1, |c|)) signals a singularity
    inside the disc and raises QuadratureError.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")

    def coeffs_at(r):
        phi = 2.0 * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES
        z = r * np.exp(1j * phi)
        vals = np.asarray(g(z), dtype=complex)
        j = np.arange(count)
        modes = np.exp(-1j * np.outer(j, phi))
        return (modes @ vals) / CONTOUR_NODES / r ** j

    c_full = coeffs_at(radius)
    c_half = coeffs_at(0.5 * radius)
    scale = max(1.0, float(np.abs(c_full).max(initial=0.0)))
    drift = float(np.abs(c_full - c_half).max(initial=0.0))
    if drift > 1e-10 * scale:
        raise QuadratureError(
            f"contour coefficients not radius-invariant (drift {drift:.3e}); "
            f"is g analytic on the disc of radius {radius}?"
        )
    return c_full


def bracketed_root(f, lo, hi, tol: float = 1e-12):
    """Roots of ``f`` on sign-change brackets [lo, hi], each to bracket width
    ``tol`` (or two float spacings, where that is wider) or after 300 steps.

    ``lo`` and ``hi`` may be arrays, broadcast together, one bracket per
    element.  The brackets advance in lockstep: each step makes one call
    ``f(x)`` with one point per bracket, and a bracket that has finished is
    held at its newest point, where ``f`` has already been evaluated.  Each
    element does the arithmetic of a lone bracket, Chandrupatla's method
    (Chandrupatla 1997, Adv. Eng. Softw. 28, 145–149): it keeps the newest
    point x1, the other bracket end x2 and the last dropped point x3, and
    steps by inverse quadratic interpolation through the three when
    Chandrupatla's ξ/Φ test finds them monotone, by bisection otherwise.
    The first step is the secant of the two ends, so an affine ``f`` is
    solved in one step.  Every trial lies at least half the width limit
    inside the bracket, so the bracket shrinks at every step and converges
    superlinearly on a simple root.  An exact zero ends its element;
    otherwise the bracket end with the smaller |f| (the newest on a tie) is
    returned.  Scalar ``lo`` and ``hi`` give a float, and ``f`` is then
    called with floats, once per endpoint (the upper one only when the
    lower one is not a root) and once per step.  BracketError is raised
    when any bracket lacks a sign change.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    x1, x2 = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))

    def g(x):
        return np.asarray(f(float(x) if scalar else x), dtype=float)

    f1 = g(x1)
    done = f1 == 0.0
    root = np.where(done, x1, np.nan)
    if done.all():
        return float(root) if scalar else root
    f2 = g(x2)
    at_hi = ~done & (f2 == 0.0)
    root = np.where(at_hi, x2, root)
    done |= at_hi
    bad = ~done & ~(np.isfinite(f1) & np.isfinite(f2) & (f1 * f2 <= 0))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise BracketError(
            f"no sign change on [{x1.flat[i]}, {x2.flat[i]}]: "
            f"f={float(f1.flat[i])!r}, {float(f2.flat[i])!r}"
        )

    live = ~done
    x3, f3 = x2, f2  # the dropped point, first read on the second step
    for step in range(300):
        width = np.abs(x2 - x1)
        limit = np.maximum(tol, 2.0 * np.spacing(np.maximum(np.abs(x1), np.abs(x2))))
        live &= width > limit
        if not live.any():
            break
        # Finished brackets propose nothing; their quotients may be 0/0.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if step == 0:
                t = f1 / (f1 - f2)
            else:
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
                alpha = (x3 - x1) / (x2 - x1)
                t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            t_min = 0.5 * limit / width
            t = np.where(np.isfinite(t), np.clip(t, t_min, 1.0 - t_min), 0.5)
        x = np.where(live, x1 + t * (x2 - x1), x1)
        fx = g(x)
        hit = live & (fx == 0.0)
        root = np.where(hit, x, root)
        done |= hit
        live &= ~hit
        # x is the newest point; the sign change stays between x and x2
        # (keep) or moves to x and x1 (swap), and the dropped point is x3.
        keep = live & (np.sign(fx) == np.sign(f1))
        swap = live & ~keep
        x3 = np.where(keep, x1, np.where(swap, x2, x3))
        f3 = np.where(keep, f1, np.where(swap, f2, f3))
        x2, f2 = np.where(swap, x1, x2), np.where(swap, f1, f2)
        x1, f1 = np.where(live, x, x1), np.where(live, fx, f1)
    root = np.where(done, root, np.where(np.abs(f1) <= np.abs(f2), x1, x2))
    return float(root) if scalar else root
