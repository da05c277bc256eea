"""Shared numerical machinery: the half-line transform with its algebraic
tail ladder, circle-contour Taylor coefficients and bracketed root finding.

The half-line transform ∫₀^∞ f(t)·e^{−iat}dt has one convention: f returns
stacked columns, and the caller gives each column the algebraic ladder
Σ c_k t^{λ_k} of its large-t behaviour and the start of the window below
the truncation radius on which the transform fits it (``fit_power_tail``).
It runs in two stages.  ``oscillatory_halfline`` evaluates f once, on
nodes that do not depend on ``a`` (one vectorized call for the head and the
fit window and one for the body, whatever the number of columns), fits the
ladders and returns the transform, a callable of ``a``, with the fitted
coefficients.  Each call of the transform contracts those values with the
phases and moments of its frequencies, one (array of) ``a`` at a time, in
row blocks of frequencies (``row_blocks``), and adds the tails.

* Head [0, 1e-6]: three order-20 Gauss panels in v = √t that shrink
  fourfold toward 0 (``_head_nodes``), so a t^{−1/2} endpoint singularity is
  integrated exactly and the symbol's knee at t ≈ ν/u is resolved down to
  ν/u = 1e-9; the phase is applied at the nodes, so the head must span at
  most two periods (|a| ≤ 4π·1e6), or ``QuadratureError`` is raised.
* Body [1e-6, T]: Legendre–Filon panels between ⌈8·log10(T/1e-6)⌉
  geometric edges, just under eight panels per decade (76 panels on
  [1e-6, 4e3]).  ``panel_sums`` turns each panel's order-12 Gauss values
  into the Legendre coefficients of the interpolant, whose transform is a
  sum of the closed-form moments
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
* Tail [T, ∞): the fitted ladder in closed form, T^{λ+1}·e^{−iaT}·S(λ+1,
  iaT) through the scaled incomplete gamma S(s, z) = z^{−s}·e^z·Γ(s, z)
  (``power_tail``).  ``upper_gamma_ladder`` computes S in numpy on a
  half-integer or integer ladder of orders by the scaled recurrences, from
  a power series for |z| < 2 and for |z| ≥ 2 from a continued fraction
  evaluated backward from a depth set by |z| (``_scaled_upper_gamma``), one
  batch for all columns; at a = 0 any λ < −1.

Each column's error estimate sums, over the head and body panels, the
magnitudes of each panel's last two Legendre-mode integrals (its
``_filon_basis`` sums of degrees 18, 19 in the head, 10, 11 in the body),
and adds the tail bound max_residual·min(T, 2/|a|).  A body mode's
transform is its sum times j_k(ω·h), and |j_k| ≤ 1, so the bound holds at
every frequency alike: an interpolant's error is of the size of its trailing
coefficients (Trefethen 2013, Approximation Theory and Approximation
Practice, chs. 7–8).  The columns share the integrand calls, the rules,
the moment table and the phases.  A frequency's value does not depend on
the other frequencies of a call, nor on which call of the transform it
comes in.

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
    "upper_gamma_ladder",
]


_TAIL_FIT_POINTS = 32  # log-spaced samples of a tail-ladder fit
# Trapezoid nodes on each coefficient circle.  For g analytic on |z| < R the
# rule at radius r aliases coefficient j with j + N, …, an error of order
# (r/R)^N; at the split's r = 0.4, R = 1 that is 0.4^64 ≈ 3e-26.
CONTOUR_NODES = 64
_HEAD_END = 1e-6       # end of the fixed Gauss head of a half-line call
_HEAD_ORDER = 20       # Gauss points of a head panel in v = √t
_FILON_ORDER = 12      # Gauss points and Legendre degree + 1 of a body panel
_MILLER_START = 40     # start order of the downward Bessel recurrence
_GAMMA_SERIES_TERMS = 30  # terms of the S(1/2, z) and S(0, z) series, |z| < 2
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


def _scaled_upper_gamma(s, z):
    """S(s, z) = z^{−s}·e^z·Γ(s, z) for real ``s`` and ``z`` (real or
    complex) with |z| ≥ 2 away from the negative real axis, broadcast
    together, by the even continued fraction Γ(s, z) = z^s e^{−z} / (b_0 +
    a_1/(b_1 + a_2/(b_2 + …))), a_n = −n(n − s), b_n = z + 2n + 1 − s,
    evaluated backward from a depth N fixed in advance: h = b_N, then
    h ← b_{n−1} + a_n/h for n = N … 1, and S = 1/h (Gil, Segura & Temme
    2007, Numerical Methods for Special Functions, §6.6).

    The fraction converges the faster the larger |z| is, and N = 3 +
    ⌈152/|z|^{3/4}⌉ (94 at |z| = 2, 57 at 4, 4 at 10³) comes from |z| alone.
    It was fitted on |z| ∈ [2, 10⁴], arg z ∈ [−π/2, π/2] and s ∈ [−40, 1/2],
    where S agrees with 40-digit mpmath to 5.1e-16.  The elements run
    sorted by depth, so each step updates the prefix that has started, and
    each does the arithmetic of its lone run: an (orders × z) batch gives
    every value bit for bit as that run does.
    """
    s, z = np.broadcast_arrays(np.asarray(s, dtype=float), z)
    depth = 3 + np.ceil(152.0 / np.abs(z).ravel() ** 0.75).astype(int)
    order = np.argsort(-depth, kind="stable")
    depth = depth[order]
    s_sorted = s.ravel()[order]
    b0 = z.ravel()[order] + 1.0 - s_sorted
    h = b0 + 2.0 * depth
    # started[n]: how many elements have a depth of at least n.
    started = np.cumsum(np.bincount(depth)[::-1])[::-1]
    for n in range(depth[0], 0, -1):
        k = started[n]
        h[:k] = b0[:k] + (2 * n - 2) + (s_sorted[:k] - n) * n / h[:k]
    out = np.empty_like(h)
    out[order] = 1.0 / h
    return out.reshape(z.shape)


def _gamma_anchor(anchor: float, z):
    """S(1/2, z) or S(0, z) by power series, for |z| < 2: S(1/2) = √π·e^z/√z
    − Σ_k z^k/((1/2)(3/2)⋯(k+1/2)), as Γ(1/2, z) = √π − γ(1/2, z), and
    S(0) = e^z·E_1(z) = e^z·(−γ − ln z − Σ_{k≥1} (−z)^k/(k·k!)) (DLMF
    §8.7.1, §6.6.2)."""
    if anchor == 0.5:
        term = np.full_like(z, 2.0)
        total = term.copy()
        for k in range(1, _GAMMA_SERIES_TERMS):
            term = term * z / (k + 0.5)
            total += term
        return math.sqrt(math.pi) * np.exp(z) / np.sqrt(z) - total
    # −Σ = z·(1 − z/2·(1/2 − z/3·(1/3 − …))) by Horner's rule, which keeps
    # the rounding of the large leading terms out of the cancellation.
    acc = np.full_like(z, 1.0 / _GAMMA_SERIES_TERMS)
    for k in range(_GAMMA_SERIES_TERMS - 1, 0, -1):
        acc = 1.0 / k - z * acc / (k + 1)
    return np.exp(z) * (z * acc - np.euler_gamma - np.log(z))


def _gamma_walk(ladder, i0, first, z):
    """Rows S(ladder[i], z) from S(ladder[i0], z) = ``first`` by the scaled
    recurrences S(s−1) = (z·S(s) − 1)/(s − 1) down and S(s+1) = (s·S(s) +
    1)/z up (DLMF §8.8.1)."""
    rows = np.empty((ladder.size,) + z.shape, dtype=first.dtype)
    rows[i0] = first
    for i in range(i0, 0, -1):
        rows[i - 1] = (z * rows[i] - 1.0) / (ladder[i] - 1.0)
    for i in range(i0, ladder.size - 1):
        rows[i + 1] = (ladder[i] * rows[i] + 1.0) / z
    return rows


def upper_gamma_ladder(orders, z):
    """The scaled upper incomplete gamma S(s, z) = z^{−s}·e^z·Γ(s, z) for
    stacked columns of orders and an array z away from the origin and the
    negative real axis (complex, or real and positive): one array of shape
    (len(orders[j]),) + z.shape per column j, each z's value independent of
    the others.  A column's orders lie on one
    unit lattice, half-integers or integers, or ``QuadratureError`` is
    raised; S(1 − q, w) = e^w·E_q(w).

    For |z| < 2 each column walks its lattice down and up from the series
    anchor S(1/2) or S(0) (``_gamma_anchor``), shared by the columns.  For
    |z| ≥ 2 it evaluates the continued fraction (``_scaled_upper_gamma``) at
    every column's lowest order in one batch and walks up.  The switch sits
    where the two walks lose about equally: the downward one amplifies the
    anchor's error more the larger |z| is, the upward one that of the lowest
    order more the smaller |z| is.
    """
    orders = [np.asarray(s_values, dtype=float) for s_values in orders]
    anchors = [float(np.mod(s_values[0], 1.0)) for s_values in orders]
    for s_values, anchor in zip(orders, anchors):
        if anchor not in (0.0, 0.5) or np.any(np.mod(s_values, 1.0) != anchor):
            raise QuadratureError(
                f"orders must lie on one half-integer or integer lattice, got {s_values}")
    z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
    lows = [min(float(s_values.min()), a) for s_values, a in zip(orders, anchors)]

    near = np.abs(z) < 2.0
    far = ~near
    zn, zf = z[near], z[far]
    series = {a: _gamma_anchor(a, zn) for a in set(anchors)} if zn.size else {}
    if zf.size:
        lowest = _scaled_upper_gamma(np.array(lows)[:, None], zf)

    out = []
    for j, (s_values, anchor, lo) in enumerate(zip(orders, anchors, lows)):
        ladder = np.arange(lo, max(float(s_values.max()), anchor) + 0.5)
        rows = np.empty((ladder.size,) + z.shape, dtype=z.dtype)
        if zn.size:
            rows[:, near] = _gamma_walk(ladder, int(round(anchor - lo)), series[anchor], zn)
        if zf.size:
            rows[:, far] = _gamma_walk(ladder, 0, lowest[j], zf)
        out.append(rows[np.round(s_values - lo).astype(int)])
    return out


def power_tail(coeffs, ladders, freq, t0):
    """Closed form of ∫_{t0}^∞ Σ_k c_k t^{λ_k} e^{−i·freq·t} dt for stacked
    columns, elementwise over a 1-D array ``freq``: column j has the
    coefficients ``coeffs[j]`` of the exponents ``ladders[j]`` (possibly
    none); shape (columns, freq.size).

    Uses ∫_T^∞ t^λ e^{−iat} dt = T^{λ+1}·e^{−iaT}·S(λ+1, iaT) with the
    scaled S(s, z) = z^{−s}·e^z·Γ(s, z) for freq ≠ 0, which needs each
    column's λ on one half-integer or integer lattice
    (``upper_gamma_ladder``, one continued-fraction batch for all
    columns), and the elementary power integral at freq = 0 (which then
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
        z = 1j * af[~zero] * t0
        phase = np.exp(-z)
        scaled = upper_gamma_ladder([lam + 1.0 for _, _, lam in columns], z)
        for (j, c, lam), rows in zip(columns, scaled):
            # Term by term, so a frequency's sum does not depend on the batch.
            total = np.zeros(z.shape, dtype=complex)
            for ck, lk, sk in zip(c, lam, rows):
                total = total + ck * t0 ** (lk + 1.0) * sk
            out[j, ~zero] = phase * total
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


def _head_nodes(b):
    """Nodes ``t`` and weights ``w`` of the head rule on [0, b], both of
    shape (3, ``_HEAD_ORDER``): Gauss panels in v = √t with the edges
    √b·(0, 1/16, 1/4, 1).

    The weights carry dt = 2v·dv, so t^{−1/2}·g(t)·dt = 2g(v²)·dv and the
    endpoint singularity is integrated exactly.  What is left in v is
    smooth (a t·log t term is of size b·log b), apart from the knee of the
    symbol at t ≈ ν/u, where r = hypot(√2·ν, u·t) turns.  Near that knee a
    panel converges only if it is short against it (Trefethen 2013,
    Approximation Theory and Approximation Practice, chs. 7–8), so the
    panels shrink fourfold in v toward 0.  On b = 1e-6 they keep 1e-14 of
    the head integral for knees down to ν/u = 1e-9; a float m < 1 gives
    ν ≥ 1.5e-8 and u ≤ 1.
    """
    v, w = panel_nodes(math.sqrt(b) * np.array([0.0, 1.0 / 16.0, 0.25, 1.0]), _HEAD_ORDER)
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
    (freq × panels × order).  Each (row, frequency, panel) is contracted
    over the order alone and each (column, frequency) over the panels alone,
    so a frequency's value does not depend on the other frequencies or
    columns."""
    inner = np.einsum("fpk,cpk->cfp", table, sums)
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
    """Panel edges on [lo, hi]: ⌈8·log10(hi/lo)⌉ geometric edges (at least
    two), so one panel fewer, just under eight per decade."""
    return np.geomspace(lo, hi, max(2, math.ceil(8 * math.log10(hi / lo))))


def oscillatory_halfline(f, truncation_radius: float, ladders, fit_start: float):
    """The transform ∫₀^∞ f(t)·exp(−i·freq·t) dt of the stacked columns of a
    vectorized integrand, as a callable ``freq → (value, error_estimate)``,
    both of shape (c,) + freq.shape, and the fitted tail coefficients:
    returns ``(transform, coeffs)``.

    ``f`` maps a 1-D array of n nodes to c integrands stacked, shape (c, n).
    Column k has the tail ladder ``ladders[k]`` (exponents λ, possibly none).
    Beyond ``truncation_radius`` (> 0), where the panels end, the tail is
    that ladder, fitted (``fit_power_tail``) at ``_TAIL_FIT_POINTS``
    log-spaced points of [``fit_start``, ``truncation_radius``];
    ``coeffs[k]`` holds its coefficients, none for an empty ladder, whose
    residual is then the column's largest magnitude on the window.

    This call makes every evaluation of f, in two calls on nodes that do not
    depend on the frequencies: one for the head and the fit window and one
    for the body's ``panel_sums``.  Each call of the transform then contracts
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
    t_head, w_head = (x.ravel() for x in _head_nodes(head_end))
    fit_t = np.geomspace(fit_start, T, _TAIL_FIT_POINTS)
    values = np.asarray(f(np.concatenate([t_head, fit_t])), dtype=complex)
    columns = len(values)
    if columns != len(ladders):
        raise ValueError(f"{columns} columns need as many ladders, got {len(ladders)}")
    fits = [fit_power_tail(fit_t, v, lam) if len(lam)
            else (np.empty(0, dtype=complex), float(np.abs(v).max()))
            for v, lam in zip(values[:, t_head.size:], ladders)]
    coeffs = [c for c, _ in fits]
    resid = np.array([r for _, r in fits], dtype=float)
    edges = _build_edges(head_end, T)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    # The weighted head values and the body's Legendre panel sums; the
    # rule's error is each panel's last two Legendre modes, head and body.
    wv = w_head * values[:, :t_head.size]
    sums = panel_sums(f, edges, _FILON_ORDER, _filon_basis(_FILON_ORDER))
    plain = wv.sum(axis=-1) + sums[..., 0].sum(axis=-1)
    modes = wv.reshape(columns, -1, _HEAD_ORDER) @ _filon_basis(_HEAD_ORDER)[-2:].T
    err_rule = np.abs(modes).sum(axis=(1, 2)) + np.abs(sums[..., -2:]).sum(axis=(1, 2))
    # The contractions run on real and imaginary rows.
    head = np.concatenate([wv.real, wv.imag])
    body = np.concatenate([sums.real, sums.imag])
    # float64 values per frequency of a block's largest temporaries: the head
    # phases, and the body's (columns × panels) complex sums over the order.
    width = max(t_head.size, 2 * columns * mid.size)

    def transform(freq):
        a = np.asarray(freq, dtype=float)
        af = a.ravel()
        # The head keeps ~1e-14 up to two periods on [0, head_end]; a NaN
        # frequency fails the test too.
        top = np.abs(af).max(initial=0.0)
        if not top * head_end <= 4.0 * math.pi:
            raise QuadratureError(
                f"frequency {top:g} is not finite or oscillates more than two "
                f"periods on the head [0, {head_end:g}]"
            )
        # The head plus the body, as the Gauss sums at a frequency of 0.
        rule = np.empty((columns, af.size), dtype=complex)
        zero = af == 0.0
        rule[:, zero] = plain[:, None]
        live = af[~zero]
        if live.size:
            table = _bessel_table(live[:, None] * half)
            out = np.empty((columns, live.size), dtype=complex)
            for rows in row_blocks(live.size, width):
                fr = live[rows]
                phase = np.exp(-1j * fr[:, None] * mid)
                out[:, rows] = (_head_sums(head, t_head, fr)
                                + _filon_body(body, phase, table[rows]))
            rule[:, ~zero] = out
        val_tail = power_tail(coeffs, ladders, af, T)
        with np.errstate(divide="ignore"):
            err_tail = resid[:, None] * np.minimum(T, 2.0 / np.abs(af))
        shape = (columns,) + a.shape
        return (rule + val_tail).reshape(shape), (err_rule[:, None] + err_tail).reshape(shape)

    return transform, coeffs


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


def bracketed_root(f, lo, hi):
    """Roots of ``f`` on sign-change brackets [lo, hi], each to a bracket
    width of two float spacings (the narrowest with a float strictly inside)
    or after 300 steps.

    ``lo`` and ``hi`` may be arrays, broadcast together, one bracket per
    element.  The brackets advance in lockstep: each step makes one call
    ``f(x)`` with one point per bracket.  Each element does the arithmetic
    of a lone bracket, Chandrupatla's method (Chandrupatla 1997, Adv. Eng.
    Softw. 28, 145–149): it keeps the newest point x1, the other bracket end
    x2 and the last dropped point x3, and steps by inverse quadratic
    interpolation through the three when Chandrupatla's ξ/Φ test finds them
    monotone, by bisection otherwise.  The first step is the secant of the
    two ends, so an affine ``f`` is solved in one step.  Every trial lies at
    least half the width limit inside the bracket, so the bracket shrinks at
    every step and converges superlinearly on a simple root.  An exact zero
    becomes x1 (a zero at the upper end becomes both ends), and f1 = 0 ends
    its element; otherwise the bracket end with the smaller |f| (the newest
    on a tie) is returned.  A finished bracket is held at x1: it proposes x1
    again and takes the keep branch, so ``f`` must give the same value for
    the same point.  Scalar ``lo`` and ``hi`` give a float, and ``f`` is
    then called with floats, once per endpoint (the upper one only when the
    lower one is not a root) and once per step.  BracketError is raised when
    any bracket lacks a sign change.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    x1, x2 = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))

    def g(x):
        return np.asarray(f(float(x) if scalar else x), dtype=float)

    f1 = g(x1)
    if (f1 == 0.0).all():
        return float(x1) if scalar else x1
    f2 = g(x2)
    bad = (f1 != 0.0) & (f2 != 0.0) & ~(np.isfinite(f1) & np.isfinite(f2) & (f1 * f2 <= 0))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise BracketError(
            f"no sign change on [{x1.flat[i]}, {x2.flat[i]}]: "
            f"f={float(f1.flat[i])!r}, {float(f2.flat[i])!r}"
        )
    at_hi = (f2 == 0.0) & (f1 != 0.0)
    x1, f1 = np.where(at_hi, x2, x1), np.where(at_hi, f2, f1)

    s1 = np.sign(f1)
    x3, f3 = x2, f2  # the dropped point, first read on the second step
    for step in range(300):
        dx = x2 - x1
        width = np.abs(dx)
        limit = 2.0 * np.spacing(np.maximum(np.abs(x1), np.abs(x2)))
        # Not width <= limit: a NaN width (both ends infinite) is held too.
        held = ~(width > limit) | (f1 == 0.0)
        if held.all():
            break
        # Held brackets propose x1; their quotients may be 0/0.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            df = f1 - f2
            t = f1 / df  # the secant step
            iqi = True
            if step:
                d = f3 - f2
                phi = df / d
                xi = dx / (x2 - x3)
                q = 1.0 - phi
                iqi = (phi * phi < xi) & (q * q < 1.0 - xi)
                # f1/(f1 − f2)·f3/(f3 − f2) − α·f1/(f3 − f1)·f2/(f2 − f3),
                # α = (x3 − x1)/(x2 − x1), with the last quotient negated.
                t = t * f3 / d + (x3 - x1) / dx * f1 / (f3 - f1) * f2 / d
            t = np.where(iqi & np.isfinite(t), t, 0.5)
            t_min = 0.5 * limit / width
            t = np.minimum(np.maximum(t, t_min), 1.0 - t_min)
            x = np.where(held, x1, x1 + t * dx)
        fx = g(x)
        # x is the newest point; the sign change stays between x and x2
        # (keep) or moves to x and x1 (swap), and the dropped point is x3.
        sx = np.sign(fx)
        keep = (sx == s1) | held
        x3, f3 = np.where(keep, x1, x2), np.where(keep, f1, f2)
        x2, f2 = np.where(keep, x2, x1), np.where(keep, f2, f1)
        x1, f1, s1 = x, fx, sx
    root = np.where((np.abs(f1) <= np.abs(f2)) | (f1 == 0.0), x1, x2)
    return float(root) if scalar else root
