"""References for ``crackwave.dispersion.trace_curve``: the full branch
scan of the determinant, and its root in 50-digit arithmetic.

The scan evaluates the determinant at every scan point in m below the
boundary m_b and keeps the last sign change, the primary branch.
"""
import mpmath
import numpy as np

from crackwave.numerics import row_blocks

# 160 linear scan points up to 0.98·m_b, then 80 geometric ones closing in
# on m_b.
SCAN_LINEAR = 160
SCAN_GEOMETRIC = 80


def full_scan_brackets(det, g, m_b):
    """Primary-branch bracket (lo, hi) of each grid point from the whole
    scan of ``det(m, g)``; both NaN where it finds no sign change."""
    lo = np.full(g.shape, np.nan)
    hi = np.full(g.shape, np.nan)
    approach = 1.0 - np.geomspace(2e-2, 1e-11, SCAN_GEOMETRIC)
    for rows in row_blocks(g.size, SCAN_LINEAR + SCAN_GEOMETRIC):
        top = m_b[rows]
        m = np.concatenate([np.linspace(1e-2, top * 0.98, SCAN_LINEAR, axis=-1),
                            top[:, None] * approach], axis=1)
        vals = det(m, g[rows, None])
        change = vals[:, :-1] * vals[:, 1:] < 0.0
        found = np.flatnonzero(change.any(axis=1))
        i = change.shape[1] - 1 - np.argmax(change[found, ::-1], axis=1)
        lo[rows.start + found] = m[found, i]
        hi[rows.start + found] = m[found, i + 1]
    return lo, hi


def mp_root(m, eta, h0, axis, value, delta=1e-9, dps=50):
    """The root of the boundary-system determinant at ``axis`` = ``value``
    (omega or k) in ``dps``-digit arithmetic, by bisection on
    [m(1 − delta), min(m(1 + delta), m_B)], where m_B is the branch
    boundary (beta = 0).  At eta = 0 the determinant, proportional to beta
    there, vanishes at m_B without changing sign, and m_B is the root."""
    with mpmath.workdps(dps):
        eta, h0, value = mpmath.mpf(eta), mpmath.mpf(h0), mpmath.mpf(value)
        if axis == "k":
            m_b = mpmath.sqrt((1 + value**2 / 2) / (1 + h0**2 * value**2))
        else:
            b = 1 - h0**2 * value**2
            m_b = mpmath.sqrt((b + mpmath.sqrt(b * b + 2 * value**2)) / 2)

        def det(m):
            k = value if axis == "k" else value / m
            k2, hm2 = k * k, (h0 * m) ** 2
            chi = mpmath.sqrt(1 + 2 * (1 - h0**2) * m**2 * k2 + hm2**2 * k2**2)
            base = 1 + (1 - hm2) * k2
            alpha = mpmath.sqrt(base + chi)
            b2 = max((2 * (1 - m**2) + k2 * (1 - 2 * hm2)) * k2 / (base + chi), 0)
            beta = mpmath.sqrt(b2)
            p = k2 * (2 + eta - 2 * hm2)
            return ((alpha**3 - alpha * (2 + p)) * (b2 + eta * k2)
                    - (beta**3 - beta * (2 + p)) * (alpha**2 + eta * k2))

        if eta == 0:
            assert abs(det(m_b)) < 1e-15 * abs(det(m_b * (1 - mpmath.mpf(1e-6))))
            return m_b
        lo, hi = mpmath.mpf(m) * (1 - delta), min(mpmath.mpf(m) * (1 + delta), m_b)
        f_lo = det(lo)
        assert f_lo * det(hi) <= 0, (eta, h0, axis, value)
        for _ in range(3 * dps):
            mid = (lo + hi) / 2
            if det(mid) * f_lo > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
