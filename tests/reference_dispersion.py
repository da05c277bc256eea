"""The full branch scan, as the reference that the top-down scan of
``crackwave.dispersion._brackets`` is compared against.

Every grid point evaluates the determinant at all scan points in m below
the boundary m_b and keeps the last sign change, the primary branch.
"""
import numpy as np

from crackwave.dispersion import _SCAN_GEOMETRIC, _SCAN_LINEAR
from crackwave.numerics import row_blocks


def full_scan_brackets(det, g, m_b):
    """Primary-branch bracket (lo, hi) of each grid point from the whole
    scan of ``det(m, g)``; both NaN where it finds no sign change."""
    lo = np.full(g.shape, np.nan)
    hi = np.full(g.shape, np.nan)
    approach = 1.0 - np.geomspace(2e-2, 1e-11, _SCAN_GEOMETRIC)
    for rows in row_blocks(g.size, _SCAN_LINEAR + _SCAN_GEOMETRIC):
        top = m_b[rows]
        m = np.concatenate([np.linspace(1e-2, top * 0.98, _SCAN_LINEAR, axis=-1),
                            top[:, None] * approach], axis=1)
        vals = det(m, g[rows, None])
        change = vals[:, :-1] * vals[:, 1:] < 0.0
        found = np.flatnonzero(change.any(axis=1))
        i = change.shape[1] - 1 - np.argmax(change[found, ::-1], axis=1)
        lo[rows.start + found] = m[found, i]
        hi[rows.start + found] = m[found, i + 1]
    return lo, hi
