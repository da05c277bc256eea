"""Reference for ``crackwave.numerics.bracketed_root``: the lockstep
Chandrupatla solver as it stood before its step was rewritten with fewer
array operations, kept verbatim.  The library's solver must return the same
bits and make the same number of ``f`` calls.
"""
import numpy as np

from crackwave.errors import BracketError


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
