"""Contract tests for the shared numerical machinery.

Frozen expected values were computed with independent high-precision
quadrature (mpmath) or closed forms noted inline.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath
from scipy import special

from crackwave import numerics
from crackwave.errors import BracketError, QuadratureError
from crackwave.numerics import (_bessel_table, _scaled_upper_gamma, bracketed_root,
                                contour_coefficients, fit_power_tail,
                                oscillatory_halfline, power_tail, upper_gamma_ladder)
from crackwave.material import lambda_surface
from reference_quadrature import averaged_halfline
import reference_roots

# ∫₀^∞ e^{−it}/(1+t²) dt ; real part is pi/(2e) by residue calculus.
OSC_LORENTZ = 0.57786367489546086 - 0.64676112277913007j
# ∫₁^∞ t^{−1/2} e^{−10it} dt  (brute-force/incomplete-gamma cross-checked)
OSC_SQRT_JUMP = 0.049966497376164613 + 0.085953677120606257j
# ∫₀^∞ t^{−1/2} e^{−(1+3i)t} dt = sqrt(pi)·(1+3i)^{−1/2}
OSC_SING = 0.80858459419487750 - 0.58279480146129941j

T = 2.0e3                  # truncation radius of the engine calls below
# A jump of a test integrand sits on an edge of the engine's body grid
# (STEP ≈ 1.08), where the piecewise-smooth integrand is smooth on every
# panel.
STEP = float(numerics._build_edges(numerics._HEAD_END, T)[48])
SLOW_LADDER = (-1.5, -2.5, -3.5)
FIT_START = 100.0          # start of the tail-fit window [FIT_START, T]


def _beyond_step(t):
    """t^{−3/2} beyond STEP, as one stacked column."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(t > STEP, np.abs(t) ** -1.5, 0.0)[None]


def _beyond_step_exact(a):
    """∫_e^∞ t^{−3/2} e^{−iat} dt = (ia)^{1/2}·Γ(−1/2, iae), e = STEP, and
    2/√e at a = 0."""
    if a == 0.0:
        return 2.0 / math.sqrt(STEP)
    return complex(mpmath.sqrt(1j * a) * mpmath.gammainc(-0.5, a=1j * a * STEP))


def _lorentzian_exact(a):
    """∫₀^∞ e^{−iat}/(1+t²) dt = (π/2)e^{−a} − (i/2)(e^{−a}Ei(a) − e^{a}Ei(−a))
    for a > 0, and π/2 at a = 0."""
    if a == 0.0:
        return math.pi / 2.0
    with mpmath.workdps(40):   # the Ei terms cancel at small a
        a = mpmath.mpf(a)
        sine = (mpmath.exp(-a) * mpmath.ei(a) - mpmath.exp(a) * mpmath.ei(-a)) / 2
        return complex(float(mpmath.pi / 2 * mpmath.exp(-a)), float(-sine))


def _on_step(g):
    """g on [0, STEP) and 0 beyond, as one stacked column."""
    return lambda t: np.where(np.asarray(t) < STEP, g(np.asarray(t)), 0.0)[None]


def _transform(f, ladders):
    """The engine's transform of the stacked columns of ``f``, with their
    ladders fitted on [FIT_START, T]."""
    return oscillatory_halfline(f, T, ladders, FIT_START)[0]


class TestOscillatoryHalfline:
    # The ladder-free averaging reference of the tests (its own rule, no
    # ladder) on the classic transforms.
    def test_lorentzian(self):
        val, err = averaged_halfline(lambda t: 1.0 / (1.0 + t * t), 1.0)
        assert abs(val - OSC_LORENTZ) < 1e-9

    def test_sqrt_tail_with_jump(self):
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where(t > 1.0, np.abs(t) ** -0.5, 0.0)

        val, _ = averaged_halfline(f, 10.0, breakpoints=(1.0,))
        assert abs(val - OSC_SQRT_JUMP) < 1e-8

    def test_slow_oscillation_ladder(self):
        val, _ = _transform(_beyond_step, [SLOW_LADDER])(0.05)
        assert abs(val[0] - _beyond_step_exact(0.05)) < 1e-9

    def test_sqrt_singular_head(self):
        def f(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore"):
                return np.exp(-t) / np.sqrt(t)

        val, _ = averaged_halfline(f, 3.0, sqrt_singularity=True)
        assert abs(val - OSC_SING) < 1e-9

    def test_finite_support_polynomial(self):
        val, err = _transform(_on_step(lambda t: t * t), [()])(0.0)
        assert abs(val[0] - STEP**3 / 3.0) <= max(err[0], 1e-14)

    def test_finite_support_complex_integrand(self):
        val, _ = _transform(_on_step(lambda t: np.exp(1j * t)), [()])(0.0)
        assert abs(val[0] - (np.exp(1j * STEP) - 1.0) / 1j) < 1e-10

    def test_error_estimate_honest(self):
        # Polynomial and t^{−1/2}-singular integrands, both through the √t head.
        for g, exact in ((lambda t: t * t, STEP**3 / 3.0),
                         (lambda t: t ** -0.5, 2.0 * math.sqrt(STEP))):
            val, err = _transform(_on_step(g), [()])(0.0)
            assert abs(val[0] - exact) <= max(err[0], 1e-13)

    @pytest.mark.parametrize("f,ladder,exact", [
        (_beyond_step, SLOW_LADDER, _beyond_step_exact),
        (lambda t: (np.exp(-t) / np.sqrt(t))[None], (),
         lambda a: complex(mpmath.sqrt(mpmath.pi) / mpmath.sqrt(1 + 1j * a))),
        (lambda t: (1.0 / (1.0 + t * t))[None], (-2.0, -4.0, -6.0), _lorentzian_exact),
    ], ids=["beyond-step", "sqrt-exp", "lorentzian"])
    def test_error_estimate_honest_at_every_frequency(self, f, ladder, exact):
        # The last Legendre modes bound the rule at every frequency alike,
        # from a = 0 to 1e6.
        a = np.array([0.0, 1e-3, 0.05, 1.0, 10.0, 1e3, 1e6])
        vals, errs = _transform(f, [ladder])(a)
        for ai, v, e in zip(a, vals[0], errs[0]):
            assert abs(v - exact(ai)) <= e <= 1e-8, ai

    def test_determinism(self):
        f = lambda t: 1.0 / (1.0 + np.asarray(t) ** 2)
        a = averaged_halfline(f, 2.0)
        b = averaged_halfline(f, 2.0)
        assert a == b


class TestBatchedHalfline:
    def test_array_frequency_matches_closed_form_and_scalar_calls(self):
        a = np.array([0.05, 1.0, 10.0])
        transform = _transform(_beyond_step, [SLOW_LADDER])
        vals, errs = transform(a)
        assert vals.shape == errs.shape == (1,) + a.shape
        for ai, v, e in zip(a, vals[0], errs[0]):
            exact = _beyond_step_exact(ai)
            assert abs(v - exact) < 1e-13
            assert abs(v - exact) <= e
            scalar, scalar_err = _transform(_beyond_step, [SLOW_LADDER])(float(ai))
            assert scalar.shape == scalar_err.shape == (1,)
            assert scalar[0] == v and scalar_err[0] == e

    def test_every_column_needs_a_ladder(self):
        with pytest.raises(ValueError, match="1 columns need as many ladders"):
            _transform(_beyond_step, [SLOW_LADDER] * 2)
        with pytest.raises(ValueError):
            _transform(_beyond_step, [])

    def test_high_frequencies_up_to_the_head_limit(self):
        # The Filon body resolves any frequency; the head [0, 1e-6] spans
        # more than two periods once |a| > 4π·1e6.
        a = np.array([1e3, 1e5, 1.2e7])
        transform = _transform(_beyond_step, [SLOW_LADDER])
        vals, errs = transform(a)
        for ai, v, e in zip(a, vals[0], errs[0]):
            exact = _beyond_step_exact(ai)
            assert abs(v - exact) < 1e-14
            assert abs(v - exact) <= e
        for bad in (1.3e7, np.inf, np.nan):
            with pytest.raises(QuadratureError):
                transform(np.array([1.0, bad]))

    def test_zero_frequency_tail_is_the_power_integral(self):
        # ∫_T^∞ (2t^{−2.5} − t^{−3.5}) dt at T = 4, with a zero among the
        # frequencies.
        (out,) = power_tail([[2.0, -1.0]], [[-2.5, -3.5]], np.array([0.0, 1.0]), 4.0)
        assert out[0] == pytest.approx(2.0 * 4.0**-1.5 / 1.5 - 4.0**-2.5 / 2.5,
                                       rel=1e-15)
        ref = sum(c * complex(mpmath.quadosc(
            lambda t: t**lam * mpmath.exp(-1j * t), [4.0, mpmath.inf], omega=1.0))
            for c, lam in ((2.0, -2.5), (-1.0, -3.5)))
        assert abs(out[1] - ref) < 1e-12


class TestHeadRule:
    """The head rule (``_head_nodes``) on [0, 1e-6] against 40-digit mpmath,
    up to the head's two-period frequency limit."""
    FREQS = [0.0, 1e4, 1e6, 0.99 * 4.0 * math.pi * 1e6]
    U = 0.8

    @staticmethod
    def _knee(knee, u):
        """t^{−1/2}/hypot(√2·ν, u·t), whose knee sits at ν/u = ``knee``."""
        nu = knee * u
        return (lambda t: 1.0 / (np.sqrt(t) * np.hypot(math.sqrt(2.0) * nu, u * t)),
                lambda t: 1 / (mpmath.sqrt(t) * mpmath.sqrt(2 * nu**2 + (u * t) ** 2)))

    @pytest.mark.parametrize("case", ["exp", "t-log-t", "knee-1e-5", "knee-1e-7", "knee-1e-9"])
    def test_matches_mpmath(self, case):
        # e^{−t}; 1 + t·log t, the t·log|t| term that θ (the Hilbert
        # transform of a log k with a |t| kink) gives k⁺; and the knee of
        # the symbol's r = hypot(√2·ν, u·t) inside the head.
        if case == "exp":
            f, f_mp = (lambda t: np.exp(-t) / np.sqrt(t),
                       lambda t: mpmath.exp(-t) / mpmath.sqrt(t))
        elif case == "t-log-t":
            f, f_mp = (lambda t: (1.0 + t * np.log(t)) / np.sqrt(t),
                       lambda t: (1 + t * mpmath.log(t)) / mpmath.sqrt(t))
        else:
            knee = float(case[5:])
            f, f_mp = self._knee(knee, self.U)
        b = numerics._HEAD_END
        t, w = (x.ravel() for x in numerics._head_nodes(b))
        with mpmath.workdps(40):
            # In v = √t, with breaks around a knee at v ≈ √(ν/u).
            vb = mpmath.sqrt(b)
            breaks = [0, vb]
            if case.startswith("knee"):
                vk = mpmath.sqrt(knee)
                breaks = [0, *(v for v in (vk / 10, vk, 10 * vk) if v < vb), vb]
            refs = [complex(mpmath.quad(lambda v: 2 * v * f_mp(v * v) * mpmath.expj(-a * v * v),
                                        breaks)) for a in self.FREQS]
        # f > 0, so the integral's magnitude ∫|f| is its value at a = 0.
        scale = abs(refs[0])
        for a, ref in zip(self.FREQS, refs):
            got = np.sum(w * f(t) * np.exp(-1j * a * t))
            assert abs(got - ref) <= 1e-14 * scale, (case, a)


class TestStackedColumns:
    """An integrand returning stacked columns against one call per column."""
    LADDERS = [(-1.5, -2.5, -3.5), (-2.5, -3.5, -4.5), (-1.5, -2.5, -3.5)]

    @staticmethod
    def _columns(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.array([np.where(t > STEP, np.abs(t) ** -1.5, 0.0),
                             (1.0 + 2j) / (1.0 + t) ** 2.5,
                             np.exp(-t) / np.sqrt(t) + 1j / (1.0 + t) ** 1.5])

    @pytest.mark.parametrize("freq", [np.array([0.05, 1.0, 10.0, 3e3]), 2.5,
                                      np.array([0.0])], ids=["array", "scalar", "zero"])
    def test_each_column_matches_its_single_column_call(self, freq):
        vals, errs = _transform(self._columns, self.LADDERS)(freq)
        assert vals.shape == errs.shape == (3,) + np.shape(freq)
        for c, lam in enumerate(self.LADDERS):
            single, single_err = _transform(lambda t, c=c: self._columns(t)[c:c + 1],
                                            [lam])(freq)
            assert np.all(np.abs(vals[c] - single[0]) <= 1e-15 * np.abs(single[0]))
            assert np.all(np.abs(errs[c] - single_err[0]) <= 1e-15 * single_err[0])

    def test_columns_share_one_moment_table(self, monkeypatch):
        built = []
        real = numerics._bessel_table
        monkeypatch.setattr(numerics, "_bessel_table",
                            lambda x: built.append(np.shape(x)) or real(x))
        transform = _transform(self._columns, self.LADDERS)
        transform(np.array([1.0, 2.0]))
        assert len(built) == 1
        transform(np.array([0.0, 0.0]))
        assert len(built) == 1  # every frequency 0: plain Gauss sums, no table

    def test_calls_of_one_transform_match_one_call_on_their_union(self):
        # A's frequencies sit in other row blocks of the union than of their
        # own call; a zero frequency takes the plain sums in both.
        transform = _transform(self._columns, self.LADDERS)
        A = np.array([0.05, 3e3, 0.0, 1.0])
        B = np.geomspace(1e-4, 1e4, 37)
        val_u, err_u = transform(np.concatenate([B[:20], A, B[20:]]))
        for part, cols in ((A, np.r_[20:24]), (B, np.r_[0:20, 24:41])):
            val, err = transform(part)
            assert np.array_equal(val, val_u[:, cols])
            assert np.array_equal(err, err_u[:, cols])

    def test_one_continued_fraction_batch_per_call(self, monkeypatch):
        runs = []
        real = numerics._scaled_upper_gamma
        monkeypatch.setattr(numerics, "_scaled_upper_gamma",
                            lambda s, z: runs.append(np.shape(z)) or real(s, z))
        freq = np.array([1e-4, 0.05, 1.0, 3e3])   # |a·T| on both sides of 2
        for cols in (slice(0, 1), slice(0, 3)):
            runs.clear()
            columns = lambda t, cols=cols: self._columns(t)[cols]
            ladders = self.LADDERS[cols]
            _transform(columns, ladders)(freq)
            assert len(runs) == 1

    def test_two_integrand_calls_per_transform(self):
        # One for the 3 order-20 head panels and the fit window, one for
        # the order-12 body panels.
        calls = []
        oscillatory_halfline(lambda t: calls.append(t) or self._columns(t), T,
                             self.LADDERS, FIT_START)
        assert len(calls) == 2
        head, body = calls
        window = np.geomspace(FIT_START, T, numerics._TAIL_FIT_POINTS)
        assert head.size == 3 * 20 + window.size
        assert np.all(head[:3 * 20] <= numerics._HEAD_END)
        assert np.array_equal(head[3 * 20:], window)
        panels = numerics._build_edges(numerics._HEAD_END, T).size - 1
        assert body.size == panels * 12

    @pytest.mark.parametrize("cols,ladders", [
        (slice(0, 1), LADDERS[:1]),
        (slice(0, 3), LADDERS),
        (slice(1, 3), [(), LADDERS[2]]),
    ], ids=["one", "stacked", "empty-ladder"])
    def test_coefficients_are_the_fit_on_the_window(self, cols, ladders):
        columns = lambda t: self._columns(t)[cols]
        _, coeffs = oscillatory_halfline(columns, T, ladders, FIT_START)
        window = np.geomspace(FIT_START, T, numerics._TAIL_FIT_POINTS)
        assert len(coeffs) == len(ladders)
        for c, v, lam in zip(coeffs, columns(window), ladders):
            expected = fit_power_tail(window, v, lam)[0] if lam else np.empty(0)
            assert np.array_equal(c, expected)


class TestBesselTable:
    """The Filon moment table j_0 … j_11 against scipy's spherical Bessel
    functions, across the series (|x| < 1), downward-recurrence (1 ≤ |x| < 12)
    and upward-recurrence (|x| ≥ 12) ranges."""
    X = np.concatenate([
        [0.0],
        np.geomspace(1e-10, 1e7, 4001),
        -np.geomspace(1e-10, 1e7, 4001),
        12.0 + np.linspace(-1e-3, 1e-3, 201),
        1.0 + np.linspace(-1e-3, 1e-3, 201),
        np.pi * np.arange(1, 400),          # zeros of j_0
    ])

    def test_matches_scipy(self):
        ref = special.spherical_jn(np.arange(12), self.X[:, None])
        got = _bessel_table(self.X)
        assert got.shape == (self.X.size, 12)
        assert np.abs(got - ref).max() <= 1e-14

    def test_series_relative_accuracy(self):
        # On |x| < 1 the high orders are tiny (j_11(1e-2) ≈ 1e-34), where an
        # absolute bound checks nothing: every order against 40-digit values
        # of j_k(x) = √(π/2x)·J_{k+1/2}(x).
        x = np.concatenate([np.geomspace(1e-8, 0.99, 60), 1.0 - np.geomspace(1e-12, 1e-3, 7)])
        got = _bessel_table(x)
        with mpmath.workdps(40):
            ref = np.array([[float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(v)))
                                   * mpmath.besselj(k + mpmath.mpf(1) / 2, v))
                             for k in range(12)] for v in x])
        assert np.abs(got / ref - 1.0).max() <= 2e-15

    def test_zero_argument_is_exact(self):
        assert np.array_equal(_bessel_table(np.zeros((2, 3)))[1, 2], np.eye(12)[0])

    def test_parity(self):
        x = np.array([0.3, 5.0, 40.0])
        sign = (-1.0) ** np.arange(12)
        assert np.array_equal(_bessel_table(-x), sign * _bessel_table(x))


def _scaled_gamma_ref(s, z):
    """z^{−s}·e^z·Γ(s, z) in 40-digit mpmath, with z passed as an mpc even on
    the real axis: mpmath's real path is off by 2e-3 at S(−40, 201.7)."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        return complex(z ** -s * mpmath.exp(z) * mpmath.gammainc(s, a=z))


def _gamma_column_ref(anchor, lowest, z):
    """S(s, z) for s = anchor, anchor − 1, …, lowest in mpmath: S(anchor, z)
    from ``gammainc``, walked down by S(s − 1) = (z·S(s) − 1)/(s − 1) with
    guard digits for the walk's growth |z|^n/n!, so every value keeps 40.
    (``gammainc`` itself takes ~0.1 s per value at integer orders below −5
    near |z| = 100, and on the real axis it is off by 4e-3 at S(−40, 201.7)
    with 40 digits.)"""
    n = int(round(anchor - lowest))
    guard = max(0.0, n * math.log10(abs(z)) - math.lgamma(n + 1) / math.log(10.0))
    with mpmath.workdps(40 + int(guard)):
        z = mpmath.mpc(z)
        value = z ** -anchor * mpmath.exp(z) * mpmath.gammainc(anchor, a=z)
        out = {anchor: complex(value)}
        for k in range(1, n + 1):
            value = (z * value - 1) / (anchor - k)
            out[anchor - k] = complex(value)
    return out


class TestUpperGamma:
    """The scaled upper incomplete gamma S(s, z) = z^{−s}·e^z·Γ(s, z)."""
    S = np.arange(-5.5, 2.0, 1.0)
    # Both sides of the switch from the series to the continued fraction at
    # |z| = 2, where each recurrence loses the most.
    Y = np.concatenate([np.geomspace(1e-5, 4e6, 60), np.linspace(3.9, 4.1, 21),
                        np.linspace(0.5, 5.0, 46)])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
    def test_matches_mpmath_on_the_imaginary_axis(self, sign):
        z = 1j * sign * self.Y
        (got,) = upper_gamma_ladder([self.S], z)
        for i, s in enumerate(self.S):
            for j, zj in enumerate(z):
                ref = _scaled_gamma_ref(s, zj)
                assert abs(got[i, j] - ref) <= 1e-13 * abs(ref), (s, zj)

    @pytest.mark.parametrize("z", [np.concatenate([np.geomspace(1e-6, 1e6, 40),
                                                   np.linspace(1.9, 2.1, 21)]),
                                   1j * np.geomspace(1e-6, 1e6, 40),
                                   -1j * np.linspace(1.9, 2.1, 21)],
                             ids=["real", "upper", "lower"])
    def test_integer_orders_match_mpmath(self, z):
        s_values = np.arange(-4.0, 1.0)
        (got,) = upper_gamma_ladder([s_values], z)
        for i, s in enumerate(s_values):
            for j, zj in enumerate(z):
                ref = _scaled_gamma_ref(s, zj)
                assert abs(got[i, j] - ref) <= 1e-13 * abs(ref), (s, zj)

    @pytest.mark.parametrize("orders", [[-1.25], [-1.5, -1.0]], ids=["off-lattice", "mixed"])
    def test_rejects_off_lattice_orders(self, orders):
        with pytest.raises(QuadratureError):
            upper_gamma_ladder([[0.5], orders], np.array([1j, 3j]))

    def test_real_reference_agrees_with_the_recurrence_walk(self):
        # With z as an mpf, 40-digit gammainc gives S(−40, 201.7) as
        # 0.0041315, against 0.0041232 from the walk down from S(0, z).
        ref = _gamma_column_ref(0.0, -40.0, 201.7)[-40.0]
        assert abs(_scaled_gamma_ref(-40.0, 201.7) - ref) <= 1e-13 * abs(ref)

    def test_columns_on_both_lattices_match_their_lone_runs(self):
        z = 1j * np.geomspace(0.1, 40.0, 11)
        half, whole = upper_gamma_ladder([self.S, [-3.0, 0.0]], z)
        assert np.array_equal(half, upper_gamma_ladder([self.S], z)[0])
        assert np.array_equal(whole, upper_gamma_ladder([[-3.0, 0.0]], z)[0])

    @pytest.mark.parametrize("z", [1j * np.geomspace(2.0, 1e6, 40),
                                   np.geomspace(1.0, 1e3, 40) * np.exp(0.3j),
                                   np.geomspace(1.0, 1e3, 40)],
                             ids=["imaginary", "complex", "real"])
    def test_order_rows_equal_their_lone_runs(self, z):
        # Each element of an (orders × z) batch stops at its own step.
        s = np.array([-5.5, -2.5, -1.0, 0.5])
        rows = _scaled_upper_gamma(s[:, None], z)
        assert rows.shape == (s.size, z.size)
        for si, row in zip(s, rows):
            assert np.array_equal(row, _scaled_upper_gamma(float(si), z))
            for zj, value in zip(z[::9], row[::9]):
                assert _scaled_upper_gamma(float(si), zj[None])[0] == value

    @pytest.mark.parametrize("unit", [1.0, np.exp(0.3j), np.exp(-0.3j), np.exp(0.6j),
                                      np.exp(1.2j), 1j, -1j],
                             ids=["real", "0.3", "-0.3", "0.6", "1.2", "upper", "lower"])
    def test_continued_fraction_matches_mpmath(self, unit):
        # The fraction runs at a column's lowest order, at most the anchor
        # 1/2, for |z| ≥ 2.  Its depth comes from |z| alone, and the lowest
        # orders converge the slowest at large |z|.
        z = np.geomspace(2.0, 1e4, 41) * unit
        for anchor, orders in ((0.5, np.arange(-6.5, 1.0)),
                               (0.0, np.concatenate([[-40.0, -20.0, -10.0], np.arange(-6.0, 1.0)]))):
            got = _scaled_upper_gamma(orders[:, None], z)
            for j, zj in enumerate(z):
                ref = _gamma_column_ref(anchor, orders.min(), zj)
                for i, s in enumerate(orders):
                    assert abs(got[i, j] - ref[s]) <= 1e-15 * abs(ref[s]), (s, zj)

    def test_power_tail_matches_the_incomplete_gamma_form(self):
        # ∫_T^∞ t^λ e^{−iat} dt = (ia)^{−λ−1}·Γ(λ+1, iaT) at 40 digits, for a
        # half-integer and an integer ladder on both sides of |aT| = 2.  T is
        # a power of 2, so a·T is exact and the phase carries no rounding.
        t0 = 4.0
        ladders = [[0.5, -0.5, -1.5, -2.5, -3.5], [-2.0, -3.0]]
        coeffs = [[1.0 - 2.0j, 0.5j, -3.0, 2.0 + 1.0j, 0.25], [1.5, -1.0 + 0.5j]]
        freq = np.concatenate([np.geomspace(1e-5, 1e4, 25), -np.geomspace(1e-5, 1e4, 8),
                               np.linspace(0.45, 0.55, 5)])
        got = power_tail(coeffs, ladders, freq, t0)
        with mpmath.workdps(40):
            for c, lam, row in zip(coeffs, ladders, got):
                for a, value in zip(freq, row):
                    ia = mpmath.mpc(0, a)
                    terms = [mpmath.mpmathify(ck) * ia ** (-lk - 1)
                             * mpmath.gammainc(lk + 1, a=ia * t0) for ck, lk in zip(c, lam)]
                    ref = complex(mpmath.fsum(terms))
                    scale = max(abs(complex(term)) for term in terms)
                    assert abs(value - ref) <= 1e-13 * scale, (lam, a)


class TestContourCoefficients:
    def test_exponential(self):
        c = contour_coefficients(np.exp, 1.0, 8)
        ref = np.array([1.0 / math.factorial(j) for j in range(8)])
        assert np.abs(c - ref).max() < 1e-12

    def test_geometric(self):
        c = contour_coefficients(lambda z: 1.0 / (1.0 - z), 0.5, 6)
        assert np.abs(c - 1.0).max() < 1e-12

    def test_no_aliasing_at_the_split_radius(self):
        # (1 − u)^{−1/2} = Σ C(2j, j)/4^j·u^j has its singularity at |u| = 1,
        # as the split's pole factor does; at the split's radius 0.4 the rule
        # aliases c_j with c_{j+N}·0.4^N, about 2e-14 at N = 32 nodes.  Only
        # j ≤ 2 are compared: rounding grows like 0.4^{−j}.
        c = contour_coefficients(lambda u: (1.0 - u) ** -0.5, 0.4, 3)
        ref = np.array([math.comb(2 * j, j) / 4.0 ** j for j in range(3)])
        assert np.abs(c - ref).max() <= 1e-15

    def test_non_analytic_detected(self):
        with pytest.raises(QuadratureError):
            contour_coefficients(lambda z: np.abs(z) ** 2, 0.5, 4)


class TestBracketedRoot:
    def test_sqrt2(self):
        root = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) < 1e-12

    def test_affine_one_secant_step(self):
        calls = []

        def f(x):
            calls.append(x)
            return 2.0 * x - 1.0

        root = bracketed_root(f, 0.0, 2.0)
        assert root == 0.5
        assert len(calls) == 3  # two endpoints + the exact secant hit

    def test_surface_function_bracket(self):
        root = bracketed_root(lambda m: lambda_surface(-0.9, 0.707, m), 0.2, 0.6)
        assert abs(root - 0.441) < 5e-3

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_scalar_bracket_gives_float(self):
        root = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert type(root) is float

    def test_array_matches_scalar_calls_bitwise(self):
        # f_i(x) = q_i·(x − c_i)³ + s_i·(x − c_i): element 0 has its lower end
        # on the root, element 1 its upper end, element 2 is affine (one
        # secant step), elements 3-4 are triple roots (interpolation
        # converges only linearly there, so the bracket shrinks slowly and
        # mostly by bisection) and element 5 is mixed.
        c = np.array([0.25, 1.5, 0.5, 0.7, -0.3, 0.9])
        q = np.array([1.0, 1.0, 0.0, 1.0, 3.0, 1.0])
        s = np.array([1.0, 2.0, 2.0, 0.0, 0.0, 1e-3])
        lo = np.array([0.25, -1.0, 0.0, -1.3, -2.0, 0.0])
        hi = np.array([2.0, 1.5, 2.0, 2.0, 0.4, 3.0])

        def f(x, i=slice(None)):
            d = x - c[i]
            return q[i] * d * d * d + s[i] * d

        steps = []
        ref = []
        for i in range(c.size):
            calls = []
            ref.append(bracketed_root(lambda x: calls.append(x) or f(x, i),
                                      lo[i], hi[i]))
            steps.append(len(calls))
        got = bracketed_root(f, lo, hi)
        assert got.dtype == float and got.shape == c.shape
        assert np.array_equal(got, np.array(ref))
        assert got[0] == 0.25 and got[1] == 1.5 and got[2] == 0.5
        assert steps[:3] == [1, 2, 3]
        assert min(steps[3:5]) > 40  # bisection fallbacks, not superlinear steps

    @pytest.mark.parametrize("tol", [0.0, 1e-20])
    def test_tol_below_float_resolution(self, tol):
        # The bracket stops at two float spacings, the narrowest with a float
        # strictly inside, instead of running all 300 steps: where the solver
        # it replaced was given a tol below the float spacing at the root, it
        # stopped there too, with the same root after the same calls.
        calls, ref_calls = [], []
        root = bracketed_root(lambda x: calls.append(x) or x * x - 2.0, 1.0, 2.0)
        ref = reference_roots.bracketed_root(
            lambda x: ref_calls.append(x) or x * x - 2.0, 1.0, 2.0, tol=tol)
        assert root == math.sqrt(2.0) == ref
        assert calls == ref_calls
        assert len(calls) <= 12

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(-5.0, 5.0), k=st.floats(0.1, 10.0),
           b=st.floats(0.0, 5.0), s=st.sampled_from([-1e3, -1.0, 1e-3, 1.0]),
           below=st.floats(1e-3, 3.0), above=st.floats(1e-3, 3.0))
    def test_smooth_bracket_property(self, c, k, b, s, below, above):
        # f increases (s > 0) or decreases through its one root c, and its
        # float values change sign exactly at c; the returned end lies
        # within two float spacings of c and has the smaller |f| of the
        # final bracket's two ends.
        def f(x):
            d = x - c
            return s * (np.expm1(k * d) + b * d * d * d)

        seen = []
        root = bracketed_root(lambda x: seen.append(x) or f(x), c - below, c + above)
        assert abs(root - c) <= 2.0 * np.spacing(abs(c) + 3.0)
        fr = f(root)
        if fr != 0.0:
            # The final bracket's other end is the nearest evaluated point
            # where f has the other sign.
            other = min((x for x in seen if np.sign(f(x)) == -np.sign(fr)),
                        key=lambda x: abs(x - root))
            assert abs(fr) <= abs(f(other))
            assert abs(other - root) <= 2.0 * np.spacing(max(abs(root), abs(other)))

    def test_brackets_broadcast(self):
        roots = bracketed_root(lambda x: x * x - np.array([[2.0], [3.0]]),
                               1.0, np.array([[2.0], [2.0]]))
        assert roots.shape == (2, 1)
        assert roots[:, 0] == pytest.approx([math.sqrt(2.0), math.sqrt(3.0)], rel=1e-12)

    def test_any_bracket_without_sign_change(self):
        with pytest.raises(BracketError, match=r"\[1.0, 2.0\]"):
            bracketed_root(lambda x: x * x - np.array([2.0, -1.0, 3.0]),
                           np.ones(3), np.array([2.0, 2.0, 2.0]))


def _family(p):
    """f(x) = ±scale·(q·d³ + s·d − r), d = x − c, zero on |d| < flat and NaN
    on [na, nb]; ``p`` holds scalars (one bracket) or arrays (a batch)."""
    def f(x):
        d = x - p["c"]
        y = p["sign"] * p["scale"] * (p["q"] * d * d * d + p["s"] * d - p["r"])
        y = np.where(np.abs(d) < p["flat"], 0.0, y)
        return np.where((p["na"] <= x) & (x <= p["nb"]), np.nan, y)
    return f


def _bits(out):
    """A BracketError message as it is, a root (float or array) as bytes."""
    return out if isinstance(out, str) else np.asarray(out).tobytes()


def _solve_counted(solver, f, lo, hi, **options):
    """(result or BracketError message, the points f was called with)."""
    calls = []
    try:
        out = solver(lambda x: calls.append(np.copy(x)) or f(x), lo, hi, **options)
    except BracketError as exc:
        out = str(exc)
    return out, calls


_ELEMENT = st.fixed_dictionaries({
    # Dyadic roots, which the steps can hit exactly, and arbitrary ones.
    "c": st.integers(-64, 64).map(lambda k: k / 16.0) | st.floats(-4.0, 4.0),
    # Affine (q = 0), triple (s = 0), mixed; f ≡ 0 when both vanish.
    "q": st.sampled_from([0.0, 1.0, 3.0]),
    "s": st.sampled_from([0.0, 1e-3, 1.0, 2.0]),
    # r ≠ 0 moves the root off the float c, so that it is seldom hit.
    "r": st.sampled_from([0.0, 1e-3 / 3.0]),
    "sign": st.sampled_from([1.0, -1.0]),
    # 1e-170 underflows f1·f2, so brackets without a sign change pass too.
    "scale": st.sampled_from([1.0, 1.0, 1e-170]),
    # A zero interval around c, which a step hits mid-run.
    "flat": st.sampled_from([0.0, 0.0, 0.0, 1e-3, 0.1]),
    # Ends on the root (0), near it, or far from it.
    "below": st.sampled_from([0.0, 1e-9]) | st.floats(1e-3, 3.0) | st.floats(1e-3, 3.0),
    "above": st.sampled_from([0.0, 1e-9]) | st.floats(1e-3, 3.0) | st.floats(1e-3, 3.0),
    # NaN on a sub-interval (or nowhere), which may cover an end.
    "nan": st.none() | st.none() | st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 0.5)),
    "flip": st.booleans(),
    # Both ends on one side: BracketError, unless f1·f2 underflows.
    "one_side": st.sampled_from([False] * 9 + [True]),
})


def _brackets(elements):
    """Per-element parameters and bracket ends, as arrays."""
    p = {k: np.array([e[k] for e in elements]) for k in
         ("c", "q", "s", "r", "sign", "scale", "flat")}
    p["na"] = np.array([np.inf if e["nan"] is None else e["c"] + e["nan"][0]
                        for e in elements])
    p["nb"] = np.array([-np.inf if e["nan"] is None else e["c"] + e["nan"][0] + e["nan"][1]
                        for e in elements])
    lo = np.array([e["c"] + (0.5 + e["below"] if e["one_side"] else -e["below"])
                   for e in elements])
    hi = np.array([e["c"] + e["above"] + (0.6 + e["below"] if e["one_side"] else 0.0)
                   for e in elements])
    flip = np.array([e["flip"] for e in elements])
    return p, np.where(flip, hi, lo), np.where(flip, lo, hi)


class TestBracketedRootAgainstReference:
    """The lockstep step against the solver it replaced, kept verbatim in
    ``reference_roots`` and run there at tol 0, its two-spacing width limit:
    the same result bits (or the same BracketError) and the same number of
    ``f`` calls, for one bracket and for a batch."""

    @settings(max_examples=150, deadline=None)
    @given(elements=st.lists(_ELEMENT, min_size=1, max_size=4))
    def test_same_bits_and_calls(self, elements):
        p, lo, hi = _brackets(elements)
        with np.errstate(all="ignore"):
            for i in range(len(elements)):
                one = _family({k: v[i] for k, v in p.items()})
                got, calls = _solve_counted(bracketed_root, one, lo[i], hi[i])
                ref, ref_calls = _solve_counted(reference_roots.bracketed_root, one,
                                                lo[i], hi[i], tol=0.0)
                assert type(got) is type(ref) and _bits(got) == _bits(ref)
                assert len(calls) == len(ref_calls)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(calls, ref_calls))
            got, calls = _solve_counted(bracketed_root, _family(p), lo, hi)
            ref, ref_calls = _solve_counted(reference_roots.bracketed_root, _family(p),
                                            lo, hi, tol=0.0)
        assert type(got) is type(ref) and _bits(got) == _bits(ref)
        assert isinstance(ref, str) or (got.dtype == float and got.shape == ref.shape)
        assert len(calls) == len(ref_calls)

    def test_edge_brackets_held_beside_a_slow_one(self):
        # Brackets that finish at once or early while a triple root runs
        # on: the lower end on the root and the upper one NaN; a NaN
        # interval that ends on the root; a root at -0.0, the lower end.
        nan = [(0.5, 1.0), (-0.5, 0.0), None, None]
        p = {"c": np.array([0.0, 0.0, -0.0, 0.3]), "q": np.array([0.0, 0.0, 0.0, 1.0]),
             "s": np.array([1.0, 1.0, 1.0, 0.0]), "r": 0.0, "sign": 1.0, "scale": 1.0,
             "flat": 0.0, "na": np.array([np.inf if w is None else w[0] for w in nan]),
             "nb": np.array([-np.inf if w is None else w[1] for w in nan])}
        lo, hi = np.array([0.0, -1.0, -0.0, -1.0]), np.array([1.0, 1.0, 1.0, 2.0])
        with np.errstate(all="ignore"):
            got, calls = _solve_counted(bracketed_root, _family(p), lo, hi)
            ref, ref_calls = _solve_counted(reference_roots.bracketed_root, _family(p),
                                            lo, hi, tol=0.0)
        assert _bits(got) == _bits(ref) and len(calls) == len(ref_calls) > 40


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        oscillatory_halfline(lambda t: np.exp(-t)[None], 0.0, [()], FIT_START)
