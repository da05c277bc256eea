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
from crackwave.numerics import (_bessel_table, _upper_gamma_half, bracketed_root,
                                contour_coefficients, fit_power_tail,
                                oscillatory_halfline, power_tail, scaled_upper_gamma)
from crackwave.material import lambda_surface
from reference_quadrature import averaged_halfline

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
NO_TAIL = ((), 0.0)        # the fit of an empty ladder


def _beyond_step(t):
    """t^{−3/2} beyond STEP, as one stacked column."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(t > STEP, np.abs(t) ** -1.5, 0.0)[None]


def _beyond_step_exact(a):
    """∫_e^∞ t^{−3/2} e^{−iat} dt = (ia)^{1/2}·Γ(−1/2, iae), e = STEP."""
    return complex(mpmath.sqrt(1j * a) * mpmath.gammainc(-0.5, a=1j * a * STEP))


def _on_step(g):
    """g on [0, STEP) and 0 beyond, as one stacked column."""
    return lambda t: np.where(np.asarray(t) < STEP, g(np.asarray(t)), 0.0)[None]


def _fits(f, ladders):
    """Tail fits of the stacked columns of ``f`` on [100, T]."""
    ts = np.geomspace(100.0, T, numerics.TAIL_FIT_POINTS)
    vals = np.asarray(f(ts), dtype=complex)
    return [fit_power_tail(ts, v, lam) for v, lam in zip(vals, ladders)]


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
        val, _ = oscillatory_halfline(_beyond_step, T, [SLOW_LADDER],
                                      _fits(_beyond_step, [SLOW_LADDER]))(0.05)
        assert abs(val[0] - _beyond_step_exact(0.05)) < 1e-9

    def test_sqrt_singular_head(self):
        def f(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore"):
                return np.exp(-t) / np.sqrt(t)

        val, _ = averaged_halfline(f, 3.0, sqrt_singularity=True)
        assert abs(val - OSC_SING) < 1e-9

    def test_finite_support_polynomial(self):
        val, err = oscillatory_halfline(_on_step(lambda t: t * t), T, [()], [NO_TAIL])(0.0)
        assert abs(val[0] - STEP**3 / 3.0) <= max(err[0], 1e-14)

    def test_finite_support_complex_integrand(self):
        val, _ = oscillatory_halfline(_on_step(lambda t: np.exp(1j * t)), T,
                                      [()], [NO_TAIL])(0.0)
        assert abs(val[0] - (np.exp(1j * STEP) - 1.0) / 1j) < 1e-10

    def test_error_estimate_honest(self):
        # Polynomial and t^{−1/2}-singular integrands, both through the √t head.
        for g, exact in ((lambda t: t * t, STEP**3 / 3.0),
                         (lambda t: t ** -0.5, 2.0 * math.sqrt(STEP))):
            val, err = oscillatory_halfline(_on_step(g), T, [()], [NO_TAIL])(0.0)
            assert abs(val[0] - exact) <= max(err[0], 1e-13)

    def test_determinism(self):
        f = lambda t: 1.0 / (1.0 + np.asarray(t) ** 2)
        a = averaged_halfline(f, 2.0)
        b = averaged_halfline(f, 2.0)
        assert a == b


class TestBatchedHalfline:
    FITS = _fits(_beyond_step, [SLOW_LADDER])

    def test_array_frequency_matches_closed_form_and_scalar_calls(self):
        a = np.array([0.05, 1.0, 10.0])
        transform = oscillatory_halfline(_beyond_step, T, [SLOW_LADDER], self.FITS)
        vals, errs = transform(a)
        assert vals.shape == errs.shape == (1,) + a.shape
        for ai, v, e in zip(a, vals[0], errs[0]):
            exact = _beyond_step_exact(ai)
            assert abs(v - exact) < 1e-13
            assert abs(v - exact) <= e
            scalar, scalar_err = oscillatory_halfline(
                _beyond_step, T, [SLOW_LADDER], self.FITS)(float(ai))
            assert scalar.shape == scalar_err.shape == (1,)
            assert scalar[0] == v and scalar_err[0] == e

    def test_every_column_needs_a_ladder_and_a_fit(self):
        with pytest.raises(ValueError, match="1 columns need as many ladders and fits"):
            oscillatory_halfline(_beyond_step, T, [SLOW_LADDER] * 2, self.FITS * 2)
        with pytest.raises(ValueError):
            oscillatory_halfline(_beyond_step, T, [SLOW_LADDER], [])

    def test_high_frequencies_up_to_the_head_limit(self):
        # The Filon body resolves any frequency; the head [0, 1e-6] spans
        # more than two periods once |a| > 4π·1e6.
        a = np.array([1e3, 1e5, 1.2e7])
        transform = oscillatory_halfline(_beyond_step, T, [SLOW_LADDER], self.FITS)
        vals, errs = transform(a)
        for ai, v, e in zip(a, vals[0], errs[0]):
            exact = _beyond_step_exact(ai)
            assert abs(v - exact) < 1e-14
            assert abs(v - exact) <= e
        with pytest.raises(QuadratureError):
            transform(np.array([1.0, 1.3e7]))

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
        fits = _fits(self._columns, self.LADDERS)
        vals, errs = oscillatory_halfline(self._columns, T, self.LADDERS, fits)(freq)
        assert vals.shape == errs.shape == (3,) + np.shape(freq)
        for c, (lam, fit) in enumerate(zip(self.LADDERS, fits)):
            single, single_err = oscillatory_halfline(
                lambda t, c=c: self._columns(t)[c:c + 1], T, [lam], [fit])(freq)
            assert np.all(np.abs(vals[c] - single[0]) <= 1e-15 * np.abs(single[0]))
            assert np.all(np.abs(errs[c] - single_err[0]) <= 1e-15 * single_err[0])

    def test_columns_share_one_moment_table(self, monkeypatch):
        built = []
        real = numerics._bessel_table
        monkeypatch.setattr(numerics, "_bessel_table",
                            lambda x: built.append(np.shape(x)) or real(x))
        fits = _fits(self._columns, self.LADDERS)
        transform = oscillatory_halfline(self._columns, T, self.LADDERS, fits)
        transform(np.array([1.0, 2.0]))
        assert len(built) == 1
        transform(np.array([0.0, 0.0]))
        assert len(built) == 1  # every frequency 0: plain Gauss sums, no table

    def test_calls_of_one_transform_match_one_call_on_their_union(self):
        # A's frequencies sit in other row blocks of the union than of their
        # own call; a zero frequency takes the plain sums in both.
        transform = oscillatory_halfline(self._columns, T, self.LADDERS,
                                         _fits(self._columns, self.LADDERS))
        A = np.array([0.05, 3e3, 0.0, 1.0])
        B = np.geomspace(1e-4, 1e4, 37)
        val_u, err_u = transform(np.concatenate([B[:20], A, B[20:]]))
        for part, cols in ((A, np.r_[20:24]), (B, np.r_[0:20, 24:41])):
            val, err = transform(part)
            assert np.array_equal(val, val_u[:, cols])
            assert np.array_equal(err, err_u[:, cols])

    def test_one_continued_fraction_batch_per_call(self, monkeypatch):
        runs = []
        real = numerics.scaled_upper_gamma
        monkeypatch.setattr(numerics, "scaled_upper_gamma",
                            lambda s, z: runs.append(np.shape(z)) or real(s, z))
        freq = np.array([1e-4, 0.05, 1.0, 3e3])   # |a·T| on both sides of 2
        for cols in (slice(0, 1), slice(0, 3)):
            runs.clear()
            columns = lambda t, cols=cols: self._columns(t)[cols]
            ladders = self.LADDERS[cols]
            oscillatory_halfline(columns, T, ladders, _fits(columns, ladders))(freq)
            assert len(runs) == 1


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


class TestUpperGamma:
    S = np.arange(-5.5, 2.0, 1.0)
    # Both sides of the switch from the series to the continued fraction at
    # |z| = 2, where each recurrence loses the most.
    Y = np.concatenate([np.geomspace(1e-5, 4e6, 60), np.linspace(3.9, 4.1, 21),
                        np.linspace(0.5, 5.0, 46)])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
    def test_matches_mpmath_on_the_imaginary_axis(self, sign):
        z = 1j * sign * self.Y
        (got,) = _upper_gamma_half([self.S], z)
        for i, s in enumerate(self.S):
            for j, zj in enumerate(z):
                ref = complex(mpmath.gammainc(s, a=zj))
                assert abs(got[i, j] - ref) <= 1e-13 * abs(ref), (s, zj)

    def test_rejects_non_half_integer_orders(self):
        with pytest.raises(QuadratureError):
            _upper_gamma_half([[-1.25]], np.array([1j]))

    @pytest.mark.parametrize("z", [1j * np.geomspace(2.0, 1e6, 40),
                                   np.geomspace(1.0, 1e3, 40) * np.exp(0.3j),
                                   np.geomspace(1.0, 1e3, 40)],
                             ids=["imaginary", "complex", "real"])
    def test_order_rows_equal_their_lone_runs(self, z):
        # Each element of an (orders × z) batch stops at its own step.
        s = np.array([-5.5, -2.5, -1.0, 0.5])
        rows = scaled_upper_gamma(s[:, None], z)
        assert rows.shape == (s.size, z.size)
        for si, row in zip(s, rows):
            assert np.array_equal(row, scaled_upper_gamma(float(si), z))
            for zj, value in zip(z[::9], row[::9]):
                assert scaled_upper_gamma(float(si), zj[None])[0] == value


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
        root = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-13)
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
        root = bracketed_root(lambda m: lambda_surface(-0.9, 0.707, m),
                              0.2, 0.6, tol=1e-12)
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
                                      lo[i], hi[i], tol=1e-13))
            steps.append(len(calls))
        got = bracketed_root(f, lo, hi, tol=1e-13)
        assert got.dtype == float and got.shape == c.shape
        assert np.array_equal(got, np.array(ref))
        assert got[0] == 0.25 and got[1] == 1.5 and got[2] == 0.5
        assert steps[:3] == [1, 2, 3]
        assert min(steps[3:5]) > 40  # bisection fallbacks, not superlinear steps

    @pytest.mark.parametrize("tol", [0.0, 1e-20])
    def test_tol_below_float_resolution(self, tol):
        # A tol below the float spacing at the root stops at a bracket of
        # two spacings, the narrowest with a float strictly inside, instead
        # of running all 300 steps.
        calls = []
        root = bracketed_root(lambda x: calls.append(x) or x * x - 2.0, 1.0, 2.0, tol=tol)
        assert root == math.sqrt(2.0)
        assert len(calls) <= 12

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(-5.0, 5.0), k=st.floats(0.1, 10.0),
           b=st.floats(0.0, 5.0), s=st.sampled_from([-1e3, -1.0, 1e-3, 1.0]),
           below=st.floats(1e-3, 3.0), above=st.floats(1e-3, 3.0),
           digits=st.integers(4, 13))
    def test_smooth_bracket_property(self, c, k, b, s, below, above, digits):
        # f increases (s > 0) or decreases through its one root c, and its
        # float values change sign exactly at c; the returned end lies
        # within tol of c and has the smaller |f| of the final bracket's
        # two ends.
        def f(x):
            d = x - c
            return s * (np.expm1(k * d) + b * d * d * d)

        seen = []
        tol = 10.0 ** -digits
        root = bracketed_root(lambda x: seen.append(x) or f(x), c - below, c + above, tol=tol)
        assert abs(root - c) <= max(tol, 2.0 * np.spacing(abs(c) + 3.0))
        fr = f(root)
        if fr != 0.0:
            # The final bracket's other end is the nearest evaluated point
            # where f has the other sign.
            other = min((x for x in seen if np.sign(f(x)) == -np.sign(fr)),
                        key=lambda x: abs(x - root))
            assert abs(fr) <= abs(f(other))
            assert abs(other - root) <= max(tol, 2.0 * np.spacing(max(abs(root), abs(other))))

    def test_brackets_broadcast(self):
        roots = bracketed_root(lambda x: x * x - np.array([[2.0], [3.0]]),
                               1.0, np.array([[2.0], [2.0]]))
        assert roots.shape == (2, 1)
        assert roots[:, 0] == pytest.approx([math.sqrt(2.0), math.sqrt(3.0)], rel=1e-12)

    def test_any_bracket_without_sign_change(self):
        with pytest.raises(BracketError, match=r"\[1.0, 2.0\]"):
            bracketed_root(lambda x: x * x - np.array([2.0, -1.0, 3.0]),
                           np.ones(3), np.array([2.0, 2.0, 2.0]))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        oscillatory_halfline(lambda t: np.exp(-t)[None], 0.0, [()], [NO_TAIL])
