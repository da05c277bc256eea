"""Crack symbol and its Cauchy-integral factorization.

The factorization machinery is checked against an exactly factorizable
rational kernel (closed-form factors and boundary phase) in addition to the
physical symbol's own identities.  Both kernels are even, so the lower
factor off the axis is k⁻(z) = 1/k⁺(−z).
"""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackwave.errors import DomainError, RegimeError
from crackwave.kernel import (CauchyFactorization, KernelParams, factorize,
                              sqrt_minus, sqrt_plus, wave_exponents)
from crackwave.material import critical_speed
from crackwave.numerics import CONTOUR_NODES, row_blocks

RATIONAL_A, RATIONAL_B = 2.0, 1.0


def rational_kernel(t):
    t = np.asarray(t, dtype=float)
    return (t * t + RATIONAL_A**2) / (t * t + RATIONAL_B**2)


def rational_kplus(z):
    return (z + 1j * RATIONAL_B) / (z + 1j * RATIONAL_A)


def rational_kminus(z):
    return (z - 1j * RATIONAL_A) / (z - 1j * RATIONAL_B)


@pytest.fixture(scope="module")
def rational():
    # log k = log(1 + (A² − B²)/(t² + B²)) ~ (A² − B²)/t².
    return CauchyFactorization(rational_kernel, xi_hi=4e3,
                               c2=RATIONAL_A**2 - RATIONAL_B**2)


class TestBranches:
    def test_branch_values(self):
        assert sqrt_plus(-1j) == pytest.approx(np.exp(-0.25j * np.pi))
        assert sqrt_plus(-4.0) == pytest.approx(2j)
        assert sqrt_minus(-4.0) == pytest.approx(-2j)
        assert sqrt_minus(-1j * 9.0) == pytest.approx(3.0 * np.exp(-0.25j * np.pi))

    def test_product_is_modulus_on_axis(self):
        xi = np.concatenate([-np.geomspace(1e-3, 1e3, 500),
                             np.geomspace(1e-3, 1e3, 500)])
        prod = sqrt_plus(xi) * sqrt_minus(xi)
        assert np.abs(prod - np.abs(xi)).max() < 1e-12 * np.abs(xi).max()

    @given(st.complex_numbers(max_magnitude=50.0, allow_subnormal=False))
    @settings(max_examples=200, deadline=None)
    def test_squares(self, z):
        if abs(z) < 1e-12:
            return
        assert sqrt_plus(z) ** 2 == pytest.approx(z, rel=1e-10)
        assert sqrt_minus(z) ** 2 == pytest.approx(z, rel=1e-10)


class TestKernelParams:
    def test_super_shear_rejected(self):
        with pytest.raises(RegimeError):
            KernelParams(m=1.0, eta=0.0, h0=0.0)

    def test_super_rayleigh_rejected(self):
        mc = critical_speed(-0.9, 0.707)
        with pytest.raises(RegimeError):
            KernelParams(m=0.6, eta=-0.9, h0=0.707)
        KernelParams(m=0.99 * mc, eta=-0.9, h0=0.707)  # fine below

    def test_derived(self):
        p = KernelParams(m=0.0, eta=0.0, h0=0.5)
        assert p.nu == 1.0
        assert p.u == 1.0
        # Upsilon(0, 0.5, 0) = 3/2.
        assert p.zeta == pytest.approx(math.sqrt(4.0 / 3.0))
        assert p.psi(0.0) == 2.0

    def test_nan_speed_rejected(self):
        with pytest.raises(DomainError):
            KernelParams(m=float("nan"), eta=0.0, h0=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["m", "eta", "h0"])
    def test_non_finite_parameter_named(self, name, value):
        # A NaN h0 once made upsilon NaN, which every regime check let pass.
        point = {"m": 0.3, "eta": 0.0, "h0": 0.5, name: value}
        with pytest.raises(DomainError, match=rf"^{name} must be finite"):
            KernelParams(**point)


def _mp_symbol_parts(m, eta, h0, t):
    """A(t) = k(t)·Psi(t) and Upsilon at the float point (m, eta, h0), in the
    working precision; t is an mpf."""
    m, eta, h0 = (mpmath.mpf(float(v)) for v in (m, eta, h0))
    x2, hm2 = t * t, (h0 * m) ** 2
    chi = mpmath.sqrt(1 + 2 * (1 - h0 * h0) * m * m * x2 + hm2 * hm2 * x2 * x2)
    a2 = 1 + (1 - hm2) * x2 + chi
    b2 = 1 + (1 - hm2) * x2 - chi
    alpha, beta = mpmath.sqrt(a2), mpmath.sqrt(b2)
    num = alpha * beta * (a2 + b2 + 2 * eta * x2) + a2 * b2 - eta * eta * x2 * x2
    u = mpmath.sqrt(1 - 2 * hm2)
    ups = (1 - eta * eta - 2 * hm2 + 2 * u * (1 + eta - hm2)) / (1 + u)
    return num / (t * (alpha + beta)), ups


def _limit_at_infinity(f):
    """lim f(t) for f = c + d/t² + O(t⁻⁴), in 50 digits, Richardson-
    extrapolated from t = 1e8 and 2e8."""
    with mpmath.workdps(50):
        return float((4 * f(mpmath.mpf(2e8)) - f(mpmath.mpf(1e8))) / 3)


class TestLargeXiCoefficients:
    def test_a0_matches_50_digit_expansion(self):
        # a0 = c2·Upsilon + 2·nu against lim A(t) − Upsilon·t² (A = k·Psi)
        # over random sub-Rayleigh points, with h0 = 0 included and m up to
        # (1 − 1e-8)·m_c.  Rounding 1 − 2h0²m² moves u, and a0 ∝ 1/u as
        # u → 0, by eps/u² relative: u → 0 at m_c for eta → 0.
        rng = np.random.default_rng(7)
        for i in range(300):
            eta = rng.uniform(-0.99, 0.99)
            h0 = 0.0 if i % 10 == 0 else rng.uniform(0.0, 1.5)
            frac = rng.uniform() if i % 2 else 1.0 - 10.0 ** rng.uniform(-8.0, -1.0)
            p = KernelParams(m=frac * min(critical_speed(eta, h0), 1.0 - 1e-8),
                             eta=eta, h0=h0)

            def excess(t):
                a, ups = _mp_symbol_parts(p.m, eta, h0, t)
                return a - ups * t * t

            ref = _limit_at_infinity(excess)
            a0 = p.c2 * p.upsilon + 2.0 * p.nu
            tol = 1e-10 + np.finfo(float).eps / p.u**2
            assert abs(a0 - ref) <= tol * abs(ref), (eta, h0, p.m)

    @pytest.mark.parametrize("eta,h0,frac", [
        (0.9, 0.8, 0.5), (-0.9, 0.707, 0.5), (-0.9, 0.707, 0.9999),
        (-0.9, 0.707, 0.9999999)])
    def test_c2_is_the_large_xi_coefficient_of_log_k(self, eta, h0, frac):
        # c2 = lim t²·log k(t).  At 0.9999999·m_c the two-sample fit of log k
        # at t_cut/2 and t_cut gave −6.08e4 there; Upsilon = 3.9e-8 carries
        # eps/Upsilon ≈ 6e-9 of rounding into c2.
        p = KernelParams(m=frac * critical_speed(eta, h0), eta=eta, h0=h0)

        def t2_log_k(t):
            a, ups = _mp_symbol_parts(p.m, eta, h0, t)
            nu = mpmath.sqrt(1 - mpmath.mpf(p.m) ** 2)
            return t * t * mpmath.log(a / (ups * t * t + 2 * nu))

        assert p.c2 > 0.0
        assert p.c2 == pytest.approx(_limit_at_infinity(t2_log_k), rel=1e-8)


class TestKernelEval:
    def test_origin(self, kernel_factory):
        chi, alpha, beta2 = wave_exponents(0.0, 0.3, 0.707)
        assert chi == pytest.approx(1.0)
        assert alpha == pytest.approx(math.sqrt(2.0))
        assert beta2 == pytest.approx(0.0)
        psi = kernel_factory(0.3, 0.9, 0.707).params.psi(0.0)
        assert psi == pytest.approx(2.0 * math.sqrt(1.0 - 0.09))
        assert kernel_factory(0.3, 0.9, 0.707).k_real(0.0) == pytest.approx(1.0)

    def test_static_collapse(self):
        xi = np.array([0.5, 3.0, 40.0])
        chi, alpha, beta2 = wave_exponents(xi, 0.0, 0.3)
        assert chi == pytest.approx(1.0)
        assert alpha == pytest.approx(np.sqrt(2.0 + xi * xi))
        assert np.sqrt(beta2) == pytest.approx(np.abs(xi))

    def test_large_xi_near_unity(self, kernel_factory):
        k = kernel_factory(0.3, 0.9, 0.707)
        assert abs(k.k_real(1e3) - 1.0) <= 1e-2
        assert abs(k.k_real(-1e3) - 1.0) <= 1e-2

    def test_small_xi_beta_keeps_relative_accuracy(self):
        # beta ~ sqrt(1 - m²)·xi as xi -> 0; base - chi would cancel to 0.
        m = 0.3
        _, _, beta2 = wave_exponents(1e-9, m, 0.707)
        assert math.sqrt(beta2) / (math.sqrt(1.0 - m * m) * 1e-9) \
            == pytest.approx(1.0, abs=1e-12)

    def test_psi_zero_matches_zeta(self, kernel_factory):
        params = kernel_factory(0.3, 0.9, 0.707).params
        assert abs(params.psi(1j * params.zeta)) < 1e-10
        assert params.psi(np.array([2.0])) \
            == pytest.approx(4.0 * params.upsilon + 2.0 * params.nu)

    def test_evenness(self, kernel_factory):
        k = kernel_factory(0.3, 0.9, 0.707)
        xi = np.geomspace(1e-3, 1e3, 1000)
        assert np.abs(k.k_real(xi) - k.k_real(-xi)).max() < 1e-12


class TestRationalReconstruction:
    def test_factors_off_axis(self, rational):
        rng = np.random.default_rng(7)
        for _ in range(40):
            z = complex(rng.uniform(-30, 30), rng.uniform(0.02, 30))
            assert rational.k_plus(z) == pytest.approx(rational_kplus(z), abs=1e-9)
            # k⁻ at conj(z), below the axis, as 1/k⁺(−conj(z)).
            assert 1.0 / rational.k_plus(-np.conj(z)) == pytest.approx(
                rational_kminus(np.conj(z)), abs=1e-9)

    def test_boundary_values(self, rational):
        for x in np.geomspace(1e-2, 1e3, 25):
            assert rational.k_plus_line(x) == pytest.approx(rational_kplus(x), abs=1e-11)
            assert rational.k_minus_line(x) == pytest.approx(rational_kminus(x), abs=1e-11)

    def test_boundary_phase_closed_form(self, rational):
        # x ≤ 1e-3 checks the interpolant on its smallest panels, as well as
        # theta_exact.
        for x in (2e-6, 1e-5, 1e-4, 1e-3, 0.03, 0.7, 3.0, 40.0, 900.0):
            closed = math.atan2(RATIONAL_B, x) - math.atan2(RATIONAL_A, x)
            assert rational.theta_exact(x) == pytest.approx(closed, abs=1e-11)
            assert rational.theta(x) == pytest.approx(closed, abs=1e-11)

    def test_unit_kernel(self):
        cf = CauchyFactorization(lambda t: np.ones_like(np.asarray(t, float)),
                                 xi_hi=4e3, c2=0.0)
        for z in (0.5 + 0.5j, 1j, -3.0 + 2j):
            assert cf.k_plus(z) == pytest.approx(1.0, abs=1e-12)
        assert cf.k_plus_line(3.0) == pytest.approx(1.0, abs=1e-12)
        assert cf.k_minus_line(3.0) == pytest.approx(1.0, abs=1e-12)


class TestPhysicalFactorization:
    def test_identity_on_real_axis(self, kernel_factory):
        # k⁻/k⁺ = k holds on the axis whatever theta is, so that identity
        # checks nothing.  The k⁺_line that the field integrands use
        # must be the limit of the off-axis Cauchy integral; the gap is
        # O(offset), 5.2e-8 at 1e-6·x.
        k = kernel_factory(0.3, 0.9, 0.707)
        xi = np.geomspace(1e-2, 1e3, 100)
        worst = max(abs(k.k_plus(x + 1e-6j * x) - k.k_plus_line(x))
                    / abs(k.k_plus_line(x)) for x in xi)
        assert worst <= 1e-6

    def test_schwarz_symmetry(self, kernel_factory):
        k = kernel_factory(0.3, 0.9, 0.707)
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = complex(rng.uniform(-50, 50), rng.uniform(0.05, 50))
            assert k.k_plus(-np.conj(z)) == pytest.approx(
                np.conj(k.k_plus(z)), rel=1e-10, abs=1e-12)

    def test_normalization_at_origin_and_infinity(self, kernel_factory):
        # k⁺(iy) → k⁺(0) = 1 as y → 0 (log k is even and 0 at the origin);
        # 1/k⁺(−z) covers k⁻ at infinity.
        k = kernel_factory(0.3, 0.9, 0.707)
        kp0 = k.k_plus(1e-8j)
        assert kp0.imag == pytest.approx(0.0, abs=1e-14)
        assert abs(kp0 - 1.0) < 1e-7
        assert k.k_plus_line(0.0) == 1.0
        assert abs(k.k_plus(1e5j) - 1.0) < 1e-4

    @pytest.mark.parametrize("m,eta,h0", [
        (0.3, 0.9, 0.707), (0.3, -0.9, 0.707), (0.05, 0.0, 0.707),
        (0.998, 0.9, 0.01), (0.3, 0.9, 0.6)] + [
        (0.9999 * min(1.0, critical_speed(eta, 0.707)), eta, 0.707)
        for eta in (0.9, 0.5, 0.0)])
    def test_theta_spline_accuracy(self, kernel_factory, m, eta, h0):
        k = kernel_factory(m, eta, h0)
        # The last three points are at 0.9999·m_c.  η = −0.9 is left out
        # there: theta_exact itself resolves only about 2e-11 at that point.
        for x in np.geomspace(2e-6, 3e3, 40):
            assert abs(k.theta(x) - k.theta_exact(x)) < 1e-12

    def test_spline_knots_use_the_shared_node_rule(self, monkeypatch):
        # theta_exact is the independent reference; building the
        # interpolant must not lean on it.
        def refuse(self, xi):
            raise AssertionError("theta_exact called while building the interpolant")

        monkeypatch.setattr(CauchyFactorization, "theta_exact", refuse)
        factorize(KernelParams(m=0.3, eta=0.9, h0=0.707))

    def test_real_axis_factors_come_from_the_interpolant(self, kernel_factory,
                                                         monkeypatch):
        # One evaluator of the boundary value: k± on the real axis are
        # k±_line, from theta, and theta_exact stays the independent
        # reference.
        k = kernel_factory(0.3, 0.9, 0.707)
        x = np.array([-3.0, 0.2, 40.0])

        def refuse(self, xi):
            raise AssertionError("theta_exact called for a real-axis factor")

        monkeypatch.setattr(CauchyFactorization, "theta_exact", refuse)
        kp, km = k.k_plus_line(x), k.k_minus_line(x)
        assert np.angle(kp) == pytest.approx(k.theta(x), abs=1e-15)
        assert np.angle(km) == pytest.approx(k.theta(x), abs=1e-15)
        # The unnormalized symbol |x|·Psi·k factors as
        # (x₊^{1/2}/k⁺)·(x₋^{1/2}·Psi·k⁻).
        full = sqrt_plus(x) / kp * k.symbol_minus_line(x)
        assert full == pytest.approx(np.abs(x) * k.params.psi(x) * k.k_real(x),
                                     rel=1e-14)

    def test_theta_odd(self, kernel_factory):
        k = kernel_factory(0.3, 0.9, 0.707)
        xi = np.geomspace(1e-3, 100.0, 50)
        assert np.abs(k.theta(xi) + k.theta(-xi)).max() < 1e-15

    def test_batched_factor_equals_pointwise(self, kernel_factory):
        # Shared-node points (|Re z| < 4·Im z, |z| ≤ t_cut/4) and points
        # that need clustered panels or a larger radius, mixed in one 2-D
        # array.
        k = kernel_factory(0.3, 0.9, 0.707)
        z = np.array([[0.1 + 1j, -0.3 + 0.8j, 5.0 + 0.01j, 0.7 + 2j],
                      [2e5j, 1e-3j, -40.0 + 1e-4j, 1e5 + 1j]])
        batched = k.k_plus(z)
        assert batched.shape == z.shape
        for zz, b in zip(z.ravel(), batched.ravel()):
            assert b == k.k_plus(complex(zz))
        assert np.all(k.cauchy_integral(z.ravel())
                      == np.array([k.cauchy_integral(complex(zz)) for zz in z.ravel()]))

    def test_cauchy_sums_batch_equals_pointwise(self, kernel_factory):
        # One circle of a split contour (CONTOUR_NODES points about s = i/L,
        # here L = 1) is a batch on the shared rule that spans several row
        # blocks; each point gets its lone call's sum.
        k = kernel_factory(0.3, 0.9, 0.707)
        t, Lw = k._shared_rule
        for got, want in zip(k._shared_rule, k._cauchy_rule(k.t_cut, 0.1 + 1j)):
            assert np.array_equal(got, want)
        z = 1j + 0.4 * np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
        assert len(row_blocks(z.size, t.size)) > 1
        batch = k._cauchy_sums(z, t, Lw)
        assert np.array_equal(batch, [k._cauchy_sums(z[i:i + 1], t, Lw)[0]
                                      for i in range(z.size)])

    def test_cauchy_sums_match_exact_sums(self, kernel_factory):
        # The node sums against the same sums in 40-digit arithmetic: the
        # shared-node case, points near the axis (clustered panels, where
        # t² − Re z² cancels) and small |z| (where 1/(t−z) − 1/(t+z)
        # cancels).
        k = kernel_factory(0.3, 0.9, 0.707)
        for z in (0.1 + 1j, 2e5j, -40.0 + 1e-4j, 3.0 + 1e-3j, 0.02 + 1e-8j,
                  1e-6 + 1e-6j, 1e-5 + 3e-7j):
            T = max(k.t_cut, 4.0 * abs(z))
            t, Lw = k._cauchy_rule(T, z)
            with mpmath.workdps(40):
                zm = mpmath.mpc(z)
                ref = complex(mpmath.fsum(mpmath.mpf(float(c)) * 2 * zm
                                          / (mpmath.mpf(float(x)) ** 2 - zm * zm)
                                          for c, x in zip(Lw, t)))
            assert abs(k._cauchy_sums(np.array([z]), t, Lw)[0] - ref) <= 1e-14 * abs(ref)

    def test_positivity_guard(self):
        # Super-Rayleigh parameters never reach factorization (regime check
        # fires first).
        with pytest.raises(RegimeError):
            factorize(KernelParams(m=0.6, eta=-0.9, h0=0.707))

    def test_lattice_rejects_a_kernel_that_is_not_positive(self):
        # Positivity is read off the theta lattice's log k; the log of the
        # negative values warns of nothing before the error.
        def dipping(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 1.0) & (t < 2.0), -1.0, 1.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RegimeError, match="not positive"):
                CauchyFactorization(dipping, xi_hi=4e3, c2=0.0)

    def test_wrong_halfplane(self, kernel_factory):
        k = kernel_factory(0.3, 0.9, 0.707)
        with pytest.raises(DomainError):
            k.k_plus(1.0 - 1j)
        with pytest.raises(DomainError):
            k.k_plus(2.0)  # the real axis is k_plus_line's
        with pytest.raises(DomainError):
            k.k_plus(np.array([1j, 1.0 - 1j]))
        with pytest.raises(DomainError):
            k.cauchy_integral(np.array([1j, 2.0]))
