"""Energy release rate: closed form, classical comparison, ratio identities,
the closed forms at both ends of the L/ℓ axis and the approach to the
limiting speed."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crackwave import cli, energy
from crackwave.classical import classical_err, h_coefficients
from crackwave.energy import (err_ratio_large_length, err_result,
                              err_small_length, solve_crack)
from crackwave.errors import RegimeError
from crackwave.kernel import KernelParams, factorize
from crackwave.loading import LoadProfile, build_split, kp_coefficient
from crackwave.material import Material, critical_speed, h0_star, upsilon


class TestClassical:
    def test_static_p0(self):
        assert classical_err(LoadProfile(L=1.0, p=0), 0.0) == 1.0

    def test_kp_identity(self):
        for p in range(6):
            kp = kp_coefficient(p)
            ref = math.exp(math.lgamma(p + 0.5) - math.lgamma(p + 1.0)) \
                / math.sqrt(math.pi)
            assert kp == pytest.approx(ref, rel=1e-14)

    def test_divergence_scaling(self):
        prof = LoadProfile(L=1.0, p=0)
        e1 = classical_err(prof, 0.6)
        assert e1 == pytest.approx(1.0 / 0.8)


# fig10's point, the surface-wave regime (eta = −0.9, m_c = 0.441) and
# eta = 0 at a high speed, as (eta, h0, m).
LIMIT_POINTS = [(0.9, 0.6, 0.3), (-0.9, 0.707, 0.3), (0.0, 0.707, 0.8)]


class TestLengthLimits:
    """E at both ends of the L/ℓ axis against its closed forms.  The
    remainder, scaled by its order, holds steady over a decade; an error in
    a closed form's leading terms would make it grow tenfold."""

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("eta,h0,m", LIMIT_POINTS)
    def test_large_length_remainder_is_second_order(self, split_factory,
                                                    eta, h0, m, p):
        # (ratio − prediction)·(L/ℓ)² reads −8.18 and −8.21 at fig10's point
        # with p = 1, and 0.290 and 0.288 at eta = 0 with p = 3.  L/ℓ = 1e5
        # is left out: the ratio's rounding, about 3e-11, is amplified
        # 1e10-fold there.
        scaled = []
        for L in (1e3, 1e4):
            split = split_factory(m, eta, h0, L, p)
            scaled.append((err_result(split).ratio - err_ratio_large_length(split))
                          * L * L)
        assert abs(scaled[1] - scaled[0]) <= 0.05 * abs(scaled[1])

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("eta,h0,m", LIMIT_POINTS)
    def test_small_length_remainder_is_first_order(self, split_factory,
                                                   eta, h0, m, p):
        # (E/E_small − 1)·ℓ/L reads −3.70 and −3.71 at fig10's point with
        # p = 1.
        scaled = []
        for L in (1e-3, 1e-4):
            split = split_factory(m, eta, h0, L, p)
            scaled.append((err_result(split).E / err_small_length(split) - 1.0) / L)
        assert abs(scaled[1] - scaled[0]) <= 0.05 * abs(scaled[1])

    @pytest.mark.parametrize("p", range(4))
    def test_small_length_form_is_the_err_form_at_the_classical_coefficients(
            self, split_factory, p):
        # E at F = Σ_j H_j; Σ_{j≤p} K_j = (2p + 1)K_p gives it as
        # 2(2p + 1)²K_p²·L/Upsilon.
        split = split_factory(0.3, 0.9, 0.6, 1e-3, p)
        upsilon_ = split.kernel.params.upsilon
        f = h_coefficients(p, 1e-3).sum()
        e = (2j * f * f / upsilon_).real
        assert err_small_length(split) == pytest.approx(e, rel=1e-15)
        k_sum = (2 * p + 1) * kp_coefficient(p)
        assert err_small_length(split) == pytest.approx(
            2.0 * k_sum * k_sum * 1e-3 / upsilon_, rel=1e-15)

    @given(eta=st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                         st.floats(0.0, 15.5).map(lambda d: -1.0 + 10.0 ** -d)),
           h0=st.floats(0.0, 10.0), decades=st.floats(0.0, 15.0))
    @example(eta=-1.0 + 1e-12, h0=0.707, decades=6.0)  # eta → −1
    @example(eta=-0.9, h0=0.707, decades=14.0)        # m → m_c < 1
    @example(eta=0.9, h0=0.01, decades=14.0)          # m → 1 (fig9)
    @settings(max_examples=200, deadline=None)
    def test_large_length_slope_is_positive(self, eta, h0, decades):
        # E/E_cl − 1 ≈ 2S·ℓ/((2p − 1)L) with S = θ′(0) + 1/zeta, so S > 0
        # means that at large L/ℓ a tip load (p = 0) is shielded and every
        # p ≥ 1 weakens, at any material and speed.  m = m_c(1 − 10^−decades)
        # runs from 0 to within 1e-15 of the critical speed.
        m = critical_speed(eta, h0) * (1.0 - 10.0 ** -decades)
        try:
            kernel = factorize(KernelParams(m=m, eta=eta, h0=h0))
        except RegimeError:
            # Within rounding of the surface-wave limit, Upsilon or log k
            # loses its sign in floating point (η → −1 and m → m_c).
            assert upsilon(eta, h0, m) < 1e-15
            return
        assert kernel.theta_slope + 1.0 / kernel.params.zeta > 0.0

    def test_validate_catches_an_error_in_the_classical_err(self, monkeypatch):
        # E_cl scaled by 1 + 1e-6 moves E/E_cl at L/ℓ = 1e4 from 1.0002269
        # to 1.0002259, against the first-order form's 1.0002270: five
        # times the row's tolerance of 2e-7.
        def large_length_row():
            rows = {check_id: (target, computed, tol)
                    for check_id, target, computed, tol in cli._validate_checks()}
            return rows["err_ratio_large_L1e4"]

        target, computed, tol = large_length_row()
        assert abs(computed - target) <= tol
        real = energy.classical_err
        monkeypatch.setattr(energy, "classical_err",
                            lambda *args: real(*args) * (1.0 + 1e-6))
        target, computed, tol = large_length_row()
        assert abs(computed - target) > tol


class TestCouple:
    def test_realness_and_positivity(self, split_factory):
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        assert err_result(sp).E > 0.0

    def test_regime_error(self):
        # m = 0.6 is above m_c = 0.441 at (eta, h0) = (−0.9, 0.707): no split
        # exists to read.
        mat = Material(eta=-0.9, h0=0.707)
        with pytest.raises(RegimeError):
            solve_crack(mat, 0.6, LoadProfile(L=10.0, p=0))

    def test_ratio_consistency(self, split_factory):
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        prof = LoadProfile(L=10.0, p=1)
        res = err_result(sp)
        assert res.E_cl == classical_err(prof, 0.3)
        assert res.ratio == pytest.approx(res.E / res.E_cl, rel=1e-12)

    def test_shielding_weakening(self, kernel_factory):
        # Ratio below one for tip-concentrated loading (p = 0), above one
        # otherwise (p = 1).
        k = kernel_factory(0.3, 0.9, 0.707)
        p0, p1 = LoadProfile(L=10.0, p=0), LoadProfile(L=10.0, p=1)
        r0 = err_result(build_split(k, p0)).ratio
        r1 = err_result(build_split(k, p1)).ratio
        assert r0 < 1.0 < r1

    def test_monotone_in_speed(self):
        mat = Material(eta=0.0, h0=0.01)
        prof = LoadProfile(L=10.0, p=0)
        es = [err_result(solve_crack(mat, m, prof)).E for m in (0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(es, es[1:]))

    def test_finite_at_surface_wave_limit(self):
        mat = Material(eta=-0.9, h0=0.707)
        mc = critical_speed(-0.9, 0.707)
        res = err_result(solve_crack(mat, 0.999 * mc, LoadProfile(L=0.5, p=0)))
        assert np.isfinite(res.E) and res.E > 0.0


class TestSweeps:
    def test_max_sweep_threshold_behaviour(self):
        # Below h0* the limit is the shear-wave speed, where E stays finite and
        # E_cl diverges, so E/E_cl -> 0 like sqrt(1 - m^2); above h0* the
        # surface-wave limit keeps both finite.
        hs = h0_star(-0.9)
        prof = LoadProfile(L=10.0, p=0)

        def near_limit(h0, gap):
            mat = Material(eta=-0.9, h0=h0)
            return err_result(solve_crack(mat, (1.0 - gap) * critical_speed(-0.9, h0),
                                          prof))

        (below5, above5), (below7, above7) = (
            [near_limit(h0, gap) for h0 in (0.5 * hs, 2.0 * hs)] for gap in (1e-5, 1e-7))
        assert below7.ratio / below5.ratio < 0.2  # sqrt(1-m^2) gives 0.1
        assert abs(below7.E / below5.E - 1.0) < 0.1  # E stays bounded
        assert below7.ratio <= 0.05          # shear-limited: ratio -> 0
        for above in (above5, above7):
            assert abs(above.ratio - 1.0) < 0.1  # eta=-0.9, h0 > h0*: ratio ~ 1

    def test_shear_limit_split_is_accurate(self):
        # The slow approach of E/E_cl to 0 is not a defect of the split: at
        # 1 - m = 1e-5 below h0* (nu = 4.5e-3, zeta = 0.25) the contour
        # centre's Cauchy integral matches adaptive quadrature split at the
        # kernel's scales, and F matches its ratio-of-integrals form.
        hs = h0_star(-0.9)
        m = 1.0 - 1e-5
        kernel = factorize(KernelParams(m=m, eta=-0.9, h0=0.5 * hs))
        par = kernel.params
        prof = LoadProfile(L=10.0, p=0)
        # ∫_R log k(t)/(t − iy) dt = i·∫_0^∞ log k(t)·2y/(t² + y²) dt (k even)
        # at the contour centre iy = i/L.
        y = 1.0 / prof.L
        edges = [0.0, *sorted([par.nu, math.sqrt(par.nu), par.zeta]), math.inf]
        ref = 1j * sum(
            quad(lambda t: float(kernel.log_k(t)) * 2.0 * y / (t * t + y * y),
                 a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:]))
        assert kernel.cauchy_integral(1j * y) == pytest.approx(ref, rel=1e-12)
        split = build_split(kernel, prof)
        assert abs(split.F - split.F_alt) <= 1e-8 * abs(split.F)
