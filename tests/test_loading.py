"""Loading family, split coefficients, split functions and the Liouville
constant with its independent cross-check."""
import math

import numpy as np
import pytest
from scipy import integrate

from crackwave.classical import classical_err, h_coefficients
from crackwave.errors import DomainError, PoleError
from crackwave.kernel import KernelParams, factorize, sqrt_plus
from crackwave.loading import (LoadProfile, _appendix_ratio, g_minus,
                               split_coefficients, traction, traction_transform)
from crackwave.material import critical_speed
from reference_split import appendix_ratio_two_calls, g_plus


class TestTraction:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("L", [0.5, 1.0, 10.0])
    def test_resultant(self, p, L):
        prof = LoadProfile(L=L, p=p)
        val, _ = integrate.quad(lambda X: traction(X, prof), -np.inf, 0.0,
                                limit=300)
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_argmax(self, p):
        prof = LoadProfile(L=2.0, p=p)
        Xs = np.linspace(-30.0, -1e-9, 400001)
        assert Xs[np.argmax(traction(Xs, prof))] == pytest.approx(-p * 2.0,
                                                                  abs=1e-3)

    def test_tip_value_p0(self):
        prof = LoadProfile(L=0.5, p=0)
        assert traction(-1e-12, prof) == pytest.approx(1.0 / 0.5)

    def test_nonnegative(self):
        prof = LoadProfile(L=1.0, p=3)
        assert np.all(traction(np.linspace(-40, -1e-9, 1000), prof) >= 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            traction(0.5, LoadProfile(L=1.0, p=0))
        with pytest.raises(DomainError):
            LoadProfile(L=1.0, p=-1)


class TestTransform:
    def test_zero_frequency_is_resultant(self):
        prof = LoadProfile(L=3.0, p=2)
        assert traction_transform(0.0, prof) == pytest.approx(1.0)

    def test_fourier_oracle(self):
        prof = LoadProfile(L=10.0, p=1)
        s = 1.0 / prof.L
        re, _ = integrate.quad(lambda X: traction(X, prof) * math.cos(s * X),
                               -np.inf, 0.0, limit=300)
        im, _ = integrate.quad(lambda X: traction(X, prof) * math.sin(s * X),
                               -np.inf, 0.0, limit=300)
        assert traction_transform(s, prof) == pytest.approx(re + 1j * im,
                                                            abs=1e-8)

    def test_power_decay(self):
        prof = LoadProfile(L=1.0, p=2)
        mags = np.geomspace(1e2, 1e5, 7)
        vals = np.abs(traction_transform(-1j * mags, prof))  # lower ray
        slope = np.polyfit(np.log(mags), np.log(vals), 1)[0]
        assert slope == pytest.approx(-(1 + prof.p), abs=0.01)

    def test_pole(self):
        prof = LoadProfile(L=2.0, p=0)
        with pytest.raises(PoleError):
            traction_transform(1j / 2.0, prof)


class TestSplitCoefficients:
    def test_zeroth_coefficient_is_value_at_pole(self, kernel_factory):
        # An interior point, the shear-wave edge (h0 < h0*, so m_c = 1) and a
        # point near the critical speed.
        prof = LoadProfile(L=10.0, p=0)
        for m, eta, h0 in ((0.3, 0.9, 0.707), (1.0 - 1e-5, -0.9, 0.156),
                           (0.999 * critical_speed(-0.9, 0.707), -0.9, 0.707)):
            k = kernel_factory(m, eta, h0)
            f0 = split_coefficients(k, prof)[0]
            direct = k.k_plus(1j / 10.0) / sqrt_plus(1j / 10.0)
            assert f0 == pytest.approx(direct, rel=1e-11), (m, eta, h0)

    def test_radius_halving_invariance(self, kernel_factory):
        from crackwave.numerics import contour_coefficients
        k = kernel_factory(0.3, 0.9, 0.707)
        L = 10.0

        def g(u):
            u = np.atleast_1d(u)
            z = 1j / L * (1.0 - u)
            kp = np.array([k.k_plus(zz) for zz in z])
            return kp / sqrt_plus(z)

        a = contour_coefficients(g, 0.4, 2)
        b = contour_coefficients(g, 0.2, 2)
        assert np.abs(a - b).max() < 1e-10


class TestSplitFunctions:
    def test_reconstruction_on_real_axis(self, split_factory, kernel_factory):
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        k = kernel_factory(0.3, 0.9, 0.707)
        s = np.linspace(-40.0, 40.0, 1001)
        s = s[s != 0.0]
        recon = g_minus(s, sp) + g_plus(s, sp)
        direct = k.k_plus_line(s) / (sqrt_plus(s.astype(complex)) * (1 + 1j * s * 10.0) ** 2)
        assert np.abs(recon - direct).max() < 1e-9 * np.abs(direct).max()

    def test_gminus_asymptotics(self, split_factory):
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        s = -1e8j
        assert complex(s * g_minus(s, sp)) == pytest.approx(
            -1j * sp.coeffs[1] / 10.0, rel=1e-6)

    def test_gplus_asymptotics(self, split_factory):
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        s = 1e8j
        assert complex(s * g_plus(s, sp)) == pytest.approx(
            1j * sp.coeffs[1] / 10.0, rel=1e-6)

    def test_gplus_small_s_root_behaviour(self, split_factory):
        # G⁺(s)·s₊^{1/2} → k⁺(0) = 1 as s → 0 in the upper half-plane.
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        s = 1e-10j
        val = complex(g_plus(s, sp) * sqrt_plus(s))
        assert val == pytest.approx(1.0, rel=1e-4)

    def test_gplus_regular_at_transform_pole(self, split_factory,
                                             kernel_factory):
        # The contour form used inside |1+isL| < 0.35 agrees with the
        # subtraction form at the same point, and g_plus stays finite right
        # at the removable point s = i/L.
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        k = kernel_factory(0.3, 0.9, 0.707)
        L, p = 10.0, 1
        u = np.outer([0.05, 0.2, 0.3, 0.34], np.exp(1j * np.pi * np.arange(6) / 3.0)).ravel()
        s = 1j / L * (1.0 - u)  # |1+isL| = |u|, inside the switch radius
        near = g_plus(s, sp)
        direct = np.array([k.k_plus(sv) / (sqrt_plus(sv) * uv ** (1 + p))
                           - g_minus(sv, sp) for sv, uv in zip(s, u)])
        assert (np.abs(near - direct) <= 1e-11 * np.abs(direct)).all()
        at_pole = complex(g_plus(1j / L, sp))
        assert np.isfinite([at_pole.real, at_pole.imag]).all()

    def test_gminus_pole(self, split_factory):
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        with pytest.raises(PoleError):
            g_minus(1j / 10.0, sp)


class TestLiouvilleConstant:
    def test_phase(self, split_factory):
        sp = split_factory(0.3, 0.9, 0.707, 10.0, 1)
        assert np.angle(sp.F) == pytest.approx(-np.pi / 4.0, abs=1e-10)

    @pytest.mark.parametrize("m,eta,h0,p,L", [
        (0.3, 0.0, 0.707, 1, 10.0),
        (0.3, 0.9, 0.707, 0, 0.5),
        (0.0, -0.9, 0.707, 2, 1.0),
        # fig9's material at m = 1 − 1e-12 … 1 − 1e-14, where F_alt's head
        # nodes lie below the symbol's knee nu/u: with theta's floor fixed
        # at 1e-6 the split raised CrossCheckError.
        (1.0 - 1e-12, 0.9, 0.01, 0, 10.0),
        (1.0 - 1e-13, 0.9, 0.01, 0, 10.0),
        (1.0 - 1e-14, 0.9, 0.01, 0, 10.0),
    ])
    def test_cross_check(self, split_factory, m, eta, h0, p, L):
        sp = split_factory(m, eta, h0, L, p)
        assert abs(sp.F - sp.F_alt) <= 1e-6 * abs(sp.F)

    def test_small_length_trend(self, split_factory):
        # As ℓ/L → 0, F approaches F_lim = H_p/(zeta·L), the F at which the
        # ERR form gives E_cl, with the drift shrinking like ℓ/L.
        drifts = []
        for L in (1e2, 1e3):
            sp = split_factory(0.3, 0.0, 0.707, L, 1)
            params = sp.kernel.params
            f_lim = h_coefficients(1, L)[-1] / (params.zeta * L)
            e_lim = (2j * f_lim * f_lim / params.upsilon).real
            assert e_lim == pytest.approx(classical_err(sp.profile, 0.3),
                                          rel=1e-14)
            drifts.append(abs(sp.F / f_lim - 1.0))
        assert drifts[1] < 0.2 * drifts[0]
        assert drifts[1] < 1e-2

    @pytest.mark.parametrize("m,eta,h0,p,L", [
        (0.3, -0.9, 0.707, 1, 3e-3),
        (0.3, -0.9, 0.707, 1, 1e-5),
        (0.3, -0.9, 0.707, 0, 1e-3),
        (0.3, 0.9, 0.6, 0, 1e-4),
    ])
    def test_cross_check_at_small_load_length(self, split_factory, m, eta, h0,
                                              p, L):
        # G⁻ varies on the scale ℓ/L, so the ratio's truncation radius and
        # fit window follow it; a radius of max(2e3, 50·zeta) alone left
        # F_alt off by 1.2e-6 to 2.2e-5 here, and the split raised
        # CrossCheckError.
        sp = split_factory(m, eta, h0, L, p)
        assert abs(sp.F - sp.F_alt) <= 1e-13 * abs(sp.F)

    def test_one_symbol_call_per_rule(self):
        # The head with the fit window and the body's panel sums each
        # evaluate the symbol once, on ±t together.
        kernel = factorize(KernelParams(m=0.3, eta=0.9, h0=0.707))
        profile = LoadProfile(L=1.0, p=1)
        coeffs = split_coefficients(kernel, profile)
        calls = []
        real = kernel.symbol_minus_line
        kernel.symbol_minus_line = lambda xi: calls.append(xi) or real(xi)
        _appendix_ratio(kernel, coeffs, profile)
        assert len(calls) == 2
        assert all(np.array_equal(x[x.size // 2:], -x[:x.size // 2]) for x in calls)

    @pytest.mark.parametrize("m,eta,h0,p,L", [
        (0.3, 0.9, 0.707, 1, 1.0),
        (0.0, -0.9, 0.707, 2, 1.0),
        (0.3, -0.9, 0.707, 1, 1e-5),
        (0.8, 0.0, 0.707, 3, 1e5),
    ])
    def test_fold_matches_two_call_reference(self, split_factory, m, eta, h0,
                                             p, L):
        sp = split_factory(m, eta, h0, L, p)
        ref = appendix_ratio_two_calls(sp.kernel, sp.coeffs, sp.profile)
        assert sp.F_alt == ref
