"""Classical-elasticity oracle: split coefficients, near-tip fields, stress
intensity factor and energy release rate."""
import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import hyperu

from crackwave import fields
from crackwave.classical import (build_classical, classical_err,
                                 classical_neartip, classical_sif,
                                 classical_split, h_coefficients,
                                 h_coefficients_contour,
                                 half_power_moment_quadrature)
from crackwave.errors import QuadratureError, RegimeError
from crackwave.loading import LoadProfile, kp_coefficient


def wrapped_cut_traction(X, L, p, T0):
    """Independent closed form for the classical traction ahead of the tip,
    from wrapping the inversion contour around the branch cut:
    p3(X) = (T0/pi)·Σ_j K_j·sqrt(L)·Γ(3/2)·L^{−3/2}·U(3/2, 5/2−(p+1−j), X/L)."""
    tot = 0.0
    for j in range(p + 1):
        nu = p + 1 - j
        tot += (kp_coefficient(j) * math.sqrt(L) * gamma_fn(1.5) * L ** -1.5
                * hyperu(1.5, 2.5 - nu, X / L))
    return T0 / math.pi * tot


class TestCoefficients:
    def test_h0_closed_form(self):
        h = h_coefficients(0, 4.0)
        assert h[0] == pytest.approx(2.0 * np.exp(-0.25j * np.pi))

    def test_h1_half_of_h0(self):
        h = h_coefficients(1, 4.0)
        assert h[1] == pytest.approx(0.5 * h[0])

    @pytest.mark.parametrize("p", range(7))
    def test_contour_matches_closed_form(self, p):
        a = h_coefficients(p, 2.0)
        b = h_coefficients_contour(p, 2.0)
        assert np.abs(a - b).max() < 1e-10

    def test_kp_values(self):
        assert [kp_coefficient(p) for p in range(4)] == pytest.approx(
            [1.0, 0.5, 3.0 / 8.0, 5.0 / 16.0])


class TestNearTip:
    def test_p0_prefactor(self):
        sol = build_classical(LoadProfile(T0=1.0, L=4.0, p=0), 0.0, 1.0)
        out = classical_neartip(1e-4, sol)
        # amp = K_0/sqrt(pi)·T0/sqrt(L)
        assert out["sigma23"] == pytest.approx(
            1.0 / math.sqrt(math.pi * 4.0) / math.sqrt(1e-4))

    def test_opening_closes_at_tip(self):
        sol = build_classical(LoadProfile(T0=1.0, L=4.0, p=1), 0.5, 2.0)
        assert classical_neartip(-1e-12, sol)["w"] < 1e-5

    def test_product_x_independent(self):
        sol = build_classical(LoadProfile(T0=1.0, L=4.0, p=1), 0.5, 2.0)
        prods = [classical_neartip(x, sol)["sigma23"]
                 * classical_neartip(x, sol)["w"]
                 for x in np.geomspace(1e-6, 1e-2, 10)]
        assert np.ptp(prods) < 1e-12 * abs(prods[0])

    def test_inversion_matches_closed_form(self):
        # The shared inversion machinery with a unit symbol reproduces the
        # classical traction, including the square-root tip behaviour.
        prof = LoadProfile(T0=1.0, L=5.0, p=1)
        split = classical_split(prof, 0.3, 1.0)
        sol = build_classical(prof, 0.3, 1.0)
        for X in (1e-5, 1e-4):
            num = fields.traction_ahead(X, split)
            assert num == pytest.approx(classical_neartip(X, sol)["sigma23"],
                                        rel=1e-2)

    def test_inversion_matches_wrapped_cut_form(self):
        prof = LoadProfile(T0=1.0, L=5.0, p=1)
        split = classical_split(prof, 0.3, 1.0)
        for X in (0.01, 0.3, 2.0, 40.0):
            num = fields.traction_ahead(X, split)
            ref = wrapped_cut_traction(X, 5.0, 1, 1.0)
            assert num == pytest.approx(ref, rel=1e-7)

    def test_opening_inversion_near_tip(self):
        prof = LoadProfile(T0=1.0, L=5.0, p=1)
        split = classical_split(prof, 0.3, 1.0)
        sol = build_classical(prof, 0.3, 1.0)
        Xs = np.geomspace(1e-6, 1e-4, 6)
        w_num = np.array([fields.crack_opening(-x, split) for x in Xs])
        w_cl = np.array([classical_neartip(-x, sol)["w"] for x in Xs])
        slope = np.polyfit(np.log(Xs), np.log(w_num), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.02)
        assert w_num[0] == pytest.approx(w_cl[0], rel=2e-2)


class TestSifAndErr:
    def test_sif_p0(self):
        sol = build_classical(LoadProfile(T0=3.0, L=2.0, p=0), 0.0, 1.0)
        assert classical_sif(sol) == pytest.approx(3.0 * math.sqrt(2.0 / 2.0))

    def test_sif_scaling(self):
        s0 = classical_sif(build_classical(LoadProfile(T0=1.0, L=2.0, p=0), 0.0, 1.0))
        s1 = classical_sif(build_classical(LoadProfile(T0=1.0, L=2.0, p=1), 0.0, 1.0))
        assert s1 == pytest.approx(0.5 * s0)

    def test_err_static_p0(self):
        prof = LoadProfile(T0=1.0, L=2.0, p=0)
        assert classical_err(prof, 0.0, 1.0) == pytest.approx(1.0 / 2.0)

    def test_err_speed_dependence(self):
        prof = LoadProfile(T0=1.0, L=1.0, p=2)
        kp = kp_coefficient(2)
        assert classical_err(prof, 0.6, 1.0) == pytest.approx(kp * kp / 0.8)

    def test_err_decreasing_in_p(self):
        vals = [classical_err(LoadProfile(T0=1.0, L=1.0, p=p), 0.0, 1.0)
                for p in range(5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_regime(self):
        with pytest.raises(RegimeError):
            classical_err(LoadProfile(T0=1.0, L=1.0, p=0), 1.0, 1.0)


class TestHalfPowerMoment:
    """∫_{−∞}^0 tau(X)|X|^{−1/2} dX for loadings given as callables; the
    weight is endpoint-singular at X = 0."""

    def test_exponential(self):
        val = half_power_moment_quadrature(np.exp)
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-11)

    @pytest.mark.parametrize("scale", [300.0, 500.0, 1000.0])
    def test_slowly_decaying_exponential(self, scale):
        # e^{X/s} still holds most of its moment beyond |X| = 2e3, so the
        # panels must run on until the tail is negligible:
        # ∫ e^{−t/s} t^{−1/2} dt = sqrt(pi·s).
        val = half_power_moment_quadrature(lambda X: np.exp(X / scale))
        assert val == pytest.approx(math.sqrt(math.pi * scale), rel=1e-12)

    def test_gamma(self):
        val = half_power_moment_quadrature(lambda X: np.abs(X) * np.exp(X))
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-11)

    def test_algebraic(self):
        # B(1/2, 5/2) = 3π/8; the slow algebraic decay goes through the
        # engine's fitted power tail.
        val = half_power_moment_quadrature(lambda X: (1.0 + np.abs(X)) ** -3)
        assert val == pytest.approx(3.0 * math.pi / 8.0, rel=1e-9)

    def test_negligible_tail(self):
        # ∫₀^∞ e^{−t} dt: the integrand is below 1e-11 on [T/4, T], so no
        # tail is fitted.
        val = half_power_moment_quadrature(lambda X: np.sqrt(np.abs(X)) * np.exp(X))
        assert abs(val - 1.0) < 1e-9

    def test_divergent_moment_rejected(self):
        # The integrand 1/(1 + t^{1/2}) decays like t^{−1/2}.
        with pytest.raises(QuadratureError):
            half_power_moment_quadrature(
                lambda X: np.sqrt(np.abs(X)) / (1.0 + np.sqrt(np.abs(X))))
