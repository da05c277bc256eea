"""Material parameter functions: surface-wave limit functions, critical
speed, threshold inertia, pole location and regime classification."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackwave import material
from crackwave.errors import BracketError, DomainError, RegimeError
from crackwave.material import (Material, PropagationState, RayleighRange,
                                SonicRange, classify_regime, critical_speed,
                                h0_star, lambda_surface, upsilon, zeta)

SQRT2 = math.sqrt(2.0)


class TestTypes:
    def test_material_validation(self):
        Material(G=2.0, rho=1.0, ell=0.1, eta=0.5, h0=0.7)
        with pytest.raises(DomainError):
            Material(G=-1.0, rho=1.0, ell=1.0, eta=0.0, h0=0.0)
        with pytest.raises(DomainError):
            Material(G=1.0, rho=1.0, ell=1.0, eta=1.0, h0=0.0)
        with pytest.raises(DomainError):
            Material(G=1.0, rho=1.0, ell=1.0, eta=0.0, h0=-0.1)

    def test_derived_quantities(self):
        m = Material(G=4.0, rho=1.0, ell=2.0, eta=0.5, h0=0.25)
        assert m.c_s == 2.0
        assert m.J == pytest.approx(4.0 * (0.25 * 2.0) ** 2)
        assert m.ell_bending == pytest.approx(2.0 / SQRT2)
        assert m.ell_torsion == pytest.approx(2.0 * math.sqrt(1.5))

    def test_propagation_state(self):
        m = Material(G=4.0, rho=1.0, ell=1.0, eta=0.0, h0=0.0)
        assert PropagationState(0.5).velocity(m) == 1.0
        with pytest.raises(DomainError):
            PropagationState(-0.1)


class TestUpsilon:
    def test_h0_zero_removes_speed(self):
        # (1 − 0 + 2·1·1)/2 = 3/2, independent of m
        assert upsilon(0.0, 0.0, 0.5) == pytest.approx(1.5)
        assert upsilon(0.0, 0.0, 7.0) == pytest.approx(1.5)

    def test_vanishes_at_critical_speed(self):
        assert abs(upsilon(-0.9, 0.707, 0.441)) < 1e-2

    def test_hand_value(self):
        assert upsilon(0.9, 0.0, 0.5) == pytest.approx(1.995)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            upsilon(0.0, 1.0, 1.0)  # 1 − 2h0²m² = −1


class TestLambdaSurface:
    def test_h0_zero_identically_zero(self):
        for m in (0.0, 0.3, 0.9, 2.0):
            assert lambda_surface(0.0, 0.0, m) == pytest.approx(0.0, abs=1e-14)

    def test_shear_limit_point(self):
        # The radical vanishes at this point, so sqrt(eps) is the honest
        # floating-point scale.
        assert abs(lambda_surface(0.0, 1.0 / SQRT2, 1.0)) < 1e-7

    def test_vanishes_at_critical_speed(self):
        assert abs(lambda_surface(-0.9, 0.707, 0.441)) < 1e-2

    @given(
        eta=st.floats(-0.95, 0.95),
        h0=st.floats(0.0, 1.0),
        m=st.floats(0.0, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_with_upsilon(self, eta, h0, m):
        # Algebraic identity: lambda = (1 − u²)·upsilon = 2h0²m²·upsilon,
        # so the two vanish together and share signs wherever h0·m > 0.
        if 1.0 - 2.0 * (h0 * m) ** 2 < 0.0:
            return
        lam = lambda_surface(eta, h0, m)
        ups = upsilon(eta, h0, m)
        assert lam == pytest.approx(2.0 * (h0 * m) ** 2 * ups, abs=1e-12)


class TestCriticalSpeed:
    def test_degenerate_closed_form(self):
        assert abs(critical_speed(0.0, 1.0 / SQRT2) - 1.0) < 1e-8

    def test_reference_value(self):
        assert critical_speed(-0.9, 0.707) == pytest.approx(0.441, abs=5e-3)

    def test_small_inertia_is_shear_limited(self):
        for eta in (-0.9, -0.3, 0.0, 0.5, 0.9):
            assert critical_speed(eta, 0.01) == 1.0

    def test_threshold_identity(self):
        # For h0 > h0*, the critical speed is h0*/h0 (same cubic root).
        for eta in (-0.9, 0.4, 0.9):
            hs = h0_star(eta)
            for h0 in (1.5 * hs, 2.0 * hs):
                assert critical_speed(eta, h0) == pytest.approx(hs / h0, abs=1e-8)

    def test_upsilon_positive_below(self):
        for eta, h0 in ((-0.9, 0.707), (0.9, 0.8), (0.5, 0.75)):
            mc = critical_speed(eta, h0)
            grid = np.linspace(0.0, mc * (1.0 - 1e-6), 200)
            assert np.all(upsilon(eta, h0, grid) > 0.0)


    @pytest.mark.parametrize("eta", [-0.9, -0.3, 0.0, 0.4, 0.9])
    def test_array_matches_scalar_loop_bitwise(self, eta):
        h0s = np.concatenate([[0.0], np.linspace(0.02, 1.2, 60)])
        got = critical_speed(eta, h0s)
        assert got.shape == h0s.shape
        assert np.array_equal(got, [critical_speed(eta, h0) for h0 in h0s])
        assert got[0] == 1.0

    def test_negative_h0_in_array(self):
        with pytest.raises(DomainError):
            critical_speed(0.5, np.array([0.3, -0.1]))

    def test_no_sign_change_below_shear_speed(self, monkeypatch):
        # upsilon changes sign below m_hi = 1/(√2 h0) < 1 for every valid
        # material; a positive stand-in reaches the typed error.
        monkeypatch.setattr(material, "upsilon",
                            lambda eta, h0, m: 1.0 + 0.0 * (h0 * m))
        assert critical_speed(0.5, 0.3) == 1.0  # m_hi = 1: capped, no error
        with pytest.raises(BracketError):
            critical_speed(0.5, np.array([0.3, 0.9]))


class TestH0Star:
    def test_array_matches_scalar_loop_bitwise(self):
        etas = np.concatenate([np.linspace(-0.95, 0.95, 39),
                               np.random.default_rng(7).uniform(-0.99, 0.99, 40)])
        assert 0.0 in etas
        got = h0_star(etas)
        assert np.array_equal(got, [h0_star(e) for e in etas])
        assert got[etas == 0.0] == 1.0 / SQRT2

    def test_eta_out_of_range_in_array(self):
        with pytest.raises(DomainError):
            h0_star(np.array([0.5, 1.0]))

    def test_eta_zero(self):
        assert abs(h0_star(0.0) - 1.0 / SQRT2) < 1e-8

    def test_defining_equation(self):
        assert abs(lambda_surface(0.9, h0_star(0.9), 1.0)) < 1e-10

    def test_range(self):
        for eta in (-0.9, -0.3, 0.6):
            hs = h0_star(eta)
            assert 0.0 < hs <= 1.0 / SQRT2 + 1e-12

    def test_threshold_property(self):
        for eta in (-0.9, 0.9):
            hs = h0_star(eta)
            assert critical_speed(eta, hs - 1e-3) == 1.0
            assert critical_speed(eta, hs + 1e-3) < 1.0


class TestZeta:
    def test_static_value(self):
        assert zeta(0.0, 0.0, 0.0) == pytest.approx(math.sqrt(4.0 / 3.0))

    def test_static_general(self):
        for eta, h0 in ((0.5, 0.3), (-0.4, 0.9)):
            assert zeta(eta, h0, 0.0) == pytest.approx(
                math.sqrt(2.0 / upsilon(eta, h0, 0.0)))

    def test_blowup_at_critical_speed(self):
        mc = critical_speed(-0.9, 0.707)
        assert zeta(-0.9, 0.707, mc * (1 - 1e-7)) > 50.0 * zeta(-0.9, 0.707, 0.9 * mc)
        with pytest.raises(RegimeError):
            zeta(-0.9, 0.707, min(1.0, mc * 1.01))

    def test_supersonic_rejected(self):
        with pytest.raises(RegimeError):
            zeta(0.0, 0.0, 1.5)


class TestClassifyRegime:
    def test_examples(self):
        r = classify_regime(0.9, 0.01, 0.5)
        assert r.rayleigh is RayleighRange.SUB_RAYLEIGH
        assert r.sonic is SonicRange.SUBSONIC
        r = classify_regime(-0.9, 0.707, 0.6)
        assert r.rayleigh is RayleighRange.SUPER_RAYLEIGH
        assert r.sonic is SonicRange.SUBSONIC
        r = classify_regime(0.0, 0.0, 1.5)
        assert r.rayleigh is RayleighRange.SUPER_RAYLEIGH
        assert r.sonic is SonicRange.SUPERSONIC

    def test_negative_speed(self):
        with pytest.raises(DomainError):
            classify_regime(0.0, 0.0, -0.1)


def test_zero_set_colocation_grid():
    """Sign-change locations of lambda and upsilon coincide on a dense grid."""
    etas = np.linspace(-0.9, 0.9, 50)
    h0s = np.linspace(0.35, 1.1, 50)
    for eta in etas[::7]:
        for h0 in h0s[::7]:
            m_hi = min(1.0, 1.0 / (SQRT2 * h0)) * (1.0 - 1e-9)
            ms = np.linspace(1e-3, m_hi, 50)
            lam = lambda_surface(eta, h0, ms)
            ups = upsilon(eta, h0, ms)
            i_lam = np.nonzero(lam[:-1] * lam[1:] < 0.0)[0]
            i_ups = np.nonzero(ups[:-1] * ups[1:] < 0.0)[0]
            assert np.array_equal(i_lam, i_ups)
