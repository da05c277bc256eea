"""Material parameter functions: surface-wave limit functions, critical
speed, threshold inertia, pole location and the regime of a speed."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackwave.errors import DomainError, RegimeError
from crackwave.kernel import KernelParams
from crackwave.material import (Material, critical_speed, h0_star,
                                lambda_surface, upsilon)

SQRT2 = math.sqrt(2.0)


class TestTypes:
    def test_material_validation(self):
        Material(eta=0.5, h0=0.7)
        with pytest.raises(DomainError):
            Material(eta=1.0, h0=0.0)
        with pytest.raises(DomainError):
            Material(eta=0.0, h0=-0.1)


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


class TestCubicRoot:
    """m_c and h0* from the one root of the cubic in u = sqrt(1 − 2h0²m²).
    For 0 < |eta| ≤ 1e-4 that root is u* ≈ eta² ≤ 1e-8: upsilon changes
    sign within ~1e-16 of the speed where the radical vanishes."""

    def test_small_eta(self):
        for eta in (1e-5, 1e-4, -1e-4):
            assert h0_star(eta) == pytest.approx(1.0 / SQRT2, rel=1e-15)
        assert critical_speed(1e-5, 0.9) == pytest.approx(1.0 / (SQRT2 * 0.9), rel=1e-15)
        h0s = np.linspace(0.02, 1.2, 60)
        got = critical_speed(1e-4, h0s)
        assert np.array_equal(got, np.minimum(1.0, h0_star(1e-4) / h0s))
        assert np.count_nonzero(got < 1.0) == 25  # h0 > 1/sqrt(2)
        # m = 0.5 is sub-Rayleigh there.
        assert 0.5 < critical_speed(1e-5, 0.9)
        assert upsilon(1e-5, 0.9, 0.5) > 0.0

    @settings(max_examples=300, deadline=None)
    @given(eta=st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                         st.floats(-1e-4, 1e-4)),
           h0=st.floats(0.0, 5.0))
    def test_critical_speed_property(self, eta, h0):
        hs = h0_star(eta)
        m_c = critical_speed(eta, h0)
        assert 0.0 < m_c <= 1.0
        assert m_c == (1.0 if h0 == 0.0 else min(1.0, hs / h0))
        ms = np.linspace(0.0, m_c * (1.0 - 1e-9), 64)
        assert np.all(upsilon(eta, h0, ms) > 0.0)

    def test_matches_40_digit_root(self):
        # h0* from its definition, upsilon(eta, h0*, 1) = 0, solved in
        # 40-digit arithmetic without the cubic; eta reaches the float next
        # to −1, where h0* ≈ sqrt(1 + eta) ≈ 1e-8.
        etas = np.concatenate([np.linspace(-0.999, 0.999, 41),
                               [1e-4, -1e-4, 1e-5, -1e-5, -0.99999, -1.0 + 1e-12,
                                np.nextafter(-1.0, 0.0)]])
        h0s = np.linspace(0.0, 5.0, 101)
        got_hs = h0_star(etas)
        for eta, hs in zip(etas, got_hs):
            with mpmath.workdps(40):
                e = mpmath.mpf(float(eta))

                def ups_numerator(h):
                    u = mpmath.sqrt(max(0, 1 - 2 * h * h))
                    return 1 - e * e - 2 * h * h + 2 * u * (1 + e - h * h)

                # Bisection: positive at h = 0, −eta² at h = 1/sqrt(2).
                lo, ref = mpmath.mpf(0), 1 / mpmath.sqrt(2)
                for _ in range(140):
                    mid = (lo + ref) / 2
                    lo, ref = (mid, ref) if ups_numerator(mid) > 0 else (lo, mid)
                ref_mc = [mpmath.mpf(1) if h0 == 0.0 else min(1, ref / mpmath.mpf(h0))
                          for h0 in h0s]
            assert abs(hs - float(ref)) <= 1e-15 * float(ref)
            assert np.abs(critical_speed(eta, h0s) - np.array(ref_mc, dtype=float)).max() <= 1e-15


class TestZeta:
    """The pole zeta = sqrt(2·nu/Upsilon) of ``KernelParams``."""

    @staticmethod
    def zeta(eta, h0, m):
        return KernelParams(m=m, eta=eta, h0=h0).zeta

    def test_static_value(self):
        assert self.zeta(0.0, 0.0, 0.0) == pytest.approx(math.sqrt(4.0 / 3.0))

    def test_static_general(self):
        for eta, h0 in ((0.5, 0.3), (-0.4, 0.9)):
            assert self.zeta(eta, h0, 0.0) == pytest.approx(
                math.sqrt(2.0 / upsilon(eta, h0, 0.0)))

    def test_blowup_at_critical_speed(self):
        mc = critical_speed(-0.9, 0.707)
        assert self.zeta(-0.9, 0.707, mc * (1 - 1e-7)) \
            > 50.0 * self.zeta(-0.9, 0.707, 0.9 * mc)
        with pytest.raises(RegimeError):
            self.zeta(-0.9, 0.707, min(1.0, mc * 1.01))

    def test_supersonic_rejected(self):
        with pytest.raises(RegimeError):
            self.zeta(0.0, 0.0, 1.5)


class TestClassifyRegime:
    """A speed m is sub-Rayleigh below m_c = critical_speed(eta, h0), and
    ``KernelParams`` accepts only sub-Rayleigh points."""

    def test_examples(self):
        assert 0.5 < critical_speed(0.9, 0.01)
        KernelParams(m=0.5, eta=0.9, h0=0.01)
        for m, eta, h0 in ((0.6, -0.9, 0.707), (1.5, 0.0, 0.0)):
            assert m >= critical_speed(eta, h0)
            with pytest.raises(RegimeError):
                KernelParams(m=m, eta=eta, h0=h0)

    def test_negative_speed(self):
        with pytest.raises(DomainError):
            KernelParams(m=-0.1, eta=0.0, h0=0.0)


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
