"""Classical-elasticity oracle: split coefficients, the classical traction
ahead of the tip through the field inversion and the energy release
rate."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import hyperu

from crackwave import fields
from crackwave.classical import (classical_err, h_coefficients,
                                 h_coefficients_contour)
from crackwave.errors import RegimeError
from crackwave.loading import LoadProfile, SplitData, kp_coefficient


class _UnitKernel:
    """The unit symbol k ≡ 1 of classical elasticity in the place of a
    factorized kernel, for the traction inversion: k⁺ ≡ 1 on the line,
    Upsilon = 0, and zeta = 1, so that the truncation radius and the tail-fit
    window are set by L/ℓ alone."""

    params = SimpleNamespace(zeta=1.0, upsilon=0.0)

    @staticmethod
    def k_plus_line(xi):
        return np.ones_like(np.asarray(xi, dtype=complex))


def unit_split(profile: LoadProfile) -> SplitData:
    """Classical split: coefficients H_j, a zero Liouville constant and the
    unit symbol."""
    return SplitData(profile=profile,
                     coeffs=h_coefficients(profile.p, profile.L), F=0j,
                     F_alt=None, kernel=_UnitKernel())


def wrapped_cut_traction(X, L, p):
    """Independent closed form for the classical traction ahead of the tip,
    from wrapping the inversion contour around the branch cut:
    p3(X) = (1/pi)·Σ_j K_j·sqrt(L)·Γ(3/2)·L^{−3/2}·U(3/2, 5/2−(p+1−j), X/L)."""
    tot = 0.0
    for j in range(p + 1):
        nu = p + 1 - j
        tot += (kp_coefficient(j) * math.sqrt(L) * gamma_fn(1.5) * L ** -1.5
                * hyperu(1.5, 2.5 - nu, X / L))
    return tot / math.pi


class TestCoefficients:
    def test_h0_closed_form(self):
        h = h_coefficients(0, 4.0)
        assert h[0] == pytest.approx(2.0 * np.exp(-0.25j * np.pi))

    def test_h1_half_of_h0(self):
        h = h_coefficients(1, 4.0)
        assert h[1] == pytest.approx(0.5 * h[0])

    @pytest.mark.parametrize("p,L", [(p, 2.0) for p in range(7)] + [(3, 10.0)],
                             ids=[str(p) for p in range(7)] + ["3-L10"])
    def test_contour_matches_closed_form(self, p, L):
        a = h_coefficients(p, L)
        b = h_coefficients_contour(p, L)
        assert np.abs(a - b).max() < 1e-10

    def test_kp_values(self):
        assert [kp_coefficient(p) for p in range(4)] == pytest.approx(
            [1.0, 0.5, 3.0 / 8.0, 5.0 / 16.0])


class TestNearTip:
    def test_inversion_matches_closed_form(self):
        # The shared inversion machinery with a unit symbol reproduces the
        # classical traction, including the square-root tip behaviour.
        # sigma23 ~ K_p/sqrt(pi·L·X) at the tip.
        prof = LoadProfile(L=5.0, p=1)
        split = unit_split(prof)
        for X in (1e-5, 1e-4):
            num = fields.traction_ahead(X, split)
            ref = kp_coefficient(1) / math.sqrt(math.pi * prof.L * X)
            assert num == pytest.approx(ref, rel=1e-2)

    def test_inversion_matches_wrapped_cut_form(self):
        prof = LoadProfile(L=5.0, p=1)
        split = unit_split(prof)
        for X in (0.01, 0.3, 2.0, 40.0):
            num = fields.traction_ahead(X, split)
            ref = wrapped_cut_traction(X, 5.0, 1)
            assert num == pytest.approx(ref, rel=1e-7)


class TestSifAndErr:
    def test_err_static_p0(self):
        prof = LoadProfile(L=2.0, p=0)
        assert classical_err(prof, 0.0) == pytest.approx(1.0 / 2.0)

    def test_err_speed_dependence(self):
        prof = LoadProfile(L=1.0, p=2)
        kp = kp_coefficient(2)
        assert classical_err(prof, 0.6) == pytest.approx(kp * kp / 0.8)

    def test_err_decreasing_in_p(self):
        vals = [classical_err(LoadProfile(L=1.0, p=p), 0.0)
                for p in range(5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_regime(self):
        with pytest.raises(RegimeError):
            classical_err(LoadProfile(L=1.0, p=0), 1.0)

