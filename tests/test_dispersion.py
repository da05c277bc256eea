"""Surface-wave dispersion: determinant, branch tracing and oracles."""
import logging
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackwave import dispersion
from crackwave.dispersion import (_scaled_det, _wave_exponents, shear_phase_speed,
                                  trace_curve)
from crackwave.errors import DomainError, RootLossError
from crackwave.material import critical_speed, lambda_surface
from crackwave.numerics import bracketed_root
from reference_dispersion import full_scan_brackets, mp_root

FIG_GRID = np.geomspace(0.05, 50.0, 120)  # fig1's and fig2's grid


def _branch_boundary(grid, h0, axis):
    if axis == "k":
        return shear_phase_speed(grid, h0)
    return grid / np.sqrt(dispersion._omega_k2(grid, h0, 0.0))


def _scan_setup(eta, h0, axis, grid):
    """The determinant and branch boundary of the full scan."""
    m_b = _branch_boundary(grid, h0, axis)

    def det(m, g):
        return _scaled_det(m, eta, h0, **{f"{axis}_norm": g})
    return det, m_b


class TestShearPhaseSpeed:
    def test_long_wave_limit(self):
        for h0 in (0.0, 0.3, 0.9):
            assert shear_phase_speed(0.0, h0) == 1.0

    def test_nondispersive_point(self):
        # h0 = 1/sqrt(2) makes the planar shear wave non-dispersive.
        for k in (0.1, 1.0, 17.0):
            assert shear_phase_speed(k, 1.0 / math.sqrt(2.0)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert shear_phase_speed(1.0, 0.0) == pytest.approx(math.sqrt(1.5))


class TestWaveExponents:
    """The decay exponents (chi, alpha, beta²) of the determinant route."""

    def test_origin(self):
        chi, alpha, beta2 = _wave_exponents(0.0, 0.3, 0.707)
        assert chi == pytest.approx(1.0)
        assert alpha == pytest.approx(math.sqrt(2.0))
        assert beta2 == pytest.approx(0.0)

    def test_static_collapse(self):
        xi = np.array([0.5, 3.0, 40.0])
        chi, alpha, beta2 = _wave_exponents(xi, 0.0, 0.3)
        assert chi == pytest.approx(1.0)
        assert alpha == pytest.approx(np.sqrt(2.0 + xi * xi))
        assert np.sqrt(beta2) == pytest.approx(np.abs(xi))

    def test_small_xi_beta_keeps_relative_accuracy(self):
        # beta ~ sqrt(1 - m²)·xi as xi -> 0; base - chi would cancel to 0.
        m = 0.3
        _, _, beta2 = _wave_exponents(1e-9, m, 0.707)
        assert math.sqrt(beta2) / (math.sqrt(1.0 - m * m) * 1e-9) \
            == pytest.approx(1.0, abs=1e-12)


class TestDeterminant:
    """The boundary-system determinant scaled by (1 + k)^5, which ``validate``
    checks ``trace_curve``'s roots against."""

    def test_zero_on_shear_branch_at_eta0(self):
        for k in (0.3, 1.0, 4.0):
            mB = shear_phase_speed(k, 0.707)
            det = _scaled_det(mB, 0.0, 0.707, k_norm=k)
            scale = abs(_scaled_det(0.9 * mB, 0.0, 0.707, k_norm=k))
            assert abs(det) < 1e-6 * scale

    def test_supersonic_root_bracketed(self):
        # h0 = 0 at omega = 1: a sign change brackets a root above m = 1.
        mB = math.sqrt(0.5 * (1.0 + math.sqrt(3.0)))
        ms = np.linspace(1.0001, mB * (1.0 - 1e-10), 400)
        vals = [_scaled_det(m, 0.5, 0.0, omega_norm=1.0) for m in ms]
        assert any(a * b < 0.0 for a, b in zip(vals, vals[1:]))

    def test_highfreq_coefficient_is_lambda(self):
        for eta, h0, mR in ((0.9, 0.8, 0.7), (-0.5, 0.9, 0.4)):
            omega = 1e4
            k = omega / mR
            det = _scaled_det(mR, eta, h0, omega_norm=omega) * ((1.0 + k) / k) ** 5
            lam = lambda_surface(eta, h0, mR)
            assert det == pytest.approx(lam, rel=1e-4)

    def test_domain_checks(self):
        # Above the planar-shear speed beta² < 0: the mode does not decay.
        mB = shear_phase_speed(1.0, 0.707)
        with pytest.raises(DomainError):
            _scaled_det(1.01 * mB, 0.5, 0.707, omega_norm=1.01 * mB)


    def test_domain_error_names_the_first_offending_point(self):
        mB = shear_phase_speed(1.0, 0.707)
        m = mB * np.array([0.5, 1.01, 1.02])
        with pytest.raises(DomainError) as info:
            _scaled_det(m, 0.5, 0.707, k_norm=1.0)
        assert str(info.value) == (f"point (mR={m[1]}, k=1.0) lies off the "
                                   f"decaying-mode branch")


class TestBranchBoundary:
    @pytest.mark.parametrize("h0", [0.0, 0.8, 1.044106202793004])
    def test_boundary_against_extended_precision(self, h0):
        # m_B = omega/sqrt(K(0)), K(0) = sqrt(g² + 2omega²) − g; g = 1 −
        # h0²omega² runs from 1 to −1.1e6 on this grid, and K cancels where
        # g > 0 unless formed as 2omega²/(sqrt(…) + g).
        omega = np.geomspace(0.05, 1e3, 40)
        m_b = _branch_boundary(omega, h0, "omega")
        with mpmath.workdps(40):
            for w, m in zip(omega, m_b):
                b = 1 - mpmath.mpf(h0) ** 2 * mpmath.mpf(w) ** 2
                ref = mpmath.sqrt((b + mpmath.sqrt(b * b + 2 * mpmath.mpf(w) ** 2)) / 2)
                assert abs(m / ref - 1) < 4e-16, w

    def test_high_frequency_point_above_h0_star(self):
        # h0 > h0*(eta) and h0·omega > 1 (g < 0).
        (pt,) = trace_curve([1e3], 0.3547794353823026, 1.044106202793004, "omega")
        assert pt.mR == pytest.approx(0.6755508952, rel=1e-9)


class TestTraceCurve:
    def test_eta0_degenerates_to_shear(self):
        pts = trace_curve(np.geomspace(0.1, 20.0, 40), 0.0, 0.707, axis="k")
        for p in pts:
            assert abs(p.mR - shear_phase_speed(p.k_norm, 0.707)) < 1e-8

    def test_h0_zero_supersonic(self):
        pts = trace_curve(np.geomspace(0.2, 10.0, 20), 0.9, 0.0, axis="k")
        assert all(p.mR > 1.0 for p in pts)

    def test_consistency_identity(self):
        pts = trace_curve(np.geomspace(0.5, 50.0, 15), 0.9, 0.8, axis="omega")
        for p in pts:
            assert p.mR * p.k_norm == pytest.approx(p.omega_norm, rel=1e-12)

    def test_subsonic_decrease_and_highfreq_bound(self):
        pts = trace_curve(np.geomspace(0.5, 1e3, 25), 0.9, 0.8, axis="omega")
        mrs = [p.mR for p in pts]
        peak = int(np.argmax(mrs))
        assert all(a >= b for a, b in zip(mrs[peak:], mrs[peak + 1:]))
        assert mrs[-1] >= critical_speed(0.9, 0.8) - 1e-3

    def test_highfreq_limit_matches_critical_speed(self):
        for eta, h0 in ((0.9, 0.8), (-0.9, 0.707)):
            pt = trace_curve(np.array([1e3]), eta, h0, axis="omega")[0]
            assert abs(pt.mR - critical_speed(eta, h0)) < 1e-3

    @pytest.mark.parametrize("axis", ["omega", "k"])
    @pytest.mark.parametrize("eta,h0", [
        (0.9, 0.8),     # fig1's and fig2's material
        (-0.9, 0.707),  # a root far below m_B at some points
        (0.9, 0.0),     # roots above m = 1
        (0.0, 0.707),   # no sign change: boundary roots
    ])
    def test_top_down_scan_matches_full_scan(self, eta, h0, axis):
        # The closed-form root against the primary branch of the full
        # determinant scan (its last sign change, the first met scanning
        # down from m_B), refined there, or m_B where the scan finds no sign
        # change.
        for grid in (FIG_GRID, np.geomspace(0.01, 100.0, 71)):
            det, m_b = _scan_setup(eta, h0, axis, grid)
            lo, hi = full_scan_brackets(det, grid, m_b)
            ref = m_b.copy()
            inner = ~np.isnan(lo)
            if inner.any():
                ref[inner] = bracketed_root(lambda m: det(m, grid[inner]),
                                            lo[inner], hi[inner])
            got = np.array([p.mR for p in trace_curve(grid, eta, h0, axis)])
            np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("axis", ["omega", "k"])
    @pytest.mark.parametrize("eta,h0", [
        (0.0, 0.707),   # boundary roots, m_R = m_B
        (0.9, 0.0),     # h0 = 0: roots above m = 1
        (0.5, 1.3),     # h0 > 1
        (0.9, 0.8),
        (0.99, 0.8),
        (-0.99, 0.707),
    ])
    def test_root_against_extended_precision(self, eta, h0, axis):
        # The reference is the root of the 50-digit determinant itself, not
        # of the polynomial that trace_curve solves; 1e3 is the omega of the
        # high-frequency limit.
        grid = np.array([0.05, 1.0, 20.0, 1e3])
        for p, g in zip(trace_curve(grid, eta, h0, axis), grid):
            ref = mp_root(p.mR, eta, h0, axis, g)
            assert abs(p.mR / ref - 1) <= 1e-13, (g, p.mR, ref)

    @given(eta=st.floats(-0.99, 0.99), h0=st.floats(0.0, 1.5),
           axis=st.sampled_from(["omega", "k"]),
           grid=st.lists(st.floats(1e-2, 1e3), min_size=1, max_size=6,
                         unique=True).map(sorted))
    @settings(max_examples=60, deadline=None)
    def test_root_on_the_branch(self, eta, h0, axis, grid):
        # 0 < m_R ≤ m_B (up to rounding: at eta = 0 the two coincide), and
        # omega = m_R·k.
        grid = np.array(grid)
        pts = trace_curve(grid, eta, h0, axis)
        m_r = np.array([p.mR for p in pts])
        assert np.all(m_r > 0.0)
        assert np.all(m_r <= _branch_boundary(grid, h0, axis) * (1.0 + 1e-15))
        for p in pts:
            assert p.omega_norm == pytest.approx(p.mR * p.k_norm, rel=1e-15)

    def test_jump_warning(self, caplog):
        # h0 = 0: the supersonic branch climbs by more than 5% per step.
        grid = np.geomspace(0.2, 10.0, 20)
        with caplog.at_level(logging.WARNING, logger="crackwave.dispersion"):
            pts = trace_curve(grid, 0.9, 0.0, axis="k")
        m = np.array([p.mR for p in pts])
        jumps = np.flatnonzero(np.abs(np.diff(m)) > 0.05 * m[:-1])
        assert jumps.size > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"dispersion curve jump at k={grid[i + 1]:g}: {m[i]:g} -> {m[i + 1]:g}"
            for i in jumps]

    def test_smooth_curve_no_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="crackwave.dispersion"):
            trace_curve(np.geomspace(0.05, 50.0, 120), 0.9, 0.8, axis="omega")
        assert caplog.records == []

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            trace_curve(np.array([1.0, 0.5]), 0.0, 0.0)
        with pytest.raises(DomainError):
            trace_curve(np.array([1.0, 2.0]), 0.0, 0.0, axis="frequency")

    @pytest.mark.parametrize("grid,eta,h0,message", [
        ([1.0, 2.0], 1.5, 0.8, "eta must lie in (-1, 1), got 1.5"),
        ([1.0, 2.0], -1.0, 0.8, "eta must lie in (-1, 1), got -1.0"),
        ([1.0, 2.0], math.nan, 0.8, "eta must lie in (-1, 1), got nan"),
        ([1.0, 2.0], 0.9, -0.5, "h0 must be nonnegative and finite, got -0.5"),
        ([1.0, 2.0], 0.9, math.nan, "h0 must be nonnegative and finite, got nan"),
        ([1.0, math.inf], 0.9, 0.8, "grid must be finite, got inf"),
        ([1.0, math.nan], 0.9, 0.8, "grid must be finite, got nan"),
    ], ids=["eta-above", "eta-minus-one", "eta-nan", "h0-negative", "h0-nan",
            "grid-inf", "grid-nan"])
    @pytest.mark.parametrize("axis", ["omega", "k"])
    def test_bad_material_or_grid_is_named(self, grid, eta, h0, message, axis):
        with pytest.raises(DomainError) as info:
            trace_curve(grid, eta, h0, axis)
        assert str(info.value) == message

    @pytest.mark.parametrize("axis,value", [
        ("k", 1e100),      # the cubic overflows: no sign change
        ("omega", 1e-170),  # 2omega² underflows: K(0) = 0, m_R infinite
    ])
    def test_lost_root_is_named(self, axis, value):
        with warnings.catch_warnings(), pytest.raises(RootLossError) as info:
            warnings.simplefilter("error")  # and no numpy RuntimeWarning
            trace_curve(sorted([0.5, value]), 0.9, 0.8, axis)
        assert str(info.value) == (f"no dispersion root found (eta=0.9, h0=0.8, "
                                   f"{axis}={value})")
