"""Surface-wave dispersion: determinant, branch tracing and oracles."""
import logging
import math

import mpmath
import numpy as np
import pytest

from crackwave import dispersion, numerics
from crackwave.dispersion import _scaled_det, shear_phase_speed, trace_curve
from crackwave.errors import DomainError, RootLossError
from crackwave.material import critical_speed, lambda_surface
from reference_dispersion import full_scan_brackets

FIG_GRID = np.geomspace(0.05, 50.0, 120)  # fig1's and fig2's grid


def _scan_setup(eta, h0, axis, grid):
    """The determinant and branch boundary that ``trace_curve`` scans."""
    if axis == "k":
        m_b = shear_phase_speed(grid, h0)
    else:
        m_b = dispersion._branch_boundary_omega(grid, h0)

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


class TestDeterminant:
    """The boundary-system determinant scaled by (1 + k)^5, which the branch
    scan and the root solve of ``trace_curve`` evaluate."""

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
        # b = 1 − h0²omega² runs from 1 to −1.1e6 on this grid; the root
        # (b + sqrt(b² + 2omega²))/2 of m² cancels where b < 0.
        omega = np.geomspace(0.05, 1e3, 40)
        m_b = dispersion._branch_boundary_omega(omega, h0)
        with mpmath.workdps(40):
            for w, m in zip(omega, m_b):
                b = 1 - mpmath.mpf(h0) ** 2 * mpmath.mpf(w) ** 2
                ref = mpmath.sqrt((b + mpmath.sqrt(b * b + 2 * mpmath.mpf(w) ** 2)) / 2)
                assert abs(m / ref - 1) < 4e-16, w

    def test_high_frequency_point_above_h0_star(self):
        # The cancelling form put m_b 7.1e-11 above the boundary here, so
        # the top scan point had beta² < 0 and the trace raised DomainError.
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

    def test_scan_blocks_join(self):
        # A grid longer than one scan block gives the points of its pieces,
        # bit for bit.
        cols = dispersion._SCAN_LINEAR + dispersion._SCAN_GEOMETRIC
        block = numerics.row_blocks(10**6, cols)[0].stop
        grid = np.geomspace(0.05, 50.0, 2 * block + 7)
        whole = [p.mR for p in trace_curve(grid, 0.9, 0.8, axis="k")]
        cut = block + 3
        parts = [p.mR for g in (grid[:cut], grid[cut:])
                 for p in trace_curve(g, 0.9, 0.8, axis="k")]
        assert whole == parts

    @pytest.mark.parametrize("axis", ["omega", "k"])
    @pytest.mark.parametrize("eta,h0", [
        (0.9, 0.8),     # every bracket in the top part
        (-0.9, 0.707),  # about half the rows scan the lower part too
        (0.9, 0.0),     # roots above m = 1
        (0.0, 0.707),   # no sign change: boundary roots
    ])
    def test_top_down_scan_matches_full_scan(self, eta, h0, axis):
        cols = dispersion._SCAN_LINEAR + dispersion._SCAN_GEOMETRIC
        block = numerics.row_blocks(10**6, cols)[0].stop
        for grid in (FIG_GRID, np.geomspace(0.01, 100.0, 2 * block + 7)):
            det, m_b = _scan_setup(eta, h0, axis, grid)
            ref = full_scan_brackets(det, grid, m_b)
            new = dispersion._brackets(det, grid, m_b, axis)
            for a, b in zip(ref, new):
                assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("eta,h0", [(0.9, 0.8), (-0.9, 0.707)])
    def test_lower_scan_only_where_the_top_has_no_root(self, monkeypatch,
                                                       eta, h0):
        # Every grid point scans the top part, the last 113 of 240 scan
        # points; only the points with no sign change there scan the lower
        # 128.  All of fig1's brackets lie in the top part (the whole scan
        # took 120 × 240 = 28 800 points); at eta = −0.9 about half do not.
        real = dispersion._scaled_det
        points = []

        def det(m, *args, **kwargs):
            if np.ndim(m) == 2:  # a scan block, not a root-solve step
                points.append(np.size(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(dispersion, "_scaled_det", det)
        trace_curve(FIG_GRID, eta, h0, axis="omega")
        lower, rest = divmod(sum(points) - FIG_GRID.size * 113, 128)
        assert rest == 0
        if eta > 0:
            assert lower == 0
        else:
            assert 0 < lower < FIG_GRID.size

    @pytest.mark.parametrize("first_lost", [0, 6])
    def test_root_loss_keeps_last_good(self, monkeypatch, first_lost):
        # From grid point first_lost on, a determinant that never changes
        # sign and does not fall towards m_b: those roots are lost.
        grid = np.geomspace(0.5, 5.0, 10)
        real = dispersion._scaled_det

        def det(m, eta, h0, *, k_norm=None, omega_norm=None):
            d = real(m, eta, h0, k_norm=k_norm, omega_norm=omega_norm)
            lost = np.broadcast_to(k_norm, np.shape(d)) >= grid[first_lost]
            return np.where(lost, 1.0 + np.abs(d), d)

        monkeypatch.setattr(dispersion, "_scaled_det", det)
        with pytest.raises(RootLossError) as info:
            trace_curve(grid, 0.9, 0.8, axis="k")
        monkeypatch.undo()
        if first_lost == 0:
            assert info.value.last_good is None
        else:
            ref = trace_curve(grid, 0.9, 0.8, axis="k")[first_lost - 1]
            good = info.value.last_good
            assert good.k_norm == ref.k_norm == grid[first_lost - 1]
            assert good.mR == pytest.approx(ref.mR, rel=1e-12)

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
