"""Crack-line field inversion: tip closure, near-tip asymptotics, balance,
fold consistency and the windowed total-shear maximum."""
import dataclasses
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from crackwave import cli, fields, numerics
from crackwave.errors import DomainError
from crackwave.fields import (FieldKind, _field_values, balance_integral,
                              crack_line_fields, crack_line_window,
                              crack_opening, field_profile, max_total_shear,
                              neartip_coefficients, stresses_on_line,
                              traction_ahead)
from crackwave.loading import LoadProfile, build_split
from crackwave.material import Material
from crackwave.numerics import oscillatory_halfline
from reference_quadrature import averaged_halfline, field_unfolded

TUPLE = (0.3, 0.9, 0.707, 1.0, 1)  # (m, eta, h0, L, p)


@pytest.fixture(scope="module")
def split(split_factory):
    return split_factory(*TUPLE)


class TestCrackOpening:
    def test_tip_closure(self, split):
        w0 = crack_opening(-1e-12, split)
        w_scale = max(abs(crack_opening(x, split)) for x in (-0.5, -1.0, -3.0))
        assert abs(w0) <= 1e-6 * w_scale

    def test_decay_far_behind(self, split):
        w_near = abs(crack_opening(-1.0, split))
        w_far = abs(crack_opening(-4e3, split))
        assert w_far < 0.05 * w_near

    def test_domain(self, split):
        with pytest.raises(DomainError):
            crack_opening(0.5, split)


class TestNearTipAsymptotics:
    def test_coefficients_real(self, split):
        nt = neartip_coefficients(split)
        assert nt.C_w > 0.0  # positive opening
        assert np.isfinite([nt.C_t, nt.C_mu]).all()

    def test_opening_slope_and_prefactor(self, split):
        nt = neartip_coefficients(split)
        Xs = np.geomspace(1e-5, 1e-3, 9)
        w = np.array([crack_opening(-x, split) for x in Xs])
        slope = np.polyfit(np.log(Xs), np.log(np.abs(w)), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.02)
        basis = np.vstack([Xs**1.5, Xs**2.5]).T
        c = np.linalg.lstsq(basis, w, rcond=None)[0]
        assert c[0] == pytest.approx(nt.C_w, rel=0.02)

    def test_total_shear_slope_and_prefactor(self, split):
        nt = neartip_coefficients(split)
        Xs = np.geomspace(1e-5, 1e-3, 9)
        t = _field_values(split, (FieldKind.TOTAL_SHEAR,))(Xs)[0][0]
        slope = np.polyfit(np.log(Xs), np.log(np.abs(t)), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.02)
        basis = np.vstack([Xs**-1.5, Xs**-0.5]).T
        c = np.linalg.lstsq(basis, t, rcond=None)[0]
        assert c[0] == pytest.approx(nt.C_t, rel=0.02)

    def test_couple_stress_slope_and_prefactor(self, split):
        nt = neartip_coefficients(split)
        Xs = np.geomspace(1e-6, 1e-4, 9)
        mu = _field_values(split, (FieldKind.COUPLE_STRESS,))(Xs)[0][0]
        slope = np.polyfit(np.log(Xs), np.log(np.abs(mu)), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.02)
        basis = np.vstack([Xs**-0.5, np.ones_like(Xs)]).T
        c = np.linalg.lstsq(basis, mu, rcond=None)[0]
        assert c[0] == pytest.approx(nt.C_mu, rel=0.02)

    def test_mu_sign_factor(self, split_factory):
        # The couple-stress coefficient changes sign with sqrt(1−2h0²m²) − eta.
        nt_pos = neartip_coefficients(split_factory(0.3, -0.9, 0.707, 1.0, 1))
        nt_neg = neartip_coefficients(split_factory(0.3, 0.9, 0.01, 1.0, 1))
        u_pos = math.sqrt(1.0 - 2.0 * (0.707 * 0.3) ** 2)
        u_neg = math.sqrt(1.0 - 2.0 * (0.01 * 0.3) ** 2)
        assert np.sign(nt_pos.C_mu) == np.sign(u_pos + 0.9)
        assert np.sign(nt_neg.C_mu) == np.sign(u_neg - 0.9)

    def test_traction_neartip_slope(self, split):
        Xs = np.geomspace(1e-5, 1e-3, 7)
        p3 = np.array([traction_ahead(x, split) for x in Xs])
        slope = np.polyfit(np.log(Xs), np.log(np.abs(p3)), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.02)


class TestBalance:
    def test_balance_reference_tuple(self, split):
        assert balance_integral(split) == pytest.approx(1.0, abs=1e-4)

    def test_balance_static(self, split_factory):
        sp = split_factory(0.0, 0.0, 0.707, 0.5, 0)
        assert balance_integral(sp) == pytest.approx(1.0, abs=1e-4)

    def test_balance_tail_at_long_load_and_high_p(self, split_factory):
        # With the grid ending at 400λ the fitted tail left 1.18e-5 here.
        sp = split_factory(0.3, 0.9, 0.707, 30.0, 3)
        assert balance_integral(sp) == pytest.approx(1.0, abs=1e-6)

    def test_balance_long_load(self, split_factory):
        # The grid reaches X = 4000·L = 4e6·ℓ, far past one period per 1e-4.
        sp = split_factory(0.3, 0.9, 0.707, 1000.0, 1)
        assert balance_integral(sp) == pytest.approx(1.0, abs=1e-4)

    def test_traction_decays(self, split):
        assert abs(traction_ahead(300.0, split)) < 1e-3 * abs(
            traction_ahead(0.5, split))


class TestFoldConsistency:
    @pytest.mark.parametrize("kind,X", [
        (FieldKind.OPENING, -0.3),
        (FieldKind.TRACTION, 0.4),
        (FieldKind.TOTAL_SHEAR, 0.2),
        (FieldKind.SIGMA_SHEAR, 0.6),
        (FieldKind.COUPLE_STRESS, 0.7),
    ])
    def test_unfolded_imaginary_residue(self, split, kind, X):
        folded = _field_values(split, (kind,))(abs(X))[0][0]
        unfolded = field_unfolded(split, kind, X)
        scale = max(abs(unfolded), 1e-300)
        assert abs(unfolded.imag) / scale < 1e-8
        assert unfolded.real == pytest.approx(folded, rel=1e-6, abs=1e-12)


class TestStresses:
    def test_total_is_sum(self, split):
        out = stresses_on_line(0.5, split)
        assert out["t23"] == pytest.approx(out["sigma23"] + out["tau23"])

    def test_shear_level_increases_as_p_decreases(self, split_factory):
        # Loading maximum closer to the tip (smaller p) raises the shear level.
        X = 1.0
        levels = [stresses_on_line(X, split_factory(0.3, -0.9, 0.707, 10.0, p))["t23"]
                  for p in (0, 1, 2)]
        assert levels[0] > levels[1] > levels[2]


class TestMaxTotalShear:
    def test_interior_peak(self, split):
        t23max, x_at = max_total_shear(split)
        assert t23max > 0.0
        assert 1e-3 <= x_at <= 1e2

    def test_shielding_signature(self, split_factory):
        # At eta = 0.9 the shear maximum does NOT grow as the loading
        # concentrates: t23max(L=0.5) < t23max(L=1).
        lo = max_total_shear(split_factory(0.3, 0.9, 0.707, 0.5, 1))[0]
        hi = max_total_shear(split_factory(0.3, 0.9, 0.707, 1.0, 1))[0]
        assert lo < hi

    @pytest.mark.parametrize("point,refined", [
        ((0.3, 0.9, 0.707, 4.0, 1), True),      # fig7: an interior maximum
        ((0.407, -0.9, 0.707, 1.0, 1), False),   # fig6: on the window floor
    ])
    def test_maximum_is_a_fresh_inversion_at_its_point(self, split_factory,
                                                       point, refined):
        # The grid and the refined point come from one transform, and a
        # distance's value does not depend on the other distances of a call.
        sp = split_factory(*point)
        t23max, x_at = max_total_shear(sp)
        grid = np.geomspace(*crack_line_window(sp), 90)
        assert (x_at not in grid) == refined
        assert t23max == _field_values(sp, (FieldKind.TOTAL_SHEAR,))(x_at)[0][0]


class TestSplitData:
    def test_frozen_with_one_tail_fit_per_kind_and_radius(self, split, monkeypatch):
        # The split is frozen and caches nothing: each inversion fits the
        # tail of each of its kinds once, on its own radius, and the fits
        # are deterministic, so repeated calls agree bit for bit.
        with pytest.raises(dataclasses.FrozenInstanceError):
            split.F = 0j
        fits = []
        real_fit = fields.fit_power_tail
        monkeypatch.setattr(fields, "fit_power_tail",
                            lambda *args: fits.append(args) or real_fit(*args))
        kinds = (FieldKind.OPENING, FieldKind.TRACTION)
        x = np.array([0.2, 0.5, 3.0])
        first = fields._field_values(split, kinds)(x)
        assert len(fits) == 2
        second = fields._field_values(split, kinds)(x)
        assert len(fits) == 4
        for a, b in zip(fits[:2], fits[2:]):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert all(np.array_equal(u, v) for u, v in zip(first, second))
        assert fits[0][0][-1] == fields._truncation_radius(split)


class TestProfiles:
    def test_field_profile_shapes(self, split):
        prof = field_profile(split, FieldKind.OPENING, n=24)
        assert prof.X.shape == (24,) and np.all(prof.X < 0)
        prof = field_profile(split, FieldKind.TOTAL_SHEAR, n=16)
        assert np.all(prof.X > 0) and np.isfinite(prof.values).all()


def _averaged(split, kind, X):
    """The field by the ladder-free averaging route of the reference."""
    a = X / split.ell
    val, err = averaged_halfline(lambda t: fields._integrands(split, (kind,), t)[0],
                                 a, fields._truncation_radius(split),
                                 sqrt_singularity=kind is not FieldKind.TRACTION)
    if kind is FieldKind.TRACTION:
        val = val + fields._rational_transform(split, a)
    pref = fields._prefactor(split, kind)
    return 2.0 * float(np.real(pref * val)), 2.0 * abs(pref) * err


class TestBatchedInversion:
    @pytest.mark.parametrize("kind", [FieldKind.OPENING, FieldKind.TRACTION,
                                      FieldKind.TOTAL_SHEAR, FieldKind.COUPLE_STRESS])
    def test_profile_equals_pointwise_values(self, split, kind):
        prof = field_profile(split, kind, n=40, x_lo=1e-4)
        value = _field_values(split, (kind,))
        pointwise = np.array([value(abs(x))[0][0] for x in prof.X])
        scale = np.abs(pointwise).max()
        assert np.abs(prof.values - pointwise).max() <= 1e-13 * scale

    def test_scalar_and_array_forms(self, split):
        X = np.array([0.2, 0.5, 3.0])
        w = crack_opening(-X, split)
        st = stresses_on_line(X, split)
        assert isinstance(crack_opening(-0.5, split), float)
        assert isinstance(stresses_on_line(0.5, split)["mu22"], float)
        assert w.shape == X.shape and st["t23"].shape == X.shape
        assert w[1] == pytest.approx(crack_opening(-0.5, split), rel=1e-14)
        assert st["tau23"][2] == pytest.approx(stresses_on_line(3.0, split)["tau23"],
                                               rel=1e-14)

    @pytest.mark.parametrize("L", [1.0, 0.05])
    @pytest.mark.parametrize("kind", [FieldKind.TRACTION, FieldKind.TOTAL_SHEAR])
    def test_profile_error_bounds_the_averaging_route(self, split_factory, L, kind):
        # The xi^{1/2}-ladder kinds, whose error is dominated by the fitted
        # tail.  (The opening and mu22 are checked against a wider radius
        # below: their errors, 6e-15 … 5e-11 here, are finer than those of
        # the averaging route, 3e-10 … 1e-8 at these X.)
        sp = split_factory(0.3, 0.9, 0.707, L, 1)
        prof = field_profile(sp, kind, n=12, x_lo=0.05, x_hi=10.0)
        assert np.all(prof.error > 0.0)
        assert prof.error.max() < 1e-7 * np.abs(prof.values).max()
        for x, v, e in zip(prof.X, prof.values, prof.error):
            ref, _ = _averaged(sp, kind, x)
            assert abs(v - ref) <= e, x


    @pytest.mark.parametrize("L", [1.0, 0.05])
    @pytest.mark.parametrize("kind", [FieldKind.OPENING, FieldKind.COUPLE_STRESS])
    def test_profile_error_bounds_a_tenfold_radius(self, split_factory, monkeypatch,
                                                   L, kind):
        # The same inversion with ten times the truncation radius has other
        # body panels and another tail fit; its own error is far smaller.
        sp = split_factory(0.3, 0.9, 0.707, L, 1)
        prof = field_profile(sp, kind, n=12, x_lo=0.05, x_hi=10.0)
        radius = fields._truncation_radius(sp)
        monkeypatch.setattr(fields, "_truncation_radius", lambda split: 10.0 * radius)
        wide = field_profile(sp, kind, n=12, x_lo=0.05, x_hi=10.0)
        assert np.all(prof.error > 0.0)
        assert prof.error.max() < 1e-7 * np.abs(prof.values).max()
        assert np.all(np.abs(prof.values - wide.values) <= prof.error)


class TestSmallLoadLength:
    """At L/ℓ = 0.05 the split G⁻ varies on xi ~ ℓ/L = 20, so the tail ladder
    must be fitted well beyond that scale."""

    @pytest.fixture(scope="class")
    def short(self, split_factory):
        return split_factory(0.3, 0.9, 0.707, 0.05, 1)

    def test_total_shear_is_converged_in_the_radius(self, short):
        kind = FieldKind.TOTAL_SHEAR
        radius = 10.0 * fields._truncation_radius(short)
        val, _ = oscillatory_halfline(
            lambda t: fields._integrands(short, (kind,), t), radius,
            [fields._LADDERS[kind]], fields._tail_fits(short, (kind,), radius))(0.01)
        wide = 2.0 * float(np.real(fields._prefactor(short, kind) * val[0]))
        assert _field_values(short, (kind,))(0.01)[0][0] == pytest.approx(wide, rel=1e-8)

    def test_ladder_agrees_with_the_averaging_route(self, short):
        kind = FieldKind.TOTAL_SHEAR
        ref, _ = _averaged(short, kind, 2.4)
        assert _field_values(short, (kind,))(2.4)[0][0] == pytest.approx(ref, rel=1e-6)


class TestMomentTable:
    """One Filon moment table per (split, X grid): every crack-line field of
    a grid shares it, and the zero-frequency F cross-check builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        real = numerics._bessel_table
        monkeypatch.setattr(numerics, "_bessel_table",
                            lambda x: calls.append(np.shape(x)) or real(x))
        return calls

    def test_fields_run_builds_one_table(self, built, tmp_path):
        preset = Path(__file__).resolve().parents[1] / "presets" / "fig4.conf"
        assert cli.main(["fields", "--config", str(preset), "--out", str(tmp_path)]) == 0
        assert len(built) == 1

    def test_stresses_on_line_builds_one_table(self, built, split):
        stresses_on_line(np.geomspace(1e-3, 1e2, 20), split)
        assert len(built) == 1

    def test_build_split_builds_none(self, built, kernel_factory):
        material = Material(G=1.0, rho=1.0, ell=1.0, eta=0.9, h0=0.707)
        split = build_split(kernel_factory(0.3, 0.9, 0.707), material,
                            LoadProfile(T0=1.0, L=2.0, p=1))
        assert split.F_alt is not None
        assert built == []

    def test_stacked_kinds_match_single_kind_calls(self, split):
        x = np.geomspace(1e-3, 1e2, 30)
        fl = crack_line_fields(x, split)
        for key, kind in (("w", FieldKind.OPENING), ("p3", FieldKind.TRACTION),
                          ("sigma23", FieldKind.SIGMA_SHEAR),
                          ("tau23", FieldKind.TAU_SHEAR),
                          ("mu22", FieldKind.COUPLE_STRESS)):
            single = _field_values(split, (kind,))(x)[0][0]
            assert np.all(np.abs(fl[key] - single) <= 1e-15 * np.abs(single)), key
        assert np.array_equal(fl["w"], crack_opening(-x, split))
        assert np.array_equal(fl["t23"], stresses_on_line(x, split)["t23"])


# A 54-point profile of all five fields once formed (columns × frequencies ×
# panels × order) products, a 4.6 MB traced peak.  A process that has freed a
# block that large gets such temporaries from glibc's heap without page
# faults (tests/test_page_faults.py), so only the traced peak sees them; the
# row blocks of the transform keep it near 1.1 MB.
PEAK_BOUND = 2_000_000


def test_warm_crack_line_fields_traced_peak(split_factory):
    split = split_factory(0.3, -0.9, 0.707, 1.0, 1)   # fig4's point
    x = np.geomspace(*crack_line_window(split), 160)[::3]
    crack_line_fields(x, split)  # warm-up
    tracemalloc.start()
    try:
        crack_line_fields(x, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_scaled_expn_matches_mpmath(q):
    # e^w·E_q(w) on both sides of the switch from the power series to the
    # continued fraction at w = 1, and far out, where the fraction is
    # already scaled.
    w = np.concatenate([np.geomspace(1e-6, 600.0, 120),
                        np.linspace(45.0, 130.0, 35), [499.9, 500.0, 500.1],
                        [0.999, 1.0, 1.001, 1e4, 1e6]])
    got = fields._scaled_expn(q, w)
    with mpmath.workdps(30):
        ref = [float(mpmath.exp(wi) * mpmath.expint(q, wi)) for wi in w]
    for wi, g, r in zip(w, got, ref):
        assert abs(g - r) <= 1e-13 * r, (q, wi)
