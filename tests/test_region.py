import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nozzleflow.errors import CertificateFailure, DomainError, PoleError
from nozzleflow.model import GasLaw
from nozzleflow.region import (CriticalConstants, NozzleProfile, PchipCurve,
                               RegionSpec, _normalized_min_slack, check_h1,
                               check_hypothesis, critical_constants, envelopes,
                               exp_profile, f_eval, find_constants,
                               membership_margins,
                               power_profile, region_speed_bounds,
                               tabulated_profile, zero_profile)

SQRT3 = math.sqrt(3.0)


# --- brute-force oracle, kept independent of the closed forms under test ----

def oracle_constants(law, grid=1_000_000):
    r = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, grid)
    f = f_eval(r, law)
    i = int(np.argmin(f))
    lo, hi = r[max(i - 1, 0)], r[min(i + 1, grid - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = float(f_eval(c, law)), float(f_eval(d, law))
    for _ in range(120):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = float(f_eval(c, law))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = float(f_eval(d, law))
    l = min(fc, fd)

    def level_root(lo, hi):
        glo = float(f_eval(lo, law)) - l
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = float(f_eval(mid, law)) - l
            if g == 0.0 or hi - lo < 1e-14:
                return mid
            if glo * g < 0.0:
                hi = mid
            else:
                lo, glo = mid, g
        return 0.5 * (lo + hi)

    hi = 2.0
    while float(f_eval(hi, law)) > l:
        hi *= 2.0
    return l, -level_root(-2.0 + 1e-9, -1.0 - 1e-9), level_root(1.0 + 1e-9, hi)


class TestCriticalConstants:
    def test_f_at_zero(self, law53):
        assert f_eval(0.0, law53) == pytest.approx(8.0)

    def test_f_poles(self, law53):
        for r in (1.0, -1.0):
            with pytest.raises(PoleError):
                f_eval(r, law53)

    def test_f_at_sqrt3(self, law53):
        assert f_eval(SQRT3, law53) == pytest.approx(4.0 + 2.0 * SQRT3, rel=1e-12)

    def test_log_branch_closed_forms(self, law53):
        c = critical_constants(law53)
        assert c.l == pytest.approx(4.0 + 2.0 * SQRT3, abs=1e-10)
        assert c.sigma1 == pytest.approx(3.0 * SQRT3 - 4.0, abs=1e-10)
        assert c.sigma2 == pytest.approx(SQRT3, abs=1e-10)

    def test_level_set_consistency(self, law53):
        c = critical_constants(law53)
        assert f_eval(-c.sigma1, law53) == pytest.approx(c.l, abs=1e-10)
        assert f_eval(c.sigma2, law53) == pytest.approx(c.l, abs=1e-10)

    def test_lower_bound_on_band(self, law53):
        c = critical_constants(law53)
        r = np.linspace(-c.sigma1, c.sigma2, 100_001)
        r = r[(np.abs(r - 1.0) > 1e-9) & (np.abs(r + 1.0) > 1e-9)]
        assert float((f_eval(r, law53) - c.l).min()) >= -1e-10

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(20240811)
        for gamma in 1.0 + rng.uniform(1e-3, 2.0 / 3.0, size=20):
            law = GasLaw.from_gamma(float(min(gamma, 5.0 / 3.0 - 1e-4)))
            got = critical_constants(law)
            l, s1, s2 = oracle_constants(law, grid=400_000)
            assert got.l == pytest.approx(l, rel=1e-8)
            assert got.sigma1 == pytest.approx(s1, rel=1e-8)
            assert got.sigma2 == pytest.approx(s2, rel=1e-8)


class TestDecayCertificate:
    def test_zero_profile_passes(self):
        cert = check_h1(zero_profile(k1=0.3, k2=0.7, alpha=1.0, M=1.0))
        assert cert.passed
        assert all(item.slack >= 0 for item in cert.items)

    def test_matched_power_family_passes(self, law53):
        prof = power_profile(0.1, 1.0, 2.0, law53, k1=0.01, k2=0.2, alpha=1.0, M=1.0)
        assert check_h1(prof).passed

    def test_slow_decay_fails(self, law53):
        prof = power_profile(0.1, 1.0, 1.0, law53, k1=0.01, k2=0.2, alpha=1.0, M=1.0)
        cert = check_h1(prof, x_grid=np.linspace(0.0, 200.0, 4001))
        assert not cert.passed
        # the squared coefficient decays one power too slowly: at x = 100 the
        # requirement is already violated by orders of magnitude
        x = 100.0
        assert 0.01 * (1 + x) ** -3 < float(prof.a(x)) ** 2


def spec_with_I(kind, L1, L2, U1, U2, I):
    return RegionSpec(kind, L1, L2, U1, U2, profile=None, I_total=I)


H2_FEASIBLE = dict(L1=1.02, L2=0.9, U1=1.0, U2=1.1)
H3_FEASIBLE = dict(L1=1.0, L2=1.2, U1=1.05, U2=1.25)
H4_FEASIBLE = dict(L1=1.02, L2=0.9, U1=1.0, U2=0.88)


class TestHypothesisCertificates:
    def setup_method(self):
        self.law = GasLaw.from_gamma("5/3")
        self.consts = critical_constants(self.law)

    def test_h2_feasible(self):
        cert = check_hypothesis(spec_with_I("m", I=0.005, **H2_FEASIBLE), self.law, self.consts)
        assert cert.passed

    def test_h2_single_violation(self):
        bad = dict(H2_FEASIBLE, L1=1.0)
        cert = check_hypothesis(spec_with_I("m", I=0.005, **bad), self.law, self.consts)
        assert cert.failing() == ["U1*exp(2I) <= L1"]

    def test_h3_feasible(self):
        cert = check_hypothesis(spec_with_I("r", I=0.005, **H3_FEASIBLE), self.law, self.consts)
        assert cert.passed

    def test_h3_single_violation(self):
        bad = dict(H3_FEASIBLE, L2=1.05)
        cert = check_hypothesis(spec_with_I("r", I=0.005, **bad), self.law, self.consts)
        assert cert.failing() == ["U1*exp(2I) < L2"]

    def test_h4_feasible(self):
        cert = check_hypothesis(spec_with_I("l", I=0.005, **H4_FEASIBLE), self.law, self.consts)
        assert cert.passed

    def test_h4_single_violation(self):
        bad = dict(H4_FEASIBLE, U2=0.95)
        cert = check_hypothesis(spec_with_I("l", I=0.005, **bad), self.law, self.consts)
        assert cert.failing() == ["U2*exp(2I) <= L2"]

    def test_strict_inequality_needs_a_margin(self):
        # "L2 < U1" is strict in band l: a tie never passes, and a gap below
        # the certification margin passes only when no margin is asked for
        tie = spec_with_I("l", I=0.005, **dict(H4_FEASIBLE, U1=0.9))
        assert check_hypothesis(tie, self.law, self.consts).failing() == ["L2 < U1"]
        assert not check_hypothesis(tie, self.law, self.consts, strict_margin=0.0).passed
        close = spec_with_I("l", I=0.005, **dict(H4_FEASIBLE, U1=0.9 * (1.0 + 1e-12)))
        assert check_hypothesis(close, self.law, self.consts).failing() == ["L2 < U1"]
        assert check_hypothesis(close, self.law, self.consts, strict_margin=0.0).passed

    def test_zero_majorant_violates_strictness(self):
        spec = RegionSpec("m", profile=zero_profile(), **H2_FEASIBLE)
        cert = check_hypothesis(spec, self.law, self.consts)
        assert "|a| < l*abar" in cert.failing()


def envelope_profile(I_total, law):
    """Profile whose majorant integrates exactly to I_total (duct tiny)."""

    def a(x):
        return 1e-4 * I_total * np.exp(-np.asarray(x, dtype=float))

    def a_prime(x):
        return -1e-4 * I_total * np.exp(-np.asarray(x, dtype=float))

    def abar(x):
        return I_total * np.exp(-np.asarray(x, dtype=float))

    return NozzleProfile(a, a_prime, abar, k1=1.0, k2=1.0, alpha=1.0, M=1.0,
                         I_total=I_total)


class TestMembership:
    def setup_method(self):
        self.law = GasLaw.from_gamma("5/3")
        self.profile = envelope_profile(0.005, self.law)
        self.spec = RegionSpec("m", profile=self.profile, **H2_FEASIBLE)

    def margins_at(self, z, w, x):
        table = self.profile.quadrature_table(1.0)
        return membership_margins(z, w, self.profile.cum_abar(x, table), self.spec)

    def test_midpoint_inside(self):
        margins = self.margins_at(-(1.02 + 1.0) / 2.0, (0.9 + 1.1) / 2.0, 0.0)
        assert all(v > 0 for v in margins.values())

    def test_constructed_violation(self):
        margins = self.margins_at(-1.02 - 0.1, 1.0, 0.0)
        assert not all(v >= 0.0 for v in margins.values())
        assert margins["z_lo"] == pytest.approx(-0.1, abs=1e-12)

    def test_far_field_envelopes_nonempty(self):
        I = self.profile.I_total
        z_lo, z_hi, w_lo, w_hi = envelopes(self.spec, I)
        assert z_lo == pytest.approx(-1.02 * math.exp(-I))
        assert z_hi == pytest.approx(-1.0 * math.exp(I))
        assert z_lo < z_hi and w_lo < w_hi

    @settings(max_examples=200, deadline=None)
    @given(z=st.floats(-1.5, -0.5), w=st.floats(0.5, 1.5), t=st.floats(0.0, 1.0),
           s=st.floats(0.0, 0.005))
    def test_pulling_inward_never_hurts_worst_face(self, z, w, t, s):
        z_lo, z_hi, w_lo, w_hi = envelopes(self.spec, s)
        mid_z, mid_w = 0.5 * (z_lo + z_hi), 0.5 * (w_lo + w_hi)
        zt, wt = z + t * (mid_z - z), w + t * (mid_w - w)

        def worst_face(zz, ww):
            m = membership_margins(zz, ww, s, self.spec)
            return min(float(m[f]) for f in ("z_lo", "z_hi", "w_lo", "w_hi"))

        assert worst_face(zt, wt) >= worst_face(z, w) - 1e-12


class TestSpeedBounds:
    def setup_method(self):
        self.law = GasLaw.from_gamma("5/3")

    def test_printed_example(self):
        spec = spec_with_I("m", I=0.005, **H2_FEASIBLE)
        b = region_speed_bounds(spec, self.law)
        assert b.d1 == pytest.approx(0.3, rel=1e-12)
        # 1 + 0.9 exp(-0.005), frozen from 40-digit evaluation
        assert b.C3 == pytest.approx(1.8955112312734141, rel=1e-12)
        assert b.C1 == pytest.approx(1.02)
        assert b.C2 == pytest.approx(1.1 * math.exp(0.005), rel=1e-12)

    def test_degenerate_ratio_rejected(self):
        spec = spec_with_I("m", L1=2.5, L2=1.9, U1=1.0, U2=2.0, I=0.005)
        with pytest.raises(CertificateFailure):
            region_speed_bounds(spec, self.law)

    @pytest.mark.parametrize("kind,consts", [
        ("m", H2_FEASIBLE), ("r", H3_FEASIBLE), ("l", H4_FEASIBLE)])
    def test_corner_formulas_match_dense_sampling(self, kind, consts):
        from nozzleflow.model import speeds_zw

        spec = spec_with_I(kind, I=0.005, **consts)
        b = region_speed_bounds(spec, self.law)
        s = np.linspace(0.0, 0.005, 10_000)
        z_lo, z_hi, w_lo, w_hi = envelopes(spec, s)
        lam1_all, lam2_all, lam_abs = [], [], 0.0
        for zc in (z_lo, z_hi):
            for wc in (w_lo, w_hi):
                lam1, lam2 = speeds_zw(zc, wc, self.law)
                lam1_all.append(lam1)
                lam2_all.append(lam2)
                lam_abs = max(lam_abs, float(np.abs(lam1).max()),
                              float(np.abs(lam2).max()))
        lam1_all = np.concatenate(lam1_all)
        lam2_all = np.concatenate(lam2_all)
        assert float(np.abs(lam1_all).min()) == pytest.approx(b.d1, abs=1e-10)
        assert float(np.abs(lam2_all).min()) == pytest.approx(b.d2, abs=1e-10)
        assert lam_abs == pytest.approx(b.lambda_abs_max, abs=1e-10)
        assert np.all(np.sign(lam1_all) == b.sign1)
        assert np.all(np.sign(lam2_all) == b.sign2)


class TestCumulativeMajorant:
    def test_zero_at_origin(self, law53):
        prof = envelope_profile(0.37, law53)
        assert prof.cum_abar(0.0, prof.quadrature_table(1.0)) == 0.0

    def test_exponential_closed_form(self, law53):
        eps = 0.37
        prof = envelope_profile(eps, law53)
        # eps (1 - exp(-1)), frozen from 40-digit evaluation
        assert prof.cum_abar(1.0, prof.quadrature_table(1.0)) == pytest.approx(
            eps * 0.6321205588285577, abs=1e-10)

    def test_approaches_total(self, law53):
        eps = 0.37
        prof = envelope_profile(eps, law53)
        assert prof.cum_abar(60.0, prof.quadrature_table(60.0)) == pytest.approx(eps, abs=1e-10)

    def test_monotone(self, law53):
        prof = envelope_profile(0.2, law53)
        xs = np.sort(np.random.default_rng(7).uniform(0.0, 10.0, 200))
        vals = prof.cum_abar(xs, prof.quadrature_table(10.0))
        assert np.all(np.diff(vals) >= -1e-15)

    def test_negative_rejected(self, law53):
        with pytest.raises(DomainError):
            prof = envelope_profile(0.1, law53)
            prof.cum_abar(-0.5, prof.quadrature_table(1.0))


def _doubling_reference(profile, x_hi):
    """The quadrature table as it was built before a level reused the
    samples of the level before: every level samples abar at all its nodes
    and forms its coarse sum from its even nodes.  Kept as the reference
    ``NozzleProfile.quadrature_table`` must match bitwise."""
    x_hi = max(x_hi, 1.0)
    tol = 1e-10 * (1.0 + profile.I_total if math.isfinite(profile.I_total) else 1.0)
    n = 4096
    while True:
        xs = np.linspace(0.0, x_hi, n + 1)
        ys = np.asarray(profile.abar(xs), dtype=float)
        seg = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
        total = float(seg.sum())
        coarse = float((0.5 * (ys[2::2] + ys[:-1:2]) * (xs[2::2] - xs[:-1:2])).sum())
        if abs(total - coarse) / 3.0 < tol or n >= 1 << 21:
            break
        n *= 2
    return xs, np.concatenate([[0.0], np.cumsum(seg)])


def _table_profiles(law):
    common = dict(k1=1.0, k2=1.0, alpha=1.0, M=1.0)
    xs = np.linspace(0.0, 5.0, 41)
    return {
        "power": power_profile(0.05, 10.0, 2.0, law, **common),
        "exp": exp_profile(0.05, 3.0, law, **common),
        "zero": zero_profile(),
        "table": tabulated_profile(xs, 0.05 / (1.0 + 10.0 * xs) ** 2, law, **common),
    }


class TestQuadratureTable:
    @pytest.mark.parametrize("name", ["power", "exp", "zero", "table"])
    @pytest.mark.parametrize("x_hi", [0.25, 1.0, 7.3, 31.0])
    def test_equals_the_doubling_loop(self, law53, name, x_hi):
        profile = _table_profiles(law53)[name]
        got, want = profile.quadrature_table(x_hi), _doubling_reference(profile, x_hi)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_cum_abar_interpolates_its_table_capped_at_the_total(self, law53):
        profile = _table_profiles(law53)["power"]
        x = np.linspace(0.0, 2.0, 9)
        table = profile.quadrature_table(8.0)
        profile.quadrature_table(50.0)  # builds a table, changes nothing
        assert profile.cum_abar(x, table).tobytes() == \
            np.minimum(np.interp(x, *table), profile.I_total).tobytes()


class TestFindConstants:
    def setup_method(self):
        self.law = GasLaw.from_gamma("5/3")
        self.consts = critical_constants(self.law)

    def test_feasible_beats_witness(self):
        result = find_constants(self.law, 0.005, "m")
        assert result.feasible
        assert result.certificate.passed
        w = H2_FEASIBLE
        witness = float(_normalized_min_slack(
            "m", self.law, self.consts, 0.005,
            w["L1"], w["L2"], w["U1"], w["U2"], 1e-9))
        assert result.best_min_slack >= witness

    def test_envelope_growth_infeasible(self):
        # exp(2I) beyond sigma1 contradicts the band inequalities jointly
        result = find_constants(self.law, 0.12, "m")
        assert not result.feasible
        assert result.best_min_slack <= 0.0

    def test_zero_integral_feasible(self):
        result = find_constants(self.law, 0.0, "m")
        assert result.feasible

    @pytest.mark.parametrize("kind", ["m", "r", "l"])
    def test_all_kinds_certify(self, kind):
        result = find_constants(self.law, 0.005, kind)
        assert result.feasible
        assert result.certificate.passed
        assert result.spec.kind == kind


class TestTabulatedProfile:
    def test_pchip_matches_nodes_and_preserves_monotonicity(self):
        xs = np.linspace(0.0, 4.0, 17)
        ys = 1.0 / (1.0 + xs)
        curve = PchipCurve(xs, ys)
        assert np.allclose(curve(xs), ys, rtol=0, atol=1e-14)
        fine = np.linspace(0.0, 4.0, 1001)
        assert np.all(np.diff(curve(fine)) <= 1e-12)

    def test_majorant_dominates(self, law53):
        xs = np.linspace(0.0, 5.0, 201)
        vals = 0.05 * np.sin(3.0 * xs) / (1.0 + 2.0 * xs) ** 2
        prof = tabulated_profile(xs, vals, law53, k1=0.01, k2=0.5, alpha=1.0,
                                 M=1.0, tail_bound=1e-4)
        from nozzleflow.region import critical_constants as cc

        l = cc(law53).l
        fine = np.linspace(0.0, 5.0, 4001)
        assert np.all(l * prof.abar(fine) >= np.abs(prof.a(fine)) - 1e-12)
        assert not prof.conditional

    def test_missing_tail_bound_is_conditional(self, law53):
        xs = np.linspace(0.0, 5.0, 51)
        prof = tabulated_profile(xs, 0.01 / (1.0 + xs) ** 2, law53, k1=1.0,
                                 k2=1.0, alpha=1.0, M=1.0)
        assert prof.conditional
