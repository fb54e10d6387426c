import math

import numpy as np
import pytest

from nozzleflow.errors import (ContractViolationError, DomainError, PoleError,
                               VacuumStateError)
from nozzleflow.model import GasLaw, speeds_zw
from nozzleflow.riccati import (bound_growth, check_compatibility,
                                check_data_conditions, coeffs_zw,
                                cumulative_trapezoid, phi_psi_boundary_zw,
                                phi_psi_zw, subsolution_value)


# --- inverses of the functionals: the gradient that gives a prescribed value --

def solve_zx_for_phi(z, w, phi, a, law):
    """Spatial derivative z_x producing a prescribed Phi at this state."""
    z = np.asarray(z, dtype=float)
    gap = np.asarray(w, dtype=float) - z
    if law.is_log_branch:
        return gap * phi + a * z / 2.0 - 0.5 * a * gap * np.log(gap)
    b = law.beta
    return gap ** (-b) * phi - a * z / (2.0 * b) - a * gap / (2.0 * (b + 1.0))


def solve_wx_for_psi(z, w, psi, a, law):
    """Spatial derivative w_x producing a prescribed Psi at this state."""
    w = np.asarray(w, dtype=float)
    gap = w - np.asarray(z, dtype=float)
    if law.is_log_branch:
        return gap * psi + a * w / 2.0 + 0.5 * a * gap * np.log(gap)
    b = law.beta
    return gap ** (-b) * psi - a * w / (2.0 * b) + a * gap / (2.0 * (b + 1.0))


# --- independent transcription of the coefficient display (double entry) ----

def reference_coeffs(z, w, a, ax, law):
    z, w = np.asarray(z, dtype=float), np.asarray(w, dtype=float)
    gap = w - z
    if law.is_log_branch:
        L = np.log(gap)
        A = -2.0 / 3.0 * gap
        B = a / 6.0 * (w - 4 * z + 4 * gap * L)
        Bh = a / 6.0 * (z - 4 * w - 4 * gap * L)
        C1 = (-(a * a) / 24.0 * (3 * w**2 + 3 * z**2
                                 + 2 * (w**2 - 5 * w * z + 4 * z**2) * L
                                 + 4 * gap**2 * L**2)
              + ax / 12.0 * (w**2 - 2 * w * z - 5 * z**2
                             + 2 * (w**2 + w * z - 2 * z**2) * L))
        C1h = (-(a * a) / 24.0 * (3 * w**2 + 3 * z**2
                                  + 2 * (z**2 - 5 * w * z + 4 * w**2) * L
                                  + 4 * gap**2 * L**2)
               + ax / 12.0 * (z**2 - 2 * w * z - 5 * w**2
                              + 2 * (z**2 + w * z - 2 * w**2) * L))
        return A, B, C1 / gap, A, Bh, C1h / gap
    b = law.beta
    A = -(b - 1) / (2 * b - 1) * gap ** (-b)
    pref = a / (2 * b * (b + 1) * (2 * b - 1))
    B = pref * (b * (b**2 + 3 * b - 2) * w + (b**3 + 2 * b**2 + 3 * b - 2) * z)
    Bh = pref * (b * (b**2 + 3 * b - 2) * z + (b**3 + 2 * b**2 + 3 * b - 2) * w)
    C1 = (-(a * a) / (8 * b**2 * (b + 1) ** 2 * (2 * b - 1))
          * (b * (1 - b) ** 2 * w**2 + 2 * b * (b**2 + 3 * b - 2) * w * z
             + (b**3 + 2 * b**2 + 3 * b - 2) * z**2)
          - ax / (4 * b * (b + 1) * (2 * b - 1))
          * (b * (1 - b) * w**2 - 2 * b**2 * w * z + (2 - 3 * b - b**2) * z**2))
    C1h = (-(a * a) / (8 * b**2 * (b + 1) ** 2 * (2 * b - 1))
           * (b * (1 - b) ** 2 * z**2 + 2 * b * (b**2 + 3 * b - 2) * w * z
              + (b**3 + 2 * b**2 + 3 * b - 2) * w**2)
           - ax / (4 * b * (b + 1) * (2 * b - 1))
           * (b * (1 - b) * z**2 - 2 * b**2 * w * z + (2 - 3 * b - b**2) * w**2))
    return A, B, gap**b * C1, A, Bh, gap**b * C1h


def random_states(rng, count):
    z = rng.uniform(-4.0, 3.0, count)
    gap = rng.uniform(0.1, 5.0, count)
    a = rng.uniform(-0.5, 0.5, count)
    ax = rng.uniform(-2.0, 2.0, count)
    return z, z + gap, a, ax


class TestFunctionals:
    def test_all_terms_vanish(self, law53, law14):
        for law in (law53, law14):
            assert phi_psi_zw(-1.0, 2.0, 0.0, 0.0, 0.0, law) == (0.0, 0.0)

    def test_log_branch_gradient_only(self, law53):
        phi, psi = phi_psi_zw(-3.0, 3.0, 6.0, 6.0, 0.0, law53)
        assert phi == pytest.approx(1.0)
        assert psi == pytest.approx(1.0)

    def test_general_branch_printed_example(self, law14):
        phi, _ = phi_psi_zw(1.0, 2.0, 0.5, 0.0, 0.1, law14)
        assert phi == pytest.approx(0.425, rel=1e-14)

    def test_vacuum_guard(self, law53):
        with pytest.raises(VacuumStateError):
            phi_psi_zw(1.0, 1.0 + 1e-13, 0.0, 0.0, 0.0, law53)

    def test_linear_in_gradients_without_duct(self, law53, law14):
        rng = np.random.default_rng(3)
        for law in (law53, law14):
            z, w, _, _ = random_states(rng, 50)
            zx, wx = rng.normal(size=50), rng.normal(size=50)
            p1, q1 = phi_psi_zw(z, w, zx, wx, 0.0, law)
            p2, q2 = phi_psi_zw(z, w, 2.0 * zx, 2.0 * wx, 0.0, law)
            assert np.allclose(p2, 2.0 * p1, rtol=1e-13)
            assert np.allclose(q2, 2.0 * q1, rtol=1e-13)

    def test_inversion_helpers(self, law53, law14):
        rng = np.random.default_rng(4)
        for law in (law53, law14):
            z, w, a, _ = random_states(rng, 50)
            phi_t = rng.normal(size=50)
            psi_t = rng.normal(size=50)
            zx = solve_zx_for_phi(z, w, phi_t, a, law)
            wx = solve_wx_for_psi(z, w, psi_t, a, law)
            phi, psi = phi_psi_zw(z, w, zx, wx, a, law)
            assert np.allclose(phi, phi_t, rtol=1e-11, atol=1e-11)
            assert np.allclose(psi, psi_t, rtol=1e-11, atol=1e-11)


class TestBoundaryFunctionals:
    def test_stationary_datum_reduces_to_duct_terms(self, law53):
        z, w, a = -0.5, 0.5, 0.05
        src = 0.125 * (law53.gamma - 1.0) * a * (w * w - z * z)
        phi_b, _ = phi_psi_boundary_zw(z, w, src, 0.0, a, law53)
        phi_ref, _ = phi_psi_zw(z, w, 0.0, 0.0, a, law53)
        assert phi_b == pytest.approx(phi_ref, rel=1e-13)

    def test_steady_supersonic_straight_duct(self, law53):
        vals = phi_psi_boundary_zw(1.6, 2.6, 0.0, 0.0, 0.0, law53)
        assert vals == (0.0, 0.0)

    def test_matches_interior_functional_on_consistent_fields(self, law53, law14):
        # feed time derivatives generated from the evolution equations; the
        # boundary form must then reproduce the interior form identically
        rng = np.random.default_rng(5)
        for law in (law53, law14):
            z, w, a, _ = random_states(rng, 100)
            zx, wx = rng.normal(size=100), rng.normal(size=100)
            lam1, lam2 = speeds_zw(z, w, law)
            src = 0.125 * (law.gamma - 1.0) * a * (w * w - z * z)
            zt = src - lam1 * zx
            wt = -src - lam2 * wx
            phi_b, psi_b = phi_psi_boundary_zw(z, w, zt, wt, a, law)
            phi, psi = phi_psi_zw(z, w, zx, wx, a, law)
            assert np.allclose(phi_b, phi, rtol=1e-12, atol=1e-12)
            assert np.allclose(psi_b, psi, rtol=1e-12, atol=1e-12)

    def test_sonic_pole(self, law53):
        with pytest.raises(PoleError):
            phi_psi_boundary_zw(-1.0, 2.0, 0.1, 0.1, 0.1, law53)


class TestCoefficients:
    def test_straight_duct(self, law53, law14):
        for law in (law53, law14):
            A, B, C, A_hat, B_hat, C_hat = coeffs_zw(-1.0, 2.0, 0.0, 0.0, law)
            assert B == C == B_hat == C_hat == 0.0
            assert A == A_hat < 0.0

    def test_log_branch_quadratic_coefficient(self, law53):
        A = coeffs_zw(-3.0, 3.0, 0.0, 0.0, law53)[0]
        assert A == pytest.approx(-4.0)

    @pytest.mark.parametrize("gamma", ["5/3", 1.4, 1.21])
    def test_double_entry_against_reference(self, gamma):
        law = GasLaw.from_gamma(gamma)
        rng = np.random.default_rng(11)
        z, w, a, ax = random_states(rng, 1000)
        got = coeffs_zw(z, w, a, ax, law)
        ref = reference_coeffs(z, w, a, ax, law)
        for g, r in zip(got, ref):
            assert np.allclose(g, r, rtol=1e-12)

    @pytest.mark.parametrize("gamma", ["5/3", 1.4])
    def test_swap_symmetry(self, gamma):
        # exchanging z and w in the polynomial parts (log factor fixed) turns
        # each plain coefficient into its hatted partner
        law = GasLaw.from_gamma(gamma)
        rng = np.random.default_rng(12)
        z, w, a, ax = random_states(rng, 1000)
        _, B, C, _, Bh, Ch = coeffs_zw(z, w, a, ax, law)
        if law.is_log_branch:
            gap = w - z
            L = np.log(gap)
            B_swapped = a / 6.0 * (z - 4 * w + 4 * (z - w) * L)
            poly = lambda u, v: (-(a * a) / 24.0 * (3 * u**2 + 3 * v**2
                                 + 2 * (u**2 - 5 * u * v + 4 * v**2) * L
                                 + 4 * (u - v) ** 2 * L**2)
                                 + ax / 12.0 * (u**2 - 2 * u * v - 5 * v**2
                                                + 2 * (u**2 + u * v - 2 * v**2) * L))
            assert np.allclose(Bh, B_swapped, rtol=1e-12)
            assert np.allclose(Ch * gap, poly(z, w), rtol=1e-12)
            assert np.allclose(C * gap, poly(w, z), rtol=1e-12)
        else:
            b = law.beta
            pref = a / (2 * b * (b + 1) * (2 * b - 1))

            def b_poly(u, v):
                return pref * (b * (b**2 + 3 * b - 2) * u
                               + (b**3 + 2 * b**2 + 3 * b - 2) * v)

            def c1_poly(u, v):
                return (-(a * a) / (8 * b**2 * (b + 1) ** 2 * (2 * b - 1))
                        * (b * (1 - b) ** 2 * u**2
                           + 2 * b * (b**2 + 3 * b - 2) * u * v
                           + (b**3 + 2 * b**2 + 3 * b - 2) * v**2)
                        - ax / (4 * b * (b + 1) * (2 * b - 1))
                        * (b * (1 - b) * u**2 - 2 * b**2 * u * v
                           + (2 - 3 * b - b**2) * v**2))

            gb = (w - z) ** b
            assert np.allclose(Bh, b_poly(z, w), rtol=1e-12)
            assert np.allclose(B, b_poly(w, z), rtol=1e-12)
            assert np.allclose(Ch, gb * c1_poly(z, w), rtol=1e-12)
            assert np.allclose(C, gb * c1_poly(w, z), rtol=1e-12)

    @pytest.mark.parametrize("gamma", ["5/3", 1.4, 1.1])
    def test_quadratic_coefficient_negative_in_region(self, gamma):
        law = GasLaw.from_gamma(gamma)
        rng = np.random.default_rng(13)
        z, w, a, ax = random_states(rng, 500)
        A = coeffs_zw(z, w, a, ax, law)[0]
        assert np.all(A < 0.0)


class TestBranchCrossover:
    def test_straight_duct_branches_agree_in_the_limit(self):
        log_law = GasLaw.from_gamma("5/3")
        z, w, zx = -0.4, 0.6, 0.3
        gaps = [1e-3, 1e-5, 1e-7]
        diffs = []
        for g in gaps:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                law = GasLaw.from_gamma(5.0 / 3.0 - g)
            phi_g, _ = phi_psi_zw(z, w, zx, 0.0, 0.0, law)
            A_g = coeffs_zw(z, w, 0.0, 0.0, law)[0]
            phi_l, _ = phi_psi_zw(z, w, zx, 0.0, 0.0, log_law)
            A_l = coeffs_zw(z, w, 0.0, 0.0, log_law)[0]
            diffs.append(abs(A_g * phi_g**2 - A_l * phi_l**2))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-6

    def test_duct_terms_recorded_but_divergent(self):
        # with an active duct the two branches differ by an O(1/(beta+1))
        # offset in the functionals themselves; record, do not assert decay
        log_law = GasLaw.from_gamma("5/3")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            law = GasLaw.from_gamma(5.0 / 3.0 - 1e-9)
        phi_g, _ = phi_psi_zw(-0.4, 0.6, 0.3, 0.0, 0.05, law)
        phi_l, _ = phi_psi_zw(-0.4, 0.6, 0.3, 0.0, 0.05, log_law)
        assert math.isfinite(float(phi_g)) and math.isfinite(float(phi_l))


class TestBarrierAndBound:
    def test_barrier_values(self):
        assert subsolution_value(0.0, 0.3, 5.0, 1.0) == pytest.approx(-0.3)
        assert subsolution_value(1.0, 0.1, 10.0, 1.0) == pytest.approx(
            -0.0008264462809917355, rel=1e-14)
        assert subsolution_value(1e6, 0.3, 5.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_barrier_rejects_bad_parameters(self):
        for bad in (dict(delta1=0.0), dict(M=-1.0), dict(alpha=0.0)):
            kw = dict(delta1=0.1, M=1.0, alpha=1.0)
            kw.update(bad)
            with pytest.raises(DomainError):
                subsolution_value(1.0, **kw)
        with pytest.raises(DomainError):
            subsolution_value(-1.0, 0.1, 1.0, 1.0)

    def test_upper_bound_straight_duct(self):
        t = np.linspace(0.0, 2.0, 9)
        A = np.full_like(t, -1.0)
        zero = np.zeros_like(t)
        bound = 0.7 + bound_growth(t, A, zero, zero)
        assert np.allclose(bound, 0.7)

    def test_upper_bound_single_sample(self):
        assert 0.3 + bound_growth(np.array([0.0]), np.array([-1.0]),
                                  np.array([0.0]), np.array([0.0])) == \
            pytest.approx(np.array([0.3]))

    def test_upper_bound_constant_coefficients(self):
        t = np.linspace(0.0, 2.0, 101)
        bound = 0.2 + bound_growth(t, np.full_like(t, -1.0), np.zeros_like(t),
                                   np.full_like(t, 0.5))
        assert bound[-1] == pytest.approx(0.2 + 1.0, rel=1e-12)

    def test_upper_bound_contract(self):
        t = np.linspace(0.0, 1.0, 5)
        A = np.array([-1.0, -1.0, 0.0, -1.0, -1.0])
        with pytest.raises(ContractViolationError):
            bound_growth(t, A, np.zeros(5), np.zeros(5))


class TestDataConditions:
    def setup_method(self):
        self.law = GasLaw.from_gamma("5/3")
        self.x = np.linspace(0.0, 20.0, 2001)

    def run_constant(self, problem, boundary=None):
        z0 = np.full_like(self.x, -0.5)
        w0 = np.full_like(self.x, 0.5)
        if problem in ("P2",):
            z0, w0 = z0 + 2.1, w0 + 2.1
        return check_data_conditions(problem, self.x, z0, w0,
                                     np.zeros_like(self.x), 0.05, 0.1, 5.0,
                                     1.0, self.law, boundary=boundary)

    def test_straight_duct_constant_data_p3(self):
        assert self.run_constant("P3").passed

    def test_straight_duct_constant_data_p1_needs_positive_floor(self):
        cert = self.run_constant("P1")
        assert not cert.passed
        assert cert.failing() == ["Psi(x,0) >= lower"]

    def test_straight_duct_constant_data_p2_fails(self):
        t = np.linspace(0.0, 1.0, 101)
        boundary = (t, np.full_like(t, 1.6), np.full_like(t, 2.6), 0.0)
        cert = self.run_constant("P2", boundary=boundary)
        assert not cert.passed
        assert "Phi(x,0) >= lower" in cert.failing()

    def test_vacuum_boundary_data_fail_their_gap_item(self):
        t = np.linspace(0.0, 1.0, 101)
        boundary = (t, np.full_like(t, 2.1), np.full_like(t, 2.1), 0.0)
        cert = self.run_constant("P2", boundary=boundary)
        names = [item.name for item in cert.items]
        assert "wB(t) - zB(t) >= vacuum gap" in cert.failing()
        assert names[0] == "w0(x) - z0(x) >= vacuum gap" not in cert.failing()
        assert not any(name.startswith(("PhiB", "PsiB")) for name in names)

    def test_delta_ordering_rejected(self):
        with pytest.raises(DomainError):
            check_data_conditions("P1", self.x, -0.5 + 0 * self.x,
                                  0.5 + 0 * self.x, 0 * self.x, 0.2, 0.1, 5.0,
                                  1.0, self.law)

    def test_exact_floor_construction(self, law14):
        # choose the gradient so the functional sits exactly on the lower
        # envelope: with a = 0 and unit gap the inversion is gradient = target
        x = np.linspace(0.0, 10.0, 20001)
        delta1, M, alpha = 0.05, 5.0, 1.0
        env = delta1 * (1.0 + M * x) ** (-1.0 - alpha)
        a_vals = np.zeros_like(x)
        zx = solve_zx_for_phi(1.5, 2.5, env, 0.0, law14)
        assert np.allclose(zx, env, rtol=1e-14)
        z0 = 1.5 + cumulative_trapezoid(zx, x)
        w0 = z0 + 1.0
        cert = check_data_conditions("P2", x, z0, w0, a_vals, delta1, 0.2, M,
                                     alpha, law14,
                                     boundary=(x[:100], z0[:100] * 0 + z0[0],
                                               w0[:100] * 0 + w0[0], 0.0))
        phi_lower = [item for item in cert.items if item.name == "Phi(x,0) >= lower"][0]
        assert abs(phi_lower.slack) < 1e-5


class TestCompatibility:
    def test_wall_consistent_construction(self, law53):
        h = lambda x: 0.012 * (1.0 - 1.0 / (1.0 + 10.0 * np.asarray(x)))
        cert = check_compatibility("P1", lambda x: -0.5 + h(x),
                                   lambda x: 0.5 + h(x), None, None, 0.05, law53)
        assert cert.passed

    def test_wall_mismatch_reported(self, law53):
        cert = check_compatibility("P1", lambda x: -0.5 + 0 * np.asarray(x),
                                   lambda x: 0.6 + 0 * np.asarray(x), None,
                                   None, 0.0, law53)
        assert not cert.passed
        bad = [item for item in cert.items if not item.passed]
        assert bad[0].lhs == pytest.approx(0.1, abs=1e-12)

    def test_inflow_slopes_solved_from_relation(self, law53):
        z00, w00 = 1.6, 2.6
        a0 = -0.005
        lam1, lam2 = speeds_zw(z00, w00, law53)
        src = 0.125 * (law53.gamma - 1.0) * a0 * (w00**2 - z00**2)
        sz = src / float(lam1)
        sw = -src / float(lam2)
        cert = check_compatibility(
            "P2",
            lambda x: z00 + sz * np.asarray(x),
            lambda x: w00 + sw * np.asarray(x),
            lambda t: z00 + 0.0 * np.asarray(t),
            lambda t: w00 + 0.0 * np.asarray(t),
            a0, law53)
        assert cert.passed

    def test_no_boundary_means_nothing_to_match(self, law53):
        cert = check_compatibility("P3", lambda x: -3.6 + 0 * np.asarray(x),
                                   lambda x: -2.6 + 0 * np.asarray(x), None,
                                   None, 0.05, law53)
        assert cert.passed
