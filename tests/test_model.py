import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import riemann_from_rho_v
from nozzleflow.errors import DomainError
from nozzleflow.model import (GAMMA_MIN, GasLaw, pressure, rho_zw, source_coef,
                              source_pair_zw, speeds_zw)

GAMMA_MAX = 5.0 / 3.0

gammas = st.one_of(st.just(GAMMA_MAX),
                   st.floats(min_value=1.01, max_value=GAMMA_MAX - 1e-5))


class TestGasLaw:
    def test_log_branch_from_rational_string(self):
        law = GasLaw.from_gamma("5/3")
        assert law.is_log_branch
        assert law.beta == -1.0
        assert law.theta == pytest.approx(1.0 / 3.0)

    def test_general_branch(self, law14):
        assert not law14.is_log_branch
        assert law14.beta == pytest.approx(-2.0)
        assert law14.theta == pytest.approx(0.2)

    @pytest.mark.parametrize("bad", [1.0, 1.7, 2.0, 0.5, "2", "-5/3"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(DomainError):
            GasLaw.from_gamma(bad)

    def test_gamma_too_close_to_1_rejected(self):
        # Below GAMMA_MIN sigma1 lies within the 1e-9 that the bracket of
        # ``region.critical_constants`` leaves short of 1.
        assert GasLaw.from_gamma(GAMMA_MIN).gamma == GAMMA_MIN
        for gamma in (math.nextafter(1.0, 2.0), 1.000000001, math.nextafter(GAMMA_MIN, 1.0)):
            with pytest.raises(DomainError, match="too close to 1 to resolve sigma1"):
                GasLaw.from_gamma(gamma)
            with pytest.raises(DomainError, match="too close to 1 to resolve sigma1"):
                GasLaw(gamma, 0.0, 0.0, False)

    def test_near_log_branch_warns(self):
        with pytest.warns(UserWarning):
            GasLaw.from_gamma(GAMMA_MAX - 1e-8)


class TestPressure:
    def test_vacuum(self, law53):
        assert pressure(0.0, law53) == 0.0

    def test_unit_density(self, law53):
        assert pressure(1.0, law53) == pytest.approx(0.6)

    def test_generic_value(self, law14):
        # 2**1.4 / 1.4, frozen from 40-digit evaluation
        assert pressure(2.0, law14) == pytest.approx(1.8850113011041347, rel=1e-12)

    def test_negative_density_rejected(self, law53):
        with pytest.raises(DomainError):
            pressure(-0.1, law53)


class TestConversions:
    def test_rest_state(self, law53):
        z, w = riemann_from_rho_v(1.0, 0.0, law53)
        assert (z, w) == pytest.approx((-3.0, 3.0))

    def test_velocity_shift(self, law53):
        z, w = riemann_from_rho_v(1.0, 2.0, law53)
        assert (z, w) == pytest.approx((-1.0, 5.0))

    def test_general_branch_values(self, law14):
        # 0.8**0.2 / 0.2, frozen from 40-digit evaluation
        c = 4.781762498950185
        z, w = riemann_from_rho_v(0.8, -1.0, law14)
        assert z == pytest.approx(-1.0 - c, rel=1e-14)
        assert w == pytest.approx(-1.0 + c, rel=1e-14)
        assert rho_zw(z, w, law14) == pytest.approx(0.8, rel=1e-12)
        assert 0.5 * (w + z) == pytest.approx(-1.0, rel=1e-12)

    # the velocity (w + z)/2 is no package function; the inverse tests check rho

    def test_inverse_rest_state(self, law53):
        assert rho_zw(-3.0, 3.0, law53) == pytest.approx(1.0)

    def test_inverse_vacuum(self, law53):
        assert rho_zw(0.0, 0.0, law53) == 0.0

    def test_inverse_generic(self, law53):
        assert rho_zw(1.0, 2.0, law53) == pytest.approx(1.0 / 216.0, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(rho=st.floats(min_value=-6.0, max_value=3.0), v=st.floats(-10.0, 10.0),
           gamma=gammas)
    def test_round_trip(self, rho, v, gamma):
        rho = 10.0 ** rho
        law = GasLaw.from_gamma(gamma)
        z, w = riemann_from_rho_v(rho, v, law)
        assert rho_zw(z, w, law) == pytest.approx(rho, rel=1e-12)
        assert 0.5 * (w + z) == pytest.approx(v, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rho=st.floats(min_value=-6.0, max_value=3.0), v=st.floats(-10.0, 10.0),
           gamma=gammas)
    def test_sound_identity(self, rho, v, gamma):
        # theta (w - z) / 2 recovers rho**theta
        rho = 10.0 ** rho
        law = GasLaw.from_gamma(gamma)
        z, w = riemann_from_rho_v(rho, v, law)
        assert 0.5 * law.theta * (w - z) == pytest.approx(rho ** law.theta, rel=1e-12)


class TestCharSpeeds:
    def test_rest_state(self, law53):
        assert speeds_zw(-3.0, 3.0, law53) == pytest.approx((-1.0, 1.0))

    def test_vacuum_degenerate(self, law53):
        lam1, lam2 = speeds_zw(0.7, 0.7, law53)
        assert lam1 == lam2 == pytest.approx(0.7)

    def test_supersonic(self, law53):
        lam1, lam2 = speeds_zw(1.0, 2.0, law53)
        assert lam1 == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert lam2 == pytest.approx(5.0 / 3.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(z=st.floats(-20, 20), gap=st.floats(0, 10), gamma=gammas)
    def test_ordering(self, z, gap, gamma):
        law = GasLaw.from_gamma(gamma)
        lam1, lam2 = speeds_zw(z, z + gap, law)
        assert lam1 <= lam2
        if gap > 1e-10:
            assert lam1 < lam2


def source(z, w, a, law):
    """The source pair of the state (z, w) at a(x) = a, formed as a stage
    forms it."""
    return source_pair_zw(w - z, w + z, source_coef(a, law))


class TestSource:
    def test_straight_duct(self, law53):
        assert source(1.0, 2.0, 0.0, law53) == (0.0, 0.0)

    def test_symmetric_state(self, law53):
        assert source(-3.0, 3.0, 0.7, law53) == (0.0, -0.0)

    def test_generic_value(self, law53):
        dz, dw = source(1.0, 2.0, 0.1, law53)
        assert dz == pytest.approx(0.025, rel=1e-12)
        assert dw == pytest.approx(-0.025, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(z=st.floats(-20, 20), gap=st.floats(0, 10), a=st.floats(-5, 5),
           gamma=gammas)
    def test_antisymmetry_exact(self, z, gap, a, gamma):
        law = GasLaw.from_gamma(gamma)
        dz, dw = source(z, z + gap, a, law)
        assert float(dz) == -float(dw)
