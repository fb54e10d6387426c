"""Solver plus runtime verifier for isentropic duct flow in diagonal form."""

from .model import GasLaw, pressure, rho_zw, source_pair_zw, speeds_zw
from .region import (CriticalConstants, NozzleProfile, RegionSpec, check_h1,
                     check_hypothesis, critical_constants, f_eval,
                     find_constants, membership_margins, region_speed_bounds)
from .riccati import (apriori_upper_bound, check_compatibility,
                      check_data_conditions, coeffs_zw, phi_psi_boundary_zw,
                      phi_psi_zw, subsolution_value)
from .solver import Field, Grid, Scenario, Trajectory, run, step
from .characteristics import CharPath, bound_check, riccati_residual, trace
from .harness import certify, conservative_residual, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
