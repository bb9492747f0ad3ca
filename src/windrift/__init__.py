"""Winding-number transport in toroidal superconducting films.

Non-interacting vortices diffuse under Langevin dynamics on a torus; their
motion random-walks the winding numbers of the condensate and sets the
thermal degradation rate of the stored quantum state. This package
simulates that process, measures the rate with MSD and Green-Kubo
estimators, checks the closed-form rate, and evaluates the field profiles
and device-design numbers that go with it.
"""

from .bessel import UNDERFLOW_CUTOFF, bessel_k
from .config import ConfigError, RunConfig, parse_config
from .design import (DeviceSpec, anyon_prefactor_log, equivalence_class,
                     level_splitting, loop_current_scale,
                     solid_torus_suppression)
from .ensemble import (RateEstimate, ReplicaResult, SimulationState,
                       TorusGeometry, WindingResult, analytic_rate,
                       collective_normals, even_mean_population,
                       initial_state, mean_population, pool_replicas,
                       predicted_rate, rate_from_green_kubo, rate_from_msd,
                       run_replica, run_winding, sample_population)
from .fields import (EnergyIntegral, e_divergence_residual,
                     e_squared_angle_average, field_energy, field_table,
                     helmholtz_residual, moving_vortex_e, static_b)
from .langevin import (OUPropagator, ThermalEnv, einstein_diffusion_check,
                       velocity_autocorrelation)
from .materials import (DerivedScales, MaterialParams, RegimeReport,
                        classify_regime, derive_scales)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "UNDERFLOW_CUTOFF", "bessel_k",
    "ConfigError", "RunConfig", "parse_config",
    "DeviceSpec", "anyon_prefactor_log", "equivalence_class",
    "level_splitting", "loop_current_scale", "solid_torus_suppression",
    "RateEstimate", "ReplicaResult", "SimulationState", "TorusGeometry",
    "WindingResult", "analytic_rate", "collective_normals",
    "even_mean_population", "initial_state", "mean_population",
    "pool_replicas", "predicted_rate",
    "rate_from_green_kubo", "rate_from_msd", "run_replica", "run_winding",
    "sample_population",
    "EnergyIntegral", "e_divergence_residual", "e_squared_angle_average",
    "field_energy", "field_table", "helmholtz_residual", "moving_vortex_e",
    "static_b",
    "OUPropagator", "ThermalEnv", "einstein_diffusion_check",
    "velocity_autocorrelation",
    "DerivedScales", "MaterialParams", "RegimeReport", "classify_regime",
    "derive_scales",
    "substream",
]
