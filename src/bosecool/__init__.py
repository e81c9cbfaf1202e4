"""Pulsed Raman-cooling simulator for trapped bosonic atoms.

Builds truncated harmonic-trap bases, absorption/emission rate matrices
with interference between axis beams, runs stochastic cooling cycles
with Bose-enhanced emission branching, and analyzes dark levels,
condensation criteria, hysteresis sweeps and photon statistics.
"""

from .basis import (Basis, Configuration, SimParams, TrapLevel,
                    enumerate_levels, sample_initial_configuration,
                    thermal_distribution)
from .cache import (CacheCorruptError, CacheError, CacheMismatchError,
                    cache_filename, cache_load, cache_store)
from .rates import (EmissionMatrix, EmissionQuadrature, PhysicsValidityError,
                    RateMatrix, absorption_structure, build_spontaneous_rates,
                    emission_quadrature, franck_condon_1d, pulse_spectrum_sq)
from .schedule import (PulseSpec, Ramp, Schedule, confinement_pulse,
                       figure_schedule, pseudo_confinement_pulses,
                       resolve_cycle)
from .dynamics import (EnsembleResult, ExactState, MatrixProvider,
                       PulseRates, PulseStepOutcome, RecorderSpec,
                       TrajectoryRecord, calibrate_pulse_area,
                       emission_counts, enumerate_configurations,
                       exact_initial_state, exact_propagate, pulse_step,
                       run_ensemble, run_trajectory)
from .analysis import (CriterionReport, FanoResult, HysteresisResult,
                       condensation_criterion, cycles_to_seconds,
                       depletion_profile, fano_factor, find_dark_states,
                       first_downward_crossing, hysteresis_extract,
                       split_ramp_branches)
from .config import ConfigError, RunConfig, config_from_dict, load_config

__version__ = "0.1.0"

__all__ = [
    "Basis", "Configuration", "SimParams", "TrapLevel", "enumerate_levels",
    "sample_initial_configuration", "thermal_distribution",
    "CacheCorruptError", "CacheError", "CacheMismatchError",
    "cache_filename", "cache_load", "cache_store",
    "EmissionMatrix", "EmissionQuadrature", "PhysicsValidityError",
    "RateMatrix", "absorption_structure", "build_spontaneous_rates",
    "emission_quadrature", "franck_condon_1d", "pulse_spectrum_sq",
    "PulseSpec", "Ramp", "Schedule", "confinement_pulse", "figure_schedule",
    "pseudo_confinement_pulses", "resolve_cycle",
    "EnsembleResult", "ExactState", "MatrixProvider", "PulseRates",
    "PulseStepOutcome", "RecorderSpec", "TrajectoryRecord",
    "calibrate_pulse_area", "emission_counts", "enumerate_configurations",
    "exact_initial_state", "exact_propagate", "pulse_step", "run_ensemble",
    "run_trajectory",
    "CriterionReport", "FanoResult", "HysteresisResult",
    "condensation_criterion", "cycles_to_seconds", "depletion_profile",
    "fano_factor", "find_dark_states", "first_downward_crossing",
    "hysteresis_extract",
    "split_ramp_branches",
    "ConfigError", "RunConfig", "config_from_dict", "load_config",
    "__version__",
]
