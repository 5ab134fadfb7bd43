"""Steady-state probe response of a laser-driven four-level atom.

The package computes the exact steady-state density matrix of a ladder
system with a perturbing side state, converts the probe coherence into a
complex susceptibility, and locates the spectral features (gain spikes,
vanishing-absorption detunings, dispersion slopes) through which a weak
incoherent pump steers the probe group velocity between sub- and
superluminal.  Closed-form weak-probe solutions double as independent
oracles for the numeric solver.
"""

from ._version import __version__
from .analytic import (
    DressedStates,
    coupling_hamiltonian,
    dressed_states,
    spike_half_width,
)
from .errors import ConfigError, NumericError, ParameterError, SimulationError
from .model import MediumParams, SystemParams
from .observables import (
    Method,
    auto_zero_bracket,
    chi_at,
    chi_prefactor,
    dispersion_slope,
    find_absorption_zero,
    find_absorption_zero_auto,
    find_gain_threshold,
    group_index,
    probe_coherence,
    susceptibility,
)
from .steady_state import (
    DensityMatrix,
    assemble,
    solve_linear,
    steady_state,
    steady_state_derivative,
)
from .sweep import (
    Axis,
    Output,
    Spacing,
    SweepSpec,
    SweepTable,
    parse_config,
    run_sweep,
    write_csv,
)

__all__ = [
    "__version__",
    "SystemParams", "MediumParams",
    "DensityMatrix", "assemble", "solve_linear",
    "steady_state", "steady_state_derivative",
    "DressedStates", "dressed_states", "coupling_hamiltonian", "spike_half_width",
    "Method", "susceptibility", "chi_prefactor", "chi_at", "probe_coherence",
    "dispersion_slope", "group_index", "find_absorption_zero",
    "find_absorption_zero_auto", "find_gain_threshold", "auto_zero_bracket",
    "Axis", "Spacing", "Output", "SweepSpec", "SweepTable",
    "parse_config", "run_sweep", "write_csv",
    "SimulationError", "ParameterError", "ConfigError", "NumericError",
]
