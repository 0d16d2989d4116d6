"""Radiative decay in interacting Rydberg lattice gases.

Contrasts two dissipation models for a laser-driven hypercubic lattice of
two-level Rydberg atoms: conventional single-atom decay and collective decay
resolved on the neighborhood excitation number. Provides exact Lindblad
integration for small systems, quantum-jump Monte Carlo trajectories,
closed-form coherence dynamics, mean-field bifurcation analysis and the
distance-dependent emission kernels.
"""

__version__ = "0.1.0"

from .coherence import (
    CoherenceState,
    evolve,
    initial_coherence,
    mode_series,
    verify_against_master_equation,
)
from .kernels import KernelInputs, gamma_kernel, gamma_xi_rate, v_kernel
from .lattice import LatticeSpec, NeighborTable, build_lattice, neighbor_table
from .master_equation import (
    IntegrationResult,
    SteadyStateScan,
    excitation_density,
    integrate_exact,
    lindblad_rhs,
    scan_steady_state,
    window_times,
)
from .meanfield import (
    FixedPoint,
    MeanFieldParams,
    MeanFieldState,
    PhaseDiagram,
    find_fixed_points,
    integrate_mf,
    mf_oracle_check,
    mf_rhs,
    refine_critical_point,
    scan_phase_diagram,
)
from .operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    atomic_hamiltonian,
    driven_hamiltonian,
    jump_operators,
    neighborhood_projector,
    site_operator,
)
from .trajectories import TrajectoryEnsembleResult, TrajectoryResult, run_ensemble

__all__ = [
    "LatticeSpec",
    "NeighborTable",
    "build_lattice",
    "neighbor_table",
    "ModelParams",
    "SINGLE",
    "COLLECTIVE",
    "site_operator",
    "neighborhood_projector",
    "atomic_hamiltonian",
    "driven_hamiltonian",
    "jump_operators",
    "IntegrationResult",
    "SteadyStateScan",
    "integrate_exact",
    "lindblad_rhs",
    "excitation_density",
    "scan_steady_state",
    "window_times",
    "CoherenceState",
    "initial_coherence",
    "evolve",
    "mode_series",
    "verify_against_master_equation",
    "TrajectoryResult",
    "TrajectoryEnsembleResult",
    "run_ensemble",
    "MeanFieldParams",
    "MeanFieldState",
    "FixedPoint",
    "PhaseDiagram",
    "mf_rhs",
    "mf_oracle_check",
    "find_fixed_points",
    "scan_phase_diagram",
    "refine_critical_point",
    "integrate_mf",
    "KernelInputs",
    "gamma_kernel",
    "v_kernel",
    "gamma_xi_rate",
    "__version__",
]
