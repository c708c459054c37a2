"""Dissipative optimization of random k-local spin and fermionic Hamiltonians.

Short Lindbladian evolution from the maximally mixed state, with jumps
K^a = A^a + y [A^a, H], run at the schedule y = -c_y/(sqrt(k) h_loc),
t = c_t/k, plus exact desk-scale verification of the identities and bounds
behind the guarantee.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundCheckReport,
    Check,
    EnergyReport,
    Schedule,
    energy,
    energy_report,
    first_order_term,
    glo_loc_ratio_stats,
    max_eigenvalue,
    rademacher_average_energy,
    schedule,
    second_order_residual_scan,
    spectral_tail_bound,
)
from .ensembles import (
    EnsembleSpec,
    HamiltonianInstance,
    HamiltonianTerm,
    instance_from_json,
    instance_to_dense,
    instance_to_json,
    local_global_energies,
    sample,
    sample_strength_stats,
    with_signs,
)
from .errors import (
    CapacityError,
    DimensionMismatchError,
    DissipError,
    EnumerationBudgetError,
    RefinementError,
    ValidationError,
)
from .evolution import (
    EvolutionConfig,
    choi_matrix,
    evolve,
    heisenberg_evolve,
    maximally_mixed,
    propagator,
)
from .experiment import (
    CellSpec,
    EnsembleStats,
    ExperimentConfig,
    RunResult,
    VerifyConfig,
    aggregate,
    config_from_json,
    run_cell,
    run_experiment,
    verify_suite,
)
from .lindblad import (
    LindbladianRep,
    apply_generator,
    build_jump_set,
    build_lindbladian,
)
from .operators import (
    MajoranaMonomial,
    PauliString,
    commutes,
    majorana_commutes,
    pauli_commutes,
    pauli_mul,
    support,
    to_dense,
)
