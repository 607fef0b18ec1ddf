"""Adaptation dynamics tracing moving equilibria, with verified tracking bounds.

Core objects: CES Fisher markets with price (tatonnement) and bid
(proportional response) dynamics, perturbation schedules with closed-form
potential-jump caps, and geometric tracking envelopes instantiated on markets,
drifting-optimum gradient descent, and diffusive load balancing.
"""

from .applications import (
    LoadNetwork,
    ShiftingQuadratic,
    balanced_state,
    diffusion_step,
    gd_contraction,
    gd_regret_bound,
    gd_steady_state,
    second_eigenvalue,
    simulate_diffusion,
    simulate_shifting_quadratic,
)
from .equilibrium import ConvergenceError, EquilibriumResult, solve_equilibrium
from .lyapunov import meta_bound, running_bound
from .market import (
    CesMarket,
    DemandProfile,
    LinearUtilityError,
    demand,
)
from .perturbation import (
    BUDGET,
    CHANNELS,
    SUPPLY,
    UTILITY,
    PerturbationSchedule,
    ScheduleColumn,
    calibrate_c_prime,
    coefficient_share_floor,
    delta_cpf_budget,
    delta_cpf_supply,
    delta_cpf_utility,
    delta_ms_budget,
    delta_ms_supply,
    delta_ms_utility,
    delta_prd_utility,
    extremize_shares,
    generate_schedule,
    share_deviation,
)
from .prd import (
    PrdBoundConfig,
    check_bids,
    kl_divergence,
    prd_potential_g,
    prd_step,
    proportional_bids,
    reduce_supply_to_utility,
    run_prd_trace,
)
from .tatonnement import (
    CPF,
    MISSPENDING,
    TatonnementConfig,
    default_step_size,
    fit_contraction,
    run_tatonnement_trace,
    step_cpf,
    step_ms,
)
from .trace import CSV_HEADER, Trace, file_sha256, trace_csv_lines, write_trace_csv

__version__ = "0.1.0"
