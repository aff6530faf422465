"""Online convex optimization with reference governors for constrained plants.

A modular pipeline of three pieces: an online optimizer proposing setpoint
references from sequentially revealed costs, a reference governor that
overwrites each proposal with the closest admissible one relative to a
forward-invariant safe set, and a gain-scheduled tracking feedback.  Ships
a nonlinear reactor benchmark and a shift-register embedding for
memory-augmented costs, plus empirical certification of the regret bounds.
"""

from .plant import (
    ConstraintPolytope,
    CstrParams,
    Plant,
    PlantDomainError,
    box_polytope,
    cstr_constraints,
    cstr_continuous_rhs,
    cstr_plant,
    shift_register_plant,
)
from .tracking import (
    ConverseLyapunov,
    GainSchedule,
    SingularParameterizationError,
    StabilityEstimationError,
    SteadyStateMap,
    SynthesisError,
    TrackingController,
    build_converse_lyapunov,
    build_cstr_controller,
    build_gain_schedule,
    cstr_steady_state_map,
    dare_value_iteration,
    register_controller,
    solve_steady_state,
)
from .safeset import (
    LevelCertificate,
    ReferenceInfeasibleError,
    ReferenceWindowError,
    SafeSet,
    SliceNotIntervalError,
    calibrate_level,
    compute_gamma,
    fixed_level_set,
    variable_level_set,
)
from .governor import (
    GovernorInfeasibleError,
    InitializationInfeasibleError,
    InvarianceViolationError,
    command_governor,
    initialize_governor,
    scalar_rg,
)
from .oco import (
    AdversarialCostSchedule,
    CstrCostSchedule,
    InstrumentedCost,
    MemoryCostSchedule,
    OcoState,
    QLinearConstants,
    SteadyStateCost,
    benchmark_reference,
    golden_section,
    ogd_step,
    prev_opt_step,
    q_linear_regret_constants,
)
from .harness import (
    Certificate,
    KahanSum,
    RegretLedger,
    RunError,
    SamplingPlan,
    adversarial_lower_bound,
    estimate_certificate,
    fit_exponential_envelope,
    kahan_total,
    lyapunov_window_diagnostics,
    path_length_coefficient,
    run_closed_loop,
    run_memory_reduction,
    sample_safe_states,
    verify_q_linear_regret,
    verify_regret_bound,
)
from .scenario import ConfigError, ScenarioConfig, build_scenario, load_config

__version__ = "0.1.0"
