"""Reachability/observability analysis and sampling-schedule design for
nonuniformly sampled SISO LTI systems."""

from nusample.analysis import (
    AnalysisReport,
    DegreeMetrics,
    SamplingSequence,
    alphas,
    analyze,
    bruteforce_controllability_matrix,
    bruteforce_observability_matrix,
    degree_metrics,
    fundamental_matrix,
    joint_test,
    numerical_rank,
    verify_factorizations,
)
from nusample.design import (
    DesignResult,
    GeometryTrace,
    design_sequence_generic,
    next_instant_third_order,
    optimal_interval_second_order,
    spiral_point,
)
from nusample.lti import (
    EigenStructure,
    Realization,
    RealJordanForm,
    SystemSpec,
    check_minimality,
    coefficients_from_roots,
    controllability_canonical,
    eigenstructure,
    evaluate_fundamental_basis,
    impulse_response,
    markov_from_modes,
    modes_from_markov,
    observability_canonical,
    real_jordan,
    roots_from_coefficients,
    system_from_markov,
    system_from_modes,
)
from nusample.simulate import (
    ImpulsePlan,
    Trajectory,
    deadbeat_inputs,
    reconstruct_initial_state,
    simulate_impulse_train,
    state_transition,
)

__version__ = "0.1.0"
