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
    fundamental_matrix,
    joint_test,
    jordan_observability_matrix,
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
    SystemSpec,
    check_minimality,
    eigenstructure,
    evaluate_fundamental_basis,
    modes_from_markov,
    system_from_markov,
    system_from_modes,
)
from nusample.simulate import (
    deadbeat_inputs,
    reconstruct_initial_state,
    simulate_impulse_train,
)

__version__ = "0.1.0"
