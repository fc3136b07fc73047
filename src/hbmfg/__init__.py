"""Hierarchy/behaviour mean-field game toolkit.

A population spread over hierarchy levels and behaviour types evolves under
level pressure, same-level stimulated interactions, and payoff-driven
behaviour switching.  The package integrates the coupled forward occupation
and backward payoff flows, builds stationary expansions in the interaction
and discount scales, classifies linear stability around them, and checks the
mean-field limit against an exact finite-population simulator.
"""
from .model import (
    Control,
    ControlPath,
    GameConfig,
    Occupation,
    Regime,
    SinkRates,
    dominant_level,
    effective_rewards,
    regime_scales,
    validate,
)
from .kinetics import (
    KineticsError,
    Trajectory,
    integrate_forward,
    kinetic_rhs,
)
from .hjb import (
    HjbError,
    consistency_margin,
    hjb_rhs,
    integrate_backward,
    optimal_control,
    switch_gains,
)
from .stationary import (
    DegenerateChainError,
    LevelChain,
    StationaryError,
    StationarySolution,
    build_level_chain,
    kernel_product_forms,
    solve_on_complement,
    stationary_solution,
)
from .stability import (
    SpectrumReport,
    StabilityError,
    build_reduced_linearization,
    compare_d_block,
    lift_tangent,
    reduce_states,
    spectrum,
)
from .solver import (
    MfgSolveResult,
    TurnpikeMetrics,
    boundary_tangent_condition,
    default_dt,
    default_horizon,
    rate_ordering_check,
    solve_mfg,
    turnpike_metrics,
)
from .simulator import (
    ConvergenceStudy,
    CountState,
    SimPath,
    Transition,
    convergence_study,
    enumerate_transitions,
    simulate,
)
from .io import ConfigError, read_config

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "GameConfig", "Regime", "SinkRates", "Occupation", "Control", "ControlPath",
    "validate", "effective_rewards", "dominant_level", "regime_scales",
    # kinetics
    "Trajectory", "KineticsError", "kinetic_rhs", "integrate_forward",
    # hjb
    "HjbError", "hjb_rhs", "switch_gains", "optimal_control",
    "consistency_margin", "integrate_backward",
    # stationary
    "StationaryError", "DegenerateChainError", "LevelChain",
    "StationarySolution", "build_level_chain", "kernel_product_forms",
    "solve_on_complement", "stationary_solution",
    # stability
    "StabilityError", "SpectrumReport", "build_reduced_linearization",
    "spectrum", "compare_d_block", "lift_tangent", "reduce_states",
    # solver
    "MfgSolveResult", "TurnpikeMetrics", "solve_mfg",
    "boundary_tangent_condition", "rate_ordering_check",
    "turnpike_metrics", "default_horizon", "default_dt",
    # simulator
    "CountState", "Transition", "SimPath", "ConvergenceStudy",
    "enumerate_transitions", "simulate", "convergence_study",
    # io
    "ConfigError", "read_config",
]
