"""sparselms: sparse-system LMS adaptive filtering laboratory.

Zero-attracting LMS variants (kernels), their closed-form steady-state
and transient performance theory, and a seeded Monte Carlo harness with
preset experiments behind a CLI.
"""

__version__ = "0.1.0"

from .kernels import AlgoParams, Variant, step
from .theory import (AccelerationReport, AttractionStrengths, BetaSet,
                     ConsistencyError, ConvergenceModel,
                     DegenerateSpectrumError, DeltaSet, EtaSet,
                     ParameterRangeError, SignalModel, SnrConvention,
                     StabilityError, SteadyStateReport, TapClassification,
                     ZASteadyReport, acceleration_check, approx_min_msd,
                     betas, classify, convergence_model, deltas, etas,
                     l0_steady_msd, exact_recursion, lms_theory, mu_max,
                     optimal_kappa, small_tap_mean_curve, solve_omega, steady_bias,
                     strengths, tapwise_recursion, za_steady_msd)
from .simulate import (ExperimentSpec, NotConvergedError, Trajectory,
                       closed_form, default_iterations, estimate_steady,
                       gen_system, monte_carlo, noise_power, resolve_kappa,
                       run_trials, stream)

__all__ = [
    "__version__",
    # kernels
    "AlgoParams", "Variant", "step",
    # theory
    "AccelerationReport", "AttractionStrengths", "BetaSet",
    "ConsistencyError", "ConvergenceModel", "DegenerateSpectrumError",
    "DeltaSet", "EtaSet", "ParameterRangeError", "SignalModel",
    "SnrConvention", "StabilityError", "SteadyStateReport",
    "TapClassification", "ZASteadyReport", "acceleration_check",
    "approx_min_msd", "betas", "classify", "convergence_model", "deltas",
    "etas", "l0_steady_msd", "exact_recursion", "lms_theory", "mu_max",
    "optimal_kappa", "small_tap_mean_curve", "solve_omega", "steady_bias",
    "strengths", "tapwise_recursion", "za_steady_msd",
    # simulation
    "ExperimentSpec", "NotConvergedError", "Trajectory", "closed_form",
    "default_iterations", "estimate_steady", "gen_system", "monte_carlo",
    "noise_power", "resolve_kappa", "run_trials", "stream",
]
