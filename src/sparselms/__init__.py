"""sparselms: sparse-system LMS adaptive filtering laboratory.

Zero-attracting LMS variants (kernels), their closed-form steady-state
and transient performance theory, and a seeded Monte Carlo harness with
preset experiments behind a CLI.
"""

__version__ = "0.1.0"

from .kernels import AlgoParams, Variant, step
from . import theory
from .theory import *                # every name in theory.__all__
from .simulate import (ExperimentSpec, Trajectory, closed_form,
                       default_iterations, gen_system, monte_carlo,
                       noise_power, resolve_kappa, run_trials, stream)

__all__ = [
    "__version__",
    # kernels
    "AlgoParams", "Variant", "step",
    # theory
    *theory.__all__,
    # simulation
    "ExperimentSpec", "Trajectory", "closed_form", "default_iterations",
    "gen_system", "monte_carlo", "noise_power", "resolve_kappa",
    "run_trials", "stream",
]
