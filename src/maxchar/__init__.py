"""Numerical experiments around maximal functions of measures.

The package computes Hardy-Littlewood style maximal fields of signed
measures on geometric radius grids, estimates superlevel volumes, and
classifies the tail behavior of lambda * volume curves.  Companion modules
cover bounded-variation calculus on piecewise affine functions, the
oscillation functional that detects singular derivative parts, and a
log-normalized clipped decay quantity for time-dependent derivative
fields.  The cli module exposes everything as subcommands.
"""

from .bv import (BVFunction1D, ReversePoincareResult,
                 any_vector_penalty_check, derivative_measure,
                 ramp_plateau_counterexample, reverse_poincare_check)
from .decay import (DEFAULT_DELTAS, DecayReport, TimeField, decay_quantity,
                    decay_sweep, level_integral_slice)
from .errors import (BudgetError, MaxcharError, ResolutionError,
                     SpecSchemaError, TruncationError, WindowTooSmallError)
from .geometry import Box, UniformGrid, ball_volume
from .level_sets import (DECAYS, INCONCLUSIVE, PERSISTS, DistributionCurve,
                         ExperimentResult, LambdaGrid, TailVerdict,
                         distribution_curve, distribution_experiment,
                         evaluation_window,
                         reverse_weak11_check, semigroup_check,
                         sobolev_experiment, superlevel_volume, tail_verdict,
                         weak11_constant)
from .maximal import (MaximalField, RadiusGrid, maximal_field, maximal_point,
                      oscillation_field, oscillation_point)
from .measure import GridFunction, Measure, unit_atom
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "BVFunction1D", "Box", "BudgetError", "DECAYS",
    "DEFAULT_DELTAS", "DecayReport", "DistributionCurve", "ExperimentResult",
    "GridFunction", "INCONCLUSIVE", "LambdaGrid", "MaximalField",
    "MaxcharError", "Measure", "PERSISTS", "RadiusGrid", "ResolutionError",
    "ReversePoincareResult", "SpecSchemaError", "TailVerdict", "TimeField",
    "TruncationError", "UniformGrid", "WindowTooSmallError",
    "any_vector_penalty_check", "ball_volume",
    "decay_quantity", "decay_sweep", "derivative_measure",
    "distribution_curve", "distribution_experiment", "evaluation_window",
    "level_integral_slice", "maximal_field", "maximal_point",
    "oscillation_field", "oscillation_point", "ramp_plateau_counterexample",
    "reverse_poincare_check", "reverse_weak11_check", "run_verify",
    "semigroup_check", "sobolev_experiment", "superlevel_volume",
    "tail_verdict", "unit_atom", "weak11_constant",
]
