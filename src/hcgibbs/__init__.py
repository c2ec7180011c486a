"""Gibbs measures of the hard-core model on the order-2 Cayley tree.

The model has countably many spin values, a hub value 0 admissible next to
everything, and self-loops at one or two nonzero values.  This package
solves the translation-invariant boundary-law equations in closed form,
counts solutions across parameter regimes, verifies the counts with an
independent fixed-point oracle, builds the associated spin chain, and
samples tree configurations.
"""

from .boundary_law import ReducedSystem, expand, normalisable, reduce, residual
from .chain import (
    StationaryDistribution,
    StationaryReport,
    TransitionMatrix,
    irreducible,
    power_iteration,
    stationary_closed_form,
    total_variation,
    transition_matrix,
    verify_stationary,
)
from .errors import (
    DivergentActivities,
    DomainError,
    HcGibbsError,
    InputError,
    NumericalFailure,
    ShapeMismatch,
    TooLarge,
    WindowTooSmall,
)
from .model import (
    ActivitySpec,
    AdmissibilityGraph,
    BoundaryLawSolution,
    RegimeReport,
    graph_from_spec,
    relabel_solution,
    spec_from_json,
    spec_to_json,
)
from .oracle import FixedPointResult, MultistartResult, fixed_point_iterate, multistart_count
from .sampler import (
    TreeSample,
    conditional_diagnostic,
    empirical_marginal,
    finite_gibbs_oracle,
    sample_forest,
    sample_tree,
    single_site_conditional,
)
from .three_loop import ThreeLoopProblem, enumerate_solutions, thresholds
from .two_loop import TwoLoopProblem, solve_unique

__version__ = "0.1.0"

__all__ = [
    "ActivitySpec",
    "AdmissibilityGraph",
    "BoundaryLawSolution",
    "DivergentActivities",
    "DomainError",
    "FixedPointResult",
    "HcGibbsError",
    "InputError",
    "MultistartResult",
    "NumericalFailure",
    "ReducedSystem",
    "RegimeReport",
    "ShapeMismatch",
    "StationaryDistribution",
    "StationaryReport",
    "ThreeLoopProblem",
    "TooLarge",
    "TransitionMatrix",
    "TreeSample",
    "TwoLoopProblem",
    "WindowTooSmall",
    "conditional_diagnostic",
    "empirical_marginal",
    "enumerate_solutions",
    "expand",
    "finite_gibbs_oracle",
    "fixed_point_iterate",
    "graph_from_spec",
    "irreducible",
    "multistart_count",
    "normalisable",
    "power_iteration",
    "reduce",
    "relabel_solution",
    "residual",
    "sample_forest",
    "sample_tree",
    "single_site_conditional",
    "solve_unique",
    "spec_from_json",
    "spec_to_json",
    "stationary_closed_form",
    "thresholds",
    "total_variation",
    "transition_matrix",
    "verify_stationary",
]
