"""relsplit: variable-stepsize distributed forward-backward splitting.

A numpy library for solving structured monotone inclusions
0 in sum_i A_i x + sum_j B_j x by coefficient-matrix forward-backward
sweeps, with per-iteration stepsize changes realized through fixed-point
relocators (general, graph-specific cheap kinds, and the relocated
three-operator Davis-Yin algorithm).
"""

from .driver import RunConfig, Trace, run, run_davis_yin
from .engine import SplitProblem, apply_T, first_block, residuals, sweep
from .errors import ParameterError, ReferenceRunError, StructuralError
from .graph import (CANONICAL_KINDS, INWARD_STAR, OUTWARD_STAR, SEQUENTIAL, DiGraph,
                    canonical, degrees, incidence, incidence_pinv_closed_form,
                    scheme_from_graph)
from .operators import (BoxNormalCone, CocoerciveOp, L1Subdiff, LeastSquaresGrad,
                        NonnegNormalCone, ResolventOp, ScaledIdentity, ZeroForward,
                        ZeroOp, check_resolvent_identity, lambda_max, soft_threshold)
from .problems import (ElasticNetProblem, LassoProblem, gen_elastic_net, gen_lasso,
                       objective, reference_solution, split_elastic, split_lasso)
from .relocator import (CHEAP_KINDS, DAVIS_YIN, GENERAL, check_recycling, e_map,
                        lipschitz_constant, lipschitz_series, relocate)
from .schedule import ConstantStepsize, SafeguardStepsize, ScheduleSpec, positive_variation
from .scheme import (CoefficientScheme, condition_report, eta, kappa_form_scheme, mu,
                     stepsize_sup, validate)

__version__ = "0.1.0"

__all__ = [
    "BoxNormalCone", "CANONICAL_KINDS", "CHEAP_KINDS", "CocoerciveOp",
    "CoefficientScheme", "ConstantStepsize", "DAVIS_YIN", "DiGraph",
    "ElasticNetProblem", "GENERAL", "INWARD_STAR", "L1Subdiff", "LassoProblem",
    "LeastSquaresGrad", "NonnegNormalCone", "OUTWARD_STAR",
    "ParameterError", "ReferenceRunError", "ResolventOp", "RunConfig",
    "SEQUENTIAL", "SafeguardStepsize", "ScaledIdentity", "ScheduleSpec",
    "SplitProblem", "StructuralError", "Trace", "ZeroForward",
    "ZeroOp", "apply_T", "canonical", "check_recycling",
    "check_resolvent_identity", "condition_report", "degrees", "e_map", "eta",
    "first_block", "gen_elastic_net", "gen_lasso",
    "incidence", "incidence_pinv_closed_form", "kappa_form_scheme",
    "lambda_max", "lipschitz_constant", "lipschitz_series", "mu",
    "objective", "positive_variation", "reference_solution",
    "relocate", "residuals", "run", "run_davis_yin", "scheme_from_graph",
    "soft_threshold", "split_elastic", "split_lasso", "stepsize_sup", "sweep",
    "validate",
]
