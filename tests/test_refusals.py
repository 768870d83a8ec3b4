"""Every refusal of the library has a tested exit path: its exception class and its message.

Three exits are not reached here: the base classes' ``NotImplementedError``,
the EACCES branch of ``cli._check_writable`` (a root user passes ``os.access``)
and the event-cap ``return None`` of ``problems._bounded_path``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from relsplit import graph as graphmod, linalg, problems, relocator, scheme
from relsplit.errors import ParameterError, StructuralError
from relsplit.operators import (BoxNormalCone, L1Subdiff, LeastSquaresGrad, ScaledIdentity,
                                lambda_max)
from relsplit.propsuites import kappa_scheme
from relsplit.schedule import SafeguardStepsize

# an object with the data of a problem but of no problem type
ALIEN = SimpleNamespace(A=np.eye(2), b=np.zeros(2))
CHAIN = dict(d=[0.5, 0.5], M=[[1.0], [-1.0]], N=[[0.0, 0.0], [1.0, 0.0]], P=[[0.0], [1.0]])

REFUSALS = [
    ("l1-weight", lambda: L1Subdiff(0.0), ParameterError, "l1 weight must be positive"),
    ("box-bound", lambda: BoxNormalCone(-1.0), ParameterError, "box bound must be positive"),
    ("scaling", lambda: ScaledIdentity(0.0), ParameterError, "scaling must be positive"),
    ("least-squares-shapes", lambda: LeastSquaresGrad(np.ones((3, 2)), np.ones(2)),
     StructuralError, "incompatible shapes A (3, 2), b (2,)"),
    ("lasso-shapes", lambda: problems.LassoProblem(np.ones((3, 2)), np.ones(2), 0.1, 1.0),
     StructuralError, "incompatible shapes A (3, 2), b (2,)"),
    ("gen-lasso-q", lambda: problems.gen_lasso(0, 3, 0), ParameterError,
     "q and d must be >= 1"),
    ("gen-lasso-d", lambda: problems.gen_lasso(3, 0, 0), ParameterError,
     "q and d must be >= 1"),
    ("gen-elastic-q", lambda: problems.gen_elastic_net(0, 3, 0), ParameterError,
     "q and d must be >= 1"),
    ("gen-elastic-d", lambda: problems.gen_elastic_net(3, 0, 0), ParameterError,
     "q and d must be >= 1"),
    ("gen-elastic-n-corr", lambda: problems.gen_elastic_net(3, 3, 0, n_corr=3), ParameterError,
     "need 0 <= n_corr < d"),
    ("gen-elastic-negative-n-corr", lambda: problems.gen_elastic_net(3, 3, 0, n_corr=-1),
     ParameterError, "need 0 <= n_corr < d"),
    ("gen-elastic-noise", lambda: problems.gen_elastic_net(3, 3, 0, noise_sd=-0.1),
     ParameterError, "noise_sd must be nonnegative"),
    ("objective-type", lambda: problems.objective(ALIEN, np.zeros(2)), StructuralError,
     "unknown problem type SimpleNamespace"),
    ("reference-type", lambda: problems.reference_solution(ALIEN, 10), StructuralError,
     "unknown problem type SimpleNamespace"),
    ("e-map-outputs", lambda: relocator.e_map(kappa_scheme(graphmod.SEQUENTIAL, 3),
                                              np.zeros((2, 4))),
     StructuralError, "expected 3 resolvent outputs, got 2"),
    ("lipschitz-series-length", lambda: relocator.lipschitz_series(
        relocator.GENERAL, kappa_scheme(graphmod.SEQUENTIAL, 3), [0.5], 1.0),
     ParameterError, "the series needs at least two stepsizes"),
    ("safeguard-rule", lambda: SafeguardStepsize(1.0, 0.5, 2.0, t_rule="bogus"),
     ParameterError, "unknown stepsize rule 'bogus'"),
    ("scheme-r-shape", lambda: scheme.CoefficientScheme(**CHAIN, R=[[1.0, 0.0, 0.0]]),
     StructuralError, "R must be 1 x 2, got (1, 3)"),
    ("mu-beta", lambda: scheme.mu(kappa_scheme(graphmod.SEQUENTIAL, 2), -1.0), ParameterError,
     "beta must be nonnegative"),
    ("stepsize-sup-mu", lambda: scheme.stepsize_sup(-1.0), ParameterError,
     "mu must be nonnegative"),
    ("eta-theta", lambda: scheme.eta(0.0, 0.1, 1.0), ParameterError, "theta must be positive"),
    ("pinv-closed-form-n", lambda: graphmod.incidence_pinv_closed_form(graphmod.SEQUENTIAL, 1),
     ParameterError, "canonical trees need n >= 2"),
    ("pinv-closed-form-kind", lambda: graphmod.incidence_pinv_closed_form("ring", 3),
     ParameterError, "unknown canonical kind 'ring'"),
    ("scheme-from-graph-n", lambda: graphmod.scheme_from_graph(graphmod.DiGraph(1, ())),
     ParameterError, "schemes need n >= 2 nodes"),
    ("pinv-empty", lambda: linalg.pseudoinverse(np.zeros((0, 3))), StructuralError,
     "empty matrix has no pseudoinverse here"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal_names_its_cause(call, error, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_an_empty_matrix_has_norm_zero():
    # the norms' exit for an empty matrix: no eigensolver call, and 0.0 as a float
    for value in (linalg.spectral_norm(np.zeros((0, 3))), lambda_max(np.zeros((0, 0)))):
        assert type(value) is float and value == 0.0
