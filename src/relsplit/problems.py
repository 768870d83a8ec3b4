"""Experiment problem generators, objectives, operator splits and reference solutions.

Two synthetic families are provided at desk scale:

* Constrained LASSO:  min ||Ax - b||^2 + lam*||x||_1  s.t.  x in [-u, u]^d,
  split as A1 = lam * d||.||_1, A2 = N_box, B = A^T(A. - b) with
  beta = lambda_max(A^T A). Note B is the gradient of the HALF quadratic,
  so the split's limit minimizes (1/2)||Ax - b||^2 + lam*||x||_1 over the box
  while the reported objective keeps the unhalved quadratic; see
  ``reference_solution`` for the two reference flavors.

* Nonnegative elastic net:
  min (1/2)||Ax - b||^2 + lam1*||x||_1 + (lam2/2)*||x||^2  s.t.  x >= 0,
  split as A1 = N_{x>=0}, A2 = A3 = (lam1/2) * d||.||_1,
  B1 = A^T(A. - b), B2 = lam2*I, beta = max(lambda_max(A^T A), lam2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import driver, graph as graphmod, relocator
from .engine import SplitProblem
from .errors import ParameterError, StructuralError
from .linalg import spectral_norm
from .operators import (BoxNormalCone, L1Subdiff, LeastSquaresGrad,
                        NonnegNormalCone, ScaledIdentity)
from .schedule import RelaxationPlan, ScheduleSpec
from .scheme import kappa_form_scheme


def _coerce_data(problem):
    """Store A and b as float arrays; shapes must agree and every entry be finite."""
    for name in ("A", "b"):
        object.__setattr__(problem, name, np.asarray(getattr(problem, name), dtype=float))
    if problem.A.ndim != 2 or problem.b.shape != (problem.A.shape[0],):
        raise StructuralError(f"incompatible shapes A {problem.A.shape}, b {problem.b.shape}")
    for name in ("A", "b"):
        if not np.isfinite(getattr(problem, name)).all():
            raise ParameterError(f"problem data {name} must be finite")


@dataclass(frozen=True, eq=False)
class LassoProblem:
    A: np.ndarray
    b: np.ndarray
    lam: float
    u: float

    def __post_init__(self):
        _coerce_data(self)
        if not (self.lam > 0 and self.u > 0):
            raise ParameterError("lam and u must be positive")

    @property
    def dim(self):
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class ElasticNetProblem:
    A: np.ndarray
    b: np.ndarray
    lam1: float
    lam2: float

    def __post_init__(self):
        _coerce_data(self)
        if not (self.lam1 > 0 and self.lam2 > 0):
            raise ParameterError("lam1 and lam2 must be positive")

    @property
    def dim(self):
        return self.A.shape[1]


def gen_lasso(q, d, seed, spectrum=(0.5, 1.5), lam=1e-3, u=50.0):
    """Random LASSO instance with controlled singular values.

    A is built from random orthogonal factors with singular values drawn
    uniformly in [spectrum[0], spectrum[1]] (so the Lipschitz constant of
    the forward operator neither explodes nor vanishes); b is standard
    normal. Fixed seed gives bitwise-identical instances.
    """
    if q < 1 or d < 1:
        raise ParameterError("q and d must be >= 1")
    smin, smax = spectrum
    if not 0 < smin <= smax:
        raise ParameterError(f"invalid spectrum {spectrum!r}: need 0 < smin <= smax")
    rng = np.random.default_rng(seed)
    k = min(q, d)
    uu, _ = np.linalg.qr(rng.standard_normal((q, k)))
    vv, _ = np.linalg.qr(rng.standard_normal((d, k)))
    svals = rng.uniform(smin, smax, size=k)
    A = (uu * svals) @ vv.T
    b = rng.standard_normal(q)
    return LassoProblem(A, b, lam, u)


def gen_elastic_net(q, d, seed, n_corr=0, noise_sd=0.01, lam1=1e-2, lam2=1e-2,
                    normalize=True):
    """Random nonnegative elastic-net instance with correlated features.

    Entries of A are Exp(1); the last ``n_corr`` columns are overwritten by
    linear combinations of two earlier columns plus 1e-3-scaled Gaussian
    jitter (inducing near-dependency); x* is entrywise Exp(1) and b = A x* + N(0, noise_sd^2).
    With ``normalize`` the matrix is rescaled to unit spectral norm, keeping
    the forward modulus at max(1, lam2).
    """
    if q < 1 or d < 1:
        raise ParameterError("q and d must be >= 1")
    if not 0 <= n_corr < d:
        raise ParameterError("need 0 <= n_corr < d")
    if noise_sd < 0:
        raise ParameterError("noise_sd must be nonnegative")
    rng = np.random.default_rng(seed)
    A = rng.exponential(1.0, size=(q, d))
    base = d - n_corr
    for c in range(base, d):
        i, j = rng.integers(0, base, size=2)
        w1, w2 = rng.uniform(0.25, 1.0, size=2)
        A[:, c] = w1 * A[:, i] + w2 * A[:, j] + 1e-3 * rng.standard_normal(q)
    if normalize:
        A = A / spectral_norm(A)
    x_true = rng.exponential(1.0, size=d)
    b = A @ x_true + noise_sd * rng.standard_normal(q)
    return ElasticNetProblem(A, b, lam1, lam2)


def objective(problem, x):
    """The reported objective phi(x); the LASSO's is ||Ax - b||^2 + lam ||x||_1 (unhalved)."""
    x = np.asarray(x, dtype=float)
    r = problem.A @ x - problem.b
    if isinstance(problem, LassoProblem):
        return float(r @ r) + problem.lam * float(np.abs(x).sum())
    if isinstance(problem, ElasticNetProblem):
        return (0.5 * float(r @ r) + problem.lam1 * float(np.abs(x).sum())
                + 0.5 * problem.lam2 * float(x @ x))
    raise StructuralError(f"unknown problem type {type(problem).__name__}")


def split_lasso(problem, half_quadratic=True):
    """Davis-Yin operator triple for the constrained LASSO.

    ``half_quadratic=True`` is the paper-literal split B = A^T(A. - b) with
    beta = lambda_max(A^T A); its limit minimizes the half-quadratic
    objective. ``False`` doubles the forward operator (and beta), making the
    limit minimize the unhalved reported objective instead.
    """
    scale = 1.0 if half_quadratic else 2.0
    fwd = LeastSquaresGrad(problem.A, problem.b, scale=scale)
    return SplitProblem(
        resolvents=(L1Subdiff(problem.lam), BoxNormalCone(problem.u)),
        forwards=(fwd,),
        beta=fwd.beta,
        dim=problem.dim,
    )


def split_elastic(problem):
    """Three resolvents and two forwards for the nonnegative elastic net."""
    fwd = LeastSquaresGrad(problem.A, problem.b)
    ridge = ScaledIdentity(problem.lam2)
    return SplitProblem(
        resolvents=(NonnegNormalCone(), L1Subdiff(0.5 * problem.lam1),
                    L1Subdiff(0.5 * problem.lam1)),
        forwards=(fwd, ridge),
        beta=max(fwd.beta, problem.lam2),
        dim=problem.dim,
    )


@dataclass(frozen=True)
class Reference:
    x: np.ndarray
    phi: float
    flagged: bool


def reference_solution(problem, budget, half_quadratic=True):
    """Reference (x*, phi*) from a long constant-stepsize self-run.

    Runs the gamma = 1/beta configuration for 20x the benchmark budget
    (stopping early below residual 1e-12) on the kappa-form sequential tree:
    ``run_davis_yin`` for the LASSO, ``run`` for the elastic net (n = 3). It
    reports the final shadow iterate with phi evaluated by the problem's
    reported objective. For the LASSO, ``half_quadratic`` picks which
    objective the reference minimizes: True (default) matches the
    paper-literal split used by the benchmark methods; False matches the
    unhalved reported objective. The result is flagged when the run did not
    reach residual 1e-10.
    """
    if isinstance(problem, LassoProblem):
        prob, kind, loop = (split_lasso(problem, half_quadratic=half_quadratic),
                            relocator.DAVIS_YIN, driver.run_davis_yin)
    elif isinstance(problem, ElasticNetProblem):
        prob, kind, loop = split_elastic(problem), graphmod.SEQUENTIAL, driver.run
    else:
        raise StructuralError(f"unknown problem type {type(problem).__name__}")
    tree = graphmod.canonical(graphmod.SEQUENTIAL, len(prob.resolvents))
    cfg = driver.RunConfig(scheme=kappa_form_scheme(graphmod.scheme_from_graph(tree)),
                           problem=prob, relocator=kind,
                           schedule=ScheduleSpec(variant="constant", gamma=1.0 / prob.beta),
                           relaxation=RelaxationPlan(), max_iters=20 * budget,
                           fix_res_tol=1e-12, record_every=max(1, budget))
    trace = loop(cfg)
    if trace.aborted or not trace.fix_res:
        raise RuntimeError(f"reference run failed: {trace.aborted}")
    return Reference(x=np.array(trace.x_final), phi=objective(problem, trace.x_final),
                     flagged=bool(trace.fix_res[-1] > 1e-10))

