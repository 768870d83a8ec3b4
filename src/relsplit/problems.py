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

Reference solutions are exact: the LASSO's from a LARS-lasso homotopy (when
the box does not bind), the elastic net's from a Lawson-Hanson active-set
method on its QP over x >= 0. Each minimiser is lifted to the fixed point of
the gamma = 1/beta reference loop, whose own fixed-point residual then
certifies it in one iteration; where the exact step does not apply, that
loop runs from zero instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import driver, graph as graphmod, relocator
from .engine import SplitProblem
from .errors import ParameterError, ReferenceRunError, StructuralError
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


def _lasso_path(G, c, lam, max_events):
    """Minimiser of (1/2) x^T G x - c^T x + lam ||x||_1 by the LARS-lasso homotopy.

    Follows the piecewise-linear solution path from t = ||c||_inf (where x = 0)
    down to t = lam. On a segment the active set S and its signs s are fixed,
    x_S moves along G_SS^{-1} s and the correlations c - G x of the active
    entries stay at t s; a segment ends where an inactive correlation reaches
    +-t (join) or an active entry reaches 0 (drop). The end point is one solve
    on the support at lam. None when ``max_events`` segments do not reach lam
    or an end entry has the wrong sign; a LinAlgError when a joining column
    lies in the span of the active ones.
    """
    x = np.zeros(c.size)
    corr = c.copy()
    t = float(np.abs(corr).max())
    if lam >= t:
        return x
    active = [int(np.argmax(np.abs(corr)))]
    signs = [float(np.sign(corr[active[0]]))]
    dropped = -1
    for _ in range(max_events):
        S = np.array(active)
        G_SS = G[np.ix_(S, S)]
        w = np.linalg.solve(G_SS, signs)
        a = G[:, S] @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            up, down = (corr - t * a) / (1.0 - a), (t * a - corr) / (1.0 + a)
            drop = t + x[S] / w
        for ends in (up, down, drop):
            ends[~(ends < t)] = -np.inf   # NaN and the far side of t are no events
        join = np.maximum(up, down)
        join[S] = -np.inf
        if dropped >= 0:
            join[dropped] = -np.inf   # it left at this t with |corr| = t; no rejoin at once
        j, i = int(np.argmax(join)), int(np.argmax(drop))
        t_next = max(lam, join[j], drop[i])
        x[S] += (t - t_next) * w
        corr = c - G[:, S] @ x[S]
        t, dropped = t_next, -1
        if t_next == lam:
            break
        if t_next == join[j]:
            # distance^2 of column j from the active columns' span: G_SS stays invertible
            if not G[j, j] - G[S, j] @ np.linalg.solve(G_SS, G[S, j]) > 1e-12 * G[j, j]:
                raise np.linalg.LinAlgError(f"column {j} joins in the span of the active set")
            active.append(j)
            signs.append(1.0 if corr[j] > 0 else -1.0)
        else:
            dropped = active.pop(i)
            signs.pop(i)
            x[dropped] = 0.0
    else:
        return None
    S, signs = np.array(active), np.array(signs)
    x[:] = 0.0
    x[S] = np.linalg.solve(G[np.ix_(S, S)], c[S] - lam * signs)
    if (x[S] * signs < 0).any():
        return None   # an entry against its sign: the path missed a drop (ties, rounding)
    return x


def _nonneg_qp(Q, c, max_solves):
    """Minimiser of (1/2) x^T Q x - c^T x over x >= 0, Q positive definite (Lawson-Hanson).

    The free set grows by the bound entry of largest gradient c - Q x; each
    solve on the free set either lands inside the orthant or the step to it
    stops at the first entry that reaches 0, which leaves the free set.
    None when ``max_solves`` solves do not end it.
    """
    x = np.zeros(c.size)
    free = np.zeros(c.size, dtype=bool)
    tol = 1e-13 * max(float(np.abs(c).max()), 1.0)
    solves = 0
    while True:
        grad = c - Q @ x
        grad[free] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            return x
        free[j] = True
        while True:
            if solves == max_solves:
                return None
            solves += 1
            F = np.flatnonzero(free)
            sol = np.linalg.solve(Q[np.ix_(F, F)], c[F])
            if (sol > 0).all():
                x[F] = sol
                break
            xf = x[F]
            ratio = np.full(F.size, np.inf)
            neg = sol <= 0
            ratio[neg] = xf[neg] / (xf[neg] - sol[neg])
            k = int(np.argmin(ratio))
            x[F] = xf + ratio[k] * (sol - xf)
            x[F[k]] = 0.0   # the blocking entry, exactly on the bound
            free &= x > 0
            x[~free] = 0.0


def _exact_lasso(problem, half_quadratic):
    """(x*, (a_2,)) from the homotopy when the box does not bind, else None.

    The split minimises (scale/2)||Ax - b||^2 + lam ||x||_1, so the homotopy
    runs to lam / scale; a_2 = 0 lies in N_box(x*).
    """
    A = problem.A
    lam = problem.lam if half_quadratic else 0.5 * problem.lam
    x = _lasso_path(A.T @ A, A.T @ problem.b, lam, 10 * problem.dim)
    if x is None or not np.abs(x).max() <= problem.u:   # NaN fails the comparison
        return None
    return x, (np.zeros_like(x),)


def _exact_elastic(problem):
    """(x*, (a_2, a_3)) from the active-set method on the QP over x >= 0, or None.

    On x >= 0 the objective is (1/2) x^T Q x - c^T x plus a constant, with
    Q = A^T A + lam2 I and c = A^T b - lam1 1; (lam1/2) 1 lies in
    (lam1/2) d||x*||_1 for every x* >= 0.
    """
    A, d = problem.A, problem.dim
    x = _nonneg_qp(A.T @ A + problem.lam2 * np.eye(d),
                   A.T @ problem.b - problem.lam1 * np.ones(d), 3 * d)
    if x is None:
        return None
    half = np.full(d, 0.5 * problem.lam1)
    return x, (half, half)


def _lift(s, split, gamma, x, later):
    """The point z whose sweep at stepsize gamma returns x from every resolvent.

    ``later`` holds a_i in A_i x for i >= 2. At a solution x,
    a_1 = -(sum_{i>=2} a_i + sum_j B_j x) lies in A_1 x. Resolvent i returns x
    when its argument is x + (gamma/d_i) a_i, that is when (M z)_i = w_i with
    w_i = d_i x + gamma a_i - (sum_{j<i} N_ij) x + gamma sum_j P_ij B_j x
    (every (R x)_j is x, R having unit row sums). These w_i sum to 0, so
    they lie in the range of M and the least-squares z solves M z = w exactly.
    """
    forwards = np.array([op.apply(x) for op in split.forwards])
    a = np.array([np.zeros_like(x), *later])
    a[0] = -(a.sum(axis=0) + forwards.sum(axis=0))
    w = (s.d - s.N.sum(axis=1))[:, None] * x + gamma * (a + s.P @ forwards)
    return np.linalg.lstsq(s.M, w, rcond=None)[0]


def _exact_start(problem, s, split, gamma, half_quadratic):
    """The reference loop's z0: the lifted exact minimiser, or None where that step fails."""
    try:
        start = (_exact_lasso(problem, half_quadratic) if isinstance(problem, LassoProblem)
                 else _exact_elastic(problem))
        z0 = None if start is None else _lift(s, split, gamma, *start)
    except np.linalg.LinAlgError:
        return None
    return z0 if z0 is not None and np.isfinite(z0).all() else None


def reference_solution(problem, budget, half_quadratic=True):
    """Reference (x*, phi*) certified by the gamma = 1/beta self-run's own residual.

    The loop is the gamma = 1/beta configuration on the kappa-form sequential
    tree: ``run_davis_yin`` for the LASSO, ``run`` for the elastic net
    (n = 3). It starts at the fixed point lifted from the exact minimiser: the
    LASSO's from a LARS-lasso homotopy when the box does not bind, the elastic
    net's from a Lawson-Hanson active-set method. There its first fixed-point
    residual is at rounding level, so it stops after one iteration below 1e-12.
    When the exact step fails (singular system, non-finite result, binding
    box, step cap) the loop starts at zero instead and runs up to 20x the
    benchmark budget. The reference is the loop's final shadow iterate with
    phi evaluated by the problem's reported objective. For the LASSO,
    ``half_quadratic`` picks which objective the reference minimizes: True
    (default) matches the paper-literal split used by the benchmark methods;
    False matches the unhalved reported objective. The result is flagged
    when the run did not reach residual 1e-10; an aborted run raises
    ``ReferenceRunError``.
    """
    if isinstance(problem, LassoProblem):
        prob, kind, loop = (split_lasso(problem, half_quadratic=half_quadratic),
                            relocator.DAVIS_YIN, driver.run_davis_yin)
    elif isinstance(problem, ElasticNetProblem):
        prob, kind, loop = split_elastic(problem), graphmod.SEQUENTIAL, driver.run
    else:
        raise StructuralError(f"unknown problem type {type(problem).__name__}")
    tree = graphmod.canonical(graphmod.SEQUENTIAL, len(prob.resolvents))
    s = kappa_form_scheme(graphmod.scheme_from_graph(tree))
    gamma = 1.0 / prob.beta
    cfg = driver.RunConfig(scheme=s, problem=prob, relocator=kind,
                           schedule=ScheduleSpec(variant="constant", gamma=gamma),
                           relaxation=RelaxationPlan(), max_iters=20 * budget,
                           fix_res_tol=1e-12, record_every=max(1, budget))
    trace = loop(cfg, _exact_start(problem, s, prob, gamma, half_quadratic))
    if trace.aborted or not trace.fix_res:
        raise ReferenceRunError(f"reference run failed: {trace.aborted}")
    return Reference(x=np.array(trace.x_final), phi=objective(problem, trace.x_final),
                     flagged=bool(trace.fix_res[-1] > 1e-10))
