"""Experiment problem generators, objectives, operator splits and reference solutions.

Two synthetic families are provided at desk scale:

* Constrained LASSO:  min ||Ax - b||^2 + lam*||x||_1  s.t.  x in [-u, u]^d,
  split as A1 = lam * d||.||_1, A2 = N_box, B = A^T(A. - b) with
  beta = lambda_max(A^T A). Note B is the gradient of the HALF quadratic,
  so the split's limit (and the reference) minimizes
  (1/2)||Ax - b||^2 + lam*||x||_1 over the box while the reported objective
  keeps the unhalved quadratic.

* Nonnegative elastic net:
  min (1/2)||Ax - b||^2 + lam1*||x||_1 + (lam2/2)*||x||^2  s.t.  x >= 0,
  split as A1 = N_{x>=0}, A2 = A3 = (lam1/2) * d||.||_1,
  B1 = A^T(A. - b), B2 = lam2*I, beta = max(lambda_max(A^T A), lam2).

Reference solutions are exact: both families' minimisers come from one
LARS-lasso homotopy with bound events, over the box for the LASSO and over
x >= 0 for the elastic net. Each minimiser is lifted to the fixed point of
the gamma = 1/beta reference loop, whose own fixed-point residual then
certifies it in one iteration; where the homotopy degenerates (a column
joining in the span of the active ones, as with duplicated columns), that
loop runs from zero instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import driver, graph as graphmod, relocator
from .engine import SplitProblem
from .errors import ParameterError, ReferenceRunError, StructuralError
from .linalg import aligned, aligned_empty, spectral_norm
from .operators import (BoxNormalCone, L1Subdiff, LeastSquaresGrad,
                        NonnegNormalCone, ScaledIdentity, soft_threshold)
from .schedule import ScheduleSpec
from .scheme import kappa_form_scheme


def _coerce_data(problem, *weights):
    """Store A and b as float arrays; shapes must agree and every entry be finite.

    A is stored on a 64-byte boundary (copied only when it starts elsewhere),
    so the split's ``LeastSquaresGrad`` shares it. Each named weight must be
    positive and finite.
    """
    object.__setattr__(problem, "A", aligned(problem.A))
    object.__setattr__(problem, "b", np.asarray(problem.b, dtype=float))
    if problem.A.ndim != 2 or problem.b.shape != (problem.A.shape[0],):
        raise StructuralError(f"incompatible shapes A {problem.A.shape}, b {problem.b.shape}")
    for name in ("A", "b"):
        if not np.isfinite(getattr(problem, name)).all():
            raise ParameterError(f"problem data {name} must be finite")
    for name in weights:
        value = getattr(problem, name)
        if not 0 < value < np.inf:
            raise ParameterError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True, eq=False)
class LassoProblem:
    A: np.ndarray
    b: np.ndarray
    lam: float
    u: float

    def __post_init__(self):
        _coerce_data(self, "lam")
        if not self.u > 0:   # u = inf is no box
            raise ParameterError(f"u must be positive, got {self.u}")

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
        _coerce_data(self, "lam1", "lam2")

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
    if len(spectrum) != 2 or not 0 < spectrum[0] <= spectrum[1] < np.inf:
        raise ParameterError(f"invalid spectrum {spectrum!r}: need two finite numbers "
                             f"0 < smin <= smax")
    smin, smax = spectrum
    rng = np.random.default_rng(seed)
    k = min(q, d)
    uu, _ = np.linalg.qr(rng.standard_normal((q, k)))
    vv, _ = np.linalg.qr(rng.standard_normal((d, k)))
    svals = rng.uniform(smin, smax, size=k)
    A = np.matmul(uu * svals, vv.T, out=aligned_empty((q, d)))
    b = rng.standard_normal(q)
    return LassoProblem(A, b, lam, u)


def gen_elastic_net(q, d, seed, n_corr=0, noise_sd=0.01, lam1=1e-2, lam2=1e-2):
    """Random nonnegative elastic-net instance with correlated features.

    Entries of A are Exp(1); the last ``n_corr`` columns are overwritten by
    linear combinations of two earlier columns plus 1e-3-scaled Gaussian
    jitter (inducing near-dependency); x* is entrywise Exp(1) and b = A x* + N(0, noise_sd^2).
    The matrix is rescaled to unit spectral norm, keeping the forward modulus
    at max(1, lam2).
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
    A = np.divide(A, spectral_norm(A), out=aligned_empty(A.shape))
    x_true = rng.exponential(1.0, size=d)
    b = A @ x_true + noise_sd * rng.standard_normal(q)
    return ElasticNetProblem(A, b, lam1, lam2)


def objective(problem, x, residual=None):
    """The reported objective phi(x); the LASSO's is ||Ax - b||^2 + lam ||x||_1 (unhalved).

    ``residual`` is A x - b when the caller already has it.
    """
    x = np.asarray(x, dtype=float)
    r = problem.A @ x - problem.b if residual is None else residual
    if isinstance(problem, LassoProblem):
        return float(r @ r) + problem.lam * float(np.abs(x).sum())
    if isinstance(problem, ElasticNetProblem):
        return (0.5 * float(r @ r) + problem.lam1 * float(np.abs(x).sum())
                + 0.5 * problem.lam2 * float(x @ x))
    raise StructuralError(f"unknown problem type {type(problem).__name__}")


def split_lasso(problem):
    """Davis-Yin operator triple for the constrained LASSO.

    The paper-literal split B = A^T(A. - b) with beta = lambda_max(A^T A);
    its limit minimizes the half-quadratic objective.
    """
    fwd = LeastSquaresGrad(problem.A, problem.b)
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


def _bounded_path(G, c, lam, lo, hi):
    """Minimiser of (1/2) x^T G x - c^T x + lam ||x||_1 over lo <= x <= hi, lo <= 0 <= hi.

    A LARS-lasso homotopy with bound events. It follows the piecewise-linear
    path of minimisers from t = the largest correlation c_j that can move x_j
    off 0 (up only if hi > 0, down only if lo < 0), where x = 0, down to
    t = lam. On a segment the free set S with its signs s and the clamped set
    C (entries fixed at a nonzero bound, their terms G_:C x_C folded into c)
    are fixed; x_S moves along G_SS^{-1} s and the correlations c - G x of S
    stay at t s. A segment ends where the correlation of a zero entry reaches
    +-t (join) or that of a clamped entry comes back to +-t (free), or where
    an entry of S reaches 0 (drop) or its bound (clamp). The end point is
    one solve on S at lam. None when 10 d segments do not reach lam or the
    end point fails the optimality conditions (a tie or rounding misled the
    path); a LinAlgError when a column joins in the span of S.
    """
    x = np.zeros(c.size)
    corr = cc = c
    reach = np.maximum(np.where(hi > 0, corr, -np.inf), np.where(lo < 0, -corr, -np.inf))
    t = float(reach.max())
    if lam >= t:
        return x
    active, clamped, left = [int(np.argmax(reach))], [], None
    signs = [1.0 if corr[active[0]] > 0 else -1.0]
    for _ in range(10 * c.size):
        S = np.array(active, dtype=int)
        G_SS = G[np.ix_(S, S)]
        w = np.linalg.solve(G_SS, signs)
        a = G[:, S] @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            up, down = (corr - t * a) / (1.0 - a), (t * a - corr) / (1.0 + a)
            drop = t + x[S] / w
            clamp = t - (np.where(np.array(signs) > 0, hi, lo) - x[S]) / w
        for ends, allowed in ((up, hi > 0), (down, lo < 0), (drop, True), (clamp, True)):
            ends[~(ends < t) | (not allowed)] = -np.inf   # NaN, the far side of t: no event
        if left:
            # the entry that left S at this t, with corr = t s: its root on the side of
            # s is t itself, no return; a dropped entry may still rejoin with sign -s
            (up if left[1] > 0 else down)[left[0]] = -np.inf
        enter = np.where(x > 0, up, np.where(x < 0, down, np.maximum(up, down)))
        enter[S] = -np.inf
        events = np.concatenate([enter, drop, clamp])   # argmax: ties go to the first
        e = int(np.argmax(events))
        t_next = max(lam, events[e])
        x[S] += (t - t_next) * w
        corr = cc - G[:, S] @ x[S]
        t, left = t_next, None
        if t_next == lam:
            break
        if e < c.size:
            # distance^2 of column e from the active columns' span: G_SS stays invertible
            if not G[e, e] - G[S, e] @ np.linalg.solve(G_SS, G[S, e]) > 1e-12 * G[e, e]:
                raise np.linalg.LinAlgError(f"column {e} joins in the span of the active set")
            active.append(e)
            signs.append(1.0 if corr[e] > 0 else -1.0)
            if x[e] != 0:
                clamped.remove(e)   # a free event
        else:
            i = (e - c.size) % S.size   # a drop, or a clamp at the bound on the side of s_i
            left = active.pop(i), signs.pop(i)
            x[left[0]] = 0.0 if e < c.size + S.size else hi if left[1] > 0 else lo
            if x[left[0]] != 0:
                clamped.append(left[0])
        cc = c - G[:, clamped] @ x[clamped] if clamped else c
    else:
        return None
    S = np.array(active, dtype=int)
    x[S] = np.linalg.solve(G[np.ix_(S, S)], cc[S] - lam * np.array(signs))
    kkt = x - np.clip(soft_threshold(x + cc - G[:, S] @ x[S], lam), lo, hi)
    if not np.abs(kkt).max() <= 1e-12 * max(1.0, float(np.abs(x).max())):
        return None
    return x


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


def _exact_start(problem, s, split, gamma):
    """The reference loop's z0: the lifted exact minimiser, or None where that step fails.

    Both families are one bounded path on G = A^T A (+ lam2 I) and c = A^T b.
    The LASSO split minimises (1/2)||Ax - b||^2 + lam ||x||_1 over the box;
    a_2 in N_box(x*) is 0 off the bound and soft_threshold(-B x*, lam) on it.
    On x >= 0, (lam1/2) 1 lies in (lam1/2) d||x*||_1 for the elastic net's
    a_2 and a_3.
    """
    A, lasso = problem.A, isinstance(problem, LassoProblem)
    try:
        if lasso:
            x = _bounded_path(A.T @ A, A.T @ problem.b, problem.lam, -problem.u, problem.u)
        else:
            x = _bounded_path(A.T @ A + problem.lam2 * np.eye(problem.dim), A.T @ problem.b,
                              problem.lam1, 0.0, np.inf)
        if x is None:
            return None
        if lasso:
            bound = soft_threshold(-split.forwards[0].apply(x), problem.lam)
            later = (np.where(np.abs(x) == problem.u, bound, 0.0),)
        else:
            later = (np.full(problem.dim, 0.5 * problem.lam1),) * 2
        z0 = _lift(s, split, gamma, x, later)
    except np.linalg.LinAlgError:
        return None
    return z0 if np.isfinite(z0).all() else None


def reference_solution(problem, budget):
    """Reference (x*, phi*) certified by the gamma = 1/beta self-run's own residual.

    The loop is the gamma = 1/beta configuration on the kappa-form sequential
    tree: ``run_davis_yin`` for the LASSO, ``run`` for the elastic net
    (n = 3). It starts at the fixed point lifted from the exact minimiser,
    which one homotopy with bound events gives for both families, binding box
    included. There its first fixed-point residual is at rounding level, so
    it stops after one iteration below 1e-12. When the homotopy degenerates
    (a column joins in the span of the active ones, an event cap, an end
    point that fails the optimality conditions) or the lift is not finite,
    the loop starts at zero instead and runs up to 20x the benchmark budget.
    The reference is the loop's final shadow iterate with phi evaluated by
    the problem's reported objective; for the LASSO it minimizes the
    half-quadratic objective of the split the benchmark methods run. The
    result is flagged when the run did not reach residual 1e-10; an aborted
    run raises ``ReferenceRunError``.
    """
    if isinstance(problem, LassoProblem):
        prob, kind, loop = split_lasso(problem), relocator.DAVIS_YIN, driver.run_davis_yin
    elif isinstance(problem, ElasticNetProblem):
        prob, kind, loop = split_elastic(problem), graphmod.SEQUENTIAL, driver.run
    else:
        raise StructuralError(f"unknown problem type {type(problem).__name__}")
    tree = graphmod.canonical(graphmod.SEQUENTIAL, len(prob.resolvents))
    s = kappa_form_scheme(graphmod.scheme_from_graph(tree))
    gamma = 1.0 / prob.beta
    cfg = driver.RunConfig(scheme=s, problem=prob, relocator=kind,
                           schedule=ScheduleSpec(variant="constant", gamma=gamma),
                           max_iters=20 * budget, fix_res_tol=1e-12,
                           record_every=max(1, budget))
    trace = loop(cfg, _exact_start(problem, s, prob, gamma))
    if trace.aborted or not trace.fix_res:
        raise ReferenceRunError(f"reference run failed: {trace.aborted}")
    return Reference(x=np.array(trace.x_final), phi=objective(problem, trace.x_final),
                     flagged=bool(trace.fix_res[-1] > 1e-10))
