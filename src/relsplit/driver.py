"""Relocated fixed-point iteration loops.

The general loop iterates, per stepsize sequence (gamma_k):

    x_k     = sweep(gamma_k, z_k)                       (resolvent outputs)
    w_k     = z_k - lambda_k * theta_k * M* x_k
    z_{k+1} = Q_{gamma_{k+1} <- gamma_k}(w_k)

For the cheap relocator kinds, relocation needs only x_1 at (gamma_k, w_k),
and the recycling identity x_1(gamma_{k+1}, z_{k+1}) = x_1(gamma_k, w_k)
lets the next sweep start from block 2; the loop then costs n resolvent
evaluations per iteration (n*(K+1) + 1 in total through iteration K), the
same as the non-relocated method. The general relocator needs a full second
sweep at w_k (2n per iteration).

``run_davis_yin`` is the three-operator scheme written out directly, for a
RunConfig of the two-node chain under the davis-yin relocator:

    y_k     = J_{gamma_k A_2}(2 x_k - z_k - gamma_k B x_k)
    w_k     = z_k + lambda_k theta_k (y_k - x_k)
    x_{k+1} = J_{gamma_k A_1}(w_k)
    z_{k+1} = (gamma_{k+1}/gamma_k) w_k + (1 - gamma_{k+1}/gamma_k) x_{k+1}

with x_0 = J_{gamma_0 A_1}(z_0). Given the same RunConfig, it produces the
iterates of ``run`` at a lower cost per iteration.

Both loops take one RunConfig and share one skeleton (``_iterate``), which
builds the stepsize schedule and the trace recorder from the config once per
run; only their resolvent formulas differ. ``run`` builds its step plan once,
before the first iteration: the operator bindings and shapes are checked and
the sweep rows, M*, the relocator's matrix K (``relocator.relocation_map``, so
that z_{k+1} = r w_k + (1 - r) K x with r = gamma_{k+1}/gamma_k) and the
consensus pairs are precomputed, so the loop itself only does arithmetic.

Feasibility is enforced every iteration: the margin
2 - gamma_k*mu - 2*lambda_k*theta_k must stay at or above the plan's floor,
fix_res must be finite, and gamma_{k+1} must stay inside (0, 2/mu);
violations abort the run and return the partial trace with an abort marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine, relocator, scheme as schememod
from .errors import ParameterError, StructuralError, as_count
from .linalg import as_blocks, norm
from .schedule import RelaxationPlan, ScheduleSpec

CSV_HEADER = "k,gamma,theta,lambda,fix_res,consensus,objective,rel_err_x,rel_err_f,sweeps"
_NAN = float("nan")
_INF = float("inf")


@dataclass
class RunConfig:
    """Bound inputs of one run of either loop: scheme, problem, relocator, schedules, limits.

    An explicit scheme (one not built from a graph, which satisfies the six
    conditions by construction) must pass ``scheme.validate``; a violation is
    a StructuralError that names the failed conditions.
    """

    scheme: object
    problem: object
    relocator: str = relocator.GENERAL
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    relaxation: RelaxationPlan = field(default_factory=RelaxationPlan)
    max_iters: int = 1000
    fix_res_tol: float = 1e-10
    record_every: int = 1
    objective: object | None = None          # callable x -> float, for the trace
    reference: tuple | None = None           # (x_star, phi_star) for relative errors

    def __post_init__(self):
        if not 0 < self.fix_res_tol < _INF:   # NaN fails both comparisons
            raise ParameterError(f"fix_res_tol must be finite and > 0, got {self.fix_res_tol!r}")
        self.max_iters = as_count("max_iters", self.max_iters)
        self.record_every = as_count("record_every", self.record_every)
        if self.relocator not in relocator.KINDS:
            raise ParameterError(f"unknown relocator kind {self.relocator!r}")
        if self.relocator in relocator.CHEAP_KINDS:
            relocator.require_graph_scheme(self.relocator, self.scheme)
        failed = [] if self.scheme.graph is not None else schememod.validate(self.scheme)
        if failed:
            raise StructuralError(f"scheme fails condition(s) {'; '.join(failed)}")


@dataclass
class Trace:
    """Per-iteration records plus final state; rows are ordered by k."""

    k: list = field(default_factory=list)
    gamma: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    fix_res: list = field(default_factory=list)
    consensus: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    rel_err_x: list = field(default_factory=list)
    rel_err_f: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)
    z_final: np.ndarray | None = None
    x_final: np.ndarray | None = None
    iterations: int = 0
    resolvent_evals: int = 0
    converged: bool = False
    aborted: str | None = None

    def to_csv(self, path):
        """Write the trace with the fixed header; floats carry 17 significant digits."""
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in zip(self.k, self.gamma, self.theta, self.lam, self.fix_res,
                           self.consensus, self.objective, self.rel_err_x,
                           self.rel_err_f, self.sweeps):
                k, *floats, sweeps = row
                fh.write("%d,%s,%d\n" % (k, ",".join("%.17g" % v for v in floats), sweeps))

    def summary(self):
        return {
            "iterations": self.iterations,
            "fix_res": self.fix_res[-1] if self.fix_res else float("nan"),
            "consensus": self.consensus[-1] if self.consensus else float("nan"),
            "objective": self.objective[-1] if self.objective else float("nan"),
            "rel_err_x": self.rel_err_x[-1] if self.rel_err_x else float("nan"),
            "rel_err_f": self.rel_err_f[-1] if self.rel_err_f else float("nan"),
            "sweeps": self.resolvent_evals,
            "converged": self.converged,
            "aborted": self.aborted,
        }


class _Recorder:
    """Appends trace rows; with a reference (x*, phi*) it fills the relative errors

    rel_err_x = ||x - x*|| / max(||x*||, 1e-30), rel_err_f = |phi - phi*| / max(|phi*|, 1e-30).
    """

    def __init__(self, objective=None, reference=None):
        self.objective = objective
        self.trace = Trace()
        self.reference = reference is not None
        if self.reference:
            self.x_star = np.asarray(reference[0], dtype=float)
            self.x_den = max(norm(self.x_star), 1e-30)
            self.phi_star = float(reference[1])
            self.f_den = max(abs(self.phi_star), 1e-30)

    def row(self, k, gamma, theta, lam, fix_res, consensus, xbar, evals):
        t = self.trace
        t.k.append(k)
        t.gamma.append(gamma)
        t.theta.append(theta)
        t.lam.append(lam)
        t.fix_res.append(fix_res)
        t.consensus.append(consensus)
        phi = float(self.objective(xbar)) if self.objective is not None else _NAN
        t.objective.append(phi)
        if self.reference:
            t.rel_err_x.append(norm(xbar - self.x_star) / self.x_den)
            t.rel_err_f.append(abs(phi - self.phi_star) / self.f_den)
        else:
            t.rel_err_x.append(_NAN)
            t.rel_err_f.append(_NAN)
        t.sweeps.append(evals)


def _infeasible(k, gamma, lam, margin, floor):
    if lam <= 0:
        return (f"no positive relaxation keeps the margin at k={k} "
                f"(gamma={gamma:.6g}, gamma*mu too close to 2)")
    return (f"feasibility margin {margin:.3e} below floor {floor:.1e} "
            f"at k={k} (gamma={gamma:.6g}, lambda={lam:.4g})")


def default_z0(s, prob, seed=None, scale=1.0):
    """Zero initial point, or a seeded standard-normal one when seed is given."""
    if seed is None:
        return np.zeros((s.m, prob.dim))
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((s.m, prob.dim))


def _iterate(step, cfg, mu_value):
    """The loop skeleton both drivers share; ``step`` holds the resolvent formulas.

    Schedule (``ScheduleSpec.build`` checks 0 < gamma_0 < 2/mu), relaxation,
    limits and recorder come from ``cfg``. A step exposes ``z``, the shadow
    iterate ``x``, the cumulative resolvent count ``evals`` and four methods:
    ``start(gamma)``; ``residuals(gamma)``, which evaluates the resolvents at
    (gamma, z) and returns (fix_res, consensus); ``advance(gamma, lam*theta)``,
    which forms w and the next x_1 and returns (||x_1||, ||x_1 - w||); and
    ``relocate(gamma_next/gamma)``, which sets z to the relocated w.
    """
    sched = cfg.schedule.build(mu_value, cfg.problem.beta)
    rec = _Recorder(cfg.objective, cfg.reference)
    trace, relax = rec.trace, cfg.relaxation
    floor = relax.margin_floor
    max_iters, fix_res_tol, record_every = cfg.max_iters, cfg.fix_res_tol, cfg.record_every
    sup = schememod.stepsize_sup(mu_value)
    gamma = sched.gamma
    step.start(gamma)
    last = max_iters - 1
    for k in range(max_iters):
        lam, theta = relax.pair(gamma, mu_value)
        margin = schememod.feasibility_margin(gamma, lam, theta, mu_value)
        if lam <= 0 or margin < floor - 1e-12:
            trace.aborted = _infeasible(k, gamma, lam, margin, floor)
            break
        fix_res, consensus = step.residuals(gamma)
        done = fix_res <= fix_res_tol
        stop = done or not fix_res < _INF
        if stop or k % record_every == 0 or k == last:
            rec.row(k, gamma, theta, lam, fix_res, consensus, step.x, step.evals)
        trace.iterations = k + 1
        if stop:
            if done:
                trace.converged = True
            else:
                trace.aborted = f"non-finite fix_res = {fix_res} at k={k}"
            break
        gamma_next = sched.next_gamma(*step.advance(gamma, lam * theta))
        if not 0 < gamma_next < sup:
            trace.aborted = f"gamma_{k + 1} = {gamma_next:.6g} outside (0, {sup:.6g})"
            break
        step.relocate(gamma_next / gamma)
        gamma = gamma_next
    trace.z_final = step.z
    trace.x_final = step.x
    trace.resolvent_evals = step.evals
    return trace


class _EngineStep:
    """Resolvent formulas of the coefficient-scheme engine (the step plan of ``run``).

    At w the cheap relocators need only x_1 (recycled as the next sweep's
    x_1), which their K, a column of ones on every supported tree, just
    broadcasts; the general relocator needs a full second sweep, which its
    m x n K multiplies.
    """

    def __init__(self, sweeps, general, K, z):
        self.sweeps, self.general, self.z = sweeps, general, z
        self.K = K if general else None
        self.x = self.x1 = None
        self.evals = 0

    def start(self, gamma):
        pass

    def residuals(self, gamma):
        xs = self.sweeps.sweep(gamma, self.z, self.x1)
        self.x = xs[0]
        self.evals += self.sweeps.n if self.x1 is None else self.sweeps.n - 1
        self.mstar_x, fix_res, consensus = self.sweeps.residuals(xs)
        return fix_res, consensus

    def advance(self, gamma, lam_theta):
        w = self.w = self.z - lam_theta * self.mstar_x
        if self.general:
            self.at_w = self.sweeps.sweep(gamma, w)
            self.evals += self.sweeps.n
            x1w = self.at_w[0]
        else:
            x1w = self.at_w = self.sweeps.first_block(gamma, w)
            self.evals += 1
        return norm(x1w), norm(x1w - w)

    def relocate(self, ratio):
        kx = self.K @ self.at_w if self.general else self.at_w
        self.z = ratio * self.w + (1.0 - ratio) * kx
        self.x1 = None if self.general else self.at_w


def run(cfg, z0=None):
    """Relocated fixed-point iteration on a coefficient scheme; returns the Trace."""
    s, prob, kind = cfg.scheme, cfg.problem, cfg.relocator
    sweeps = engine.SweepPlan(s, prob)
    # a copy: the sweep may hand the caller's blocks, as views, to a resolvent
    z = sweeps.blocks(z0).copy() if z0 is not None else default_z0(s, prob)
    step = _EngineStep(sweeps, kind == relocator.GENERAL, relocator.relocation_map(kind, s), z)
    return _iterate(step, cfg, schememod.mu(s, prob.beta))


class _DavisYinStep:
    """Resolvent formulas of the three-operator scheme, written out directly."""

    def __init__(self, prob, z):
        (a1, a2), (b,) = prob.resolvents, prob.forwards
        self.resolve1, self.resolve2, self.apply = a1.resolve, a2.resolve, b.apply
        self.z = z
        self.x = None

    def start(self, gamma):
        self.x_next = self.resolve1(gamma, self.z)
        self.evals = 1

    def residuals(self, gamma):
        # x becomes x_k only here, so a run that stops after relocating still
        # reports its last row's x as x_final, as the engine step does
        x = self.x = self.x_next
        y = self.y = self.resolve2(gamma, 2.0 * x - self.z - gamma * self.apply(x))
        self.evals += 1
        fix_res = norm(x - y)
        return fix_res, fix_res

    def advance(self, gamma, lam_theta):
        w = self.w = self.z + lam_theta * (self.y - self.x)
        x_next = self.x_next = self.resolve1(gamma, w)
        self.evals += 1
        return norm(x_next), norm(x_next - w)

    def relocate(self, ratio):
        self.z = ratio * self.w + (1.0 - ratio) * self.x_next


def run_davis_yin(cfg, z0=None):
    """Relocated three-operator splitting for 0 in A1 x + A2 x + B x; returns the Trace.

    ``cfg``'s relocator is davis-yin (so its scheme is the kappa-form two-node
    chain) and its problem binds A1, A2 and B. ``z0`` is a d-vector or one
    (1, d) block, zeros by default; ``z_final`` is a d-vector. mu is B's beta,
    not ``scheme.mu(s, beta)``, which differs in the last bits on the chain.
    The consensus column is ||x_k - y_k|| and the shadow iterate is x_k.
    """
    if cfg.relocator != relocator.DAVIS_YIN:
        raise StructuralError(f"run_davis_yin needs the davis-yin relocator, "
                              f"got {cfg.relocator!r}")
    prob = cfg.problem
    engine.check_binding(cfg.scheme, prob)
    z = np.zeros(prob.dim) if z0 is None else as_blocks(z0, 1)[0]
    if z.shape != (prob.dim,):
        raise StructuralError(f"z0 must have dim {prob.dim}, got {z.shape[0]}")
    return _iterate(_DavisYinStep(prob, z), cfg, prob.beta)
