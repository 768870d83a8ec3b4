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

Both loops take one RunConfig and share one skeleton (``_iterate``); only
their resolvent formulas differ. The per-run control (``_RunControl``) builds
the stepsize schedule and the trace recorder from the config once per run and
holds the margin check, the stop test, the recording rule and the stepsize
range check. ``run`` builds its step plan once, before the first iteration:
the operator bindings and shapes are checked, the sweep and fix_res are
generated as straight-line code (``engine.SweepPlan``), and the relocator's
matrix K (``relocator.relocation_map``, so that z_{k+1} = r w_k + (1 - r) K x
with r = gamma_{k+1}/gamma_k) and the consensus pairs are precomputed, so the
loop itself only does arithmetic.

``run_grid`` runs a bench grid's methods on one graph (one scheme, problem
and z0, a cheap relocator, different schedules) as lanes of one (L, m, d)
stack, through the lane layout of the same generated step. Each lane keeps
its own ``_RunControl``, so its schedule, stop test, trace and evaluation
count are those of its own ``run``, and its trace is bitwise that run's. Each
resolvent is still called once per lane per evaluation; the other numpy calls
of an iteration serve all lanes. A lane leaves the stack when its run stops;
below ``MIN_LANES`` lanes, each continues in ``_iterate`` from its exact state.

An iteration computes only what the run reads, so a constant-stepsize run
costs what the non-relocated method costs: fix_res every iteration, the
consensus only on a recorded row, ||x_{k+1}|| and ||x_{k+1} - w_k|| only for
a schedule that reads them (the norm-ratio rule), and at r = 1 relocation is
the identity, z_{k+1} = w_k.

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


class _RunControl:
    """Per-run control of one RunConfig: schedule, relaxation, stop tests and recorder.

    Both loops drive a run through it: ``_iterate`` one run, ``run_grid``'s
    stacked loop one per lane. Building it builds the schedule
    (``ScheduleSpec.build`` checks 0 < gamma_0 < 2/mu, a ParameterError
    otherwise). ``k`` and ``gamma`` are the index and stepsize of the run's
    next iteration, so a run that leaves the stack resumes in ``_iterate``.
    Each check that ends the run sets the trace's converged flag or abort
    text. A loop records row k when the run stops there, when k is a multiple
    of ``record_every`` and at k = ``last``.
    """

    def __init__(self, cfg, mu_value):
        self.sched = cfg.schedule.build(mu_value, cfg.problem.beta)
        self.reads_norms = self.sched.reads_norms
        self.rec = _Recorder(cfg.objective, cfg.reference)
        self.trace = self.rec.trace
        self.relax, self.mu, self.floor = cfg.relaxation, mu_value, cfg.relaxation.margin_floor
        self.max_iters, self.last = cfg.max_iters, cfg.max_iters - 1
        self.tol, self.record_every = cfg.fix_res_tol, cfg.record_every
        self.sup = schememod.stepsize_sup(mu_value)
        self.k, self.gamma = 0, self.sched.gamma

    def relaxation(self, k, gamma):
        """lambda_k * theta_k at gamma, or None when the margin check aborts the run."""
        lam, theta = self.relax.pair(gamma, self.mu)
        margin = schememod.feasibility_margin(gamma, lam, theta, self.mu)
        if lam <= 0 or margin < self.floor - 1e-12:
            self.trace.aborted = _infeasible(k, gamma, lam, margin, self.floor)
            return None
        self.lam, self.theta = lam, theta
        return lam * theta

    def stops(self, k, fix_res):
        """True when fix_res ends the run: at the tolerance, or non-finite (an abort)."""
        self.trace.iterations = k + 1
        if fix_res <= self.tol:
            self.trace.converged = True
            return True
        if not fix_res < _INF:
            self.trace.aborted = f"non-finite fix_res = {fix_res} at k={k}"
            return True
        return False

    def record(self, k, gamma, fix_res, consensus, x, evals):
        self.rec.row(k, gamma, self.theta, self.lam, fix_res, consensus, x, evals)

    def next_gamma(self, k, norms):
        """gamma_{k+1}, or None when it leaves (0, 2/mu), which aborts the run.

        ``norms`` is (||x_1(w)||, ||x_1(w) - w||), or () for a schedule that
        does not read them.
        """
        gamma = self.sched.next_gamma(*norms)
        if not 0 < gamma < self.sup:
            self.trace.aborted = f"gamma_{k + 1} = {gamma:.6g} outside (0, {self.sup:.6g})"
            return None
        return gamma

    def finish(self, z, x, evals):
        """The trace, with the run's final state."""
        trace = self.trace
        trace.z_final, trace.x_final, trace.resolvent_evals = z, x, evals
        return trace


def _iterate(step, control):
    """Iterate one run from its control's ``k`` and ``gamma`` to the end; returns its Trace.

    ``step`` holds the resolvent formulas. It exposes ``z``, the shadow
    iterate ``x``, the cumulative resolvent count ``evals`` and five methods:
    ``residuals(gamma)``, which evaluates the resolvents at (gamma, z) and
    returns fix_res; ``consensus()``, called only for a recorded row;
    ``advance(gamma, lam*theta)``, which forms w and x_1(w); ``norms()``,
    which returns (||x_1(w)||, ||x_1(w) - w||) and is called only when the
    schedule ``reads_norms``; and ``relocate(gamma_next/gamma)``, which sets
    z to the relocated w (to w itself at ratio 1).
    """
    relaxation, stops, record = control.relaxation, control.stops, control.record
    next_gamma, reads_norms = control.next_gamma, control.reads_norms
    record_every, last = control.record_every, control.last
    gamma = control.gamma
    for k in range(control.k, control.max_iters):
        lam_theta = relaxation(k, gamma)
        if lam_theta is None:
            break
        fix_res = step.residuals(gamma)
        stop = stops(k, fix_res)
        if stop or k % record_every == 0 or k == last:
            record(k, gamma, fix_res, step.consensus(), step.x, step.evals)
        if stop:
            break
        step.advance(gamma, lam_theta)
        gamma_next = next_gamma(k, step.norms() if reads_norms else ())
        if gamma_next is None:
            break
        step.relocate(gamma_next / gamma)
        gamma = gamma_next
    return control.finish(step.z, step.x, step.evals)


class _EngineStep:
    """Resolvent formulas of the coefficient-scheme engine (the step plan of ``run``).

    At w the cheap relocators need only x_1 (recycled as the next sweep's
    x_1), which their K, a column of ones on every supported tree, just
    broadcasts; the general relocator needs a full second sweep, which its
    m x n K multiplies. ``x1``, ``x`` and ``evals`` resume a run that left
    ``run_grid``'s stack.
    """

    def __init__(self, plan, general, K, z, x1=None, x=None, evals=0):
        self.n, self.general, self.z = plan.n, general, z
        self.K = K if general else None
        self.x, self.x1, self.evals = x, x1, evals
        self._residuals, self._sweep, self._first_block = (plan.residuals, plan.sweep,
                                                           plan.first_block)
        self._consensus = plan.consensus

    def residuals(self, gamma):
        x1 = self.x1
        xs, self.mstar_x, fix_res = self._residuals(gamma, self.z, x1)
        self.xs, self.x = xs, xs[0]
        self.evals += self.n if x1 is None else self.n - 1
        return fix_res

    def consensus(self):
        return self._consensus(self.xs, self.mstar_x)

    def advance(self, gamma, lam_theta):
        w = self.w = self.z - lam_theta * self.mstar_x
        if self.general:
            self.at_w = self._sweep(gamma, w)
            self.evals += self.n
        else:
            self.at_w = self._first_block(gamma, w)
            self.evals += 1

    def norms(self):
        x1w = self.at_w[0] if self.general else self.at_w
        return norm(x1w), norm(x1w - self.w)

    def relocate(self, ratio):
        if ratio == 1.0:
            self.z = self.w
        else:
            kx = self.K @ self.at_w if self.general else self.at_w
            self.z = ratio * self.w + (1.0 - ratio) * kx
        self.x1 = None if self.general else self.at_w


def run(cfg, z0=None):
    """Relocated fixed-point iteration on a coefficient scheme; returns the Trace."""
    s, prob, kind = cfg.scheme, cfg.problem, cfg.relocator
    plan = engine.SweepPlan(s, prob)
    # a copy: the sweep may hand the caller's blocks, as views, to a resolvent
    z = plan.blocks(z0).copy() if z0 is not None else default_z0(s, prob)
    K = relocator.relocation_map(kind, s)
    control = _RunControl(cfg, schememod.mu(s, prob.beta))
    return _iterate(_EngineStep(plan, kind == relocator.GENERAL, K, z), control)


MIN_LANES = 3   # below this, per-lane Python work costs more than the shared numpy calls save


class _Lanes:
    """The runs of ``run_grid`` still in the stack, in lane order, and their stacked state.

    ``z`` is the (L, m, d) stack, ``x1`` the recycled x_1 and ``xs`` the last
    sweep's outputs (each (L, d), None before the first sweep); ``gamma``
    holds the lanes' stepsizes as Python floats. Every lane has made the same
    number of iterations, so one resolvent count serves them all.
    """

    def __init__(self, runs, z):
        self.runs, self.gamma = runs, [control.gamma for control in runs]
        self.z = np.repeat(z[None], len(runs), axis=0)
        self.x1 = self.xs = None
        self.evals = 0

    def leave(self, flags):
        """Finish the runs flagged, at the stack's state, and drop their lanes.

        Returns the indices of the lanes kept, for the caller's own stacked values.
        """
        keep = []
        for i, (control, flag) in enumerate(zip(self.runs, flags)):
            if flag:
                control.finish(np.array(self.z[i]),
                               None if self.xs is None else np.array(self.xs[0][i]), self.evals)
            else:
                keep.append(i)
        self.runs = [self.runs[i] for i in keep]
        self.gamma = [self.gamma[i] for i in keep]
        self.z = self.z[keep]
        if self.x1 is not None:
            self.x1 = self.x1[keep]
        if self.xs is not None:
            self.xs = [x[keep] for x in self.xs]
        return keep


def _iterate_lanes(plan, lanes):
    """Iterate the lanes in lockstep while at least MIN_LANES remain; returns the next k.

    The per-lane steps are those of ``_iterate`` with ``_EngineStep`` under a
    cheap relocator, in the same float operations, so each lane's iterates
    are bitwise those of its own ``run``. A lane leaves the stack when its
    run stops (at the margin check, the stop test, the stepsize range or
    max_iters), before any further resolvent call for it.
    """
    n = plan.n
    k = 0
    while len(lanes.runs) >= MIN_LANES:
        lam_theta = [control.relaxation(k, g) for control, g in zip(lanes.runs, lanes.gamma)]
        if None in lam_theta:
            lam_theta = [lam_theta[i] for i in lanes.leave([v is None for v in lam_theta])]
            if not lam_theta:
                break
        x1 = lanes.x1
        xs, mstar_x, fix_res = plan.residuals(lanes.gamma, lanes.z, x1)
        lanes.xs = xs
        lanes.evals += n if x1 is None else n - 1
        stops = []
        for i, (control, g, r) in enumerate(zip(lanes.runs, lanes.gamma, fix_res)):
            stop = control.stops(k, r)
            if stop or k % control.record_every == 0 or k == control.last:
                control.record(k, g, r, plan.consensus([x[i] for x in xs], mstar_x[i]),
                               xs[0][i], lanes.evals)
            stops.append(stop)
        if any(stops):
            keep = lanes.leave(stops)
            if not keep:
                break
            mstar_x, lam_theta = mstar_x[keep], [lam_theta[i] for i in keep]
        w = lanes.z - np.array(lam_theta)[:, None, None] * mstar_x
        x1w = plan.first_block(lanes.gamma, w)
        lanes.evals += 1
        gamma_next = [control.next_gamma(k, (norm(x1w[i]), norm(x1w[i] - w[i]))
                                         if control.reads_norms else ())
                      for i, control in enumerate(lanes.runs)]
        if None in gamma_next:
            keep = lanes.leave([g is None for g in gamma_next])
            if not keep:
                break
            w, x1w, gamma_next = w[keep], x1w[keep], [gamma_next[i] for i in keep]
        ratios = [g_next / g for g_next, g in zip(gamma_next, lanes.gamma)]
        if all(r == 1.0 for r in ratios):
            lanes.z = w
        else:
            col = np.array(ratios)[:, None, None]
            lanes.z = col * w + (1.0 - col) * x1w[:, None, :]
            for i, r in enumerate(ratios):
                if r == 1.0:   # as _EngineStep.relocate: z = w, not the formula's w + 0 * x_1
                    lanes.z[i] = w[i]
        lanes.x1, lanes.gamma = x1w, gamma_next
        k += 1
        ended = [k == control.max_iters for control in lanes.runs]
        if any(ended):
            lanes.leave(ended)
    return k


def run_grid(cfgs, z0=None):
    """One Trace per RunConfig, each equal to ``run(cfg, z0)``'s, from one stack of lanes.

    The configs share one scheme, one problem and one cheap relocator kind,
    as a bench grid's methods on one graph do, and differ in their
    schedules (their relaxation, limits, objective and reference may differ
    too). A schedule that ``ScheduleSpec.build`` refuses gets
    ``Trace(aborted=<the error>)`` and joins no stack. The others iterate as
    lanes of one (L, m, d) stack through the lane layout of the step plan:
    each iteration's numpy calls serve every lane, while every resolvent is
    still called once per lane per evaluation. Each lane keeps its own
    schedule, stop test, trace and evaluation count, and leaves the stack when
    its run stops. When fewer than MIN_LANES lanes remain, each continues in
    ``_iterate`` from its exact state.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    s, prob, kind = cfgs[0].scheme, cfgs[0].problem, cfgs[0].relocator
    if kind not in relocator.CHEAP_KINDS or any(
            cfg.scheme is not s or cfg.problem is not prob or cfg.relocator != kind
            for cfg in cfgs):
        raise StructuralError("run_grid needs runs of one scheme and one problem "
                              "under one cheap relocator kind")
    plan = engine.SweepPlan(s, prob)
    z = plan.blocks(z0) if z0 is not None else default_z0(s, prob)
    mu_value = schememod.mu(s, prob.beta)
    traces, runs = [], []
    for cfg in cfgs:
        try:
            control = _RunControl(cfg, mu_value)
        except ParameterError as exc:
            traces.append(Trace(aborted=str(exc)))
            continue
        traces.append(control.trace)
        runs.append(control)
    lanes, k = _Lanes(runs, z), 0
    if len(runs) >= MIN_LANES:
        k = _iterate_lanes(engine.SweepPlan(s, prob, lanes=True), lanes)
    for i, control in enumerate(lanes.runs):
        control.k, control.gamma = k, lanes.gamma[i]
        x1 = None if lanes.x1 is None else np.array(lanes.x1[i])
        x = None if lanes.xs is None else np.array(lanes.xs[0][i])
        _iterate(_EngineStep(plan, False, None, np.array(lanes.z[i]), x1, x, lanes.evals), control)
    return traces


class _DavisYinStep:
    """Resolvent formulas of the three-operator scheme, written out directly."""

    def __init__(self, prob, z, gamma):
        (a1, a2), (b,) = prob.resolvents, prob.forwards
        self.resolve1, self.resolve2, self.apply = a1.resolve, a2.resolve, b.apply
        self.z = z
        self.x = None
        self.x_next = self.resolve1(gamma, z)
        self.evals = 1

    def residuals(self, gamma):
        # x becomes x_k only here, so a run that stops after relocating still
        # reports its last row's x as x_final, as the engine step does
        x = self.x = self.x_next
        y = self.y = self.resolve2(gamma, 2.0 * x - self.z - gamma * self.apply(x))
        self.evals += 1
        self.fix_res = norm(x - y)
        return self.fix_res

    def consensus(self):
        return self.fix_res

    def advance(self, gamma, lam_theta):
        self.w = self.z + lam_theta * (self.y - self.x)
        self.x_next = self.resolve1(gamma, self.w)
        self.evals += 1

    def norms(self):
        return norm(self.x_next), norm(self.x_next - self.w)

    def relocate(self, ratio):
        self.z = self.w if ratio == 1.0 else ratio * self.w + (1.0 - ratio) * self.x_next


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
    control = _RunControl(cfg, prob.beta)
    return _iterate(_DavisYinStep(prob, z, control.gamma), control)
