"""Relocated fixed-point iteration: one loop, two sets of step formulas.

The loop iterates, per stepsize sequence (gamma_k):

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

One loop, ``_iterate``, runs every iteration of the library. It pairs a
step, which holds the resolvent formulas, with a control, which decides:
``_RunControl`` builds one run's stepsize schedule and trace from its
RunConfig and holds the margin check, the stop test, the recording rule and
the stepsize range check. ``run`` drives the engine's step
(``_EngineStep``) and ``run_davis_yin`` the three-operator formulas
(``_DavisYinStep``), each with one ``_RunControl``. What the engine's runs
of one scheme, problem, relocator kind and z0 share is built once, before
the first iteration (``_shared``): the step plan (``engine.SweepPlan``,
which checks the operator bindings and shapes and generates the sweep and
its residuals as straight-line code, with the consensus pairs), a copy of
the start point, the relocator's matrix K (``relocator.relocation_map``, so
that z_{k+1} = r w_k + (1 - r) K x with r = gamma_{k+1}/gamma_k) and mu. So
the loop itself only does arithmetic.

``run_grid`` runs a bench grid's methods on one graph (one scheme, problem,
relocator kind and z0, different schedules) from one such build. A group of
``MIN_LANES`` or more, under any relocator kind, runs as lanes of one
(L, m, d) stack: the same ``_EngineStep`` runs on the lane layout of the
same generated step plan, and ``_Lanes``, the stack's control, applies each
lane's own ``_RunControl``. So each lane's schedule, stop test, trace and
evaluation count are those of its own ``run``, and its trace is bitwise
that run's. Each resolvent is still called once per lane per evaluation;
the other numpy calls of an iteration serve all lanes. A lane leaves the
stack when its run ends; when fewer than ``MIN_LANES`` lanes start an
iteration, each continues in ``_iterate`` on a block-plan ``_EngineStep``
from its exact state. A smaller group runs its methods one after another
on the block plan.

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
    """Per-run control of one RunConfig: schedule, relaxation, stop tests and trace rows.

    Building it builds the schedule (``ScheduleSpec.build`` checks
    0 < gamma_0 < 2/mu, a ParameterError otherwise). ``k`` and ``gamma`` are
    the index and stepsize of the run's next iteration, so a run resumes in
    ``_iterate`` where it stands. Each method that ends the run sets the
    trace's converged flag or abort text. A step method that serves several
    runs takes the run's ``lane`` index, which the methods pass on.
    """

    def __init__(self, cfg, mu_value):
        self.sched = cfg.schedule.build(mu_value, cfg.problem.beta)
        self.reads_norms = self.sched.reads_norms
        self.trace, self.objective = Trace(), cfg.objective
        self.reference = cfg.reference is not None
        if self.reference:
            self.x_star = np.asarray(cfg.reference[0], dtype=float)
            self.x_den = max(norm(self.x_star), 1e-30)
            self.phi_star = float(cfg.reference[1])
            self.f_den = max(abs(self.phi_star), 1e-30)
        self.relax, self.mu, self.floor = cfg.relaxation, mu_value, cfg.relaxation.margin_floor
        self.max_iters, self.last = cfg.max_iters, cfg.max_iters - 1
        self.tol, self.record_every = cfg.fix_res_tol, cfg.record_every
        self.sup = schememod.stepsize_sup(mu_value)
        self.k, self.gamma = 0, self.sched.gamma

    def start(self, k):
        """True when iteration k runs: k < max_iters and the margin check passes.

        Sets ``lam_theta`` = lambda_k * theta_k at ``gamma``.
        """
        self.k, gamma = k, self.gamma
        if k == self.max_iters:
            return False
        lam, theta = self.relax.pair(gamma, self.mu)
        margin = schememod.feasibility_margin(gamma, lam, theta, self.mu)
        if lam <= 0 or margin < self.floor - 1e-12:
            self.trace.aborted = _infeasible(k, gamma, lam, margin, self.floor)
            return False
        self.lam, self.theta, self.lam_theta = lam, theta, lam * theta
        return True

    def check(self, k, fix_res, step, *lane):
        """True when fix_res ends the run: at the tolerance, or non-finite (an abort).

        Records row k, from ``step.row(*lane)``, when the run stops there, when
        k is a multiple of ``record_every`` and at k = ``last``. With a reference
        (x*, phi*), the row's relative errors are
        rel_err_x = ||x - x*|| / max(||x*||, 1e-30) and
        rel_err_f = |phi - phi*| / max(|phi*|, 1e-30).
        """
        trace = self.trace
        trace.iterations = k + 1
        stop = True
        if fix_res <= self.tol:
            trace.converged = True
        elif not fix_res < _INF:
            trace.aborted = f"non-finite fix_res = {fix_res} at k={k}"
        else:
            stop = False
        if stop or k % self.record_every == 0 or k == self.last:
            consensus, xbar, evals = step.row(*lane)
            trace.k.append(k)
            trace.gamma.append(self.gamma)
            trace.theta.append(self.theta)
            trace.lam.append(self.lam)
            trace.fix_res.append(fix_res)
            trace.consensus.append(consensus)
            phi = float(self.objective(xbar)) if self.objective is not None else _NAN
            trace.objective.append(phi)
            if self.reference:
                trace.rel_err_x.append(norm(xbar - self.x_star) / self.x_den)
                trace.rel_err_f.append(abs(phi - self.phi_star) / self.f_den)
            else:
                trace.rel_err_x.append(_NAN)
                trace.rel_err_f.append(_NAN)
            trace.sweeps.append(evals)
        return stop

    def next_gamma(self, k, step, *lane):
        """gamma_{k+1}/gamma_k, or None when gamma_{k+1} leaves (0, 2/mu), which aborts the run.

        A schedule that ``reads_norms`` gets ``step.norms(*lane)``:
        (||x_1(w)||, ||x_1(w) - w||).
        """
        gamma = self.sched.next_gamma(*(step.norms(*lane) if self.reads_norms else ()))
        if not 0 < gamma < self.sup:
            self.trace.aborted = f"gamma_{k + 1} = {gamma:.6g} outside (0, {self.sup:.6g})"
            return None
        ratio, self.gamma = gamma / self.gamma, gamma
        return ratio

    def finish(self, step, *lane):
        """The trace, with the run's final state ``step.state(*lane)``: (z, x, evals)."""
        trace = self.trace
        trace.z_final, trace.x_final, trace.resolvent_evals = step.state(*lane)
        return trace


def _iterate(step, control):
    """Iterate from ``control.k`` until the control ends the run; returns ``control.finish(step)``.

    The control (``_RunControl`` for one run) decides: ``start(k)`` ends the
    run or sets ``lam_theta`` at its stepsize ``gamma``; ``check(k, fix_res,
    step)`` is the stop test and records a row; ``next_gamma(k, step)``
    returns gamma_{k+1}/gamma_k, or None to end the run. The step holds the
    resolvent formulas: ``residuals(gamma)`` evaluates the resolvents at
    (gamma, z) and returns fix_res; ``advance(gamma, lam_theta)`` forms w and
    x_1(w); ``relocate(ratio)`` sets z to the relocated w (to w itself at
    ratio 1). The control reads the step's ``row()`` (consensus, x, evals)
    only on a recorded row, ``norms()`` only for a schedule that reads them,
    and ``state()`` (z, x, evals) at the end. On a stack of runs the step is
    an ``_EngineStep`` on a lane plan, whose gamma, lam_theta and ratio are
    the lanes' columns, and the control is ``_Lanes``, which passes each
    lane's index to those reads.
    """
    start, check, next_gamma = control.start, control.check, control.next_gamma
    residuals, advance, relocate = step.residuals, step.advance, step.relocate
    k = control.k
    while start(k):
        if check(k, residuals(control.gamma), step):
            break
        advance(control.gamma, control.lam_theta)
        ratio = next_gamma(k, step)
        if ratio is None:
            break
        relocate(ratio)
        k += 1
    return control.finish(step)


def _lanes_of(v, index):
    """``v[index]`` of an (L, ...) stack array, or of each array of a list of them, or None."""
    if v is None:
        return None
    return [a[index] for a in v] if isinstance(v, list) else v[index]


class _EngineStep:
    """Resolvent formulas of the coefficient-scheme engine, for one run or a stack of runs.

    On a block plan the state is one run's (m, d) block vector z; on a lane
    plan it is the (L, m, d) stack of a ``run_grid`` group, whose lanes make
    the float operations of their own runs, so each lane's iterates are
    bitwise its run's, and one resolvent count serves every lane. The
    methods that read one run's values take ``*lane``: a lane index on a
    stack, nothing for one run (``a[()]`` is all of ``a``). ``K`` is the
    general relocator's m x n matrix, which multiplies a full second sweep at
    w, or None for a cheap kind: there only x_1(w) is evaluated, recycled as
    the next sweep's x_1, and the cheap K, a column of ones on every
    supported tree, just broadcasts it. ``x1``, ``xs`` and ``evals`` resume a
    lane handed off from a stack.
    """

    def __init__(self, plan, K, z, x1=None, xs=None, evals=0):
        self.n, self.K, self.z = plan.n, K, z
        self.x1, self.xs, self.evals = x1, xs, evals
        self.mstar_x = self.w = self.at_w = None
        self._residuals, self._consensus = plan.residuals, plan.consensus
        # what advance evaluates at w, and its resolvent count
        self._at_w, self._at_w_evals = (plan.first_block, 1) if K is None else (plan.sweep, plan.n)

    def residuals(self, gamma):
        x1 = self.x1
        self.xs, self.mstar_x, fix_res = self._residuals(gamma, self.z, x1)
        self.evals += self.n if x1 is None else self.n - 1
        return fix_res

    def consensus(self, *lane):
        return self._consensus([x[lane] for x in self.xs], self.mstar_x[lane])

    def row(self, *lane):
        return self.consensus(*lane), self.xs[0][lane], self.evals

    def advance(self, gamma, lam_theta):
        w = self.w = self.z - lam_theta * self.mstar_x
        self.at_w = self._at_w(gamma, w)
        self.evals += self._at_w_evals

    def norms(self, *lane):
        x1w = (self.at_w if self.K is None else self.at_w[0])[lane]
        return norm(x1w), norm(x1w - self.w[lane])

    def relocate(self, ratio):
        """Set z to ratio * w + (1 - ratio) K x(w), or to w itself at ratio 1.

        ``ratio`` is a float, or a stack's (L, 1, 1) column of ratios; a lane
        at ratio 1 gets w's bits, not the formula's w + 0 * K x.
        """
        w, column = self.w, isinstance(ratio, np.ndarray)
        if not column and ratio == 1.0:
            self.z = w
        else:
            at_w = self.at_w
            # K times each run's (n, d) outputs: np.array(at_w) is (n, d), or (n, L, d) on a stack
            kx = at_w[..., None, :] if self.K is None else self.K @ np.array(at_w).swapaxes(0, -2)
            self.z = ratio * w + (1.0 - ratio) * kx
            if column:
                np.copyto(self.z, w, where=ratio == 1.0)
        self.x1 = self.at_w if self.K is None else None

    def keep(self, lanes):
        """Keep the stack's lanes at the indices ``lanes`` and drop the state of the others."""
        self.z, self.x1, self.xs, self.mstar_x, self.w, self.at_w = (
            _lanes_of(v, lanes) for v in (self.z, self.x1, self.xs, self.mstar_x, self.w,
                                          self.at_w))

    def state(self, *lane):
        x = None if self.xs is None else np.array(self.xs[0][lane])
        return np.array(self.z[lane]), x, self.evals


def _shared(cfg, z0):
    """What every run of cfg's scheme, problem, relocator kind and z0 shares: (plan, z, K, mu).

    ``plan`` is the block ``engine.SweepPlan``, ``z`` a copy of the start
    point (the sweep may hand its blocks, as views, to a resolvent), ``K`` the
    general relocator's matrix or None for a cheap kind, which
    ``_EngineStep`` broadcasts, and ``mu`` the scheme's ``scheme.mu``.
    """
    s, prob = cfg.scheme, cfg.problem
    plan = engine.SweepPlan(s, prob)
    z = plan.blocks(z0).copy() if z0 is not None else default_z0(s, prob)
    K = relocator.relocation_map(cfg.relocator, s)   # checks a cheap kind's column of ones
    return plan, z, K if cfg.relocator == relocator.GENERAL else None, schememod.mu(s, prob.beta)


def run(cfg, z0=None):
    """Relocated fixed-point iteration on a coefficient scheme; returns the Trace."""
    plan, z, K, mu_value = _shared(cfg, z0)
    return _iterate(_EngineStep(plan, K, z), _RunControl(cfg, mu_value))


MIN_LANES = 3   # below this, per-lane Python work costs more than the shared numpy calls save


class _Lanes:
    """The control of a stack of runs, which one ``_iterate`` call drives on a lane-plan step.

    It applies each lane's own ``_RunControl`` methods, with the stack's
    ``_EngineStep`` and the lane's index, so each lane's schedule, stop test,
    trace and evaluation count are those of its own ``run``. ``gamma`` lists
    the lanes' stepsizes and ``lam_theta`` is their (L, 1, 1) column of
    lambda_k * theta_k. A lane whose run ends is finished at the step's state
    and dropped (``_EngineStep.keep``), before any further resolvent call for
    it. When fewer than MIN_LANES lanes start an iteration, ``finish`` hands
    each to ``_iterate`` on a step of the group's block plan, from its exact
    state.
    """

    k = 0

    def __init__(self, lanes, step, block_plan):
        self.lanes, self.step, self.block_plan = lanes, step, block_plan

    @property
    def gamma(self):
        return [lane.gamma for lane in self.lanes]

    @property
    def lam_theta(self):
        return np.array([lane.lam_theta for lane in self.lanes])[:, None, None]

    def _keep(self, going):
        """Finish the lanes whose run ended (``going`` false) and drop them from the stack."""
        if all(going):
            return
        for i, (lane, on) in enumerate(zip(self.lanes, going)):
            if not on:
                lane.finish(self.step, i)
        keep = [i for i, on in enumerate(going) if on]
        self.lanes = [self.lanes[i] for i in keep]
        self.step.keep(keep)

    def start(self, k):
        self._keep([lane.start(k) for lane in self.lanes])
        return len(self.lanes) >= MIN_LANES

    def check(self, k, fix_res, step):
        self._keep([not lane.check(k, r, step, i)
                    for i, (lane, r) in enumerate(zip(self.lanes, fix_res))])
        return not self.lanes

    def next_gamma(self, k, step):
        """The lanes' column of gamma_{k+1}/gamma_k, 1.0 when every ratio is 1, or None."""
        ratios = [lane.next_gamma(k, step, i) for i, lane in enumerate(self.lanes)]
        self._keep([r is not None for r in ratios])
        ratios = [r for r in ratios if r is not None]
        if not ratios:
            return None
        return 1.0 if all(r == 1.0 for r in ratios) else np.array(ratios)[:, None, None]

    def finish(self, step):
        for i, lane in enumerate(self.lanes):
            _iterate(_EngineStep(self.block_plan, step.K, step.z[i], _lanes_of(step.x1, i),
                                 _lanes_of(step.xs, i), step.evals), lane)


def run_grid(cfgs, z0=None):
    """One Trace per RunConfig, each equal to ``run(cfg, z0)``'s.

    The configs share one scheme, one problem and one relocator kind, as a
    bench grid's methods on one graph do, and differ in their schedules
    (their relaxation, limits, objective and reference may differ too). The
    block plan, start point, K and mu are built once for the group
    (``_shared``). A schedule that ``ScheduleSpec.build`` refuses gets
    ``Trace(aborted=<the error>)``. MIN_LANES or more runs iterate as the
    lanes of one stack (``_Lanes``): each iteration's numpy calls serve
    every lane, while every resolvent is still called once per lane per
    evaluation. Fewer runs iterate one after another on the block plan.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    s, prob, kind = cfgs[0].scheme, cfgs[0].problem, cfgs[0].relocator
    if any(cfg.scheme is not s or cfg.problem is not prob or cfg.relocator != kind
           for cfg in cfgs):
        raise StructuralError("run_grid needs runs of one scheme, one problem "
                              "and one relocator kind")
    plan, z, K, mu_value = _shared(cfgs[0], z0)
    traces, lanes = [], []
    for cfg in cfgs:
        try:
            lanes.append(_RunControl(cfg, mu_value))
            traces.append(lanes[-1].trace)
        except ParameterError as exc:   # the schedule, refused at build
            traces.append(Trace(aborted=str(exc)))
    if len(lanes) < MIN_LANES:
        for control in lanes:
            _iterate(_EngineStep(plan, K, z.copy()), control)
    else:
        step = _EngineStep(engine.SweepPlan(s, prob, lanes=True), K,
                           np.repeat(z[None], len(lanes), axis=0))
        _iterate(step, _Lanes(lanes, step, plan))
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

    def row(self):
        return self.consensus(), self.x, self.evals

    def state(self):
        return self.z, self.x, self.evals

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
