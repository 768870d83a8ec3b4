"""Relocated fixed-point iteration: one loop, two sets of step formulas.

The loop iterates, per stepsize sequence (gamma_k):

    x_k     = sweep(gamma_k, z_k)                       (resolvent outputs)
    w_k     = z_k - lambda_k * M* x_k
    z_{k+1} = Q_{gamma_{k+1} <- gamma_k}(w_k)

For the cheap relocator kinds, relocation needs only x_1 at (gamma_k, w_k),
and the recycling identity x_1(gamma_{k+1}, z_{k+1}) = x_1(gamma_k, w_k)
lets the next sweep start from block 2; the loop then costs n resolvent
evaluations per iteration (n*(K+1) + 1 in total through iteration K), the
same as the non-relocated method. The + 1 is x_1(z0), which either loop's
step forms when it is made, at the run's first stepsize
(``engine.SweepPlan.start``, ``_DavisYinStep``), so every sweep of the loop
starts from a recycled x_1 and a run the margin ends at k = 0 counts 1. The
general relocator needs a full second sweep at w_k (2n per iteration).

``run_davis_yin`` is the three-operator scheme written out directly, for a
RunConfig of the two-node chain under the davis-yin relocator:

    y_k     = J_{gamma_k A_2}(2 x_k - z_k - gamma_k B x_k)
    w_k     = z_k + lambda_k (y_k - x_k)
    x_{k+1} = J_{gamma_k A_1}(w_k)
    z_{k+1} = (gamma_{k+1}/gamma_k) w_k + (1 - gamma_{k+1}/gamma_k) x_{k+1}

with x_0 = J_{gamma_0 A_1}(z_0). Given the same RunConfig, it produces the
iterates of ``run``, at about the same cost per iteration.

One loop, ``_iterate``, runs every iteration of the library. It pairs a
step, which holds the resolvent formulas, with a control, which decides:
``_RunControl`` builds one run's stepsize schedule and trace from its
RunConfig and holds the margin check, the stop test, the recording rule and
the stepsize range check. ``run`` drives the engine's step and
``run_davis_yin`` the three-operator formulas (``_DavisYinStep``), each with
one ``_RunControl``. The engine's step is generated whole: the step plan
(``engine.SweepPlan``) emits, for the run's relocator kind, the sweep and
its residuals, the advance to w with x_1(w) (or the sweep at w) and the
norm pair, and the relocation z_{k+1} = r w_k + (1 - r) K x with
r = gamma_{k+1}/gamma_k, as straight-line code, and makes the step that
holds them with their state (``engine.Step``). The engine owns that state:
the driver makes a step only by ``SweepPlan.start``, hands a lane off only
by ``Step.lane``, and otherwise calls the step's methods. What the engine's
runs of one scheme, problem, relocator kind and z0 share is built once,
before the first iteration (``_shared``): the plan (which checks the
operator bindings and shapes, with the consensus pairs), a copy of the
start point, the general relocator's matrix K (``relocator.relocation_map``,
None under a cheap kind) and mu. So the loop itself only does arithmetic,
and a single run calls its control's ``check`` only when the run stops or
records a row, and its ``next_gamma`` (one schedule call) only when its
stepsize moves.

``run_grid`` runs a bench grid's methods on one graph (one scheme, problem,
relocator kind and z0, different schedules) from one such build. A group of
``MIN_LANES`` or more, under any relocator kind, runs as lanes of one
(L, m, d) stack: the same ``engine.Step`` runs on the lane layout of the
same generated step plan, and ``_Lanes``, the stack's control, applies each
lane's own ``_RunControl``. So each lane's schedule, stop test, trace and
evaluation count are those of its own ``run``, and its trace is bitwise
that run's. Each resolvent is still called once per lane per evaluation;
the other numpy calls of an iteration serve all lanes. The stack pays
per-lane Python only where lanes differ: after k = 0 only a lane whose
stepsize moves calls its control's ``start`` and ``next_gamma``, one pass
over the stack's fix_res finds the lanes that stop, and a lane's stop test
(``_RunControl.stops``) runs only when it stops or may record a row. The
lanes that record a row at k get their rows in one pass: one consensus
evaluation over the lanes (``Step.rows``), one objective call per distinct
objective on the stack of their shadow iterates and one distance to x* per
distinct reference, each lane appending its own numbers
(``_RunControl.append``, which a single run's ``check`` also calls). A lane leaves the
stack when its run ends; when fewer than ``MIN_LANES`` lanes start an
iteration, each continues in ``_iterate`` on a block-plan step
(``Step.lane``) from its exact state. A smaller group runs its methods one
after another on the block plan.

An iteration computes only what the run reads, so a constant-stepsize run
costs what the non-relocated method costs: fix_res every iteration, the
consensus only on a recorded row, ||x_{k+1}|| and ||x_{k+1} - w_k|| only for
a schedule that reads them (the norm-ratio rule), no schedule call for a
constant stepsize, and at r = 1 relocation is the identity, z_{k+1} = w_k.

Relaxation is one rule. theta_k = 1 (the trace's theta column), and lambda_k
is co-adjusted to the feasibility margin 2 - gamma_k*mu - 2*lambda_k*theta_k
>= MARGIN_FLOOR: lambda_k = (2 - gamma_k*mu - MARGIN_FLOOR) / 2. A co-adjusted
lambda_k makes lambda_k*theta_k the same for every theta > 0, so theta would
change an iterate only by rounding. Feasibility is enforced every iteration:
lambda_k must be positive (gamma_k*mu < 2 - MARGIN_FLOOR), fix_res must be
finite, and gamma_{k+1} must stay inside (0, 2/mu); violations abort the run
and return the partial trace with an abort marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine, relocator, scheme as schememod
from .errors import ParameterError, StructuralError, as_count
from .linalg import as_blocks, norm
from .schedule import ConstantStepsize, ScheduleSpec

CSV_HEADER = "k,gamma,theta,lambda,fix_res,consensus,objective,rel_err_x,rel_err_f,sweeps"
COLUMNS = ("k", "gamma", "theta", "lam", "fix_res", "consensus", "objective", "rel_err_x",
           "rel_err_f", "sweeps")   # the Trace fields of the CSV_HEADER columns
_NAN = float("nan")
_INF = float("inf")
MARGIN_FLOOR = 1e-3   # epsilon of the margin 2 - gamma_k*mu - 2*lambda_k*theta_k >= epsilon
_CSV_ROW = "%d," + "%.17g," * (len(COLUMNS) - 2) + "%d\n"   # one trace row: k, the floats, sweeps


@dataclass
class RunConfig:
    """Bound inputs of one run of either loop: scheme, problem, relocator, schedules, limits.

    A scheme that is no canonical kappa-form tree (``relocator.tree_kinds``;
    those satisfy the six conditions by construction) must pass
    ``scheme.validate``; a violation is a StructuralError that names the
    failed conditions.
    """

    scheme: object
    problem: object
    relocator: str = relocator.GENERAL
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    max_iters: int = 1000
    fix_res_tol: float = 1e-10
    record_every: int = 1
    # callable x -> float, for the trace; on an (r, d) stack of iterates (run_grid's
    # lanes that record a row) it returns r values, one per row, else a StructuralError
    objective: object | None = None
    reference: tuple | None = None           # (x_star, phi_star) for relative errors

    def __post_init__(self):
        if not 0 < self.fix_res_tol < _INF:   # NaN fails both comparisons
            raise ParameterError(f"fix_res_tol must be finite and > 0, got {self.fix_res_tol!r}")
        self.max_iters = as_count("max_iters", self.max_iters)
        self.record_every = as_count("record_every", self.record_every)
        relocator.check_kind(self.relocator, self.scheme)
        failed = [] if relocator.tree_kinds(self.scheme) else schememod.validate(self.scheme)
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
            for row in zip(*(getattr(self, c) for c in COLUMNS)):
                fh.write(_CSV_ROW % row)

    def summary(self):
        last = {c: getattr(self, c)[-1] if getattr(self, c) else _NAN for c in COLUMNS[4:9]}
        return dict(iterations=self.iterations, **last, sweeps=self.resolvent_evals,
                    converged=self.converged, aborted=self.aborted)


def default_z0(s, prob, seed=None):
    """Zero initial point, or a seeded standard-normal one when seed is given."""
    if seed is None:
        return np.zeros((s.m, prob.dim))
    return np.random.default_rng(seed).standard_normal((s.m, prob.dim))


class _RunControl:
    """Per-run control of one RunConfig: schedule, relaxation, stop tests and trace rows.

    Building it builds the schedule (``ScheduleSpec.build`` checks
    0 < gamma_0 < 2/mu, a ParameterError otherwise). ``k`` and ``gamma`` are
    the index and stepsize of the run's next iteration, so a run resumes in
    ``_iterate`` where it stands; ``row`` is the next k at which ``check``
    must run whatever fix_res is, the next recorded row. Each method that
    ends the run sets the trace's converged flag or abort text. A stack of
    runs calls each lane's ``stops`` and ``append`` where a single run calls
    ``check``, and passes the lane's index to ``finish``, which reads the
    lane's state from the stack's step.
    """

    def __init__(self, cfg, mu_value):
        self.sched = cfg.schedule.build(mu_value, cfg.problem.beta)
        self.reads_norms = self.sched.reads_norms
        self.trace, self.objective = Trace(), cfg.objective
        self.appends = [getattr(self.trace, c).append for c in COLUMNS]   # of a trace row
        self.reference = cfg.reference is not None
        if self.reference:
            self.x_star = np.asarray(cfg.reference[0], dtype=float)
            self.x_den = max(norm(self.x_star), 1e-30)
            self.phi_star = float(cfg.reference[1])
            self.f_den = max(abs(self.phi_star), 1e-30)
        self.mu = mu_value
        self.max_iters, self.last = cfg.max_iters, cfg.max_iters - 1
        self.tol, self.record_every = cfg.fix_res_tol, cfg.record_every
        self.sup = schememod.stepsize_sup(mu_value)
        self.k, self.row, self.gamma = 0, 0, self.sched.gamma
        # a constant stepsize never changes gamma, lambda_k or the ratio 1 after k = 0
        self.moves = not isinstance(self.sched, ConstantStepsize)

    def start(self, k):
        """True when iteration k runs: k < max_iters and lambda_k > 0.

        Sets ``lam`` = lambda_k = (2 - gamma*mu - MARGIN_FLOOR) / 2 at ``gamma``.
        """
        self.k, gamma = k, self.gamma
        lam = (2.0 - gamma * self.mu - MARGIN_FLOOR) / 2.0
        if k < self.max_iters and not lam <= 0:
            self.lam = lam
            return True
        if k < self.max_iters:
            self.trace.aborted = (f"no positive relaxation keeps the margin at k={k} "
                                  f"(gamma={gamma:.6g}, gamma*mu too close to 2)")
        self.trace.iterations = k   # the loop checks only some iterations
        return False

    def stops(self, k, fix_res):
        """True when fix_res ends the run at k: at the tolerance, or non-finite (an abort).

        Sets the trace's iterations and its converged flag or abort text, and
        ``row``, the first k' > k at which the run records a row when it does
        not stop there.
        """
        trace = self.trace
        trace.iterations = k + 1
        every = self.record_every
        after = k - k % every + every
        self.row = self.last if k < self.last < after else after
        if fix_res <= self.tol:
            trace.converged = True
            return True
        if not fix_res < _INF:
            trace.aborted = f"non-finite fix_res = {fix_res} at k={k}"
            return True
        return False

    def check(self, k, fix_res, step):
        """True when fix_res ends the run (``stops``); records row k from ``step.row()``.

        A row is recorded when the run stops at k, when k is a multiple of
        ``record_every`` and at k = ``last``. A stack of runs tests its lanes
        with ``stops`` and forms their rows at once (``_Lanes``).
        """
        stop = self.stops(k, fix_res)
        if stop or k % self.record_every == 0 or k == self.last:
            consensus, x, evals = step.row()
            self.append(k, fix_res, consensus,
                        float(self.objective(x)) if self.objective is not None else _NAN,
                        norm(x - self.x_star) if self.reference else _NAN, evals)
        return stop

    def append(self, k, fix_res, consensus, phi, dist, evals):
        """Append row k to the trace: ``phi`` is the objective, ``dist`` ||x - x*||.

        With a reference (x*, phi*), the row's relative errors are
        rel_err_x = dist / max(||x*||, 1e-30) and
        rel_err_f = |phi - phi*| / max(|phi*|, 1e-30); without one they are NaN.
        """
        errs = ((dist / self.x_den, abs(phi - self.phi_star) / self.f_den)
                if self.reference else (_NAN, _NAN))
        for append, v in zip(self.appends, (k, self.gamma, 1.0, self.lam, fix_res,
                                            consensus, phi, *errs, evals)):
            append(v)

    def next_gamma(self, k, norms):
        """gamma_{k+1}/gamma_k, or None when gamma_{k+1} leaves (0, 2/mu), which aborts the run.

        ``norms`` is what the step's ``advance`` returned: the pair
        (||x_1(w)||, ||x_1(w) - w||) for a schedule that ``reads_norms``, () else.
        """
        gamma = self.sched.next_gamma(*norms)
        if not 0 < gamma < self.sup:
            self.trace.aborted = f"gamma_{k + 1} = {gamma:.6g} outside (0, {self.sup:.6g})"
            self.trace.iterations = k + 1
            return None
        ratio, self.gamma = gamma / self.gamma, gamma
        return ratio

    def finish(self, step, *lane):
        """The trace, with the run's final state ``step.state(*lane)``: (z, x, evals)."""
        self.trace.z_final, self.trace.x_final, self.trace.resolvent_evals = step.state(*lane)
        return self.trace


def _iterate(step, control):
    """Iterate from ``control.k`` until the control ends the run; returns ``control.finish(step)``.

    The control (``_RunControl`` for one run) decides: ``start(k)`` ends the
    run or sets ``lam``, lambda_k at its stepsize ``gamma``; ``check(k,
    fix_res, step)`` is the stop test and records a row, and runs only at
    ``row`` or when fix_res leaves (``tol``, inf); ``next_gamma(k, norms)``
    returns gamma_{k+1}/gamma_k, or None to end the run, and runs only for a
    control that ``moves`` (a constant stepsize keeps the ratio 1). The step
    holds the resolvent formulas and their state: ``residuals(gamma)``
    evaluates the resolvents at (gamma, z) and returns fix_res;
    ``advance(gamma, lam, reads)`` forms w and x_1(w), and returns the norm
    pair when the control ``reads_norms``; ``relocate(ratio)`` sets z to
    the relocated w (to w itself at ratio 1). The control reads the step's
    ``row()`` (consensus, x, evals) only on a recorded row and ``state()``
    (z, x, evals) at the end. On a stack of runs the step is an
    ``engine.Step`` on a lane plan, whose gamma, lam and ratio are the
    lanes' columns, and the control is ``_Lanes``, whose ``row`` is always
    the next k, which reads the rows of the lanes that record one at once
    (``rows(lanes)``) and passes each lane's index to ``state``.
    """
    start, check, next_gamma = control.start, control.check, control.next_gamma
    residuals, advance, relocate = step.residuals, step.advance, step.relocate
    moves, tol = control.moves, control.tol
    k = row = control.k
    while start(k):
        fix_res = residuals(control.gamma)
        if k == row or not tol < fix_res < _INF:
            if check(k, fix_res, step):
                break
            row = control.row
        norms = advance(control.gamma, control.lam, control.reads_norms)
        ratio = next_gamma(k, norms) if moves else 1.0
        if ratio is None:
            break
        relocate(ratio)
        k += 1
    return control.finish(step)


def _shared(cfg, z0):
    """What every run of cfg's scheme, problem, relocator kind and z0 shares: (plan, z, K, mu).

    ``plan`` is the block ``engine.SweepPlan``, ``z`` a copy of the start
    point (the sweep may hand its blocks, as views, to a resolvent), ``K`` the
    general relocator's matrix or None for a cheap kind, whose column of ones
    the relocation applies by broadcasting x_1(w), and ``mu`` the scheme's
    ``scheme.mu``. ``relocation_map`` checks the kind against the scheme.
    """
    s, prob = cfg.scheme, cfg.problem
    K = relocator.relocation_map(cfg.relocator, s)
    plan = engine.SweepPlan(s, prob, K)
    z = plan.blocks(z0).copy() if z0 is not None else default_z0(s, prob)
    return plan, z, K, schememod.mu(s, prob.beta)


def run(cfg, z0=None):
    """Relocated fixed-point iteration on a coefficient scheme; returns the Trace."""
    plan, z, _, mu_value = _shared(cfg, z0)
    control = _RunControl(cfg, mu_value)
    return _iterate(plan.start(z, control.gamma), control)


MIN_LANES = 3   # below this, per-lane Python work costs more than the shared numpy calls save


def _shared_by(controls):
    """(objectives, references): each distinct objective and reference x* of ``controls``.

    Each is a list of (the callable or x*, the positions in ``controls`` of
    the runs that share it), in order of first use; objects are told apart
    by identity.
    """
    objectives, references = {}, {}
    for p, control in enumerate(controls):
        if control.objective is not None:
            objectives.setdefault(id(control.objective), (control.objective, []))[1].append(p)
        if control.reference:
            references.setdefault(id(control.x_star), (control.x_star, []))[1].append(p)
    return list(objectives.values()), list(references.values())


class _Lanes:
    """The control of a stack of runs, which one ``_iterate`` call drives on a lane-plan step.

    Each lane is one run's ``_RunControl``, called with the stack's
    ``engine.Step`` and the lane's index, so each lane's schedule, stop test,
    trace and evaluation count are those of its own ``run``. Per-lane Python
    runs only where lanes differ:

    * ``gamma`` (the lanes' stepsizes), ``lam`` (their (L, 1, 1) column of
      lambda_k) and ``ratio`` (their column of gamma_{k+1}/gamma_k) are kept
      as state. Each iteration, only a lane whose stepsize moves
      (``_RunControl.moves``) calls its ``start`` and ``next_gamma`` and
      updates its entries in place, through the columns' flat views
      ``lams`` and ``ratios``. Every lane starts at k = 0 and at ``end``,
      the stack's first max_iters. The step forms the norm pairs of the
      moving lanes that read them (``reads_norms``).
    * ``check`` runs every iteration (``row`` is always the next k, so the
      loop never compares the stack's fix_res list with ``tol``). Its first
      pass over the stack's fix_res is a plain loop against ``tol``, the
      lanes' largest tolerance: while every fix_res is in (``tol``, inf), a
      test that NaN fails, no lane stops. Otherwise it lists the lanes that
      stop and calls only their ``stops``; at ``record``, the first k at
      which some lane may record a row (the least of the lanes' ``row``),
      it calls every lane's. The lanes that stop or record at k get their
      rows from ``_record`` in one pass.

    A lane whose run ends is finished at the step's state and dropped
    (``Step.keep``), before any further resolvent call for it. When fewer
    than MIN_LANES lanes start an iteration, ``finish`` hands each to
    ``_iterate`` on ``Step.lane``, a step of the group's block plan from its
    exact state.
    """

    k = row = record = end = 0   # every lane starts at k = 0 = end
    moves, tol = True, 0.0   # tol: the lanes' largest fix_res_tol, set with ``end``

    def __init__(self, lanes, step, block_plan):
        self.lanes, self.step, self.block_plan = lanes, step, block_plan
        self.gamma = [lane.gamma for lane in lanes]
        self._columns(np.zeros((len(lanes), 1, 1)), np.ones((len(lanes), 1, 1)))

    def _columns(self, lam, ratio):
        """Keep the (L, 1, 1) columns ``lam`` and ``ratio`` and their flat views.

        A lane's entry is written through the flat view (``lams[i] = v``), a
        scalar store, where ``lam[i] = v`` assigns to a (1, 1) slice.
        """
        self.lam, self.ratio = lam, ratio
        self.lams, self.ratios = lam.reshape(-1), ratio.reshape(-1)

    def _drop(self, ended):
        """Finish the lanes at the indices ``ended``, drop them from the stack and re-index it."""
        lanes = self.lanes
        for i in ended:
            lanes[i].finish(self.step, i)
        if ended:
            keep = [i for i in range(len(lanes)) if i not in ended]
            self.lanes = lanes = [lanes[i] for i in keep]
            self.step.keep(keep)
            self.gamma = [self.gamma[i] for i in keep]
            self._columns(self.lam[keep], self.ratio[keep])
        self.moving = [i for i, lane in enumerate(lanes) if lane.moves]
        self.reads_norms = [i for i in self.moving if lanes[i].reads_norms]
        self.end = min((lane.max_iters for lane in lanes), default=0)
        self.tol = max((lane.tol for lane in lanes), default=0.0)
        self.shared = _shared_by(lanes)

    def start(self, k):
        self.k = k   # where a hand-off resumes each lane
        lanes, lams, every = self.lanes, self.lams, k == self.end
        ended = []
        for i in range(len(lanes)) if every else self.moving:
            if lanes[i].start(k):
                lams[i] = lanes[i].lam
            else:
                ended.append(i)
        if ended or every:
            self._drop(ended)
        return len(self.lanes) >= MIN_LANES

    def check(self, k, fix_res, step):
        self.row = k + 1
        lanes, at_record = self.lanes, k == self.record
        if at_record:
            checked = range(len(lanes))
        else:   # the lanes whose run stops at k, as their stop test decides
            tol = self.tol
            for r in fix_res:   # none stops while every fix_res is in (largest tol, inf)
                if not tol < r < _INF:
                    break
            else:
                return False
            checked = [i for i, (r, lane) in enumerate(zip(fix_res, lanes))
                       if not lane.tol < r < _INF]
            if not checked:
                return False
        ended, rows = [], []
        for i in checked:
            lane = lanes[i]
            if lane.stops(k, fix_res[i]):
                ended.append(i)
                rows.append(i)
            elif k % lane.record_every == 0 or k == lane.last:
                rows.append(i)
        if rows:
            self._record(k, rows, fix_res, step)
        if ended:
            self._drop(ended)
        if at_record:
            self.record = min((lane.row for lane in self.lanes), default=k)
        return not self.lanes

    def _record(self, k, rows, fix_res, step):
        """Append row k to the traces of the lanes at the sorted indices ``rows``.

        The rows are formed at once: their consensus and x_1 by ``Step.rows``,
        their objective by one call of each distinct callable on the stack of
        its lanes' x_1 (``RunConfig.objective``'s stack contract: one value
        per row) and ||x - x*|| by one ``np.vecdot`` per distinct reference.
        Each lane then appends its own numbers (``_RunControl.append``), so a
        lane's row is bitwise the row its own ``run`` records.
        """
        lanes = self.lanes
        consensus, x, evals = step.rows(rows)
        objectives, references = (self.shared if len(rows) == len(lanes)
                                  else _shared_by([lanes[i] for i in rows]))
        phi, dist = [_NAN] * len(rows), [_NAN] * len(rows)
        for fn, at in objectives:
            values = np.asarray(fn(x if len(at) == len(rows) else x[at]), dtype=float)
            if values.shape != (len(at),):
                raise StructuralError(f"objective of a ({len(at)}, {x.shape[1]}) stack must "
                                      f"return one value per row, got shape {values.shape}")
            for p, v in zip(at, values.tolist()):
                phi[p] = v
        for x_star, at in references:
            diff = (x if len(at) == len(rows) else x[at]) - x_star
            for p, v in zip(at, np.sqrt(np.vecdot(diff, diff)).tolist()):
                dist[p] = v
        for p, i in enumerate(rows):
            lanes[i].append(k, fix_res[i], consensus[p], phi[p], dist[p], evals)

    def next_gamma(self, k, norms):
        """The lanes' column of gamma_{k+1}/gamma_k, or None.

        ``norms`` holds the norm pair of each lane in ``reads_norms``, by lane.
        """
        lanes, gamma, ratios = self.lanes, self.gamma, self.ratios
        ended = []
        for i in self.moving:
            lane = lanes[i]
            r = lane.next_gamma(k, norms.get(i, ()))
            if r is None:
                ended.append(i)
            else:
                gamma[i] = lane.gamma
                ratios[i] = r
        if ended:
            self._drop(ended)
            if not self.lanes:
                return None
        return self.ratio

    def finish(self, step):
        for i, lane in enumerate(self.lanes):
            lane.k = self.k
            _iterate(step.lane(i, self.block_plan), lane)


def run_grid(cfgs, z0=None):
    """One Trace per RunConfig, each equal to ``run(cfg, z0)``'s.

    The configs share one scheme, one problem and one relocator kind, as a
    bench grid's methods on one graph do, and differ in their schedules
    (their limits, objective and reference may differ too). The
    block plan, start point, K and mu are built once for the group
    (``_shared``). A schedule that ``ScheduleSpec.build`` refuses gets
    ``Trace(aborted=<the error>)``. MIN_LANES or more runs iterate as the
    lanes of one stack (``_Lanes``): each iteration's numpy calls serve
    every lane, while every resolvent is still called once per lane per
    evaluation, and per-lane Python runs only where lanes differ. Fewer
    runs iterate one after another on the block plan.
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
            _iterate(plan.start(z.copy(), control.gamma), control)
    else:
        step = engine.SweepPlan(s, prob, K, lanes=True).start(
            np.repeat(z[None], len(lanes), axis=0), [control.gamma for control in lanes])
        _iterate(step, _Lanes(lanes, step, plan))
    return traces


class _DavisYinStep:
    """Resolvent formulas of the three-operator scheme, written out directly."""

    def __init__(self, prob, z, gamma):
        (a1, a2), (b,) = prob.resolvents, prob.forwards
        self.resolve1, self.resolve2, self.apply = a1.resolve, a2.resolve, b.apply
        self.z, self.x, self.evals = z, None, 1
        self.x_next = self.resolve1(gamma, z)

    def residuals(self, gamma):
        # x becomes x_k only here, so a run that stops after relocating still
        # reports its last row's x as x_final, as the engine step does
        x = self.x = self.x_next
        y = self.y = self.resolve2(gamma, 2.0 * x - self.z - gamma * self.apply(x))
        self.evals += 1
        self.fix_res = norm(x - y)
        return self.fix_res

    def row(self):
        return self.fix_res, self.x, self.evals

    def state(self):
        # copies, as the engine step's: z may be z0 and x_1 a view of it (A_1 = 0)
        return np.array(self.z), None if self.x is None else np.array(self.x), self.evals

    def advance(self, gamma, lam, reads):
        w = self.w = self.z + lam * (self.y - self.x)
        x = self.x_next = self.resolve1(gamma, w)
        self.evals += 1
        return (norm(x), norm(x - w)) if reads else ()

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
