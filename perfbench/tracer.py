"""In-memory span tracer that wraps relsplit's public functions from outside.

A target is ``"module.attr"`` (a module-level function) or
``"module.Class.method"`` (a method defined on that class). Installing a
function target replaces it in every loaded ``relsplit`` module that holds
the same object, so names imported with ``from .driver import run`` are
traced too. ``uninstall`` puts every original back.

Each call becomes one span: name id, parent span id (-1 at the top),
start and end from ``time.perf_counter``. Spans live in flat arrays while
the run executes and are written out once at the end.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array

PACKAGE = "relsplit"

# Functions whose time makes up the set-up and reference phases, plus the two
# loops, whose returned Trace is captured for the evaluation-count checks.
SETUP = ("config.build_problem", "config.build_scheme", "config.build_z0", "config.build_run")
REFERENCE = "problems.reference_solution"
LOOPS = ("driver.run", "driver.run_davis_yin")
PHASE_TARGETS = SETUP + (REFERENCE,) + LOOPS

# Everything the traced run wraps: the layers driver and cli call through.
LAYER_TARGETS = PHASE_TARGETS + (
    "cli.cmd_bench", "cli.cmd_run",
    "problems.gen_lasso", "problems.gen_elastic_net", "problems.split_lasso",
    "problems.split_elastic", "problems.objective",
    "operators.lambda_max",
    "operators.L1Subdiff.resolve", "operators.BoxNormalCone.resolve",
    "operators.NonnegNormalCone.resolve", "operators.ZeroOp.resolve",
    "operators.LeastSquaresGrad.apply", "operators.ScaledIdentity.apply",
    "operators.ZeroForward.apply",
    "engine.sweep", "engine.first_block", "engine.residuals",
    "relocator.relocate", "relocator.e_map",
    "schedule.ConstantStepsize.next_gamma", "schedule.SafeguardStepsize.next_gamma",
    "driver.Trace.to_csv",
    "graph.graph_from_config", "graph.scheme_from_graph", "scheme.kappa_form_scheme",
    "linalg.spectral_norm",
)


class Tracer:
    """Wraps the targets on ``install`` and records one span per call."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.names = list(self.targets)
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.loops = []          # (span id, loop name, kind, n, Trace) per loop call
        self.recycled = 0        # engine.sweep calls given a recycled x1
        self._stack = []
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def install(self):
        for name_id, target in enumerate(self.targets):
            module_name, *owner, attr = target.split(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if owner:
                cls = getattr(module, owner[0])
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(original, name_id, target))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name_id, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != PACKAGE or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name_id, target):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            return result

        if target == "engine.sweep":
            def sweep_wrapper(*args, **kwargs):
                if kwargs.get("x1", args[4] if len(args) > 4 else None) is not None:
                    self.recycled += 1
                return wrapper(*args, **kwargs)
            return sweep_wrapper
        if target in LOOPS:
            def loop_wrapper(*args, **kwargs):
                sid = len(start)
                trace = wrapper(*args, **kwargs)
                if target == "driver.run":
                    cfg = args[0]
                    kind, n = cfg.relocator, cfg.scheme.n
                else:
                    kind, n = "run_davis_yin", 2
                self.loops.append((sid, target, kind, n, trace))
                return trace
            return loop_wrapper
        return wrapper

    # -- analysis ---------------------------------------------------------

    def self_times(self, child_cost=0.0):
        """Per span: its duration minus its direct children's spans.

        Each child also costs its parent ``child_cost`` seconds of wrapper
        work outside the child's span (see ``wrapper_cost``); that is taken
        off too, so self time is the program's, not the tracer's.
        """
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[sid] - self.start[sid] + child_cost
        return own

    def under(self, *names):
        """Per span: True when the span or one of its ancestors is one of ``names``."""
        ids = {self.names.index(n) for n in names if n in self.names}
        flags = []
        for sid, par in enumerate(self.parent):
            flags.append(self.name_of[sid] in ids or (par >= 0 and flags[par]))
        return flags

    def phases(self):
        """(setup_s, reference_s): outermost set-up calls less the reference they ran."""
        in_setup, in_ref = self.under(*SETUP), self.under(REFERENCE)
        setup = reference = 0.0
        for sid, par in enumerate(self.parent):
            duration = self.end[sid] - self.start[sid]
            if in_setup[sid] and not (par >= 0 and in_setup[par]):
                setup += duration
            if in_ref[sid] and not (par >= 0 and in_ref[par]):
                reference += duration
                if par >= 0 and in_setup[par]:
                    setup -= duration
        return setup, reference

    def write(self, path, run_id):
        """Write every span as CSV: run id, span id, parent, name, start, end (s)."""
        with open(path, "w") as fh:
            fh.write("run,id,parent,name,start,end\n")
            for sid in range(len(self.start)):
                fh.write("%s,%d,%d,%s,%.9f,%.9f\n" % (run_id, sid, self.parent[sid],
                                                  self.names[self.name_of[sid]],
                                                  self.start[sid], self.end[sid]))


def wrapper_cost():
    """Seconds a wrapped call adds to its caller outside its own span.

    Calls a no-op 20000 times plainly and 20000 times through a wrapper; the
    wrapped loop's time less its spans and less the plain loop's time is the
    tracer's share. Median of five trials; at least 0.
    """
    def noop():
        return None

    calls = 20000
    costs = []
    for _ in range(5):
        tr = Tracer(())
        wrapped = tr._wrap(noop, 0, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        spans = sum(e - s for s, e in zip(tr.start, tr.end))
        costs.append((t2 - t1 - spans - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))
