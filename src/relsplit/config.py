"""The one reader of relsplit's JSON documents: the run config and the bench spec.

Every section is read here and nowhere else. A section is an object; a key
that no command reads is a ParameterError, a missing required key a
StructuralError. A run config (``relsplit run``) has the sections

    graph       {"kind": "sequential"|"inward-star"|"outward-star", "n": 3}
    scheme      finite matrices "d", "M", "N", "P", "R" (all required), in place of
                "graph" (cheap relocators need a graph)
    problem     "kind" ("lasso" or "elastic-net") and the PROBLEM_READERS keys
                of that kind, the arguments of its generator, which gives
                the default of each one left out ("q" and "d" are required,
                "seed" is 0)
    relocator   one of relocator.KINDS, or "auto": the scheme's cheap kind, else general
    schedule    the ScheduleSpec fields (SCHEDULE_KEYS): {"variant": "constant",
                "gamma": ...} or {"variant": "safeguard", "t_rule": ..., "gamma"};
                a variant or t_rule name outside the known ones is refused
                when the document is read, before any solve
    run         {"max_iters": 1000, "fix_res_tol": 1e-10, "record_every": 1, "z0",
                 "reference_budget"}, z0 being {"kind": "zero"} (the default) or
                {"kind": "normal", "seed": 0}

This module only reads documents: ``cli`` solves the reference that a run's
"reference_budget" or a bench's "budget" sets.

A bench spec (``relsplit bench``) has "graph", "scheme" or "graphs" (a
non-empty list of graph sections: the grid runs once per graph, CSV names
prefixed by its kind; two jobs with one CSV name, or a CSV name that is not
a file name in out_dir or is summary.csv, are an error); "problem",
"relocator" and "z0" as above; "budget" (10000 iterations per method; 20x
that caps the reference run where it cannot start at the exact minimiser),
"fix_res_tol" (1e-10), "record_every" (10), "out_dir" ("bench-out") and
"methods" ([{"name", "schedule"}, ...], each name a non-empty string, else
``default_methods``). ``relsplit validate`` reads the scheme sections of
either document and checks them to ``scheme.VALIDATION_TOL``, and, when the
document has a problem, that each scheme binds its operators, as ``run`` and
``bench`` do. Before a graph is built, ``run`` and ``bench`` check its n
against the problem's resolvent count, and ``validate`` against
``MAX_GRAPH_N``.

Counts and sizes (max_iters, record_every, budget, a reference_budget other
than null or 0, which solve no reference, q, d, graph n) are whole numbers
>= 1, seeds and n_corr whole numbers >= 0 (1e3 is 1000; 2.5 and true are
errors, never truncated), fix_res_tol is finite and positive, the real
values (lam, u, lam1, lam2, noise_sd, the spectrum entries, gamma,
fix_res_tol) are JSON numbers (true and "0.01" are errors; gamma may be
null); lam, lam1, lam2 and the two spectrum entries are also finite and
positive. Graph-built schemes are run in their kappa form so the configured
gamma matches the graph-form stepsize conventions (gamma < 2/beta for the
chain); an explicit scheme must pass the six conditions (``RunConfig``). The
LASSO is split as B = A^T(A. - b) and its reference solve minimises the same
half-quadratic objective. The relaxation is not configured: ``driver`` runs
theta = 1 with lambda_k co-adjusted to the margin floor ``MARGIN_FLOOR``.
Nor are the safeguard's bounds: ``ScheduleSpec`` runs gamma_max = 2/mu times
``SAFETY`` (0.99) and gamma_min = 0.1 * gamma_max.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from . import engine, graph as graphmod, problems, relocator
from .driver import RunConfig, default_z0
from .errors import ParameterError, StructuralError, as_count, as_real, as_whole
from .schedule import ACCEL, HARMONIC, NORM_RATIO, ScheduleSpec
from .scheme import CoefficientScheme, kappa_form_scheme

SCHEME_KEYS = {"graph", "graphs", "scheme"}
RUN_KEYS = {"graph", "scheme", "problem", "relocator", "schedule", "run"}
BENCH_KEYS = SCHEME_KEYS | {"problem", "relocator", "z0", "budget", "fix_res_tol",
                            "record_every", "out_dir", "methods"}
# Problem keys besides "kind", the generator's arguments per kind, and their readers.
PROBLEM_READERS = {
    "lasso": {"q": as_count, "d": as_count, "seed": as_whole,
              "spectrum": lambda _, value: tuple(as_real("spectrum entry", v) for v in value),
              "lam": as_real, "u": as_real},
    "elastic-net": {"q": as_count, "d": as_count, "seed": as_whole, "n_corr": as_whole,
                    "noise_sd": as_real, "lam1": as_real, "lam2": as_real}}
Z0_KEYS = {"zero": {"kind"}, "normal": {"kind", "seed"}}
SCHEDULE_KEYS = set(ScheduleSpec.__dataclass_fields__)
MAX_GRAPH_N = 1000   # largest graph n that validate, with no problem to bound it, builds


def _config_errors(build):
    """Report a malformed or missing config value as a ParameterError/StructuralError.

    The CLI maps those two to exit code 2 with one ``error:`` line; any other
    exception raised while reading a config would end in a traceback.
    """
    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except (ParameterError, StructuralError):
            raise
        except KeyError as exc:
            raise StructuralError(f"config is missing key {exc}") from exc
        except (ValueError, TypeError, AttributeError) as exc:
            raise ParameterError(f"malformed config value: {exc}") from exc
    return wrapper


def _section(name, doc, allowed):
    """``doc`` if it is an object whose keys all lie in ``allowed``."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{name} must be an object, got {type(doc).__name__}")
    extra = set(doc).difference(allowed)
    if extra:
        raise ParameterError(f"unknown {name} keys: {sorted(extra)}")
    return doc


@_config_errors
def build_scheme(doc, resolvents=None):
    """Scheme from the 'graph' or 'scheme' section (graph schemes in kappa form).

    A graph's n must equal the problem's count of ``resolvents`` or, without one,
    be at most MAX_GRAPH_N; this is checked before the graph and its n x n
    matrices are built.
    """
    if "graph" in doc:
        g = _section("graph", doc["graph"], {"kind", "n"})
        n = as_count("graph n", g["n"])
        if resolvents is None and n > MAX_GRAPH_N:
            raise ParameterError(f"graph n = {n} is above the bound MAX_GRAPH_N = {MAX_GRAPH_N}")
        if resolvents is not None and n != resolvents:
            raise StructuralError(f"scheme has n = {n} but {resolvents} resolvents given")
        return kappa_form_scheme(graphmod.scheme_from_graph(graphmod.graph_from_config(g)))
    if "scheme" in doc:
        sd = _section("scheme", doc["scheme"], {"d", "M", "N", "P", "R"})
        s = CoefficientScheme(sd["d"], sd["M"], sd["N"], sd["P"], sd["R"])
        if not all(np.isfinite(a).all() for a in (s.M, s.N, s.P, s.R)):
            raise ParameterError("scheme entries must be finite")
        return s
    raise StructuralError("config needs a 'graph' or 'scheme' section")


def _schemes(doc, resolvents=None):
    """[(CSV name prefix, scheme)]: one per 'graphs' entry, else the one 'graph'/'scheme'."""
    given = sorted(SCHEME_KEYS.intersection(doc))
    if len(given) > 1:
        raise ParameterError(f"config takes one of 'graph', 'graphs', 'scheme', not {given}")
    if "graphs" in doc:
        if not doc["graphs"]:
            raise ParameterError("'graphs' needs at least one graph")
        return [(g.get("kind"), build_scheme({"graph": g}, resolvents))
                for g in doc["graphs"]]
    return [("", build_scheme(doc, resolvents))]


@_config_errors
def build_problem(doc):
    """(problem, split, objective_fn) from the 'problem' section.

    The generator gets the keys the section gives, each through its reader,
    and seed 0 when it gives none.
    """
    if isinstance(doc, dict) and "kind" not in doc:
        raise StructuralError(f"problem section is missing key 'kind' "
                              f"({' or '.join(map(repr, PROBLEM_READERS))})")
    kind = doc.get("kind")
    if kind not in PROBLEM_READERS:
        raise ParameterError(f"unknown problem kind {kind!r}")
    readers = PROBLEM_READERS[kind]
    _section("problem", doc, readers.keys() | {"kind"})
    args = {"seed": 0} | {key: read(key, doc[key]) for key, read in readers.items()
                          if key in doc or key in ("q", "d")}   # q and d have no default
    if kind == "lasso":
        prob = problems.gen_lasso(**args)
        split = problems.split_lasso(prob)
    else:
        prob = problems.gen_elastic_net(**args)
        split = problems.split_elastic(prob)
    # on the sequential tree the first forward runs at the recorded x_1: reuse its residual
    residual = split.forwards[0].residual
    return prob, split, lambda x: problems.objective(prob, x, residual(x))


@_config_errors
def build_z0(doc, s, split):
    """Initial block vector from a 'z0' section (``driver.default_z0``; seed 0 by default)."""
    doc = {} if doc is None else doc
    kind = doc.get("kind", "zero")
    if kind not in Z0_KEYS:
        raise ParameterError(f"unknown z0 kind {kind!r}")
    _section("z0", doc, Z0_KEYS[kind])
    if kind == "zero":
        return default_z0(s, split)
    return default_z0(s, split, seed=as_whole("z0 seed", doc.get("seed", 0)))


def _schedule(name, doc):
    """ScheduleSpec from a schedule section; its gamma is a JSON number or null."""
    _section(name, doc, SCHEDULE_KEYS)
    gamma = doc.get("gamma")
    return ScheduleSpec(**dict(doc, gamma=gamma if gamma is None
                               else as_real(f"{name} gamma", gamma)))


def _run_config(doc, s, split, objective_fn, schedule, max_iters, fix_res_tol, record_every):
    """The RunConfig of one run or bench job, the one place a document becomes one."""
    engine.check_binding(s, split)
    return RunConfig(scheme=s, problem=split,
                     relocator=relocator.pick_kind(doc.get("relocator", relocator.GENERAL), s),
                     schedule=schedule, max_iters=max_iters,
                     fix_res_tol=as_real("fix_res_tol", fix_res_tol),
                     record_every=record_every, objective=objective_fn)


@_config_errors
def build_run(doc):
    """(RunConfig, z0, problem, budget) from a run config.

    ``budget`` is run.reference_budget, the iteration budget of the reference
    solve for ``problem``, or None when it is null or 0 (no reference).
    """
    _section("run config", doc, RUN_KEYS)
    prob, split, objective_fn = build_problem(doc["problem"])
    [(_, s)] = _schemes(doc, len(split.resolvents))
    run_doc = _section("run", doc.get("run", {}),
                       {"max_iters", "fix_res_tol", "record_every", "z0", "reference_budget"})
    cfg = _run_config(doc, s, split, objective_fn, _schedule("schedule", doc.get("schedule", {})),
                      run_doc.get("max_iters", 1000), run_doc.get("fix_res_tol", 1e-10),
                      run_doc.get("record_every", 1))
    z0 = build_z0(run_doc.get("z0"), s, split)
    budget = run_doc.get("reference_budget")
    if budget is None or budget == 0 and not isinstance(budget, bool):   # no reference
        return cfg, z0, prob, None
    return cfg, z0, prob, as_count("reference_budget", budget)


def default_methods(beta, n_resolvents):
    """The benchmark grid: three constant stepsizes plus the safeguard rules."""
    methods = [
        ("const-0.1L", ScheduleSpec(variant="constant", gamma=0.1 / beta)),
        ("const-1L", ScheduleSpec(variant="constant", gamma=1.0 / beta)),
        ("const-1.99L", ScheduleSpec(variant="constant", gamma=1.99 / beta)),
        ("fpr-norm-ratio", ScheduleSpec(variant="safeguard", t_rule=NORM_RATIO)),
        ("fpr-harmonic", ScheduleSpec(variant="safeguard", t_rule=HARMONIC)),
    ]
    if n_resolvents == 2:
        # the accelerated target rule is specific to the three-operator case
        methods.insert(4, ("fpr-accel", ScheduleSpec(variant="safeguard", t_rule=ACCEL)))
    return methods


def _method_name(i, name):
    """Bench method i's name, which names its CSV: a non-empty string, else a ParameterError."""
    if not isinstance(name, str) or not name:
        raise ParameterError(f"methods[{i}] name must be a non-empty string, got {name!r}")
    return name


@_config_errors
def build_bench(doc):
    """(groups, problem, budget, out_dir); a group is (CSV names, RunConfigs, z0).

    One group per graph: its methods share one scheme, relocator kind and z0
    and differ in their schedules. Every job is built and checked before the
    reference solve the jobs share.
    """
    _section("bench spec", doc, BENCH_KEYS)
    prob, split, objective_fn = build_problem(doc["problem"])
    budget = as_count("budget", doc.get("budget", 10000))
    limits = (budget, doc.get("fix_res_tol", 1e-10), doc.get("record_every", 10))
    methods = None
    if "methods" in doc:
        methods = [(_method_name(i, _section(f"methods[{i}]", m, {"name", "schedule"})["name"]),
                    _schedule(f"methods[{i}] schedule", m["schedule"]))
                   for i, m in enumerate(doc["methods"])]
    groups, names = [], []
    for prefix, s in _schemes(doc, len(split.resolvents)):
        z0 = build_z0(doc.get("z0"), s, split)
        grid = default_methods(split.beta, s.n) if methods is None else methods
        group = [f"{prefix}-{name}" if prefix else name for name, _ in grid]
        groups.append((group, [_run_config(doc, s, split, objective_fn, sched, *limits)
                               for _, sched in grid], z0))
        names += group
    if not names:
        raise ParameterError("benchmark needs at least one method")
    for i, name in enumerate(names):
        csv = f"{name}.csv"
        if Path(csv).name != csv or csv == "summary.csv":
            raise ParameterError(f"benchmark job {name!r} cannot write {csv} in out_dir")
        if name in names[:i]:
            raise ParameterError(f"two benchmark jobs would write {csv}")
    return groups, prob, budget, Path(doc.get("out_dir", "bench-out"))


@_config_errors
def build_validate(doc):
    """[(name prefix, scheme)] from a run config or bench spec.

    With a 'problem' section, each scheme must bind the problem's operators
    (``engine.check_binding``), as ``run`` and ``bench`` require.
    """
    _section("config", doc, RUN_KEYS | BENCH_KEYS)
    schemes = _schemes(doc)
    if "problem" in doc:
        split = build_problem(doc["problem"])[1]
        for _, s in schemes:
            engine.check_binding(s, split)
    return schemes
