"""Declarative run configuration: one JSON-compatible document describes a run.

Document sections (all plain objects/arrays/numbers/strings):

    graph       {"kind": "sequential"|"inward-star"|"outward-star", "n": 3}
                or {"n": 3, "arcs": [[1,2],[2,3]]}
    scheme      explicit matrices {"d": [...], "M": [[...]], "N": ..., "P": ..., "R": ...}
                (alternative to "graph"; cheap relocators need a graph)
    problem     {"kind": "lasso", "q", "d", "seed", "lam", "u", "spectrum",
                 "half_quadratic"} or
                {"kind": "elastic-net", "q", "d", "seed", "n_corr", "noise_sd",
                 "lam1", "lam2", "normalize"}
    relocator   "general" | "inward-star" | "outward-star" | "sequential" | "davis-yin"
    schedule    ScheduleSpec fields ({"variant": "constant", "gamma": ...} or
                {"variant": "safeguard", "t_rule": ..., ...})
    relaxation  {"theta": 1.0, "lam": null, "margin_floor": 1e-3}
    run         {"max_iters", "fix_res_tol", "record_every", "z0",
                 "reference_budget"} with z0 either {"kind": "zero"} or
                {"kind": "normal", "seed": 0, "scale": 1.0}

Graph-built schemes are run in their kappa form so the configured gamma
matches the graph-form stepsize conventions (gamma < 2/beta for the chain).
"""

from __future__ import annotations

import functools

import numpy as np

from . import graph as graphmod, problems, relocator
from .driver import RunConfig
from .errors import ParameterError, StructuralError
from .schedule import RelaxationPlan, schedule_from_config
from .scheme import kappa_form_scheme, scheme_from_dict


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


@_config_errors
def build_scheme(doc):
    """Scheme from the 'graph' or 'scheme' section (graph schemes in kappa form)."""
    if "graph" in doc:
        g = graphmod.graph_from_config(doc["graph"])
        return kappa_form_scheme(graphmod.scheme_from_graph(g))
    if "scheme" in doc:
        return scheme_from_dict(doc["scheme"])
    raise StructuralError("config needs a 'graph' or 'scheme' section")


@_config_errors
def build_problem(doc):
    """(problem, split, objective_fn) from the 'problem' section.

    Instances may be generated ({"kind", "q", "d", "seed", ...}) or given with
    matrices inline ({"kind", "A", "b", ...}) for exact rerun.
    """
    doc = dict(doc)
    kind = doc.pop("kind", None)
    if kind == "lasso":
        half = bool(doc.pop("half_quadratic", True))
        if "A" in doc:
            prob = problems.problem_from_dict(dict(doc, kind="lasso"))
        else:
            spectrum = tuple(doc.pop("spectrum", (0.5, 1.5)))
            prob = problems.gen_lasso(
                int(doc.pop("q")), int(doc.pop("d")), int(doc.pop("seed", 0)),
                spectrum=spectrum, lam=float(doc.pop("lam", 1e-3)),
                u=float(doc.pop("u", 50.0)))
            if doc:
                raise ParameterError(f"unknown lasso keys: {sorted(doc)}")
        return prob, problems.split_lasso(prob, half_quadratic=half), \
            lambda x: problems.objective(prob, x)
    if kind == "elastic-net":
        if "A" in doc:
            prob = problems.problem_from_dict(dict(doc, kind="elastic-net"))
        else:
            prob = problems.gen_elastic_net(
                int(doc.pop("q")), int(doc.pop("d")), int(doc.pop("seed", 0)),
                n_corr=int(doc.pop("n_corr", 0)), noise_sd=float(doc.pop("noise_sd", 0.01)),
                lam1=float(doc.pop("lam1", 1e-2)), lam2=float(doc.pop("lam2", 1e-2)),
                normalize=bool(doc.pop("normalize", True)))
            if doc:
                raise ParameterError(f"unknown elastic-net keys: {sorted(doc)}")
        return prob, problems.split_elastic(prob), lambda x: problems.objective(prob, x)
    raise ParameterError(f"unknown problem kind {kind!r}")


@_config_errors
def build_z0(doc, s, split, seed_default=None):
    doc = doc or {"kind": "zero"}
    kind = doc.get("kind", "zero")
    if kind == "zero":
        return np.zeros((s.m, split.dim))
    if kind == "normal":
        rng = np.random.default_rng(doc.get("seed", seed_default))
        return float(doc.get("scale", 1.0)) * rng.standard_normal((s.m, split.dim))
    raise ParameterError(f"unknown z0 kind {kind!r}")


@_config_errors
def build_run(doc):
    """(RunConfig, z0) from a full config document."""
    s = build_scheme(doc)
    prob, split, objective_fn = build_problem(doc.get("problem", {}))
    run_doc = dict(doc.get("run", {}))
    reference = None
    budget = run_doc.pop("reference_budget", None)
    if budget:
        ref = problems.reference_solution(prob, int(budget))
        reference = (ref.x, ref.phi)
    z0 = build_z0(run_doc.pop("z0", None), s, split)
    cfg = RunConfig(
        scheme=s,
        problem=split,
        relocator=doc.get("relocator", relocator.GENERAL),
        schedule=schedule_from_config(doc.get("schedule", {})),
        relaxation=RelaxationPlan(**doc.get("relaxation", {})),
        max_iters=int(run_doc.pop("max_iters", 1000)),
        fix_res_tol=float(run_doc.pop("fix_res_tol", 1e-10)),
        record_every=int(run_doc.pop("record_every", 1)),
        objective=objective_fn,
        reference=reference,
    )
    if run_doc:
        raise ParameterError(f"unknown run keys: {sorted(run_doc)}")
    return cfg, z0

