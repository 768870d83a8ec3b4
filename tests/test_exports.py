import ast
import inspect
from pathlib import Path

import relsplit
from relsplit import (driver, engine, graph, linalg, problems, propsuites, relocator, schedule,
                      scheme)

REMOVED = [(problems, "metrics"), (problems, "box_violation"), (problems, "problem_to_dict"),
           (problems, "problem_from_dict"), (graph, "laplacian"), (graph, "predecessor_map"),
           (linalg, "kron_apply"), (scheme, "scheme_to_dict"), (scheme, "scheme_from_dict"),
           (schedule, "schedule_from_config"), (driver, "RelativeErrors"),
           (relocator, "Relocation"), (linalg, "project_zero_sum"), (linalg, "project_range"),
           (scheme.CoefficientScheme, "ker_mstar_is_ones"), (driver.Trace, "forward_evals"),
           (schedule, "Observables"), (driver, "check_limits"), (schedule, "RelaxationPlan"),
           (scheme, "feasibility_margin"), (graph, "matching_topologies"), (driver, "_State"),
           (driver, "_EngineStep"), (driver, "_lanes_of")]


def test_exported_names_exist():
    assert [name for name in relsplit.__all__ if not hasattr(relsplit, name)] == []


def test_removed_names_are_absent():
    for module, name in REMOVED:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in relsplit.__all__ and not hasattr(relsplit, name)
    # a scheme is its five matrices; the relocator kinds it admits are derived from them
    assert list(scheme.CoefficientScheme.__dataclass_fields__) == ["d", "M", "N", "P", "R"]
    # the safeguard's bounds are SAFETY * 2/mu and a tenth of that, not fields
    assert list(schedule.ScheduleSpec.__dataclass_fields__) == ["variant", "gamma", "t_rule"]
    assert "accel_gap" not in inspect.signature(schedule.SafeguardStepsize).parameters
    assert "beta" not in inspect.signature(driver.run_davis_yin).parameters
    # both loops take one RunConfig (and an optional z0)
    assert list(inspect.signature(driver.run_davis_yin).parameters) == ["cfg", "z0"]


def test_test_only_knobs_are_absent():
    # fields through __dataclass_fields__: a default_factory field is no class attribute
    assert not hasattr(engine, "SweepResult") and "SweepResult" not in relsplit.__all__
    assert not hasattr(relsplit, "SweepResult")
    assert not {"x_path", "z_path"} & set(driver.Trace.__dataclass_fields__)
    assert "record_paths" not in driver.RunConfig.__dataclass_fields__
    # theta = 1 and lambda co-adjusted to the margin: a run sets no relaxation
    assert "relaxation" not in driver.RunConfig.__dataclass_fields__
    for fn, name in ((driver.run_davis_yin, "record_paths"), (graph.scheme_from_graph, "h"),
                     (problems.objective, "half"), (relocator.relocate, "sweep"),
                     (relocator.relocate, "x1"), (engine.sweep, "x1")):
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
    # nor does either layout's stateless sweep take x_1: only a step's residuals recycles it
    s = propsuites.kappa_scheme(graph.SEQUENTIAL, 3)
    for lanes, g in ((False, "gamma"), (True, "gs")):
        plan = engine.SweepPlan(s, propsuites.graph_split(3, 0), lanes=lanes)
        assert f"    def sweep({g}, z):" in plan.source.splitlines()
    assert not hasattr(schedule.ConstantStepsize(0.5), "k")
    # the suites take only the draws they use, with their tolerances fixed, and no helper
    # has a parameter or default that no caller varies
    takes = {propsuites.suite_resolvent_identity: ["trials", "seed"],
             propsuites.suite_recycling: ["trials", "seed"],
             propsuites.suite_lipschitz: ["trials", "seed"],
             propsuites.suite_scheme_validity: [], propsuites.suite_pinv_closed_forms: [],
             propsuites.suite_relocator_axioms: ["seed"],
             propsuites.relocator_axiom_checks: ["s", "split", "cheap_kind", "gamma"]}
    for fn, params in takes.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    assert "max_iters" not in inspect.signature(propsuites.converge).parameters
    for fn in (propsuites.run_suite, linalg.as_blocks):
        assert all(p.default is inspect.Parameter.empty
                   for p in inspect.signature(fn).parameters.values()), fn.__name__
    # the lane layout writes the block layout's products, broadcast over the stack
    assert not hasattr(engine._Emitter, "_per_lane")


def test_the_engine_owns_its_step():
    # a step is made by SweepPlan.start or Step.lane alone, so a plan has no public step
    # factory, and the engine's tests reach no private name of the driver
    plan = engine.SweepPlan(propsuites.kappa_scheme(graph.SEQUENTIAL, 3),
                            propsuites.graph_split(3, 0))
    assert not hasattr(plan, "step")
    tree = ast.parse((Path(__file__).parent / "test_engine.py").read_text())
    private = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "relsplit.driver" for a in node.names if a.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "driver"
                and node.attr.startswith("_")]
    assert private == []
