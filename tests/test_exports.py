import inspect

import relsplit
from relsplit import driver, engine, graph, linalg, problems, relocator, schedule, scheme

REMOVED = [(problems, "metrics"), (problems, "box_violation"), (problems, "problem_to_dict"),
           (problems, "problem_from_dict"), (graph, "laplacian"), (graph, "predecessor_map"),
           (linalg, "kron_apply"), (scheme, "scheme_to_dict"), (scheme, "scheme_from_dict"),
           (schedule, "schedule_from_config"), (driver, "RelativeErrors"),
           (relocator, "Relocation"), (linalg, "project_zero_sum"), (linalg, "project_range"),
           (scheme.CoefficientScheme, "ker_mstar_is_ones"), (driver.Trace, "forward_evals"),
           (schedule, "Observables"), (driver, "check_limits"), (schedule, "RelaxationPlan"),
           (scheme, "feasibility_margin")]


def test_exported_names_exist():
    assert [name for name in relsplit.__all__ if not hasattr(relsplit, name)] == []


def test_removed_names_are_absent():
    for module, name in REMOVED:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in relsplit.__all__ and not hasattr(relsplit, name)
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
                     (problems.objective, "half")):
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
    assert not hasattr(schedule.ConstantStepsize(0.5), "k")
