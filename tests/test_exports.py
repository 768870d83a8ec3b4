import inspect

import relsplit
from relsplit import driver, graph, linalg, problems, relocator, schedule, scheme

REMOVED = [(problems, "metrics"), (problems, "box_violation"), (problems, "problem_to_dict"),
           (problems, "problem_from_dict"), (graph, "laplacian"), (graph, "predecessor_map"),
           (linalg, "kron_apply"), (scheme, "scheme_to_dict"), (scheme, "scheme_from_dict"),
           (schedule, "schedule_from_config"), (driver, "RelativeErrors"),
           (relocator, "Relocation"), (linalg, "project_zero_sum"), (linalg, "project_range"),
           (scheme.CoefficientScheme, "ker_mstar_is_ones"), (driver.Trace, "forward_evals")]


def test_exported_names_exist():
    assert [name for name in relsplit.__all__ if not hasattr(relsplit, name)] == []


def test_removed_names_are_absent():
    for module, name in REMOVED:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in relsplit.__all__ and not hasattr(relsplit, name)
    assert not {"accel_gap", "safety"} & set(schedule.ScheduleSpec.__dataclass_fields__)
    assert "accel_gap" not in inspect.signature(schedule.SafeguardStepsize).parameters
    assert "beta" not in inspect.signature(driver.run_davis_yin).parameters
