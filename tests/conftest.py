import numpy as np
import pytest


def _iterates(run_at, z0, iters, objective=None):
    """(trace, xs, zs): the shadow iterates x_k and governing iterates z_k of a run.

    ``run_at(max_iters, objective)`` runs one deterministic loop from z0 at
    record_every = 1 and returns its Trace. x_k is the argument the objective
    callback receives on row k of the run with ``max_iters = iters``
    (``objective``, when given, still fills the trace's objective column).
    z_k is ``z_final`` of the same run stopped at ``max_iters = k``, and z_0
    is z0. ``trace`` is the run with ``max_iters = iters``.
    """
    xs = []

    def record(x):
        xs.append(np.array(x))
        return objective(x) if objective is not None else float("nan")

    trace = run_at(iters, record)
    zs = [np.asarray(z0, dtype=float)] + [run_at(k, None).z_final for k in range(1, len(xs))]
    return trace, xs, zs


@pytest.fixture
def iterates():
    """The ``_iterates`` helper: the (x_k, z_k) sequence of a run without recording switches."""
    return _iterates
