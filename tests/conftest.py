from dataclasses import replace

import numpy as np
import pytest


def _iterates(loop, cfg, z0, iters):
    """(trace, xs, zs): the shadow iterates x_k and governing iterates z_k of a run.

    ``loop`` (``run`` or ``run_davis_yin``) runs ``cfg``, a deterministic
    config at record_every = 1, from z0; ``trace`` is the run stopped at
    ``max_iters = iters``. x_k is the argument the objective callback receives
    on row k of that run (the callback returns ``cfg.objective``'s value, so
    the trace's objective column is still filled). z_k is ``z_final`` of the
    same config stopped at ``max_iters = k``, and z_0 is z0.
    """
    xs = []

    def record(x):
        xs.append(np.array(x))
        return cfg.objective(x) if cfg.objective is not None else float("nan")

    trace = loop(replace(cfg, max_iters=iters, objective=record), z0)
    zs = [np.asarray(z0, dtype=float)]
    zs += [loop(replace(cfg, max_iters=k, objective=None), z0).z_final for k in range(1, len(xs))]
    return trace, xs, zs


@pytest.fixture
def iterates():
    """The ``_iterates`` helper: the (x_k, z_k) sequence of a run without recording switches."""
    return _iterates
