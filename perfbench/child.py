"""One repeat of a workload in a fresh process: time ``relsplit.cli.main`` once.

Usage: python3 child.py <request.json> <result.json>

The request names the CLI arguments, whether to trace every layer, and
where to write spans. The result holds the phase times, the calibration
kernel's time just before and just after the CLI call, peak memory, the
evaluation counts of every loop the CLI ran, and (when traced) the
per-layer aggregates. Run by ``run.py`` with BLAS pinned to one thread.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time

import tracer


def loop_records(tr):
    """Iterations, evaluation counts and stop state of every loop call."""
    in_ref = tr.under(tracer.REFERENCE)
    return [{"loop": loop, "kind": kind, "n": n, "reference": in_ref[sid],
             "iterations": trace.iterations, "resolvent_evals": trace.resolvent_evals,
             "converged": trace.converged, "aborted": trace.aborted}
            for sid, loop, kind, n, trace in tr.loops]


def layer_stats(tr, child_cost):
    """Calls, total and self seconds per traced function, plus the probes."""
    own = tr.self_times(child_cost)
    in_ref = tr.under(tracer.REFERENCE)
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "solve_calls": 0}
             for name in tr.names}
    for sid, name_id in enumerate(tr.name_of):
        entry = stats[tr.names[name_id]]
        entry["calls"] += 1
        entry["total_s"] += tr.end[sid] - tr.start[sid]
        entry["self_s"] += own[sid]
        entry["solve_calls"] += not in_ref[sid]
    return {"functions": stats, "sweep_recycled": tr.recycled, "wrapper_cost_s": child_cost}


def versions():
    import numpy
    blas = {}
    with contextlib.suppress(KeyError, TypeError):   # layout varies by numpy version
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def calibrate(dim, iters):
    """Seconds one fixed kernel takes: the host's speed at this moment.

    The kernel is a Python loop of ``iters`` dim x dim matvecs and vector
    operations, the same kind of work as a workload of that dimension. It is
    part of the benchmark, so no change to relsplit changes its time.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    x = rng.standard_normal(dim)
    t0 = time.perf_counter()
    for _ in range(iters):
        v = g @ x
        x = np.sign(v) * np.maximum(np.abs(v) - 0.01, 0.0)
        x = x / max(float(np.linalg.norm(x)), 1e-12)
    return time.perf_counter() - t0


def main(request_path, result_path):
    with open(request_path) as fh:
        request = json.load(fh)
    from relsplit import cli

    targets = tracer.LAYER_TARGETS if request["trace"] else tracer.PHASE_TARGETS
    child_cost = tracer.wrapper_cost() if request["trace"] else 0.0
    out = io.StringIO()
    cal_before = calibrate(*request["cal"])
    with tracer.Tracer(targets) as tr, contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(request["argv"])
        wall = time.perf_counter() - t0
    cal_after = calibrate(*request["cal"])
    setup, reference = tr.phases()
    result = {
        "exit_code": code,
        "stdout": out.getvalue(),
        "wall_s": wall,
        "setup_s": setup,
        "reference_s": reference,
        "solve_s": wall - setup - reference,
        "cal_s": (cal_before + cal_after) / 2.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loops": loop_records(tr),
        "versions": versions(),
    }
    if request["trace"]:
        result["layers"] = layer_stats(tr, child_cost)
        tr.write(request["spans"], request["run_id"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
