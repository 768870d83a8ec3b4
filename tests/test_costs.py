"""Deterministic costs and bits of whole runs: call budgets per iteration and pinned traces.

Timings on a shared host move by 15-50 %; call counts do not. A change that adds
Python or C calls to an iteration fails ``test_iteration_call_budgets``; a change
that removes some lowers the budget. The trace digests pin the bytes a run writes
where no other test compares against a second implementation.
"""

import collections
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from relsplit import config, driver, problems
from relsplit.schedule import ScheduleSpec

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def calls_per_iteration(run_for):
    """(Python calls, C calls) per iteration over iterations 1000-2000 of ``run_for(iters)``.

    Counted with ``sys.setprofile`` as the difference of a 2000- and a
    1000-iteration run, after a short run has compiled the step plan, with the
    cyclic garbage collector off (a finalizer it runs would be counted).
    """
    run_for(10)
    counts = []
    for iters in (1000, 2000):
        c = collections.Counter()

        def profile(frame, event, arg):
            c[event] += 1

        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            run_for(iters)
        finally:
            sys.setprofile(None)
            gc.enable()
        counts.append(c)
    return tuple((counts[1][e] - counts[0][e]) / 1000 for e in ("call", "c_call"))


def single_run(name, spec=None):
    cfg, z0, prob, budget = config.build_run(json.loads((CONFIGS / f"{name}.json").read_text()))
    if budget is not None:   # the recorded rows' relative errors, as ``relsplit run`` has them
        ref = problems.reference_solution(prob, budget)
        cfg.reference = (ref.x, ref.phi)
    spec = spec or cfg.schedule
    return lambda iters: driver.run(replace(cfg, schedule=spec, max_iters=iters), z0)


def lasso_stack():
    groups, _, _, _ = config.build_bench(json.loads((CONFIGS / "bench_lasso.json").read_text()))
    (_, cfgs, z0), = groups   # six methods on one graph: one 6-lane stack
    return lambda iters: driver.run_grid([replace(cfg, max_iters=iters) for cfg in cfgs], z0)


# (Python, C) calls per iteration with the step generated whole (engine.SweepPlan._step),
# L1Subdiff.resolve forming the soft-threshold itself and a stack's stop test one plain
# loop over fix_res. Before those two, the Python counts were 14.0 (lasso_dy), 12.0 (its
# constant run), 17.36 and 15.36 (elastic_sequential, as given and constant) and 57.7
# (the 6-lane stack); through a method layer over the generated sweep, the norm-ratio
# runs made 20.9 / 18.1 (lasso_dy) and 24.32 / 18.8 (elastic_sequential), their
# constant-stepsize runs 15.9 / 10.1 and 19.32 / 10.8, and the stack 67.7 / 45.4.
BUDGETS = {
    "lasso_dy": (lambda: single_run("lasso_dy"), (13.0, 15.1)),
    "lasso_dy-constant": (lambda: single_run("lasso_dy", ScheduleSpec()), (11.0, 9.1)),
    "elastic_sequential": (lambda: single_run("elastic_sequential"), (15.36, 15.8)),
    "elastic_sequential-constant": (lambda: single_run("elastic_sequential", ScheduleSpec()),
                                    (13.36, 9.8)),
    "bench_lasso-stack": (lasso_stack, (50.8, 41.4)),
}


@pytest.mark.parametrize("case", list(BUDGETS))
def test_iteration_call_budgets(case):
    make, (py_budget, c_budget) = BUDGETS[case]
    py, c = calls_per_iteration(make())
    assert py <= py_budget + 1e-9 and c <= c_budget + 1e-9, (py, c)


# sha256 of the trace CSV of each bundled run config at max_iters 3000, per schedule,
# with OpenBLAS on one thread and its Haswell kernels: the kernel set OpenBLAS picks
# for a CPU changes the bits (its SkylakeX kernels, an AVX-512 CPU's default, give
# other digests)
DIGESTS = {
    "lasso_dy/constant": "7e174ada332162f810686e5e9c71f6dffe80684564285a95e9acebe958fad615",
    "lasso_dy/norm-ratio": "ad0630e54e70f51cff058f57fa96b1e2dcea071c206dcdb394d32414aaa06044",
    "lasso_dy/harmonic": "4029372c0b7f38c3a2ea9b1f25ae0d4ece3592e2ab717bdba0982c9998f9b68a",
    "elastic_sequential/constant":
        "63010d1489a5a038d1635effd7de124b85487081bebdff3c4eb22c3039634ccc",
    "elastic_sequential/norm-ratio":
        "d2380f9bd81a7a142c9d0ad00ea21b5d1fcb9e32a8459cd441cd69afc21b4539",
    "elastic_sequential/harmonic":
        "74b0d8d0a15e837b6bc6d1362d35798f17140224f2160f459e5b06685ba3591c",
}

WRITE_TRACES = """
import json, sys
from pathlib import Path
from relsplit import cli
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
schedules = {"constant": {"variant": "constant"},
             "norm-ratio": {"variant": "safeguard", "t_rule": "norm-ratio"},
             "harmonic": {"variant": "safeguard", "t_rule": "harmonic"}}
for key in sys.argv[3:]:
    name, label = key.split("/")
    doc = json.loads((configs / f"{name}.json").read_text())
    doc["schedule"] = schedules[label]
    doc["run"]["max_iters"] = 3000
    path = out / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(out / f"{name}-{label}.csv")]) == 0
"""


def _openblas_dynamic():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (platform.machine() == "x86_64" and blas.get("name") == "scipy-openblas"
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _openblas_dynamic(),
                    reason="the digests are of numpy's OpenBLAS with its Haswell kernels")
def test_trace_bytes_are_pinned(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [str(CONFIGS.parents[1] / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", WRITE_TRACES, str(CONFIGS), str(tmp_path), *DIGESTS],
                   env=env, check=True, capture_output=True)
    got = {key: hashlib.sha256((tmp_path / f"{key.replace('/', '-')}.csv").read_bytes())
           .hexdigest() for key in DIGESTS}
    assert got == DIGESTS
