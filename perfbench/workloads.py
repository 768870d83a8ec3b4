"""The three workloads: seeded CLI inputs, and reading back what the CLI wrote.

Problem seeds are the bundled specs' seeds (2 for the LASSO, 11 for the
elastic net) plus the benchmark's ``--seed``, so seed 0 reproduces the
bundled instances and any other seed gives a fresh instance of the same size.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

# demos/configs/bench_lasso.json with the budget cut from 20000 to 1000, so a
# run holds many repeats. The reference solve (20x budget, stop at 1e-12)
# then always runs its full 20000 iterations, a fixed amount of work.
LASSO_BUDGET = 1000
# The elastic-net grid runs to this fix_res (the bundled spec's 1e-10 takes
# 65k iterations; 1e-4 takes about 13.5k, so a repeat is short enough for
# the calibration around it to follow the host's speed).
TOPOLOGIES_TOL = 1e-4
# Iteration count of the large elastic-net run; it never converges that soon.
LARGE_ITERS = 1000

NAMES = ("lasso-grid", "elastic-topologies", "elastic-general-large")
# Resolvents n and relocator kind of every method run a workload makes: the
# two-node chain with davis-yin, three-node graphs whose 'auto' relocator is
# the graph's own cheap kind, and the general relocator on n = 3.
LOOP_SHAPE = {"lasso-grid": (2, "cheap"), "elastic-topologies": (3, "cheap"),
              "elastic-general-large": (3, "general")}
# Dimension and iterations of the calibration kernel timed around each repeat
# (child.calibrate): in-cache matvecs for the two Python-bound grids, and
# matvecs on an 8 MB matrix for the kernel-bound run, each about 0.04 s on
# an idle host, so the kernel slows as the workload does.
CAL_KERNEL = {"lasso-grid": (100, 6000), "elastic-topologies": (100, 6000),
              "elastic-general-large": (1000, 100)}


def write_config(name, seed, out_dir):
    """Write one workload's config at one seed into out_dir; returns (CLI argv, document)."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    config_path = str(Path(out_dir) / "config.json")
    out_dir = str(out_dir)
    if name == "lasso-grid":
        doc = {
            "graph": {"kind": "sequential", "n": 2},
            "problem": {"kind": "lasso", "q": 50, "d": 100, "seed": 2 + seed,
                        "spectrum": [0.4, 0.6], "lam": 0.001, "u": 50.0},
            "relocator": "davis-yin",
            "budget": LASSO_BUDGET,
            "record_every": 10,
            "out_dir": out_dir,
            "z0": {"kind": "zero"},
        }
        argv = ["bench", config_path]
    elif name == "elastic-topologies":
        # demos/configs/bench_elastic_topologies.json, stopping at TOPOLOGIES_TOL
        doc = {
            "graphs": [{"kind": "inward-star", "n": 3}, {"kind": "outward-star", "n": 3},
                       {"kind": "sequential", "n": 3}],
            "problem": {"kind": "elastic-net", "q": 60, "d": 80, "seed": 11 + seed,
                        "n_corr": 4, "noise_sd": 0.01, "lam1": 0.01, "lam2": 0.01},
            "relocator": "auto",
            "budget": 30000,
            "fix_res_tol": TOPOLOGIES_TOL,
            "record_every": 25,
            "out_dir": out_dir,
            "z0": {"kind": "zero"},
            "methods": [
                {"name": "fpr-norm-ratio",
                 "schedule": {"variant": "safeguard", "t_rule": "norm-ratio"}},
                {"name": "fpr-harmonic",
                 "schedule": {"variant": "safeguard", "t_rule": "harmonic"}},
            ],
        }
        argv = ["bench", config_path]
    elif name == "elastic-general-large":
        doc = {
            "graph": {"kind": "sequential", "n": 3},
            "problem": {"kind": "elastic-net", "q": 300, "d": 1000, "seed": 11 + seed,
                        "n_corr": 4, "noise_sd": 0.01, "lam1": 0.01, "lam2": 0.01},
            "relocator": "general",
            "schedule": {"variant": "safeguard", "t_rule": "norm-ratio"},
            "run": {"max_iters": LARGE_ITERS, "fix_res_tol": 1e-12, "record_every": 1,
                    "z0": {"kind": "zero"}},
        }
        argv = ["run", config_path, "--out", str(Path(out_dir) / "run.csv")]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    with open(config_path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return argv, doc


def _last_row(path):
    """Final row of a trace CSV as a dict, plus the file's sha256."""
    data = Path(path).read_bytes()
    rows = list(csv.DictReader(data.decode().splitlines()))
    return rows[-1], hashlib.sha256(data).hexdigest()


def read_outputs(name, argv, stdout):
    """Per-method results from what the CLI wrote: summary, trace CSVs and stdout.

    Each method carries its loop shape (n, relocator kind) and whether it
    converged, which is all the closed-form evaluation count needs.
    """
    n, kind = LOOP_SHAPE[name]
    with open(argv[1]) as fh:
        doc = json.load(fh)
    if argv[0] == "run":
        last, digest = _last_row(argv[3])
        fields = dict(re.findall(r"(\w+)=(\S+)", stdout))
        fix_res = float(last["fix_res"])
        return [{"name": "run", "n": n, "kind": kind, "iterations": int(fields["iterations"]),
                 "converged": fix_res <= doc["run"]["fix_res_tol"],
                 "sweeps": int(fields["sweeps"]), "aborted": "ABORTED" in stdout,
                 "fix_res": fix_res, "objective": float(last["objective"]), "digest": digest}]
    out_dir = Path(doc["out_dir"])
    methods = []
    with open(out_dir / "summary.csv") as fh:
        for row in csv.DictReader(fh):
            last, digest = _last_row(out_dir / f"{row['method']}.csv")
            methods.append({"name": row["method"], "n": n, "kind": kind,
                            "iterations": int(row["iterations"]),
                            "converged": row["converged"] == "True",
                            "sweeps": int(row["sweeps"]), "aborted": bool(row["aborted"]),
                            "fix_res": float(row["final_fix_res"]),
                            "objective": float(last["objective"]), "digest": digest})
    return methods
