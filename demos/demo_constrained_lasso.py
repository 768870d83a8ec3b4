#!/usr/bin/env python3
"""Constrained LASSO with the relocated three-operator method.

Solves  min ||Ax - b||^2 + lam*||x||_1  s.t.  x in [-u, u]^d  on a seeded
random instance, comparing three constant stepsizes against the three
safeguarded variable-stepsize rules. Writes one trace CSV per method
(plot-ready: one metric per column) and prints a closing table.

Usage: python demos/demo_constrained_lasso.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

import relsplit as rs
from relsplit.config import default_methods
from relsplit.driver import CSV_HEADER
from relsplit.problems import gen_lasso, objective, reference_solution, split_lasso

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo-out/lasso")
BUDGET = 20_000

prob = gen_lasso(q=50, d=100, seed=2, spectrum=(0.4, 0.6), lam=1e-3, u=50.0)
split = split_lasso(prob)
print(f"instance: q=50 d=100  lam={prob.lam}  u={prob.u}  beta=L={split.beta:.4f}")

print("computing the reference solution (exact homotopy minimiser, certified by the "
      "constant gamma = 1/L loop) ...")
ref = reference_solution(prob, budget=BUDGET)
print(f"  phi* = {ref.phi:.9g}  nonzeros = {np.sum(np.abs(ref.x) > 1e-10)}/100"
      + ("  [flagged: approximate]" if ref.flagged else ""))

# the bench grid: three constant stepsizes and the three safeguard rules
methods = default_methods(split.beta, 2)
chain = rs.kappa_form_scheme(rs.scheme_from_graph(rs.canonical("sequential", 2)))

OUT.mkdir(parents=True, exist_ok=True)
phi = lambda x: objective(prob, x)
print(f"\n{'method':16s} {'iters':>7s} {'gamma_K':>9s} {'fix_res':>10s} "
      f"{'rel_err_x':>10s} {'rel_err_f':>10s}")
for name, spec in methods:
    cfg = rs.RunConfig(scheme=chain, problem=split, relocator="davis-yin", schedule=spec,
                       max_iters=BUDGET, fix_res_tol=1e-11, record_every=10, objective=phi,
                       reference=(ref.x, ref.phi))
    trace = rs.run_davis_yin(cfg)   # from z0 = 0
    trace.to_csv(OUT / f"{name}.csv")
    note = f"ABORTED: {trace.aborted}" if trace.aborted else ""
    print(f"{name:16s} {trace.iterations:7d} {trace.gamma[-1]:9.4f} "
          f"{trace.fix_res[-1]:10.2e} {trace.rel_err_x[-1]:10.2e} "
          f"{trace.rel_err_f[-1]:10.2e} {note}")

print(f"\ntraces written to {OUT}/ (columns: {CSV_HEADER})")
