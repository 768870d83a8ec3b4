"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The desk-scale problems are seeded, so every run is reproducible.
"""

import time

import numpy as np
import pytest

import relsplit as rs
from relsplit import graph as graphmod, relocator
from relsplit.driver import RunConfig, run, run_davis_yin
from relsplit.engine import apply_T
from relsplit.problems import (gen_elastic_net, gen_lasso, objective,
                               reference_solution, split_elastic, split_lasso)
from relsplit.propsuites import (graph_split, kappa_scheme, relocator_axiom_checks,
                                 small_elastic_setup, small_lasso_setup,
                                 suite_pinv_closed_forms, suite_recycling,
                                 suite_resolvent_identity, suite_scheme_validity)
from relsplit.schedule import ScheduleSpec, positive_variation
from relsplit.scheme import eta, mu

DESK_LASSO = dict(q=50, d=100, seed=2, spectrum=(0.4, 0.6), lam=1e-3, u=50.0)
DESK_ELASTIC = dict(q=60, d=80, seed=11, n_corr=4, noise_sd=0.01, lam1=1e-2, lam2=1e-2)
LASSO_BUDGET = 50_000
SAFEGUARD_RULES = ("norm-ratio", "accel", "harmonic")


def report(num, name, detail=""):
    print(f"\nACCEPTANCE {num:2d} [{name}]: PASS {detail}")


@pytest.fixture(scope="module")
def desk_lasso():
    prob = gen_lasso(**DESK_LASSO)
    split = split_lasso(prob)
    ref = reference_solution(prob, budget=LASSO_BUDGET)
    assert not ref.flagged
    return prob, split, ref


@pytest.fixture(scope="module")
def desk_lasso_runs(desk_lasso):
    """Constant gamma = 1/L plus the three safeguard rules, zero start."""
    prob, split, ref = desk_lasso
    phi = lambda x: objective(prob, x)
    z0 = np.zeros(prob.dim)
    specs = {"const-1L": ScheduleSpec(variant="constant", gamma=1.0 / split.beta)}
    specs.update({f"fpr-{rule}": ScheduleSpec(variant="safeguard", t_rule=rule)
                  for rule in SAFEGUARD_RULES})
    s = kappa_scheme(graphmod.SEQUENTIAL, 2)
    t0 = time.monotonic()
    traces = {}
    for name, spec in specs.items():
        cfg = RunConfig(scheme=s, problem=split, relocator=relocator.DAVIS_YIN, schedule=spec,
                        max_iters=LASSO_BUDGET, fix_res_tol=1e-11,
                        record_every=1, objective=phi, reference=(ref.x, ref.phi))
        traces[name] = run_davis_yin(cfg, z0)
    return traces, time.monotonic() - t0


def test_criterion_1_resolvent_relocation_identity():
    t0 = time.monotonic()
    failures = suite_resolvent_identity(trials=1000, seed=0)
    elapsed = time.monotonic() - t0
    assert failures == []
    assert elapsed < 1.0
    report(1, "resolvent relocation identity", f"(1000 trials in {elapsed:.2f}s)")


def test_criterion_2_scheme_validity():
    t0 = time.monotonic()
    failures = suite_scheme_validity()
    elapsed = time.monotonic() - t0
    assert failures == []
    assert elapsed < 1.0
    report(2, "scheme validity n=2..8, all kinds", f"({elapsed:.2f}s)")


def test_criterion_3_mu_consistency():
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    for beta in (1.0, 2.2155115176134865, 7.5):
        assert abs(mu(s, beta) - beta) <= 1e-12 * beta
    report(3, "mu equals beta on the two-node chain")


def test_criterion_4_closed_form_pseudoinverses():
    failures = suite_pinv_closed_forms()
    assert failures == []
    report(4, "closed-form incidence pseudoinverses n=2..8")


def test_criterion_5_relocator_axioms():
    t0 = time.monotonic()
    s, split, _ = small_lasso_setup(3)
    failures = relocator_axiom_checks(s, split, relocator.DAVIS_YIN, 0.8 / split.beta)
    s2, split2, _ = small_elastic_setup(5, kind=graphmod.SEQUENTIAL)
    failures += relocator_axiom_checks(s2, split2, graphmod.SEQUENTIAL,
                                       0.8 / mu(s2, split2.beta))
    elapsed = time.monotonic() - t0
    assert failures == []
    assert elapsed < 60.0
    report(5, "relocator axioms at approximate fixed points", f"({elapsed:.1f}s)")


def test_criterion_6_recycling_and_eval_counts():
    failures = suite_recycling(trials=500, seed=1)
    assert failures == []
    # instrumented counters: n resolvent evaluations per iteration for the
    # cheap kinds (n*(K+1) + 1 in total), 2n for the general relocator
    n, iters = 3, 40
    s = kappa_scheme(graphmod.SEQUENTIAL, n)
    split = graph_split(n, seed=6)
    z0 = np.full((n - 1, split.dim), 0.3)
    counts = {}
    for kind in (graphmod.SEQUENTIAL, relocator.GENERAL):
        cfg = RunConfig(scheme=s, problem=split, relocator=kind,
                        schedule=ScheduleSpec(variant="safeguard", t_rule="harmonic"),
                        max_iters=iters, fix_res_tol=1e-16)
        counts[kind] = run(cfg, z0).resolvent_evals
    assert counts[graphmod.SEQUENTIAL] == n * iters + 1
    assert counts[relocator.GENERAL] == 2 * n * iters
    report(6, "recycling identity and per-iteration cost",
           f"(cheap {counts[graphmod.SEQUENTIAL]} vs general {counts[relocator.GENERAL]} evals)")


def test_criterion_7_empirical_lipschitz():
    rng = np.random.default_rng(2)
    setups = []
    s, split, _ = small_lasso_setup(3)
    setups.append((relocator.DAVIS_YIN, s, split))
    setups.append((relocator.GENERAL, s, split))
    for kind in graphmod.CANONICAL_KINDS:
        sk, sp, _ = small_elastic_setup(4, kind=kind)
        setups.append((kind, sk, sp))
    setups.append((relocator.GENERAL, *setups[2][1:]))
    for kind, s, split in setups:
        gamma = 0.5 / max(split.beta, 1.0)
        for _ in range(1000):
            delta = float(gamma * np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            lip = rs.lipschitz_constant(kind, s, delta, gamma, split.beta)
            z, w = rng.normal(0.0, 3.0, size=(2, s.m, split.dim))
            qz = rs.relocate(kind, s, split, delta, gamma, z)
            qw = rs.relocate(kind, s, split, delta, gamma, w)
            assert np.linalg.norm(qz - qw) <= lip * np.linalg.norm(z - w) + 1e-10
    # the Davis-Yin constant is exactly delta/gamma + |1 - delta/gamma|
    for gamma, delta in ((0.4, 0.8), (1.0, 0.25), (0.3, 0.3)):
        got = rs.lipschitz_constant(relocator.DAVIS_YIN, setups[0][1], delta, gamma, 1.0)
        assert got == delta / gamma + abs(1.0 - delta / gamma)
    report(7, "empirical Lipschitz bounds, 1000 pairs per kind")


def test_criterion_8_algorithm_one_equivalence(desk_lasso, iterates):
    prob, split, _ = desk_lasso
    rng = np.random.default_rng(8)
    z0 = rng.standard_normal(prob.dim)
    s = kappa_scheme(graphmod.SEQUENTIAL, 2)
    worst = 0.0
    for spec in (ScheduleSpec(variant="constant", gamma=1.0 / split.beta),
                 ScheduleSpec(variant="safeguard", t_rule="norm-ratio")):
        # one config drives both loops
        cfg = RunConfig(scheme=s, problem=split, relocator=relocator.DAVIS_YIN, schedule=spec,
                        fix_res_tol=1e-16)
        _, xs_alg, zs_alg = iterates(run_davis_yin, cfg, z0, 100)
        _, xs_eng, zs_eng = iterates(run, cfg, z0[None, :], 100)
        assert len(xs_alg) == len(xs_eng) == 100
        for xa, xe, za, ze in zip(xs_alg, xs_eng, zs_alg, zs_eng):
            worst = max(worst, float(np.max(np.abs(xa - xe))),
                        float(np.max(np.abs(za - ze.ravel()))))
        assert worst <= 1e-12
    report(8, "Algorithm-1 equals the two-node engine run",
           f"(max gap {worst:.2e} over 100 iterations)")


def test_criterion_9_desk_scale_convergence(desk_lasso_runs):
    t0 = time.monotonic()
    traces, lasso_elapsed = desk_lasso_runs
    for name, trace in traces.items():
        assert trace.aborted is None, name
        hit = next((k for k, e in zip(trace.k, trace.rel_err_f) if e <= 1e-6), None)
        assert hit is not None and hit <= LASSO_BUDGET, (name, trace.rel_err_f[-1])
        # qualitative trend: the error at the end beats the early-run error
        early = trace.rel_err_f[min(LASSO_BUDGET // 10, len(trace.rel_err_f) - 1)]
        assert trace.rel_err_f[-1] < early
    prob = gen_elastic_net(**DESK_ELASTIC)
    split = split_elastic(prob)
    finals = []
    for kind in graphmod.CANONICAL_KINDS:
        s = kappa_scheme(kind, 3)
        cfg = RunConfig(scheme=s, problem=split, relocator=kind,
                        schedule=ScheduleSpec(variant="safeguard", t_rule="norm-ratio"),
                        max_iters=100_000, fix_res_tol=1e-8)
        trace = run(cfg, np.zeros((2, prob.dim)))
        assert trace.converged, kind
        assert trace.fix_res[-1] <= 1e-8
        assert trace.consensus[-1] <= 1e-7
        finals.append((kind, trace.iterations))
    elapsed = lasso_elapsed + (time.monotonic() - t0)
    assert elapsed < 300.0
    report(9, "desk-scale convergence",
           f"(lasso rules hit 1e-6; elastic {finals}; {elapsed:.0f}s total)")


def test_criterion_10_stepsize_discipline(desk_lasso, desk_lasso_runs):
    prob, split, _ = desk_lasso
    traces, _ = desk_lasso_runs
    mu_value = split.beta
    for rule in SAFEGUARD_RULES:
        trace = traces[f"fpr-{rule}"]
        sched = ScheduleSpec(variant="safeguard", t_rule=rule).build(mu_value, split.beta)
        gammas = trace.gamma
        assert all(sched.gamma_min <= g <= sched.gamma_max for g in gammas)
        bound = (sched.gamma_max - sched.gamma_min) * sched.zeta_sum(len(gammas))
        assert positive_variation(gammas) <= bound + 1e-12
    report(10, "stepsize discipline",
           "(gamma in [gamma_min, gamma_max]; positive variation within the zeta bound)")


def test_criterion_11_conical_averagedness(desk_lasso):
    prob, split, _ = desk_lasso
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    mu_value = mu(s, split.beta)
    gamma, theta = 1.0 / mu_value, 1.0
    eta_value = eta(theta, gamma, mu_value)
    rng = np.random.default_rng(11)
    worst = -np.inf
    for _ in range(1000):
        z, w = rng.normal(0.0, 5.0, size=(2, 1, prob.dim))
        tz, _ = apply_T(s, split, theta, gamma, z)
        tw, _ = apply_T(s, split, theta, gamma, w)
        lhs = (np.linalg.norm(tz - tw) ** 2
               + ((1.0 - eta_value) / eta_value)
               * np.linalg.norm((z - tz) - (w - tw)) ** 2)
        gap = lhs - np.linalg.norm(z - w) ** 2
        worst = max(worst, gap)
        assert gap <= 1e-8
    report(11, "conical averagedness inequality", f"(worst slack {worst:.2e})")
