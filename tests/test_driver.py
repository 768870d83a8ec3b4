import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from relsplit import config, driver, operators, problems, schedule
from relsplit import graph as graphmod
from relsplit.driver import RunConfig, default_z0, run, run_davis_yin, run_grid
from relsplit.engine import SplitProblem, apply_T, first_block, residuals, sweep
from relsplit.errors import ParameterError, StructuralError
from relsplit.operators import LeastSquaresGrad, L1Subdiff, ResolventOp, ZeroForward, ZeroOp
from relsplit.propsuites import (converge, graph_split, kappa_scheme,
                                 small_elastic_setup, small_lasso_setup)
from relsplit.relocator import DAVIS_YIN, GENERAL, relocate
from relsplit.schedule import ScheduleSpec, positive_variation
from relsplit.scheme import CoefficientScheme, mu


def one_d_problem():
    # min |x| + 0.5*(x - 2)^2 has the unique solution x = 1
    fwd = LeastSquaresGrad(np.eye(1), np.array([2.0]))
    return SplitProblem([L1Subdiff(1.0), ZeroOp()], [fwd], beta=fwd.beta, dim=1)


def chain_config(prob, gamma, **kwargs):
    """Constant-stepsize RunConfig of the two-node chain under the davis-yin relocator."""
    return RunConfig(scheme=kappa_scheme(graphmod.SEQUENTIAL, 2), problem=prob,
                     relocator=DAVIS_YIN, schedule=ScheduleSpec(variant="constant", gamma=gamma),
                     **kwargs)


def test_one_dimensional_analytic_solution():
    cfg = chain_config(one_d_problem(), 1.0, max_iters=20000, fix_res_tol=1e-12)
    for loop in (run_davis_yin, run):
        trace = loop(cfg, np.zeros((1, 1)))
        assert trace.converged and abs(trace.x_final[0] - 1.0) <= 1e-6, loop.__name__


def test_zero_operators_are_stationary():
    prob = SplitProblem([ZeroOp(), ZeroOp()], [ZeroForward()], beta=0.0, dim=3)
    z0 = np.array([1.0, -2.0, 3.0])
    trace = run_davis_yin(chain_config(prob, 0.7, max_iters=50, fix_res_tol=1e-14), z0)
    assert trace.converged and trace.iterations == 1
    assert np.array_equal(trace.z_final, z0) and np.array_equal(trace.x_final, z0)


def test_constant_gamma_recovers_classical_davis_yin():
    # with gamma_{k+1} = gamma_k the relocation coefficient vanishes: z_{k+1} = w_k
    prob = one_d_problem()
    (a1, a2), (fwd,) = prob.resolvents, prob.forwards
    gamma = 0.8
    lam = (2.0 - gamma * prob.beta - driver.MARGIN_FLOOR) / 2.0   # co-adjusted, theta = 1
    z0 = np.array([3.0])
    cfg = chain_config(prob, gamma, max_iters=1, fix_res_tol=1e-16)
    trace = run_davis_yin(cfg, z0)
    assert (trace.lam, trace.theta) == ([lam], [1.0])
    x = a1.resolve(gamma, z0)
    y = a2.resolve(gamma, 2.0 * x - z0 - gamma * fwd.apply(x))
    w = z0 + lam * (y - x)
    assert np.array_equal(trace.z_final, w)


def test_fixed_point_stability():
    s, split, _ = small_lasso_setup(3)
    gamma = 0.8 / split.beta
    base = converge(s, split, DAVIS_YIN, gamma, fix_res_tol=1e-10)
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN,
                    schedule=ScheduleSpec(variant="constant", gamma=gamma),
                    max_iters=100, fix_res_tol=1e-9)
    trace = run(cfg, base.z_final)
    assert trace.converged and trace.iterations == 1
    assert trace.fix_res[-1] <= 10.0 * base.fix_res[-1]


def test_constant_schedule_is_krasnoselskii_mann(iterates):
    # with gamma fixed the relocation is the identity and the run equals the
    # plain relaxed fixed-point iteration on T, at the co-adjusted lambda
    s, split, _ = small_lasso_setup(5)
    gamma = 0.9 / split.beta
    lam = (2.0 - gamma * mu(s, split.beta) - driver.MARGIN_FLOOR) / 2.0
    rng = np.random.default_rng(0)
    z0 = rng.standard_normal((1, split.dim))
    cfg = RunConfig(scheme=s, problem=split, relocator=GENERAL,
                    schedule=ScheduleSpec(variant="constant", gamma=gamma), fix_res_tol=1e-14)
    trace, _, zs = iterates(run, cfg, z0, 60)
    assert set(trace.lam) == {lam} and set(trace.theta) == {1.0}
    z = z0.copy()
    for k in range(60):
        assert np.max(np.abs(zs[k] - z)) <= 1e-12
        tz, _ = apply_T(s, split, 1.0, gamma, z)
        z = (1.0 - lam) * z + lam * tz
    assert not trace.converged


def test_davis_yin_equivalence_with_safeguard(iterates):
    s, split, _ = small_lasso_setup(7)
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN,
                    schedule=ScheduleSpec(variant="safeguard", t_rule="norm-ratio"),
                    fix_res_tol=1e-16)
    rng = np.random.default_rng(1)
    z0 = rng.standard_normal(split.dim)
    t_alg, xs_alg, zs_alg = iterates(run_davis_yin, cfg, z0, 100)
    t_eng, xs_eng, zs_eng = iterates(run, cfg, z0[None, :], 100)
    assert len(xs_alg) == len(xs_eng) == 100
    for xa, xe, za, ze, ga, ge in zip(xs_alg, xs_eng, zs_alg, zs_eng,
                                      t_alg.gamma, t_eng.gamma):
        assert np.max(np.abs(xa - xe)) <= 1e-12
        assert np.max(np.abs(za - ze.ravel())) <= 1e-12
        assert abs(ga - ge) <= 1e-14



@pytest.mark.parametrize("iters", [5, 30])
def test_x_final_is_the_last_rows_iterate(iters, iterates):
    # a run that stops at max_iters has relocated once more after its last
    # row; both loops still report that row's shadow iterate as x_final
    s, split, _ = small_lasso_setup(7)
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN,
                    schedule=ScheduleSpec(variant="safeguard", t_rule="norm-ratio"),
                    fix_res_tol=1e-16)
    z0 = np.random.default_rng(1).standard_normal(split.dim)
    t_alg, xs_alg, _ = iterates(run_davis_yin, cfg, z0, iters)
    t_eng, xs_eng, _ = iterates(run, cfg, z0[None, :], iters)
    for trace, xs in ((t_alg, xs_alg), (t_eng, xs_eng)):
        assert trace.iterations == iters and not trace.converged
        assert np.array_equal(trace.x_final, xs[-1])
    assert np.max(np.abs(t_alg.x_final - t_eng.x_final)) <= 1e-12
    assert np.max(np.abs(t_alg.z_final - t_eng.z_final.ravel())) <= 1e-12


def test_resolvent_eval_counts():
    # cheap kinds: n*(K+1) + 1 evaluations through iteration K; general: 2n*(K+1)
    n, iters = 4, 25
    s = kappa_scheme(graphmod.INWARD_STAR, n)
    split = graph_split(n, seed=2)
    z0 = default_z0(s, split, seed=3)
    for kind, expected in ((graphmod.INWARD_STAR, n * iters + 1), (GENERAL, 2 * n * iters)):
        cfg = RunConfig(scheme=s, problem=split, relocator=kind,
                        schedule=ScheduleSpec(variant="safeguard", t_rule="harmonic"),
                        max_iters=iters, fix_res_tol=1e-16)
        trace = run(cfg, z0)
        assert not trace.converged and trace.aborted is None
        assert trace.resolvent_evals == expected


def test_trace_reproducibility_and_csv(tmp_path):
    s, split, _ = small_elastic_setup(4)
    cfg_kwargs = dict(scheme=s, problem=split, relocator=graphmod.SEQUENTIAL,
                      schedule=ScheduleSpec(variant="safeguard", t_rule="norm-ratio"),
                      max_iters=300, fix_res_tol=1e-12,
                      record_every=7)
    z0 = default_z0(s, split, seed=11)
    out = []
    for i in range(2):
        trace = run(RunConfig(**cfg_kwargs), z0)
        path = tmp_path / f"t{i}.csv"
        trace.to_csv(path)
        out.append(path.read_bytes())
    assert out[0] == out[1]
    header = out[0].decode().splitlines()[0]
    assert header == "k,gamma,theta,lambda,fix_res,consensus,objective,rel_err_x,rel_err_f,sweeps"
    # 17 significant digits round-trip
    row = out[0].decode().splitlines()[1].split(",")
    assert float(row[1]) == run(RunConfig(**cfg_kwargs), z0).gamma[0]


def test_consensus_tracks_tolerance_at_convergence():
    s, split, _ = small_elastic_setup(8, kind=graphmod.OUTWARD_STAR)
    cfg = RunConfig(scheme=s, problem=split, relocator=graphmod.OUTWARD_STAR,
                    schedule=ScheduleSpec(variant="safeguard", t_rule="norm-ratio"),
                    max_iters=100000, fix_res_tol=1e-9)
    trace = run(cfg, default_z0(s, split))
    assert trace.converged
    assert trace.consensus[-1] <= 10.0 * cfg.fix_res_tol


def test_safeguard_run_positive_variation_bound():
    s, split, _ = small_lasso_setup(9)
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN,
                    schedule=ScheduleSpec(variant="safeguard", t_rule="norm-ratio"),
                    max_iters=4000, fix_res_tol=1e-15,
                    record_every=1)
    trace = run(cfg, default_z0(s, split, seed=5))
    sched = cfg.schedule.build(mu(s, split.beta), split.beta)
    spread = sched.gamma_max - sched.gamma_min
    assert positive_variation(trace.gamma) <= spread * sched.zeta_sum(len(trace.gamma)) + 1e-12
    assert all(sched.gamma_min <= g <= sched.gamma_max for g in trace.gamma)


def test_safeguard_run_lipschitz_series_is_small():
    # the summability hypothesis sum_k (L_{k+1<-k} - 1) < inf, realized by the
    # safeguard schedule; for the chain the constant is gamma+/gamma + |1 - gamma+/gamma|
    from relsplit.relocator import lipschitz_series
    s, split, _ = small_lasso_setup(13)
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN,
                    schedule=ScheduleSpec(variant="safeguard", t_rule="norm-ratio"),
                    max_iters=3000, fix_res_tol=1e-15,
                    record_every=1)
    trace = run(cfg, default_z0(s, split, seed=7))
    total = lipschitz_series(DAVIS_YIN, s, trace.gamma, split.beta)
    sched = cfg.schedule.build(mu(s, split.beta), split.beta)
    # L - 1 <= 2|dgamma|/gamma_min for the chain constant, and sum |dgamma|
    # is bounded by the zeta series
    bound = 2.0 * (sched.gamma_max - sched.gamma_min) * sched.zeta_sum(3000) / sched.gamma_min
    assert 0.0 <= total <= bound


def test_margin_violation_aborts_with_partial_trace():
    # gamma*mu in [2 - MARGIN_FLOOR, 2) leaves no positive lambda: a constant stepsize
    # there aborts at k = 0 (a safeguard stays at gamma*mu <= 2 * SAFETY, below the band)
    s, split, _ = small_lasso_setup(10)
    spec = ScheduleSpec(variant="constant", gamma=1.9995 / mu(s, split.beta))
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN, schedule=spec,
                    max_iters=100, fix_res_tol=1e-12)
    trace = run(cfg, default_z0(s, split, seed=3))
    assert trace.aborted.startswith("no positive relaxation keeps the margin at k=0 ")
    assert trace.aborted.endswith("gamma*mu too close to 2)")
    assert trace.iterations == 0 == len(trace.k) and not trace.converged


def test_initial_gamma_out_of_range_raises():
    s, split, _ = small_lasso_setup(11)
    mu_value = mu(s, split.beta)
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN,
                    schedule=ScheduleSpec(variant="constant", gamma=2.5 / mu_value),
                    max_iters=10, fix_res_tol=1e-12)
    with pytest.raises(ParameterError):
        run(cfg, default_z0(s, split))


def test_run_config_validation():
    s, split, _ = small_lasso_setup(12)
    with pytest.raises(ParameterError):
        RunConfig(scheme=s, problem=split, max_iters=0)
    with pytest.raises(ParameterError):
        RunConfig(scheme=s, problem=split, relocator="warp")
    raw = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    from relsplit.errors import StructuralError
    with pytest.raises(StructuralError):
        RunConfig(scheme=raw, problem=split, relocator=DAVIS_YIN)
    # an explicit scheme must pass the six conditions; the error names the failed ones
    chain = dict(d=[1.0, 1.0], M=[[1.0], [-1.0]], N=[[0.0, 0.0], [2.0, 0.0]], P=[[0.0], [1.0]],
                 R=[[1.0, 0.0]])
    RunConfig(scheme=CoefficientScheme(**chain), problem=split)
    for broken, failed in ((dict(chain, N=[[0.0, 0.0], [1.5, 0.0]]), r"\(e\)"),
                           (dict(chain, M=[[1.0], [-0.5]]), r"\(a\).*\(d\)")):
        with pytest.raises(StructuralError, match=failed):
            RunConfig(scheme=CoefficientScheme(**broken), problem=split)


BAD_LIMITS = [dict(max_iters=0), dict(max_iters=2.5), dict(max_iters="5"), dict(max_iters=True),
              dict(record_every=0), dict(record_every=1.5), dict(fix_res_tol=0.0),
              dict(fix_res_tol=-1.0), dict(fix_res_tol=float("nan")),
              dict(fix_res_tol=float("inf"))]


def test_limits_are_checked_in_both_loops():
    # both loops read their limits from the RunConfig, which checks them
    s, split, _ = small_lasso_setup(12)
    spec = ScheduleSpec(variant="constant", gamma=0.5 / split.beta)
    for bad in BAD_LIMITS:
        limits = dict(dict(max_iters=3, fix_res_tol=1e-10, record_every=1), **bad)
        with pytest.raises(ParameterError):
            RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN, schedule=spec, **limits)
    # whole numbers written as floats (a JSON 1e3) are counts
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN, schedule=spec,
                    max_iters=3.0, fix_res_tol=1e-16, record_every=np.int64(2))
    assert (cfg.max_iters, cfg.record_every) == (3, 2) and type(cfg.max_iters) is int
    for loop in (run_davis_yin, run):
        trace = loop(cfg)
        assert trace.iterations == 3 and trace.k == [0, 2], loop.__name__


class CountingOp(ResolventOp):
    """Wraps a resolvent and counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def resolve(self, gamma, v):
        self.calls += 1
        return self.inner.resolve(gamma, v)


class NanOp(ResolventOp):
    """A broken resolvent: every output is NaN."""

    def resolve(self, gamma, v):
        return np.full(np.shape(v), np.nan)


def test_binding_mismatch_raises_before_any_resolvent():
    s, split, _ = small_lasso_setup(14)
    counters = [CountingOp(op) for op in split.resolvents]
    fwd = split.forwards[0]
    spec = ScheduleSpec(variant="constant", gamma=0.5 / split.beta)
    bad = [
        (SplitProblem(counters + [CountingOp(ZeroOp())], [fwd], split.beta, split.dim), None),
        (SplitProblem(counters, [fwd, fwd], split.beta, split.dim), None),
        (SplitProblem(counters, [fwd], split.beta, split.dim), np.zeros((2, split.dim))),
        (SplitProblem(counters, [fwd], split.beta, split.dim), np.zeros((1, split.dim + 1))),
    ]
    for kind in (DAVIS_YIN, GENERAL):
        for prob, z0 in bad:
            cfg = RunConfig(scheme=s, problem=prob, relocator=kind, schedule=spec,
                            max_iters=5)
            with pytest.raises(StructuralError):
                run(cfg, z0)
            assert all(op.calls == 0 for op in prob.resolvents)


def test_eval_counts_when_converging_early():
    # a run that converges at iteration K (K iterations in the trace) skips
    # that iteration's relocation work
    s, split, _ = small_lasso_setup(15)
    gamma = 0.8 / split.beta
    for kind, n, expected in ((DAVIS_YIN, 2, lambda it: 2 * it + 1 - 1),
                              (GENERAL, 2, lambda it: 2 * 2 * it - 2)):
        trace = converge(s, split, kind, gamma, fix_res_tol=1e-8)
        assert trace.converged and trace.iterations > 1
        assert trace.resolvent_evals == expected(trace.iterations)
    se, spe, _ = small_elastic_setup(16)
    gamma = 0.8 / mu(se, spe.beta)
    for kind, expected in ((graphmod.SEQUENTIAL, lambda it: 3 * it + 1 - 1),
                           (GENERAL, lambda it: 2 * 3 * it - 3)):
        trace = converge(se, spe, kind, gamma, fix_res_tol=1e-8)
        assert trace.converged and trace.iterations > 1
        assert trace.resolvent_evals == expected(trace.iterations)
    trace = run_davis_yin(RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN,
                                    schedule=ScheduleSpec(variant="constant",
                                                          gamma=0.8 / split.beta),
                                    max_iters=100000, fix_res_tol=1e-8))
    assert trace.converged and trace.iterations > 1
    assert trace.resolvent_evals == 1 + 2 * trace.iterations - 1


def test_run_davis_yin_rejects_other_configs():
    # only a davis-yin config whose problem binds two resolvents and one forward
    s, split, _ = small_lasso_setup(20)
    counters = [CountingOp(op) for op in split.resolvents]
    spec = ScheduleSpec(variant="constant", gamma=0.5 / split.beta)
    good = SplitProblem(counters, split.forwards, split.beta, split.dim)
    three = SplitProblem(counters + [CountingOp(ZeroOp())], split.forwards, split.beta, split.dim)
    for cfg, z0 in ((RunConfig(scheme=s, problem=good, relocator=GENERAL, schedule=spec), None),
                    (RunConfig(scheme=s, problem=three, relocator=DAVIS_YIN, schedule=spec), None),
                    (RunConfig(scheme=s, problem=good, relocator=DAVIS_YIN, schedule=spec),
                     np.zeros((2, split.dim))),
                    (RunConfig(scheme=s, problem=good, relocator=DAVIS_YIN, schedule=spec),
                     np.zeros(split.dim + 1))):
        with pytest.raises(StructuralError):
            run_davis_yin(cfg, z0)
    assert all(op.calls == 0 for op in three.resolvents)


@pytest.mark.parametrize("kind", [DAVIS_YIN, GENERAL])
def test_nonfinite_resolvent_aborts_run(kind):
    s, split, _ = small_lasso_setup(17)
    prob = SplitProblem([split.resolvents[0], NanOp()], split.forwards, split.beta, split.dim)
    cfg = RunConfig(scheme=s, problem=prob, relocator=kind,
                    schedule=ScheduleSpec(variant="constant", gamma=0.5 / split.beta),
                    max_iters=200, record_every=50)
    trace = run(cfg, default_z0(s, prob, seed=1))
    assert trace.aborted is not None and trace.aborted.startswith("non-finite")
    assert trace.iterations == 1 and not trace.converged
    assert trace.k == [0] and np.isnan(trace.fix_res[-1])


def test_nonfinite_resolvent_aborts_run_davis_yin():
    s, split, _ = small_lasso_setup(18)
    for a1, a2 in ((NanOp(), split.resolvents[1]), (split.resolvents[0], NanOp())):
        prob = SplitProblem([a1, a2], split.forwards, split.beta, split.dim)
        cfg = RunConfig(scheme=s, problem=prob, relocator=DAVIS_YIN,
                        schedule=ScheduleSpec(variant="constant", gamma=0.5 / split.beta),
                        max_iters=200, record_every=50)
        trace = run_davis_yin(cfg, np.ones(split.dim))
        assert trace.aborted is not None and trace.aborted.startswith("non-finite")
        assert trace.iterations == 1 and not trace.converged
        assert np.isnan(trace.fix_res[-1])


@pytest.mark.parametrize("kind", [graphmod.SEQUENTIAL, GENERAL])
def test_run_matches_public_step_functions(kind, iterates):
    # the run's precomputed plan does the same float operations as the public
    # sweep / first_block / relocate wrappers, so the iterates agree bit for bit
    s, split, _ = small_elastic_setup(19)
    spec = ScheduleSpec(variant="safeguard", t_rule="norm-ratio")
    iters = 30
    z0 = default_z0(s, split, seed=4)
    cfg = RunConfig(scheme=s, problem=split, relocator=kind, schedule=spec, fix_res_tol=1e-16)
    trace, _, zs = iterates(run, cfg, z0, iters)
    mu_value = mu(s, split.beta)
    sched = spec.build(mu_value, split.beta)
    z, x1, gamma = z0, None, sched.gamma
    for k in range(iters):
        assert np.array_equal(zs[k], z)
        x = sweep(s, split, gamma, z, x1=x1)
        fix_res, consensus = residuals(s, x)
        assert (trace.fix_res[k], trace.consensus[k]) == (fix_res, consensus)
        lam = (2.0 - gamma * mu_value - driver.MARGIN_FLOOR) / 2.0
        w = z - lam * (s.M.T @ x)
        if kind == GENERAL:
            sww = sweep(s, split, gamma, w)
            x1w = sww[0]
        else:
            sww, x1w = None, first_block(s, split, gamma, w)
        gamma_next = sched.next_gamma(float(np.linalg.norm(x1w)),
                                      float(np.linalg.norm(x1w[None, :] - w)))
        z = relocate(kind, s, split, gamma_next, gamma, w, sweep=sww, x1=x1w)
        x1 = x1w if kind != GENERAL else None
        gamma = gamma_next
    assert np.array_equal(trace.z_final, z)


@pytest.mark.parametrize("max_iters", [1, 2, 7, 30])
def test_wide_objective_reuses_the_forward_residual_exactly(max_iters, monkeypatch):
    # q = 20, d = 60: the factored form, whose residual at x_1 the recorded objective reuses
    hits = []
    residual = LeastSquaresGrad.residual

    def counted(self, x):
        r = residual(self, x)
        hits.append(self._memo is not None and r is self._memo[1])
        return r

    monkeypatch.setattr(LeastSquaresGrad, "residual", counted)
    doc = {"graph": {"kind": "sequential", "n": 3},
           "problem": {"kind": "elastic-net", "q": 20, "d": 60, "seed": 11, "n_corr": 4},
           "relocator": "general",
           "run": {"max_iters": max_iters, "fix_res_tol": 1e-12, "record_every": 1}}
    cfg, z0, _, _ = config.build_run(doc)
    prob = config.build_problem(doc["problem"])[0]
    trace = run(cfg, z0)
    assert cfg.problem.forwards[0]._gram is None
    assert len(trace.objective) == trace.iterations == max_iters
    assert trace.objective[-1] == problems.objective(prob, trace.x_final)
    assert hits == [True] * max_iters


def stack_of_three(cfg, z0):
    """The traces of ``run_grid`` on three copies of ``cfg``, which it runs as one stack."""
    return run_grid([cfg] * 3, z0)


@pytest.mark.parametrize("spec", [ScheduleSpec(variant="constant")]
                         + [ScheduleSpec(variant="safeguard", t_rule=rule)
                            for rule in ("harmonic", "accel", "norm-ratio")],
                         ids=["constant", "harmonic", "accel", "norm-ratio"])
@pytest.mark.parametrize("kind,loop", [(GENERAL, run), (DAVIS_YIN, run),
                                       (DAVIS_YIN, run_davis_yin), (GENERAL, stack_of_three),
                                       (DAVIS_YIN, stack_of_three)],
                         ids=["general", "cheap", "standalone", "general-stack", "cheap-stack"])
def test_iteration_forms_only_what_the_run_reads(monkeypatch, spec, kind, loop):
    # ||x_1(w)|| and ||x_1(w) - w|| only for the norm-ratio rule, the consensus
    # only on a recorded row, in a single run and in each lane of a stack; the
    # engine's generated advance forms the pairs (one per lane), the standalone
    # loop's calls driver.norm
    formed = {"norm": 0, "consensus": 0}

    def counting(key, fn):
        def spy(*args):
            formed[key] += 1
            return fn(*args)
        return spy

    def counting_pairs(advance):
        def spy(gamma, lam, reads):
            pairs = advance(gamma, lam, reads)   # a stack's reads lists its lanes
            assert bool(pairs) == bool(reads)
            formed["norm"] += 2 * (len(pairs) if isinstance(gamma, list) else bool(pairs))
            return pairs
        return spy

    init = driver._EngineStep.__init__

    def engine_init(self, *args):
        init(self, *args)
        self.advance = counting_pairs(self.advance)

    monkeypatch.setattr(driver, "norm", counting("norm", driver.norm))
    monkeypatch.setattr(driver._EngineStep, "__init__", engine_init)
    for step in (driver._EngineStep, driver._DavisYinStep):   # row forms the consensus
        monkeypatch.setattr(step, "row", counting("consensus", step.row))
    s, split, _ = small_lasso_setup(21)
    cfg = RunConfig(scheme=s, problem=split, relocator=kind, schedule=spec, max_iters=40,
                    record_every=7, fix_res_tol=1e-300)
    traces = loop(cfg, default_z0(s, split, seed=2))
    traces = traces if loop is stack_of_three else [traces]
    for trace in traces:
        assert trace.iterations == 40 and trace.aborted is None
        assert len(trace.k) == 7   # k = 0, 7, ..., 35 and the last, 39
    assert formed["consensus"] == 7 * len(traces)
    norms = 2 * 40 if spec.variant == "safeguard" and spec.t_rule == "norm-ratio" else 0
    fix_res = 40 if loop is run_davis_yin else 0   # the standalone loop's ||x_k - y_k||
    assert formed["norm"] == (norms + fix_res) * len(traces)


CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def assert_same_trace(got, want):
    """Every Trace field equal; lists and arrays by ``np.array_equal``, NaN equal to NaN."""
    for f in dataclasses.fields(driver.Trace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, (list, np.ndarray)) or isinstance(b, (list, np.ndarray)):
            assert a is not None and b is not None, f.name
            assert np.array_equal(a, b, equal_nan=True), f.name
        else:
            assert a == b, f.name


def run_or_abort(cfg, z0):
    """``run``'s trace, or the abort a refused schedule records (as ``relsplit bench`` does)."""
    try:
        return run(cfg, z0)
    except ParameterError as exc:
        return driver.Trace(aborted=str(exc))


def bench_groups(doc):
    """[(configs, z0)] per graph of a bench spec, each config with the spec's reference."""
    groups, prob, budget, _ = config.build_bench(doc)
    ref = problems.reference_solution(prob, budget)
    for _, cfgs, _ in groups:
        for cfg in cfgs:
            cfg.reference = (ref.x, ref.phi)
    return [(cfgs, z0) for _, cfgs, z0 in groups]


def lasso_grid_spec():
    # the lasso-grid benchmark workload at seed 0: six methods, no lane stops
    return dict(json.loads((CONFIGS / "bench_lasso.json").read_text()), budget=1000)


def elastic_grid_spec():
    # five methods per tree to 1e-6 on a small instance: two of them refused at build on
    # the inward star, lanes that converge at different k, the outward star's last two
    # lanes handed off to the single loop, and lanes that leave at the budget
    doc = json.loads((CONFIGS / "bench_elastic_topologies.json").read_text())
    del doc["methods"]
    doc["problem"].update(q=30, d=20)
    return dict(doc, budget=3300, fix_res_tol=1e-6)


def out_of_range_spec():
    # a constant gamma outside (0, 2/mu) never joins the stack
    methods = [{"name": "big", "schedule": {"variant": "constant", "gamma": 1e9}}]
    methods += [{"name": n, "schedule": {"variant": "safeguard", "t_rule": n}}
                for n in ("norm-ratio", "harmonic", "accel")]
    return dict(lasso_grid_spec(), budget=300, methods=methods)


def two_method_spec():
    # the elastic-topologies workload's two methods per tree: too few lanes to stack
    doc = json.loads((CONFIGS / "bench_elastic_topologies.json").read_text())
    doc["problem"].update(q=30, d=20)
    return dict(doc, budget=3300, fix_res_tol=1e-6)


def general_spec():
    # five methods per tree under the general relocator, stacked as the cheap kinds are
    return dict(elastic_grid_spec(), relocator="general", budget=600)


def general_to_tolerance_spec():
    # the general relocator to 1e-6: lanes that converge at different k, and lanes
    # handed off to the single loop
    return dict(elastic_grid_spec(), relocator="general")


STACKED = (lasso_grid_spec, elastic_grid_spec, out_of_range_spec, general_spec,
           general_to_tolerance_spec)


@pytest.mark.parametrize("spec", [*STACKED, two_method_spec],
                         ids=["lasso-grid", "elastic-to-1e-6", "gamma-out-of-range", "general",
                              "general-to-1e-6", "two-methods"])
def test_run_grid_is_run_per_lane(spec, monkeypatch):
    resumed = []   # the iteration at which each single run starts, or a lane resumes
    calls = [0]    # run_grid's own calls of run: none, a group is built once
    iterate, single = driver._iterate, driver.run

    def spy(step, control):
        if isinstance(control, driver._RunControl):
            resumed.append(control.k)
        return iterate(step, control)

    def run_spy(cfg, z0=None):
        calls[0] += 1
        return single(cfg, z0)

    groups = bench_groups(spec())   # an elastic-net reference solve calls run
    wants = [[run_or_abort(cfg, z0) for cfg in cfgs] for cfgs, z0 in groups]
    monkeypatch.setattr(driver, "_iterate", spy)
    monkeypatch.setattr(driver, "run", run_spy)
    converged_at = set()
    for (cfgs, z0), want in zip(groups, wants):
        traces = run_grid(cfgs, z0)
        assert len(traces) == len(cfgs)
        for trace, expected in zip(traces, want):
            assert_same_trace(trace, expected)
            if trace.converged:
                converged_at.add(trace.iterations)
    assert calls[0] == 0
    if spec in (elastic_grid_spec, general_to_tolerance_spec):
        assert len(converged_at) >= 4 and any(k > 0 for k in resumed)
    elif spec not in STACKED:
        assert resumed and not any(resumed)   # every run from k = 0, none from a stack


@pytest.mark.parametrize("spec", [two_method_spec, elastic_grid_spec],
                         ids=["two-methods", "handed-off"])
def test_run_grid_builds_each_group_once(spec, monkeypatch):
    # the methods of one graph share one block plan and one mu; a stack builds one lane
    # plan too, and the lanes it hands off to the single loop reuse the block plan
    built, mus, resumed = [], [0], []
    plan_cls, mu_fn, iterate = driver.engine.SweepPlan, driver.schememod.mu, driver._iterate

    def plan_spy(s, prob, K=None, lanes=False):
        built.append(lanes)
        return plan_cls(s, prob, K, lanes)

    def mu_spy(s, beta):
        mus[0] += 1
        return mu_fn(s, beta)

    def iterate_spy(step, control):
        if isinstance(control, driver._RunControl):
            resumed.append(control.k)
        return iterate(step, control)

    groups = bench_groups(spec())   # the reference solve builds plans of its own
    monkeypatch.setattr(driver.engine, "SweepPlan", plan_spy)
    monkeypatch.setattr(driver.schememod, "mu", mu_spy)
    monkeypatch.setattr(driver, "_iterate", iterate_spy)
    for cfgs, z0 in groups:
        built.clear()
        mus[0] = 0
        run_grid(cfgs, z0)
        stacked = len(cfgs) >= driver.MIN_LANES
        assert sorted(built) == [False] + [True] * stacked and mus[0] == 1
    assert any(resumed) == (spec is elastic_grid_spec)   # lanes resumed from a stack


class NanBand(ResolventOp):
    """A resolvent whose outputs are NaN for stepsizes strictly inside (lo, hi)."""

    def __init__(self, inner, lo, hi):
        self.inner, self.lo, self.hi = inner, lo, hi

    def resolve(self, gamma, v):
        out = self.inner.resolve(gamma, v)
        return np.full(np.shape(v), np.nan) if self.lo < gamma < self.hi else out


def test_run_grid_lanes_leave_at_every_stop():
    # one lane per way a run stops; the first resolvent (called at w only, once x_1 is
    # recycled) breaks inside (1.05/mu, 1.5/mu), which norm-ratio reaches at k = 1
    s, split, _ = small_lasso_setup(23)
    m = mu(s, split.beta)
    prob = SplitProblem([NanBand(split.resolvents[0], 1.05 / m, 1.5 / m), split.resolvents[1]],
                        split.forwards, split.beta, split.dim)

    def cfg(spec, max_iters=60):
        return RunConfig(scheme=s, problem=prob, relocator=DAVIS_YIN, schedule=spec,
                         fix_res_tol=1e-300, max_iters=max_iters, record_every=7)

    const = lambda g: ScheduleSpec(variant="constant", gamma=g / m)   # noqa: E731
    cfgs = [cfg(const(0.5)), cfg(const(1.2)), cfg(ScheduleSpec(variant="safeguard")),
            cfg(const(1.9995)),
            cfg(ScheduleSpec(variant="safeguard", t_rule="harmonic"), max_iters=40),
            cfg(const(5.0)), cfg(const(0.3)), cfg(const(0.7), max_iters=25)]
    z0 = default_z0(s, prob, seed=3)
    traces = run_grid(cfgs, z0)
    for c, trace in zip(cfgs, traces):
        assert_same_trace(trace, run_or_abort(c, z0))
    assert [t.iterations for t in traces] == [60, 1, 2, 0, 3, 0, 60, 25]
    texts = [None, "non-finite fix_res = nan at k=0", "gamma_2 = nan outside",
             "no positive relaxation keeps the margin at k=0", "non-finite fix_res = nan at k=2",
             "constant gamma", None, None]
    for trace, text in zip(traces, texts):
        assert trace.aborted is None if text is None else trace.aborted.startswith(text)


def test_run_grid_refuses_runs_it_cannot_stack():
    # only a group that mixes schemes, problems or relocator kinds; a stack under the
    # general relocator, a group of fewer than MIN_LANES runs and a stack from the
    # default z0 all run
    s, split, _ = small_lasso_setup(3)
    cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN, max_iters=50)
    for other in (RunConfig(scheme=s, problem=small_lasso_setup(3)[1], relocator=DAVIS_YIN),
                  RunConfig(scheme=small_lasso_setup(3)[0], problem=split, relocator=DAVIS_YIN),
                  RunConfig(scheme=s, problem=split, relocator=GENERAL)):
        with pytest.raises(StructuralError, match="run_grid needs"):
            run_grid([cfg, cfg, other])
    general = dataclasses.replace(cfg, relocator=GENERAL)
    for cfgs in ([general] * 3, [cfg], [cfg, cfg], [cfg] * 3):
        for trace, c in zip(run_grid(cfgs), cfgs):
            assert_same_trace(trace, run(c))
    assert run_grid([]) == []


def test_lane_resolve_calls_equal_resolvent_evals(monkeypatch):
    # wrapped on the class after import, as a tracer does: every evaluation of every
    # lane is one resolve call, and a plan binds the wrapper when it is built
    calls = [0]

    def counting(fn):
        def wrapper(self, gamma, v):
            calls[0] += 1
            return fn(self, gamma, v)
        return wrapper

    for cls in (operators.L1Subdiff, operators.BoxNormalCone, operators.NonnegNormalCone):
        monkeypatch.setattr(cls, "resolve", counting(cls.resolve))
    for spec in (lasso_grid_spec(), elastic_grid_spec()):
        for cfgs, z0 in bench_groups(spec):
            calls[0] = 0
            traces = run_grid(cfgs, z0)
            assert calls[0] == sum(t.resolvent_evals for t in traces) > 0


def test_stack_calls_lane_controls_only_where_lanes_differ(monkeypatch):
    # a constant lane starts at k = 0 and at its max_iters and never asks its schedule
    # for a stepsize; a safeguard lane makes one schedule call per iteration
    calls = {"constant": 0, "safeguard": 0, "start": 0}

    def counting(key, fn):
        def spy(*args):
            calls[key] += 1
            return fn(*args)
        return spy

    for key, cls, name in (("constant", schedule.ConstantStepsize, "next_gamma"),
                           ("safeguard", schedule.SafeguardStepsize, "next_gamma"),
                           ("start", driver._RunControl, "start")):
        monkeypatch.setattr(cls, name, counting(key, getattr(cls, name)))
    s, split, _ = small_lasso_setup(21)
    m = mu(s, split.beta)

    def cfg(spec):
        return RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN, schedule=spec,
                         max_iters=50, record_every=10, fix_res_tol=1e-300)

    constants = [cfg(ScheduleSpec(variant="constant", gamma=(0.3 + 0.2 * i) / m))
                 for i in range(driver.MIN_LANES)]
    z0 = default_z0(s, split, seed=2)
    for cfgs in (constants, constants + [cfg(ScheduleSpec(variant="safeguard"))]):
        for key in calls:
            calls[key] = 0
        traces = run_grid(cfgs, z0)
        assert [t.iterations for t in traces] == [50] * len(cfgs)
        assert all(t.aborted is None and len(t.k) == 6 for t in traces)
        safeguards = len(cfgs) - len(constants)
        assert calls["constant"] == 0 and calls["safeguard"] == 50 * safeguards
        assert calls["start"] == 2 * len(constants) + 51 * safeguards
