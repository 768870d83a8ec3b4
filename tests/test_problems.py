import numpy as np
import pytest

from relsplit import driver, problems
from relsplit.driver import RunConfig, run
from relsplit.errors import ParameterError
from relsplit.linalg import spectral_norm
from relsplit.operators import lambda_max, soft_threshold
from relsplit.problems import (ElasticNetProblem, LassoProblem, gen_elastic_net, gen_lasso,
                               objective, reference_solution, split_elastic, split_lasso)
from relsplit.propsuites import small_lasso_setup
from relsplit.relocator import DAVIS_YIN
from relsplit.schedule import ScheduleSpec


def test_generator_determinism():
    a = gen_lasso(8, 13, seed=42)
    b = gen_lasso(8, 13, seed=42)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
    e1 = gen_elastic_net(9, 7, seed=4, n_corr=2)
    e2 = gen_elastic_net(9, 7, seed=4, n_corr=2)
    assert np.array_equal(e1.A, e2.A) and np.array_equal(e1.b, e2.b)


def test_lasso_unit_spectrum():
    prob = gen_lasso(10, 6, seed=1, spectrum=(1.0, 1.0))
    assert abs(lambda_max(prob.A.T @ prob.A) - 1.0) <= 1e-8
    # two finite numbers 0 < smin <= smax
    for spectrum in ((2.0, 1.0), (0.5, np.inf), (np.nan, 1.0), (0.5, 1.0, 1.5), (1.0,)):
        with pytest.raises(ParameterError, match="spectrum"):
            gen_lasso(10, 6, seed=1, spectrum=spectrum)


def test_weights_must_be_positive_and_finite():
    A, b = np.eye(2), np.ones(2)
    for lam in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ParameterError, match="lam must be positive and finite"):
            LassoProblem(A, b, lam=lam, u=5.0)
        for key in ("lam1", "lam2"):
            with pytest.raises(ParameterError, match=f"{key} must be positive and finite"):
                ElasticNetProblem(A, b, **dict({"lam1": 0.1, "lam2": 0.1}, **{key: lam}))
    with pytest.raises(ParameterError, match="u must be positive"):
        LassoProblem(A, b, lam=0.1, u=0.0)
    assert LassoProblem(A, b, lam=0.1, u=np.inf).u == np.inf   # no box


def test_objective_examples():
    prob = LassoProblem(np.array([[2.0]]), np.array([4.0]), lam=1.0, u=50.0)
    assert objective(prob, np.zeros(1)) == 16.0  # ||b||^2
    prob2 = LassoProblem(np.array([[1.0]]), np.array([1.0]), lam=1.0, u=50.0)
    assert objective(prob2, np.array([0.5])) == pytest.approx(0.75, abs=1e-15)
    en = ElasticNetProblem(np.array([[2.0]]), np.array([4.0]), lam1=0.1, lam2=0.1)
    assert objective(en, np.zeros(1)) == 8.0  # 0.5*||b||^2


def test_split_lasso_delegates():
    prob = gen_lasso(6, 9, seed=2, lam=0.3, u=2.0)
    split = split_lasso(prob)
    v = np.array([1.0, -0.05, 0.2, 0.0, 3.0, -2.0, 0.5, 0.06, -0.3])
    assert np.array_equal(split.resolvents[0].resolve(0.5, v),
                          soft_threshold(v, 0.5 * prob.lam))
    assert np.array_equal(split.resolvents[1].resolve(1.0, v), np.clip(v, -2.0, 2.0))
    assert np.allclose(split.forwards[0].apply(np.zeros(9)), -prob.A.T @ prob.b, atol=1e-12)
    dense = np.linalg.eigvalsh(prob.A.T @ prob.A)[-1]
    assert abs(split.beta - dense) <= 1e-8 * dense


def test_split_elastic_delegates():
    prob = gen_elastic_net(7, 5, seed=3, n_corr=1)
    split = split_elastic(prob)
    v = np.array([0.4, -0.4, 0.001, -0.001, 2.0])
    for op in split.resolvents[1:]:
        assert np.array_equal(op.resolve(1.0, v), soft_threshold(v, 0.5 * prob.lam1))
    assert np.array_equal(split.resolvents[0].resolve(1.0, v), np.maximum(v, 0.0))
    x = np.arange(5.0)
    assert np.allclose(split.forwards[1].apply(x), prob.lam2 * x, atol=1e-15)
    dense = np.linalg.eigvalsh(prob.A.T @ prob.A)[-1]
    assert abs(split.beta - max(dense, prob.lam2)) <= 1e-8 * max(dense, prob.lam2)


def test_elastic_net_near_dependency():
    prob = gen_elastic_net(20, 12, seed=5, n_corr=2, noise_sd=0.0)
    sv = np.linalg.svd(prob.A, compute_uv=False)
    # the two overwritten columns are near-combinations of earlier ones
    assert sv[-1] <= 0.02 * sv[0] and sv[-2] <= 0.02 * sv[0]


def test_elastic_net_noiseless_consistency():
    prob = gen_elastic_net(10, 6, seed=6, n_corr=0, noise_sd=0.0)
    # b = A x* exactly: residual of the generating x* is zero, so the
    # least-squares optimum of ||Ax - b|| is 0
    x, *_ = np.linalg.lstsq(prob.A, prob.b, rcond=None)
    assert np.linalg.norm(prob.A @ x - prob.b) <= 1e-10


def test_normalization_flag():
    # the generator always rescales A to unit spectral norm
    prob = gen_elastic_net(15, 10, seed=7)
    assert abs(spectral_norm(prob.A) - 1.0) <= 1e-12


def test_objective_convex_along_segments():
    rng = np.random.default_rng(8)
    lasso = gen_lasso(6, 10, seed=9)
    en = gen_elastic_net(6, 10, seed=9)
    for prob in (lasso, en):
        for _ in range(200):
            x, y = rng.normal(0.0, 5.0, size=(2, 10))
            mid = objective(prob, 0.5 * (x + y))
            assert mid <= 0.5 * (objective(prob, x) + objective(prob, y)) + 1e-10


def grid_min(fn, lo=-2.0, hi=2.0, steps=400001):
    t = np.linspace(lo, hi, steps)
    vals = fn(t)
    i = np.argmin(vals)
    return t[i], vals[i]


def test_reference_solution_one_dimensional():
    prob = LassoProblem(np.array([[1.0]]), np.array([1.0]), lam=0.5, u=50.0)

    # split-consistent reference: minimize 0.5*(x-1)^2 + 0.5|x|  ->  x* = 0.5
    x_grid_half, _ = grid_min(lambda t: 0.5 * (t - 1.0) ** 2 + 0.5 * np.abs(t))
    assert abs(x_grid_half - 0.5) <= 1e-4
    ref_half = reference_solution(prob, budget=2000)
    assert abs(ref_half.x[0] - 0.5) <= 1e-6
    assert abs(ref_half.phi - objective(prob, np.array([0.5]))) <= 1e-9
    assert not ref_half.flagged


def test_reference_is_feasible_and_locally_optimal():
    prob = gen_lasso(8, 12, seed=10, lam=0.05, u=0.4)
    ref = reference_solution(prob, budget=5000)
    assert np.abs(ref.x).max() <= prob.u
    rng = np.random.default_rng(11)

    def phi_half(x):
        # the objective the half-quadratic split minimizes: (1/2)||Ax-b||^2 + lam ||x||_1
        r = prob.A @ x - prob.b
        return 0.5 * float(r @ r) + prob.lam * float(np.abs(x).sum())

    base = phi_half(ref.x)
    for _ in range(100):
        pert = np.clip(ref.x + 1e-3 * rng.standard_normal(12), -prob.u, prob.u)
        assert phi_half(pert) >= base - 1e-9


def test_reference_flagged_when_budget_too_small():
    # the run starts at the exact minimiser, binding box or not: certified at any budget
    for u in (50.0, 0.5):
        assert not reference_solution(gen_lasso(12, 16, seed=4, lam=1e-3, u=u), budget=1).flagged
    # a duplicated column breaks the homotopy, so the run starts at zero: 20 iterations only
    prob = gen_lasso(12, 16, seed=4, lam=1e-3, u=50.0)
    A = prob.A.copy()
    A[:, 0] = A[:, 1]
    assert reference_solution(LassoProblem(A, prob.b, prob.lam, prob.u), budget=1).flagged


@pytest.fixture
def reference_loops(monkeypatch):
    """(z0, Trace) of every loop run while the test runs, in call order."""
    calls = []
    for name in ("run", "run_davis_yin"):
        def loop(cfg, z0=None, inner=getattr(driver, name)):
            trace = inner(cfg, z0)
            calls.append((z0, trace))
            return trace
        monkeypatch.setattr(driver, name, loop)
    return calls


def lasso_kkt(prob, x):
    """||x - prox(x - t grad f(x))|| / max(1, ||x||) at t = 1/beta, for the split's objective."""
    split = split_lasso(prob)
    t = 1.0 / split.beta
    step = x - t * split.forwards[0].apply(x)
    prox = np.clip(soft_threshold(step, t * prob.lam), -prob.u, prob.u)
    return np.linalg.norm(x - prox) / max(1.0, np.linalg.norm(x))


def elastic_kkt(prob, x):
    """The same residual for the elastic net: prox of lam1 ||.||_1 over x >= 0."""
    split = split_elastic(prob)
    t = 1.0 / split.beta
    step = x - t * sum(op.apply(x) for op in split.forwards)
    return np.linalg.norm(x - np.maximum(step - t * prob.lam1, 0.0)) / max(1.0, np.linalg.norm(x))


def test_exact_lasso_reference_certifies_in_one_iteration(reference_loops):
    # the lasso-grid size (supports of 49 and q = 50), a smaller one and one with q > d
    cases = [gen_lasso(50, 100, seed, spectrum=(0.4, 0.6), lam=1e-3) for seed in (2, 3, 12, 30)]
    cases += [gen_lasso(8, 12, seed, lam=0.05) for seed in range(4)]
    cases += [gen_lasso(20, 10, seed, lam=0.1) for seed in range(4)]
    # binding boxes: clamp and free events (at u = 2 and seed 3 a dropped entry
    # rejoins with the other sign in the segment right after its drop)
    cases += [gen_lasso(8, 12, seed, lam=0.05, u=0.4) for seed in (7, 10)]
    cases += [gen_lasso(50, 100, seed, spectrum=(0.4, 0.6), lam=1e-3, u=u)
              for seed, u in ((3, 2.0), (4, 0.5))]
    for prob in cases:
        ref = reference_solution(prob, budget=1000)
        z0, trace = reference_loops[-1]
        assert z0 is not None and trace.converged, trace.fix_res
        assert (trace.iterations, trace.resolvent_evals) == (1, 2)
        assert not ref.flagged
        assert lasso_kkt(prob, ref.x) <= 1e-12
        assert ref.phi == objective(prob, ref.x)


def test_exact_elastic_reference_certifies_in_one_iteration(reference_loops):
    cases = [gen_elastic_net(60, 80, seed, n_corr=4) for seed in (11, 12, 13, 40)]
    cases += [gen_elastic_net(10, 8, seed, n_corr=1, lam1=0.1) for seed in range(4)]
    for prob in cases:
        ref = reference_solution(prob, budget=1000)
        z0, trace = reference_loops[-1]
        assert z0 is not None and trace.converged, trace.fix_res
        assert (trace.iterations, trace.resolvent_evals) == (1, 3)
        assert not ref.flagged and elastic_kkt(prob, ref.x) <= 1e-12


def test_exact_lasso_reference_is_no_worse_than_the_zero_start_run(monkeypatch):
    def half_objective(prob, x):
        r = prob.A @ x - prob.b
        return 0.5 * float(r @ r) + prob.lam * float(np.abs(x).sum())

    grid = [gen_lasso(50, 100, 2 + seed, spectrum=(0.4, 0.6), lam=1e-3) for seed in (0, 1, 5)]
    exact = [reference_solution(prob, budget=50) for prob in grid]
    monkeypatch.setattr(problems, "_exact_start", lambda *args: None)
    for prob, ref in zip(grid, exact):
        old = reference_solution(prob, budget=50)
        assert old.flagged and not ref.flagged
        assert half_objective(prob, ref.x) <= half_objective(prob, old.x)


def test_box_binding_exact_reference_matches_the_zero_start_run(monkeypatch, reference_loops):
    # the box binds at both solutions; the second path needs a rejoin with the other sign
    cases = [gen_lasso(8, 12, seed=10, lam=0.05, u=0.4), gen_lasso(12, 16, seed=9, lam=1e-3, u=2.0)]
    exact = [reference_solution(prob, budget=5000) for prob in cases]
    assert all(z0 is not None for z0, _ in reference_loops)
    assert all(np.abs(ref.x).max() >= prob.u - 1e-12 for prob, ref in zip(cases, exact))
    monkeypatch.setattr(problems, "_exact_start", lambda *args: None)
    for prob, ref in zip(cases, exact):
        old = reference_solution(prob, budget=5000)
        assert reference_loops[-1][0] is None and not old.flagged
        assert np.abs(ref.x - old.x).max() <= 1e-8 and abs(ref.phi - old.phi) <= 1e-8


def test_duplicated_columns_fall_back_without_an_exception(reference_loops):
    # equal columns tie along the whole path; where a tie breaks the homotopy
    # (a join in the active span, an end entry against its sign) the run
    # starts at zero, else the exact start still certifies
    starts = []
    for seed in range(10):
        base = gen_lasso(8, 12, seed=seed, lam=0.05)
        A = base.A.copy()
        A[:, 0] = A[:, 1]
        ref = reference_solution(LassoProblem(A, base.b, 0.05, 50.0), budget=100)
        z0, trace = reference_loops[-1]
        starts.append(z0 is not None)
        if z0 is not None:
            assert (trace.iterations, ref.flagged) == (1, False)
    assert not all(starts) and any(starts)


def test_metrics_fill_columns(iterates):
    # the trace's relative errors against a reference (x*, phi*), with the
    # 1e-30 floor on both denominators when the reference is zero
    s, split, prob = small_lasso_setup(4)
    phi = lambda x: objective(prob, x)
    x_star = np.linspace(-1.0, 1.0, prob.dim)
    z0 = np.zeros((s.m, prob.dim))
    for reference in ((x_star, 2.5), (np.zeros(prob.dim), 0.0)):
        cfg = RunConfig(scheme=s, problem=split, relocator=DAVIS_YIN,
                        schedule=ScheduleSpec(variant="safeguard"), objective=phi,
                        reference=reference)
        trace, xs, _ = iterates(run, cfg, z0, 5)
        x_ref, phi_ref = reference
        x_den, f_den = max(np.linalg.norm(x_ref), 1e-30), max(abs(phi_ref), 1e-30)
        assert len(xs) == len(trace.rel_err_x) == 5
        for x, rel_x, rel_f in zip(xs, trace.rel_err_x, trace.rel_err_f):
            assert rel_x == pytest.approx(np.linalg.norm(x - x_ref) / x_den, rel=1e-14)
            assert rel_f == pytest.approx(abs(phi(x) - phi_ref) / f_den, rel=1e-14)
        assert np.isfinite(trace.rel_err_x).all() and np.isfinite(trace.rel_err_f).all()


def test_nonfinite_problem_data_is_rejected():
    for bad, name in ((np.array([[np.nan, 1.0]]), "A"), (np.array([[np.inf, 1.0]]), "A")):
        with pytest.raises(ParameterError, match=f"problem data {name}"):
            LassoProblem(bad, np.ones(1), lam=1.0, u=1.0)
        with pytest.raises(ParameterError, match=f"problem data {name}"):
            ElasticNetProblem(bad, np.ones(1), lam1=1.0, lam2=1.0)
    with pytest.raises(ParameterError, match="problem data b"):
        LassoProblem(np.eye(1), np.array([np.nan]), lam=1.0, u=1.0)
    # finite data whose Gram matrix overflows: beta is not finite, so no split exists
    with pytest.raises(ParameterError, match="beta"):
        split_lasso(LassoProblem([[1e200, 1.0], [0.0, 1e200]], np.ones(2), lam=1.0, u=1.0))
