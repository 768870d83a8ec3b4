import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from relsplit import config, graph as graphmod, relocator
from relsplit.driver import RunConfig, _EngineStep, run
from relsplit.engine import (SplitProblem, SweepPlan, apply_T, first_block, residuals,
                             sweep)
from relsplit.errors import ParameterError, StructuralError
from relsplit.operators import (L1Subdiff, LeastSquaresGrad, ScaledIdentity,
                                ZeroForward, ZeroOp)
from relsplit.propsuites import graph_split, kappa_scheme, small_lasso_setup, converge
from relsplit.schedule import ScheduleSpec
from relsplit.scheme import CoefficientScheme, eta, mu, validate


def zero_problem(n, p, dim=2):
    return SplitProblem([ZeroOp()] * n, [ZeroForward()] * p, beta=0.0, dim=dim)


class Counting:
    """Wraps a resolvent or forward operator and counts its resolve/apply calls."""

    def __init__(self, inner):
        self.inner, self.beta, self.calls = inner, getattr(inner, "beta", 0.0), 0

    def resolve(self, gamma, v):
        self.calls += 1
        return self.inner.resolve(gamma, v)

    def apply(self, x):
        self.calls += 1
        return self.inner.apply(x)


def counted(prob):
    """``prob`` with every operator wrapped in ``Counting``."""
    return SplitProblem([Counting(op) for op in prob.resolvents],
                        [Counting(op) for op in prob.forwards], prob.beta, prob.dim)


def calls(ops):
    return sum(op.calls for op in ops)


def test_sweep_all_zero_operators_at_zero():
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    out = sweep(s, zero_problem(3, 2), 1.0, np.zeros((2, 2)))
    assert np.array_equal(out, np.zeros((3, 2)))


def test_identity_resolvents_fix_everything():
    # with A_i = 0 and B = 0 the iteration operator is the identity
    v = np.array([[1.5, -2.0]])
    for s in (kappa_scheme(graphmod.SEQUENTIAL, 2),
              graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))):
        z_next, sw = apply_T(s, zero_problem(2, 1), 0.7, 0.9, v)
        assert np.allclose(z_next, v, atol=1e-15)
        fr, cons = residuals(s, sw)
        assert fr <= 1e-15 and cons <= 1e-15


def test_apply_t_zero_theta_is_identity():
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    prob = graph_split(3, seed=1)
    rng = np.random.default_rng(4)
    z = rng.standard_normal((2, prob.dim))
    z_next, _ = apply_T(s, prob, 0.0, 0.5, z)
    assert np.array_equal(z_next, z)


def test_raw_chain_sweep_values():
    # raw (D = deg/2) chain with identity resolvents: x_1 = x_2 = 2v
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    v = np.array([[3.0]])
    out = sweep(s, zero_problem(2, 1, dim=1), 1.0, v)
    assert np.allclose(out, [[6.0], [6.0]], atol=1e-15)


def test_kappa_chain_matches_davis_yin_formulas():
    # x_1 = J_{g A1}(z); x_2 = J_{g A2}(2 x_1 - z - g B x_1)
    rng = np.random.default_rng(0)
    a1, a2 = L1Subdiff(0.7), L1Subdiff(1.3)
    fwd = LeastSquaresGrad(rng.standard_normal((4, 3)), rng.standard_normal(4))
    prob = SplitProblem([a1, a2], [fwd], beta=fwd.beta, dim=3)
    s = kappa_scheme(graphmod.SEQUENTIAL, 2)
    z = rng.standard_normal((1, 3))
    g = 0.37
    out = sweep(s, prob, g, z)
    x1 = a1.resolve(g, z[0])
    y = a2.resolve(g, 2.0 * x1 - z[0] - g * fwd.apply(x1))
    assert np.max(np.abs(out[0] - x1)) <= 1e-14
    assert np.max(np.abs(out[1] - y)) <= 1e-14


def test_graph_resolvent_formulas_sequential_three():
    # engine sweep on the kappa scheme == hand-coded graph recursion
    rng = np.random.default_rng(1)
    dim = 4
    res = [L1Subdiff(0.5), ZeroOp(), L1Subdiff(1.1)]
    b1 = LeastSquaresGrad(rng.standard_normal((5, dim)), rng.standard_normal(5))
    b2 = ScaledIdentity(0.3)
    prob = SplitProblem(res, [b1, b2], beta=max(b1.beta, 0.3), dim=dim)
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    z = rng.standard_normal((2, dim))
    g, theta = 0.21, 0.8
    out = sweep(s, prob, g, z)

    kappa = np.array([1.0, 2.0, 1.0])
    x1 = res[0].resolve(g / kappa[0], z[0] / kappa[0])
    x2 = res[1].resolve(g / kappa[1],
                        (2.0 / kappa[1]) * x1 - (g / kappa[1]) * b1.apply(x1)
                        + (z[1] - z[0]) / kappa[1])
    x3 = res[2].resolve(g / kappa[2],
                        (2.0 / kappa[2]) * x2 - (g / kappa[2]) * b2.apply(x2)
                        + (-z[1]) / kappa[2])
    assert np.max(np.abs(out - np.stack([x1, x2, x3]))) <= 1e-13

    z_next, _ = apply_T(s, prob, theta, g, z)
    expect = np.stack([z[0] - theta * (x1 - x2), z[1] - theta * (x2 - x3)])
    assert np.max(np.abs(z_next - expect)) <= 1e-13


def test_graph_resolvent_formulas_inward_star_three():
    # node 2 of the inward star has no in-arc: the fallback predecessor h(2)=1
    # feeds B_1 with x_1, and the hub collects 2*(x_1 + x_2)
    rng = np.random.default_rng(8)
    dim = 3
    res = [L1Subdiff(0.9), ZeroOp(), L1Subdiff(0.4)]
    b1 = ScaledIdentity(0.6)
    b2 = LeastSquaresGrad(rng.standard_normal((4, dim)), rng.standard_normal(4))
    prob = SplitProblem(res, [b1, b2], beta=max(0.6, b2.beta), dim=dim)
    s = kappa_scheme(graphmod.INWARD_STAR, 3)
    z = rng.standard_normal((2, dim))
    g = 0.17
    out = sweep(s, prob, g, z)

    x1 = res[0].resolve(g / 1.0, z[0])
    x2 = res[1].resolve(g / 1.0, -g * b1.apply(x1) + z[1])
    x3 = res[2].resolve(g / 2.0, (2.0 / 2.0) * (x1 + x2) - (g / 2.0) * b2.apply(x1)
                        + (-z[0] - z[1]) / 2.0)
    assert np.max(np.abs(out - np.stack([x1, x2, x3]))) <= 1e-13


def test_graph_resolvent_formulas_outward_star_three():
    # hub 1 sends to 2 and 3; x_1 reads the block sum, h(2) = h(3) = 1
    rng = np.random.default_rng(9)
    dim = 3
    res = [L1Subdiff(0.9), ZeroOp(), L1Subdiff(0.4)]
    b1 = ScaledIdentity(0.6)
    b2 = ScaledIdentity(0.2)
    prob = SplitProblem(res, [b1, b2], beta=0.6, dim=dim)
    s = kappa_scheme(graphmod.OUTWARD_STAR, 3)
    z = rng.standard_normal((2, dim))
    g = 0.31
    out = sweep(s, prob, g, z)

    x1 = res[0].resolve(g / 2.0, (z[0] + z[1]) / 2.0)
    x2 = res[1].resolve(g / 1.0, 2.0 * x1 - g * b1.apply(x1) - z[0])
    x3 = res[2].resolve(g / 1.0, 2.0 * x1 - g * b2.apply(x1) - z[1])
    assert np.max(np.abs(out - np.stack([x1, x2, x3]))) <= 1e-13


def test_single_forward_term_and_cache_economy():
    # graph schemes reduce the forward sum to the single term B_{i-1} x_{h(i)},
    # and each B_j is evaluated exactly once per sweep
    for kind in graphmod.CANONICAL_KINDS:
        for n in (3, 5):
            s = kappa_scheme(kind, n)
            prob = counted(graph_split(n, seed=n))
            out = sweep(s, prob, 0.4, np.zeros((n - 1, prob.dim)))
            assert calls(prob.forwards) == s.p
            assert all(op.calls == 1 for op in prob.forwards)
            assert calls(prob.resolvents) == s.n
            sweep(s, prob, 0.4, np.zeros((n - 1, prob.dim)), x1=out[0])   # recycled x_1
            assert calls(prob.forwards) == 2 * s.p
            assert calls(prob.resolvents) == 2 * s.n - 1


def test_min_rule_with_fewer_forwards_than_blocks():
    # valid scheme with p = 1 < n - 1: blocks 2 and 3 share the single forward
    base = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 3))
    s = CoefficientScheme(base.d, base.M, base.N, [[0.0], [0.5], [0.5]], [[1.0, 0.0, 0.0]])
    from relsplit.scheme import validate
    assert validate(s) == []
    fwd = ScaledIdentity(1.0)
    counter = Counting(fwd)
    prob = SplitProblem([ZeroOp()] * 3, [counter], beta=1.0, dim=2)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 2))
    out = sweep(s, prob, 0.9, z)
    assert counter.calls == 1
    mz = s.M @ z
    x1 = mz[0] / s.d[0]
    bx = fwd.apply(x1)
    x2 = mz[1] / s.d[1] + x1 / s.d[1] - (0.9 * 0.5 / s.d[1]) * bx
    x3 = mz[2] / s.d[2] + x2 / s.d[2] - (0.9 * 0.5 / s.d[2]) * bx
    assert np.max(np.abs(out - np.stack([x1, x2, x3]))) <= 1e-13


def test_sweep_determinism():
    s = kappa_scheme(graphmod.INWARD_STAR, 4)
    prob = graph_split(4, seed=9)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((3, prob.dim))
    a = sweep(s, prob, 0.3, z)
    b = sweep(s, prob, 0.3, z)
    assert np.array_equal(a, b)


def test_residuals_examples():
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    fr, cons = residuals(s, np.array([[1.0], [0.0]]))
    assert fr == 1.0 and cons == 1.0
    fr, cons = residuals(s, np.array([[2.0], [2.0]]))
    assert fr == 0.0 and cons == 0.0


def test_sweep_errors():
    s = kappa_scheme(graphmod.SEQUENTIAL, 2)
    prob = zero_problem(2, 1)
    with pytest.raises(ParameterError):
        sweep(s, prob, 0.0, np.zeros((1, 2)))
    with pytest.raises(StructuralError):
        sweep(s, zero_problem(3, 1), 1.0, np.zeros((1, 2)))
    with pytest.raises(StructuralError):
        sweep(s, prob, 1.0, np.zeros((2, 2)))


def test_first_block_matches_sweep():
    s = kappa_scheme(graphmod.OUTWARD_STAR, 4)
    prob = graph_split(4, seed=5)
    rng = np.random.default_rng(6)
    z = rng.standard_normal((3, prob.dim))
    assert np.array_equal(first_block(s, prob, 0.7, z), sweep(s, prob, 0.7, z)[0])


def test_lasso_consensus_at_converged_point():
    s, split, _ = small_lasso_setup(3)
    trace = converge(s, split, "davis-yin", 0.8 / split.beta, fix_res_tol=1e-10)
    sw = sweep(s, split, trace.gamma[-1], trace.z_final)
    _, cons = residuals(s, sw)
    assert cons <= 1e-8  # x_1 == x_2 at the fixed point


def test_conical_averagedness_sample():
    # ||Tz - Tw||^2 + ((1-eta)/eta)||(z-Tz)-(w-Tw)||^2 <= ||z-w||^2
    s, split, _ = small_lasso_setup(4)
    raw = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    rng = np.random.default_rng(7)
    for scheme in (s, raw):
        mu_value = mu(scheme, split.beta)
        gamma, theta = 1.0 / mu_value, 1.0
        eta_value = eta(theta, gamma, mu_value)
        for _ in range(200):
            z, w = rng.normal(0.0, 5.0, size=(2, 1, split.dim))
            tz, _ = apply_T(scheme, split, theta, gamma, z)
            tw, _ = apply_T(scheme, split, theta, gamma, w)
            lhs = np.linalg.norm(tz - tw) ** 2 + ((1.0 - eta_value) / eta_value) * \
                np.linalg.norm((z - tz) - (w - tw)) ** 2
            assert lhs <= np.linalg.norm(z - w) ** 2 + 1e-8


# -- the folded step plan against a plain matrix oracle ------------------------

def oracle_sweep(s, prob, gamma, z, x1=None):
    """The sweep of the module docstring with whole matrices: M z / d, then the N/P/R terms."""
    mzd = (s.M @ z) / s.d[:, None]
    x = np.zeros((s.n, z.shape[1]))
    x[0] = prob.resolvents[0].resolve(gamma / s.d[0], mzd[0]) if x1 is None else x1
    forward = {}
    for i in range(1, s.n):
        arg = mzd[i]
        for j in range(i):
            if s.N[i, j] != 0.0:
                arg = arg + (s.N[i, j] / s.d[i]) * x[j]
        for j in range(i):
            if s.P[i, j] != 0.0:
                if j not in forward:
                    forward[j] = prob.forwards[j].apply(s.R[j, :j + 1] @ x[:j + 1])
                arg = arg - (gamma * s.P[i, j] / s.d[i]) * forward[j]
        x[i] = prob.resolvents[i].resolve(gamma / s.d[i], arg)
    return x


def oracle_residuals(s, x):
    pairs = [np.linalg.norm(x[i] - x[j]) for i in range(s.n) for j in range(i + 1, s.n)]
    return np.linalg.norm(s.M.T @ x), max(pairs, default=0.0)


def oracle_relocate(s, prob, K, general, ratio, gamma, w):
    """r w + (1 - r) K x(w): K @ the sweep at w (general) or K times x_1 at w (cheap)."""
    kx = K @ oracle_sweep(s, prob, gamma, w) if general else K * oracle_sweep(s, prob, gamma, w)[0]
    return ratio * w + (1.0 - ratio) * kx


def explicit_scheme():
    path = Path(__file__).resolve().parent.parent / "demos" / "configs" / "explicit_scheme.json"
    return config.build_scheme(json.loads(path.read_text()))


def mixed_scheme():
    """A valid n = 3 scheme with non-unit entries: M rows of one and two terms, an R row of two."""
    base = kappa_scheme(graphmod.SEQUENTIAL, 3)
    M = 0.5 * base.M @ np.array([[1.0, 0.5], [0.0, 1.0]])
    s = CoefficientScheme(base.d, M, base.N, base.P, [[1.0, 0.0, 0.0], [0.25, 0.75, 0.0]])
    assert validate(s) == []
    return s


def split_for(s, seed, dim=5):
    """``graph_split`` with A_1 = 0, whose resolvent returns its argument, a view of z at times."""
    prob = graph_split(s.n, seed, dim=dim)
    return SplitProblem([ZeroOp(), *prob.resolvents[1:]], prob.forwards, prob.beta, dim)


BITWISE = [kappa_scheme(kind, n) for kind in graphmod.CANONICAL_KINDS for n in (2, 3)]
CLOSE = [kappa_scheme(kind, n) for kind in (graphmod.INWARD_STAR, graphmod.OUTWARD_STAR)
         for n in (4, 5, 6)]


def check_plan_against_oracle(s, same):
    for seed in range(3):
        prob = split_for(s, seed)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((s.m, prob.dim))
        gamma = 0.3 + 0.2 * seed
        expect = oracle_sweep(s, prob, gamma, z)
        plan = SweepPlan(s, prob)
        same(np.array(plan.sweep(gamma, z)), expect)
        same(sweep(s, prob, gamma, z), expect)
        x1 = rng.standard_normal(prob.dim)
        same(np.array(plan.sweep(gamma, z, x1)), oracle_sweep(s, prob, gamma, z, x1))
        same(plan.first_block(gamma, z), expect[0])
        same(first_block(s, prob, gamma, z), expect[0])
        assert not np.shares_memory(first_block(s, prob, gamma, z), z)
        same(np.array(residuals(s, expect)), np.array(oracle_residuals(s, expect)))
        kinds = [relocator.GENERAL]
        if s.graph is not None:
            kinds += [k for k in relocator.CHEAP_KINDS if k in s.topologies]
        for kind in kinds:
            general = kind == relocator.GENERAL
            K = relocator.relocation_map(kind, s)
            step = _EngineStep(SweepPlan(s, prob), general, K, z)
            step.residuals(gamma)
            step.advance(gamma, 0.7)
            step.relocate(1.25)
            w = z - 0.7 * (s.M.T @ expect)
            same(step.z, oracle_relocate(s, prob, K, general, 1.25, gamma, w))


@pytest.mark.parametrize("s", BITWISE + [explicit_scheme()],
                         ids=[f"{k}-{n}" for k in graphmod.CANONICAL_KINDS for n in (2, 3)]
                         + ["explicit"])
def test_folded_plan_is_bitwise_the_matrix_oracle(s):
    # every row of these schemes has at most two nonzeros of +-1 (or one of any value)
    check_plan_against_oracle(s, lambda a, b: np.testing.assert_array_equal(a, b))


@pytest.mark.parametrize("s", CLOSE + [mixed_scheme()],
                         ids=[f"{k}-{n}" for k in ("inward-star", "outward-star")
                              for n in (4, 5, 6)] + ["mixed"])
def test_folded_plan_matches_the_matrix_oracle(s):
    # a star hub sums n - 1 blocks, possibly in another order than the product M z
    check_plan_against_oracle(s, lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-14,
                                                                           atol=1e-14))


def test_run_leaves_z0_alone_when_x1_is_a_view():
    # ZeroOp returns its argument, and the chain's first row is z_1 itself, so
    # without a copy x_1 would be a view of the caller's z0
    s = kappa_scheme(graphmod.SEQUENTIAL, 2)
    prob = split_for(s, 0)
    z0 = np.random.default_rng(1).standard_normal((1, prob.dim))
    keep = z0.copy()
    for kind in (relocator.DAVIS_YIN, relocator.GENERAL):
        for iters in (1, 40):
            cfg = RunConfig(s, prob, relocator=kind, max_iters=iters, fix_res_tol=1e-300,
                            schedule=ScheduleSpec(variant="safeguard", t_rule="norm-ratio"))
            trace = run(cfg, z0)
            assert np.array_equal(z0, keep)
            assert not np.shares_memory(trace.x_final, z0)
            assert not np.shares_memory(trace.z_final, z0)
            # the oracle loop on the stepsizes and relaxations of one more iteration,
            # since the last iteration relocates to gamma_{iters}
            longer = run(replace(cfg, max_iters=iters + 1), z0)
            assert longer.iterations == iters + 1
            K = relocator.relocation_map(kind, s)
            general = kind == relocator.GENERAL
            z, x1 = keep.copy(), None
            for k in range(iters):
                g = longer.gamma[k]
                x = oracle_sweep(s, prob, g, z, x1)
                assert (trace.fix_res[k], trace.consensus[k]) == oracle_residuals(s, x)
                w = z - (longer.lam[k] * longer.theta[k]) * (s.M.T @ x)
                z = oracle_relocate(s, prob, K, general, longer.gamma[k + 1] / g, g, w)
                x1 = None if general else oracle_sweep(s, prob, g, w)[0]
            assert np.array_equal(trace.z_final, z)
            assert np.array_equal(trace.x_final, x[0])


def test_public_wrappers_check_shapes():
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    prob = graph_split(3, seed=2)
    z = np.zeros((2, prob.dim))
    for bad in (0.0, np.zeros(prob.dim + 1), np.zeros((1, prob.dim))):
        with pytest.raises(StructuralError, match=r"x1 must have shape \(6,\)"):
            sweep(s, prob, 0.5, z, x1=bad)
    x = sweep(s, prob, 0.5, z)
    for bad in (x[:2], np.vstack([x, x[:1]]), x[0], 1.0):
        with pytest.raises(StructuralError, match=r"x must have shape \(3, d\)"):
            residuals(s, bad)
