import functools
import itertools
import json
import math
import operator
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsplit import config, graph as graphmod, relocator
from relsplit.driver import RunConfig, Trace, default_z0, run, run_davis_yin, run_grid
from relsplit.engine import (SplitProblem, Step, SweepPlan, _State, apply_T, first_block,
                             residuals, sweep)
from relsplit.errors import ParameterError, StructuralError
from relsplit.linalg import constant
from relsplit.operators import (L1Subdiff, LeastSquaresGrad, ScaledIdentity,
                                ZeroForward, ZeroOp)
from relsplit.propsuites import graph_split, kappa_scheme, small_lasso_setup, converge
from relsplit.schedule import ScheduleSpec
from relsplit.scheme import CoefficientScheme, eta, kappa_form_scheme, mu, validate


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
            # a step's sweep from a recycled x_1, given as its state
            step = Step(SweepPlan(s, prob), _State(np.zeros((n - 1, prob.dim)), out[0], None, 0))
            step.residuals(0.4)
            assert calls(prob.forwards) == 2 * s.p
            assert calls(prob.resolvents) == 2 * s.n - 1
            assert step.st.evals == s.n - 1


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


def test_split_problem_dim_is_a_count():
    # a whole float is that dim; a fraction, a bool or a dim below 1 is refused at
    # construction, not by the first run's reshape
    assert type(zero_problem(2, 1, dim=2.0).dim) is int
    for dim in (2.5, True, 0, -3, "2"):
        with pytest.raises(ParameterError, match=f"dim must be a whole number >= 1, got {dim!r}"):
            zero_problem(2, 1, dim=dim)


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

def oracle_sweep(s, prob, gamma, z, x1=None, product=np.matmul):
    """The sweep of the module docstring with whole matrices: M z / d, then the N/P/R terms.

    ``product(M, z)`` forms M z (the matrix product unless given).
    """
    mzd = product(s.M, z) / s.d[:, None]
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


def oracle_relocate(s, prob, K, general, ratio, gamma, w, product=np.matmul):
    """r w + (1 - r) K x(w): K @ the sweep at w (general), x_1 at w on every block (cheap).

    A cheap kind's K is the paper's column of tree-degree coefficients, ones on
    every canonical tree (``test_relocator.py`` derives it), so ``K`` is unused there.
    """
    x = oracle_sweep(s, prob, gamma, w, product=product)
    kx = K @ x if general else np.ones((s.m, 1)) * x[0]
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


def half_scheme():
    """The two-node chain with M = (0.5, -0.5): no row folds and M is no incidence matrix."""
    s = CoefficientScheme([0.5, 0.5], [[0.5], [-0.5]], [[0.0, 0.0], [1.0, 0.0]],
                          [[0.0], [1.0]], [[1.0, 0.0]])
    assert validate(s) == []
    return s


def negated_chain():
    """The kappa-form chain with M negated: its first row is the negated block -z_1."""
    base = kappa_scheme(graphmod.SEQUENTIAL, 2)
    s = CoefficientScheme(base.d, -base.M, base.N, base.P, base.R)
    assert validate(s) == []
    return s


def split_for(s, seed, dim=5):
    """``graph_split`` with A_1 = 0, whose resolvent returns its argument, a view of z at times."""
    prob = graph_split(s.n, seed, dim=dim)
    return SplitProblem([ZeroOp(), *prob.resolvents[1:]], prob.forwards, prob.beta, dim)


BITWISE = [kappa_scheme(kind, n) for kind in graphmod.CANONICAL_KINDS for n in (2, 3)]
CLOSE = [kappa_scheme(kind, n) for kind in (graphmod.INWARD_STAR, graphmod.OUTWARD_STAR)
         for n in (4, 5, 6)]


def step_residuals(plan, gamma, z, x1=None):
    """(outputs, M* x, ||M* x||) of a plan's step at (gamma, z), from a given x_1 or x_1(z).

    A given x_1 goes into the step's state as it is, with no evaluation counted.
    """
    step = plan.start(z, gamma) if x1 is None else Step(plan, _State(z, x1, None, 0))
    fix_res = step.residuals(gamma)
    return step.st.xs, step.st.mstar_x, fix_res


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
        x1 = rng.standard_normal(prob.dim)   # a step's sweep from a recycled x_1
        same(np.array(step_residuals(plan, gamma, z, x1)[0]), oracle_sweep(s, prob, gamma, z, x1))
        same(plan.first_block(gamma, z), expect[0])
        same(first_block(s, prob, gamma, z), expect[0])
        assert not np.shares_memory(first_block(s, prob, gamma, z), z)
        same(np.array(residuals(s, expect)), np.array(oracle_residuals(s, expect)))
        step = plan.start(z, gamma)
        fix_res = step.residuals(gamma)
        same(np.array(step.st.xs), expect)
        same(np.array([fix_res, step.row()[0]]), np.array(oracle_residuals(s, expect)))
        kinds = [relocator.GENERAL] + list(relocator.tree_kinds(s))
        for kind in kinds:
            general = kind == relocator.GENERAL
            K = relocator.relocation_map(kind, s)
            step = SweepPlan(s, prob, K if general else None).start(z, gamma)
            step.residuals(gamma)
            step.advance(gamma, 0.7, False)
            step.relocate(1.25)
            w = z - 0.7 * (s.M.T @ expect)
            same(step.st.z, oracle_relocate(s, prob, K, general, 1.25, gamma, w))


@pytest.mark.parametrize("s", BITWISE + [explicit_scheme()],
                         ids=[f"{k}-{n}" for k in graphmod.CANONICAL_KINDS for n in (2, 3)]
                         + ["explicit"])
def test_folded_plan_is_bitwise_the_matrix_oracle(s):
    # every row of these schemes has at most two nonzeros of +-1 (or one of any value)
    check_plan_against_oracle(s, lambda a, b: np.testing.assert_array_equal(a, b))


def test_negated_row_is_bitwise_the_matrix_oracle():
    # a row whose first +-1 entry is -1 is emitted as the negated sum
    s = negated_chain()
    prob = split_for(s, 0)
    assert "x0 = resolve_0(gamma, -(z[0]))" in SweepPlan(s, prob).source
    assert "zip(gs, -(z[:, 0]))" in SweepPlan(s, prob, lanes=True).source
    check_plan_against_oracle(s, lambda a, b: np.testing.assert_array_equal(a, b))


@pytest.mark.parametrize("s", CLOSE + [mixed_scheme()],
                         ids=[f"{k}-{n}" for k in ("inward-star", "outward-star")
                              for n in (4, 5, 6)] + ["mixed"])
def test_folded_plan_matches_the_matrix_oracle(s):
    # a star hub sums n - 1 blocks, possibly in another order than the product M z
    check_plan_against_oracle(s, lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-14,
                                                                           atol=1e-14))


def lane_problems(s):
    """``split_for`` and a variant whose first forward takes the factored form (2q < d)."""
    prob = split_for(s, 1, dim=9)
    a = np.random.default_rng(3).standard_normal((3, 9))
    wide = LeastSquaresGrad(a, np.ones(3))
    return prob, SplitProblem(prob.resolvents, (wide,) + prob.forwards[1:], prob.beta, 9)


@pytest.mark.parametrize("s", BITWISE + CLOSE + [explicit_scheme(), mixed_scheme(),
                                                 half_scheme(), negated_chain()],
                         ids=[f"{k}-{n}" for k in graphmod.CANONICAL_KINDS for n in (2, 3)]
                         + [f"{k}-{n}" for k in ("inward-star", "outward-star")
                            for n in (4, 5, 6)] + ["explicit", "mixed", "half", "negated"])
def test_lane_layout_is_the_block_layout_per_lane(s):
    # products with M, M* and R rows included (mixed, half; the explicit scheme's rows
    # all fold, so its plan emits no product)
    check_lanes_against_blocks(s)


def check_lanes_against_blocks(s):
    """One emitted text, two layouts: lane l of a stack is bitwise the block plan.

    The block plan runs at lane l's (gamma_l, z_l), from its x_1 when one is given.
    """
    rng = np.random.default_rng(7)
    gammas = [0.3, 0.55, 0.7, 1.1]
    for prob in lane_problems(s):
        block, lanes = SweepPlan(s, prob), SweepPlan(s, prob, lanes=True)
        z = rng.standard_normal((len(gammas), s.m, prob.dim))
        for x1 in (None, rng.standard_normal((len(gammas), prob.dim))):
            xs_fused, mstar_x, fix_res = step_residuals(lanes, gammas, z, x1)
            for lane, gamma in enumerate(gammas):
                x1_lane = None if x1 is None else x1[lane]
                want_fused, want_mstar, want_fix_res = step_residuals(block, gamma, z[lane],
                                                                      x1_lane)
                for got_fused, block_fused in zip(xs_fused, want_fused):
                    assert np.array_equal(got_fused[lane], block_fused)
                assert np.array_equal(mstar_x[lane], want_mstar)
                assert fix_res[lane] == want_fix_res
        # the stateless sweep, which evaluates x_1 itself, is the step's sweep from no x_1
        xs, x0 = lanes.sweep(gammas, z), lanes.first_block(gammas, z)
        for lane, gamma in enumerate(gammas):
            want_fused = step_residuals(block, gamma, z[lane])[0]
            for got, block_i, block_fused in zip(xs, block.sweep(gamma, z[lane]), want_fused):
                assert np.array_equal(got[lane], block_i)
                assert np.array_equal(block_fused, block_i)
            assert np.array_equal(x0[lane], block.first_block(gamma, z[lane]))


@pytest.mark.parametrize("s", [mixed_scheme(), half_scheme()], ids=["mixed", "half"])
def test_lane_products_are_the_block_products_broadcast(s):
    # the lane layout writes the block layout's products with M, M* and R rows, one `@`
    # broadcast over the stack on contiguously stacked blocks; its only loops over the
    # lanes are the resolvent calls, their stepsizes and the norm pairs
    prob = split_for(s, 2)
    for K in (None, relocator.relocation_map(relocator.GENERAL, s)):
        block, lanes = (SweepPlan(s, prob, K, lanes=lanes).source.splitlines()
                        for lanes in (False, True))
        products = [[line.replace("np.stack([", "np.array([").replace("], axis=-2)", "])")
                     for line in src if " @ " in line and "K @" not in line]
                    for src in (block, lanes)]
        assert products[0] == products[1]
        assert any("M @ z" in line for line in products[1])
        assert any("MT @ " in line for line in products[1])
        loops = [line.strip() for line in lanes if " for " in line or "for i in" in line]
        assert loops and all(re.search(r"resolve_\d+\(s, a\) for s, a in zip\(", line)
                             or re.fullmatch(r"ss\d+ = \[g / \S+ for g in gs\]", line)
                             or line == "for i in reads:" for line in loops), loops


@pytest.mark.parametrize("s", BITWISE + CLOSE + [explicit_scheme(), mixed_scheme(),
                                                 half_scheme(), negated_chain()],
                         ids=[f"{k}-{n}" for k in graphmod.CANONICAL_KINDS for n in (2, 3)]
                         + [f"{k}-{n}" for k in ("inward-star", "outward-star")
                            for n in (4, 5, 6)] + ["explicit", "mixed", "half", "negated"])
def test_lane_step_is_the_block_step_per_lane(s):
    # one Step on a 4-lane stack forms each lane's norm pair and relocates each
    # lane bitwise as the block step does for its run; a lane at ratio 1 holds w's bits,
    # where the formula 1 * w + 0 * K x would turn a -0.0 entry of w into 0.0 wherever
    # K x > 0
    gammas, lam_theta, ratios = [0.3, 0.55, 0.7, 1.1], [0.7, 0.5, 0.9, 0.6], [1.0, 1.25, 1.0, 0.8]
    prob = split_for(s, 2)
    z = np.random.default_rng(5).standard_normal((len(gammas), s.m, prob.dim))
    kinds = [relocator.GENERAL] + list(relocator.tree_kinds(s))

    for kind in kinds:
        K = relocator.relocation_map(kind, s) if kind == relocator.GENERAL else None
        stack = SweepPlan(s, prob, K, lanes=True).start(z, gammas)
        stack.residuals(gammas)
        pairs = stack.advance(gammas, np.array(lam_theta)[:, None, None], range(len(gammas)))
        stack.st.w = w = stack.st.w.copy()   # x_1(w) may be a view of w (A_1 = 0)
        w[..., 0, 0] = -0.0
        stack.relocate(np.array(ratios)[:, None, None])
        for lane, (gamma, lt, ratio) in enumerate(zip(gammas, lam_theta, ratios)):
            block = SweepPlan(s, prob, K).start(z[lane], gamma)
            block.residuals(gamma)
            assert pairs[lane] == block.advance(gamma, lt, True)
            block.st.w = block.st.w.copy()
            block.st.w[0, 0] = -0.0
            block.relocate(ratio)
            assert stack.st.z[lane].tobytes() == block.st.z.tobytes()
            if ratio == 1.0:
                assert stack.st.z[lane].tobytes() == w[lane].tobytes()
            if K is None:   # the recycled x_1
                assert stack.st.aw[lane].tobytes() == block.st.aw.tobytes()


@pytest.mark.parametrize("s", BITWISE + [explicit_scheme()],
                         ids=[f"{k}-{n}" for k in graphmod.CANONICAL_KINDS for n in (2, 3)]
                         + ["explicit"])
def test_public_wrappers_are_the_loops_step(s):
    # the public one-shot wrappers form the bits of the loop's generated step under every
    # relocator kind, at r = 1 and r = 1.25: engine.sweep at z, engine.first_block (a cheap
    # kind) or engine.sweep (general) at w, and relocator.relocate's Q(w); the next sweep,
    # from the recycled x_1 under a cheap kind, is bitwise the oracle's on these schemes
    gamma, lam = 0.5, 0.7
    kinds = [relocator.GENERAL] + list(relocator.tree_kinds(s))
    for prob in (split_for(s, 4), graph_split(s.n, 4)):
        z = np.random.default_rng(9).standard_normal((s.m, prob.dim))
        for kind, delta in itertools.product(kinds, (gamma, 0.625)):
            general = kind == relocator.GENERAL
            step = SweepPlan(s, prob, relocator.relocation_map(kind, s)
                             if general else None).start(z, gamma)
            st = step.st
            step.residuals(gamma)
            assert np.array(st.xs).tobytes() == sweep(s, prob, gamma, z).tobytes()
            step.advance(gamma, lam, False)
            x1 = first_block(s, prob, gamma, st.w)
            want = sweep(s, prob, gamma, st.w) if general else x1
            assert np.array(st.aw).tobytes() == want.tobytes()
            z_next = relocator.relocate(kind, s, prob, delta, gamma, st.w)
            step.relocate(delta / gamma)
            assert st.z.tobytes() == z_next.tobytes()
            step.residuals(delta)
            want = sweep(s, prob, delta, z_next) if general else oracle_sweep(s, prob, delta,
                                                                                z_next, x1)
            assert np.array(st.xs).tobytes() == want.tobytes()


def test_plan_source_is_the_code_that_runs():
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    prob = graph_split(3, seed=1)
    for lanes in (False, True):
        plan = SweepPlan(s, prob, lanes=lanes)
        namespace = {"np": np, "sqrt": math.sqrt, "constant": constant}
        exec(compile(plan.source, "printed", "exec"), namespace)
        fresh = namespace["bind"]([op.resolve for op in prob.resolvents],
                                  [op.apply for op in prob.forwards], s.M, s.M.T, s.R)
        ran = (plan.sweep, plan.first_block, plan.relocation, plan._step)
        assert [f.__name__ for f in fresh] == [f.__name__ for f in ran]
        for f, g in zip(fresh, ran):
            assert f.__code__.co_code == g.__code__.co_code
        # the step functions of one run, nested in the text
        for f, g in zip(fresh[-1](None), plan._step(None)):
            assert f.__name__ == g.__name__ and f.__code__.co_code == g.__code__.co_code
    # the folded constants are in the text: d_2 = 2 on the kappa-form sequential tree
    assert "s1 = gamma / 2.0" in SweepPlan(s, prob).source


@pytest.mark.parametrize("lanes", [False, True], ids=["block", "lane"])
def test_cheap_residuals_takes_x1_without_a_branch(lanes):
    # a run's step forms x_1(z0) when it is made, so a cheap kind's residuals has one
    # straight-line form: x_1 from aw, then rows 2..n, n - 1 resolvent evaluations
    for kind, n in itertools.product(graphmod.CANONICAL_KINDS, range(2, 7)):
        s = kappa_scheme(kind, n)
        assert kind in relocator.tree_kinds(s)
        source = SweepPlan(s, graph_split(n, seed=n), lanes=lanes).source
        assert "aw is None" not in source
        body = source.split("def residuals(")[1].split("def advance(")[0]
        assert "z, x0 = st.z, st.aw" in body and "resolve_0" not in body
        assert re.findall(r"st\.evals \+= .*", body) == [f"st.evals += {n - 1}"]


@pytest.mark.parametrize("lanes", [False, True], ids=["block", "lane"])
def test_start_forms_x1_of_z0_under_a_cheap_kind(lanes):
    # SweepPlan.start is the one way to make a fresh step: under a cheap kind it forms
    # x_1(z0) at the first stepsize and counts that evaluation, one resolve call per
    # lane; a general step starts with no x_1 and no evaluation
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    gamma = [0.3, 0.55, 0.7] if lanes else 0.4
    for K in (None, relocator.relocation_map(relocator.GENERAL, s)):
        prob = counted(split_for(s, 3))
        plan = SweepPlan(s, prob, K, lanes=lanes)
        shape = (3, s.m, prob.dim) if lanes else (s.m, prob.dim)
        z = np.random.default_rng(4).standard_normal(shape)
        want = plan.first_block(gamma, z)
        before = calls(prob.resolvents)
        st = plan.start(z, gamma).st
        assert st.z is z and st.xs is st.mstar_x is st.w is None
        if K is None:
            assert st.aw.tobytes() == want.tobytes() and st.evals == 1
            assert calls(prob.resolvents) - before == (3 if lanes else 1)
        else:
            assert st.aw is None and st.evals == 0 and calls(prob.resolvents) == before


def iterate(step, gamma, lam, ratio, iters):
    """``iters`` iterations of a step at the stepsizes gamma * ratio^k; returns the next gamma.

    On a stack, gamma is the lanes' list and lam and ratio are their (L, 1, 1) columns.
    """
    for _ in range(iters):
        step.residuals(gamma)
        step.advance(gamma, lam, ())
        step.relocate(ratio)
        gamma = ([g * r for g, r in zip(gamma, ratio.ravel().tolist())]
                 if isinstance(gamma, list) else gamma * ratio)
    return gamma


def state_bytes(step):
    """The bytes of a block step's z, aw and xs (None when unset), and its evals."""
    st = step.st
    return [None if v is None else np.array(v).tobytes() for v in (st.z, st.aw, st.xs)] + [
        st.evals]


@pytest.mark.parametrize("s", [kappa_scheme(graphmod.SEQUENTIAL, 3), mixed_scheme()],
                         ids=["sequential-3", "mixed"])
def test_lane_hand_off_continues_as_its_run(s):
    # Step.lane is the one hand-off from a stack: lane i of a stack that has run k
    # iterations continues on the block plan bitwise as lane i's own run, from k = 0 too,
    # where no residuals has set the outputs and a general step holds no x_1 either
    prob = split_for(s, 5)
    gammas, lams, ratios = [0.3, 0.55, 0.7], [0.7, 0.5, 0.9], [1.0, 1.25, 0.8]
    columns = [np.array(v)[:, None, None] for v in (lams, ratios)]
    z = np.random.default_rng(6).standard_normal((len(gammas), s.m, prob.dim))
    for kind, k in itertools.product([relocator.GENERAL] + list(relocator.tree_kinds(s)), (0, 2)):
        K = relocator.relocation_map(kind, s)
        block = SweepPlan(s, prob, K)
        stack = SweepPlan(s, prob, K, lanes=True).start(z.copy(), gammas)
        iterate(stack, gammas, *columns, k)
        assert (stack.st.xs is None) == (k == 0)
        for i, (gamma, lam, ratio) in enumerate(zip(gammas, lams, ratios)):
            own = block.start(z[i].copy(), gamma)
            g = iterate(own, gamma, lam, ratio, k)
            handed = stack.lane(i, block)
            assert state_bytes(handed) == state_bytes(own)
            for step in (own, handed):
                iterate(step, g, lam, ratio, 2)
            assert state_bytes(handed) == state_bytes(own)
            assert handed.row()[0] == own.row()[0]


@pytest.mark.parametrize("s", [kappa_scheme(graphmod.SEQUENTIAL, 3),
                               kappa_scheme(graphmod.INWARD_STAR, 4), mixed_scheme(),
                               half_scheme()],
                         ids=["sequential-3", "inward-star-4", "mixed", "half"])
def test_stack_rows_are_each_lanes_row(s):
    # one np.vecdot per node pair over the lanes forms each lane's consensus bitwise as
    # its own row does, for every lane or some, and NaN pairs (an output's or an edge
    # difference's) make exactly the lanes NaN that row makes NaN
    gammas = [0.3, 0.55, 0.7, 1.1, 0.9]
    prob = split_for(s, 3)
    z = np.random.default_rng(8).standard_normal((len(gammas), s.m, prob.dim))
    stack = SweepPlan(s, prob, lanes=True).start(z, gammas)
    stack.residuals(gammas)
    st = stack.st
    for x in st.xs:
        x[2, 0] = np.nan   # lane 2: every output
    st.xs[-1][4, 1] = np.nan   # lane 4: the last output only
    st.mstar_x[3, :, 0] = np.nan   # lane 3: every edge difference
    for lanes in ([0, 1, 2, 3, 4], [1, 3], [2], [0, 4]):
        consensus, x, evals = stack.rows(lanes)
        assert evals == st.evals and np.array_equal(x, st.xs[0][lanes], equal_nan=True)
        for got, i in zip(consensus, lanes):
            want = stack.row(i)[0]
            assert got == want or math.isnan(got) and math.isnan(want), (i, got, want)
    assert math.isnan(stack.rows([2])[0][0]) and not math.isnan(stack.rows([1])[0][0])


def test_plan_binds_its_constants_once_read_only():
    # a divisor d_i != 1 and a coefficient N_ij/d_i != 1 are names in the text, which bind
    # binds to read-only 0-d float64 arrays of their values in both layouts
    s = mixed_scheme()
    prob = graph_split(3, seed=1)
    want = {"D1": float(s.d[1]), "C2_1": float(s.N[2, 1] / s.d[2])}
    for lanes in (False, True):
        plan = SweepPlan(s, prob, lanes=lanes)
        assert "/ D1" in plan.source and "C2_1 * x1" in plan.source
        cells = dict(zip(plan.sweep.__code__.co_freevars, plan.sweep.__closure__))
        for name, value in want.items():
            a = cells[name].cell_contents
            assert a.shape == () and a.dtype == np.float64 and float(a) == value
            with pytest.raises(ValueError, match="read-only"):
                a[()] = 0.0


def test_lane_relocation_binds_its_one():
    # the lane layout's relocation reads 1 from the bound 0-d array ONE, so numpy converts
    # no float literal per call; the block layout's ratio is a Python float, compared
    # with the literal
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    prob = graph_split(3, seed=1)
    for K in (None, relocator.relocation_map(relocator.GENERAL, s)):
        lanes = SweepPlan(s, prob, K, lanes=True)
        text = lanes.source.split("def relocation(")[1].split("def step(")[0]
        assert "(ONE - ratio)" in text and "where=ratio == ONE" in text
        assert "1.0" not in text and "1.0" not in lanes.source.split("def relocate(")[1]
        assert "    ONE = constant(1.0)" in lanes.source
        one = dict(zip(lanes.relocation.__code__.co_freevars,
                       lanes.relocation.__closure__))["ONE"].cell_contents
        assert one.shape == () and one.dtype == np.float64 and float(one) == 1.0
        with pytest.raises(ValueError, match="read-only"):
            one[()] = 0.0
        assert "ONE" not in SweepPlan(s, prob, K).source
        assert "if ratio == 1.0 else" in SweepPlan(s, prob, K).source


def pruefer_tree(seq, n):
    """The labelled tree on nodes 1..n of a Pruefer sequence, each arc from lower to higher."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    arcs = []
    for v in seq:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        arcs.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    arcs.append(tuple(u for u in range(1, n + 1) if degree[u] == 1))
    return graphmod.DiGraph(n, tuple(arcs))


def in_column_order(M, z):
    """M z with each row summed over its nonzero columns in column order, as a plan folds it.

    The BLAS product may sum a row of four or more terms in another order: its
    matrix-vector kernel (d = 1) does.
    """
    return np.array([functools.reduce(operator.add, [M[i, j] * z[j] for j in np.flatnonzero(row)])
                     for i, row in enumerate(M)])


trees = st.integers(2, 9).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2).map(
        lambda seq: pruefer_tree(seq, n)))


@given(trees, st.integers(1, 6), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_plan_on_random_trees_is_bitwise_the_oracle(g, dim, seed):
    # both layouts on any spanning tree, under the general relocator and every cheap kind
    # the tree admits: the sweep at z, w, the relocated z and the next sweep (from the
    # recycled x_1 under a cheap kind) are the oracle's bits, lane by lane
    s = kappa_form_scheme(graphmod.scheme_from_graph(g))
    prob = split_for(s, seed, dim)
    rng = np.random.default_rng(seed)
    gammas, lams, ratios = [0.3, 0.55, 0.9], [0.7, 0.5, 0.6], [1.25, 0.8, 1.0]
    z = rng.standard_normal((len(gammas), s.m, prob.dim))
    kinds = [relocator.GENERAL]
    for kind in relocator.CHEAP_KINDS:
        try:
            relocator.check_kind(kind, s)
            kinds.append(kind)
        except StructuralError:
            pass
    for kind in kinds:
        general = kind == relocator.GENERAL
        K = relocator.relocation_map(kind, s)
        plans = SweepPlan(s, prob, K), SweepPlan(s, prob, K, lanes=True)
        stack = plans[1].start(z.copy(), gammas)
        stack.residuals(gammas)
        xs = [np.array([x[lane] for x in stack.st.xs]) for lane in range(len(gammas))]
        stack.advance(gammas, np.array(lams)[:, None, None], ())
        w = stack.st.w.copy()
        stack.relocate(np.array(ratios)[:, None, None])
        z_next = stack.st.z.copy()
        deltas = [r * g for r, g in zip(ratios, gammas)]
        stack.residuals(deltas)
        for lane, (gamma, lam, ratio, delta) in enumerate(zip(gammas, lams, ratios, deltas)):
            x = oracle_sweep(s, prob, gamma, z[lane], product=in_column_order)
            block = plans[0].start(z[lane].copy(), gamma)
            block.residuals(gamma)
            for got in (xs[lane], np.array(block.st.xs)):
                np.testing.assert_array_equal(got, x)
            want_w = z[lane] - lam * (s.M.T @ x)
            block.advance(gamma, lam, False)
            np.testing.assert_array_equal(w[lane], want_w)
            np.testing.assert_array_equal(block.st.w, want_w)
            want_z = oracle_relocate(s, prob, K, general, ratio, gamma, want_w,
                                     product=in_column_order)
            block.relocate(ratio)
            np.testing.assert_array_equal(z_next[lane], want_z)
            np.testing.assert_array_equal(block.st.z, want_z)
            x1 = None if general else oracle_sweep(s, prob, gamma, want_w,
                                                   product=in_column_order)[0]
            want_x = oracle_sweep(s, prob, delta, want_z, x1, product=in_column_order)
            block.residuals(delta)
            np.testing.assert_array_equal(np.array([x[lane] for x in stack.st.xs]), want_x)
            np.testing.assert_array_equal(np.array(block.st.xs), want_x)


def random_scheme(n, seed):
    """A valid scheme on n nodes with generic entries: M is no incidence matrix, d_i != 1.

    M has columns orthogonal to 1 (rank n - 1 for a generic draw): (a). N is
    strictly lower with N_ij >= max(0, -(M M*)_ij), so S = N + N* + M M* has no
    negative entry off its diagonal, and d = S 1 / 2 makes 2D - S a graph
    Laplacian: (d), and (e) since M* 1 = 0. P is strictly lower with unit column
    sums and R lower triangular with unit row sums: (b), (c) and (f).
    """
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n - 1))
    M -= M.mean(axis=0)
    MMt = M @ M.T
    N = np.tril(np.maximum(0.0, -MMt) + rng.uniform(0.1, 1.0, (n, n)), -1)
    d = 0.5 * (N + N.T + MMt).sum(axis=1)
    P = np.tril(rng.uniform(0.1, 1.0, (n, n - 1)), -1)
    R = np.tril(rng.uniform(0.1, 1.0, (n - 1, n)))
    return CoefficientScheme(d, M, N, P / P.sum(axis=0), R / R.sum(axis=1, keepdims=True))


schemes = st.builds(random_scheme, st.integers(2, 5), st.integers(0, 2 ** 16))


@given(schemes)
@settings(max_examples=50, deadline=None)
def test_random_valid_schemes_run_as_the_oracle(s):
    # the emitter's general branches, beyond the hand-made schemes: M rows of several
    # terms (no incidence matrix), multi-term R rows, non-unit P entries and d_i != 1;
    # the plan is the matrix oracle within rounding, its lane layout the block layout
    # bitwise, and a stack of three safeguard runs under the general relocator the
    # single runs bitwise
    assert validate(s) == [] and relocator.tree_kinds(s) == ()
    check_plan_against_oracle(s, lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12,
                                                                           atol=1e-12))
    check_lanes_against_blocks(s)
    prob = split_for(s, 1)
    # a non-unit P_ij scales the lanes' (L, 1) stepsize column by bound names, where the
    # block layout's Python float stepsize keeps the literals
    lane_text, block_text = (SweepPlan(s, prob, lanes=lanes).source for lanes in (True, False))
    terms = [(i, j, float(s.P[i, j])) for i in range(s.n) for j in np.flatnonzero(s.P[i, :i])
             if s.P[i, j] != 1.0]
    assert bool(terms) == (s.n > 2) and not re.search(r"gamma \* [-\d]", lane_text)
    for i, j, c in terms:
        assert f"(gamma * P{i}_{j} / D{i})" in lane_text
        assert f"    P{i}_{j} = constant({c!r})" in lane_text
        assert f"    D{i} = constant({float(s.d[i])!r})" in lane_text
        assert f"(gamma * {c!r} / {float(s.d[i])!r})" in block_text
    m = mu(s, prob.beta)
    cfgs = [RunConfig(s, prob, schedule=ScheduleSpec(variant="safeguard", t_rule=rule, gamma=g),
                      max_iters=30, record_every=7, fix_res_tol=1e-300)
            for rule, g in (("norm-ratio", None), ("harmonic", None), ("norm-ratio", 0.5 / m))]
    z0 = default_z0(s, prob, seed=2)
    for cfg, trace in zip(cfgs, run_grid(cfgs, z0)):
        want = run(cfg, z0)
        assert trace.iterations == want.iterations == 30 and trace.aborted is None
        for f in fields(Trace):
            a, b = getattr(trace, f.name), getattr(want, f.name)
            assert (np.array_equal(a, b, equal_nan=True) if isinstance(a, (list, np.ndarray))
                    else a == b), f.name


def test_run_leaves_z0_alone_when_x1_is_a_view():
    # ZeroOp returns its argument, and the chain's first row is z_1 itself, so
    # without a copy x_1 would be a view of the caller's z0
    s = kappa_scheme(graphmod.SEQUENTIAL, 2)
    prob = split_for(s, 0)
    z0 = np.random.default_rng(1).standard_normal((1, prob.dim))
    keep = z0.copy()
    # a constant schedule relocates at r = 1, where the run sets z = w and the
    # oracle forms r w + (1 - r) K x
    schedules = (ScheduleSpec(variant="safeguard", t_rule="norm-ratio"),
                 ScheduleSpec(variant="constant"))
    for kind, spec, iters in itertools.product((relocator.DAVIS_YIN, relocator.GENERAL),
                                               schedules, (1, 40)):
        cfg = RunConfig(s, prob, relocator=kind, max_iters=iters, fix_res_tol=1e-300,
                        schedule=spec)
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
    # run_davis_yin hands back copies too; stopping at its first residual, it handed back
    # z0 itself as z_final and, as A_1 = 0, as x_final
    for iters, tol in ((1, 1e-300), (40, 1e-300), (5, 1e3)):
        cfg = RunConfig(s, prob, relocator=relocator.DAVIS_YIN, max_iters=iters,
                        fix_res_tol=tol, schedule=schedules[0])
        trace = run_davis_yin(cfg, z0)
        assert np.array_equal(z0, keep) and trace.iterations == (1 if tol > 1.0 else iters)
        assert not np.shares_memory(trace.x_final, z0)
        assert not np.shares_memory(trace.z_final, z0)


def test_public_wrappers_check_shapes():
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    prob = graph_split(3, seed=2)
    z = np.zeros((2, prob.dim))
    for bad, message in ((np.zeros((3, prob.dim)), "expected 2 blocks, got 3"),
                         (np.zeros((2, prob.dim + 1)), "blocks have dim 7, problem dim 6")):
        for wrapper in (sweep, first_block):
            with pytest.raises(StructuralError, match=message):
                wrapper(s, prob, 0.5, bad)
    x = sweep(s, prob, 0.5, z)
    for bad in (x[:2], np.vstack([x, x[:1]]), x[0], 1.0):
        with pytest.raises(StructuralError, match=r"x must have shape \(3, d\)"):
            residuals(s, bad)
