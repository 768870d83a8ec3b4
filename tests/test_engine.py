import numpy as np
import pytest

from relsplit import graph as graphmod
from relsplit.engine import SplitProblem, apply_T, first_block, residuals, sweep
from relsplit.errors import ParameterError, StructuralError
from relsplit.operators import (L1Subdiff, LeastSquaresGrad, ScaledIdentity,
                                ZeroForward, ZeroOp)
from relsplit.propsuites import graph_split, kappa_scheme, small_lasso_setup, converge
from relsplit.scheme import CoefficientScheme, eta, mu


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
