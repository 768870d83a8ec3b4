import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsplit.errors import ParameterError, StructuralError
from relsplit.operators import (BoxNormalCone, L1Subdiff, LeastSquaresGrad,
                                NonnegNormalCone, ScaledIdentity, ZeroForward, ZeroOp,
                                check_resolvent_identity, lambda_max, soft_threshold)
from relsplit.problems import gen_lasso

ALL_RESOLVENTS = [L1Subdiff(1.0), L1Subdiff(0.3), BoxNormalCone(2.0),
                  NonnegNormalCone(), ZeroOp()]


def grid_prox(v, gamma, penalty, lo=-20.0, hi=20.0, steps=400001):
    """Independent oracle: argmin over a fine grid of 0.5*(t-v)^2 + gamma*penalty(t)."""
    t = np.linspace(lo, hi, steps)
    return t[np.argmin(0.5 * (t - v) ** 2 + gamma * penalty(t))]


def test_soft_threshold_against_grid_oracle():
    op = L1Subdiff(1.0)
    got = op.resolve(0.5, np.array([1.2, -0.3]))
    assert np.allclose(got, [0.7, 0.0], atol=1e-12)
    for v in (1.2, -0.3, 5.0, 0.49):
        expect = grid_prox(v, 0.5, lambda t: np.abs(t))
        assert abs(op.resolve(0.5, np.array([v]))[0] - expect) <= 1e-4


def test_soft_threshold_tie_is_zero():
    # |v| == gamma*w exactly
    assert soft_threshold(np.array([0.5, -0.5]), 0.5).tolist() == [0.0, 0.0]


def test_box_clamp():
    op = BoxNormalCone(50.0)
    assert np.array_equal(op.resolve(3.7, np.array([60.0, -10.0])), [50.0, -10.0])
    # gamma-independent
    assert np.array_equal(op.resolve(0.01, np.array([60.0, -10.0])),
                          op.resolve(100.0, np.array([60.0, -10.0])))


def test_zero_op_identity():
    assert np.array_equal(ZeroOp().resolve(3.0, np.array([5.0])), [5.0])


def test_nonneg_projection():
    assert np.array_equal(NonnegNormalCone().resolve(1.0, np.array([-3.0, 2.0])), [0.0, 2.0])


def test_nonpositive_gamma_rejected():
    for op in ALL_RESOLVENTS:
        with pytest.raises(ParameterError):
            op.resolve(0.0, np.array([1.0]))
        with pytest.raises(ParameterError):
            op.resolve(-1.0, np.array([1.0]))


def test_resolvent_identity_examples():
    v = np.array([2.0])
    for op in ALL_RESOLVENTS:
        assert check_resolvent_identity(op, 1.3, 1.3, v, tol=0.0)  # delta == gamma
    assert check_resolvent_identity(L1Subdiff(1.0), 1.0, 0.25, v, tol=1e-12)
    assert check_resolvent_identity(NonnegNormalCone(), 1.0, 7.0, np.array([-3.0]), tol=1e-12)


def test_resolvent_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        op = ALL_RESOLVENTS[rng.integers(0, len(ALL_RESOLVENTS))]
        gamma, delta = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=2))
        v = rng.normal(0.0, 5.0, size=rng.integers(1, 6))
        assert check_resolvent_identity(op, float(gamma), float(delta), v, tol=1e-12)


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        op = ALL_RESOLVENTS[rng.integers(0, len(ALL_RESOLVENTS))]
        gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
        v, w = rng.normal(0.0, 5.0, size=(2, 4))
        jv, jw = op.resolve(gamma, v), op.resolve(gamma, w)
        assert np.sum((jv - jw) ** 2) <= (jv - jw) @ (v - w) + 1e-10


def test_forward_examples():
    op = LeastSquaresGrad(np.eye(2), np.zeros(2))
    assert np.allclose(op.apply(np.array([1.0, 2.0])), [1.0, 2.0], atol=1e-14)
    assert np.allclose(ScaledIdentity(0.01).apply(np.array([3.0])), [0.03], atol=1e-16)
    op2 = LeastSquaresGrad(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert np.allclose(op2.apply(np.zeros(2)), [-1.0, -1.0], atol=1e-14)
    assert np.array_equal(ZeroForward().apply(np.array([4.0, 5.0])), [0.0, 0.0])


def test_forward_dimension_mismatch():
    op = LeastSquaresGrad(np.eye(2), np.zeros(2))
    with pytest.raises(StructuralError):
        op.apply(np.zeros(3))


def test_cocoercivity_and_lipschitz():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 4))
    ops = [LeastSquaresGrad(a, rng.standard_normal(6)), ScaledIdentity(0.7)]
    for op in ops:
        for _ in range(1000):
            x, y = rng.normal(0.0, 3.0, size=(2, 4))
            tx, ty = op.apply(x), op.apply(y)
            inner = (tx - ty) @ (x - y)
            assert inner >= np.sum((tx - ty) ** 2) / op.beta - 1e-10
            assert np.linalg.norm(tx - ty) <= op.beta * np.linalg.norm(x - y) + 1e-10


def test_lambda_max_matches_dense_oracle():
    rng = np.random.default_rng(10)
    for d in (3, 10, 25, 50):
        a = rng.standard_normal((d + 5, d))
        gram = a.T @ a
        dense = np.linalg.eigvalsh(gram)[-1]
        assert abs(lambda_max(gram) - dense) <= 1e-8 * dense


def test_least_squares_beta_is_lambda_max():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 5))
    op = LeastSquaresGrad(a, np.zeros(8))
    dense = np.linalg.eigvalsh(a.T @ a)[-1]
    assert abs(op.beta - dense) <= 1e-8 * dense


def test_least_squares_beta_is_exact_on_a_lasso_grid_instance():
    # a lasso-grid benchmark instance: q < d, so beta comes from the 50 x 50 Gram
    prob = gen_lasso(50, 100, 12, spectrum=(0.4, 0.6))
    dense = np.linalg.eigvalsh(prob.A.T @ prob.A)[-1]
    assert abs(LeastSquaresGrad(prob.A, prob.b).beta - dense) <= 1e-13 * dense


@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([1.0, 2.0]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_least_squares_beta_never_below_dense_oracle(q, d, scale, seed):
    a = np.random.default_rng(seed).standard_normal((q, d))
    dense = np.linalg.eigvalsh(scale * (a.T @ a))[-1]
    assert LeastSquaresGrad(a, np.zeros(q), scale=scale).beta >= dense * (1 - 1e-13)


def test_lambda_max_separates_a_near_double_top_eigenvalue():
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((5, 5)))
    gram = (q * [1.0, 1.0 - 1e-9, 0.5, 0.2, 0.1]) @ q.T
    gram = 0.5 * (gram + gram.T)
    assert lambda_max(gram) == np.linalg.eigvalsh(gram)[-1]
