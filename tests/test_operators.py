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


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
               np.inf, -np.inf, np.nan]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
       st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, np.inf]),
                 st.floats(min_value=0.0, allow_infinity=True)))
@settings(max_examples=400, deadline=None)
def test_soft_threshold_is_the_sign_formula(values, t):
    # ties |v| == t, signed zeros, subnormals, infinities and NaN, t from 0 to inf
    v = np.array(values + [t, -t] + EDGE_VALUES)
    with np.errstate(invalid="ignore"):   # inf - inf at t = inf, in both forms
        expect = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        got = soft_threshold(v, t)
    assert np.array_equal(got, expect, equal_nan=True)


def test_box_clamp():
    op = BoxNormalCone(50.0)
    assert np.array_equal(op.resolve(3.7, np.array([60.0, -10.0])), [50.0, -10.0])
    # gamma-independent
    assert np.array_equal(op.resolve(0.01, np.array([60.0, -10.0])),
                          op.resolve(100.0, np.array([60.0, -10.0])))


def test_box_clamp_is_np_clip_bitwise():
    u = 2.5
    v = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, u, -u, 3.0, -3.0, 1.0])
    got = BoxNormalCone(u).resolve(1.0, v)
    want = np.clip(v, -u, u)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))   # NaN and sign bit too
    assert np.signbit(got[2]) and not np.signbit(got[1])


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
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 4, 2)), np.float64(1.0)):
        with pytest.raises(StructuralError):
            op.apply(bad)


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


def _ls_data(q, d, seed=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((q, d)), rng.standard_normal(q), rng.standard_normal(d)


@pytest.mark.parametrize("shape", [(10, 40), (20, 40), (40, 10)])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_least_squares_forms_match_the_gradient(shape, scale):
    a, b, x = _ls_data(*shape)
    op = LeastSquaresGrad(a, b, scale=scale)
    want = scale * a.T @ (a @ x - b)
    assert np.linalg.norm(op.apply(x) - want) <= 1e-13 * np.linalg.norm(want)
    dense = scale * np.linalg.eigvalsh(a.T @ a)[-1]
    assert abs(op.beta - dense) <= 1e-13 * dense


def test_least_squares_form_follows_the_shape():
    # factored exactly when 2q < d; the boundary 2q == d keeps the Gram form
    assert LeastSquaresGrad(*_ls_data(10, 40)[:2])._gram is None
    for q, d in ((20, 40), (40, 10), (7, 7)):
        assert LeastSquaresGrad(*_ls_data(q, d)[:2])._gram.shape == (d, d)


def test_factored_form_holds_no_d_by_d_array():
    op = LeastSquaresGrad(*_ls_data(10, 40)[:2])
    op.apply(np.ones(40))
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    arrays += [v for v in op._memo if isinstance(v, np.ndarray)]
    assert arrays and all(v.shape != (40, 40) for v in arrays)


def test_gram_form_beta_is_bitwise_the_small_gram_value():
    # one A^T A serves both the Gram and beta when q >= d; A A^T when d/2 <= q < d
    for q, d in ((40, 10), (30, 40)):
        a, b, _ = _ls_data(q, d)
        small = a.T @ a if q >= d else a @ a.T
        for scale in (1.0, 2.0):
            assert LeastSquaresGrad(a, b, scale=scale).beta == scale * lambda_max(small)


def test_residual_is_recomputed_for_another_input():
    a, b, x1 = _ls_data(10, 40)
    x2 = x1 + 1.0
    op = LeastSquaresGrad(a, b)
    op.apply(x1)
    assert op.residual(x1) is op._memo[1]
    assert np.array_equal(op.residual(x1), a @ x1 - b)
    assert np.array_equal(op.residual(x2), a @ x2 - b)


def test_residual_is_not_stale_after_the_input_is_mutated():
    a, b, x1 = _ls_data(10, 40)
    op = LeastSquaresGrad(a, b)
    op.apply(x1)
    x1[3] += 1.0
    assert np.array_equal(op.residual(x1), a @ x1 - b)


@pytest.mark.parametrize("shape", [(40, 10), (20, 40), (10, 40), (7, 7)],
                         ids=["gram-tall", "gram-wide", "factored", "gram-square"])
@pytest.mark.parametrize("lanes", [1, 2, 6])
def test_stacked_apply_is_the_apply_of_each_row(shape, lanes):
    # a stack of lanes must give each lane the bits of its own apply, so a lane's
    # trace equals its single run's
    a, b, x = _ls_data(*shape)
    stack = np.random.default_rng(lanes).standard_normal((lanes, shape[1]))
    for op in (LeastSquaresGrad(a, b), LeastSquaresGrad(a, b, scale=2.0),
               ScaledIdentity(0.3), ZeroForward()):
        got = op.apply(stack)
        assert got.shape == stack.shape
        for row, want in zip(stack, got):
            assert np.array_equal(want, op.apply(row.copy()))


def test_stacked_apply_keeps_no_residual():
    # the factored form's residual memo is of a d-vector only
    a, b, x = _ls_data(10, 40)
    op = LeastSquaresGrad(a, b)
    op.apply(x)
    memo = op._memo
    op.apply(np.vstack([x + 1.0, x]))
    assert op._memo is memo
