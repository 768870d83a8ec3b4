import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsplit import operators
from relsplit.errors import ParameterError, StructuralError
from relsplit.linalg import ALIGN, aligned_empty
from relsplit.operators import (BLOCK_BYTES, BoxNormalCone, L1Subdiff, LeastSquaresGrad,
                                NonnegNormalCone, ScaledIdentity, ZeroForward, ZeroOp,
                                check_resolvent_identity, lambda_max, soft_threshold)
from relsplit.problems import gen_elastic_net, gen_lasso, split_elastic, split_lasso

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


def test_bound_constants_keep_the_bits_of_the_float_formulas():
    # the operators bind -u, u, 0 and c once as read-only 0-d arrays; their results must
    # be the bytes of the Python-float formulas (NaN payloads, signed zeros, ties at
    # +-u and +-t), on a d-vector and on an (L, d) stack, and no caller may write to them
    u, c, w, gamma = 2.5, 0.7, 0.3, 1.5
    t = gamma * w
    vec = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, u, -u, t, -t,
                    np.nextafter(u, np.inf), np.nextafter(-t, 0.0), 5e-324, -5e-324, 1.0, -7.0])
    stack = np.stack([vec, vec[::-1], -vec, np.random.default_rng(3).normal(0.0, 3.0, vec.size)])
    box, nonneg, scaled, l1 = BoxNormalCone(u), NonnegNormalCone(), ScaledIdentity(c), L1Subdiff(w)
    for v in (vec, stack):
        pairs = [(box.resolve(gamma, v), np.clip(v, -u, u)),
                 (nonneg.resolve(gamma, v), np.maximum(v, 0.0)),
                 (scaled.apply(v), c * v),
                 (l1.resolve(gamma, v), soft_threshold(v, gamma * w))]
        for got, want in pairs:
            assert got.dtype == np.float64 and got.shape == v.shape
            assert got.tobytes() == want.tobytes()
    bound = [box._lo, box._hi, operators._ZERO, scaled._c]
    assert [float(a) for a in bound] == [-u, u, 0.0, c]
    for a in bound:
        assert a.shape == () and a.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            a[()] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(a, 1.0, out=a)
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0
    assert [float(a) for a in bound] == [-u, u, 0.0, c]


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


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_least_squares_beta_never_below_dense_oracle(q, d, seed):
    a = np.random.default_rng(seed).standard_normal((q, d))
    dense = np.linalg.eigvalsh(a.T @ a)[-1]
    assert LeastSquaresGrad(a, np.zeros(q)).beta >= dense * (1 - 1e-13)


def test_lambda_max_separates_a_near_double_top_eigenvalue():
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((5, 5)))
    gram = (q * [1.0, 1.0 - 1e-9, 0.5, 0.2, 0.1]) @ q.T
    gram = 0.5 * (gram + gram.T)
    assert lambda_max(gram) == np.linalg.eigvalsh(gram)[-1]


def _ls_data(q, d, seed=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((q, d)), rng.standard_normal(q), rng.standard_normal(d)


# A d = 1000 factored operator, the size of the elastic-general-large workload,
# takes row blocks of H rows: q = 2H - 1 is the largest single block (the
# remainder is folded into the last block), 2H the smallest pair, 257 an odd
# pair and 3H + 5 three blocks.
H = BLOCK_BYTES // (8 * 1000) // 8 * 8
BLOCKED = [(2 * H - 1, 1000), (2 * H, 1000), (257, 1000), (3 * H + 5, 1000)]


@pytest.mark.parametrize("shape", [(10, 40), (20, 40), (40, 10), (257, 1000), (3 * H + 5, 1000)])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_least_squares_forms_match_the_gradient(shape, scale):
    # scale A and b by sqrt(s): the gradient s A^T (A x - b) of (s/2)||Ax - b||^2;
    # s = 2 is the unhalved quadratic's
    a, b, x = _ls_data(*shape)
    op = LeastSquaresGrad(np.sqrt(scale) * a, np.sqrt(scale) * b)
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
        assert LeastSquaresGrad(a, b).beta == lambda_max(small)


def test_residual_is_recomputed_for_another_input():
    # one block keeps the bits of A @ x - b; over several row blocks the BLAS may
    # sum a row in another order than in one product, so only closeness is promised
    for shape in [(10, 40)] + BLOCKED:
        a, b, x1 = _ls_data(*shape)
        x2 = x1 + 1.0
        op = LeastSquaresGrad(a, b)
        op.apply(x1)
        memo = op.residual(x1)
        assert memo is op._memo[1]
        assert np.array_equal(op.residual(x2), a @ x2 - b)
        op._memo = None
        assert np.array_equal(op.residual(x1), a @ x1 - b)
        want = a @ x1 - b
        if len(op._blocks) == 1:
            assert np.array_equal(memo, want)
        else:
            assert np.linalg.norm(memo - want) <= 1e-15 * np.linalg.norm(want)


def test_residual_is_not_stale_after_the_input_is_mutated():
    a, b, x1 = _ls_data(10, 40)
    op = LeastSquaresGrad(a, b)
    op.apply(x1)
    x1[3] += 1.0
    assert np.array_equal(op.residual(x1), a @ x1 - b)


@pytest.mark.parametrize("shape", [(40, 10), (20, 40), (10, 40), (257, 1000), (7, 7)],
                         ids=["gram-tall", "gram-wide", "factored", "factored-blocks",
                              "gram-square"])
@pytest.mark.parametrize("lanes", [0, 1, 2, 6])
def test_stacked_apply_is_the_apply_of_each_row(shape, lanes):
    # a stack of lanes must give each lane the bits of its own apply, so a lane's
    # trace equals its single run's; an empty stack keeps its (0, d) shape
    a, b, x = _ls_data(*shape)
    stack = np.random.default_rng(lanes).standard_normal((lanes, shape[1]))
    for op in (LeastSquaresGrad(a, b), ScaledIdentity(0.3), ZeroForward()):
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


def test_residual_takes_a_d_vector_or_a_stack_of_them():
    # an (r, d) stack is taken row by row (test_problems pins its bits); other shapes are refused
    a, b, x = _ls_data(10, 40)
    for op in (LeastSquaresGrad(a, b), LeastSquaresGrad(a.T, x)):
        dim = op.dim
        assert op.residual(np.ones((2, dim))).shape == (2, op.b.size)
        for bad in (np.ones(dim - 1), np.ones((2, dim - 1)), np.ones((2, 2, dim)),
                    np.float64(1.0)):
            message = f"expected vector of dim {dim}, got shape {bad.shape}"
            with pytest.raises(StructuralError, match=re.escape(message)):
                op.residual(bad)


@pytest.mark.parametrize("shape", BLOCKED)
def test_blocks_cover_the_rows_in_multiples_of_eight(shape):
    op = LeastSquaresGrad(*_ls_data(*shape)[:2])
    rows = [rows for _, _, rows in op._blocks]
    assert len(rows) == max(shape[0] // H, 1)
    assert rows[0].start == 0 and rows[-1].stop == shape[0]
    assert all(r.stop == s.start for r, s in zip(rows, rows[1:]))
    assert all(r.stop - r.start == H for r in rows[:-1])
    assert H <= rows[-1].stop - rows[-1].start < 2 * H


@pytest.mark.parametrize("shape", BLOCKED)
def test_blocked_apply_does_not_depend_on_call_history(shape):
    # successive calls visit the blocks in alternating direction; the partial
    # products are summed in one order, so the bits never show it
    a, b, x = _ls_data(*shape)
    op = LeastSquaresGrad(a, b)
    first = op.apply(x)
    assert np.array_equal(op.apply(x), first)
    op.apply(x + 1.0)
    assert np.array_equal(op.apply(x), first)
    assert np.array_equal(op.apply(np.vstack([x, x, x]))[1], first)


@pytest.mark.parametrize("shape", [(2 * H - 1, 1000), (10, 40), (1, 3)])
def test_single_block_gradient_keeps_the_unblocked_bits(shape):
    a, b, x = _ls_data(*shape)
    op = LeastSquaresGrad(a, b)
    assert len(op._blocks) == 1
    assert np.array_equal(op.apply(x), a.T @ (a @ x - b))


@pytest.mark.parametrize("shape", [(40, 10), (7, 7), (10, 40)] + BLOCKED)
@pytest.mark.parametrize("order", ["C", "F"])
def test_matrices_start_on_a_cache_line_at_every_offset(shape, order):
    # views of one A at every 8-byte offset: A, its row blocks and the Gram matrix
    # start on an ALIGN-byte boundary, A keeps its order, an aligned A is kept, and
    # the values are bitwise those of the aligned build
    a, b, x = _ls_data(*shape)
    stack = np.random.default_rng(1).standard_normal((6, shape[1]))
    size = a.size
    base = aligned_empty((size + ALIGN // 8,))
    first = None
    for k in range(ALIGN // 8):
        view = base[k:k + size].reshape(shape, order=order)
        view[...] = a
        op = LeastSquaresGrad(view, b)
        assert (op.A is view) == (k == 0)
        assert op.A.flags[f"{order}_CONTIGUOUS"] and np.array_equal(op.A, a)
        matrices = [op.A] + ([op._gram] if op._blocks is None else [m for m, _, _ in op._blocks])
        assert all(m.ctypes.data % ALIGN == 0 for m in matrices)
        got = [op.apply(x), op.apply(stack), op.residual(x), op.beta]
        if first is None:
            first = got
        for want, value in zip(first, got):
            assert np.array_equal(want, value)


def test_generated_problems_hold_one_aligned_a():
    for problem, split in ((gen_elastic_net(30, 200, 11), split_elastic),
                           (gen_lasso(50, 100, 2), split_lasso)):
        assert problem.A.ctypes.data % ALIGN == 0
        assert np.shares_memory(split(problem).forwards[0].A, problem.A)
