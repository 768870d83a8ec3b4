import numpy as np
import pytest

from relsplit import linalg
from relsplit.errors import StructuralError


def test_kron_apply_identity():
    z = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(linalg.kron_apply(np.eye(2), z), z)


def test_kron_apply_sign_copy():
    out = linalg.kron_apply(np.array([[1.0], [-1.0]]), np.array([[2.0, 0.0]]))
    assert np.array_equal(out, np.array([[2.0, 0.0], [-2.0, 0.0]]))


def test_kron_apply_hand_product():
    out = linalg.kron_apply(np.array([[1.0, -1.0]]), np.array([[2.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(out, np.array([[1.0, -1.0]]), atol=0.0)


def test_kron_apply_dimension_mismatch():
    with pytest.raises(StructuralError):
        linalg.kron_apply(np.eye(2), np.zeros((3, 4)))


def test_kron_apply_adjoint_composition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mat = rng.standard_normal((4, 3))
        z = rng.standard_normal((3, 5))
        lhs = linalg.kron_apply(mat.T, linalg.kron_apply(mat, z))
        rhs = linalg.kron_apply(mat.T @ mat, z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_pseudoinverse_identity():
    assert np.allclose(linalg.pseudoinverse(np.eye(3)), np.eye(3), atol=1e-12)


def test_pseudoinverse_column_pair():
    out = linalg.pseudoinverse(np.array([[1.0], [-1.0]]))
    assert np.allclose(out, np.array([[0.5, -0.5]]), atol=1e-12)


def test_pseudoinverse_moore_penrose_identities():
    rng = np.random.default_rng(1)
    for _ in range(25):
        mat = rng.standard_normal(tuple(rng.integers(1, 8, size=2)))
        pinv = linalg.pseudoinverse(mat)
        assert np.linalg.norm(mat @ pinv @ mat - mat) <= 1e-10
        assert np.linalg.norm(pinv @ mat @ pinv - pinv) <= 1e-10
        assert np.linalg.norm(mat @ pinv - (mat @ pinv).T) <= 1e-10
        assert np.linalg.norm(pinv @ mat - (pinv @ mat).T) <= 1e-10


def test_pseudoinverse_rank_deficient():
    mat = np.array([[1.0, 2.0], [2.0, 4.0]])
    pinv = linalg.pseudoinverse(mat)
    assert np.linalg.norm(mat @ pinv @ mat - mat) <= 1e-10


def test_small_gram_takes_the_smaller_side():
    rng = np.random.default_rng(3)
    for shape in ((5, 3), (3, 5), (4, 4)):
        mat = rng.standard_normal(shape)
        gram = linalg.small_gram(mat)
        assert gram.shape == (min(shape),) * 2
        assert np.array_equal(gram, mat.T @ mat if shape[0] >= shape[1] else mat @ mat.T)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    for _ in range(25):
        mat = rng.standard_normal((5, 3))
        assert abs(linalg.spectral_norm(mat) - np.linalg.svd(mat, compute_uv=False)[0]) <= 1e-12


def test_project_zero_sum_examples():
    y = np.array([[1.0, -2.0], [-1.0, 2.0]])
    assert np.array_equal(linalg.project_zero_sum(y), y)  # already zero-sum
    const = np.full((4, 3), 2.5)
    assert np.allclose(linalg.project_zero_sum(const), 0.0, atol=0.0)
    out = linalg.project_zero_sum(np.array([[3.0], [1.0]]))
    assert np.allclose(out, np.array([[1.0], [-1.0]]), atol=0.0)


def test_project_zero_sum_idempotent_and_nonexpansive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        y = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 3))
        py = linalg.project_zero_sum(y)
        assert np.max(np.abs(linalg.project_zero_sum(py) - py)) <= 1e-14
        lhs = np.linalg.norm(py - linalg.project_zero_sum(w))
        assert lhs <= np.linalg.norm(y - w) + 1e-12


def test_projection_agrees_with_pinv_route():
    # incidence matrices have ker(M*) = R*ones, where the closed form applies
    from relsplit import graph as graphmod
    rng = np.random.default_rng(4)
    for kind in graphmod.CANONICAL_KINDS:
        mat = graphmod.incidence(graphmod.canonical(kind, 5))
        y = rng.standard_normal((5, 3))
        assert np.max(np.abs(linalg.project_zero_sum(y) - linalg.project_range(mat, y))) <= 1e-10
