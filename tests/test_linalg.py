import numpy as np
import pytest

from relsplit import engine, linalg
from relsplit.errors import StructuralError
from relsplit.propsuites import graph_split, kappa_scheme


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



def _zero_sum_routes(kind, n):
    """Three routes to the zero-sum projection on a canonical graph scheme.

    ker(M*) = R*ones on incidence matrices, so range(M) is the zero-sum subspace
    and the closed form y - mean(y), the pinv route M M^+ y and the e map fed
    the x with (D - N_<) x = y must all agree.
    """
    from relsplit import graph as graphmod
    from relsplit.relocator import e_map
    s = graphmod.scheme_from_graph(graphmod.canonical(kind, n))
    proj = s.M @ linalg.pseudoinverse(s.M)
    lower = np.diag(s.d) - np.tril(s.N, -1)
    return (lambda y: y - y.mean(axis=0),
            lambda y: proj @ y,
            lambda y: e_map(s, np.linalg.solve(lower, y)))


def test_project_zero_sum_idempotent_and_nonexpansive():
    from relsplit import graph as graphmod
    rng = np.random.default_rng(3)
    routes = [r for kind in graphmod.CANONICAL_KINDS for r in _zero_sum_routes(kind, 4)]
    for _ in range(50):
        y = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 3))
        for project in routes:
            py = project(y)
            assert np.max(np.abs(py.sum(axis=0))) <= 1e-12
            assert np.max(np.abs(project(py) - py)) <= 1e-12
            lhs = np.linalg.norm(py - project(w))
            assert lhs <= np.linalg.norm(y - w) + 1e-12


def test_projection_agrees_with_pinv_route():
    # incidence matrices have ker(M*) = R*ones, where the closed form applies
    from relsplit import graph as graphmod
    rng = np.random.default_rng(4)
    for kind in graphmod.CANONICAL_KINDS:
        closed, pinv_route, e_route = _zero_sum_routes(kind, 5)
        y = rng.standard_normal((5, 3))
        assert np.max(np.abs(closed(y) - pinv_route(y))) <= 1e-10
        assert np.max(np.abs(closed(y) - e_route(y))) <= 1e-10


def test_as_blocks_cuts_a_flat_vector_or_names_the_block_count():
    assert linalg.as_blocks(np.arange(6.0), 2).tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    message = "flat vector of size 7 does not cut into 2 blocks"
    with pytest.raises(StructuralError, match=message):
        linalg.as_blocks(np.zeros(7), 2)
    with pytest.raises(StructuralError, match="block vector must be 2-d"):
        linalg.as_blocks(np.zeros((2, 3, 1)), 2)
    # the public wrappers take a flat z through it
    with pytest.raises(StructuralError, match=message):
        engine.sweep(kappa_scheme("sequential", 3), graph_split(3, 0), 0.5, np.zeros(7))
