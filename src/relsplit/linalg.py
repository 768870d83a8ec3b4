"""Dense small-matrix and block-vector arithmetic.

Block vectors live in X^m with X = R^d and are stored as ndarrays of shape
(m, d); the norm is the l2-norm over all coordinates (``np.linalg.norm``).
Lifted operators M (x) Id then act by plain matrix multiplication on the
stacked blocks, which is what :func:`kron_apply` does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StructuralError

# Singular values below RCOND * sigma_max are treated as zero throughout.
RCOND = 1e-12


def as_blocks(z, m=None):
    """Coerce ``z`` to a float block vector of shape (m, d)."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[None, :] if m in (None, 1) else z.reshape(m, -1)
    if z.ndim != 2:
        raise StructuralError(f"block vector must be 2-d, got shape {z.shape}")
    if m is not None and z.shape[0] != m:
        raise StructuralError(f"expected {m} blocks, got {z.shape[0]}")
    return z


def norm(v):
    """l2-norm of a real array over all coordinates, as a float.

    Same float operations as ``np.linalg.norm(v)`` (sqrt of the flattened
    dot product), so the result is bitwise equal, without its call overhead.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def kron_apply(mat, z):
    """Apply the lifted matrix M (x) Id to a block vector.

    ``mat`` has shape (n, m) and ``z`` shape (m, d); the result is the
    (n, d) stack with block i equal to sum_j mat[i, j] * z[j].
    """
    mat = np.asarray(mat, dtype=float)
    z = as_blocks(z)
    if mat.ndim != 2:
        raise StructuralError(f"matrix must be 2-d, got shape {mat.shape}")
    if mat.shape[1] != z.shape[0]:
        raise StructuralError(
            f"matrix has {mat.shape[1]} columns but block vector has {z.shape[0]} blocks"
        )
    return mat @ z


def pseudoinverse(mat, rcond=RCOND):
    """Moore-Penrose pseudoinverse of a small dense matrix (SVD based)."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        raise StructuralError("empty matrix has no pseudoinverse here")
    return np.linalg.pinv(mat, rcond=rcond)


def small_gram(mat):
    """The smaller Gram matrix of ``mat``: mat* mat, or mat mat* when it has fewer rows.

    Both share their nonzero eigenvalues, the squared singular values of ``mat``.
    """
    return mat.T @ mat if mat.shape[0] >= mat.shape[1] else mat @ mat.T


def spectral_norm(mat):
    """Largest singular value, via an eigendecomposition of the Gram matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0.0
    ev = np.linalg.eigvalsh(small_gram(mat))
    return float(np.sqrt(max(ev[-1], 0.0)))


def min_eigenvalue(mat):
    """Smallest eigenvalue of the symmetrized matrix (condition (d) of a scheme)."""
    mat = np.asarray(mat, dtype=float)
    sym = 0.5 * (mat + mat.T)
    return float(np.linalg.eigvalsh(sym)[0])


def project_zero_sum(y):
    """Project a block vector onto {y : sum_i y_i = 0}.

    This is the orthogonal projection onto range(M (x) Id) for any M with
    ker(M*) = R*ones, in which case it equals y - mean(y).
    """
    y = as_blocks(y)
    return y - y.mean(axis=0, keepdims=True)


def project_range(mat, y, pinv_mat=None):
    """Orthogonal projection of a block vector onto range(mat (x) Id) via M M^dagger."""
    y = as_blocks(y)
    if pinv_mat is None:
        pinv_mat = pseudoinverse(mat)
    return np.asarray(mat, dtype=float) @ (pinv_mat @ y)
