"""Dense small-matrix and block-vector arithmetic.

Block vectors live in X^m with X = R^d and are stored as ndarrays of shape
(m, d); the norm is the l2-norm over all coordinates (``np.linalg.norm``).
Lifted operators M (x) Id then act by plain matrix multiplication on the
stacked blocks: block i of ``M @ z`` is sum_j M[i, j] * z[j].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StructuralError

# Singular values below RCOND * sigma_max are treated as zero throughout.
RCOND = 1e-12

# Byte boundary (one cache line) on which a matrix that a forward operator
# reads every iteration starts. numpy's allocator only promises 16 bytes, and
# the BLAS streams a matrix that starts inside a cache line more slowly: the
# blocked least-squares gradient of a 300 x 1000 A took 94-98 us from 16 mod
# 64 and 74-81 us from 0 mod 64 (OpenBLAS, one thread), with the same bits.
ALIGN = 64


def aligned_empty(shape, order="C"):
    """An uninitialised float array of ``shape`` whose data start on an ALIGN-byte boundary."""
    size = math.prod(shape)
    buf = np.empty(size + ALIGN // 8)
    start = -buf.ctypes.data % ALIGN // 8   # numpy's buffers start on a multiple of 8
    return buf[start:start + size].reshape(shape, order=order)


def aligned(a):
    """``a`` as a float array whose data start on an ALIGN-byte boundary.

    An array that already does is returned as it is; otherwise the copy keeps
    an F-ordered array's order and is C-ordered else.
    """
    a = np.asarray(a, dtype=float)
    if a.ctypes.data % ALIGN == 0:
        return a
    f_order = a.flags.f_contiguous and not a.flags.c_contiguous
    out = aligned_empty(a.shape, "F" if f_order else "C")
    out[...] = a
    return out


def constant(v):
    """``v`` as a read-only 0-d float64 array, an operand bound once for many ufunc calls.

    numpy converts a Python float operand of a ufunc call into an array on
    every call; a 0-d float64 array is used as it is, with the same float
    operations and bits.
    """
    a = np.array(float(v))
    a.flags.writeable = False
    return a


def as_blocks(z, m):
    """Coerce ``z`` to a float block vector of shape (m, d); a flat ``z`` is cut into m blocks."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        if z.size % m:
            raise StructuralError(f"flat vector of size {z.size} does not cut into {m} blocks")
        z = z.reshape(m, -1)
    if z.ndim != 2:
        raise StructuralError(f"block vector must be 2-d, got shape {z.shape}")
    if z.shape[0] != m:
        raise StructuralError(f"expected {m} blocks, got {z.shape[0]}")
    return z


def check_shape(name, a, shape):
    """``a`` as a float array of ``shape`` (None: any length on that axis), or a StructuralError."""
    a = np.asarray(a, dtype=float)
    if a.ndim != len(shape) or any(k not in (None, got) for k, got in zip(shape, a.shape)):
        want = str(tuple("d" if k is None else k for k in shape)).replace("'", "")
        raise StructuralError(f"{name} must have shape {want}, got {a.shape}")
    return a


def norm(v):
    """l2-norm of a real array over all coordinates, as a float.

    Same float operations as ``np.linalg.norm(v)`` (sqrt of the flattened
    dot product), so the result is bitwise equal, without its call overhead.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def pseudoinverse(mat):
    """Moore-Penrose pseudoinverse of a small dense matrix (SVD based)."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        raise StructuralError("empty matrix has no pseudoinverse here")
    return np.linalg.pinv(mat, rcond=RCOND)


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

