"""Monotone-operator zoo: resolvent-evaluable operators and cocoercive forward operators.

Resolvents J_{gA} = (Id + g A)^{-1} are single-valued, total and firmly
nonexpansive; the concrete kinds here all have closed forms (soft-threshold,
projections, identity).

The operators whose formulas have a constant operand (the box bounds -u
and u, the orthant's 0, the scaling c) bind it once, as a read-only 0-d
float64 array (``linalg.constant``). numpy turns a Python float operand of
a ufunc call into an array on every call: with numpy 2.4 on Python 3.11 at
d = 80, ``c * v`` takes 0.37 us with a bound c and 0.53 us with the float
2.0, and ``np.maximum(v, 0)`` 0.41 against 0.56 us (min of 15 interleaved
rounds, one core). The float operations and the bits stay those of the
Python-float formulas, since ``resolve`` and ``apply`` make their input
float64 first. A stepsize and what is formed from it (``gamma * weight``)
change every call and stay Python floats: a 0-d array in scalar arithmetic
costs more than the conversion it saves (``gamma / 2.0`` takes 0.035 us,
``gamma / D`` with a bound D 0.52 us).

Cocoercivity follows the convention used throughout this library:
``T`` is beta-cocoercive when  <Tx - Ty, x - y> >= (1/beta) * ||Tx - Ty||^2,
so beta is simultaneously a Lipschitz constant of T.  Note this is the
reciprocal of the other common convention; every stepsize bound in this
library (gamma < 2/mu, schedules capped below 2/beta) assumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .linalg import aligned, aligned_empty, constant


def soft_threshold(v, t):
    """Componentwise soft-threshold sign(v) max(|v| - t, 0); the tie |v_i| == t maps to 0.

    Formed as v - clamp(v, -t, t): the formula's values, NaN included, in
    three ufunc calls instead of five; only the sign of a zero may differ.
    """
    return v - np.minimum(np.maximum(v, -t), t)


def check_gamma(gamma):
    """ParameterError unless the stepsize gamma is positive."""
    if not gamma > 0:
        raise ParameterError(f"resolvent stepsize must be positive, got {gamma}")


class ResolventOp:
    """A maximally monotone operator A exposed through resolve(gamma, v) = J_{gamma A}(v)."""

    def resolve(self, gamma, v):
        raise NotImplementedError


@dataclass(frozen=True)
class L1Subdiff(ResolventOp):
    """A = weight * subdifferential of the l1-norm; resolvent = soft-threshold."""

    weight: float

    def __post_init__(self):
        if not self.weight > 0:
            raise ParameterError("l1 weight must be positive")

    def resolve(self, gamma, v):
        check_gamma(gamma)
        v, t = np.asarray(v, dtype=float), gamma * self.weight
        return v - np.minimum(np.maximum(v, -t), t)   # soft_threshold(v, t), without its call


@dataclass(frozen=True)
class BoxNormalCone(ResolventOp):
    """A = normal cone of the box [-bound, bound]^d; resolvent = clamp (gamma-free)."""

    bound: float

    def __post_init__(self):
        if not self.bound > 0:
            raise ParameterError("box bound must be positive")
        object.__setattr__(self, "_lo", constant(-self.bound))
        object.__setattr__(self, "_hi", constant(self.bound))

    def resolve(self, gamma, v):
        check_gamma(gamma)
        # np.clip's result, bitwise (NaN, signed zeros), at half its call overhead
        return np.minimum(np.maximum(np.asarray(v, dtype=float), self._lo), self._hi)


_ZERO = constant(0.0)


@dataclass(frozen=True)
class NonnegNormalCone(ResolventOp):
    """A = normal cone of the nonnegative orthant; resolvent = positive part."""

    def resolve(self, gamma, v):
        check_gamma(gamma)
        return np.maximum(np.asarray(v, dtype=float), _ZERO)


@dataclass(frozen=True)
class ZeroOp(ResolventOp):
    """A = 0; resolvent = identity."""

    def resolve(self, gamma, v):
        check_gamma(gamma)
        return np.asarray(v, dtype=float)


def check_resolvent_identity(op, gamma, delta, v, tol=1e-12):
    """Check J_{dA}((d/g) v + (1 - d/g) J_{gA} v) == J_{gA} v to within tol."""
    check_gamma(gamma)
    check_gamma(delta)
    v = np.asarray(v, dtype=float)
    jg = op.resolve(gamma, v)
    r = delta / gamma
    lhs = op.resolve(delta, r * v + (1.0 - r) * jg)
    return bool(np.linalg.norm(lhs - jg) <= tol)


def lambda_max(gram):
    """Largest eigenvalue of a symmetric matrix: the dense solver's top value, not an estimate.

    ``np.linalg.eigvalsh`` of the symmetrised matrix; 0 for an empty one.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1])


class CocoerciveOp:
    """Single-valued beta-cocoercive operator (beta also a Lipschitz constant)."""

    beta: float = 0.0

    def apply(self, x):
        raise NotImplementedError


# Bytes of A per row block of the factored least-squares gradient. A block is
# read from memory once per evaluation and then reused from cache, so it should
# fit in L2 beside the vectors (1 MiB: half of a 2 MiB L2).
BLOCK_BYTES = 1 << 20


class LeastSquaresGrad(CocoerciveOp):
    """B(x) = A^T (A x - b), the gradient of (1/2)||Ax - b||^2.

    The form is chosen from the shape (q, d) of A by flop count. When
    2q < d, ``apply`` computes the factored ``A^T (A x - b)`` and no d x d
    array is built. Otherwise it computes ``G x - A^T b`` with the
    precomputed Gram matrix G = A^T A.

    The factored form runs over row blocks A_i of A, each ``h`` rows holding
    at most ``BLOCK_BYTES`` of A, ``h`` a multiple of 8, with the remainder
    rows folded into the last block. For each block it writes
    r_i = A_i x - b_i and forms A_i^T r_i while A_i is still cached, so A is
    read from memory once per evaluation instead of twice. The partial
    products are summed in block order. Successive calls visit the blocks in
    alternating direction, so a call starts on the block the previous one
    read last; the summation order is fixed, so the bits do not depend on
    call history. An A of fewer than 2h rows is one block, evaluated as
    ``A.T @ (A @ x - b)`` with the bits of that expression.

    A and the Gram matrix start on a 64-byte boundary (``linalg.ALIGN``),
    and so does every row block, since h is a multiple of 8. An A given on
    that boundary is kept, not copied; one that starts elsewhere is copied
    once, in its own C or F order. Where a matrix starts changes the BLAS's
    speed, not its bits.

    beta = lambda_max(A^T A), taken from the smaller Gram matrix of A
    (A A^T when A has fewer rows than columns, which has the same top
    eigenvalue; the Gram form's own A^T A otherwise).
    """

    def __init__(self, A, b):
        A = aligned(A)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise StructuralError(f"incompatible shapes A {A.shape}, b {b.shape}")
        self.A = A
        self.b = b
        q, self.dim = A.shape
        self._gram = None
        self._blocks = None  # the factored form's (A_i, b_i, rows of A_i)
        self._memo = None    # (bytes of the factored apply's last x, its A x - b)
        # an overflowing A^T A leaves beta non-finite, which SplitProblem rejects
        with np.errstate(over="ignore"):
            if 2 * q < self.dim:
                self.beta = lambda_max(A @ A.T)
                # rows per block: as many as BLOCK_BYTES holds, down to a multiple of 8
                h = max(8, BLOCK_BYTES // (8 * self.dim) // 8 * 8)
                cuts = [i * h for i in range(max(q // h, 1))] + [q]
                self._blocks = [(A[lo:hi], b[lo:hi], slice(lo, hi))
                                for lo, hi in zip(cuts, cuts[1:])]
                self._backward = False
            else:
                self._gram = np.matmul(A.T, A, out=aligned_empty((self.dim, self.dim)))
                self._atb = A.T @ b
                self.beta = lambda_max(self._gram if q >= self.dim else A @ A.T)

    def _factored(self, x):
        """A x - b and A^T (A x - b), the block products summed in block order."""
        blocks = self._blocks
        if len(blocks) == 1:
            r = self.A @ x - self.b
            return r, self.A.T @ r
        order = range(len(blocks))
        if self._backward:
            order = reversed(order)
        self._backward = not self._backward
        r = np.empty(self.b.shape)
        parts = [None] * len(blocks)
        for i in order:
            a, b, rows = blocks[i]
            ri = r[rows]
            np.matmul(a, x, out=ri)
            np.subtract(ri, b, out=ri)
            parts[i] = a.T @ ri
        return r, sum(parts[1:], parts[0])  # in block order, whatever the visiting order

    def apply(self, x):
        """B x of a d-vector, or of each row of an (L, d) stack of lanes.

        On a stack each row's value is bitwise that of the row alone: the
        Gram form takes one batched product (a batch of matrix-vector
        products, never ``X @ G.T``, which sums in another order), the
        factored form goes row by row. Only a d-vector's residual is kept for
        ``residual``.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise StructuralError(f"expected vector of dim {self.dim}, got shape {x.shape}")
        if self._gram is not None:
            if x.ndim == 1:
                return self._gram @ x - self._atb
            return np.matmul(self._gram, x[..., None])[..., 0] - self._atb
        if x.ndim == 2:
            out = np.empty(x.shape)
            for row, x_row in zip(out, x):
                row[...] = self._factored(x_row)[1]
            return out
        r, out = self._factored(x)
        r.flags.writeable = False
        self._memo = (x.tobytes(), r)
        return out

    def residual(self, x):
        """A x - b at a d-vector x, or of each row of an (r, d) stack of them.

        When a d-vector x is bitwise the factored ``apply``'s last input, this
        is that apply's residual (shared, so read-only); otherwise it is
        computed as ``A @ x - b``. A stack's rows are one batch of
        matrix-vector products, each row bitwise its own ``A @ x - b``.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[1] == self.dim:
            return np.matmul(self.A, x[..., None])[..., 0] - self.b
        if x.shape != (self.dim,):
            raise StructuralError(f"expected vector of dim {self.dim}, got shape {x.shape}")
        memo = self._memo
        if memo is not None and memo[0] == x.tobytes():
            return memo[1]
        return self.A @ x - self.b


@dataclass(frozen=True)
class ScaledIdentity(CocoerciveOp):
    """B(x) = c x with c > 0; beta = c."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ParameterError("scaling must be positive")
        object.__setattr__(self, "_c", constant(self.c))

    @property
    def beta(self):
        return self.c

    def apply(self, x):
        """c x, of a d-vector or of a stack of them."""
        return self._c * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ZeroForward(CocoerciveOp):
    """B = 0; beta = 0 sentinel (the convention 1/0 = +inf applies downstream)."""

    @property
    def beta(self):
        return 0.0

    def apply(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))
