"""Monotone-operator zoo: resolvent-evaluable operators and cocoercive forward operators.

Resolvents J_{gA} = (Id + g A)^{-1} are single-valued, total and firmly
nonexpansive; the concrete kinds here all have closed forms (soft-threshold,
projections, identity).

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


def soft_threshold(v, t):
    """Componentwise soft-threshold sign(v) max(|v| - t, 0); the tie |v_i| == t maps to 0.

    Formed as v - clamp(v, -t, t): the formula's values, NaN included, in
    three ufunc calls instead of five; only the sign of a zero may differ.
    """
    return v - np.minimum(np.maximum(v, -t), t)


def _check_gamma(gamma):
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
        _check_gamma(gamma)
        return soft_threshold(np.asarray(v, dtype=float), gamma * self.weight)


@dataclass(frozen=True)
class BoxNormalCone(ResolventOp):
    """A = normal cone of the box [-bound, bound]^d; resolvent = clamp (gamma-free)."""

    bound: float

    def __post_init__(self):
        if not self.bound > 0:
            raise ParameterError("box bound must be positive")

    def resolve(self, gamma, v):
        _check_gamma(gamma)
        # np.clip's result, bitwise (NaN, signed zeros), at half its call overhead
        return np.minimum(np.maximum(np.asarray(v, dtype=float), -self.bound), self.bound)


@dataclass(frozen=True)
class NonnegNormalCone(ResolventOp):
    """A = normal cone of the nonnegative orthant; resolvent = positive part."""

    def resolve(self, gamma, v):
        _check_gamma(gamma)
        return np.maximum(np.asarray(v, dtype=float), 0.0)


@dataclass(frozen=True)
class ZeroOp(ResolventOp):
    """A = 0; resolvent = identity."""

    def resolve(self, gamma, v):
        _check_gamma(gamma)
        return np.asarray(v, dtype=float)


def check_resolvent_identity(op, gamma, delta, v, tol=1e-12):
    """Check J_{dA}((d/g) v + (1 - d/g) J_{gA} v) == J_{gA} v to within tol."""
    _check_gamma(gamma)
    _check_gamma(delta)
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


class LeastSquaresGrad(CocoerciveOp):
    """B(x) = scale * A^T (A x - b), the gradient of (scale/2)||Ax - b||^2.

    The form is chosen from the shape (q, d) of A by flop count. When
    2q < d, ``apply`` computes the factored ``scale * A^T (A x - b)`` and
    no d x d array is built. Otherwise it computes ``G x - scale * A^T b``
    with the precomputed Gram matrix G = scale * A^T A.

    beta = scale * lambda_max(A^T A), taken from the smaller Gram matrix of A
    (A A^T when A has fewer rows than columns, which has the same top
    eigenvalue; the Gram form's own A^T A otherwise). The default scale 1
    is the gradient of the half quadratic, scale 2 the gradient of the
    unhalved one.
    """

    def __init__(self, A, b, scale=1.0):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise StructuralError(f"incompatible shapes A {A.shape}, b {b.shape}")
        if not scale > 0:
            raise ParameterError("scale must be positive")
        self.A = A
        self.b = b
        self.scale = float(scale)
        q, self.dim = A.shape
        self._gram = None
        self._memo = None   # (bytes of the factored apply's last x, its A x - b)
        # an overflowing A^T A leaves beta non-finite, which SplitProblem rejects
        with np.errstate(over="ignore"):
            if 2 * q < self.dim:
                self.beta = self.scale * lambda_max(A @ A.T)
            else:
                gram = A.T @ A
                self._gram = self.scale * gram
                self._atb = self.scale * (A.T @ b)
                self.beta = self.scale * lambda_max(gram if q >= self.dim else A @ A.T)

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
            return np.array([self.scale * (self.A.T @ (self.A @ row - self.b)) for row in x])
        r = self.A @ x - self.b
        r.flags.writeable = False
        self._memo = (x.tobytes(), r)
        return self.scale * (self.A.T @ r)

    def residual(self, x):
        """A x - b at x.

        When x is bitwise the factored ``apply``'s last input, this is that
        apply's residual (shared, so read-only); otherwise it is computed.
        """
        x = np.asarray(x, dtype=float)
        memo = self._memo
        if memo is not None and x.shape == (self.dim,) and memo[0] == x.tobytes():
            return memo[1]
        return self.A @ x - self.b


@dataclass(frozen=True)
class ScaledIdentity(CocoerciveOp):
    """B(x) = c x with c > 0; beta = c."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ParameterError("scaling must be positive")

    @property
    def beta(self):
        return self.c

    def apply(self, x):
        """c x, of a d-vector or of a stack of them."""
        return self.c * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ZeroForward(CocoerciveOp):
    """B = 0; beta = 0 sentinel (the convention 1/0 = +inf applies downstream)."""

    @property
    def beta(self):
        return 0.0

    def apply(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))
