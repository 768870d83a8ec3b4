"""Evaluation of the distributed forward-backward iteration operator.

The sequential resolvent sweep x(gamma, z) computes, for a scheme
(D, M, N, P, R), n resolvent operators A_i and p cocoercive operators B_j:

    x_1 = J_{(gamma/d_1) A_1}( (M z)_1 / d_1 )
    x_i = J_{(gamma/d_i) A_i}( (M z)_i / d_i
                               + sum_{j<i} (N_ij / d_i) x_j
                               - (gamma/d_i) sum_j P_ij B_j( (R x)_j ) )

where (R x)_j uses the lower-triangular row j of R (entries up to the
diagonal), so every B_j input is available when first needed and each B_j is
evaluated exactly once per sweep (cached across i). The iteration operator is
T_{theta,gamma} z = z - theta * M* x(gamma, z), whose fixed points are the
block vectors z with all x_i equal.

``SweepPlan`` holds the one sweep implementation, with the per-scheme and
per-problem work done at construction; the public ``sweep``,
``first_block`` and ``residuals`` are validated wrappers over it. A sweep's
result is the plain (n, d) array of resolvent outputs x; ``residuals`` and
``relocator.relocate`` take that array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .linalg import as_blocks, norm


@dataclass(frozen=True, eq=False)
class SplitProblem:
    """Operator lists bound to a scheme: n resolvents, p forwards, shared modulus beta."""

    resolvents: tuple
    forwards: tuple
    beta: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "resolvents", tuple(self.resolvents))
        object.__setattr__(self, "forwards", tuple(self.forwards))
        if not 0 <= self.beta < math.inf:   # NaN fails both comparisons
            raise ParameterError(f"beta must be finite and nonnegative, got {self.beta}")
        if self.dim < 1:
            raise ParameterError("dim must be positive")


def check_binding(s, prob):
    """StructuralError unless ``prob`` has the scheme's n resolvents and p forwards."""
    if len(prob.resolvents) != s.n:
        raise StructuralError(f"scheme has n = {s.n} but {len(prob.resolvents)} resolvents given")
    if len(prob.forwards) != s.p:
        raise StructuralError(f"scheme has p = {s.p} but {len(prob.forwards)} forwards given")


def _check_gamma(gamma):
    if not gamma > 0:
        raise ParameterError(f"stepsize must be positive, got {gamma}")


class ResidualPlan:
    """M* and the block pairs of one scheme, for the two residuals of a sweep."""

    def __init__(self, s):
        self.MT = s.M.T
        self.pairs = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)]

    def residuals(self, x):
        """(M* x, ||M* x||, max_{i<j} ||x_i - x_j||)."""
        mstar_x = self.MT @ x
        worst = 0.0   # largest squared distance; sqrt is monotone, so one sqrt suffices
        for i, j in self.pairs:
            v = x[i] - x[j]
            sq = v.dot(v)
            if sq > worst:
                worst = sq
        return mstar_x, norm(mstar_x), math.sqrt(worst)


class SweepPlan(ResidualPlan):
    """The sweep of one scheme bound to one problem, with its run-invariant work done.

    Construction checks the operator bindings and precomputes, per block
    i >= 2, the N terms with their coefficients N_ij/d_i, the forward terms
    (with which B_j each block evaluates first), and the operators' bound
    ``resolve``/``apply`` methods. The methods then only do arithmetic, in
    the same float-operation order as the formulas above.
    """

    def __init__(self, s, prob):
        check_binding(s, prob)
        super().__init__(s)
        self.n, self.m, self.p, self.dim = s.n, s.m, s.p, prob.dim
        self.M, self.M0 = s.M, s.M[0]
        self.d_col = s.d[:, None]
        self.d1 = float(s.d[0])
        self.resolve1 = prob.resolvents[0].resolve
        evaluated = set()
        self.rows = []
        for i in range(1, s.n):
            di = float(s.d[i])
            n_terms = [(int(j), float(s.N[i, j]) / di) for j in np.flatnonzero(s.N[i, :i])]
            p_terms = []
            for j in np.flatnonzero(s.P[i, :i]):
                j, c = int(j), s.P[i, j]
                cols = np.flatnonzero(s.R[j, :j + 1])   # nonzeros of the lower-triangular row
                vals = s.R[j, cols]
                if cols.size == 1 and vals[0] == 1.0:
                    cols, vals = int(cols[0]), None   # (R x)_j = x_h: skip the 1-term product
                p_terms.append((j, float(c), j not in evaluated, cols, vals,
                                prob.forwards[j].apply))
                evaluated.add(j)
            self.rows.append((prob.resolvents[i].resolve, di, n_terms, p_terms))

    def blocks(self, z):
        """``z`` as an (m, dim) float block vector, or a StructuralError."""
        z = as_blocks(z, self.m)
        if z.shape[1] != self.dim:
            raise StructuralError(f"blocks have dim {z.shape[1]}, problem dim {self.dim}")
        return z

    def sweep(self, gamma, z, x1=None):
        """The (n, d) outputs x at (gamma, z); ``x1`` is used as x_1 without evaluation."""
        mzd = (self.M @ z) / self.d_col
        x = np.empty((self.n, z.shape[1]))
        x[0] = self.resolve1(gamma / self.d1, mzd[0]) if x1 is None else x1
        forward_values = [None] * self.p
        for i, (resolve, di, n_terms, p_terms) in enumerate(self.rows, start=1):
            arg = mzd[i]
            for j, c in n_terms:
                arg = arg + c * x[j]
            for j, c, first, cols, vals, apply in p_terms:
                if first:
                    forward_values[j] = apply(x[cols] if vals is None else vals @ x[cols])
                arg = arg - (gamma * c / di) * forward_values[j]
            x[i] = resolve(gamma / di, arg)
        return x

    def first_block(self, gamma, z):
        return self.resolve1(gamma / self.d1, (self.M0 @ z) / self.d1)


def sweep(s, prob, gamma, z, x1=None):
    """The (n, d) array x of resolvent outputs of the sweep at stepsize gamma from z.

    When ``x1`` is supplied it is used as the first resolvent output without
    re-evaluation (the recycling hook for the cheap relocators, which
    guarantee x_1 at the relocated point equals x_1 at the pre-relocation
    point); the sweep then costs n - 1 resolvent evaluations instead of n.
    Each forward operator the scheme uses is applied once.
    """
    _check_gamma(gamma)
    plan = SweepPlan(s, prob)
    return plan.sweep(gamma, plan.blocks(z), x1)


def first_block(s, prob, gamma, z):
    """Only x_1 of the sweep (one resolvent evaluation)."""
    _check_gamma(gamma)
    plan = SweepPlan(s, prob)
    return plan.first_block(gamma, plan.blocks(z))


def apply_T(s, prob, theta, gamma, z):
    """One application of T_{theta,gamma}: returns (z - theta * M* x, x)."""
    x = sweep(s, prob, gamma, z)
    z = as_blocks(z, s.m)
    return z - theta * (s.M.T @ x), x


def residuals(s, x):
    """(fix_res, consensus) of the sweep outputs x: ||M* x|| and max_{i<j} ||x_i - x_j||."""
    _, fix_res, consensus = ResidualPlan(s).residuals(x)
    return fix_res, consensus
