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
per-problem work done at construction, where the scheme's constants are
folded once:

* each (M z)_i with +-1 entries is a signed sum of blocks (on a graph
  scheme, one block per arc at node i: a copy, a negation or a difference
  at a node of degree 1 or 2), formed only for the rows a sweep evaluates;
  a row with other coefficients keeps the product M z;
* division by d_i = 1 and multiplication by a unit N_ij/d_i or P_ij are
  skipped;
* when M is an incidence matrix (one +1 and one -1 per column, as on every
  graph scheme), M* x is the edge differences x_a - x_b, and a consensus
  pair that is an edge reuses its difference.

The float operations stay those of the formulas above, so a folded row of
at most two terms is bitwise that of the matrix product (+-1 products are
exact, a + (-b) == a - b, and rounding is symmetric in sign); a star's hub
row sums its n - 1 > 2 blocks in column order, which the product may sum
in another. The plan returns the n outputs as a list of d-vectors; the public
``sweep``, ``first_block`` and ``residuals`` are validated wrappers over it
that return and take the plain (n, d) array of resolvent outputs x, as
``relocator.relocate`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .linalg import as_blocks, check_shape


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


def _signed_sum(row):
    """Row i of M as (neg, j0, rest), with (M z)_i = +-(z_{j0} +- z_j for (j, plus) in rest).

    Only a row of +-1 entries folds; the first entry's sign is ``neg``. Any
    other row gives None and is read from the product M z, whose sum of
    general products may round otherwise than a term-by-term one.
    """
    cols = np.flatnonzero(row)
    vals = row[cols]
    if cols.size == 0 or np.any(np.abs(vals) != 1.0):
        return None
    first = vals[0] > 0
    return not first, int(cols[0]), tuple((int(j), bool((v > 0) == first))
                                          for j, v in zip(cols[1:], vals[1:]))


def _edges(M):
    """(a, b) per column of M when every column is +1 at row a and -1 at row b, else None."""
    edges = []
    for col in M.T:
        nz = np.flatnonzero(col)
        if nz.size != 2 or sorted(col[nz]) != [-1.0, 1.0]:
            return None
        a, b = nz if col[nz[0]] > 0 else nz[::-1]
        edges.append((int(a), int(b)))
    return edges


class ResidualPlan:
    """M* and the block pairs of one scheme, for the two residuals of a sweep.

    When M is an incidence matrix (one +1 and one -1 per column), M* x is
    the edge differences x_a - x_b, and a consensus pair that is an edge
    reuses its difference.
    """

    def __init__(self, s):
        self.MT = s.M.T
        self.m = s.m
        self.edges = _edges(s.M)
        edge_of = {frozenset(ab): e for e, ab in enumerate(self.edges or ())}
        self.pairs = [(i, j, edge_of.get(frozenset((i, j))))   # (i, j, its edge or None)
                      for i in range(s.n) for j in range(i + 1, s.n)]

    def residuals(self, x):
        """(M* x, ||M* x||, max_{i<j} ||x_i - x_j||) of the n outputs x (an array or a list)."""
        if self.edges is None:
            mstar_x = self.MT @ x
        else:
            mstar_x = np.empty((self.m, len(x[0])))
            for e, (a, b) in enumerate(self.edges):
                np.subtract(x[a], x[b], out=mstar_x[e])
        flat = mstar_x.ravel()
        total = flat.dot(flat)
        worst = 0.0   # largest squared distance; sqrt is monotone, so one sqrt suffices
        for i, j, e in self.pairs:
            v = x[i] - x[j] if e is None else mstar_x[e]
            sq = v.dot(v)
            if sq > worst:
                worst = sq
        return mstar_x, math.sqrt(total), math.sqrt(worst)


class SweepPlan(ResidualPlan):
    """The sweep of one scheme bound to one problem, with its constants folded once.

    Construction checks the operator bindings and builds one row per block:
    its resolvent, d_i, (M z)_i as a signed sum of blocks (``_signed_sum``),
    the N terms with their coefficients N_ij/d_i, and the forward terms
    (with which B_j each block evaluates first). Unit coefficients and
    d_i = 1 cost no arithmetic. The methods then only do arithmetic, in the
    same float-operation order as the formulas above, and return the outputs
    as a list of n d-vectors.
    """

    def __init__(self, s, prob):
        check_binding(s, prob)
        super().__init__(s)
        self.n, self.p, self.dim, self.M = s.n, s.p, prob.dim, s.M
        evaluated = set()
        rows = []
        for i in range(s.n):
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
            rows.append((i, prob.resolvents[i].resolve, di, _signed_sum(s.M[i]),
                         n_terms, p_terms))
        self.rows, self.head, self.tail = rows, rows[:1], rows[1:]

    def blocks(self, z):
        """``z`` as an (m, dim) float block vector, or a StructuralError."""
        z = as_blocks(z, self.m)
        if z.shape[1] != self.dim:
            raise StructuralError(f"blocks have dim {z.shape[1]}, problem dim {self.dim}")
        return z

    def _run_rows(self, gamma, z, x, rows):
        """Append to the outputs ``x`` of the blocks before ``rows`` those of ``rows``."""
        mz = None
        forward_values = [None] * self.p
        for i, resolve, di, base, n_terms, p_terms in rows:
            if base is None:
                if mz is None:
                    mz = self.M @ z
                arg, neg = mz[i], False
            else:
                neg, j0, rest = base
                arg = z[j0]
                for j, plus in rest:
                    arg = arg + z[j] if plus else arg - z[j]
            step = gamma
            if di != 1.0:
                arg = arg / di
                step = gamma / di
            # while neg, the argument is -arg: -arg + t is t - arg, -arg - t is -(arg + t)
            for j, c in n_terms:
                t = x[j] if c == 1.0 else c * x[j]
                if neg:
                    arg, neg = t - arg, False
                else:
                    arg = arg + t
            for j, c, first, cols, vals, apply in p_terms:
                if first:
                    forward_values[j] = apply(
                        x[cols] if vals is None else vals @ np.array([x[h] for h in cols]))
                t = (step if c == 1.0 else gamma * c / di) * forward_values[j]
                arg = arg + t if neg else arg - t
            x.append(resolve(step, -arg if neg else arg))
        return x

    def sweep(self, gamma, z, x1=None):
        """The n outputs x at (gamma, z); ``x1`` is used as x_1 without evaluation."""
        if x1 is None:
            return self._run_rows(gamma, z, [], self.rows)
        return self._run_rows(gamma, z, [x1], self.tail)

    def first_block(self, gamma, z):
        return self._run_rows(gamma, z, [], self.head)[0]


def sweep(s, prob, gamma, z, x1=None):
    """The (n, d) array x of resolvent outputs of the sweep at stepsize gamma from z.

    When ``x1`` is supplied it is used as the first resolvent output without
    re-evaluation (the recycling hook for the cheap relocators, which
    guarantee x_1 at the relocated point equals x_1 at the pre-relocation
    point); the sweep then costs n - 1 resolvent evaluations instead of n.
    ``x1`` must be a d-vector. Each forward operator the scheme uses is
    applied once.
    """
    _check_gamma(gamma)
    plan = SweepPlan(s, prob)
    z = plan.blocks(z)
    if x1 is not None:
        x1 = check_shape("x1", x1, (plan.dim,))
    return np.array(plan.sweep(gamma, z, x1))


def first_block(s, prob, gamma, z):
    """Only x_1 of the sweep (one resolvent evaluation), never a view of ``z``."""
    _check_gamma(gamma)
    plan = SweepPlan(s, prob)
    return np.array(plan.first_block(gamma, plan.blocks(z)))


def apply_T(s, prob, theta, gamma, z):
    """One application of T_{theta,gamma}: returns (z - theta * M* x, x)."""
    x = sweep(s, prob, gamma, z)
    z = as_blocks(z, s.m)
    return z - theta * (s.M.T @ x), x


def residuals(s, x):
    """(fix_res, consensus) of the (n, d) sweep outputs x: ||M* x|| and max_{i<j} ||x_i - x_j||."""
    _, fix_res, consensus = ResidualPlan(s).residuals(check_shape("x", x, (s.n, None)))
    return fix_res, consensus
