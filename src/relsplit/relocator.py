"""Fixed-point relocators Q_{delta <- gamma}.

A relocator maps Fix T_gamma bijectively onto Fix T_delta, is continuous in
delta, satisfies the semigroup law on fixed points and is globally Lipschitz.
Two families are provided:

* ``general``: Q z = (d/g) z + (1 - d/g) M^dagger e(z), where
  e(z) = P_range(M) (d_i x_i - (N x)_{<= i-1}) is built from a full sweep at
  z. Valid for every scheme, at the price of one extra sweep per iteration.

* cheap graph kinds (``inward-star``, ``outward-star``, ``sequential``,
  ``davis-yin``): Q z = (d/g) z + (1 - d/g) * c (x) x_1(z) with a fixed
  per-block coefficient vector c determined by the degrees of the canonical
  tree. These agree with the general relocator on fixed points, recycle the
  single resolvent output x_1 (x_1 at gamma of z equals x_1 at delta of Qz,
  for every z), and therefore add no resolvent evaluations per iteration.

Lipschitz constants follow the per-kind closed forms; for the general kind
the recursion C_1 = sqrt(m)||M||,
C_i = sqrt(m)||M|| + ||N|| sum_{j<i} C_j/d_j
      + gamma*beta*||P||*||R|| sum_j sum_{t<=j} C_t/d_t
is evaluated with the scheme's matrices (spectral norms of the unlifted
matrices equal the lifted operator norms). The inner sum runs to t <= j to
match the implemented (R x)_j, so the constant stays an upper bound.
"""

from __future__ import annotations

import functools

import numpy as np

from . import engine, graph as graphmod, linalg
from .errors import ParameterError, StructuralError

GENERAL = "general"
DAVIS_YIN = "davis-yin"
CHEAP_KINDS = (graphmod.INWARD_STAR, graphmod.OUTWARD_STAR, graphmod.SEQUENTIAL, DAVIS_YIN)
KINDS = (GENERAL,) + CHEAP_KINDS


class Relocation:
    """Q_{delta <- gamma} of one kind on one scheme, with its run-invariant work done.

    For ``general`` this holds D, the N terms of the e map, M^dagger and the
    choice between the zero-sum closed form and the M M^dagger projection;
    for the cheap kinds the coefficient column c of x_1.
    """

    def __init__(self, kind, s):
        self.general = kind == GENERAL
        if self.general:
            self.d_col = s.d[:, None]
            self.n_terms = [(i, int(j), s.N[i, j]) for i in range(1, s.n)
                            for j in np.flatnonzero(s.N[i, :i])]
            self.zero_sum = s.ker_mstar_is_ones
            self.M, self.pinv_M = s.M, s.pinv_M
        elif kind in CHEAP_KINDS:
            require_graph_scheme(kind, s)
            self.c_col = cheap_coefficients(kind, s.graph)[:, None]
        else:
            raise ParameterError(f"unknown relocator kind {kind!r}")

    def e_map(self, x):
        y = self.d_col * x
        for i, j, c in self.n_terms:
            y[i] -= c * x[j]
        if self.zero_sum:
            return linalg.project_zero_sum(y)
        return linalg.project_range(self.M, y, pinv_mat=self.pinv_M)

    def apply(self, r, z, x):
        """Q z for the stepsize ratio r = delta/gamma.

        ``x`` is the full sweep output at (gamma, z) for ``general`` and
        x_1 alone for the cheap kinds.
        """
        if self.general:
            return r * z + (1.0 - r) * (self.pinv_M @ self.e_map(x))
        return r * z + (1.0 - r) * (self.c_col * x)


def e_map(s, x):
    """e(z) = P_range(M) of (d_i x_i - (N x)_{<= i-1}), from the sweep outputs x.

    Uses the zero-sum closed form of the projection when ker(M*) = R*ones
    holds for the scheme, and the M M^dagger projection otherwise.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != s.n:
        raise StructuralError(f"expected {s.n} resolvent outputs, got {x.shape[0]}")
    return Relocation(GENERAL, s).e_map(x)


def _check_ratio(delta, gamma):
    if not gamma > 0 or not delta > 0:
        raise ParameterError(f"stepsizes must be positive, got gamma={gamma}, delta={delta}")
    return delta / gamma


def require_graph_scheme(kind, s):
    if not s.kappa_form or s.graph is None:
        raise StructuralError(
            f"relocator kind {kind!r} needs a kappa-form scheme built from a graph"
        )
    if kind == DAVIS_YIN:
        if s.n != 2:
            raise StructuralError("davis-yin relocator needs the two-node chain")
    elif kind not in s.topologies:
        raise StructuralError(
            f"relocator kind {kind!r} does not match the scheme topology {s.topologies}"
        )


@functools.lru_cache(maxsize=64)
def _tree_weights(g):
    """(kappa_i - 2 kin_i per node, kappa_1): the one degree count per graph."""
    kappa, kin, _ = graphmod.degrees(g)
    w = (kappa - 2 * kin).astype(float)
    w.setflags(write=False)
    return w, float(kappa[0])


def cheap_coefficients(kind, g):
    """Per-block multipliers of x_1 in the cheap relocators (length n - 1)."""
    w, _ = _tree_weights(g)
    if kind in (graphmod.INWARD_STAR, DAVIS_YIN):
        return w[:-1]
    if kind == graphmod.OUTWARD_STAR:
        return -w[1:]
    if kind == graphmod.SEQUENTIAL:
        return np.cumsum(w)[:-1]
    raise ParameterError(f"unknown cheap relocator kind {kind!r}")


def relocate(kind, s, prob, delta, gamma, z, sweep=None, x1=None):
    """Apply Q_{delta <- gamma} to z.

    For the cheap kinds only ``x1`` (the first resolvent output at
    (gamma, z)) is needed; for ``general`` a full sweep at (gamma, z) is
    required (computed here when not supplied).
    """
    r = _check_ratio(delta, gamma)
    z = linalg.as_blocks(z, s.m)
    q = Relocation(kind, s)
    if q.general:
        x = (sweep if sweep is not None else engine.sweep(s, prob, gamma, z)).x
    elif x1 is not None:
        x = x1
    else:
        x = sweep.x[0] if sweep is not None else engine.first_block(s, prob, gamma, z)
    return q.apply(r, z, x)


def lipschitz_constant(kind, s, delta, gamma, beta):
    """Lipschitz constant of Q_{delta <- gamma}; always >= 1 and = 1 when delta = gamma."""
    r = _check_ratio(delta, gamma)
    a = abs(1.0 - r)
    if kind == DAVIS_YIN:
        return r + a
    if kind == GENERAL:
        return max(1.0, r + a * s.norm_pinv_M * _e_lipschitz(s, gamma, beta))
    if kind in CHEAP_KINDS:
        require_graph_scheme(kind, s)
        c = cheap_coefficients(kind, s.graph)
        _, k1 = _tree_weights(s.graph)
        if kind == graphmod.INWARD_STAR:
            amp = np.sqrt(k1 ** 2 + np.sum(c ** 2)) / k1
        elif kind == graphmod.OUTWARD_STAR:
            amp = np.sqrt(s.n - 1) * np.sqrt(np.sum(c ** 2)) / k1
        else:  # sequential
            amp = np.sqrt(np.sum(c ** 2)) / k1
        return max(1.0, r + a * float(amp))
    raise ParameterError(f"unknown relocator kind {kind!r}")


def _e_lipschitz(s, gamma, beta):
    """Lipschitz constant of the e map, via the C_i(gamma) recursion."""
    if not gamma > 0:
        raise ParameterError("gamma must be positive")
    root_m = np.sqrt(s.m)
    base = root_m * s.norm_M
    c = np.empty(s.n)
    c[0] = base
    ratios = np.empty(s.n)
    ratios[0] = c[0] / s.d[0]
    for i in range(1, s.n):
        s_n = ratios[:i].sum()
        s_f = 0.0
        for j in range(min(i, s.p)):
            s_f += ratios[: j + 1].sum()
        c[i] = base + s.norm_N * s_n + gamma * beta * s.norm_P * s.norm_R * s_f
        ratios[i] = c[i] / s.d[i]
    total = c[0] ** 2
    for i in range(1, s.n):
        total += (c[i] + s.norm_N * ratios[:i].sum()) ** 2
    return float(np.sqrt(total))


def lipschitz_series(kind, s, gammas, beta):
    """sum_k (L_{gamma_{k+1} <- gamma_k} - 1) over a recorded stepsize sequence.

    The convergence theory requires this series to stay finite; under the
    safeguard schedule it is bounded by a multiple of the summable positive
    variation of (gamma_k), so the partial sum is a cheap run diagnostic.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.size < 2:
        raise ParameterError("the series needs at least two stepsizes")
    total = 0.0
    for gamma, nxt in zip(gammas[:-1], gammas[1:]):
        total += lipschitz_constant(kind, s, nxt, gamma, beta) - 1.0
    return float(total)


def check_recycling(kind, s, prob, delta, gamma, z, tol=1e-10):
    """Check x_1(gamma, z) == x_1(delta, Q_{delta <- gamma} z), valid off fixed points."""
    if kind not in CHEAP_KINDS:
        raise ParameterError(f"recycling only holds for the cheap kinds, not {kind!r}")
    x1 = engine.first_block(s, prob, gamma, z)
    zq = relocate(kind, s, prob, delta, gamma, z, x1=x1)
    x1_after = engine.first_block(s, prob, delta, zq)
    return bool(np.linalg.norm(x1_after - x1) <= tol)
