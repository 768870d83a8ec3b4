"""Fixed-point relocators Q_{delta <- gamma}.

A relocator maps Fix T_gamma bijectively onto Fix T_delta, is continuous in
delta, satisfies the semigroup law on fixed points and is globally Lipschitz.
Every kind is one fixed matrix K, built once per scheme by ``relocation_map``:

    Q z = r z + (1 - r) K x(z),    r = delta/gamma, x(z) the resolvent outputs at (gamma, z).

* ``general``: K = M^dagger (D - N_<), m x n, with N_< the strictly lower
  triangle of N, applied to a full sweep at z. The relocator is
  M^dagger e(z) with e(z) = P_range(M) (D - N_<) x(z); since
  M^dagger P_range(M) = M^dagger M M^dagger = M^dagger, the projection drops
  out, and ``e_map`` is M K x for any M. Valid for every scheme, at the
  price of one extra sweep per iteration.

* cheap graph kinds (``inward-star``, ``outward-star``, ``sequential``,
  ``davis-yin``): K = c[:, None], one column of per-block coefficients fixed
  by the degrees of the canonical tree, applied to x_1(z) alone. These agree
  with the general relocator on fixed points, recycle the single resolvent
  output x_1 (x_1 at gamma of z equals x_1 at delta of Qz, for every z), and
  therefore add no resolvent evaluations per iteration.

Lipschitz constants are r + |1 - r| times a bound on z -> K x(z). For the
cheap kinds that bound has a closed form in the tree degrees; for the general
kind it is ||M^dagger|| times a Lipschitz constant of the e map, from the
recursion C_1 = sqrt(m)||M||,
C_i = sqrt(m)||M|| + ||N|| sum_{j<i} C_j/d_j
      + gamma*beta*||P||*||R|| sum_j sum_{t<=j} C_t/d_t
is evaluated with the scheme's matrices (spectral norms of the unlifted
matrices equal the lifted operator norms). The inner sum runs to t <= j to
match the implemented (R x)_j, so the constant stays an upper bound.
"""

from __future__ import annotations

import numpy as np

from . import engine, graph as graphmod, linalg
from .errors import ParameterError, StructuralError

GENERAL = "general"
DAVIS_YIN = "davis-yin"
CHEAP_KINDS = (graphmod.INWARD_STAR, graphmod.OUTWARD_STAR, graphmod.SEQUENTIAL, DAVIS_YIN)
KINDS = (GENERAL,) + CHEAP_KINDS


def relocation_map(kind, s):
    """The matrix K of Q_{delta <- gamma} z = r z + (1 - r) K x on scheme ``s``.

    For ``general`` K = M^dagger (D - N_<) and x is the full sweep output at
    (gamma, z), applied as ``K @ x``; for the cheap kinds K is the column
    c[:, None] and x is x_1 alone, applied as the broadcast ``K * x1``.
    """
    if kind == GENERAL:
        return s.pinv_M @ (np.diag(s.d) - np.tril(s.N, -1))
    if kind in CHEAP_KINDS:
        require_graph_scheme(kind, s)
        return cheap_coefficients(kind, s.graph)[:, None]
    raise ParameterError(f"unknown relocator kind {kind!r}")


def e_map(s, x):
    """e(z) = P_range(M) of (d_i x_i - (N x)_{<= i-1}), from the sweep outputs x.

    Computed as M K x with K the general relocation map: M M^dagger is the
    orthogonal projection onto range(M), whether or not ker(M*) = R*ones.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != s.n:
        raise StructuralError(f"expected {s.n} resolvent outputs, got {x.shape[0]}")
    return s.M @ (relocation_map(GENERAL, s) @ x)


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


def cheap_coefficients(kind, g):
    """Per-block multipliers of x_1 in the cheap relocators (length n - 1).

    They are ones on every canonical tree, which ``driver._EngineStep``
    relies on when it broadcasts x_1 in place of the product K x_1.
    """
    kappa, kin, _ = graphmod.degrees(g)
    w = (kappa - 2 * kin).astype(float)
    if kind in (graphmod.INWARD_STAR, DAVIS_YIN):
        c = w[:-1]
    elif kind == graphmod.OUTWARD_STAR:
        c = -w[1:]
    elif kind == graphmod.SEQUENTIAL:
        c = np.cumsum(w)[:-1]
    else:
        raise ParameterError(f"unknown cheap relocator kind {kind!r}")
    assert np.all(c == 1.0), f"{kind} coefficients {c} are not ones"
    return c


def relocate(kind, s, prob, delta, gamma, z, sweep=None, x1=None):
    """Apply Q_{delta <- gamma} to z.

    ``sweep`` is the (n, d) array ``engine.sweep`` returns at (gamma, z).
    For the cheap kinds only ``x1`` (its first row, a d-vector) is needed;
    for ``general`` the full array is (each computed here when not supplied).
    """
    r = _check_ratio(delta, gamma)
    z = linalg.as_blocks(z, s.m)
    if sweep is not None:
        sweep = linalg.check_shape("sweep", sweep, (s.n, z.shape[1]))
    if x1 is not None:
        x1 = linalg.check_shape("x1", x1, (z.shape[1],))
    K = relocation_map(kind, s)
    if kind == GENERAL:
        x = sweep if sweep is not None else engine.sweep(s, prob, gamma, z)
        return r * z + (1.0 - r) * (K @ x)
    if x1 is None:
        x1 = sweep[0] if sweep is not None else engine.first_block(s, prob, gamma, z)
    return r * z + (1.0 - r) * (K * x1)


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
        k1 = float(graphmod.degrees(s.graph)[0][0])
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
