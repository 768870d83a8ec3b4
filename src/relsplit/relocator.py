"""Fixed-point relocators Q_{delta <- gamma}: the one module that says what a kind means.

A relocator maps Fix T_gamma bijectively onto Fix T_delta, is continuous in
delta, satisfies the semigroup law on fixed points and is globally Lipschitz.
Every kind relocates by one formula,

    Q z = r z + (1 - r) K x(z),    r = delta/gamma, x(z) the resolvent outputs at (gamma, z).

* ``general``: K = M^dagger (D - N_<), m x n, with N_< the strictly lower
  triangle of N, applied to a full sweep at z. The relocator is
  M^dagger e(z) with e(z) = P_range(M) (D - N_<) x(z); since
  M^dagger P_range(M) = M^dagger M M^dagger = M^dagger, the projection drops
  out, and ``e_map`` is M K x for any M. Valid for every scheme, at the
  price of one extra sweep per iteration.

* cheap graph kinds (``inward-star``, ``outward-star``, ``sequential``,
  ``davis-yin``): K is the paper's column of tree-degree coefficients
  applied to x_1(z) alone. That column is ones on every canonical tree, so
  relocation broadcasts x_1 to every block and no matrix is built
  (``relocation_map`` returns None). These kinds agree with the general
  relocator on fixed points, recycle the single resolvent output x_1 (x_1 at
  gamma of z equals x_1 at delta of Qz, for every z), and therefore add no
  resolvent evaluations per iteration.

A cheap kind admits exactly the kappa-form matrices (D, M, N, P, R) of its
canonical tree (davis-yin: of the two-node chain), however the scheme was
built: the identities above rest on the matrices alone. ``tree_kinds``
derives those kinds from a scheme, ``check_kind`` decides which schemes a
kind admits and ``pick_kind`` resolves "auto"; every other module asks them.

Lipschitz constants are r + |1 - r| times a bound on z -> K x(z). For the
cheap kinds that bound has a closed form in the tree degrees, which on the
canonical trees is sqrt(n) (inward star), sqrt(n - 1) (chain) and 1 (outward
star, davis-yin); for the general kind it is ||M^dagger|| times a Lipschitz
constant of the e map, from the recursion C_1 = sqrt(m)||M||,
C_i = sqrt(m)||M|| + ||N|| sum_{j<i} C_j/d_j
      + gamma*beta*||P||*||R|| sum_j sum_{t<=j} C_t/d_t
is evaluated with the scheme's matrices (spectral norms of the unlifted
matrices equal the lifted operator norms). The inner sum runs to t <= j to
match the implemented (R x)_j, so the constant stays an upper bound.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import engine, graph as graphmod, linalg
from .errors import ParameterError, StructuralError
from .scheme import kappa_form_scheme

GENERAL = "general"
DAVIS_YIN = "davis-yin"
CHEAP_KINDS = (graphmod.INWARD_STAR, graphmod.OUTWARD_STAR, graphmod.SEQUENTIAL, DAVIS_YIN)
KINDS = (GENERAL,) + CHEAP_KINDS
# the bound on z -> K x_1(z) of each cheap kind, by n: its closed form in the tree
# degrees at a column K of ones
_CHEAP_AMPLITUDE = {graphmod.INWARD_STAR: math.sqrt, graphmod.OUTWARD_STAR: lambda n: 1.0,
                    graphmod.SEQUENTIAL: lambda n: math.sqrt(n - 1), DAVIS_YIN: lambda n: 1.0}


def _matrices(s):
    """The shapes and values of (D, M, N, P, R), as one comparable key (+ 0.0 turns -0.0 to 0.0)."""
    return tuple((a.shape, (a + 0.0).tobytes()) for a in (s.d, s.M, s.N, s.P, s.R))


@functools.lru_cache(maxsize=32)
def _tree(kind, n):
    """``_matrices`` of the kappa-form scheme of the canonical ``kind`` tree on n nodes."""
    return _matrices(kappa_form_scheme(graphmod.scheme_from_graph(graphmod.canonical(kind, n))))


def tree_kinds(s):
    """The canonical kinds whose kappa-form tree on s.n nodes equals ``s``, matrix for matrix.

    At n = 2 the three trees are one chain, so a match is all three; at n >= 3
    at most one kind matches.
    """
    key = _matrices(s)
    kinds = graphmod.CANONICAL_KINDS if s.n >= 2 else ()   # canonical trees need n >= 2
    return tuple(kind for kind in kinds if _tree(kind, s.n) == key)


def check_kind(kind, s):
    """ParameterError for an unknown kind, StructuralError for a scheme ``kind`` does not admit.

    The general kind admits every scheme; a cheap kind admits the kappa-form
    matrices of its canonical tree (davis-yin: the two-node chain) and no others.
    """
    if kind not in KINDS:
        raise ParameterError(f"unknown relocator kind {kind!r}")
    if kind == GENERAL:
        return
    trees = tree_kinds(s)
    if kind not in trees and not (kind == DAVIS_YIN and s.n == 2 and trees):
        tree = "the two-node chain" if kind == DAVIS_YIN else f"the {kind} tree on {s.n} nodes"
        raise StructuralError(f"relocator kind {kind!r} admits only the kappa-form matrices "
                              f"of {tree}")


def pick_kind(requested, s):
    """Resolve 'auto' to the scheme's cheap relocator kind (general otherwise)."""
    if requested != "auto":
        return requested
    trees = tree_kinds(s)
    return GENERAL if not trees else DAVIS_YIN if s.n == 2 else trees[0]


def relocation_map(kind, s):
    """The matrix K of Q_{delta <- gamma} z = r z + (1 - r) K x on scheme ``s``.

    ``check_kind`` checks ``kind`` first. For ``general`` K = M^dagger (D - N_<),
    formed from the scheme's matrices as they are at this call, and x is the
    full sweep output at (gamma, z), applied as ``K @ x``; a cheap kind's K is
    a column of ones, so it is None and x_1 is broadcast.
    """
    check_kind(kind, s)
    if kind != GENERAL:
        return None
    return linalg.pseudoinverse(s.M) @ (np.diag(s.d) - np.tril(s.N, -1))


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
    if not 0 < gamma < math.inf or not 0 < delta < math.inf:   # NaN fails both
        raise ParameterError(f"stepsizes must be finite and positive, got gamma={gamma}, "
                             f"delta={delta}")
    return delta / gamma


def relocate(kind, s, prob, delta, gamma, z):
    """Apply Q_{delta <- gamma} to z: z itself at delta = gamma, never a view of z.

    The resolvent outputs the kind reads are evaluated here at (gamma, z):
    x_1 alone for a cheap kind (one resolvent), the whole sweep for
    ``general`` (n resolvents). The formula is the one a run's step
    relocates with (``engine.SweepPlan.relocation``).
    """
    r = _check_ratio(delta, gamma)
    plan = engine.SweepPlan(s, prob, relocation_map(kind, s))
    z = plan.blocks(z)
    x = plan.sweep(gamma, z) if kind == GENERAL else plan.first_block(gamma, z)
    return np.array(plan.relocation(r, z, x))


def lipschitz_constant(kind, s, delta, gamma, beta):
    """Lipschitz constant of Q_{delta <- gamma}; always >= 1 and = 1 when delta = gamma."""
    return _lipschitz(kind, s, _check_ratio(delta, gamma), gamma, beta, _norms(kind, s))


def _norms(kind, s):
    """Check ``kind``; the spectral norms of (M^dagger, M, N, P, R) that its bound reads.

    Only the general kind's bound reads norms; a cheap kind's are ().
    """
    check_kind(kind, s)
    mats = (linalg.pseudoinverse(s.M), s.M, s.N, s.P, s.R) if kind == GENERAL else ()
    return tuple(linalg.spectral_norm(a) for a in mats)


def _lipschitz(kind, s, r, gamma, beta, norms):
    """``lipschitz_constant`` at the ratio r = delta/gamma, with ``_norms(kind, s)``."""
    a = abs(1.0 - r)
    if kind == GENERAL:
        return max(1.0, r + a * norms[0] * _e_lipschitz(s, gamma, beta, *norms[1:]))
    return max(1.0, r + a * _CHEAP_AMPLITUDE[kind](s.n))


def _e_lipschitz(s, gamma, beta, norm_M, norm_N, norm_P, norm_R):
    """Lipschitz constant of the e map, via the C_i(gamma) recursion.

    The spectral norms of M, N, P and R are the caller's, so a series over
    many stepsizes computes them once.
    """
    root_m = np.sqrt(s.m)
    base = root_m * norm_M
    c = np.empty(s.n)
    c[0] = base
    ratios = np.empty(s.n)
    ratios[0] = c[0] / s.d[0]
    for i in range(1, s.n):
        s_n = ratios[:i].sum()
        s_f = 0.0
        for j in range(min(i, s.p)):
            s_f += ratios[: j + 1].sum()
        c[i] = base + norm_N * s_n + gamma * beta * norm_P * norm_R * s_f
        ratios[i] = c[i] / s.d[i]
    total = c[0] ** 2
    for i in range(1, s.n):
        total += (c[i] + norm_N * ratios[:i].sum()) ** 2
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
    norms = _norms(kind, s)
    return float(sum(_lipschitz(kind, s, _check_ratio(nxt, gamma), gamma, beta, norms) - 1.0
                     for gamma, nxt in zip(gammas[:-1], gammas[1:])))


def check_recycling(kind, s, prob, delta, gamma, z, tol=1e-10):
    """Check x_1(gamma, z) == x_1(delta, Q_{delta <- gamma} z), valid off fixed points.

    ``relocate`` evaluates its own x_1(gamma, z), bitwise the one compared here.
    """
    if kind not in CHEAP_KINDS:
        raise ParameterError(f"recycling only holds for the cheap kinds, not {kind!r}")
    x1 = engine.first_block(s, prob, gamma, z)
    zq = relocate(kind, s, prob, delta, gamma, z)
    x1_after = engine.first_block(s, prob, delta, zq)
    return bool(np.linalg.norm(x1_after - x1) <= tol)
