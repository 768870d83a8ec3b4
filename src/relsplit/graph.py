"""Directed-graph front end: degrees, incidence matrices, canonical spanning trees,
closed-form incidence pseudoinverses, and coefficient schemes built from graphs.

Nodes are labelled 1..n and every arc (i, j) must satisfy i < j. The underlying
undirected graph must be connected and simple. Schemes are built only for
spanning trees (|arcs| = n - 1), which covers the three canonical trees, the
chain (Davis-Yin) case and all experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError, as_count
from .scheme import CoefficientScheme

INWARD_STAR = "inward-star"
OUTWARD_STAR = "outward-star"
SEQUENTIAL = "sequential"
CANONICAL_KINDS = (INWARD_STAR, OUTWARD_STAR, SEQUENTIAL)


@dataclass(frozen=True, eq=False)
class DiGraph:
    """Directed graph on nodes 1..n with ordered arcs (i, j), i < j."""

    n: int
    arcs: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", as_count("graph n", self.n))
        arcs = tuple((as_count("arc endpoint", i), as_count("arc endpoint", j))
                     for i, j in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        seen = set()
        for i, j in arcs:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise StructuralError(f"arc ({i},{j}) references a node outside 1..{self.n}")
            if i >= j:
                raise StructuralError(f"arc ({i},{j}) violates the ordering i < j")
            if (i, j) in seen:
                raise StructuralError(f"duplicate arc ({i},{j})")
            seen.add((i, j))
        if len(arcs) < self.n - 1:
            raise StructuralError(f"{len(arcs)} arcs cannot connect {self.n} nodes")
        if not _connected(self.n, arcs):
            raise StructuralError("underlying undirected graph is not connected")

    @property
    def n_arcs(self):
        return len(self.arcs)

    @property
    def is_tree(self):
        return self.n_arcs == self.n - 1


def _connected(n, arcs):
    adj = {i: set() for i in range(1, n + 1)}
    for i, j in arcs:
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def degrees(g):
    """(degree, in-degree, out-degree) per node, as int arrays of length n."""
    kin = np.zeros(g.n, dtype=int)
    kout = np.zeros(g.n, dtype=int)
    for i, j in g.arcs:
        kout[i - 1] += 1
        kin[j - 1] += 1
    return kin + kout, kin, kout


def incidence(g):
    """Incidence matrix, one column per arc: +1 at the source row, -1 at the target."""
    inc = np.zeros((g.n, g.n_arcs))
    for e, (i, j) in enumerate(g.arcs):
        inc[i - 1, e] = 1.0
        inc[j - 1, e] = -1.0
    return inc


def canonical(kind, n):
    """One of the three canonical spanning trees on n >= 2 nodes.

    inward-star: arcs (i, n) for i < n (hub n receives).
    outward-star: arcs (1, i) for i > 1 (hub 1 sends); this is the arc-ordering
    compliant reindexing of the star that sends from the last node.
    sequential: the chain (i, i+1).
    """
    if n < 2:
        raise ParameterError("canonical trees need n >= 2")
    if kind == INWARD_STAR:
        arcs = tuple((i, n) for i in range(1, n))
    elif kind == OUTWARD_STAR:
        arcs = tuple((1, i) for i in range(2, n + 1))
    elif kind == SEQUENTIAL:
        arcs = tuple((i, i + 1) for i in range(1, n))
    else:
        raise ParameterError(f"unknown canonical kind {kind!r}")
    return DiGraph(n, arcs)


def incidence_pinv_closed_form(kind, n):
    """Closed-form pseudoinverse of the canonical tree incidence matrix, (n-1) x n."""
    if n < 2:
        raise ParameterError("canonical trees need n >= 2")
    out = np.empty((n - 1, n))
    if kind == INWARD_STAR:
        out.fill(-1.0 / n)
        out[np.arange(n - 1), np.arange(n - 1)] += 1.0
    elif kind == OUTWARD_STAR:
        out.fill(1.0 / n)
        out[np.arange(n - 1), np.arange(1, n)] -= 1.0
    elif kind == SEQUENTIAL:
        for r in range(n - 1):
            i = r + 1
            out[r, : i] = 1.0 - i / n
            out[r, i:] = -i / n
    else:
        raise ParameterError(f"unknown canonical kind {kind!r}")
    return out


def default_predecessors(g):
    """Predecessor h(i) of each node i >= 2: its smallest in-neighbor, else node 1.

    One pass over the arcs in descending order, so the smallest in-neighbor
    of a node is written last. Only h(i) < i matters for the scheme
    conditions (R lower triangular with unit row sums); the fallback keeps
    inward stars usable for n >= 3.
    """
    h = dict.fromkeys(range(2, g.n + 1), 1)
    for i, j in sorted(g.arcs, reverse=True):
        h[j] = i
    return h


def scheme_from_graph(g):
    """Coefficient scheme of the graph-devised forward-backward method.

    D = (1/2) diag(degrees), M = incidence, N_ij = 1 iff j -> i,
    P^T = [0 | I_{n-1}], R with R[i-1, h(i+1)-1] = 1 for the predecessors h
    of ``default_predecessors``; n resolvents, p = m = n - 1. Only spanning
    trees are supported.
    """
    if g.n < 2:
        raise ParameterError("schemes need n >= 2 nodes")
    if not g.is_tree:
        raise ParameterError(f"only spanning trees are supported ({g.n_arcs} arcs, n = {g.n})")
    h = default_predecessors(g)
    n = g.n
    kappa, _, _ = degrees(g)
    d = 0.5 * kappa.astype(float)
    M = incidence(g)
    N = np.zeros((n, n))
    for i, j in g.arcs:
        N[j - 1, i - 1] = 1.0
    P = np.zeros((n, n - 1))
    P[1:, :] = np.eye(n - 1)
    R = np.zeros((n - 1, n))
    for i in range(1, n):
        R[i - 1, h[i + 1] - 1] = 1.0
    return CoefficientScheme(d, M, N, P, R)


def graph_from_config(doc):
    """Build the canonical DiGraph of a {"kind": ..., "n": ...} graph section."""
    if "kind" not in doc:
        raise StructuralError("graph config needs a 'kind'")
    return canonical(doc["kind"], as_count("graph n", doc["n"]))
