import numpy as np
import pytest

from relsplit import linalg
from relsplit.errors import ParameterError, StructuralError
from relsplit.graph import (CANONICAL_KINDS, INWARD_STAR, OUTWARD_STAR, SEQUENTIAL,
                            DiGraph, canonical, default_predecessors, degrees,
                            graph_from_config, incidence, incidence_pinv_closed_form,
                            scheme_from_graph)
from relsplit.scheme import kappa_form_scheme, validate


def test_digraph_validation():
    with pytest.raises(StructuralError):
        DiGraph(3, ((2, 1), (1, 3)))  # arc ordering i < j violated
    with pytest.raises(StructuralError):
        DiGraph(2, ((1, 2), (1, 2)))  # duplicate arc
    with pytest.raises(StructuralError):
        DiGraph(3, ((1, 4), (2, 3)))  # node outside 1..n
    with pytest.raises(StructuralError):
        DiGraph(3, ((1, 2),))  # too few arcs to connect
    for endpoint in (2.7, True, "2"):   # arc endpoints are whole numbers: no arc (1, 2)
        with pytest.raises(ParameterError, match="arc endpoint"):
            DiGraph(2, ((1, endpoint),))
    # so is n: a whole float is that count, anything else is refused before the arcs are read
    assert DiGraph(3.0, ((1, 2), (2, 3))).n == 3
    assert type(DiGraph(3.0, ((1, 2), (2, 3))).n) is int
    for n in (True, 2.5, 0, -1, "3"):
        with pytest.raises(ParameterError, match=f"graph n must be a whole number >= 1, got {n!r}"):
            DiGraph(n, ((1, 2),))


def test_digraph_disconnected():
    with pytest.raises(StructuralError):
        DiGraph(5, ((1, 2), (1, 3), (4, 5), (2, 3)))


def test_degrees_examples():
    k, kin, kout = degrees(DiGraph(2, ((1, 2),)))
    assert k.tolist() == [1, 1] and kin.tolist() == [0, 1] and kout.tolist() == [1, 0]
    k, kin, _ = degrees(canonical(INWARD_STAR, 4))
    assert k.tolist() == [1, 1, 1, 3] and kin.tolist() == [0, 0, 0, 3]
    k, kin, _ = degrees(canonical(SEQUENTIAL, 3))
    assert k.tolist() == [1, 2, 1] and kin.tolist() == [0, 1, 1]


def test_handshake():
    rng = np.random.default_rng(1)
    graphs = [canonical(kind, n) for kind in CANONICAL_KINDS for n in range(2, 9)]
    for _ in range(20):
        n = int(rng.integers(2, 9))
        arcs = {(i, i + 1) for i in range(1, n)}
        for _ in range(rng.integers(0, 4)):
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            arcs.add((int(i), int(j)))
        graphs.append(DiGraph(n, tuple(sorted(arcs))))
    for g in graphs:
        k, kin, _ = degrees(g)
        assert int(np.sum(k - 2 * kin)) == 0


def test_incidence_examples():
    assert incidence(DiGraph(2, ((1, 2),))).tolist() == [[1.0], [-1.0]]
    assert incidence(canonical(SEQUENTIAL, 3)).tolist() == [[1, 0], [-1, 1], [0, -1]]
    for kind in CANONICAL_KINDS:
        inc = incidence(canonical(kind, 6))
        assert np.allclose(inc.sum(axis=0), 0.0, atol=0.0)


def test_canonical_examples():
    assert canonical(SEQUENTIAL, 2).arcs == ((1, 2),)
    assert canonical(INWARD_STAR, 4).arcs == ((1, 4), (2, 4), (3, 4))
    assert canonical(OUTWARD_STAR, 3).arcs == ((1, 2), (1, 3))
    with pytest.raises(ParameterError):
        canonical(SEQUENTIAL, 1)
    with pytest.raises(ParameterError):
        canonical("ring", 4)


def test_pinv_closed_forms_examples():
    assert np.allclose(incidence_pinv_closed_form(INWARD_STAR, 2), [[0.5, -0.5]], atol=1e-15)
    row = incidence_pinv_closed_form(SEQUENTIAL, 3)[0]
    assert np.allclose(row, [2 / 3, -1 / 3, -1 / 3], atol=1e-15)
    for kind in CANONICAL_KINDS:
        for n in range(2, 9):
            closed = incidence_pinv_closed_form(kind, n)
            assert np.allclose(closed.sum(axis=1), 0.0, atol=1e-12)
            numeric = linalg.pseudoinverse(incidence(canonical(kind, n)))
            assert np.max(np.abs(closed - numeric)) <= 1e-10


def test_predecessor_map():
    # where every node i >= 2 has an in-neighbor, h(i) is the smallest one
    assert default_predecessors(canonical(SEQUENTIAL, 3)) == {2: 1, 3: 2}
    assert default_predecessors(DiGraph(2, ((1, 2),))) == {2: 1}
    assert default_predecessors(canonical(OUTWARD_STAR, 4)) == {2: 1, 3: 1, 4: 1}
    # a node without in-neighbors falls back to node 1 instead of raising
    assert default_predecessors(canonical(INWARD_STAR, 3)) == {2: 1, 3: 1}


def test_default_predecessors_inward_star():
    h = default_predecessors(canonical(INWARD_STAR, 3))
    assert h[3] == 1  # smallest in-neighbor of the hub
    assert h[2] == 1  # fallback for the in-neighbor-less node


def test_scheme_from_chain_is_davis_yin_scheme():
    s = scheme_from_graph(DiGraph(2, ((1, 2),)))
    assert np.array_equal(s.d, [0.5, 0.5])
    assert s.M.tolist() == [[1.0], [-1.0]]
    assert s.N.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert s.P.tolist() == [[0.0], [1.0]]
    assert s.R.tolist() == [[1.0, 0.0]]


def test_scheme_from_sequential_three():
    s = scheme_from_graph(canonical(SEQUENTIAL, 3))
    assert s.N.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert np.array_equal(s.d, [0.5, 1.0, 0.5])


def test_scheme_from_graph_valid_for_all_canonical_trees():
    for kind in CANONICAL_KINDS:
        for n in range(2, 9):
            s = scheme_from_graph(canonical(kind, n))
            assert validate(s) == [], (kind, n)
            assert validate(kappa_form_scheme(s)) == [], (kind, n)
            assert s.p == n - 1 and s.m == n - 1


def test_scheme_from_graph_rejects_non_tree():
    g = DiGraph(3, ((1, 2), (2, 3), (1, 3)))
    with pytest.raises(ParameterError):
        scheme_from_graph(g)


def test_graph_from_config():
    g = graph_from_config({"kind": SEQUENTIAL, "n": 3})
    assert g.arcs == ((1, 2), (2, 3))
    with pytest.raises(StructuralError, match="graph config needs a 'kind'"):
        graph_from_config({"n": 3})
