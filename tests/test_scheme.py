import numpy as np
import pytest

from relsplit import config, graph as graphmod, linalg
from relsplit.errors import ParameterError, StructuralError
from relsplit.scheme import (CoefficientScheme, condition_report, eta, kappa_form_scheme, mu,
                             validate)


def chain_matrices():
    return dict(d=[0.5, 0.5], M=[[1.0], [-1.0]], N=[[0.0, 0.0], [1.0, 0.0]],
                P=[[0.0], [1.0]], R=[[1.0, 0.0]])


def test_chain_scheme_is_valid():
    s = CoefficientScheme(**chain_matrices())
    assert validate(s) == []
    # condition (d) combination is exactly the zero matrix here
    core = 2.0 * np.diag(s.d) - s.N - s.N.T - s.M @ s.M.T
    assert np.all(core == 0.0)


def test_violation_r_not_lower_triangular():
    mats = chain_matrices()
    mats["R"] = [[0.0, 1.0]]
    bad = validate(CoefficientScheme(**mats))
    assert any(v.startswith("(f)") for v in bad)


def test_violation_n_sum():
    mats = chain_matrices()
    mats["N"] = [[0.0, 0.0], [0.0, 0.0]]
    bad = validate(CoefficientScheme(**mats))
    assert any(v.startswith("(e)") for v in bad)


@pytest.mark.filterwarnings("ignore:overflow")
def test_violation_reports_offending_quantity():
    # M* 1 != 0; with 1e300, ||M* 1|| and ||M|| both overflow to inf
    for m in ([[1.0], [1.0]], [[1e300], [-1.0]]):
        s = CoefficientScheme(**dict(chain_matrices(), M=m))
        report = dict((label, (ok, detail)) for label, ok, detail in condition_report(s))
        ok, detail = report["a"]
        assert ok is False and "||M* 1||" in detail


def test_dimension_inconsistency_is_structural():
    mats = chain_matrices()
    mats["N"] = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(StructuralError):
        CoefficientScheme(**mats)
    with pytest.raises(StructuralError):
        CoefficientScheme(d=[0.5, -0.5], M=[[1.0], [-1.0]],
                          N=[[0.0, 0.0], [1.0, 0.0]], P=[[0.0], [1.0]], R=[[1.0, 0.0]])


def test_mu_chain_equals_beta():
    s = CoefficientScheme(**chain_matrices())
    for beta in (0.5, 1.0, 3.0, 17.0):
        assert abs(mu(s, beta) - beta) <= 1e-12 * beta


def test_mu_zero_when_p_star_equals_r():
    mats = chain_matrices()
    mats["P"] = [[0.0], [1.0]]
    mats["R"] = [[0.0, 1.0]]  # P* == R (violates (f), but mu is defined regardless)
    s = CoefficientScheme(**mats)
    assert mu(s, 5.0) == 0.0


def test_mu_zero_at_beta_zero():
    # no cocoercive term to bound: mu is 0 whatever the scheme
    for s in (CoefficientScheme(**chain_matrices()),
              graphmod.scheme_from_graph(graphmod.canonical(graphmod.INWARD_STAR, 4))):
        assert mu(s, 0.0) == 0.0


def test_mu_sequential_three_nodes():
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 3))
    # independent oracle: assemble (P* - R)(M*)^dagger and take its top singular value
    core = (s.P.T - s.R) @ linalg.pseudoinverse(s.M.T)
    oracle = np.linalg.svd(core, compute_uv=False)[0] ** 2
    assert abs(mu(s, 1.0) - oracle) <= 1e-12
    assert abs(mu(s, 1.0) - 1.0) <= 1e-10  # the chain-like value for this topology


def test_mu_homogeneous_in_beta():
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.INWARD_STAR, 4))
    base = mu(s, 1.0)
    for c in (0.25, 2.0, 13.0):
        assert abs(mu(s, c) - c * base) <= 1e-12 * max(1.0, c * base)


def test_eta_examples():
    assert eta(1.0, 123.0, 0.0) == 1.0
    assert eta(0.5, 1.0, 1.0) == 1.0
    assert abs(eta(1.0, 1.99, 1.0) - 200.0) <= 1e-9
    with pytest.raises(ParameterError):
        eta(1.0, 2.0, 1.0)
    with pytest.raises(ParameterError):
        eta(1.0, 2.5, 1.0)


def test_eta_monotone_in_theta_and_gamma():
    for mu_value in (0.5, 1.0, 2.0):
        thetas = np.linspace(0.1, 2.0, 7)
        vals = [eta(t, 1.0 / mu_value, mu_value) for t in thetas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        gammas = np.linspace(0.1, 1.9, 7) / mu_value
        vals = [eta(1.0, g, mu_value) for g in gammas]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_kappa_form_scheme_doubles_d_and_n():
    s = CoefficientScheme(**chain_matrices())
    k = kappa_form_scheme(s)
    assert np.array_equal(k.d, 2.0 * s.d) and np.array_equal(k.N, 2.0 * s.N)
    assert np.array_equal(k.M, s.M) and np.array_equal(k.P, s.P) and np.array_equal(k.R, s.R)
    assert validate(k) == []
    # a scheme is its five matrices: no flag records that k was doubled, so it doubles again
    kk = kappa_form_scheme(k)
    assert np.array_equal(kk.d, 4.0 * s.d) and np.array_equal(kk.N, 4.0 * s.N)


def test_serialization_roundtrip():
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.OUTWARD_STAR, 4))
    doc = {name: getattr(s, name).tolist() for name in ("d", "M", "N", "P", "R")}
    back = config.build_scheme({"scheme": doc})
    for name in ("d", "M", "N", "P", "R"):
        assert np.array_equal(getattr(back, name), getattr(s, name))
