import numpy as np
import pytest

from relsplit import graph as graphmod, relocator
from relsplit.engine import SplitProblem, first_block, sweep
from relsplit.errors import ParameterError, StructuralError
from relsplit.operators import L1Subdiff, ZeroForward, ZeroOp
from relsplit.propsuites import (kappa_scheme, relocator_axiom_checks,
                                 small_elastic_setup, small_lasso_setup,
                                 suite_lipschitz, suite_recycling)
from relsplit.relocator import (DAVIS_YIN, GENERAL, check_recycling, e_map,
                                lipschitz_constant, relocate)
from relsplit.scheme import kappa_form_scheme, mu


def test_e_map_zero_input():
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    assert np.array_equal(e_map(s, np.zeros((3, 2))), np.zeros((3, 2)))


def test_e_map_consensus_raw_chain():
    # at consensus the raw chain gives e = (x/2, -x/2), already zero-sum
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    xbar = np.array([2.0, -4.0])
    e = e_map(s, np.stack([xbar, xbar]))
    assert np.max(np.abs(e - np.stack([0.5 * xbar, -0.5 * xbar]))) <= 1e-15


def test_e_map_consensus_matches_closed_form():
    # e_i = (d_i - sum_j N_ij) * xbar on consensus vectors (zero-sum by condition (e))
    for kind in graphmod.CANONICAL_KINDS:
        for s in (graphmod.scheme_from_graph(graphmod.canonical(kind, 4)),
                  kappa_scheme(kind, 4)):
            xbar = np.array([1.5, -0.5, 2.0])
            coeff = s.d - s.N.sum(axis=1)
            e = e_map(s, np.tile(xbar, (4, 1)))
            assert np.max(np.abs(e - np.outer(coeff, xbar))) <= 1e-12


def _e_lower(s):
    """D - N_<, the lower-triangular map whose range(M) projection is the e map."""
    return np.diag(s.d) - np.tril(s.N, -1)


def _reference_schemes():
    for kind in graphmod.CANONICAL_KINDS:
        for n in range(2, 7):
            raw = graphmod.scheme_from_graph(graphmod.canonical(kind, n))
            yield raw
            yield kappa_form_scheme(raw)


def test_e_map_projects_onto_range_m():
    # on graph schemes ker(M*) = R*ones, so range(M) is the zero-sum subspace:
    # e_map of the x with (D - N_<) x = y is y - mean(y)
    rng = np.random.default_rng(4)
    for s in _reference_schemes():
        lower = _e_lower(s)
        proj = s.M @ np.linalg.pinv(s.M)
        y, w = rng.standard_normal((2, s.n, 3))
        e = e_map(s, np.linalg.solve(lower, y))
        assert np.max(np.abs(e - (y - y.mean(axis=0)))) <= 1e-12
        assert np.max(np.abs(e.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(proj @ e - e)) <= 1e-12
        # idempotent and nonexpansive
        assert np.max(np.abs(e_map(s, np.linalg.solve(lower, e)) - e)) <= 1e-12
        ew = e_map(s, np.linalg.solve(lower, w))
        assert np.linalg.norm(e - ew) <= np.linalg.norm(y - w) + 1e-12


def test_e_map_projection_examples():
    # a zero-sum y is kept, a constant one is removed
    for s in _reference_schemes():
        lower = _e_lower(s)
        y0 = np.array([[1.0, -2.0], [-1.0, 2.0]] + [[0.0, 0.0]] * (s.n - 2))
        assert np.max(np.abs(e_map(s, np.linalg.solve(lower, y0)) - y0)) <= 1e-12
        const = np.full((s.n, 3), 2.5)
        assert np.max(np.abs(e_map(s, np.linalg.solve(lower, const)))) <= 1e-12
    s = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    out = e_map(s, np.linalg.solve(_e_lower(s), np.array([[3.0], [1.0]])))
    assert np.max(np.abs(out - np.array([[1.0], [-1.0]]))) <= 1e-15


def test_general_relocate_matches_pinv_reference():
    # Q z = r z + (1 - r) M^dagger P_range(M) (D - N_<) x, with numpy's pinv
    from relsplit.scheme import CoefficientScheme
    no_a = CoefficientScheme([1.0, 1.0], [[1.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]],
                             np.zeros((2, 0)), np.zeros((0, 2)))
    rng = np.random.default_rng(8)
    gamma, delta = 0.4, 0.9
    r = delta / gamma
    for s in [*_reference_schemes(), no_a]:
        prob = SplitProblem([L1Subdiff(0.3)] * s.n, [ZeroForward()] * s.p, beta=0.0, dim=3)
        z = rng.standard_normal((s.m, 3))
        x = sweep(s, prob, gamma, z)
        pinv = np.linalg.pinv(s.M)
        expect = r * z + (1.0 - r) * (pinv @ (s.M @ pinv @ (_e_lower(s) @ x)))
        out = relocate(GENERAL, s, prob, delta, gamma, z)
        assert np.max(np.abs(out - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_relocate_identity_when_stepsize_unchanged():
    s, split, _ = small_lasso_setup(0)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((1, split.dim))
    for kind in (DAVIS_YIN, GENERAL):
        out = relocate(kind, s, split, 0.4, 0.4, z)
        assert np.max(np.abs(out - z)) <= 1e-15


def test_davis_yin_formula():
    s, split, _ = small_lasso_setup(1)
    v = np.full((1, split.dim), 2.0)
    a = first_block(s, split, 0.3, v)
    out = relocate(DAVIS_YIN, s, split, 0.6, 0.3, v, x1=a)
    assert np.max(np.abs(out - (2.0 * v + (1.0 - 2.0) * a))) <= 1e-14


def test_sequential_three_coefficients_are_unit():
    # degrees (1,2,1), in-degrees (0,1,1): cumulative sums give 1 for both blocks
    c = relocator.cheap_coefficients(graphmod.SEQUENTIAL, graphmod.canonical(graphmod.SEQUENTIAL, 3))
    assert c.tolist() == [1.0, 1.0]
    s, split, _ = small_elastic_setup(2, kind=graphmod.SEQUENTIAL)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, split.dim))
    x1 = first_block(s, split, 0.5, z)
    out = relocate(graphmod.SEQUENTIAL, s, split, 1.0, 0.5, z, x1=x1)
    assert np.max(np.abs(out - (2.0 * z - np.outer([1.0, 1.0], x1)))) <= 1e-14


def test_cheap_kind_requires_matching_scheme():
    s, split, _ = small_elastic_setup(3, kind=graphmod.SEQUENTIAL)
    z = np.zeros((2, split.dim))
    with pytest.raises(StructuralError):
        relocate(graphmod.INWARD_STAR, s, split, 1.0, 0.5, z)
    with pytest.raises(StructuralError):
        relocate(DAVIS_YIN, s, split, 1.0, 0.5, z)  # needs n = 2
    raw = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 3))
    with pytest.raises(StructuralError):
        relocate(graphmod.SEQUENTIAL, raw, split, 1.0, 0.5, z)  # not kappa form
    with pytest.raises(ParameterError):
        relocate("bogus", s, split, 1.0, 0.5, z)
    with pytest.raises(ParameterError):
        relocate(GENERAL, s, split, -1.0, 0.5, z)


def test_relocator_axioms_small_instances():
    s, split, _ = small_lasso_setup(3)
    assert relocator_axiom_checks(s, split, DAVIS_YIN, 0.8 / split.beta) == []
    for kind in (graphmod.OUTWARD_STAR, graphmod.INWARD_STAR):
        s, split, _ = small_elastic_setup(5, kind=kind)
        assert relocator_axiom_checks(s, split, kind, 0.8 / mu(s, split.beta)) == []


def test_general_relocator_axioms_on_explicit_scheme():
    # the identity-diagonal chain variant: valid, but not graph-built, so only
    # the general relocator applies; fixed points must still be transported
    from relsplit.propsuites import converge
    from relsplit import problems
    from relsplit.engine import residuals, sweep
    from relsplit.scheme import CoefficientScheme
    s = CoefficientScheme([1.0, 1.0], [[1.0], [-1.0]], [[0.0, 0.0], [2.0, 0.0]],
                          [[0.0], [1.0]], [[1.0, 0.0]])
    prob = problems.gen_lasso(15, 20, seed=21, lam=1e-2, u=50.0)
    split = problems.split_lasso(prob)
    assert abs(mu(s, split.beta) - split.beta) <= 1e-12 * split.beta
    gamma = 0.8 / split.beta
    trace = converge(s, split, GENERAL, gamma, fix_res_tol=1e-10)
    sw = sweep(s, split, gamma, trace.z_final)
    for delta in (0.5 * gamma, 2.0 * gamma):
        zd = relocate(GENERAL, s, split, delta, gamma, trace.z_final, sweep=sw)
        fr, _ = residuals(s, sweep(s, split, delta, zd))
        assert fr <= 1e-8
        back = relocate(GENERAL, s, split, gamma, delta, zd)
        assert np.linalg.norm(back - trace.z_final) <= 1e-8


def test_e_map_fallback_projection_without_condition_a():
    # ker(M*) != R*ones here, so range(M) is not the zero-sum subspace
    from relsplit.scheme import CoefficientScheme, condition_report
    s = CoefficientScheme([1.0, 1.0], [[1.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]],
                          np.zeros((2, 0)), np.zeros((0, 2)))
    assert not dict((label, ok) for label, ok, _ in condition_report(s))["a"]
    x = np.array([[3.0, 1.0], [1.0, -1.0]])
    e = e_map(s, x)
    # range(M (x) Id) = {(y, y)}: the projection averages the two blocks
    expect = np.tile(0.5 * (x[0] + x[1]), (2, 1))
    assert np.max(np.abs(e - expect)) <= 1e-12


def test_lipschitz_constants_examples():
    s, split, _ = small_lasso_setup(4)
    for kind in (DAVIS_YIN, GENERAL, graphmod.SEQUENTIAL):
        assert lipschitz_constant(kind, s, 0.7, 0.7, split.beta) == 1.0
    assert lipschitz_constant(DAVIS_YIN, s, 0.8, 0.4, split.beta) == 3.0  # delta = 2*gamma
    assert lipschitz_constant(DAVIS_YIN, s, 0.2, 0.4, split.beta) == 1.0  # = r + |1-r|


def test_general_constant_dominates_empirical_ratio():
    s, split, _ = small_lasso_setup(5)
    gamma = 0.5 / split.beta
    delta = 2.0 * gamma
    lip = lipschitz_constant(GENERAL, s, delta, gamma, split.beta)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        z, w = rng.normal(0.0, 3.0, size=(2, 1, split.dim))
        qz = relocate(GENERAL, s, split, delta, gamma, z)
        qw = relocate(GENERAL, s, split, delta, gamma, w)
        worst = max(worst, np.linalg.norm(qz - qw) / np.linalg.norm(z - w))
    assert worst <= lip


def test_empirical_lipschitz_all_kinds():
    assert suite_lipschitz(trials=400, seed=11) == []


def test_recycling_trivial_and_spec_cases():
    s, split, _ = small_lasso_setup(6)
    rng = np.random.default_rng(6)
    z = rng.standard_normal((1, split.dim))
    # delta == gamma is the same computation bit for bit
    x1 = first_block(s, split, 0.5, z)
    zq = relocate(DAVIS_YIN, s, split, 0.5, 0.5, z, x1=x1)
    assert np.array_equal(first_block(s, split, 0.5, zq), x1)
    assert check_recycling(DAVIS_YIN, s, split, 0.5 / 3.0, 0.5, z, tol=1e-12)
    se, spe, _ = small_elastic_setup(7, kind=graphmod.SEQUENTIAL)
    ze = rng.standard_normal((2, spe.dim))
    assert check_recycling(graphmod.SEQUENTIAL, se, spe, 1.7 * 0.4, 0.4, ze, tol=1e-10)
    with pytest.raises(ParameterError):
        check_recycling(GENERAL, s, split, 0.4, 0.5, z)


def test_recycling_suite_random():
    assert suite_recycling(trials=300, seed=12) == []


def test_general_relocator_needs_no_graph():
    # explicit (non-graph) scheme: general works, cheap kinds refuse
    from relsplit.scheme import CoefficientScheme
    s = CoefficientScheme([1.0, 1.0], [[1.0], [-1.0]], [[0.0, 0.0], [2.0, 0.0]],
                          [[0.0], [1.0]], [[1.0, 0.0]])
    prob = SplitProblem([ZeroOp(), L1Subdiff(1.0)], [ZeroForward()], beta=0.0, dim=2)
    z = np.ones((1, 2))
    out = relocate(GENERAL, s, prob, 0.2, 0.4, z)
    assert out.shape == (1, 2)
    with pytest.raises(StructuralError):
        relocate(DAVIS_YIN, s, prob, 0.2, 0.4, z)


def test_relocate_checks_shapes():
    s, split, _ = small_elastic_setup(3)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((s.m, split.dim))
    x = sweep(s, split, 0.4, z)
    for bad in (x[:2], np.vstack([x, x[:1]]), x[0]):
        with pytest.raises(StructuralError, match=rf"sweep must have shape \(3, {split.dim}\)"):
            relocate(GENERAL, s, split, 0.5, 0.4, z, sweep=bad)
    for bad in (0.0, x[0][:-1], x[:1]):
        with pytest.raises(StructuralError, match=rf"x1 must have shape \({split.dim},\)"):
            relocate(graphmod.SEQUENTIAL, s, split, 0.5, 0.4, z, x1=bad)
    expect = relocate(graphmod.SEQUENTIAL, s, split, 0.5, 0.4, z, x1=x[0])
    assert np.array_equal(relocate(graphmod.SEQUENTIAL, s, split, 0.5, 0.4, z, sweep=x), expect)
