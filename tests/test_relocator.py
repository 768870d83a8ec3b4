import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from relsplit import graph as graphmod, relocator
from relsplit.engine import SplitProblem, first_block, sweep
from relsplit.errors import ParameterError, StructuralError
from relsplit.operators import L1Subdiff, ZeroForward
from relsplit.propsuites import (kappa_scheme, relocator_axiom_checks,
                                 small_elastic_setup, small_lasso_setup,
                                 suite_lipschitz, suite_recycling)
from relsplit.relocator import (DAVIS_YIN, GENERAL, check_recycling, e_map,
                                lipschitz_constant, relocate)
from relsplit.scheme import CoefficientScheme, kappa_form_scheme, mu


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
    out = relocate(DAVIS_YIN, s, split, 0.6, 0.3, v)
    assert np.max(np.abs(out - (2.0 * v + (1.0 - 2.0) * a))) <= 1e-14


def test_sequential_three_coefficients_are_unit():
    # degrees (1,2,1), in-degrees (0,1,1): cumulative sums give 1 for both blocks, so
    # relocation broadcasts x_1
    s, split, _ = small_elastic_setup(2, kind=graphmod.SEQUENTIAL)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, split.dim))
    x1 = first_block(s, split, 0.5, z)
    out = relocate(graphmod.SEQUENTIAL, s, split, 1.0, 0.5, z)
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


def test_stepsizes_must_be_finite_and_positive():
    # an infinite delta relocated to NaNs, an infinite gamma to a finite point, and the
    # Lipschitz constant read inf
    s, split, _ = small_elastic_setup(5)
    z = np.random.default_rng(5).standard_normal((s.m, split.dim))
    for delta, gamma in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -1.0),
                         (0.0, 1.0)):
        message = re.escape(f"stepsizes must be finite and positive, got gamma={gamma}, "
                            f"delta={delta}")
        with pytest.raises(ParameterError, match=message):
            relocate(graphmod.SEQUENTIAL, s, split, delta, gamma, z)
        with pytest.raises(ParameterError, match=message):
            lipschitz_constant(graphmod.SEQUENTIAL, s, delta, gamma, split.beta)


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
    for delta in (0.5 * gamma, 2.0 * gamma):
        zd = relocate(GENERAL, s, split, delta, gamma, trace.z_final)
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


def cheap_amplitude_squared(kind, n):
    """The paper's amp^2 of a cheap kind on its kappa-form tree, as a Fraction, and its c.

    c is the column of degree coefficients w = kappa - 2 kin: w[:-1] (inward star,
    davis-yin), -w[1:] (outward star) or cumsum(w)[:-1] (chain); k1 is node 1's degree.
    """
    tree = graphmod.SEQUENTIAL if kind == DAVIS_YIN else kind
    kappa, kin, _ = graphmod.degrees(graphmod.canonical(tree, n))
    w = [int(v) for v in kappa - 2 * kin]
    c = {graphmod.INWARD_STAR: w[:-1], DAVIS_YIN: w[:-1],
         graphmod.OUTWARD_STAR: [-v for v in w[1:]],
         graphmod.SEQUENTIAL: list(itertools.accumulate(w))[:-1]}[kind]
    k1, sq = int(kappa[0]), sum(v * v for v in c)
    amp2 = {graphmod.INWARD_STAR: Fraction(k1 * k1 + sq, k1 * k1),
            graphmod.OUTWARD_STAR: Fraction((n - 1) * sq, k1 * k1),
            graphmod.SEQUENTIAL: Fraction(sq, k1 * k1), DAVIS_YIN: Fraction(1)}[kind]
    return amp2, c


def test_cheap_lipschitz_constants_are_the_closed_forms():
    # every cheap kind on its tree at n = 2..8 (davis-yin at n = 2): the degree
    # coefficients are ones, amp^2 is exactly n, 1, n - 1 or 1, and the constant is
    # max(1, r + |1 - r| amp), never below r + |1 - r| (a bound evaluated from c in
    # floats read 0.9999999999999999 for the outward star's amp at n = 4 and n = 7)
    want = {graphmod.INWARD_STAR: lambda n: n, graphmod.OUTWARD_STAR: lambda n: 1,
            graphmod.SEQUENTIAL: lambda n: n - 1, DAVIS_YIN: lambda n: 1}
    gamma = 0.4
    ratios = np.geomspace(0.2, 50.0, 97).tolist() + [1.0, 1.562 / gamma, 0.5, 2.0]
    for kind in relocator.CHEAP_KINDS:
        for n in (2,) if kind == DAVIS_YIN else range(2, 9):
            s = kappa_scheme(graphmod.SEQUENTIAL if kind == DAVIS_YIN else kind, n)
            amp2, c = cheap_amplitude_squared(kind, n)
            assert c == [1] * (n - 1), (kind, n, c)
            assert amp2 == want[kind](n), (kind, n, amp2)
            amp = math.sqrt(amp2)
            for r in ratios:
                delta = r * gamma
                rr = delta / gamma   # the ratio the library forms
                got = lipschitz_constant(kind, s, delta, gamma, 1.0)
                assert got >= rr + abs(1.0 - rr), (kind, n, r, got)
                assert got == max(1.0, rr + abs(1.0 - rr) * amp), (kind, n, r, got)
    assert lipschitz_constant(graphmod.OUTWARD_STAR, kappa_scheme(graphmod.OUTWARD_STAR, 4),
                              1.562, 0.4, 1.0) == 6.81


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
    zq = relocate(DAVIS_YIN, s, split, 0.5, 0.5, z)
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
    # the kinds a scheme admits follow from its matrices, not from how it was built: the
    # explicit kappa chain relocates bitwise as the graph-built chain under every kind,
    # and the chain with M = (0.5, -0.5), which is no canonical tree, relocates under
    # the general kind only
    s = CoefficientScheme([1.0, 1.0], [[1.0], [-1.0]], [[0.0, 0.0], [2.0, 0.0]],
                          [[0.0], [1.0]], [[1.0, 0.0]])
    prob = SplitProblem([L1Subdiff(0.5), L1Subdiff(1.0)], [ZeroForward()], beta=0.0, dim=2)
    z = np.random.default_rng(3).standard_normal((1, 2))
    chain = kappa_scheme(graphmod.SEQUENTIAL, 2)
    assert relocator.tree_kinds(s) == graphmod.CANONICAL_KINDS
    for kind in relocator.KINDS:
        out = relocate(kind, s, prob, 0.2, 0.4, z)
        assert out.tobytes() == relocate(kind, chain, prob, 0.2, 0.4, z).tobytes(), kind
    half = CoefficientScheme([0.5, 0.5], [[0.5], [-0.5]], [[0.0, 0.0], [1.0, 0.0]],
                             [[0.0], [1.0]], [[1.0, 0.0]])
    assert relocate(GENERAL, half, prob, 0.2, 0.4, z).shape == (1, 2)
    assert relocator.tree_kinds(half) == () and relocator.pick_kind("auto", half) == GENERAL
    for kind in relocator.CHEAP_KINDS:
        with pytest.raises(StructuralError, match="admits only the kappa-form matrices of the "):
            relocate(kind, half, prob, 0.2, 0.4, z)


def test_tree_kinds_of_graph_schemes():
    # a graph scheme's kappa form admits the canonical kinds whose arc set is its own
    # (all three at n = 2) and "auto" picks davis-yin at n = 2, the tree's kind above;
    # its base form, which halves D and N, is no kappa tree and admits none
    assert relocator.tree_kinds(kappa_form_scheme(graphmod.scheme_from_graph(
        graphmod.DiGraph(2, ((1, 2),))))) == graphmod.CANONICAL_KINDS
    for kind in graphmod.CANONICAL_KINDS:
        for n in range(2, 9):
            raw = graphmod.scheme_from_graph(graphmod.canonical(kind, n))
            s = kappa_form_scheme(raw)
            want = graphmod.CANONICAL_KINDS if n == 2 else (kind,)
            assert relocator.tree_kinds(s) == want, (kind, n)
            assert relocator.pick_kind("auto", s) == (DAVIS_YIN if n == 2 else kind)
            assert relocator.tree_kinds(raw) == () and relocator.pick_kind("auto", raw) == GENERAL
    # the chain's arcs in another order permute M's columns: that scheme is no tree, and
    # "auto" runs it under the general kind, which admits every scheme
    swapped = kappa_form_scheme(graphmod.scheme_from_graph(graphmod.DiGraph(3, ((2, 3), (1, 2)))))
    assert relocator.tree_kinds(swapped) == () and relocator.pick_kind("auto", swapped) == GENERAL
    # the same matrices rebuilt, or with a -0.0 for a 0.0, are the tree; an R row off it
    # and a doubled kappa form are no tree
    s = kappa_scheme(graphmod.SEQUENTIAL, 3)
    signed = s.N.copy()
    signed[0, 1] = -0.0
    for N in (s.N.tolist(), signed):
        assert relocator.tree_kinds(CoefficientScheme(s.d, s.M, N, s.P, s.R.tolist())) == (
            graphmod.SEQUENTIAL,)
    assert relocator.tree_kinds(CoefficientScheme(s.d, s.M, s.N, s.P,
                                                  [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])) == ()
    assert relocator.tree_kinds(kappa_form_scheme(s)) == ()


def test_base_form_chain_refuses_every_cheap_kind():
    # the chain's base form (D and N halved) is valid, but broadcasting x_1 does not
    # relocate its fixed points, so no cheap kind admits it, and no flag can say it is
    # in kappa form
    raw = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 3))
    for kind in relocator.CHEAP_KINDS:
        with pytest.raises(StructuralError, match="admits only the kappa-form matrices of the "):
            relocator.check_kind(kind, raw)
    with pytest.raises(TypeError):
        CoefficientScheme(raw.d, raw.M, raw.N, raw.P, raw.R, kappa_form=True)


def test_relocate_checks_shapes():
    s, split, _ = small_elastic_setup(3)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((s.m, split.dim))
    for bad, message in ((z[:1], "expected 2 blocks, got 1"),
                         (z[:, :-1], f"blocks have dim {split.dim - 1}, problem dim {split.dim}")):
        for kind in (GENERAL, graphmod.SEQUENTIAL):
            with pytest.raises(StructuralError, match=message):
                relocate(kind, s, split, 0.5, 0.4, bad)
    # each kind reads its outputs at (gamma, z): the whole sweep (general) or x_1 (cheap)
    x, r = sweep(s, split, 0.4, z), 0.5 / 0.4
    K = relocator.relocation_map(GENERAL, s)
    assert np.array_equal(relocate(GENERAL, s, split, 0.5, 0.4, z), r * z + (1.0 - r) * (K @ x))
    assert np.array_equal(relocate(graphmod.SEQUENTIAL, s, split, 0.5, 0.4, z),
                          r * z + (1.0 - r) * x[0])
