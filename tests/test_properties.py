"""Hypothesis-driven invariants that complement the seeded random trials."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relsplit.driver import RunConfig, Trace, default_z0, run, run_grid
from relsplit.errors import ParameterError
from relsplit.graph import CANONICAL_KINDS, canonical, scheme_from_graph
from relsplit.operators import BoxNormalCone, L1Subdiff, NonnegNormalCone, ZeroOp
from relsplit.propsuites import small_elastic_setup, small_lasso_setup
from relsplit.relocator import DAVIS_YIN, GENERAL, e_map
from relsplit.schedule import T_RULES, SafeguardStepsize, ScheduleSpec
from relsplit.scheme import kappa_form_scheme, mu

ops = st.sampled_from([L1Subdiff(0.5), L1Subdiff(2.0), BoxNormalCone(1.5),
                       NonnegNormalCone(), ZeroOp()])
gammas = st.floats(min_value=1e-3, max_value=50.0)
coords = st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=6)


@given(ops, gammas, gammas, coords)
@settings(max_examples=300, deadline=None)
def test_relocation_identity_holds_for_every_resolvent(op, gamma, delta, v):
    v = np.array(v)
    jg = op.resolve(gamma, v)
    lhs = op.resolve(delta, (delta / gamma) * v + (1.0 - delta / gamma) * jg)
    # tolerance tracks the cancellation scale of the relocated argument
    scale = max(1.0, delta / gamma) * max(1.0, float(np.max(np.abs(v))))
    assert np.linalg.norm(lhs - jg) <= 1e-13 * scale


@given(ops, gammas, coords, coords)
@settings(max_examples=300, deadline=None)
def test_resolvents_firmly_nonexpansive(op, gamma, v, w):
    n = min(len(v), len(w))
    v, w = np.array(v[:n]), np.array(w[:n])
    jv, jw = op.resolve(gamma, v), op.resolve(gamma, w)
    scale = max(1.0, float(np.max(np.abs(np.concatenate([v, w])))))
    assert np.sum((jv - jw) ** 2) <= (jv - jw) @ (v - w) + 1e-10 * scale ** 2


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=8),
       st.integers(min_value=1, max_value=4), st.sampled_from(CANONICAL_KINDS), st.booleans())
@settings(max_examples=200, deadline=None)
def test_e_map_output_sums_to_zero(rows, d, kind, kappa):
    s = scheme_from_graph(canonical(kind, len(rows)))
    s = kappa_form_scheme(s) if kappa else s
    x = np.array(rows)[:, None] * np.ones(d)
    out = e_map(s, x)
    scale = max(1.0, float(np.max(np.abs((np.diag(s.d) - np.tril(s.N, -1)) @ x))))
    assert np.max(np.abs(out.sum(axis=0))) <= 1e-9 * scale
    assert np.max(np.abs(s.M @ np.linalg.pinv(s.M) @ out - out)) <= 1e-9 * scale


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=1e-9, max_value=1e6),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=300, deadline=None)
def test_safeguard_emissions_stay_in_bounds(num, den, steps):
    sched = SafeguardStepsize(0.5, 0.2, 1.3, t_rule="norm-ratio")
    sched.k = steps
    g = sched.next_gamma(num, den)
    assert 0.2 <= g <= 1.3


# (scheme, split, its cheap relocator kind): the small LASSO chain and the n = 3 elastic trees
GRID_SETUPS = [small_lasso_setup(3)[:2] + (DAVIS_YIN,)]
GRID_SETUPS += [small_elastic_setup(5, kind)[:2] + (kind,) for kind in CANONICAL_KINDS]
fractions = st.floats(min_value=0.05, max_value=2.1)   # of 1/mu; above 2 a constant is refused
# (variant, gamma as a fraction of 1/mu, t_rule); a constant reads only gamma
schedules = st.tuples(st.sampled_from(["constant", "safeguard"]), st.one_of(st.none(), fractions),
                      st.sampled_from(T_RULES))
# (schedule, max_iters, log10 of fix_res_tol, record_every)
methods = st.tuples(schedules, st.integers(min_value=1, max_value=60),
                    st.floats(min_value=-2.5, max_value=0.5), st.integers(min_value=1, max_value=9))


def grid_config(s, split, kind, method):
    (variant, frac, rule), max_iters, log_tol, record_every = method
    gamma = None if frac is None else frac / mu(s, split.beta)
    spec = ScheduleSpec(variant=variant, gamma=gamma, t_rule=rule)
    return RunConfig(scheme=s, problem=split, relocator=kind, schedule=spec,
                     max_iters=max_iters, fix_res_tol=10.0 ** log_tol, record_every=record_every)


@given(st.integers(min_value=0, max_value=len(GRID_SETUPS) - 1), st.booleans(),
       st.lists(methods, min_size=1, max_size=7), st.one_of(st.none(), st.integers(0, 3)))
@settings(max_examples=60, deadline=None)
def test_run_grid_is_run_field_by_field(setup, general, group, z0_seed):
    # any group of runs: stacked or not, lanes that leave at any k or are handed off
    s, split, cheap = GRID_SETUPS[setup]
    cfgs = [grid_config(s, split, GENERAL if general else cheap, m) for m in group]
    z0 = None if z0_seed is None else default_z0(s, split, seed=z0_seed)
    for cfg, got in zip(cfgs, run_grid(cfgs, z0), strict=True):
        try:
            want = run(cfg, z0)
        except ParameterError as exc:   # a schedule refused at build
            want = Trace(aborted=str(exc))
        for f in dataclasses.fields(Trace):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, (list, np.ndarray)):
                assert np.array_equal(a, b, equal_nan=True), f.name
            else:
                assert a == b, f.name
