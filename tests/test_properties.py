"""Hypothesis-driven invariants that complement the seeded random trials."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relsplit.graph import CANONICAL_KINDS, canonical, scheme_from_graph
from relsplit.operators import BoxNormalCone, L1Subdiff, NonnegNormalCone, ZeroOp
from relsplit.relocator import e_map
from relsplit.schedule import SafeguardStepsize
from relsplit.scheme import kappa_form_scheme

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
