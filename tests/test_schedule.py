import math

import numpy as np
import pytest

from relsplit.errors import ParameterError
from relsplit.schedule import (ACCEL, HARMONIC, NORM_RATIO, ZETA_COEFF, ConstantStepsize,
                               SafeguardStepsize, ScheduleSpec, positive_variation)


def test_constant_schedule():
    sched = ConstantStepsize(0.7)
    assert [sched.next_gamma() for _ in range(5)] == [0.7] * 5
    with pytest.raises(ParameterError):
        ConstantStepsize(0.0)


def test_only_the_norm_ratio_rule_reads_the_norms():
    rules = (NORM_RATIO, ACCEL, HARMONIC)
    built = [ScheduleSpec(variant="safeguard", t_rule=rule).build(1.0, 1.0) for rule in rules]
    assert [sched.reads_norms for sched in built] == [True, False, False]
    constant = ScheduleSpec().build(1.0, 1.0)
    assert constant.reads_norms is False
    for sched in built + [constant]:
        with pytest.raises(AttributeError):   # derived from the rule, never set
            sched.reads_norms = True


def test_safeguard_first_unit_emits_target_exactly():
    # t_0 = ||x_1|| / ||x_1 - w_0||, inside the bounds; gamma_1 moves zeta_0 = 0.1 of the way
    sched = SafeguardStepsize(1.0, 0.1, 2.0, t_rule=NORM_RATIO)
    assert sched.next_gamma(3.0, 4.0) == (1.0 - ZETA_COEFF) * 1.0 + ZETA_COEFF * 0.75


def test_harmonic_rule():
    sched = SafeguardStepsize(1.0, 0.1, 2.0, t_rule=HARMONIC)
    # t_0 = 1/(0+1), inside the bounds, is gamma_0: the blend stays there
    assert sched.next_gamma() == 1.0
    sched2 = SafeguardStepsize(1.0, 0.1, 2.0, t_rule=HARMONIC)
    sched2.k = 9
    zeta = sched2.zeta(9)
    assert sched2.next_gamma() == (1.0 - zeta) * 1.0 + zeta * 0.1  # t_9 = 1/10


def test_accel_rule_value():
    # gamma = 1, L = 1: t = (-0.01 + sqrt(4.0001)) / 2
    sched = SafeguardStepsize(1.0, 0.01, 2.0, t_rule=ACCEL, L=1.0)
    expect = (-0.01 + np.sqrt(4.0001)) / 2.0
    assert abs(expect - 0.995) <= 1e-3
    assert sched.next_gamma() == (1.0 - ZETA_COEFF) * 1.0 + ZETA_COEFF * expect
    # L is fixed at construction: a missing or nonpositive one raises there
    for L in (None, 0.0, float("nan")):
        with pytest.raises(ParameterError):
            SafeguardStepsize(1.0, 0.01, 2.0, t_rule=ACCEL, L=L)
    # ScheduleSpec.build hands the rule beta
    assert ScheduleSpec(variant="safeguard", t_rule=ACCEL).build(2.0, 1.5).L == 1.5


@pytest.mark.parametrize("rule", [NORM_RATIO, ACCEL, HARMONIC])
def test_every_rule_emits_a_python_float(rule):
    # a numpy scalar gamma would ride through a whole run, trace rows included
    sched = SafeguardStepsize(0.5, 0.1, 1.0, t_rule=rule, L=2.0)
    for _ in range(3):
        assert type(sched.next_gamma(3.0, 4.0)) is float


def test_norm_ratio_degenerate_denominator_uses_gamma_max():
    sched = SafeguardStepsize(1.0, 0.1, 2.0, t_rule=NORM_RATIO)
    assert sched.next_gamma(5.0, 0.0) == (1.0 - ZETA_COEFF) * 1.0 + ZETA_COEFF * 2.0


def test_emissions_stay_in_bounds_exactly():
    rng = np.random.default_rng(0)
    sched = SafeguardStepsize(0.5, 0.2, 1.4, t_rule=NORM_RATIO)
    for _ in range(2000):
        g = sched.next_gamma(float(rng.uniform(0, 100)), float(rng.uniform(0, 1)))
        assert 0.2 <= g <= 1.4
    # from a bound with a target beyond it, the mix (1 - zeta) g + zeta g may round past
    # that bound; the emission's clamp keeps it
    for _ in range(1000):
        lo, hi = sorted(float(v) for v in rng.uniform(0.01, 10.0, 2))
        for start, target in ((hi, 2.0 * hi), (lo, 0.5 * lo)):
            sched = SafeguardStepsize(start, lo, hi, t_rule=NORM_RATIO)
            for _ in range(3):
                assert lo <= sched.next_gamma(target, 1.0) <= hi


def test_nan_target_passes_the_clamp():
    # the norm-ratio target of nan or inf/inf norms is nan, which no clamp bound stops;
    # a run's control refuses the nan emission as outside (0, 2/mu)
    for norms in ((float("nan"), 1.0), (float("inf"), float("inf"))):
        assert math.isnan(SafeguardStepsize(1.0, 0.1, 1.5).next_gamma(*norms))


def test_positive_variation_examples():
    assert positive_variation([1.0, 1.0, 1.0]) == 0.0
    assert positive_variation([1.0, 2.0, 1.5, 2.0]) == 1.5
    with pytest.raises(ParameterError):
        positive_variation([1.0])


def test_positive_variation_bounded_by_zeta_sum():
    rng = np.random.default_rng(1)
    sched = SafeguardStepsize(0.5, 0.1, 1.0, t_rule=NORM_RATIO)
    gammas = [sched.gamma]
    for _ in range(10000):
        gammas.append(sched.next_gamma(float(rng.uniform(0, 10)),
                                       float(rng.uniform(1e-3, 10))))
    bound = (1.0 - 0.1) * sched.zeta_sum(10000)
    assert positive_variation(gammas) <= bound + 1e-12


def test_gamma_tail_convergence():
    # |gamma_{k+N} - gamma_k| <= (gamma_max - gamma_min) * sum_{j>=k} zeta_j
    rng = np.random.default_rng(2)
    sched = SafeguardStepsize(0.5, 0.1, 1.0, t_rule=NORM_RATIO)
    gammas = [sched.gamma]
    for _ in range(20000):
        gammas.append(sched.next_gamma(float(rng.uniform(0, 10)),
                                       float(rng.uniform(1e-3, 10))))
    k = 5000
    tail = sum(sched.zeta(j) for j in range(k, 20000))
    assert abs(gammas[-1] - gammas[k]) <= 0.9 * tail + 1e-12


def test_zeta_validation():
    # zeta_k = 0.1 / (k+1)^1.5 is a constant sequence; the stepsize bounds are checked
    with pytest.raises(ParameterError):
        SafeguardStepsize(2.0, 0.1, 1.0)  # gamma0 outside bounds
    with pytest.raises(ParameterError):
        SafeguardStepsize(0.5, 1.0, 0.1)


def test_schedule_spec_defaults():
    spec = ScheduleSpec(variant="safeguard")
    sched = spec.build(2.0, 2.0)  # mu = beta = 2: sup = 1
    assert sched.gamma_max == pytest.approx(0.99, abs=1e-15)
    assert sched.gamma_min == pytest.approx(0.099, abs=1e-15)
    assert sched.gamma == pytest.approx(0.5, abs=1e-15)  # min(1/beta, 1/mu)
    const = ScheduleSpec(variant="constant").build(2.0, 2.0)
    assert const.gamma == 0.5
    with pytest.raises(ParameterError):
        ScheduleSpec(variant="constant", gamma=1.5).build(2.0, 2.0)  # >= 2/mu
    with pytest.raises(ParameterError, match="the safeguard needs mu > 0"):
        ScheduleSpec(variant="safeguard").build(0.0, 0.0)  # unbounded without mu
    with pytest.raises(ParameterError):
        ScheduleSpec(variant="warmup").build(1.0, 1.0)
