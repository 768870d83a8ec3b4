"""Stepsize sequences: the constant stepsize and the safeguarded rule.

The safeguarded variable-stepsize rule is

    gamma_{k+1} = (1 - zeta_k) gamma_k + zeta_k * tau_k,
    tau_k = clamp(t_k, gamma_min, gamma_max),

with the summable sequence zeta_k = ZETA_COEFF / (k+1)^ZETA_POWER = 0.1 / (k+1)^1.5
of the experiments, which keeps every gamma_k inside [gamma_min, gamma_max]
and makes sum_k (gamma_{k+1} - gamma_k)_+ finite (bounded by
(gamma_max - gamma_min) * sum_k zeta_k). Three target rules t_k are provided:

    norm-ratio   t_k = ||x_{k+1}|| / ||x_{k+1} - w_k||
    accel        t_k = (-2 g_k^2 q/(2L) + sqrt(g_k^4 q^2/L^2 + 4 g_k^2)) / 2,  q = 0.01
    harmonic     t_k = 1 / (k + 1)

Only the norm-ratio rule reads the two norms; a schedule's ``reads_norms``
says so (derived from its rule, never set), and a run's step forms
||x_{k+1}|| and ||x_{k+1} - w_k|| only for a schedule that reads them. The
other rules are called as ``next_gamma()``; a run with a constant stepsize
does not call its schedule.

The relaxation has no schedule: ``driver`` runs theta_k = 1 and co-adjusts
lambda_k to the feasibility margin at each gamma_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .scheme import stepsize_sup

NORM_RATIO = "norm-ratio"
ACCEL = "accel"
HARMONIC = "harmonic"
T_RULES = (NORM_RATIO, ACCEL, HARMONIC)
ACCEL_GAP = 0.01   # q of the accel rule
ZETA_COEFF = 0.1   # zeta_k = ZETA_COEFF / (k+1)^ZETA_POWER
ZETA_POWER = 1.5
SAFETY = 0.99      # a ScheduleSpec safeguard's gamma_max as a fraction of 2/mu


class ConstantStepsize:
    """gamma_k = gamma for all k."""

    def __init__(self, gamma):
        if not gamma > 0:
            raise ParameterError("constant stepsize must be positive")
        self.gamma = float(gamma)

    @property
    def reads_norms(self):
        return False

    def next_gamma(self, x_next_norm=None, x_next_minus_w_norm=None):
        return self.gamma


class SafeguardStepsize:
    """Safeguarded schedule: gamma_{k+1} = (1 - zeta_k) gamma_k + zeta_k tau_k.

    tau_k is the rule's target clamped to [gamma_min, gamma_max], and the
    emission is clamped to that interval too, since the mix of two of its
    points may round past an end; so an emission stays in it exactly
    (``ScheduleSpec`` puts gamma_max 1 % below the bound 2/mu that a run
    checks). A NaN target passes both clamps: the norm-ratio rule reads one
    from nan or inf/inf norms (``next_gamma(nan, 1.0)``,
    ``next_gamma(inf, inf)``), the emission is nan, and a run's control
    aborts with ``gamma_{k+1} = nan outside (0, 2/mu)``.

    ``L`` is the Lipschitz modulus the accel rule needs (> 0); other rules ignore it.
    """

    def __init__(self, gamma0, gamma_min, gamma_max, t_rule=NORM_RATIO, L=None):
        if not 0 < gamma_min <= gamma_max:
            raise ParameterError(f"need 0 < gamma_min <= gamma_max, got {gamma_min}, {gamma_max}")
        if not gamma_min <= gamma0 <= gamma_max:
            raise ParameterError(f"gamma0 = {gamma0} outside [{gamma_min}, {gamma_max}]")
        if t_rule not in T_RULES:
            raise ParameterError(f"unknown stepsize rule {t_rule!r}")
        if t_rule == ACCEL and (L is None or not L > 0):
            raise ParameterError(f"accel rule needs the Lipschitz modulus L > 0, got {L!r}")
        self.gamma = float(gamma0)
        self.gamma_min = float(gamma_min)
        self.gamma_max = float(gamma_max)
        self.t_rule = t_rule
        self.L = L
        self.k = 0

    @property
    def reads_norms(self):
        """True only for the norm-ratio rule, the one rule that reads ``next_gamma``'s norms."""
        return self.t_rule == NORM_RATIO

    def zeta(self, k):
        return ZETA_COEFF / (k + 1) ** ZETA_POWER

    def zeta_sum(self, n_terms):
        return float(sum(self.zeta(k) for k in range(n_terms)))

    def next_gamma(self, x_next_norm=None, x_next_minus_w_norm=None):
        """gamma_{k+1} from ||x_{k+1}|| and ||x_{k+1} - w_k|| (read by the norm-ratio rule).

        The target t_k, its clamp, zeta_k and the emission's clamp are formed
        here, in the one call a run makes per iteration.
        """
        k, rule = self.k, self.t_rule
        if rule == NORM_RATIO:
            # x_{k+1} = w_k: the ratio diverges as the iterate converges; the
            # clamped limit is the upper safeguard.
            t = (self.gamma_max if x_next_minus_w_norm == 0.0
                 else x_next_norm / x_next_minus_w_norm)
        elif rule == HARMONIC:
            t = 1.0 / (k + 1)
        else:
            g, L, q = self.gamma, self.L, ACCEL_GAP
            t = (-2.0 * g * g * q / (2.0 * L)
                 + math.sqrt(g ** 4 * q ** 2 / L ** 2 + 4.0 * g * g)) / 2.0
        # min(max(v, lo), hi), a NaN v included, of t and of the mix, which may round past
        # an end; written out, as a helper would add two Python calls to every iteration
        lo, hi = self.gamma_min, self.gamma_max
        tau = lo if t < lo else hi if t > hi else t
        zeta = ZETA_COEFF / (k + 1) ** ZETA_POWER   # zeta(k)
        gamma = (1.0 - zeta) * self.gamma + zeta * tau
        self.gamma = gamma = lo if gamma < lo else hi if gamma > hi else gamma
        self.k = k + 1
        return gamma


def positive_variation(gammas):
    """sum_k max(gamma_{k+1} - gamma_k, 0) over a recorded stepsize sequence."""
    g = np.asarray(gammas, dtype=float)
    if g.size < 2:
        raise ParameterError("positive variation needs at least two stepsizes")
    return float(np.maximum(np.diff(g), 0.0).sum())


@dataclass
class ScheduleSpec:
    """Declarative schedule description; ``build`` resolves defaults from (mu, beta).

    The safeguard's bounds are constants: gamma_max = SAFETY * (2/mu) and
    gamma_min = 0.1 * gamma_max. gamma (gamma0 of a safeguard) defaults to
    min(1/beta, 1/mu); a safeguard clamps it into [gamma_min, gamma_max].
    """

    variant: str = "constant"
    gamma: float | None = None
    t_rule: str = NORM_RATIO

    def __post_init__(self):
        """Refuse a misspelled name when the spec is made, before any run builds it."""
        if self.variant not in ("constant", "safeguard"):
            raise ParameterError(f"unknown schedule variant {self.variant!r}")
        if self.t_rule not in T_RULES:
            raise ParameterError(f"unknown stepsize rule {self.t_rule!r}")

    def default_gamma(self, mu_value, beta):
        candidates = [g for g in (1.0 / beta if beta > 0 else None,
                                  1.0 / mu_value if mu_value > 0 else None)
                      if g is not None]
        if not candidates:
            raise ParameterError("cannot pick a default stepsize with beta = mu = 0")
        return min(candidates)

    def build(self, mu_value, beta):
        """The schedule of one run; beta is also the accel rule's L."""
        if self.variant == "constant":
            gamma = self.gamma if self.gamma is not None else self.default_gamma(mu_value, beta)
            if not 0 < gamma < stepsize_sup(mu_value):
                raise ParameterError(
                    f"constant gamma = {gamma} outside (0, {stepsize_sup(mu_value)})"
                )
            return ConstantStepsize(gamma)
        if not mu_value > 0:
            raise ParameterError("the safeguard needs mu > 0")
        gamma_max = SAFETY * stepsize_sup(mu_value)
        gamma_min = 0.1 * gamma_max
        gamma0 = self.gamma if self.gamma is not None else self.default_gamma(mu_value, beta)
        gamma0 = min(max(gamma0, gamma_min), gamma_max)
        return SafeguardStepsize(gamma0, gamma_min, gamma_max, t_rule=self.t_rule, L=beta)
