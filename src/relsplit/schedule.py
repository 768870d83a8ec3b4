"""Stepsize, relaxation and theta sequences.

The safeguarded variable-stepsize rule is

    gamma_{k+1} = (1 - zeta_k) gamma_k + zeta_k * tau_k,
    tau_k = clamp(t_k, gamma_min, gamma_max),

with a summable sequence zeta_k in (0, 1], which keeps every gamma_k inside
[gamma_min, gamma_max] and makes sum_k (gamma_{k+1} - gamma_k)_+ finite
(bounded by (gamma_max - gamma_min) * sum_k zeta_k). Three target rules t_k
are provided:

    norm-ratio   t_k = ||x_{k+1}|| / ||x_{k+1} - w_k||
    accel        t_k = (-2 g_k^2 q/(2L) + sqrt(g_k^4 q^2/L^2 + 4 g_k^2)) / 2,  q = 0.01
    harmonic     t_k = 1 / (k + 1)

Only the norm-ratio rule reads the two norms; a schedule's ``reads_norms``
says so (derived from its rule, never set), and the driver forms
||x_{k+1}|| and ||x_{k+1} - w_k|| only for a schedule that reads them. The
other rules and the constant stepsize are called as ``next_gamma()``.

The default zeta_k = 0.1 / (k+1)^1.5 follows the experiments; the variant
with zeta_0 = 1 (so gamma_1 = tau_0 exactly) is selectable via first_unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .scheme import stepsize_sup

NORM_RATIO = "norm-ratio"
ACCEL = "accel"
HARMONIC = "harmonic"
T_RULES = (NORM_RATIO, ACCEL, HARMONIC)
ACCEL_GAP = 0.01   # q of the accel rule
SAFETY = 0.99      # default gamma_max as a fraction of 2/mu


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
    """Safeguarded schedule; emissions stay in [gamma_min, gamma_max] exactly.

    ``L`` is the Lipschitz modulus the accel rule needs (> 0); other rules ignore it.
    """

    def __init__(self, gamma0, gamma_min, gamma_max, t_rule=NORM_RATIO,
                 zeta_coeff=0.1, zeta_power=1.5, zeta_first_unit=False, L=None):
        if not 0 < gamma_min <= gamma_max:
            raise ParameterError(f"need 0 < gamma_min <= gamma_max, got {gamma_min}, {gamma_max}")
        if not gamma_min <= gamma0 <= gamma_max:
            raise ParameterError(f"gamma0 = {gamma0} outside [{gamma_min}, {gamma_max}]")
        if t_rule not in T_RULES:
            raise ParameterError(f"unknown stepsize rule {t_rule!r}")
        if t_rule == ACCEL and (L is None or not L > 0):
            raise ParameterError(f"accel rule needs the Lipschitz modulus L > 0, got {L!r}")
        if not 0 < zeta_coeff <= 1 or not zeta_power > 1:   # a NaN power fails too
            raise ParameterError("zeta rule must have coeff in (0,1] and power > 1 (summable)")
        self.gamma = float(gamma0)
        self.gamma_min = float(gamma_min)
        self.gamma_max = float(gamma_max)
        self.t_rule = t_rule
        self.zeta_coeff = float(zeta_coeff)
        self.zeta_power = float(zeta_power)
        self.zeta_first_unit = bool(zeta_first_unit)
        self.L = L
        self.k = 0

    @property
    def reads_norms(self):
        """True only for the norm-ratio rule, the one rule that reads ``next_gamma``'s norms."""
        return self.t_rule == NORM_RATIO

    def zeta(self, k):
        if k == 0 and self.zeta_first_unit:
            return 1.0
        return self.zeta_coeff / (k + 1) ** self.zeta_power

    def zeta_sum(self, n_terms):
        return float(sum(self.zeta(k) for k in range(n_terms)))

    def _target(self, x_next_norm, x_next_minus_w_norm):
        if self.t_rule == HARMONIC:
            return 1.0 / (self.k + 1)
        if self.t_rule == ACCEL:
            g, L = self.gamma, self.L
            q = ACCEL_GAP
            return (-2.0 * g * g * q / (2.0 * L)
                    + np.sqrt(g ** 4 * q ** 2 / L ** 2 + 4.0 * g * g)) / 2.0
        if x_next_minus_w_norm == 0.0:
            # x_{k+1} = w_k: the ratio diverges as the iterate converges; the
            # clamped limit is the upper safeguard.
            return self.gamma_max
        return x_next_norm / x_next_minus_w_norm

    def next_gamma(self, x_next_norm=None, x_next_minus_w_norm=None):
        """gamma_{k+1} from ||x_{k+1}|| and ||x_{k+1} - w_k|| (read by the norm-ratio rule)."""
        tau = min(max(self._target(x_next_norm, x_next_minus_w_norm), self.gamma_min),
                  self.gamma_max)
        zeta = self.zeta(self.k)
        self.gamma = (1.0 - zeta) * self.gamma + zeta * tau
        self.k += 1
        return self.gamma


def positive_variation(gammas):
    """sum_k max(gamma_{k+1} - gamma_k, 0) over a recorded stepsize sequence."""
    g = np.asarray(gammas, dtype=float)
    if g.size < 2:
        raise ParameterError("positive variation needs at least two stepsizes")
    return float(np.maximum(np.diff(g), 0.0).sum())


@dataclass
class RelaxationPlan:
    """theta_k and lambda_k rules plus the feasibility margin floor epsilon.

    With lam=None, lambda_k is co-adjusted to the largest value keeping the
    margin at the floor: lambda_k = (2 - gamma_k*mu - eps) / (2*theta).
    """

    theta: float = 1.0
    lam: float | None = None
    margin_floor: float = 1e-3

    def __post_init__(self):
        if not 0 < self.theta < np.inf:
            raise ParameterError("theta must be positive and finite")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ParameterError("lambda must be positive and finite")
        if not 0 < self.margin_floor < np.inf:
            raise ParameterError("margin floor must be positive and finite")

    def pair(self, gamma, mu_value):
        """(lambda_k, theta_k) for the current stepsize."""
        if self.lam is not None:
            return self.lam, self.theta
        lam = (2.0 - gamma * mu_value - self.margin_floor) / (2.0 * self.theta)
        return lam, self.theta


@dataclass
class ScheduleSpec:
    """Declarative schedule description; ``build`` resolves defaults from (mu, beta).

    Defaults: gamma_max = 0.99 * (2/mu), gamma_min = 0.1 * gamma_max, and
    gamma0 = min(1/beta, 1/mu) clamped into [gamma_min, gamma_max].
    """

    variant: str = "constant"
    gamma: float | None = None
    gamma_min: float | None = None
    gamma_max: float | None = None
    t_rule: str = NORM_RATIO
    zeta_coeff: float = 0.1
    zeta_power: float = 1.5
    zeta_first_unit: bool = False

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
        if self.variant != "safeguard":
            raise ParameterError(f"unknown schedule variant {self.variant!r}")
        gamma_max = self.gamma_max
        if gamma_max is None:
            sup = stepsize_sup(mu_value)
            if not np.isfinite(sup):
                raise ParameterError("safeguard needs gamma_max when mu = 0")
            gamma_max = SAFETY * sup
        elif not gamma_max < stepsize_sup(mu_value):
            raise ParameterError(f"gamma_max = {gamma_max} must be < 2/mu strictly")
        gamma_min = self.gamma_min if self.gamma_min is not None else 0.1 * gamma_max
        gamma0 = self.gamma if self.gamma is not None else self.default_gamma(mu_value, beta)
        gamma0 = min(max(gamma0, gamma_min), gamma_max)
        return SafeguardStepsize(
            gamma0, gamma_min, gamma_max, t_rule=self.t_rule,
            zeta_coeff=self.zeta_coeff, zeta_power=self.zeta_power,
            zeta_first_unit=self.zeta_first_unit, L=beta,
        )

