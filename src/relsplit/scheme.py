"""Coefficient-matrix description of a distributed forward-backward method.

A scheme is the tuple (D, M, N, P, R) with D = diag(d_1..d_n) positive,
M in R^{n x m}, N in R^{n x n}, P in R^{n x p}, R in R^{p x n}, subject to
six structural conditions (validated, never assumed):

  (a) ker(M*) = R * ones      (rank M = n-1 and M* ones = 0)
  (b) P* ones = ones
  (c) R ones = ones
  (d) 2D - N - N* - M M*  is positive semidefinite
  (e) sum_ij N_ij = sum_i d_i
  (f) N, P strictly lower triangular; R lower triangular

The derived constant  mu = beta * ||(P* - R) (M*)^dagger||^2  governs the
admissible stepsize range (0, 2/mu), with 1/mu = +inf when mu = 0, and the
iteration map is conically eta(theta, gamma)-averaged with
eta = 2*theta / (2 - gamma*mu) on that range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ParameterError, StructuralError

VALIDATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CoefficientScheme:
    """Immutable coefficient matrices; ``d`` is the diagonal of D."""

    d: np.ndarray
    M: np.ndarray
    N: np.ndarray
    P: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float).reshape(-1))
        for name in ("M", "N", "P", "R"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n = self.d.size
        if self.M.shape[0] != n or self.N.shape != (n, n) or self.P.shape[0] != n:
            raise StructuralError(
                f"inconsistent dimensions: d has {n} entries, M {self.M.shape}, "
                f"N {self.N.shape}, P {self.P.shape}"
            )
        if self.R.shape != (self.P.shape[1], n):
            raise StructuralError(f"R must be {self.P.shape[1]} x {n}, got {self.R.shape}")
        if not np.all(self.d > 0):
            raise StructuralError("diagonal of D must be positive")

    @property
    def n(self):
        return self.d.size

    @property
    def p(self):
        return self.P.shape[1]

    @property
    def m(self):
        return self.M.shape[1]

    @cached_property
    def pinv_M(self):
        return linalg.pseudoinverse(self.M)

    @cached_property
    def norm_M(self):
        return linalg.spectral_norm(self.M)

    @cached_property
    def norm_N(self):
        return linalg.spectral_norm(self.N)

    @cached_property
    def norm_P(self):
        return linalg.spectral_norm(self.P)

    @cached_property
    def norm_R(self):
        return linalg.spectral_norm(self.R)

    @cached_property
    def norm_pinv_M(self):
        return linalg.spectral_norm(self.pinv_M)


def condition_report(s):
    """Evaluate the six structural conditions (to VALIDATION_TOL); [(label, ok, detail)]."""
    tol = VALIDATION_TOL
    report = []
    sv = np.linalg.svd(s.M, compute_uv=False)
    cutoff = max(tol, linalg.RCOND * (sv[0] if sv.size else 0.0))
    rank = int(np.sum(sv > cutoff))
    ones_resid = float(np.linalg.norm(s.M.T @ np.ones(s.n)))
    # an overflowed ||M* 1|| would pass against an overflowed ||M||
    ok_a = rank == s.n - 1 and math.isfinite(ones_resid) and ones_resid <= tol * max(1.0, s.norm_M)
    report.append(("a", ok_a, f"rank(M) = {rank} (need {s.n - 1}), ||M* 1|| = {ones_resid:.3e}"))

    resid_b = float(np.max(np.abs(s.P.T @ np.ones(s.n) - 1.0))) if s.p else 0.0
    report.append(("b", resid_b <= tol, f"max |P* 1 - 1| = {resid_b:.3e}"))

    resid_c = float(np.max(np.abs(s.R @ np.ones(s.n) - 1.0))) if s.p else 0.0
    report.append(("c", resid_c <= tol, f"max |R 1 - 1| = {resid_c:.3e}"))

    core = 2.0 * np.diag(s.d) - s.N - s.N.T - s.M @ s.M.T
    lam_min = linalg.min_eigenvalue(core)
    report.append(("d", lam_min >= -tol, f"min eig(2D - N - N* - M M*) = {lam_min:.3e}"))

    gap_e = float(abs(s.N.sum() - s.d.sum()))
    report.append(("e", gap_e <= tol * max(1.0, abs(s.d.sum())),
                   f"|sum N - sum d| = {gap_e:.3e}"))

    tri_n = float(np.max(np.abs(np.triu(s.N)))) if s.n else 0.0
    tri_p = float(np.max(np.abs(np.triu(s.P)))) if s.P.size else 0.0
    tri_r = float(np.max(np.abs(np.triu(s.R, k=1)))) if s.R.size else 0.0
    worst = max(tri_n, tri_p, tri_r)
    report.append(("f", worst <= tol,
                   f"max upper-triangular magnitude (N, P strict; R) = {worst:.3e}"))
    return report


def validate(s):
    """List of violated conditions (empty means the scheme is valid)."""
    return [f"({label}) {detail}" for label, ok, detail in condition_report(s) if not ok]


def mu(s, beta):
    """mu = beta * || (P* - R) (M*)^dagger ||^2 (spectral norm squared)."""
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    if beta == 0.0 or s.p == 0:
        return 0.0
    core = (s.P.T - s.R) @ linalg.pseudoinverse(s.M.T)
    return float(beta) * linalg.spectral_norm(core) ** 2


def stepsize_sup(mu_value):
    """Upper end 2/mu of the admissible stepsize interval (inf when mu = 0)."""
    if mu_value < 0:
        raise ParameterError("mu must be nonnegative")
    return np.inf if mu_value == 0.0 else 2.0 / mu_value


def eta(theta, gamma, mu_value):
    """Conical averagedness parameter 2*theta / (2 - gamma*mu)."""
    if not theta > 0:
        raise ParameterError("theta must be positive")
    if not 0 < gamma < stepsize_sup(mu_value):
        raise ParameterError(
            f"gamma = {gamma} outside (0, {stepsize_sup(mu_value)}) for mu = {mu_value}"
        )
    return 2.0 * theta / (2.0 - gamma * mu_value)


def kappa_form_scheme(s):
    """The doubled scheme (D -> 2D, N -> 2N) realizing the graph change of variables.

    Running the sweep on the doubled scheme at stepsize gamma reproduces the
    kappa-weighted graph iteration exactly, so the user-facing gamma matches
    the graph-form resolvent formulas. The doubled scheme satisfies the same
    six conditions whenever the original does. Every call doubles: a scheme
    carries no record of having been doubled before.
    """
    return CoefficientScheme(2.0 * s.d, s.M, 2.0 * s.N, s.P, s.R)

