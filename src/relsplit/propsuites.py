"""Named property-check suites behind the ``proptest`` command.

Each suite returns a list of failure messages (empty = pass); the first
failing trial is reported with its inputs so it can be replayed.
"""

from __future__ import annotations

import numpy as np

from . import engine, graph as graphmod, linalg, problems, relocator
from .driver import RunConfig, run
from .engine import SplitProblem
from .errors import ParameterError
from .operators import (BoxNormalCone, L1Subdiff, LeastSquaresGrad, NonnegNormalCone,
                        ScaledIdentity, ZeroForward, ZeroOp, check_resolvent_identity)
from .schedule import ScheduleSpec
from .scheme import kappa_form_scheme, mu as scheme_mu, validate
from .relocator import DAVIS_YIN, GENERAL

def _random_resolvent(rng):
    k = rng.integers(0, 4)
    if k == 0:
        return L1Subdiff(float(rng.uniform(0.1, 5.0)))
    if k == 1:
        return BoxNormalCone(float(rng.uniform(0.5, 10.0)))
    if k == 2:
        return NonnegNormalCone()
    return ZeroOp()


def graph_split(n, seed, dim=6):
    """Small synthetic n-resolvent, (n-1)-forward problem for graph schemes."""
    rng = np.random.default_rng(seed)
    resolvents = [_random_resolvent(rng) for _ in range(n)]
    forwards = []
    for j in range(n - 1):
        k = j % 3
        if k == 0:
            a = rng.standard_normal((dim + 2, dim)) / np.sqrt(dim + 2)
            forwards.append(LeastSquaresGrad(a, rng.standard_normal(dim + 2)))
        elif k == 1:
            forwards.append(ScaledIdentity(float(rng.uniform(0.05, 1.0))))
        else:
            forwards.append(ZeroForward())
    beta = max(f.beta for f in forwards)
    if beta == 0.0:
        forwards[0] = ScaledIdentity(0.5)
        beta = 0.5
    return SplitProblem(resolvents, forwards, beta, dim)


def kappa_scheme(kind, n):
    """Kappa-form scheme of a canonical tree (what the driver runs on)."""
    return kappa_form_scheme(graphmod.scheme_from_graph(graphmod.canonical(kind, n)))


def small_lasso_setup(seed=3):
    """Chain scheme plus a small constrained-LASSO split (Davis-Yin shape)."""
    prob = problems.gen_lasso(20, 30, seed, spectrum=(0.5, 1.5), lam=1e-2, u=50.0)
    split = problems.split_lasso(prob)
    return kappa_scheme(graphmod.SEQUENTIAL, 2), split, prob


def small_elastic_setup(seed=5, kind=graphmod.SEQUENTIAL):
    """Canonical n=3 scheme plus a small nonnegative elastic-net split."""
    prob = problems.gen_elastic_net(25, 20, seed, n_corr=2, noise_sd=0.01)
    split = problems.split_elastic(prob)
    return kappa_scheme(kind, 3), split, prob


def converge(s, split, kind, gamma, fix_res_tol=1e-10, max_iters=200000):
    """Run the constant-stepsize iteration to a tight fixed-point residual."""
    cfg = RunConfig(scheme=s, problem=split, relocator=kind,
                    schedule=ScheduleSpec(variant="constant", gamma=gamma),
                    max_iters=max_iters, fix_res_tol=fix_res_tol, record_every=10000)
    trace = run(cfg)
    if not trace.converged:
        raise RuntimeError(
            f"baseline run did not reach fix_res <= {fix_res_tol} "
            f"(last {trace.fix_res[-1]:.3e}, aborted={trace.aborted})")
    return trace


def suite_resolvent_identity(trials=1000, seed=0, tol=1e-12):
    # gamma, delta in [0.1, 10]: ratios beyond ~100 push plain floating-point
    # cancellation in (d/g) v + (1 - d/g) J v past the 1e-12 absolute tolerance
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        op = _random_resolvent(rng)
        gamma, delta = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
        v = rng.normal(0.0, 5.0, size=rng.integers(1, 9))
        if not check_resolvent_identity(op, float(gamma), float(delta), v, tol=tol):
            failures.append(f"trial {t}: {op!r}, gamma={gamma}, delta={delta}, v={v}")
            break
    return failures


def suite_scheme_validity(trials=0, seed=0):
    failures = []
    for kind in graphmod.CANONICAL_KINDS:
        for n in range(2, 9):
            s = graphmod.scheme_from_graph(graphmod.canonical(kind, n))
            for tag, sch in (("base", s), ("kappa", kappa_form_scheme(s))):
                bad = validate(sch)
                if bad:
                    failures.append(f"{kind} n={n} [{tag}]: {bad}")
    chain = graphmod.scheme_from_graph(graphmod.canonical(graphmod.SEQUENTIAL, 2))
    core = 2.0 * np.diag(chain.d) - chain.N - chain.N.T - chain.M @ chain.M.T
    if np.any(core != 0.0):
        failures.append(f"chain 2D - N - N* - M M* is not exactly zero:\n{core}")
    return failures


def suite_pinv_closed_forms(trials=0, seed=0, tol=1e-10):
    failures = []
    for kind in graphmod.CANONICAL_KINDS:
        for n in range(2, 9):
            closed = graphmod.incidence_pinv_closed_form(kind, n)
            numeric = linalg.pseudoinverse(graphmod.incidence(graphmod.canonical(kind, n)))
            err = float(np.max(np.abs(closed - numeric)))
            if err > tol:
                failures.append(f"{kind} n={n}: max entry error {err:.3e}")
    return failures


def _cheap_setups(seed):
    setups = []
    s, split, _ = small_lasso_setup(seed)
    setups.append((DAVIS_YIN, s, split))
    for kind in graphmod.CANONICAL_KINDS:
        sk, sp, _ = small_elastic_setup(seed + 1, kind=kind)
        setups.append((kind, sk, sp))
    for kind, n in ((graphmod.INWARD_STAR, 5), (graphmod.OUTWARD_STAR, 4),
                    (graphmod.SEQUENTIAL, 4)):
        setups.append((kind, kappa_scheme(kind, n), graph_split(n, seed + n)))
    return setups


def suite_recycling(trials=500, seed=0, tol=1e-10):
    failures = []
    rng = np.random.default_rng(seed)
    setups = _cheap_setups(seed)
    per = max(1, trials // len(setups))
    for kind, s, split in setups:
        for t in range(per):
            z = rng.normal(0.0, 3.0, size=(s.m, split.dim))
            gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            delta = float(gamma * np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            if not relocator.check_recycling(kind, s, split, delta, gamma, z, tol=tol):
                failures.append(f"{kind} n={s.n} trial {t}: gamma={gamma}, delta={delta}")
                break
    return failures


def suite_lipschitz(trials=1000, seed=0, slack=1e-10):
    failures = []
    rng = np.random.default_rng(seed)
    setups = _cheap_setups(seed)
    setups += [(GENERAL, s, split) for _, s, split in setups[:4]]
    per = max(1, trials // len(setups))
    for kind, s, split in setups:
        gamma = 0.5 / max(split.beta, 1.0)
        for t in range(per):
            delta = float(gamma * np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            lip = relocator.lipschitz_constant(kind, s, delta, gamma, split.beta)
            z = rng.normal(0.0, 3.0, size=(s.m, split.dim))
            w = rng.normal(0.0, 3.0, size=(s.m, split.dim))
            qz = relocator.relocate(kind, s, split, delta, gamma, z)
            qw = relocator.relocate(kind, s, split, delta, gamma, w)
            lhs = float(np.linalg.norm(qz - qw))
            rhs = lip * float(np.linalg.norm(z - w)) + slack
            if lhs > rhs:
                failures.append(
                    f"{kind} n={s.n} trial {t}: ||Qz-Qw|| = {lhs:.6e} > "
                    f"L*||z-w|| + slack = {rhs:.6e} (L={lip:.6g})")
                break
    return failures


def relocator_axiom_checks(s, split, cheap_kind, gamma, fix_tol=1e-10,
                           reloc_tol=1e-8, agree_tol=1e-7):
    """Definition-level relocator checks at an approximate fixed point.

    Returns failure messages for: relocated fix_res at delta in
    {gamma/2, 2*gamma} within (0, 2/mu); the semigroup and inverse
    identities; and cheap/general agreement.
    """
    failures = []
    mu_value = scheme_mu(s, split.beta)
    trace = converge(s, split, cheap_kind, gamma, fix_res_tol=fix_tol)
    z_star = trace.z_final
    x_sweep = engine.sweep(s, split, gamma, z_star)
    deltas = [d for d in (0.5 * gamma, 2.0 * gamma)
              if mu_value == 0.0 or d < 2.0 / mu_value]
    for kind in (cheap_kind, GENERAL):
        for delta in deltas:
            zd = relocator.relocate(kind, s, split, delta, gamma, z_star, sweep=x_sweep)
            fr, _ = engine.residuals(s, engine.sweep(s, split, delta, zd))
            if fr > reloc_tol:
                failures.append(f"{kind}: fix_res at delta={delta:.4g} is {fr:.3e}")
            back = relocator.relocate(kind, s, split, gamma, delta, zd)
            if float(np.linalg.norm(back - z_star)) > reloc_tol:
                failures.append(f"{kind}: inverse identity off by "
                                f"{np.linalg.norm(back - z_star):.3e} at delta={delta:.4g}")
        if deltas:
            delta, eps = deltas[0], 1.5 * gamma
            step1 = relocator.relocate(kind, s, split, delta, gamma, z_star, sweep=x_sweep)
            two_leg = relocator.relocate(kind, s, split, eps, delta, step1)
            direct = relocator.relocate(kind, s, split, eps, gamma, z_star, sweep=x_sweep)
            gap = float(np.linalg.norm(two_leg - direct))
            if gap > reloc_tol:
                failures.append(f"{kind}: semigroup identity off by {gap:.3e}")
    for delta in deltas:
        qc = relocator.relocate(cheap_kind, s, split, delta, gamma, z_star, sweep=x_sweep)
        qg = relocator.relocate(GENERAL, s, split, delta, gamma, z_star, sweep=x_sweep)
        gap = float(np.linalg.norm(qc - qg))
        if gap > agree_tol:
            failures.append(f"cheap vs general at delta={delta:.4g}: gap {gap:.3e}")
    return failures


def suite_relocator_axioms(trials=0, seed=0):
    failures = []
    s, split, _ = small_lasso_setup(seed + 3)
    failures += [f"dy/lasso: {m}" for m in
                 relocator_axiom_checks(s, split, DAVIS_YIN, 0.8 / split.beta)]
    s, split, _ = small_elastic_setup(seed + 5, kind=graphmod.SEQUENTIAL)
    mu_value = scheme_mu(s, split.beta)
    failures += [f"seq3/elastic: {m}" for m in
                 relocator_axiom_checks(s, split, graphmod.SEQUENTIAL, 0.8 / mu_value)]
    return failures


SUITES = {   # name -> suite, in the order proptest lists them
    "resolvent-identity": suite_resolvent_identity,
    "relocator-axioms": suite_relocator_axioms,
    "lipschitz": suite_lipschitz,
    "recycling": suite_recycling,
    "scheme-validity": suite_scheme_validity,
    "pinv-closed-forms": suite_pinv_closed_forms,
}


def run_suite(name, trials=1000, seed=0):
    """Run one named suite; returns the failure-message list (empty = pass)."""
    if name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    return SUITES[name](trials=trials, seed=seed)
