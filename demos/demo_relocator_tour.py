#!/usr/bin/env python3
"""A tour of fixed-point relocators.

Walks through what makes stepsize changes possible mid-run:

1. the resolvent relocation identity J_dA((d/g) v + (1 - d/g) J_gA v) = J_gA v;
2. relocating a converged iterate: after driving the fixed-point residual to
   1e-10 at stepsize gamma, the relocated point is (near-)fixed for T_delta;
3. semigroup and inverse laws, and agreement of the cheap graph relocator
   with the general M-dagger construction on fixed points;
4. recycling: x_1 at the relocated point equals x_1 before relocation for
   every z, so relocation costs no extra resolvent evaluations;
5. the per-kind Lipschitz constants against sampled expansion ratios.

Usage: python demos/demo_relocator_tour.py
"""

import numpy as np

import relsplit as rs
from relsplit.engine import first_block, residuals, sweep
from relsplit.propsuites import converge, small_elastic_setup

rng = np.random.default_rng(0)

print("1) resolvent relocation identity")
op = rs.L1Subdiff(1.0)
v = np.array([2.0, -0.7, 0.4])
for gamma, delta in ((1.0, 0.25), (0.5, 3.0)):
    jg = op.resolve(gamma, v)
    lhs = op.resolve(delta, (delta / gamma) * v + (1 - delta / gamma) * jg)
    print(f"   gamma={gamma:4.2f} delta={delta:4.2f}  error = {np.linalg.norm(lhs - jg):.2e}")

print("\n2) relocating a converged elastic-net iterate (sequential tree, n = 3)")
scheme, split, _ = small_elastic_setup(5, kind=rs.SEQUENTIAL)
mu_value = rs.mu(scheme, split.beta)
gamma = 0.8 / mu_value
trace = converge(scheme, split, rs.SEQUENTIAL, gamma, fix_res_tol=1e-10)
z_star = trace.z_final
x_sweep = sweep(scheme, split, gamma, z_star)
print(f"   baseline: {trace.iterations} iterations, fix_res = {trace.fix_res[-1]:.2e}")
for delta in (0.5 * gamma, 2.0 * gamma):
    zd = rs.relocate(rs.SEQUENTIAL, scheme, split, delta, gamma, z_star, sweep=x_sweep)
    fr, _ = residuals(scheme, sweep(scheme, split, delta, zd))
    print(f"   fix_res at delta = {delta / gamma:.1f}*gamma after relocation: {fr:.2e}")

print("\n3) semigroup / inverse / cheap-vs-general agreement at the fixed point")
delta, eps = 0.5 * gamma, 1.5 * gamma
q_cheap = rs.relocate(rs.SEQUENTIAL, scheme, split, delta, gamma, z_star, sweep=x_sweep)
q_gen = rs.relocate(rs.GENERAL, scheme, split, delta, gamma, z_star, sweep=x_sweep)
two_leg = rs.relocate(rs.SEQUENTIAL, scheme, split, eps, delta, q_cheap)
direct = rs.relocate(rs.SEQUENTIAL, scheme, split, eps, gamma, z_star, sweep=x_sweep)
back = rs.relocate(rs.SEQUENTIAL, scheme, split, gamma, delta, q_cheap)
print(f"   semigroup gap   : {np.linalg.norm(two_leg - direct):.2e}")
print(f"   inverse gap     : {np.linalg.norm(back - z_star):.2e}")
print(f"   cheap vs general: {np.linalg.norm(q_cheap - q_gen):.2e}")

print("\n4) recycling holds for arbitrary z, not just fixed points")
z = rng.normal(0.0, 3.0, size=z_star.shape)
x1 = first_block(scheme, split, gamma, z)
zq = rs.relocate(rs.SEQUENTIAL, scheme, split, delta, gamma, z, x1=x1)
x1_after = first_block(scheme, split, delta, zq)
print(f"   ||x_1(gamma, z) - x_1(delta, Qz)|| = {np.linalg.norm(x1 - x1_after):.2e}")

print("\n5) Lipschitz constants vs sampled expansion ratios")
for kind in (rs.SEQUENTIAL, rs.GENERAL):
    lip = rs.lipschitz_constant(kind, scheme, delta, gamma, split.beta)
    worst = 0.0
    for _ in range(300):
        za, zb = rng.normal(0.0, 3.0, size=(2,) + z_star.shape)
        qa = rs.relocate(kind, scheme, split, delta, gamma, za)
        qb = rs.relocate(kind, scheme, split, delta, gamma, zb)
        worst = max(worst, np.linalg.norm(qa - qb) / np.linalg.norm(za - zb))
    print(f"   {kind:10s}: stated {lip:8.3f}   sampled sup ratio {worst:8.3f}")
