#!/usr/bin/env python3
"""Safe sets from Lyapunov sublevels: per-reference and uniform levels.

For each reference v, the largest sublevel of V(x, v) = ||x - h(v)||^2_P(v)
whose ellipsoid satisfies every constraint row follows in closed form from
the row margins.  Taking the minimum over the window gives a uniform level;
both sets are forward invariant, so the governor only ever needs a
membership test.
"""

import numpy as np

from oco_rg import (
    CstrParams,
    build_cstr_controller,
    compute_gamma,
    cstr_constraints,
    cstr_plant,
    fixed_level_set,
    sample_safe_states,
    variable_level_set,
)

params = CstrParams()
plant = cstr_plant(params)
ctrl, _ = build_cstr_controller(plant, params)
poly = cstr_constraints()

print("=== Per-reference levels ===")
vgrid = np.linspace(0.4, 0.85, 181)
gamma = compute_gamma(vgrid, poly, ctrl)
print(f"Gamma(v) ranges over [{gamma.min():.4g}, {gamma.max():.4g}]")
print(f"tightest at v = {vgrid[np.argmin(gamma)]:.4f} (margins shrink near the")
print("window edges, where the equilibrium approaches the constraint box)")

fixed = fixed_level_set(poly, ctrl)
variable = variable_level_set(poly, ctrl)
cert = fixed.certificate
print("\n=== Uniform level ===")
print(f"V_max = min Gamma = {cert.V_max:.6g}")
print(f"ball radius delta = {cert.delta:.4g} fits inside every slice")

print("\n=== Set sizes along the window ===")
print(f"{'theta':>7s} {'Gamma(v)':>10s} {'V_max':>10s} {'ratio':>7s}")
for v in np.linspace(0.4, 0.85, 10):
    g = float(compute_gamma(v, poly, ctrl))
    print(f"{v:7.3f} {g:10.5f} {cert.V_max:10.5f} {g / cert.V_max:7.1f}")

print("\n=== Forward invariance, sampled ===")
rng = np.random.default_rng(0)
x, v = sample_safe_states(variable, 5000, rng)
lev = variable.level(v)
cur = x
worst = 0.0
for _ in range(50):
    cur = ctrl.closed_loop(cur, v)
    worst = max(worst, float((ctrl.lyapunov(cur, v) / lev).max()))
print(f"5000 members rolled 50 steps: worst V/level = {worst:.6f} (never exceeds 1)")

print("\n=== Admissible reference slices ===")
for v0 in (0.45, 0.6, 0.8):
    x0 = ctrl.ss.h(v0)
    lo, hi = variable.cross_section_v(x0)
    print(f"at x = h({v0}): admissible references [{lo:.4f}, {hi:.4f}]")

out = "safe_set_levels.csv"
with open(out, "w") as fh:
    fh.write("v,gamma,V_max,delta\n")
    for v, g in zip(vgrid, gamma):
        fh.write(f"{v:.17g},{g:.17g},{cert.V_max:.17g},{cert.delta:.17g}\n")
print(f"\nwrote {out} (columns v, gamma, V_max, delta) for set pictures")
