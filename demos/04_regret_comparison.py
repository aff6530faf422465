#!/usr/bin/env python3
"""Compare online updates and safe sets: the four-way regret table.

Gradient descent versus full re-optimization, uniform level versus
per-reference level.  The larger set lets the governor pass references
through sooner, which dominates the regret; the choice of online update
barely matters here.  Afterwards the empirical certificate is estimated
and both regret bounds are evaluated on each run.
"""

import numpy as np

from oco_rg import (
    CstrCostSchedule,
    CstrParams,
    SamplingPlan,
    build_cstr_controller,
    cstr_constraints,
    cstr_plant,
    estimate_certificate,
    fixed_level_set,
    lyapunov_window_diagnostics,
    run_closed_loop,
    variable_level_set,
    verify_q_linear_regret,
    verify_regret_bound,
)

params = CstrParams()
plant = cstr_plant(params)
ctrl, _ = build_cstr_controller(plant, params)
poly = cstr_constraints()
sets = {"fixed": fixed_level_set(poly, ctrl), "variable": variable_level_set(poly, ctrl)}
schedule = CstrCostSchedule(horizon=2400)

runs = {}
for oco in ("ogd", "prev_opt"):
    for kind, safe_set in sets.items():
        runs[(oco, kind)] = run_closed_loop(plant, ctrl, safe_set, "scalar",
                                            oco, schedule, T=2400, r0=0.6519)

top = max(ledger.regret for ledger in runs.values())
print("=== Normalized regret (100% = worst combination) ===")
print(f"{'update':>9s} {'set':>9s} {'regret':>10s} {'normalized':>11s} {'viol':>5s}")
for (oco, kind), ledger in runs.items():
    print(f"{oco:>9s} {kind:>9s} {ledger.regret:10.2f} "
          f"{100 * ledger.regret / top:10.2f}% {ledger.violations:5d}")

print("\nmedian per-step cost [us]:")
for (oco, kind), ledger in runs.items():
    print(f"  {oco:>9s}/{kind:<9s} update {np.median(ledger.oco_ns) / 1e3:8.2f}, "
          f"governor {np.median(ledger.rg_ns) / 1e3:8.2f}")

print("\n=== Certificate and bounds (variable-level set) ===")
arr = runs[("ogd", "variable")].arrays()
cert = estimate_certificate(
    plant, ctrl, sets["variable"], schedule,
    SamplingPlan(seed=12345, extra_states=(arr["x"][::8], arr["v"][::8])))
print(f"envelope: gain {cert.c_phi:.3f}, rate {cert.lam:.5f}, sum length N = {cert.N}")
print(f"sandwich factors: [{cert.lam1:.1f}, {cert.lam2:.1f}], decay {cert.lam_tilde:.5f}")
print(f"Lipschitz: l = {cert.l:.1f}, l_g = {cert.l_g:.1f}, l_h = {cert.l_h:.2f}, "
      f"l_s = {cert.l_s:.1f}")
print(f"measured gradient-descent contraction: {cert.kappa_ogd:.4f} (< 1)")
print(f"path-length coefficient c_PL = {cert.c_pl:.3e} (best-effort constants)")

for (oco, kind), ledger in runs.items():
    if kind != "variable":
        continue
    rep = verify_regret_bound(ledger, cert, ctrl)
    print(f"\n{oco}: regret {rep['lhs_regret']:.2f} <= bound {rep['rhs_bound']:.3e} "
          f"-> {rep['status']}")
    if oco == "prev_opt":
        q = verify_q_linear_regret(ledger, cert, ctrl, kappa=0.0)
        print(f"   online regret {ledger.regret_oco:.4f} <= "
              f"{q['oco_rhs']:.4f} (variation bound, zero contraction)")
    win = lyapunov_window_diagnostics(ledger, cert)
    print(f"   window recursion holds: {win['recursion_holds']}, "
          f"V max {win['v_max_seen']:.2f} <= bound {win['V_bar']:.2e}")
