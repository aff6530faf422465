#!/usr/bin/env python3
"""Memory-augmented costs via the shift register.

Costs that depend on the previous input (switching penalties) embed into
the framework by stacking past inputs into a register state.  Constraints
act on the input only, so the governor passes references straight through
and the applied input equals the proposed reference; the induced cost of
holding a reference is simply the stage cost on the diagonal.
"""

import numpy as np

from oco_rg import (
    MemoryCostSchedule,
    SteadyStateCost,
    adversarial_lower_bound,
    run_memory_reduction,
)

schedule = MemoryCostSchedule(horizon=600, p=1, weight=4.0,
                              target_amplitude=0.6, target_period=240.0)
print("cost: 4 (u_t - a_t)^2 + (u_t - u_{t-1})^2 with a sinusoidal target a_t")

out = run_memory_reduction(schedule, "ogd", T=600)
ledger = out["ledger"]
arr = ledger.arrays()

print("\n=== Reduction mechanics ===")
print(f"governor pass-through: v == r on all steps: {bool(np.all(arr['v'] == arr['r']))}")
print(f"applied input equals reference: {bool(np.all(arr['u'] == arr['r']))}")

cost = SteadyStateCost(schedule, out["certificate"].converse.ctrl)
v_probe = 0.37
diag = float(schedule.stage_cost(3, np.array([v_probe]), v_probe))
print(f"induced cost at v = {v_probe}: {float(cost.eval(3, v_probe)):.6f} "
      f"== diagonal stage cost {diag:.6f}")

print("\n=== Regret accounting ===")
print(f"memory regret (stage costs vs best constant) : {ledger.regret:9.4f}")
print(f"online regret of the reference sequence      : {ledger.regret_oco:9.4f}")
print(f"reference path length (switching activity)   : {ledger.path_length:9.4f}")
bound = out["bound"]
print(f"framework bound: {bound['lhs_regret']:.4f} <= {bound['rhs_bound']:.4f} "
      f"({bound['status']})")

cert = out["certificate"]
print("\n=== Register certificate ===")
print(f"deadbeat envelope: gain {cert.c_phi:.1f}, rate {cert.lam:.1f} "
      f"(register forgets in one step)")
print(f"sum length N = {cert.N}, decay factor {cert.lam_tilde:.2f}")

print("\n=== Post-committed costs floor the closed-loop regret ===")
from oco_rg import register_controller, shift_register_plant

plant = shift_register_plant(1)
ctrl = register_controller(plant, -0.9, 0.9)
adv = adversarial_lower_bound(plant, ctrl, T=300)
print(f"scripted drifting reference: closed-loop regret {adv['regret']:.4f}")
print(f"online regret pinned at {adv['regret_oco']:.2e}; the gap is the")
print("transient cost no algorithm can avoid once costs react to its choices")
