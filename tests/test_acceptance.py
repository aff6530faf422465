"""Acceptance suite: one test per success criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
inline; tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
from oco_rg import (
    CstrParams,
    MemoryCostSchedule,
    ScenarioConfig,
    SteadyStateCost,
    adversarial_lower_bound,
    box_polytope,
    build_cstr_controller,
    cstr_plant,
    fixed_level_set,
    lyapunov_window_diagnostics,
    run_closed_loop,
    run_memory_reduction,
    sample_safe_states,
    scalar_rg,
    variable_level_set,
)
from oco_rg.cli import main
from oco_rg.harness import scalar_rg_grid_oracle

SEED = 12345


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion:>2}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_01_constraint_safety_and_runtime():
    """Four standard combinations, 2400 steps, zero violations, < 60 s."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig()
    params = CstrParams()
    plant = cstr_plant(params, x0=cfg.x0)
    ctrl, _ = build_cstr_controller(plant, params, lqr_q=cfg.lqr_q,
                                    lqr_r=cfg.lqr_r, grid_points=cfg.grid_points)
    poly = box_polytope([(0.0, 1.0), (0.0, 1.0)], [(0.0, 2.0)])
    sets = {"fixed": fixed_level_set(poly, ctrl), "variable": variable_level_set(poly, ctrl)}
    from oco_rg import CstrCostSchedule

    schedule = CstrCostSchedule(horizon=cfg.steps)
    violations = {}
    for oco in ("ogd", "prev_opt"):
        for kind, safe_set in sets.items():
            ledger = run_closed_loop(plant, ctrl, safe_set, "scalar", oco,
                                     schedule, T=cfg.steps, r0=cfg.r0)
            violations[(oco, kind)] = ledger.violations
    elapsed = time.perf_counter() - t0
    ok = all(v == 0 for v in violations.values()) and elapsed < 60.0
    report(1, ok, f"violations={violations}, suite wall time {elapsed:.1f}s (< 60s)")


def test_02_regret_table_shape(standard_runs):
    regrets = {key: ledger.regret for key, ledger in standard_runs.items()}
    top = max(regrets.values())
    pct = {key: 100.0 * val / top for key, val in regrets.items()}
    var_low = (pct[("ogd", "variable")] <= 30.0 and pct[("prev_opt", "variable")] <= 30.0)
    var_close = abs(pct[("ogd", "variable")] - pct[("prev_opt", "variable")]) <= 2.0
    oco_close = all(
        abs(pct[("ogd", kind)] - pct[("prev_opt", kind)]) <= 5.0
        for kind in ("fixed", "variable"))
    detail = ", ".join(f"{k[0]}/{k[1]}={v:.2f}%" for k, v in sorted(pct.items()))
    report(2, var_low and var_close and oco_close, detail)


def test_03_plateau_tracking(cstr, standard_runs):
    ledger = standard_runs[("prev_opt", "variable")]
    arr = ledger.arrays()
    a, b = cstr.schedule.ramp_end, cstr.schedule.plateau_end
    assert b - a >= 200, f"plateau [{a}, {b}) is shorter than the 200-step tail"
    tail = slice(b - 200, b)
    lag = float(np.abs(arr["v"][tail] - arr["eta"][tail]).mean())
    report(3, lag <= 0.01, f"plateau-tail mean |v - eta| = {lag:.2e} (<= 0.01)")


def test_04_safe_set_soundness(cstr):
    rng = np.random.default_rng(SEED)
    x, v = sample_safe_states(cstr.variable, 10_000, rng)
    lev = np.asarray(cstr.variable.level(v))
    cur = x
    worst_margin = np.inf
    worst_ratio = 0.0
    for t in range(51):
        u = cstr.ctrl.feedback(cur, v)
        worst_margin = min(worst_margin, float(cstr.poly.raw_margins(cur, u).min()))
        ratio = np.asarray(cstr.ctrl.lyapunov(cur, v)) / lev
        worst_ratio = max(worst_ratio, float(ratio.max()))
        if t < 50:
            cur = cstr.ctrl.closed_loop(cur, v)
    ok = worst_margin >= 0.0 and worst_ratio <= 1.0 + 1e-12
    report(4, ok, f"10^4 rollouts: worst margin {worst_margin:.3e}, "
                  f"worst level ratio {worst_ratio:.6f}")


def test_05_converse_lyapunov_bounds(cstr, certificate):
    con = certificate.converse
    rng = np.random.default_rng(SEED)  # same draw as the certificate plan
    x, v = sample_safe_states(cstr.variable, 1000, rng)
    gap = np.linalg.norm(x - cstr.ctrl.ss.h(v), axis=-1)
    val = np.asarray(con.evaluate(x, v))
    nxt = np.asarray(con.evaluate(cstr.ctrl.closed_loop(x, v), v))
    low = float(np.max(con.lam1 * gap - val))
    high = float(np.max(val - con.lam2 * gap))
    dec = float(np.max(nxt - val + con.lam3 * gap))
    ok = max(low, high, dec) <= 1e-9
    report(5, ok, f"excesses: lower {low:.2e}, upper {high:.2e}, decrease {dec:.2e} "
                  f"(N={con.N}, lam2={con.lam2:.1f})")


def test_06_governor_maximality(cstr):
    rng = np.random.default_rng(SEED)
    x, v_prev = sample_safe_states(cstr.variable, 1000, rng)
    r = rng.uniform(0.4, 0.85, 1000)
    worst_gap = 0.0
    pass_bad = max_bad = 0
    binding = 0
    for i in range(1000):
        v, beta = scalar_rg(x[i], float(r[i]), float(v_prev[i]), cstr.variable)
        if bool(cstr.variable.contains(x[i], float(r[i]))):
            pass_bad += int(v != float(r[i]))
            continue
        binding += 1
        beta_star = scalar_rg_grid_oracle(cstr.variable, x[i], float(r[i]),
                                          float(v_prev[i]))
        worst_gap = max(worst_gap, abs(beta - beta_star))
        if beta < 1.0:
            probe = v_prev[i] + (beta + 1e-8) * (r[i] - v_prev[i])
            max_bad += int(bool(cstr.variable.contains(x[i], float(probe))))
    ok = worst_gap <= 2e-6 and pass_bad == 0 and max_bad == 0 and binding > 0
    report(6, ok, f"{binding} binding instances, worst |beta - oracle| {worst_gap:.2e}, "
                  f"pass-through errors {pass_bad}, maximality errors {max_bad}")


def test_07_adversarial_floor(cstr):
    T = 2400
    out = adversarial_lower_bound(cstr.plant, cstr.ctrl, T=T)
    floor_ok = out["regret"] >= out["regret_oco"] - 1e-9 * T
    strict_ok = out["regret"] > out["regret_oco"]  # the reference moves
    report(7, floor_ok and strict_ok,
           f"regret {out['regret']:.4f} >= online regret {out['regret_oco']:.2e}, strict")


def test_08_q_linear_plug_in(standard_runs, certificate, certificate_fixed):
    kappa = 0.0
    details = []
    ok = True
    for kind, cert in (("variable", certificate), ("fixed", certificate_fixed)):
        ledger = standard_runs[("prev_opt", kind)]
        arr = ledger.arrays()
        variation = float(np.sum(np.abs(np.diff(arr["eta"]))))
        rhs = cert.l_s * abs(arr["r"][0] - arr["eta"][0]) + variation / (1.0 - kappa)
        ok &= ledger.regret_oco <= rhs + 1e-9
        details.append(f"{kind}: {ledger.regret_oco:.4f} <= {rhs:.4f}")
    kap = certificate.kappa_ogd
    ok &= kap is not None and kap < 1.0
    report(8, ok, "; ".join(details) + f"; measured OGD contraction {kap:.4f} < 1")


def test_09_window_recursion(standard_runs, certificate, certificate_fixed):
    ok = True
    worst = np.inf
    for (oco, kind), ledger in standard_runs.items():
        cert = certificate if kind == "variable" else certificate_fixed
        rep = lyapunov_window_diagnostics(ledger, cert, max_gap=50, slack=1e-9)
        ok &= rep["recursion_holds"] and rep["vbar_holds"]
        worst = min(worst, rep["worst_margin"])
    report(9, ok, f"all windows <= 50 on four runs, worst margin {worst:.3e}, "
                  f"V_bar respected")


def test_10_memory_reduction():
    sched = MemoryCostSchedule(horizon=600, p=1)
    out = run_memory_reduction(sched, "ogd", T=600, seed=SEED)
    ledger = out["ledger"]
    bound = out["bound"]
    # induced cost must equal the diagonal stage cost exactly
    cost = SteadyStateCost(sched, out["certificate"].converse.ctrl)
    diag_exact = all(
        float(cost.eval(t, v)) == float(sched.stage_cost(t, np.array([v]), v))
        for t in range(0, 600, 97) for v in (-0.5, 0.0, 0.33))
    ok = bound["holds"] and diag_exact and ledger.violations == 0
    report(10, ok, f"regret {ledger.regret:.4f} <= bound {bound['rhs_bound']:.4f}, "
                   f"diagonal identity exact, violations {ledger.violations}")


def test_11_determinism(tmp_path):
    cfg_text = "\n".join([
        "[tracking]", "grid_points = 61", "[run]", "steps = 400",
        "[schedule]", "q_period = 400", "ramp_end = 150", "plateau_end = 300", ""])
    cfg = tmp_path / "det.ini"
    cfg.write_text(cfg_text)
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        blobs.append((out / "trajectory.csv").read_bytes()
                     + (out / "report.json").read_bytes())
    report(11, blobs[0] == blobs[1],
           "repeated simulate runs byte-identical (trajectory.csv, report.json)")
