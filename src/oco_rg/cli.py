"""Command-line front end: simulate, table1, verify, constants.

Exit codes: 0 success, 1 runtime failure or failed hard check, 2 malformed
configuration.  Outputs under --out are byte-reproducible for a fixed
config and seed; wall-clock timings go to a separate timings file so the
deterministic artifacts stay bit-stable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .checks import (
    check_causality,
    check_converse_bounds,
    check_delta_ball,
    check_governor_maximality,
    check_safe_set_soundness,
    check_steady_state_residuals,
)
from .harness import (
    RunError,
    SamplingPlan,
    adversarial_lower_bound,
    estimate_certificate,
    lyapunov_window_diagnostics,
    run_closed_loop,
    run_memory_reduction,
    verify_q_linear_regret,
    verify_regret_bound,
)
from .safeset import compute_gamma
from .scenario import (
    DEVIATIONS,
    ConfigError,
    ScenarioConfig,
    build_scenario,
    load_config,
    validate_config,
    with_safe_set,
)

log = logging.getLogger("oco_rg")


def _setup_logging():
    level = os.environ.get("OCO_RG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load(args) -> ScenarioConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = ScenarioConfig()
    cfg = cfg.with_overrides(governor=args.governor, safe_set=args.safe_set,
                             oco=args.oco, seed=args.seed,
                             out_dir=str(args.out) if args.out else None)
    validate_config(cfg)
    return cfg


def _json_dump(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def _harvest(ledger, stride=8):
    arr = ledger.arrays()
    return arr["x"][::stride], arr["v"][::stride]


def _run_one(bundle, cfg, oco_kind=None):
    return run_closed_loop(
        bundle.plant, bundle.ctrl, bundle.safe_set, cfg.governor,
        oco_kind or cfg.oco, bundle.schedule, T=cfg.steps, r0=cfg.r0,
        gamma=cfg.step_size, grad_tol=cfg.grad_tolerance)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    bundle = build_scenario(cfg)
    build_s = time.perf_counter() - t0
    ledger = _run_one(bundle, cfg)
    cert = estimate_certificate(
        bundle.plant, bundle.ctrl, bundle.safe_set, bundle.schedule,
        SamplingPlan(seed=cfg.seed, extra_states=_harvest(ledger)), gamma=cfg.step_size)
    bound = verify_regret_bound(ledger, cert, bundle.ctrl)
    windows = lyapunov_window_diagnostics(ledger, cert)
    report = {
        "scenario": {k: getattr(cfg, k) for k in (
            "plant_kind", "governor", "safe_set", "oco", "steps", "seed", "r0")},
        "regrets": {
            "closed_loop": ledger.regret,
            "online": ledger.regret_oco,
            "path_length": ledger.path_length,
        },
        "violations": ledger.violations,
        "invariance_breaks": ledger.invariance_breaks,
        "certificate": cert.as_dict(),
        "checks": {
            "regret_bound": bound,
            "windows": {k: windows[k] for k in (
                "recursion_holds", "worst_margin", "vbar_holds", "v_max_seen")},
        },
        "deviations": list(DEVIATIONS),
    }
    if cfg.oco == "prev_opt":
        report["checks"]["q_linear"] = verify_q_linear_regret(ledger, cert, bundle.ctrl, kappa=0.0)
    ledger.to_csv(out / "trajectory.csv")
    _json_dump(report, out / "report.json")
    _json_dump({
        "build_s": build_s,
        "oco_step_us": {"mean": float(np.mean(ledger.oco_ns)) / 1e3,
                        "median": float(np.median(ledger.oco_ns)) / 1e3},
        "rg_step_us": {"mean": float(np.mean(ledger.rg_ns)) / 1e3,
                       "median": float(np.median(ledger.rg_ns)) / 1e3},
    }, out / "timings.json")
    log.info("simulate: regret=%.6g violations=%d", ledger.regret, ledger.violations)
    print(f"simulate: wrote {out / 'trajectory.csv'} and {out / 'report.json'} "
          f"(violations = {ledger.violations})")
    return 0 if ledger.violations == 0 else 1


def _timing_stats(ns_list):
    arr = np.asarray(ns_list, dtype=float) / 1e3
    return {"mean": float(arr.mean()), "std": float(arr.std(ddof=0)),
            "median": float(np.median(arr))}


def cmd_table1(args) -> int:
    cfg = _load(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    combos = [(oco, ss) for oco in ("ogd", "prev_opt") for ss in ("fixed", "variable")]
    fixed = build_scenario(cfg, safe_set_kind="fixed")
    bundles = {"fixed": fixed, "variable": with_safe_set(fixed, "variable")}

    rows = {}
    failed = []
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = {combo: pool.submit(_run_one, bundles[combo[1]], cfg, combo[0])
                   for combo in combos}
        for combo, future in futures.items():
            try:
                rows[combo] = future.result()
            except Exception as exc:  # partial table still reported
                failed.append(str(exc))
    if failed:
        print("table1: sub-run failures:", *failed, sep="\n  ", file=sys.stderr)
    if not rows:
        return 1
    max_regret = max(ledger.regret for ledger in rows.values())
    lines = ["oco,safe_set,norm_regret_pct,violations,"
             "oco_mean_us,oco_std_us,oco_median_us,rg_mean_us,rg_std_us,rg_median_us"]
    print(f"{'oco':10s} {'set':9s} {'regret':>8s} {'OCO us (med)':>14s} {'RG us (med)':>14s}")
    for combo in combos:
        if combo not in rows:
            continue
        ledger = rows[combo]
        pct = 100.0 * ledger.regret / max_regret
        so = _timing_stats(ledger.oco_ns)
        sr = _timing_stats(ledger.rg_ns)
        lines.append(
            f"{combo[0]},{combo[1]},{pct:.2f},{ledger.violations},"
            f"{so['mean']:.3f},{so['std']:.3f},{so['median']:.3f},"
            f"{sr['mean']:.3f},{sr['std']:.3f},{sr['median']:.3f}")
        print(f"{combo[0]:10s} {combo[1]:9s} {pct:7.2f}% "
              f"{so['mean']:7.2f} ({so['median']:.2f}) {sr['mean']:7.2f} ({sr['median']:.2f})")
    (out / "table.csv").write_text("\n".join(lines) + "\n")
    violations = sum(ledger.violations for ledger in rows.values())
    return 1 if failed or violations else 0


def cmd_verify(args) -> int:
    cfg = _load(args)
    bundle = build_scenario(cfg)
    results = {}
    results["steady_states"] = (check_steady_state_residuals(bundle.plant, bundle.ctrl), False)
    aborted = {"passed": False, "error": "run aborted"}
    try:
        ledger = _run_one(bundle, cfg)
    except RunError as exc:  # the checks that need no ledger still run
        ledger = None
        results["zero_violations"] = ({
            "passed": False, "step": exc.step, "error": str(exc.__cause__ or exc)}, False)
    else:
        results["zero_violations"] = ({
            "passed": ledger.violations == 0 and ledger.invariance_breaks == 0,
            "violations": ledger.violations,
            "invariance_breaks": ledger.invariance_breaks}, False)
    results["safe_set_soundness"] = (check_safe_set_soundness(
        bundle.safe_set, seed=cfg.seed), False)
    results["delta_ball"] = (check_delta_ball(bundle.safe_set), False)
    results["governor_maximality"] = (check_governor_maximality(
        bundle.safe_set, seed=cfg.seed, governor=cfg.governor), False)
    results["causality"] = (aborted if ledger is None else check_causality(ledger), False)
    adv = adversarial_lower_bound(bundle.plant, bundle.ctrl, T=min(cfg.steps, 400))
    results["adversarial_floor"] = ({
        "passed": adv["gap"] >= -1e-9 * cfg.steps,
        "regret": adv["regret"], "regret_oco": adv["regret_oco"]}, False)
    cert = None
    if ledger is None:
        results["certificate"] = (aborted, False)
    else:
        try:
            cert = estimate_certificate(
                bundle.plant, bundle.ctrl, bundle.safe_set, bundle.schedule,
                SamplingPlan(seed=cfg.seed, extra_states=_harvest(ledger)), gamma=cfg.step_size)
        except Exception as exc:
            results["certificate"] = ({"passed": False, "error": str(exc)}, False)
    if cert is not None:
        results["converse_bounds"] = (check_converse_bounds(
            bundle.safe_set, cert.converse, seed=cfg.seed), False)
        windows = lyapunov_window_diagnostics(ledger, cert)
        results["window_recursion"] = ({
            "passed": windows["recursion_holds"] and windows["vbar_holds"],
            "worst_margin": windows["worst_margin"],
            "failures": windows["failures"][:3]}, False)
        bound = verify_regret_bound(ledger, cert, bundle.ctrl)
        results["regret_bound"] = ({"passed": bound["holds"], **{
            k: bound[k] for k in ("lhs_regret", "rhs_bound", "margin")}}, cert.best_effort)
        if cfg.oco == "prev_opt":
            q = verify_q_linear_regret(ledger, cert, bundle.ctrl, kappa=0.0)
            results["q_linear_online_bound"] = ({"passed": q["oco_holds"], **{
                k: q[k] for k in ("variation", "oco_rhs")}}, False)
        if cert.kappa_ogd is not None:
            results["ogd_contraction"] = ({
                "passed": cert.kappa_ogd < 1.0, "kappa": cert.kappa_ogd}, False)

    hard_failures = 0
    for name, (res, diagnostic) in results.items():
        status = "pass" if res.get("passed") else ("diagnostic-fail" if diagnostic else "FAIL")
        if not res.get("passed") and not diagnostic:
            hard_failures += 1
        detail = {k: v for k, v in res.items() if k != "passed"}
        print(f"verify {name:24s} {status:15s} {json.dumps(detail, default=str)[:160]}")
    if cfg.plant_kind == "shift_register":
        mem = run_memory_reduction(bundle.schedule, cfg.oco, cfg.steps, p=cfg.register_p,
                                   u_lo=cfg.u_min, u_hi=cfg.u_max,
                                   r0=cfg.r0, seed=cfg.seed, gamma=cfg.step_size)
        ok = mem["bound"]["holds"]
        print(f"verify {'memory_reduction':24s} {'pass' if ok else 'FAIL':15s} "
              f"margin={mem['bound']['margin']:.6g}")
        if not ok:
            hard_failures += 1
    return 0 if hard_failures == 0 else 1


def cmd_constants(args) -> int:
    cfg = _load(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = build_scenario(cfg)
    cert = estimate_certificate(bundle.plant, bundle.ctrl, bundle.safe_set,
                                bundle.schedule, SamplingPlan(seed=cfg.seed),
                                gamma=cfg.step_size)
    _json_dump(cert.as_dict(), out / "certificate.json")
    vgrid = bundle.ctrl.ss.grid(cfg.grid_points)
    gamma = np.asarray(compute_gamma(vgrid, bundle.poly, bundle.ctrl), dtype=float)
    v_max, delta = bundle.safe_set.certificate.V_max, bundle.safe_set.certificate.delta
    K = bundle.ctrl.gain(vgrid)
    P = bundle.ctrl.lyap_weight(vgrid)
    m, n = K.shape[-2], K.shape[-1]
    k_cols = [f"K{i + 1}{j + 1}" for i in range(m) for j in range(n)]
    p_cols = [f"P{i + 1}{j + 1}" for i in range(n) for j in range(i, n)]
    lines = ["v,gamma,V_max,delta," + ",".join(k_cols + p_cols)]
    for idx, v in enumerate(vgrid):
        kvals = [K[idx, i, j] for i in range(m) for j in range(n)]
        pvals = [P[idx, i, j] for i in range(n) for j in range(i, n)]
        vals = [v, gamma[idx], v_max, delta] + kvals + pvals
        lines.append(",".join(format(val, ".17g") for val in vals))
    (out / "constants.csv").write_text("\n".join(lines) + "\n")
    print(f"constants: V_max = {v_max:.6g}, delta = {delta:.6g}, "
          f"lam_tilde = {cert.lam_tilde:.6g}; wrote {out / 'constants.csv'}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="oco-rg",
        description="Constrained online setpoint optimization: simulate, compare, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("table1", cmd_table1),
                     ("verify", cmd_verify), ("constants", cmd_constants)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--jobs", type=int, default=4)
        p.add_argument("--governor", choices=("scalar", "command"), default=None)
        p.add_argument("--safe-set", dest="safe_set", choices=("fixed", "variable"),
                       default=None)
        p.add_argument("--oco", choices=("ogd", "prev_opt"), default=None)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
