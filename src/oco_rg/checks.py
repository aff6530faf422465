"""Sampling-based property checks shared by the verify command.

Each check returns a dict with at least ``passed`` and enough detail to
locate a counterexample.  Checks that depend on the best-effort averaging
constants are marked diagnostic by the caller, not here.
"""

from __future__ import annotations

import numpy as np

from .governor import GovernorInfeasibleError, command_governor, scalar_rg
from .harness import (
    ORACLE_POINTS,
    command_governor_grid_oracle,
    sample_safe_states,
    scalar_rg_grid_oracle,
)
from .safeset import SafeSet, SliceNotIntervalError

BETA_GAP_TOL = 2e-6  # scalar governor's beta against its lattice oracle


def check_steady_state_residuals(plant, ctrl, points=200, tol=1e-9):
    """Fixed-point residual of (h(v), u_ss(v)) under the discrete step."""
    vgrid = ctrl.ss.grid(points)
    h_v = ctrl.ss.h(vgrid)
    u_v = ctrl.ss.u_ss(vgrid)
    res = np.linalg.norm(plant.step(h_v, u_v) - h_v, axis=-1)
    worst = float(res.max())
    return {"passed": worst <= tol, "worst_residual": worst, "tol": tol}


def check_converse_bounds(safe_set: SafeSet, converse, n_samples=1000,
                          seed=12345, slack=1e-9):
    """Sandwich and decrease inequalities of the trajectory-sum Lyapunov function."""
    rng = np.random.default_rng(seed)
    x, v = sample_safe_states(safe_set, n_samples, rng)
    ctrl = safe_set.ctrl
    gap = np.linalg.norm(x - ctrl.ss.h(v), axis=-1)
    val = np.asarray(converse.evaluate(x, v), dtype=float)
    val_next = np.asarray(converse.evaluate(ctrl.closed_loop(x, v), v), dtype=float)
    low_err = float(np.max(converse.lam1 * gap - val))
    high_err = float(np.max(val - converse.lam2 * gap))
    dec_err = float(np.max(val_next - val + converse.lam3 * gap))
    passed = max(low_err, high_err, dec_err) <= slack
    return {
        "passed": bool(passed),
        "lower_excess": low_err,
        "upper_excess": high_err,
        "decrease_excess": dec_err,
        "slack": slack,
    }


def _step_rows_guarded(ctrl, cur, v, park):
    """Per-row closed-loop step; rows whose dynamics leave their domain are
    parked at the steady state and reported."""
    out = np.empty_like(cur)
    failed = np.zeros(len(cur), dtype=bool)
    for i in range(len(cur)):
        try:
            out[i] = ctrl.closed_loop(cur[i], v[i])
        except Exception:
            out[i] = park[i]
            failed[i] = True
    return out, failed


def check_safe_set_soundness(safe_set: SafeSet, n_samples=10_000, steps=50,
                             seed=12345):
    """Constant-reference rollouts from safe states satisfy every raw constraint
    and never leave the sublevel set.

    A rollout that exits the domain of the dynamics counts as a violation
    (its sample is parked at the steady state afterwards so the batch can
    continue).
    """
    rng = np.random.default_rng(seed)
    x, v = sample_safe_states(safe_set, n_samples, rng)
    ctrl = safe_set.ctrl
    poly = safe_set.poly
    park = ctrl.ss.h(v)
    lev = np.asarray(safe_set.level(v), dtype=float)
    margin_min = np.inf
    level_ratio_max = 0.0
    violations = 0
    invariance_breaks = 0
    counterexample = None
    cur = x
    for t in range(steps + 1):
        u = ctrl.feedback(cur, v)
        margins = poly.raw_margins(cur, u).min(axis=-1)
        margin_min = min(margin_min, float(margins.min()))
        bad = margins < 0.0
        if bad.any():
            violations += int(bad.sum())
            if counterexample is None:
                i = int(np.argmax(bad))
                counterexample = {"x": x[i].tolist(), "v": float(v[i]), "step": t}
        V = np.asarray(ctrl.lyapunov(cur, v), dtype=float)
        with np.errstate(invalid="ignore"):
            ratio = np.where(np.isfinite(lev), V / np.where(lev > 0, lev, 1.0), 0.0)
        level_ratio_max = max(level_ratio_max, float(ratio.max()))
        out = ratio > 1.0 + 1e-12
        if out.any():
            invariance_breaks += int(out.sum())
            if counterexample is None:
                i = int(np.argmax(out))
                counterexample = {"x": x[i].tolist(), "v": float(v[i]), "step": t,
                                  "level_ratio": float(ratio[i])}
        if t < steps:
            try:
                cur = ctrl.closed_loop(cur, v)
            except Exception:
                cur, failed = _step_rows_guarded(ctrl, cur, v, park)
                violations += int(failed.sum())
                if counterexample is None and failed.any():
                    i = int(np.argmax(failed))
                    counterexample = {"x": x[i].tolist(), "v": float(v[i]),
                                      "step": t + 1, "domain_exit": True}
    return {
        "passed": violations == 0 and invariance_breaks == 0,
        "samples": n_samples,
        "violations": violations,
        "invariance_breaks": invariance_breaks,
        "worst_margin": margin_min,
        "level_ratio_max": level_ratio_max,
        "counterexample": counterexample,
    }


def check_delta_ball(safe_set: SafeSet, grid_points=181, ring_points=24):
    """Every state within delta of h(v) belongs to the slice at v."""
    delta = safe_set.certificate.delta
    if not np.isfinite(delta):
        return {"passed": True, "skipped": "no finite ball radius"}
    ctrl = safe_set.ctrl
    vgrid = ctrl.ss.grid(grid_points)
    n = ctrl.plant.n
    if n != 2:
        return {"passed": True, "skipped": "ball check shipped for planar states"}
    ang = np.linspace(0.0, 2.0 * np.pi, ring_points, endpoint=False)
    ring = delta * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    worst = -np.inf
    for v in vgrid:
        x = ctrl.ss.h(v) + ring
        V = np.asarray(ctrl.lyapunov(x, v), dtype=float)
        lev = float(safe_set.level(v))
        worst = max(worst, float((V - lev).max()))
    return {"passed": worst <= 1e-12, "worst_excess": worst}


def check_governor_maximality(safe_set: SafeSet, n_instances=1000, seed=12345,
                              bump=1e-8, governor="scalar"):
    """The selected governor against its dense-lattice oracle, pass-through,
    and maximality.

    ``governor`` "scalar": the step fraction beta against
    ``scalar_rg_grid_oracle`` within ``BETA_GAP_TOL``, and beta + ``bump``
    toward r inadmissible.  "command": v against
    ``command_governor_grid_oracle`` within two spacings of its window
    lattice, and v moved ``bump`` toward r inadmissible.  Both: an
    admissible r is returned unchanged.  An instance where the governor or
    the oracle raises SliceNotIntervalError, or the governor finds no
    admissible reference (GovernorInfeasibleError), counts as a maximality
    failure.
    """
    rng = np.random.default_rng(seed)
    x, v_prev = sample_safe_states(safe_set, n_instances, rng)
    lo, hi = safe_set.window
    r = rng.uniform(lo, hi, n_instances)
    tol = 2.0 * (hi - lo) / (ORACLE_POINTS - 1) if governor == "command" else BETA_GAP_TOL
    worst_gap = 0.0
    pass_through_bad = 0
    maximality_bad = 0
    counterexample = None
    for i in range(n_instances):
        ri, vi = float(r[i]), float(v_prev[i])
        try:
            if governor == "command":
                v = got = command_governor(x[i], ri, safe_set)
            else:
                v, got = scalar_rg(x[i], ri, vi, safe_set)
            if bool(safe_set.contains(x[i], ri)):
                if v != ri:
                    pass_through_bad += 1
                continue
            if governor == "command":
                best = command_governor_grid_oracle(safe_set, x[i], ri)
                probe = v + min(bump, abs(ri - v)) * np.sign(ri - v)
            else:
                best = scalar_rg_grid_oracle(safe_set, x[i], ri, vi)
                probe = vi + min(got + bump, 1.0) * (ri - vi) if got < 1.0 else None
        except (SliceNotIntervalError, GovernorInfeasibleError) as exc:
            maximality_bad += 1
            if counterexample is None:
                counterexample = {"x": x[i].tolist(), "r": ri, "error": str(exc)}
            continue
        # best is None when no lattice point is admissible
        gap = abs(got - best) if best is not None else np.inf
        if gap > worst_gap:
            worst_gap = gap
            if gap > tol:
                name = "v" if governor == "command" else "beta"
                counterexample = {"x": x[i].tolist(), "r": ri, "v_prev": vi,
                                  name: got, f"{name}_oracle": best}
        if probe is not None and bool(safe_set.contains(x[i], float(probe))):
            maximality_bad += 1
    return {
        "passed": worst_gap <= tol and pass_through_bad == 0 and maximality_bad == 0,
        "worst_gap": worst_gap,
        "pass_through_failures": pass_through_bad,
        "maximality_failures": maximality_bad,
        "counterexample": counterexample,
    }


def check_causality(ledger):
    """Every cost access made while deciding step t targets an index < t."""
    log = getattr(ledger, "causality_log", ())
    bad = [(now, idx) for now, idx in log if idx >= now]
    return {"passed": not bad, "accesses": len(log), "violations": bad[:5]}
