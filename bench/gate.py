"""Correctness gate: checks every closed-loop run from outside the library.

Runs outside the timed region.  Every check counts as one attempted
operation; a run counts once for its whole-run properties (no constraint
violation, V <= level <= certified level at every step, clean causality log,
running sums equal to a re-fold of the records) and each spot-check
(governor against the lattice oracle, optimum against a dense scan) counts
once more.  ``failed / attempted`` is the benchmark's failed-operation share.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from oco_rg import checks, harness, oco, safeset

# tolerance of check_governor_maximality against the same lattice oracle
BETA_TOL = 2e-6
# batched and scalar compute_gamma may differ in the last bits
LEVEL_RTOL = 1e-12
SCAN_POINTS = 4001
COMMAND_ORACLE_POINTS = 1_000_000


@dataclass(frozen=True)
class RunInputs:
    """What one closed-loop run was given, as far as the gate needs it."""

    ctrl: object
    safe_set: object
    schedule: object
    governor: str
    r0: float
    level_kind: str  # the configured safe-set kind, not the object's
    grid_points: int

    @classmethod
    def from_call(cls, args, kwargs, cfg):
        """Inputs of a captured ``run_closed_loop(*args, **kwargs)`` call."""
        bound = inspect.signature(harness.run_closed_loop).bind(*args, **kwargs).arguments
        return cls(ctrl=bound["ctrl"], safe_set=bound["safe_set"], schedule=bound["schedule"],
                   governor=bound["governor_kind"], r0=float(bound["r0"]),
                   level_kind=cfg.safe_set, grid_points=cfg.grid_points)


class Gate:
    """Tally of attempted and failed operations, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")


def certified_level(inputs: RunInputs, v):
    """Level recomputed from the constraints, independent of the safe-set object."""
    poly, ctrl = inputs.safe_set.poly, inputs.ctrl
    if inputs.level_kind == "fixed":
        grid = ctrl.ss.grid(inputs.grid_points)
        return np.full_like(v, np.min(safeset.compute_gamma(grid, poly, ctrl)))
    return np.asarray(safeset.compute_gamma(v, poly, ctrl), dtype=float)


def run_problems(ledger, inputs: RunInputs):
    """Whole-run properties that fail; empty when the run is correct."""
    arr = ledger.arrays()
    problems = []
    if ledger.violations or np.any(arr["margin_worst"] < 0.0):
        problems.append(f"{int(np.sum(arr['margin_worst'] < 0.0))} constraint violations")
    V, level = arr["V"], arr["level"]
    if np.any(V > level * (1.0 + LEVEL_RTOL)):
        problems.append(f"V > level at {int(np.sum(V > level * (1.0 + LEVEL_RTOL)))} steps")
    over = level > certified_level(inputs, arr["v"]) * (1.0 + LEVEL_RTOL)
    if np.any(over):
        problems.append(f"level above the certified level at {int(np.sum(over))} steps")
    causality = checks.check_causality(ledger)
    if not causality["passed"]:
        problems.append(f"causality violations {causality['violations']}")
    running = {"regret": ledger.regret, "regret_oco": ledger.regret_oco,
               "path_length": ledger.path_length}
    if ledger.recompute_sums() != running:
        problems.append("running sums differ from the re-folded records")
    return problems


def _sample(rng, idx, k):
    return rng.choice(idx, size=min(k, idx.size), replace=False) if idx.size else idx


def check_run(gate: Gate, ledger, inputs: RunInputs, rng, active=16, passive=8, optima=16):
    """Apply every check to one run."""
    problems = run_problems(ledger, inputs)
    gate.record("run", not problems, "; ".join(problems))
    arr = ledger.arrays()
    x, r, v, beta = arr["x"], arr["r"], arr["v"], arr["beta"]
    moved = np.flatnonzero(v != r)
    passed = np.flatnonzero(v == r)
    steps = np.concatenate([_sample(rng, moved, active), _sample(rng, passed, passive)])
    lo, hi = inputs.safe_set.window
    for t in steps.tolist():
        if inputs.governor == "scalar":
            v_prev = inputs.r0 if t == 0 else v[t - 1]
            best = harness.scalar_rg_grid_oracle(inputs.safe_set, x[t], r[t], v_prev)
            gate.record("governor beta", abs(beta[t] - best) <= BETA_TOL,
                        f"t={t} beta={beta[t]:.17g} lattice oracle={best:.17g}")
        else:
            best = harness.command_governor_grid_oracle(inputs.safe_set, x[t], r[t],
                                                        points=COMMAND_ORACLE_POINTS)
            tol = 2.0 * (hi - lo) / (COMMAND_ORACLE_POINTS - 1)
            gate.record("governor v", best is not None and abs(v[t] - best) <= tol,
                        f"t={t} v={v[t]:.17g} lattice oracle={best}")
    cost = oco.SteadyStateCost(inputs.schedule, inputs.ctrl)
    grid = np.linspace(lo, hi, SCAN_POINTS)
    for t in _sample(rng, np.arange(ledger.steps), optima).tolist():
        scan = float(np.min(cost.eval(t, grid)))
        ls_eta = arr["Ls_eta"][t]
        gate.record("optimum", ls_eta <= scan + 1e-9 * max(1.0, abs(scan)),
                    f"t={t} Ls_eta={ls_eta:.17g} dense scan={scan:.17g}")
