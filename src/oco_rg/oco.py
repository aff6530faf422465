"""Stage-cost schedules, steady-state costs, and the online reference update.

The online algorithms see only costs that have already been revealed: at
step t they may evaluate index t-1 and earlier.  Projected gradient descent
and a previous-optimum algorithm ship; the per-step optimal reference is
computed independently by a dense scan plus golden-section refinement and
serves as the regret benchmark; it depends on the cost schedule alone, so a
run computes it for every index at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tracking import cstr_equilibrium

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LANE_BLOCK = 256  # searches in flight at once; each holds a generator of about 0.5 kB


class CstrCostSchedule:
    """Tracking costs q_t (c - cbar_t)^2 + u^2 with drifting weight and target.

    The weight follows a sinusoid, q_t = q_offset - q_amplitude sin(2 pi t /
    q_period); the target concentration ramps up, holds, and ramps back down
    over the run.  Every time, including q_period and the ramp breakpoints,
    is in steps.
    """

    def __init__(self, horizon=2400, q_offset=150.0, q_amplitude=100.0,
                 q_period=2400, cbar_initial=0.27, cbar_high=0.65, cbar_final=0.3,
                 ramp_end=900, plateau_end=1800):
        self.horizon = int(horizon)
        self.q_offset = float(q_offset)
        self.q_amplitude = float(q_amplitude)
        self.q_period = float(q_period)
        self.cbar_initial = float(cbar_initial)
        self.cbar_high = float(cbar_high)
        self.cbar_final = float(cbar_final)
        self.ramp_end = int(ramp_end)
        self.plateau_end = int(plateau_end)

    def weight(self, t):
        return self.q_offset - self.q_amplitude * math.sin(2.0 * math.pi * t / self.q_period)

    def target(self, t):
        if t < self.ramp_end:
            return self.cbar_initial + (self.cbar_high - self.cbar_initial) * t / self.ramp_end
        if t < self.plateau_end:
            return self.cbar_high
        span = self.horizon - self.plateau_end
        return self.cbar_high - (self.cbar_high - self.cbar_final) * (t - self.plateau_end) / span

    def stage_cost(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        c = x[..., 0]
        return self.weight(t) * (c - self.target(t)) ** 2 + u**2

    def stage_grad(self, t, x, u):
        """Gradients (d/dx, d/du) of the stage cost."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        gx = np.zeros_like(x)
        gx[..., 0] = 2.0 * self.weight(t) * (x[..., 0] - self.target(t))
        return gx, 2.0 * u


class MemoryCostSchedule:
    """Costs on (previous inputs, current input) for the register embedding.

    stage_cost(t, x, u) = weight (u - target_t)^2 + mean_j (u - x_j)^2 where
    x stacks the last p inputs; on the diagonal (constant input) the
    switching term vanishes, so the induced steady-state cost is just the
    tracking term.
    """

    def __init__(self, horizon=600, p=1, weight=4.0, target_amplitude=0.6,
                 target_period=240.0, switch_weight=1.0):
        self.horizon = int(horizon)
        self.p = int(p)
        self.weight = float(weight)
        self.target_amplitude = float(target_amplitude)
        self.target_period = float(target_period)
        self.switch_weight = float(switch_weight)

    def target(self, t):
        if isinstance(t, np.ndarray):  # one index per lane
            return np.array([self.target(i) for i in t.tolist()])
        return self.target_amplitude * math.sin(2.0 * math.pi * t / self.target_period)

    def stage_cost(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        track = self.weight * (u - self.target(t)) ** 2
        switch = self.switch_weight * np.mean((u[..., None] - x) ** 2, axis=-1)
        return track + switch

    def stage_grad(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        gx = -2.0 * self.switch_weight * (u[..., None] - x) / x.shape[-1]
        gu = 2.0 * self.weight * (u - self.target(t)) + 2.0 * self.switch_weight * np.mean(
            u[..., None] - x, axis=-1
        )
        return gx, gu


class AdversarialCostSchedule:
    """Costs chosen after each reference commit: squared distance to its steady pair.

    The runner appends (h(r_t), g(h(r_t), r_t)) once r_t is committed; the
    induced steady-state cost then vanishes exactly at v = r_t.
    """

    def __init__(self, horizon):
        self.horizon = int(horizon)
        self._h_r = []
        self._u_r = []

    def commit(self, h_r, u_r):
        self._h_r.append(np.asarray(h_r, dtype=float))
        self._u_r.append(float(u_r))

    def stage_cost(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        dx = x - self._h_r[t]
        return np.sum(dx * dx, axis=-1) + (u - self._u_r[t]) ** 2


class SteadyStateCost:
    """Induced cost of holding reference v: stage cost at (h(v), g(h(v), v)).

    A reactor cost on a controller with a plain-float twin evaluates a float
    v, and each lane of an int array t, by ``cstr_equilibrium`` on the
    twin's ``params`` with math.exp, bypassing the array machinery (the
    per-step line searches make tens of such calls each); the result agrees
    with the array path to round-off.  Each entry of a lane call equals the
    scalar call at that index.
    """

    def __init__(self, schedule, ctrl):
        self.schedule = schedule
        self.ctrl = ctrl
        twin = ctrl.scalar_schedule if isinstance(schedule, CstrCostSchedule) else None
        self._params = twin.params if twin is not None else None

    @property
    def window(self):
        return self.ctrl.ss.window

    def eval(self, t, v):
        if self._params is not None:
            if isinstance(t, np.ndarray):
                return np.array([self._float_eval(i, w)
                                 for i, w in zip(t.tolist(), np.asarray(v).tolist())])
            if np.ndim(v) == 0:
                return self._float_eval(t, float(v))
        v = np.asarray(v, dtype=float)
        return self.schedule.stage_cost(t, self.ctrl.ss.h(v), self.ctrl.ss.u_ss(v))

    def _float_eval(self, t, v):
        c, u = cstr_equilibrium(v, self._params, math.exp)
        diff = c - self.schedule.target(t)
        return self.schedule.weight(t) * diff * diff + u * u

    def scan(self, t, points):
        """The window's uniform grid of ``points`` and the cost at index t on it."""
        grid, h, u = self.ctrl.ss.on_grid(points)
        return grid, self.schedule.stage_cost(t, h, u)

    def grad(self, t, v):
        """Reference derivative via the chain rule through h and u_ss."""
        if self._params is not None and np.ndim(v) == 0:
            c, u, dc, du = cstr_equilibrium(float(v), self._params, math.exp, 2)
            return (2.0 * self.schedule.weight(t) * (c - self.schedule.target(t)) * dc
                    + 2.0 * u * du)
        v = np.asarray(v, dtype=float)
        h_v = self.ctrl.ss.h(v)
        u_v = self.ctrl.ss.u_ss(v)
        gx, gu = self.schedule.stage_grad(t, h_v, u_v)
        return np.sum(gx * self.ctrl.ss.dh(v), axis=-1) + gu * self.ctrl.ss.du_ss(v)

    def optimum(self, t):
        """Minimizing reference at index t (``benchmark_reference``)."""
        return benchmark_reference(self, t)


class InstrumentedCost:
    """Causality-logging view of a steady-state cost for the online algorithms.

    ``now`` is the step currently being decided; every (now, index) access
    is recorded so tests can assert that no algorithm peeks at index >= now.
    A call with an index array records one access per index.  ``eta``, when
    given, holds the cost's optimum at every index (the run computes it
    before step 0), and ``optimum`` reads it instead of searching again.
    """

    def __init__(self, cost: SteadyStateCost, eta=None):
        self._cost = cost
        self._eta = eta
        self.now = 0
        self.accesses = []

    @property
    def window(self):
        return self._cost.window

    def _log(self, t):
        if isinstance(t, np.ndarray):
            self.accesses.extend((self.now, i) for i in t.tolist())
        else:
            self.accesses.append((self.now, t))

    def eval(self, t, v):
        self._log(t)
        return self._cost.eval(t, v)

    def grad(self, t, v):
        self._log(t)
        return self._cost.grad(t, v)

    def scan(self, t, points):
        self._log(t)
        return self._cost.scan(t, points)

    def optimum(self, t):
        self._log(t)
        if self._eta is not None:
            return float(self._eta[t])
        return self._cost.optimum(t)


@dataclass
class OcoState:
    """Mutable state of the online reference update."""

    r_prev: float
    gamma: float = 2.5e-4
    grad_tol: float = 1e-9


def project_window(v, window):
    lo, hi = window
    return min(max(float(v), lo), hi)


def golden_search(a, b, tol=1e-10):
    """Golden-section minimization on [a, b] to interval width tol, as a generator.

    It yields the points to evaluate, receives each value by ``send`` and
    returns the midpoint of the final interval (as StopIteration.value).
    """
    c1 = b - GOLDEN * (b - a)
    c2 = a + GOLDEN * (b - a)
    f1 = yield c1
    f2 = yield c2
    while b - a > tol:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - GOLDEN * (b - a)
            f1 = yield c1
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + GOLDEN * (b - a)
            f2 = yield c2
    return 0.5 * (a + b)


def golden_section(f, a, b, tol=1e-10):
    """Golden-section minimization of f on [a, b] to interval width tol."""
    search = golden_search(a, b, tol)
    try:
        v = next(search)
        while True:
            v = search.send(f(v))
    except StopIteration as done:
        return done.value


def golden_lanes(f, a, b, tol=1e-10):
    """One golden-section search per lane on [a[k], b[k]], all advanced in lockstep.

    ``f(lanes, v)`` returns the values of the listed lanes' functions at the
    aligned points v, so each round makes one call; lanes leave as their
    searches finish.  Lane k's result equals golden_section on its own.
    """
    searches = [golden_search(lo, hi, tol) for lo, hi in zip(a.tolist(), b.tolist())]
    out = np.empty(len(searches))
    lanes = np.arange(len(searches))
    points = np.array([next(search) for search in searches])
    while lanes.size:
        going = []
        for k, (lane, value) in enumerate(zip(lanes.tolist(), f(lanes, points).tolist())):
            try:
                points[k] = searches[lane].send(value)
                going.append(k)
            except StopIteration as done:
                out[lane] = done.value
        lanes, points = lanes[going], points[going]
    return out


def _bracket(cost, t, points):
    """Grid cells around the smallest of ``points`` scanned cost values at index t."""
    grid, vals = cost.scan(t, points)
    i = int(np.argmin(vals))
    return grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]


def benchmark_reference(cost, t, grid_points=2001, tol=1e-10):
    """Optimal steady-state reference at index t, or at each index of an int array t.

    Dense uniform scan over the window followed by golden-section
    refinement of the bracketing cells; robust to the mild nonconvexity of
    the induced costs.  For an index array the scans run one index at a
    time and the refinements in lockstep (golden_lanes), with one cost call
    per round; every entry equals the scalar call at its index.
    """
    if np.ndim(t) == 0:
        a, b = _bracket(cost, t, grid_points)
        return golden_section(lambda v: float(cost.eval(t, v)), a, b, tol)
    t = np.asarray(t)
    out = np.empty(t.shape)
    for start in range(0, t.size, LANE_BLOCK):
        block = t[start:start + LANE_BLOCK]
        a, b = np.empty(block.shape), np.empty(block.shape)
        for k, i in enumerate(block.tolist()):
            a[k], b[k] = _bracket(cost, i, grid_points)
        out[start:start + block.size] = golden_lanes(
            lambda lanes, v, block=block: cost.eval(block[lanes], v), a, b, tol)
    return out


def ogd_step(state: OcoState, cost, t: int):
    """Projected gradient step from the most recently revealed cost.

    r_t = Pi_window(r_{t-1} - gamma * grad L^s_{t-1}(r_{t-1})).
    """
    if t < 1:
        raise ValueError("online update starts at t = 1; r_0 is the configured start")
    g = float(cost.grad(t - 1, state.r_prev))
    if not math.isfinite(g):
        raise FloatingPointError(f"non-finite steady-state cost gradient at t = {t - 1}")
    r = project_window(state.r_prev - state.gamma * g, cost.window)
    state.r_prev = r
    return r


def prev_opt_step(state: OcoState, cost, t: int):
    """Jump to the previous optimum: r_t = argmin of the last revealed cost."""
    if t < 1:
        raise ValueError("online update starts at t = 1; r_0 is the configured start")
    r = cost.optimum(t - 1)
    state.r_prev = r
    return r


@dataclass(frozen=True)
class QLinearConstants:
    """Regret/path-length constants for a q-linearly convergent online update.

    ``c_oco0`` and ``c_pl0`` multiply the initial gap; the variation
    coefficients ``c_oco_patched`` and ``c_pl_patched`` carry 1/(1-kappa)
    where the closed-form display has kappa/(1-kappa), since 1/(1-kappa) is
    what the derivation actually yields.
    """

    c_oco0: float
    c_pl0: float
    c_oco_patched: float
    c_pl_patched: float
    kappa: float


def q_linear_regret_constants(l_s, kappa) -> QLinearConstants:
    """Constants bounding regret and path length by the optimizer variation."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa = {kappa} must lie in [0, 1)")
    c_oco0 = l_s * (1.0 + kappa / (1.0 - kappa))
    c_oco_patched = l_s / (1.0 - kappa)
    factor = (1.0 + kappa) / l_s
    return QLinearConstants(
        c_oco0=c_oco0,
        c_pl0=factor * c_oco0,
        c_oco_patched=c_oco_patched,
        c_pl_patched=factor * c_oco_patched,
        kappa=kappa,
    )
