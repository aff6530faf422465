"""Closed-loop runner, regret accounting, and empirical constant estimation.

`run_closed_loop` executes the per-step order: online update proposes a
reference from revealed costs, the governor overwrites it with an
admissible one, the scheduled feedback produces the input, the plant steps.
Everything lands in a RegretLedger whose three sums (closed-loop regret,
online regret, reference path length) are accumulated with compensated
summation in a fixed order.

`estimate_certificate` fits the exponential envelope of the stabilized
loop on sampled safe states, builds the trajectory-sum Lyapunov function,
estimates Lipschitz constants on deterministic grids, and assembles the
regret-bound coefficients.  The averaging-horizon and governor-activity
constants are existence objects; their empirical stand-ins are flagged
best-effort and every check that depends on them is reported as diagnostic.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .governor import command_governor, initialize_governor, scalar_rg
from .oco import (
    AdversarialCostSchedule,
    CstrCostSchedule,
    InstrumentedCost,
    MemoryCostSchedule,
    OcoState,
    SteadyStateCost,
    benchmark_reference,
    ogd_step,
    prev_opt_step,
    q_linear_regret_constants,
)
from .plant import Plant, box_polytope, shift_register_plant
from .safeset import SafeSet, SliceNotIntervalError, variable_level_set
from .tracking import (
    ConverseLyapunov,
    StabilityEstimationError,
    TrackingController,
    build_converse_lyapunov,
    register_controller,
)

ORACLE_POINTS = 1_000_000  # uniform lattice of both governors' grid oracles


# ---------------------------------------------------------------------------
# compensated summation


class KahanSum:
    """Compensated accumulator; identical fold order gives identical bits."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t
        return self.s


def kahan_total(values):
    acc = KahanSum()
    for x in values:
        acc.add(float(x))
    return acc.s


# ---------------------------------------------------------------------------
# regret ledger


class RegretLedger:
    """Per-step records of a closed-loop run plus running regret sums.

    Each name in COLUMNS is one float per step, kept as a list attribute of
    that name; ``t``, ``x``, ``oco_ns`` and ``rg_ns`` are kept beside them.
    """

    COLUMNS = ("u", "r", "v", "eta", "beta", "L_stage", "Ls_r", "Ls_v", "Ls_eta",
               "V", "level", "margin_worst")

    def __init__(self, state_labels=("c", "theta")):
        self.state_labels = tuple(state_labels)
        self.t, self.x, self.oco_ns, self.rg_ns = [], [], [], []
        self._columns = tuple([] for _ in self.COLUMNS)
        for name, column in zip(self.COLUMNS, self._columns):
            setattr(self, name, column)
        self.violations = 0
        self.invariance_breaks = 0
        self._acc_stage = KahanSum()
        self._acc_ls_r = KahanSum()
        self._acc_ls_eta = KahanSum()
        self._acc_pl = KahanSum()

    def record(self, t, x, oco_ns=0, rg_ns=0, **values):
        """Append one step; ``values`` holds one float per name in COLUMNS."""
        row = [float(values[name]) for name in self.COLUMNS]
        if len(values) != len(row):
            raise TypeError(f"ledger columns are {self.COLUMNS}, got {sorted(values)}")
        self.t.append(int(t))
        self.x.append(np.asarray(x, dtype=float).copy())
        self.oco_ns.append(int(oco_ns))
        self.rg_ns.append(int(rg_ns))
        for column, value in zip(self._columns, row):
            column.append(value)
        self.violations += self.margin_worst[-1] < 0.0
        self.invariance_breaks += self.V[-1] > self.level[-1]
        self._acc_stage.add(self.L_stage[-1])
        self._acc_ls_r.add(self.Ls_r[-1])
        self._acc_ls_eta.add(self.Ls_eta[-1])
        if len(self.r) > 1:
            self._acc_pl.add(abs(self.r[-1] - self.r[-2]))

    @property
    def steps(self):
        return len(self.t)

    @property
    def regret(self):
        """Closed-loop dynamic regret: stage costs minus optimal steady costs."""
        return self._acc_stage.s - self._acc_ls_eta.s

    @property
    def regret_oco(self):
        """Online regret of the reference sequence against the optima."""
        return self._acc_ls_r.s - self._acc_ls_eta.s

    @property
    def path_length(self):
        return self._acc_pl.s

    def recompute_sums(self):
        """Re-fold the stored records in the canonical order."""
        pl = kahan_total(abs(b - a) for a, b in zip(self.r[:-1], self.r[1:]))
        return {
            "regret": kahan_total(self.L_stage) - kahan_total(self.Ls_eta),
            "regret_oco": kahan_total(self.Ls_r) - kahan_total(self.Ls_eta),
            "path_length": pl,
        }

    def arrays(self):
        out = {"t": np.array(self.t, dtype=int), "x": np.array(self.x, dtype=float)}
        for name, column in zip(self.COLUMNS, self._columns):
            out[name] = np.array(column, dtype=float)
        return out

    def to_csv(self, path):
        """Trajectory table, full double precision, one row per step."""
        lines = ["t," + ",".join(self.state_labels + self.COLUMNS)]
        for i in range(self.steps):
            vals = list(self.x[i]) + [column[i] for column in self._columns]
            lines.append(str(self.t[i]) + "," + ",".join(format(v, ".17g") for v in vals))
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return path


class RunError(RuntimeError):
    """A closed-loop run aborted; carries the step index and state snapshot."""

    def __init__(self, step, x, message):
        super().__init__(f"run aborted at step {step}: {message}")
        self.step = step
        self.x = np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# closed loop


def run_closed_loop(plant: Plant, ctrl: TrackingController, safe_set: SafeSet,
                    governor_kind: str, oco_kind: str, schedule, T: int,
                    r0: float, x0=None, gamma=2.5e-4, grad_tol=1e-9):
    """Run the full loop for T steps and return the ledger.

    Per step: the online update proposes r_t from costs up to t-1 (r_0 is
    the configured start), the governor produces an admissible v_t, the
    feedback u_t = g(x_t, v_t) is applied, and the per-step optimal
    reference eta_t is recorded for the regret benchmark.  eta depends on
    the cost schedule alone, so it is computed for all T indices before
    step 0; the online update's view of the costs holds it, so
    ``prev_opt_step`` reads eta_{t-1} with one logged access.
    """
    if governor_kind not in ("scalar", "command"):
        raise ValueError(f"unknown governor kind {governor_kind!r}")
    if oco_kind not in ("ogd", "prev_opt"):
        raise ValueError(f"unknown online-update kind {oco_kind!r}")
    x = np.asarray(plant.x0 if x0 is None else x0, dtype=float)
    v = initialize_governor(x, r0, safe_set)
    oco_state = OcoState(r_prev=float(r0), gamma=gamma, grad_tol=grad_tol)
    ss_cost = SteadyStateCost(schedule, ctrl)
    etas = np.broadcast_to(benchmark_reference(ss_cost, np.arange(T)), (T,))
    revealed = InstrumentedCost(ss_cost, etas)
    labels = ("c", "theta") if plant.n == 2 and plant.name == "cstr" else tuple(
        f"x{i}" for i in range(plant.n)
    )
    ledger = RegretLedger(state_labels=labels)
    poly = safe_set.poly
    step_fn = ogd_step if oco_kind == "ogd" else prev_opt_step
    for t in range(T):
        try:
            revealed.now = t
            t0 = time.perf_counter_ns()
            r = float(r0) if t == 0 else step_fn(oco_state, revealed, t)
            t1 = time.perf_counter_ns()
            if governor_kind == "scalar":
                v, beta = scalar_rg(x, r, v, safe_set)
            else:
                v, beta = command_governor(x, r, safe_set), math.nan
            t2 = time.perf_counter_ns()
            u = float(ctrl.feedback(x, v))
            eta = etas[t]
            ledger.record(
                t=t, x=x, u=u, r=r, v=v, eta=eta, beta=beta,
                L_stage=float(schedule.stage_cost(t, x, u)),
                Ls_r=float(ss_cost.eval(t, r)),
                Ls_v=float(ss_cost.eval(t, v)),
                Ls_eta=float(ss_cost.eval(t, eta)),
                V=float(ctrl.lyapunov(x, v)),
                level=float(safe_set.level(v)),
                margin_worst=float(poly.worst_raw_margin(x, u)),
                oco_ns=t1 - t0, rg_ns=t2 - t1,
            )
            x = plant.step(x, u)
        except Exception as exc:
            raise RunError(t, x, str(exc)) from exc
    ledger.causality_log = tuple(revealed.accesses)
    return ledger


# ---------------------------------------------------------------------------
# sampling and Lipschitz estimation


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling plan for certificate estimation."""

    n_samples: int = 1000
    seed: int = 12345
    horizon: int | None = None
    extra_states: tuple | None = None  # (x array (k, n), v array (k,))


def sample_safe_states(safe_set: SafeSet, n, rng):
    """n states drawn uniformly inside the level ellipsoids (v uniform).

    Falls back to a window-sized box around h(v) when the level is
    unbounded (register-style sets with input-only constraints).
    """
    lo, hi = safe_set.window
    v = rng.uniform(lo, hi, n)
    ctrl = safe_set.ctrl
    h_v = ctrl.ss.h(v)
    nst = h_v.shape[-1]
    lev = np.asarray(safe_set.level(v), dtype=float)
    if not np.all(np.isfinite(lev)):
        half = 0.5 * (hi - lo)
        return h_v + rng.uniform(-half, half, size=(n, nst)), v
    P = ctrl.lyap_weight(v)
    evals, evecs = np.linalg.eigh(P)
    inv_half = np.einsum("...ij,...j,...kj->...ik", evecs, 1.0 / np.sqrt(evals), evecs)
    direction = rng.normal(size=(n, nst))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    radius = rng.uniform(0.0, 1.0, n) ** (1.0 / nst)
    ball = direction * radius[:, None]
    x = h_v + np.sqrt(lev)[:, None] * np.einsum("...ij,...j->...i", inv_half, ball)
    return x, v


def max_difference_quotient(values, points, chunk=512):
    """max over pairs of ||f(p_i) - f(p_j)|| / ||p_i - p_j|| on a grid."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    best = 0.0
    for start in range(0, n, chunk):
        p = points[start : start + chunk]
        f = values[start : start + chunk]
        dp = np.linalg.norm(p[:, None, :] - points[None, :, :], axis=-1)
        df = np.linalg.norm(f[:, None, :] - values[None, :, :], axis=-1)
        mask = dp > 1e-14
        q = np.where(mask, df / np.where(mask, dp, 1.0), 0.0)
        best = max(best, float(q.max()))
    return best


def safe_state_box(safe_set: SafeSet, grid_points=181):
    """Axis-aligned bounding box of the level ellipsoids, clipped to finiteness."""
    ctrl = safe_set.ctrl
    vgrid = ctrl.ss.grid(grid_points)
    lev = np.asarray(safe_set.level(vgrid), dtype=float)
    h_v = ctrl.ss.h(vgrid)
    lo, hi = safe_set.window
    if not np.all(np.isfinite(lev)):
        half = 0.5 * (hi - lo)
        return [(float(h_v[:, i].min() - half), float(h_v[:, i].max() + half))
                for i in range(h_v.shape[-1])]
    P_inv = np.linalg.inv(ctrl.lyap_weight(vgrid))
    widths = np.sqrt(lev[:, None] * np.einsum("...ii->...i", P_inv))
    lo_box = (h_v - widths).min(axis=0)
    hi_box = (h_v + widths).max(axis=0)
    return [(float(a), float(b)) for a, b in zip(lo_box, hi_box)]


def estimate_system_lipschitz(ctrl: TrackingController, x_box, x_pts=7, v_pts=13):
    """Grid estimates of the closed-loop, feedback, and steady-map constants."""
    lo, hi = ctrl.ss.window
    axes = [np.linspace(a, b, x_pts) for a, b in x_box]
    axes.append(np.linspace(lo, hi, v_pts))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    xs = pts[:, :-1]
    vs = pts[:, -1]
    f_vals = ctrl.closed_loop(xs, vs)
    g_vals = ctrl.feedback(xs, vs)
    l_f = max_difference_quotient(f_vals, pts)
    l_g = max_difference_quotient(g_vals, pts)
    vgrid = np.linspace(lo, hi, 200)
    l_h = max_difference_quotient(ctrl.ss.h(vgrid), vgrid)
    return l_f, l_g, l_h


def estimate_cost_lipschitz(schedule, poly, t_samples, grid_pts=15):
    """Largest stage-cost gradient norm over the constraint box and sampled steps."""
    x_bounds = []
    for i in range(poly.Ax.shape[1]):
        col = poly.Ax[:, i]
        hi = poly.b[col > 0] / col[col > 0]
        lo = -poly.b[col < 0] / -col[col < 0]
        x_bounds.append((float(lo.max()) if lo.size else -1.0,
                         float(hi.min()) if hi.size else 1.0))
    u_col = poly.Au[:, 0]
    u_hi = poly.b[u_col > 0] / u_col[u_col > 0]
    u_lo = -poly.b[u_col < 0] / -u_col[u_col < 0]
    axes = [np.linspace(a, b, grid_pts) for a, b in x_bounds]
    axes.append(np.linspace(float(u_lo.max()) if u_lo.size else -1.0,
                            float(u_hi.min()) if u_hi.size else 1.0, grid_pts))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    xs, us = pts[:, :-1], pts[:, -1]
    best = 0.0
    for t in t_samples:
        gx, gu = schedule.stage_grad(int(t), xs, us)
        norms = np.sqrt(np.sum(gx * gx, axis=-1) + gu * gu)
        best = max(best, float(norms.max()))
    return best


def estimate_induced_cost_lipschitz(ss_cost: SteadyStateCost, t_samples, v_pts=400):
    """Max adjacent difference quotient of the induced cost over the window."""
    lo, hi = ss_cost.window
    vgrid = np.linspace(lo, hi, v_pts)
    best = 0.0
    for t in t_samples:
        vals = np.asarray(ss_cost.eval(int(t), vgrid))
        q = np.abs(np.diff(vals)) / np.diff(vgrid)
        best = max(best, float(q.max()))
    return best


# ---------------------------------------------------------------------------
# exponential envelope and certificate


def fit_exponential_envelope(ctrl: TrackingController, x, v, horizon):
    """Tightest (c_phi, lam) with ||Phi(., ., t) - h(v)|| <= c_phi lam^t from every suffix.

    lam is the worst long-range geometric rate over suffix pairs (gaps of at
    least a third of the horizon); c_phi then covers every pair, so short
    transient overshoot lands in the gain rather than the rate.
    """
    x = np.asarray(x, dtype=float)
    h_v = ctrl.ss.h(v)
    E = np.empty((x.shape[0], horizon + 1))
    cur = x
    E[:, 0] = np.linalg.norm(cur - h_v, axis=-1)
    for t in range(horizon):
        cur = ctrl.closed_loop(cur, v)
        E[:, t + 1] = np.linalg.norm(cur - h_v, axis=-1)
    starts = range(0, horizon, max(1, horizon // 40))
    t_min = max(1, horizon // 3)
    scale = max(float(E[:, 0].max()), 1e-300)
    floor_rate = 1e-6 * scale   # geometric rates amplify round-off
    floor_gain = 1e-12 * scale  # gains only need both sides above the noise

    def worst_rate(gap_lo):
        best, trusted_any = 0.0, False
        for s in starts:
            e_s = E[:, s]
            ok = e_s > floor_rate
            gaps = np.arange(gap_lo, horizon - s + 1)
            if not ok.any() or gaps.size == 0:
                continue
            tail = E[np.ix_(ok, s + gaps)]
            trusted = tail > floor_rate
            if trusted.any():
                trusted_any = True
                rates = np.where(trusted, tail / e_s[ok, None], 0.0) ** (1.0 / gaps)
                best = max(best, float(rates.max()))
        return best, trusted_any

    lam, informative = worst_rate(t_min)
    if not informative:
        # decay hit the round-off floor before the long-gap band: fall back
        # to short gaps (conservative for overshooting transients)
        lam, informative = worst_rate(1)
        if informative and (E[:, 1:] == 0.0).any(axis=1).all():
            # deadbeat after more than one step (shift register, p >= 2):
            # short-gap ratios carry no rate, so fix it at 1/2 and let the
            # gain cover the transient
            lam = 0.5
    if lam >= 1.0:
        raise StabilityEstimationError(
            f"fitted envelope rate {lam:.6f} >= 1; closed loop not contractive on samples"
        )
    if not informative or lam == 0.0:
        if np.any(E[:, 1:] > floor_rate):
            raise StabilityEstimationError("zero rate fitted but trajectories do not vanish")
        return 1.0, 0.0
    c_phi = 1.0
    for s in starts:
        e_s = E[:, s]
        ok = e_s > floor_gain
        if not ok.any():
            continue
        gaps = np.arange(1, horizon - s + 1)
        if gaps.size == 0:
            continue
        denom = e_s[ok, None] * lam ** gaps[None, :]
        ratios = np.where(denom > floor_gain, E[np.ix_(ok, s + gaps)] / np.where(
            denom > floor_gain, denom, 1.0), 0.0)
        c_phi = max(c_phi, float(ratios.max()))
    return c_phi, lam


class RhoEnvelope:
    """Empirical lower envelope of governor contraction versus move size.

    Built from probe instances of the scalar governor: realized contraction
    fraction beta against the admissible move size alpha.  Bin minima are
    made nondecreasing (running minimum from the right); below the first
    populated bin the envelope scales linearly to zero.  When no probe
    activated the governor, falls back to min(1, a / span).
    """

    def __init__(self, alphas, rhos, span, bins=24):
        self.span = float(span)
        alphas = np.asarray(alphas, dtype=float)
        rhos = np.asarray(rhos, dtype=float)
        keep = (alphas > 0) & np.isfinite(alphas) & np.isfinite(rhos)
        self.empirical = bool(keep.sum() >= 5)
        if not self.empirical:
            self.bin_edges = None
            return
        a, r = alphas[keep], rhos[keep]
        edges = np.linspace(0.0, max(a.max(), 1e-12), bins + 1)
        mins = np.full(bins, np.nan)
        idx = np.clip(np.digitize(a, edges) - 1, 0, bins - 1)
        for b in range(bins):
            sel = idx == b
            if sel.any():
                mins[b] = r[sel].min()
        filled = ~np.isnan(mins)
        mins_rightmin = mins.copy()
        run = np.inf
        for b in range(bins - 1, -1, -1):
            if filled[b]:
                run = min(run, mins[b])
                mins_rightmin[b] = run
        self.bin_edges = edges
        self.bin_mins = mins_rightmin
        self.filled = filled

    def __call__(self, a):
        a = float(a)
        if a <= 0.0:
            return 0.0
        if not self.empirical:
            return min(1.0, a / self.span)
        first = int(np.argmax(self.filled))
        b = int(np.clip(np.digitize(a, self.bin_edges) - 1, 0, len(self.bin_mins) - 1))
        if b < first or not self.filled[: b + 1].any():
            anchor = self.bin_edges[first + 1]
            return float(self.bin_mins[first]) * min(1.0, a / anchor)
        while b >= 0 and not self.filled[b]:
            b -= 1
        return float(min(1.0, self.bin_mins[b]))


def probe_governor_contraction(safe_set: SafeSet, n_probes, rng):
    """Probe the scalar governor on random safe instances; returns (alphas, betas)."""
    x, v_prev = sample_safe_states(safe_set, n_probes, rng)
    lo, hi = safe_set.window
    r = rng.uniform(lo, hi, n_probes)
    alphas, betas = [], []
    for i in range(n_probes):
        v, beta = scalar_rg(x[i], float(r[i]), float(v_prev[i]), safe_set)
        if beta < 1.0:
            alphas.append(abs(v - v_prev[i]))
            betas.append(beta)
    return np.array(alphas), np.array(betas)


def geometric_tail_sum(ratio, count):
    """sum_{k=1}^{count} ratio^k, overflow-safe (returns inf past float range)."""
    if count <= 0:
        return 0.0
    if ratio == 1.0:
        return float(count)
    log_top = (count + 1) * math.log(ratio) if ratio > 0 else -math.inf
    if ratio > 1.0 and log_top > 709.0:
        return math.inf
    return ratio * (ratio**count - 1.0) / (ratio - 1.0)


def path_length_coefficient(l_s, l, l_g, l_V, lam1, lam_tilde, window_M, epsilon):
    """Coefficient multiplying the reference path length in the regret bound."""
    return l_s * window_M / epsilon + l * (1.0 + l_g) * l_V * (
        2.0 * window_M + epsilon
    ) / (epsilon * lam1 * (1.0 - lam_tilde))


@dataclass(frozen=True)
class Certificate:
    """Empirical constants instantiating the regret-bound formulas."""

    l: float
    l_f: float
    l_g: float
    l_h: float
    l_s: float
    l_s_bound: float
    c_phi: float
    lam: float
    N: int
    lam1: float
    lam2: float
    lam3: float
    lam_tilde: float
    l_V: float
    V_bar: float
    d_window: float
    delta: float
    mu: float
    window_M: int
    epsilon: float
    best_effort: bool
    quad_decay: float
    c_lambda: float
    c_eps: float
    c0_coeff: float
    c_pl: float
    kappa_ogd: float | None
    notes: tuple
    converse: ConverseLyapunov = field(repr=False, compare=False, default=None)

    def c0(self, x0, v0, eta0, ctrl):
        """Initial-condition offset of the regret bound for one run."""
        gap_x = float(np.linalg.norm(np.asarray(x0, dtype=float) - ctrl.ss.h(eta0)))
        return self.c0_coeff * (gap_x + self.l_h * abs(float(v0) - float(eta0)))

    def as_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "converse"}
        out["notes"] = list(self.notes)
        return out


def estimate_ogd_kappa(ctrl: TrackingController, schedule: CstrCostSchedule, gamma,
                       grid=20, r_points=25):
    """Worst one-step contraction of projected gradient descent on frozen costs.

    The frozen costs span the schedule's ranges: weights q_offset +-
    q_amplitude and targets between the smallest and largest of cbar_initial,
    cbar_high and cbar_final.
    """
    lo, hi = ctrl.ss.window
    q_mid, q_amp = schedule.q_offset, schedule.q_amplitude
    cbars = (schedule.cbar_initial, schedule.cbar_high, schedule.cbar_final)
    worst = 0.0
    for q in np.linspace(q_mid - q_amp, q_mid + q_amp, grid):
        for cb in np.linspace(min(cbars), max(cbars), grid):
            sched = CstrCostSchedule(horizon=1, q_offset=float(q), q_amplitude=0.0,
                                     cbar_initial=float(cb), cbar_high=float(cb),
                                     cbar_final=float(cb))
            cost = SteadyStateCost(sched, ctrl)
            eta = benchmark_reference(cost, 0)
            for r in np.linspace(lo, hi, r_points):
                gap = abs(r - eta)
                if gap < 1e-8:
                    continue
                r_next = min(max(r - gamma * float(cost.grad(0, r)), lo), hi)
                worst = max(worst, abs(r_next - eta) / gap)
    return worst


def estimate_certificate(plant: Plant, ctrl: TrackingController, safe_set: SafeSet,
                         schedule, plan: SamplingPlan | None = None,
                         gamma=2.5e-4) -> Certificate:
    """Fit the envelope and assemble every regret-bound constant.

    ``gamma`` is the step size of the online gradient update whose one-step
    contraction ``kappa_ogd`` is estimated (reactor cost schedules only).

    The exponential envelope is fitted over constant-reference rollouts from
    sampled safe states (plus any caller-harvested trajectory states); all
    derived constants follow their closed-form expressions.  The averaging
    horizon and governor-activity constants are computed from the empirical
    contraction envelope of the governor and flagged best-effort.
    """
    plan = plan or SamplingPlan()
    rng = np.random.default_rng(plan.seed)
    notes = []
    x, v = sample_safe_states(safe_set, plan.n_samples, rng)
    if plan.extra_states is not None:
        ex, ev = plan.extra_states
        x = np.concatenate([x, np.asarray(ex, dtype=float)], axis=0)
        v = np.concatenate([v, np.asarray(ev, dtype=float)], axis=0)

    horizon = plan.horizon or 600
    for _ in range(6):
        c_phi, lam = fit_exponential_envelope(ctrl, x, v, horizon)
        converse = build_converse_lyapunov(ctrl, c_phi, lam)
        if converse.N + 1 <= horizon or plan.horizon is not None:
            break
        horizon = min(converse.N + 50, 20000)
    N = converse.N
    lam1, lam2, lam3 = converse.lam1, converse.lam2, converse.lam3
    lam_tilde = 1.0 - lam3 / lam2

    x_box = safe_state_box(safe_set)
    l_f, l_g, l_h = estimate_system_lipschitz(ctrl, x_box)
    t_samples = np.unique(np.linspace(0, max(schedule.horizon - 1, 0), 25).astype(int))
    l = estimate_cost_lipschitz(schedule, safe_set.poly, t_samples)
    ss_cost = SteadyStateCost(schedule, ctrl)
    l_s = estimate_induced_cost_lipschitz(ss_cost, t_samples)
    l_s_bound = l * (l_h + l_g + l_g * l_h)

    l_V = N * l_h + (N - 1) * geometric_tail_sum(l_f, N - 1)
    lo, hi = safe_set.window
    d_window = hi - lo
    vgrid = ctrl.ss.grid(181)
    lam_bar = lam2 * float(np.max(np.linalg.norm(plant.x0 - ctrl.ss.h(vgrid), axis=-1)))
    V_bar = lam_bar + l_V * d_window / (1.0 - lam_tilde) if lam_tilde < 1.0 else math.inf

    delta = safe_set.certificate.delta
    mu = lam1 * delta if math.isfinite(delta) else lam1 * d_window
    if not math.isfinite(delta):
        notes.append("unbounded level: mu capped at the window diameter")

    # worst quadratic one-step growth on sampled states
    V0 = np.asarray(ctrl.lyapunov(x, v), dtype=float)
    V1 = np.asarray(ctrl.lyapunov(ctrl.closed_loop(x, v), v), dtype=float)
    ok = V0 > 1e-300
    quad_decay = 1.0 - float((V1[ok] / V0[ok]).max()) if ok.any() else 1.0

    # averaging horizon and governor-activity floor (best effort)
    target = lam1 * mu / (4.0 * lam2)
    if lam_tilde <= 0.0:
        window_M = 1
    elif V_bar <= target:
        window_M = 1
    elif math.isinf(V_bar):
        window_M = 10**9
        notes.append("V_bar overflowed; averaging horizon capped")
    else:
        window_M = max(1, int(math.ceil(math.log(target / V_bar) / math.log(lam_tilde))))
    alphas, betas = probe_governor_contraction(safe_set, 400, rng)
    rho_env = RhoEnvelope(alphas, betas, span=d_window)
    if not rho_env.empirical:
        notes.append("governor never active on probes; linear contraction fallback")
    arg1 = lam1 * mu / (4.0 * lam2 * l_V * window_M) if l_V > 0 and math.isfinite(l_V) else 0.0
    arg2 = mu / (2.0 * lam2 * l_h)
    epsilon = min(rho_env(arg1) if arg1 > 0 else rho_env(arg2), rho_env(arg2))
    epsilon = min(1.0, max(epsilon, 1e-300))
    best_effort = True
    notes.append("averaging horizon and activity floor are empirical stand-ins")

    c_lambda = lam2 / (lam1 * (1.0 - lam_tilde))
    c_eps = (2.0 * window_M + epsilon) / epsilon
    c0_coeff = l * (1.0 + l_g) * c_lambda
    c_pl = path_length_coefficient(l_s, l, l_g, l_V, lam1, lam_tilde, window_M, epsilon)

    kappa_ogd = None
    if isinstance(schedule, CstrCostSchedule):
        kappa_ogd = estimate_ogd_kappa(ctrl, schedule, gamma=gamma)

    return Certificate(
        l=l, l_f=l_f, l_g=l_g, l_h=l_h, l_s=l_s, l_s_bound=l_s_bound,
        c_phi=c_phi, lam=lam, N=N, lam1=lam1, lam2=lam2, lam3=lam3,
        lam_tilde=lam_tilde, l_V=l_V, V_bar=V_bar, d_window=d_window,
        delta=delta, mu=mu, window_M=window_M, epsilon=epsilon,
        best_effort=best_effort, quad_decay=quad_decay, c_lambda=c_lambda,
        c_eps=c_eps, c0_coeff=c0_coeff, c_pl=c_pl, kappa_ogd=kappa_ogd,
        notes=tuple(notes), converse=converse,
    )


# ---------------------------------------------------------------------------
# bound verification and diagnostics


def verify_regret_bound(ledger: RegretLedger, cert: Certificate, ctrl: TrackingController):
    """Evaluate the framework regret bound on one run.

    Compares the realized regret against c_0 + online regret + c_PL * path
    length with the certificate's constants; a failure with best-effort
    constants is reported as diagnostic, not as a violation.
    """
    arr = ledger.arrays()
    c0 = cert.c0(arr["x"][0], arr["v"][0], arr["eta"][0], ctrl)
    lhs = ledger.regret
    rhs = c0 + ledger.regret_oco + cert.c_pl * ledger.path_length
    holds = bool(lhs <= rhs + 1e-9)
    return {
        "lhs_regret": lhs,
        "rhs_bound": rhs,
        "c0": c0,
        "holds": holds,
        "margin": rhs - lhs,
        "status": "holds" if holds else ("diagnostic" if cert.best_effort else "violation"),
        "diagnostic_constants": cert.best_effort,
    }


def verify_q_linear_regret(ledger: RegretLedger, cert: Certificate,
                           ctrl: TrackingController, kappa: float):
    """Plug-in checks for q-linearly convergent online updates.

    Evaluates the online-regret bound with the patched variation
    coefficient 1/(1-kappa), and the full closed-loop bound assembled from
    the path-length constants.
    """
    arr = ledger.arrays()
    eta = arr["eta"]
    variation = kahan_total(np.abs(np.diff(eta)))
    gap0 = abs(arr["r"][0] - eta[0])
    consts = q_linear_regret_constants(cert.l_s, kappa)
    oco_rhs = cert.l_s * gap0 + variation / (1.0 - kappa)
    oco_holds = bool(ledger.regret_oco <= oco_rhs + 1e-9)
    c0 = cert.c0(arr["x"][0], arr["v"][0], eta[0], ctrl)
    full_rhs = (
        c0
        + (consts.c_oco0 + cert.c_pl * consts.c_pl0) * gap0
        + (consts.c_oco_patched + cert.c_pl * consts.c_pl_patched) * variation
    )
    full_holds = bool(ledger.regret <= full_rhs + 1e-9)
    return {
        "variation": variation,
        "initial_gap": gap0,
        "oco_rhs": oco_rhs,
        "oco_holds": oco_holds,
        "full_rhs": full_rhs,
        "full_holds": full_holds,
        "diagnostic_constants": cert.best_effort,
    }


def lyapunov_window_diagnostics(ledger: RegretLedger, cert: Certificate,
                                max_gap=50, slack=1e-9):
    """Window recursion and uniform-bound checks along a run.

    Verifies V(x_t2, v_t2) <= lam_tilde^(t2-t1) V(x_t1, v_t1) + l_V *
    sum_i ||v_i - v_{i-1}|| lam_tilde^(t2-i) for every window of length at
    most max_gap, plus the uniform bound V <= V_bar, using the
    trajectory-sum Lyapunov function.
    """
    arr = ledger.arrays()
    x, v = arr["x"], arr["v"]
    Vt = np.asarray(cert.converse.evaluate(x, v), dtype=float)
    dv = np.abs(np.diff(v))
    lam_t = cert.lam_tilde
    T = len(v)
    worst = math.inf
    failures = []
    D = np.zeros(T)  # D[t2] = sum_{i=t2-g+1..t2} dv_i lam^(t2-i) for current g
    for g in range(1, min(max_gap, T - 1) + 1):
        contrib = np.zeros(T)
        contrib[g:] = dv[: T - g] * lam_t ** (g - 1)
        D = D + contrib
        lhs = Vt[g:]
        with np.errstate(invalid="ignore"):
            tail = np.where(D[g:] > 0.0, cert.l_V * D[g:], 0.0)
        rhs = lam_t**g * Vt[:-g] + tail
        margin = rhs - lhs
        worst = min(worst, float(np.min(margin)))
        bad = np.flatnonzero(margin < -slack)
        for i in bad[:3]:
            failures.append({"tau1": int(i), "tau2": int(i + g), "deficit": float(-margin[i])})
    vbar_ok = bool(np.max(Vt) <= cert.V_bar + slack)
    return {
        "recursion_holds": not failures,
        "worst_margin": worst,
        "failures": failures,
        "vbar_holds": vbar_ok,
        "v_max_seen": float(np.max(Vt)),
        "V_bar": cert.V_bar,
    }


# ---------------------------------------------------------------------------
# adversarial construction and memory reduction


def adversarial_lower_bound(plant: Plant, ctrl: TrackingController, T: int, x0=None,
                            reference_path=None):
    """Run the post-commitment cost construction and return both regrets.

    After each reference commit the stage cost becomes the squared distance
    to that reference's steady pair, so the induced steady-state cost of the
    committed reference is exactly zero and the closed-loop regret dominates
    the online regret by the accumulated stage costs.  References follow
    ``reference_path``, a sinusoid by default: a causal update stays at r_0.
    """
    lo, hi = ctrl.ss.window
    sched = AdversarialCostSchedule(T)
    ss_cost = SteadyStateCost(sched, ctrl)
    x = np.asarray(plant.x0 if x0 is None else x0, dtype=float)
    if reference_path is None:
        mid, amp = 0.5 * (lo + hi), 0.25 * (hi - lo)
        reference_path = [mid + amp * math.sin(2.0 * math.pi * t / max(T, 1)) for t in range(T)]
    acc_stage = KahanSum()
    acc_oco = KahanSum()
    rs = []
    for t in range(T):
        r = float(reference_path[t])
        rs.append(r)
        h_r = ctrl.ss.h(r)
        u_r = float(ctrl.ss.u_ss(r))
        sched.commit(h_r, u_r)  # cost for step t fixed only now
        u = float(ctrl.feedback(x, r))
        acc_stage.add(float(sched.stage_cost(t, x, u)))
        acc_oco.add(float(ss_cost.eval(t, r)))  # zero by construction
        x = plant.step(x, u)
    regret = acc_stage.s  # optimal steady cost is zero at eta_t = r_t
    return {
        "regret": regret,
        "regret_oco": acc_oco.s,
        "references": np.array(rs),
        "gap": regret - acc_oco.s,
    }


def run_memory_reduction(schedule: MemoryCostSchedule, oco_kind: str, T: int,
                         p=1, u_lo=-1.0, u_hi=1.0, r0=0.0, seed=12345, gamma=2.5e-4):
    """Embed a memory-cost problem in the framework via the shift register.

    Constraints act on the input only, so the per-reference level is
    unbounded, the governor passes references through, and u_t = r_t as the
    reduction prescribes.  The reference window is the input box shrunk to
    90%.  ``gamma`` is the step size of the online gradient update.  Returns
    the ledger, the register certificate, and the regret-bound evaluation.
    """
    plant = shift_register_plant(p, x0=np.full(p, r0))
    ctrl = register_controller(plant, u_lo * 0.9, u_hi * 0.9)
    poly = box_polytope([(None, None)] * p, [(u_lo, u_hi)])
    safe_set = variable_level_set(poly, ctrl, grid_points=51)
    ledger = run_closed_loop(plant, ctrl, safe_set, "scalar", oco_kind, schedule,
                             T=T, r0=r0, gamma=gamma)
    cert = estimate_certificate(plant, ctrl, safe_set, schedule,
                                SamplingPlan(n_samples=400, seed=seed, horizon=max(4 * p, 12)))
    bound = verify_regret_bound(ledger, cert, ctrl)
    return {"ledger": ledger, "certificate": cert, "bound": bound}


# ---------------------------------------------------------------------------
# oracles shared by verification and tests


@functools.lru_cache(maxsize=None)
def coarse_lattice(points):
    """Read-only indices of ``lattice_scan``'s 1001 coarse points on 0..points-1."""
    coarse = np.unique(np.linspace(0, points - 1, 1001).astype(np.int64))
    coarse.flags.writeable = False
    return coarse


def lattice_scan(safe_set: SafeSet, x, a, b, points, near=None):
    """Admissible fractions k/(points-1) of the lattice a + k/(points-1) (b - a).

    Two stages: 1001 coarse points, then every lattice point of each coarse
    block where feasibility changes, and of the block holding ``near`` (for
    a < b).  This reproduces the full-lattice answer near every transition
    whenever feasibility changes at most once inside a coarse block; a
    scanned block where it changes more than once raises
    SliceNotIntervalError.  When (a, b) is the safe set's window the coarse
    stage reads that lattice's table (``SafeSet.table_contains``), which is
    built once per safe set and point count.  Returns the fractions in
    increasing order, none when no coarse point is admissible.
    """
    x = np.asarray(x, dtype=float)

    def feasible(vs):
        return np.asarray(safe_set.contains(np.broadcast_to(x, vs.shape + x.shape), vs))

    coarse = coarse_lattice(points)
    if (a, b) == safe_set.window:
        vs, feas = safe_set.table_contains(x, ("lattice", points),
                                           lambda: a + coarse / (points - 1) * (b - a))
    else:
        vs = a + coarse / (points - 1) * (b - a)
        feas = feasible(vs)
    if not feas.any():
        return np.empty(0)
    blocks = set(np.flatnonzero(np.diff(feas.astype(int)) != 0).tolist())
    if near is not None:
        near_block = int(np.searchsorted(vs, near) - 1)
        if 0 <= near_block < len(coarse) - 1:
            blocks.add(near_block)
    found = [coarse[feas]]
    for k in blocks:
        fine = np.arange(coarse[k], coarse[k + 1] + 1)
        fine_feas = feasible(a + fine / (points - 1) * (b - a))
        if np.count_nonzero(np.diff(fine_feas)) > 1:
            raise SliceNotIntervalError(f"feasibility at x = {x} changes more than once "
                                        f"in lattice block {coarse[k]}..{coarse[k + 1]}")
        found.append(fine[fine_feas])
    return np.unique(np.concatenate(found)) / (points - 1)


def scalar_rg_grid_oracle(safe_set: SafeSet, x, r, v_prev, points=ORACLE_POINTS):
    """Largest admissible fraction on the uniform lattice {k/(points-1)} of
    the segment from v_prev to r (``lattice_scan``); 0 when none is found."""
    betas = lattice_scan(safe_set, x, v_prev, r, points)
    return float(betas[-1]) if betas.size else 0.0


def command_governor_grid_oracle(safe_set: SafeSet, x, r, points=ORACLE_POINTS):
    """Nearest admissible reference to r on the uniform window lattice
    (``lattice_scan``, also fine-scanning r's block), smaller v on ties;
    None when none is found."""
    lo, hi = safe_set.window
    fractions = lattice_scan(safe_set, x, lo, hi, points, near=r)
    if not fractions.size:
        return None
    vs = lo + fractions * (hi - lo)
    gap = np.abs(vs - r)
    return float(vs[gap == gap.min()].min())
