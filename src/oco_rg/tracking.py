"""Steady-state parameterization and reference-scheduled stabilizing feedback.

The reactor's steady states are parameterized by temperature: for each
admissible v the map h(v) gives the equilibrium state and u_ss(v) the input
holding it there, both in closed form.  The feedback u = u_ss(v) + K(v)(x -
h(v)) uses gains synthesized pointwise by discrete-time LQR on the Jacobian
linearization at (h(v), u_ss(v)), with K and the quadratic Lyapunov weight
P interpolated linearly between grid points.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .plant import CstrParams, Plant

log = logging.getLogger("oco_rg")


class SingularParameterizationError(ValueError):
    """Steady-state map evaluated where its defining equations degenerate."""


class SynthesisError(RuntimeError):
    """Gain synthesis failed (Riccati iteration did not converge).

    ``index`` is the batch index of the first problem, in C order, that
    did not converge; ``()`` for an unbatched problem.
    """

    def __init__(self, message, index=()):
        super().__init__(message)
        self.index = index


class StabilityEstimationError(RuntimeError):
    """No contractive exponential envelope could be fitted."""


@dataclass(frozen=True)
class SteadyStateMap:
    """Equilibrium parameterization v -> (h(v), u_ss(v)) on a reference window.

    Array-valued; the reactor's plain-float twin is the controller's
    ``scalar_schedule``.
    """

    h: Callable
    u_ss: Callable
    v_lo: float
    v_hi: float
    dh: Callable | None = None
    du_ss: Callable | None = None
    _on_grid: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def window(self):
        return (self.v_lo, self.v_hi)

    def grid(self, points: int) -> np.ndarray:
        return np.linspace(self.v_lo, self.v_hi, points)

    def on_grid(self, points: int):
        """Read-only (grid, h(grid), u_ss(grid)), computed on first use per point count.

        Recomputing gives the same arrays, so concurrent first uses are harmless.
        """
        cached = self._on_grid.get(points)
        if cached is None:
            grid = self.grid(points)
            cached = (grid, self.h(grid), np.asarray(self.u_ss(grid)))
            for array in cached:
                array.flags.writeable = False
            self._on_grid[points] = cached
        return cached


def cstr_equilibrium(v, p: CstrParams, exp=np.exp, order=1):
    """Reactor equilibrium at temperature v, in closed form.

    The concentration c follows from the concentration balance (1 - c) /
    theta_f = k c exp(-M/v) alone; the holding coolant rate u then solves
    the temperature balance, whose cooling term has denominator alpha_f (v -
    x_c).  ``order`` 0 returns c, 1 returns (c, u) and 2 returns (c, u,
    dc/dv, du/dv).  ``exp`` is np.exp for arrays and math.exp for floats.
    """
    e = exp(-p.M_act / v)
    w = p.theta_f * p.k_rate * e
    c = 1.0 / (1.0 + w)
    if order == 0:
        return c
    num = (p.x_f - v) / p.theta_f + p.k_rate * c * e
    den = p.alpha_f * (v - p.x_c)
    if order == 1:
        return c, num / den
    s = p.k_rate * e
    dc = -w * p.M_act / (v * v * (1.0 + w) ** 2)
    dnum = -1.0 / p.theta_f + dc * s + c * (s * p.M_act / (v * v))
    return c, num / den, dc, (dnum * den - num * p.alpha_f) / (den * den)


def solve_steady_state(v, params: CstrParams):
    """Equilibrium state and input of the reactor at temperature v.

    Returns (h(v), u_ss(v)); raises SingularParameterizationError at v = x_c.
    """
    varr = np.asarray(v, dtype=float)
    if np.any(np.abs(varr - params.x_c) < 1e-12):
        raise SingularParameterizationError(
            f"steady-state input undefined at v = x_c = {params.x_c}"
        )
    c, u = cstr_equilibrium(varr, params)
    return np.stack([c, varr], axis=-1), u


def cstr_steady_state_map(params: CstrParams, v_lo=0.4, v_hi=0.85) -> SteadyStateMap:
    """Reactor steady-state map with analytic reference derivatives."""

    def h(v):
        v = np.asarray(v, dtype=float)
        return np.stack([cstr_equilibrium(v, params, order=0), v], axis=-1)

    def u_ss(v):
        return solve_steady_state(v, params)[1]

    def dh(v):
        v = np.asarray(v, dtype=float)
        return np.stack([cstr_equilibrium(v, params, order=2)[2], np.ones_like(v)], axis=-1)

    def du_ss(v):
        return cstr_equilibrium(np.asarray(v, dtype=float), params, order=2)[3]

    return SteadyStateMap(h=h, u_ss=u_ss, v_lo=v_lo, v_hi=v_hi, dh=dh, du_ss=du_ss)


def register_steady_state_map(p: int, v_lo, v_hi) -> SteadyStateMap:
    """Shift-register steady states h(v) = (v, ..., v) (p entries), u_ss(v) = v."""

    def h(v):
        return np.repeat(np.asarray(v, dtype=float)[..., None], p, axis=-1)

    def u_ss(v):
        return np.asarray(v, dtype=float)

    def dh(v):
        return np.ones(np.asarray(v, dtype=float).shape + (p,))

    def du_ss(v):
        return np.ones_like(np.asarray(v, dtype=float))

    return SteadyStateMap(h=h, u_ss=u_ss, v_lo=v_lo, v_hi=v_hi, dh=dh, du_ss=du_ss)


def dare_value_iteration(A, B, Q, R, tol=1e-12, max_iter=10_000, *,
                         return_iterations=False):
    """Fixed-point value iteration for the discrete-time Riccati equation.

    Iterates P <- Q + A'PA - A'PB (R + B'PB)^{-1} B'PA from P = Q until the
    max-norm change drops below tol.  Returns (P, K) with closed loop
    A + B K, plus the iteration counts when ``return_iterations`` is set.

    Leading axes of A, B, Q and R are batch axes and broadcast.  All
    problems iterate together; each leaves the batch on the iteration where
    it converges and is finished by the same operations as a lone 2-D
    problem, so its (P, K) is bit-identical to solving it alone.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    n, m = B.shape[-2:]
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2], Q.shape[:-2], R.shape[:-2])
    A, B, Q, R = (np.broadcast_to(M, batch + M.shape[-2:]).reshape((-1,) + M.shape[-2:])
                  for M in (A, B, Q, R))
    P_out = np.empty((len(A), n, n))
    K_out = np.empty((len(A), m, n))
    iterations = np.empty(len(A), dtype=int)
    active = np.arange(len(A))
    P = Q.copy()
    for it in range(1, max_iter + 1):
        BtP = np.swapaxes(B, -1, -2) @ P
        K = -np.linalg.solve(R + BtP @ B, BtP @ A)
        AtP = np.swapaxes(A, -1, -2) @ P
        P_next = Q + AtP @ A + AtP @ B @ K
        done = np.max(np.abs(P_next - P), axis=(-2, -1)) < tol
        if done.any():
            Pd = P_next[done]
            Pd = 0.5 * (Pd + np.swapaxes(Pd, -1, -2))
            BtPd = np.swapaxes(B[done], -1, -2) @ Pd
            P_out[active[done]] = Pd
            K_out[active[done]] = -np.linalg.solve(R[done] + BtPd @ B[done], BtPd @ A[done])
            iterations[active[done]] = it
            keep = ~done
            active = active[keep]
            if not active.size:
                out = (P_out.reshape(batch + (n, n)), K_out.reshape(batch + (m, n)))
                return out + (iterations.reshape(batch),) if return_iterations else out
            A, B, Q, R, P_next = A[keep], B[keep], Q[keep], R[keep], P_next[keep]
        P = P_next
    raise SynthesisError(
        f"Riccati value iteration did not converge within {max_iter} iterations",
        index=tuple(int(i) for i in np.unravel_index(active[0], batch)),
    )


def linearize(plant: Plant, x_bar, u_bar, eps=1e-6):
    """Jacobians (A, B) of the discrete step at (x_bar, u_bar) by central differences."""
    x_bar = np.asarray(x_bar, dtype=float)
    u_bar = float(np.asarray(u_bar).reshape(()))
    A = np.zeros((plant.n, plant.n))
    for j in range(plant.n):
        d = np.zeros(plant.n)
        d[j] = eps
        A[:, j] = (plant.step(x_bar + d, u_bar) - plant.step(x_bar - d, u_bar)) / (2 * eps)
    B = (plant.step(x_bar, u_bar + eps) - plant.step(x_bar, u_bar - eps)) / (2 * eps)
    return A, B.reshape(plant.n, 1)


@dataclass(frozen=True)
class GainSchedule:
    """Gains and Lyapunov weights on a reference grid, interpolated linearly."""

    vgrid: np.ndarray
    Ks: np.ndarray  # (G, m, n)
    Ps: np.ndarray  # (G, n, n)

    def _blend(self, v):
        lo, hi = self.vgrid[0], self.vgrid[-1]
        v = np.asarray(v, dtype=float)
        if np.any(v < lo - 1e-9) or np.any(v > hi + 1e-9):
            raise ValueError(f"reference outside schedule window [{lo}, {hi}]")
        cell = (hi - lo) / (len(self.vgrid) - 1)
        pos = np.clip((v - lo) / cell, 0.0, len(self.vgrid) - 1 - 1e-12)
        i = pos.astype(int)
        return i, pos - i

    def gain(self, v):
        i, w = self._blend(v)
        w = w[..., None, None]
        return (1.0 - w) * self.Ks[i] + w * self.Ks[i + 1]

    def lyap_weight(self, v):
        i, w = self._blend(v)
        w = w[..., None, None]
        P = (1.0 - w) * self.Ps[i] + w * self.Ps[i + 1]
        return 0.5 * (P + np.swapaxes(P, -1, -2))


def build_gain_schedule(plant: Plant, ss: SteadyStateMap, Q, R, grid_points=181) -> GainSchedule:
    """LQR gains and Riccati weights at every grid point, from one batched solve.

    Linearizes the plant at each (h(v), u_ss(v)) and solves all Riccati
    equations in one call.  Raises SynthesisError naming the lowest grid
    point that did not converge.
    """
    vgrid = ss.grid(grid_points)
    A, B = zip(*(linearize(plant, ss.h(v), ss.u_ss(v)) for v in vgrid))
    try:
        Ps, Ks, iterations = dare_value_iteration(np.stack(A), np.stack(B), Q, R,
                                                  return_iterations=True)
    except SynthesisError as exc:
        v = vgrid[exc.index]
        raise SynthesisError(f"gain synthesis failed at v = {float(v):.6g}: {exc}",
                             index=exc.index) from exc
    slowest = int(np.argmax(iterations))
    log.info("gain schedule: %d grid points, %d Riccati iterations, at most %d (v = %.6g)",
             grid_points, int(iterations.sum()), iterations[slowest], vgrid[slowest])
    return GainSchedule(vgrid=vgrid, Ks=Ks, Ps=Ps)


class CstrScalarSchedule:
    """Plain-float schedule of the reactor for one float reference inside
    the window (not checked), equal to the array path bit for bit.

    ``blend`` weighs K and P entry by entry as ``GainSchedule`` does, and
    ``lyapunov`` is V(x, v) for one 1-D state: c(v) comes from
    ``cstr_equilibrium`` with np.exp (math.exp differs in the last bit) and
    the quadratic form is summed in the order einsum sums it.  The schedule
    lists are built once per controller.  ``params`` are the reactor's, for
    other plain-float users of ``cstr_equilibrium`` (the steady-state cost).
    """

    __slots__ = ("params", "_rows", "_lo", "_cell", "_top")

    def __init__(self, sched: GainSchedule, params: CstrParams):
        self.params = params
        self._rows = [tuple(K.ravel().tolist() + P.ravel().tolist())
                      for K, P in zip(sched.Ks, sched.Ps)]
        self._lo = float(sched.vgrid[0])
        self._cell = (float(sched.vgrid[-1]) - self._lo) / (len(sched.vgrid) - 1)
        self._top = len(sched.vgrid) - 1 - 1e-12

    def blend(self, v):
        """(k0, k1, p00, p01, p11): the entries of K(v) and of symmetric P(v)."""
        pos = (v - self._lo) / self._cell
        if pos < 0.0:  # np.clip's bounds, without two builtin calls
            pos = 0.0
        elif pos > self._top:
            pos = self._top
        i = int(pos)
        w = pos - i
        u = 1.0 - w
        ak0, ak1, a00, a01, a10, a11 = self._rows[i]
        bk0, bk1, b00, b01, b10, b11 = self._rows[i + 1]
        # 0.5 (p + p) is p exactly, and 0.5 (p01 + p10) is symmetric
        return (u * ak0 + w * bk0, u * ak1 + w * bk1, u * a00 + w * b00,
                0.5 * ((u * a01 + w * b01) + (u * a10 + w * b10)), u * a11 + w * b11)

    def lyapunov(self, x, v):
        """V(x, v) for a 1-D state of length 2; equals ``TrackingController.lyapunov``."""
        v = float(v)  # an np.float64 v would make every operation below a numpy scalar one
        _, _, q00, q01, q11 = self.blend(v)
        x0, x1 = x.tolist()
        e0 = x0 - float(cstr_equilibrium(v, self.params, order=0))
        e1 = x1 - v
        return ((e0 * q00) * e0 + (e0 * q01) * e1) + ((e1 * q01) * e0 + (e1 * q11) * e1)


class TrackingController:
    """Reference-scheduled feedback u = u_ss(v) + K(v)(x - h(v)).

    Bundles the plant, the steady-state map, and schedules for the gain
    K(v) and the quadratic Lyapunov weight P(v), given as the callables
    ``gain`` and ``lyap_weight``.  Immutable after construction; every
    method broadcasts over leading batch axes and returns scalar u for
    single-input plants.  ``scalar_schedule``, when present, is the plant's
    plain-float twin (the reactor's ``CstrScalarSchedule``) behind ``gain``
    and ``lyap_weight``: the one hook through which the safe set and the
    steady-state cost skip numpy for one float reference.
    """

    def __init__(self, plant: Plant, ss: SteadyStateMap, gain, lyap_weight,
                 scalar_schedule=None):
        self.plant = plant
        self.ss = ss
        self.gain = gain
        self.lyap_weight = lyap_weight
        self.scalar_schedule = scalar_schedule

    def feedback(self, x, v):
        """Control input g(x, v); shape (...,) for single-input plants."""
        x = np.asarray(x, dtype=float)
        err = x - self.ss.h(v)
        u_ss = np.asarray(self.ss.u_ss(v), dtype=float)
        return u_ss + np.einsum("...ij,...j->...i", self.gain(v), err)[..., 0]

    def closed_loop(self, x, v):
        """One step of x+ = f(x, g(x, v))."""
        return self.plant.step(x, self.feedback(x, v))

    def lyapunov(self, x, v):
        """Quadratic Lyapunov value (x - h(v))' P(v) (x - h(v))."""
        e = np.asarray(x, dtype=float) - self.ss.h(v)
        return np.einsum("...i,...ij,...j->...", e, self.lyap_weight(v), e)

    def rollout(self, x, v, steps: int):
        """States of the constant-reference closed loop, 0..steps inclusive.

        Returns an array with a new time axis at position -2, so a single
        (n,) state yields (steps+1, n).  Domain errors from the plant carry
        the failing step index.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (steps + 1, x.shape[-1]))
        out[..., 0, :] = x
        cur = x
        for t in range(steps):
            try:
                cur = self.closed_loop(cur, v)
            except Exception as exc:
                raise type(exc)(f"rollout failed at step {t + 1}: {exc}") from exc
            out[..., t + 1, :] = cur
        return out


def build_cstr_controller(
    plant: Plant,
    params: CstrParams,
    v_lo=0.4,
    v_hi=0.85,
    lqr_q=1.0,
    lqr_r=0.01,
    grid_points=181,
):
    """Gain-scheduled LQR tracking controller for the reactor."""
    ss = cstr_steady_state_map(params, v_lo, v_hi)
    Q = lqr_q * np.eye(plant.n)
    R = np.array([[lqr_r]])
    sched = build_gain_schedule(plant, ss, Q, R, grid_points)
    ctrl = TrackingController(plant, ss, sched.gain, sched.lyap_weight,
                              scalar_schedule=CstrScalarSchedule(sched, params))
    return ctrl, sched


def register_controller(plant: Plant, v_lo, v_hi) -> TrackingController:
    """Pass-through feedback u = v for the shift register (K = 0, P = I)."""
    n = plant.n
    ss = register_steady_state_map(n, v_lo, v_hi)
    K0 = np.zeros((1, n))
    P0 = np.eye(n)

    def gain_of(v):
        return np.broadcast_to(K0, np.asarray(v, dtype=float).shape + (1, n))

    def lyap_of(v):
        return np.broadcast_to(P0, np.asarray(v, dtype=float).shape + (n, n))

    return TrackingController(plant, ss, gain_of, lyap_of)


@dataclass(frozen=True)
class ConverseLyapunov:
    """Finite trajectory-sum Lyapunov function for the stabilized loop.

    evaluate(x, v) = sum_{i=0}^{N-1} ||Phi(x, v, i) - h(v)|| where N is the
    smallest integer with c_phi * lam^N < 1/2 (the 1/2 leaves numerical
    headroom).  The construction sandwiches ||x - h(v)|| with factors
    lam1 = 1 and lam2 = c_phi / (1 - lam), and decreases by at least
    lam3 = 1 - c_phi lam^N per step.
    """

    ctrl: TrackingController
    N: int
    c_phi: float
    lam: float

    @property
    def lam1(self):
        return 1.0

    @property
    def lam2(self):
        return self.c_phi / (1.0 - self.lam)

    @property
    def lam3(self):
        return 1.0 - self.c_phi * self.lam**self.N

    def evaluate(self, x, v):
        x = np.asarray(x, dtype=float)
        h_v = self.ctrl.ss.h(v)
        total = np.linalg.norm(x - h_v, axis=-1)
        cur = x
        for _ in range(self.N - 1):
            cur = self.ctrl.closed_loop(cur, v)
            total = total + np.linalg.norm(cur - h_v, axis=-1)
        return total


def build_converse_lyapunov(ctrl: TrackingController, c_phi: float, lam: float) -> ConverseLyapunov:
    """Construct the trajectory-sum Lyapunov function from envelope constants."""
    if not (0.0 <= lam < 1.0):
        raise StabilityEstimationError(f"envelope rate lam = {lam} is not in [0, 1)")
    if c_phi < 1.0:
        raise StabilityEstimationError(f"envelope gain c_phi = {c_phi} must be >= 1")
    N = 1
    while c_phi * lam**N >= 0.5:
        N += 1
    return ConverseLyapunov(ctrl=ctrl, N=N, c_phi=c_phi, lam=lam)
