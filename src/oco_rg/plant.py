"""Discrete-time plant models and constraint polytopes.

The shipped plants are a continuous stirred tank reactor (dimensionless
two-state model, Euler-forward discretized) and the shift-register system
used to embed memory-augmented online optimization problems.  All model
functions broadcast over leading axes so that batches of states can be
stepped in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

THETA_MIN = 1e-6  # temperatures below this make exp(-M/theta) ill-defined


class PlantDomainError(ValueError):
    """Raised when a state leaves the domain where the dynamics are defined."""


@dataclass(frozen=True)
class CstrParams:
    """Dimensionless parameters of the stirred tank reactor."""

    theta_f: float = 20.0
    k_rate: float = 300.0
    M_act: float = 5.0
    x_f: float = 0.3947
    x_c: float = 0.3816
    alpha_f: float = 0.117
    tau: float = 0.1

    def __post_init__(self):
        for name in ("theta_f", "k_rate", "M_act", "x_f", "x_c", "alpha_f", "tau"):
            if getattr(self, name) <= 0:
                raise ValueError(f"CstrParams.{name} must be strictly positive")


@dataclass(frozen=True)
class Plant:
    """Deterministic discrete-time system x+ = step(x, u).

    ``step`` must be a pure function of (x, u); batches broadcast over
    leading axes.
    """

    n: int
    m: int
    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x0: np.ndarray
    name: str = "plant"


def cstr_continuous_rhs(state, u, params: CstrParams):
    """Continuous-time reactor dynamics (concentration, temperature).

    Parameters
    ----------
    state : array, shape (..., 2)
        Concentration c and temperature theta.
    u : array, shape (...,)
        Coolant flow rate.
    params : CstrParams

    Returns
    -------
    array, shape (..., 2) with (dc/dt, dtheta/dt).
    """
    state = np.asarray(state, dtype=float)
    u = np.asarray(u, dtype=float)
    c = state[..., 0]
    theta = state[..., 1]
    if np.any(theta < THETA_MIN):
        raise PlantDomainError(
            f"temperature {np.min(theta):.3g} below {THETA_MIN}; reaction term undefined"
        )
    rate = params.k_rate * c * np.exp(-params.M_act / theta)
    dc = (1.0 - c) / params.theta_f - rate
    dtheta = (
        (params.x_f - theta) / params.theta_f
        + rate
        - params.alpha_f * u * (theta - params.x_c)
    )
    return np.stack([dc, dtheta], axis=-1)


def cstr_plant(params: CstrParams | None = None, x0=None) -> Plant:
    """Euler-forward discretization of the tank reactor; x0 defaults to (0.2632, 0.6519)."""
    params = params or CstrParams()
    x0 = np.asarray((0.2632, 0.6519) if x0 is None else x0, dtype=float)

    def step(x, u):
        x = np.asarray(x, dtype=float)
        return x + params.tau * cstr_continuous_rhs(x, u, params)

    return Plant(n=2, m=1, step=step, x0=x0, name="cstr")


def shift_register_plant(p: int, x0=None) -> Plant:
    """Linear register stacking the last p inputs: x_t = (u_{t-p}, ..., u_{t-1}).

    The step shifts the register and appends the new input, so a constant
    input v reaches the steady state (v, ..., v) in exactly p steps.
    """
    if p < 1:
        raise ValueError("shift_register_plant requires p >= 1")
    x0 = np.zeros(p) if x0 is None else np.asarray(x0, dtype=float)

    def step(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if u.ndim == x.ndim - 1:
            u = u[..., None]
        return np.concatenate([x[..., 1:], u], axis=-1)

    return Plant(n=p, m=1, step=step, x0=x0, name=f"register(p={p})")


@dataclass(frozen=True)
class ConstraintPolytope:
    """Polytopic constraints Ax x + Au u <= b on (state, input) pairs.

    For a reference-scheduled feedback u = u_ss(v) + K(v)(x - h(v)) the
    induced closed-loop set is, for each fixed v, again a polytope in x:
    rows (Ax + Au K(v)) applied to x - h(v) with margins
    b - Ax h(v) - Au u_ss(v).  ``rows_at`` exposes that per-reference form;
    it is what the sublevel-set construction consumes.
    """

    Ax: np.ndarray
    Au: np.ndarray
    b: np.ndarray
    row_labels: tuple = field(default=())

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]

    def _inputs(self, u):
        """u as (..., m); a trailing input axis is added for scalar inputs."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return u[..., None] if u.shape[-1] != self.Au.shape[1] else u

    def raw_margins(self, x, u):
        """Row margins b - Ax x - Au u; all >= 0 means (x, u) in Z."""
        x = np.asarray(x, dtype=float)
        return self.b - x @ self.Ax.T - self._inputs(u) @ self.Au.T

    def worst_raw_margin(self, x, u):
        return np.min(self.raw_margins(x, u), axis=-1)

    def rows_at(self, h_v, u_ss_v, K_v):
        """Closed-loop rows (G, margins) with G (x - h(v)) <= margins.

        G = Ax + Au K(v) and margins = b - Ax h(v) - Au u_ss(v); leading
        axes of h_v (..., n), u_ss_v (..., m) and K_v (..., m, n) are batch
        axes.
        """
        G = self.Ax + np.einsum("zm,...mn->...zn", self.Au, K_v)
        margins = self.b - np.einsum("zn,...n->...z", self.Ax, h_v) - np.einsum(
            "zm,...m->...z", self.Au, self._inputs(u_ss_v))
        return G, margins


def box_polytope(x_bounds, u_bounds) -> ConstraintPolytope:
    """Axis-aligned box constraints as a polytope.

    x_bounds / u_bounds are sequences of (lo, hi) per coordinate; None for
    an unbounded side.
    """
    n = len(x_bounds)
    m = len(u_bounds)
    rows_Ax, rows_Au, rows_b, names = [], [], [], []

    def add(ax_row, au_row, rhs, name):
        rows_Ax.append(ax_row)
        rows_Au.append(au_row)
        rows_b.append(rhs)
        names.append(name)

    for i, (lo, hi) in enumerate(x_bounds):
        e = np.zeros(n)
        e[i] = 1.0
        if hi is not None:
            add(e, np.zeros(m), float(hi), f"x{i}<=hi")
        if lo is not None:
            add(-e, np.zeros(m), -float(lo), f"x{i}>=lo")
    for j, (lo, hi) in enumerate(u_bounds):
        e = np.zeros(m)
        e[j] = 1.0
        if hi is not None:
            add(np.zeros(n), e, float(hi), f"u{j}<=hi")
        if lo is not None:
            add(np.zeros(n), -e, -float(lo), f"u{j}>=lo")
    return ConstraintPolytope(
        Ax=np.array(rows_Ax),
        Au=np.array(rows_Au),
        b=np.array(rows_b),
        row_labels=tuple(names),
    )


def cstr_constraints() -> ConstraintPolytope:
    """The reactor operating box: c, theta in [0, 1], u in [0, 2]."""
    return box_polytope([(0.0, 1.0), (0.0, 1.0)], [(0.0, 2.0)])
