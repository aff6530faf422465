"""Forward-invariant safe sets from quadratic Lyapunov sublevel conditions.

A pair (x, v) is safe when V(x, v) = ||x - h(v)||^2_{P(v)} lies below a
level that guarantees every constraint row for the whole constant-reference
evolution.  Two level choices ship: a reference-dependent level computed in
closed form row by row, and the largest uniform level contained in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import ConstraintPolytope
from .tracking import TrackingController, cstr_equilibrium

SCAN_POINTS = 2001  # window scan that brackets the ends of a reference slice
SLICE_TOL = 1e-10  # width to which each slice end is bisected


class ReferenceWindowError(ValueError):
    """Reference outside the admissible window."""


class ReferenceInfeasibleError(ValueError):
    """A constraint row is violated at steady state for this reference."""


class SliceNotIntervalError(ValueError):
    """The admissible references at a state do not form one interval."""


def compute_gamma(v, poly: ConstraintPolytope, ctrl: TrackingController):
    """Largest sublevel of V(., v) whose ellipsoid satisfies every row.

    For each row i of the closed-loop polytope G(v) (x - h(v)) <= m(v), the
    widest admissible level is (m_i / ||G_i P(v)^{-1/2}||)^2; rows without
    x-dependence are skipped (the reference window enforces them).  Returns
    min over rows, broadcasting over v.

    Raises ReferenceInfeasibleError when some steady-state margin m_i <= 0.
    """
    v = np.asarray(v, dtype=float)
    G, margins = poly.rows_at(ctrl.ss.h(v), ctrl.ss.u_ss(v), ctrl.gain(v))
    if np.any(margins <= 0.0):
        bad = int(np.argmin(margins.reshape(-1, poly.n_rows).min(axis=0)))
        label = poly.row_labels[bad] if poly.row_labels else str(bad)
        raise ReferenceInfeasibleError(
            f"constraint row {label} has non-positive steady-state margin"
        )
    if not G.any():  # no row depends on x, so every level is unbounded
        return np.full(margins.shape[:-1], np.inf)[()]
    P_inv = np.linalg.inv(ctrl.lyap_weight(v))
    den = np.einsum("...zn,...nm,...zm->...z", G, P_inv, G)
    # rows with G_i = 0 impose no x-dependence; exclude them from the min
    levels = np.where(den > 0.0, margins**2 / np.where(den > 0.0, den, 1.0), np.inf)
    return np.min(levels, axis=-1)


def scalar_gamma_kernel(poly: ConstraintPolytope, ctrl: TrackingController):
    """Plain-float ``compute_gamma(v, poly, ctrl)`` for one float v in the
    window (not checked), from the controller's ``scalar_schedule``.

    The result equals ``compute_gamma``'s bit for bit because every step
    follows its operation order: K(v) and P(v) from the schedule's blend,
    c(v) and u_ss(v) from ``cstr_equilibrium`` with np.exp, LAPACK's inverse
    of P(v), and the quadratic form summed left to right as einsum sums it.
    A non-positive margin is handed to ``compute_gamma``, which raises.
    """
    sched = ctrl.scalar_schedule
    blend, params, inv = sched.blend, sched.params, np.linalg.inv
    rows = list(zip(poly.Ax[:, 0].tolist(), poly.Ax[:, 1].tolist(), poly.Au[:, 0].tolist(),
                    poly.b.tolist()))

    def gamma(v):
        k0, k1, p00, p01, p11 = blend(v)
        c, u_ss = cstr_equilibrium(v, params, order=1)
        c, u_ss = float(c), float(u_ss)
        (q00, q01), (q10, q11) = inv([[p00, p01], [p01, p11]]).tolist()
        best = math.inf
        for ax0, ax1, au, b in rows:
            m = (b - (ax0 * c + ax1 * v)) - au * u_ss
            if m <= 0.0:
                return compute_gamma(v, poly, ctrl)
            g0 = ax0 + au * k0
            g1 = ax1 + au * k1
            den = (((g0 * q00) * g0 + (g0 * q01) * g1) + (g1 * q10) * g0) + (g1 * q11) * g1
            if den > 0.0 and m * m / den < best:
                best = m * m / den
        return best

    return gamma


@dataclass(frozen=True)
class WindowTable:
    """Read-only state-independent columns of a safe set on a reference grid:
    the grid, h(grid) as n columns, the n x n entries of P(grid) as n*n
    columns in row-major order, and level(grid)."""

    grid: np.ndarray
    h: np.ndarray  # (n, G)
    P: np.ndarray  # (n*n, G)
    level: np.ndarray

    def lyapunov(self, x):
        """V(x, v) at every grid reference v for one 1-D state x.

        e_i = x_i - h_i(v), then the terms (e_i P_ij(v)) e_j added one by one
        onto zero for i, j in row-major order: the order in which einsum sums
        ``TrackingController.lyapunov`` over a grid, so the bits are the same.
        """
        e = [xi - hi for xi, hi in zip(np.asarray(x, dtype=float).tolist(), self.h)]
        V = np.zeros_like(self.grid)
        term = np.empty_like(V)
        P = iter(self.P)
        for ei in e:
            for ej in e:
                np.multiply(ei, next(P), out=term)
                term *= ej
                V += term
        return V


def build_window_table(ctrl: TrackingController, level, grid) -> WindowTable:
    """``WindowTable`` of a controller and a level function on a 1-D grid."""
    grid = np.asarray(grid, dtype=float)
    columns = (np.ascontiguousarray(ctrl.ss.h(grid).T),
               np.ascontiguousarray(ctrl.lyap_weight(grid).reshape(grid.size, -1).T),
               np.asarray(level(grid), dtype=float))
    for array in (grid,) + columns:
        array.flags.writeable = False
    return WindowTable(grid, *columns)


def bisect(admissible, inside, outside, width):
    """Halve the interval from an admissible ``inside`` to an inadmissible
    ``outside`` while it is wider than ``width``; return its admissible end."""
    while abs(outside - inside) > width:
        mid = 0.5 * (inside + outside)
        if admissible(mid):
            inside = mid
        else:
            outside = mid
    return inside


@dataclass(frozen=True)
class LevelCertificate:
    """Calibrated level: V_max, the smallest per-reference level on the grid,
    and the radius delta of a state ball around h(v) inside every slice."""

    V_max: float
    delta: float


class SafeSet:
    """Sublevel safe set {(x, v) : V(x, v) <= level(v)} on a reference window.

    kind is "fixed" (the constant level ``certificate.V_max``) or "variable"
    (closed-form level per reference).  ``level_scale`` multiplies the
    calibrated level; it exists for fault-injection experiments and defaults
    to 1.  Queries are pure and broadcast over leading axes.  A float
    reference skips numpy when the controller has a plain-float twin
    (``scalar_schedule``): its ``lyapunov`` for membership of one 1-D state,
    and ``scalar_gamma_kernel`` over it for the variable level.  The twin
    gives the array path's bits, so the answer does not depend on it.
    Scans of one state over a fixed reference grid read that grid's
    ``WindowTable`` (``table_contains``), with the same bits again.
    """

    def __init__(self, kind, ctrl: TrackingController, poly: ConstraintPolytope,
                 certificate: LevelCertificate, level_scale=1.0):
        if kind not in ("fixed", "variable"):
            raise ValueError(f"unknown safe-set kind {kind!r}")
        self.kind = kind
        self.ctrl = ctrl
        self.poly = poly
        self.level_scale = float(level_scale)
        self.certificate = certificate
        self._fixed_level = self.level_scale * certificate.V_max
        self._scalar_V = self._scalar_gamma = None
        twin = ctrl.scalar_schedule
        if twin is not None:
            self._scalar_V = twin.lyapunov
            if kind == "variable":
                self._scalar_gamma = scalar_gamma_kernel(poly, ctrl)
        self._tables = {}

    @property
    def window(self):
        return self.ctrl.ss.window

    def level(self, v):
        """Level at v: a float for a float v, an array otherwise.

        Raises ReferenceWindowError unless every v is in the window (NaN is
        not), before any level is computed.  A float v on the variable level
        goes through ``scalar_gamma_kernel`` when the controller has a
        plain-float twin; other references on it through ``compute_gamma``.
        """
        lo, hi = self.window
        if isinstance(v, float):
            inside = lo - 1e-9 <= v <= hi + 1e-9
        else:
            v_arr = np.asarray(v)
            inside = np.all((v_arr >= lo - 1e-9) & (v_arr <= hi + 1e-9))
        if not inside:
            raise ReferenceWindowError(f"reference {v} outside window [{lo}, {hi}]")
        if isinstance(v, float):
            if self.kind == "fixed":
                return self._fixed_level
            if self._scalar_gamma is not None:
                return self.level_scale * self._scalar_gamma(float(v))
        elif self.kind == "fixed":
            return self._fixed_level * np.ones_like(np.asarray(v, dtype=float))
        return self.level_scale * compute_gamma(v, self.poly, self.ctrl)

    def contains(self, x, v):
        """Membership V(x, v) <= level(v); boolean, broadcast over batches.

        One 1-D state with one float reference goes through the twin's
        ``lyapunov`` and the float ``level``, which give the same bits as
        the array path; the window is checked before either runs.  This is
        the governors' inner loop, so it calls the twin itself rather than
        through ``TrackingController.lyapunov``.
        """
        lev = self.level(v)
        if (self._scalar_V is not None and isinstance(v, float)
                and isinstance(x, np.ndarray) and x.ndim == 1):
            return self._scalar_V(x, v) <= lev
        return self.ctrl.lyapunov(x, v) <= lev

    def table_contains(self, x, key, make_grid):
        """(grid, mask): membership of one 1-D state x at every reference of a
        state-independent grid, equal to ``contains`` on the broadcast state.

        The grid's ``WindowTable`` is built from ``make_grid()`` on the first
        use of ``key`` and kept, so a call scores only x - h(grid).  Scans on
        a fixed grid (``scan_v``, the window lattice of
        ``harness.lattice_scan``) go through here and not through
        ``contains``.  Rebuilding gives the same table, so concurrent first
        uses are harmless.
        """
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build_window_table(self.ctrl, self.level, make_grid())
        return table.grid, table.lyapunov(x) <= table.level

    def scan_v(self, x):
        """Brackets ((a, a_out), (b, b_out)) of both ends of the slice at x.

        a and b are the first and last admissible points of a SCAN_POINTS
        window scan, a_out and b_out their neighbours (None at the window
        edge); None when no scan point is admissible.  The scan reads the
        window grid's table (``table_contains``).  Raises
        SliceNotIntervalError when the admissible points are not contiguous.
        """
        x = np.asarray(x, dtype=float)
        grid, mask = self.table_contains(
            x, SCAN_POINTS, lambda: np.linspace(*self.window, SCAN_POINTS))
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None
        i, j = idx[0], idx[-1]
        if j - i + 1 != idx.size:
            raise SliceNotIntervalError(
                f"admissible references at x = {x} are not one interval on the window scan")

        a_out = grid[i - 1] if i > 0 else None
        b_out = grid[j + 1] if j + 1 < SCAN_POINTS else None
        return (grid[i], a_out), (grid[j], b_out)

    def bisect_v(self, x, inside, outside):
        """Slice end bisected to width SLICE_TOL from an admissible ``inside``
        toward an inadmissible ``outside`` (``inside`` itself when None)."""
        if outside is None:
            return inside
        return bisect(lambda v: self.contains(x, v), inside, outside, SLICE_TOL)

    def cross_section_v(self, x):
        """Admissible reference interval (a, b) at state x, or None when empty.

        Both ends of ``scan_v`` refined by ``bisect_v``; a slice that is not
        one interval on the scan raises SliceNotIntervalError.
        """
        brackets = self.scan_v(x)
        if brackets is None:
            return None
        (a, a_out), (b, b_out) = brackets
        return self.bisect_v(x, a, a_out), self.bisect_v(x, b, b_out)


def calibrate_level(poly: ConstraintPolytope, ctrl: TrackingController, grid):
    """Level certificate on a reference grid.

    V_max is the smallest per-reference level on the grid (the uniform level
    of a fixed set); delta is the radius of the largest state ball around
    h(v) inside {V(., v) <= V_max} at every grid point, inf when the level is
    unbounded.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("calibration grid is empty")
    V_max = float(np.min(compute_gamma(grid, poly, ctrl)))
    if not np.isfinite(V_max):
        return LevelCertificate(V_max=V_max, delta=np.inf)
    if V_max <= 0.0:
        raise ReferenceInfeasibleError("non-positive level on the calibration grid")
    lam_max = np.linalg.eigvalsh(ctrl.lyap_weight(grid)).max(axis=-1)
    return LevelCertificate(V_max=V_max, delta=float(np.min(np.sqrt(V_max / lam_max))))


def fixed_level_set(poly, ctrl, grid_points=181, level_scale=1.0):
    cert = calibrate_level(poly, ctrl, ctrl.ss.grid(grid_points))
    return SafeSet("fixed", ctrl, poly, cert, level_scale=level_scale)


def variable_level_set(poly, ctrl, grid_points=181, level_scale=1.0):
    cert = calibrate_level(poly, ctrl, ctrl.ss.grid(grid_points))
    return SafeSet("variable", ctrl, poly, cert, level_scale=level_scale)
