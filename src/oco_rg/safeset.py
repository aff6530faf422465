"""Forward-invariant safe sets from quadratic Lyapunov sublevel conditions.

A pair (x, v) is safe when V(x, v) = ||x - h(v)||^2_{P(v)} lies below a
level that guarantees every constraint row for the whole constant-reference
evolution.  Two level choices ship: a reference-dependent level computed in
closed form row by row, and the largest uniform level contained in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import ConstraintPolytope
from .tracking import TrackingController

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
    P_inv = np.linalg.inv(ctrl.lyap_weight(v))
    den = np.einsum("...zn,...nm,...zm->...z", G, P_inv, G)
    # rows with G_i = 0 impose no x-dependence; exclude them from the min
    levels = np.where(den > 0.0, margins**2 / np.where(den > 0.0, den, 1.0), np.inf)
    return np.min(levels, axis=-1)


@dataclass(frozen=True)
class LevelCertificate:
    """Calibration record for a uniform safe level."""

    V_max: float
    k_star: int | None
    delta: float
    gamma_max: float


class SafeSet:
    """Sublevel safe set {(x, v) : V(x, v) <= level(v)} on a reference window.

    kind is "fixed" (constant level) or "variable" (closed-form level per
    reference).  ``level_scale`` multiplies the calibrated level; it exists
    for fault-injection experiments and defaults to 1.  Queries are pure and
    broadcast over leading axes.
    """

    def __init__(self, kind, ctrl: TrackingController, poly: ConstraintPolytope,
                 level_value=None, level_scale=1.0, certificate=None):
        if kind not in ("fixed", "variable"):
            raise ValueError(f"unknown safe-set kind {kind!r}")
        self.kind = kind
        self.ctrl = ctrl
        self.poly = poly
        self.level_scale = float(level_scale)
        self._level_value = level_value
        self.certificate = certificate
        # one-state, one-reference queries on a fixed level skip numpy dispatch
        self._scalar_V = ctrl.scalar_lyapunov if kind == "fixed" else None

    @property
    def window(self):
        return self.ctrl.ss.window

    def _check_window(self, v):
        """Raise ReferenceWindowError unless every v is in the window; NaN is not."""
        lo, hi = self.window
        if isinstance(v, float):
            inside = lo - 1e-9 <= v <= hi + 1e-9
        else:
            v_arr = np.asarray(v)
            inside = np.all((v_arr >= lo - 1e-9) & (v_arr <= hi + 1e-9))
        if not inside:
            raise ReferenceWindowError(f"reference {v} outside window [{lo}, {hi}]")

    def level(self, v):
        self._check_window(v)
        if self.kind == "fixed":
            return self.level_scale * self._level_value * np.ones_like(np.asarray(v, dtype=float))
        return self.level_scale * compute_gamma(v, self.poly, self.ctrl)

    def contains(self, x, v):
        """Membership V(x, v) <= level(v); boolean, broadcast over batches.

        One 1-D state with one float reference on a fixed level goes through
        the controller's ``scalar_lyapunov``, which gives the same bits as
        the array path.
        """
        if (self._scalar_V is not None and isinstance(v, float)
                and isinstance(x, np.ndarray) and x.ndim == 1):
            self._check_window(v)
            return self._scalar_V(x, v) <= self.level_scale * self._level_value
        lev = self.level(v)
        return self.ctrl.lyapunov(x, v) <= lev

    def scan_v(self, x):
        """Brackets ((a, a_out), (b, b_out)) of both ends of the slice at x.

        a and b are the first and last admissible points of a SCAN_POINTS
        window scan, a_out and b_out their neighbours (None at the window
        edge); None when no scan point is admissible.  Raises
        SliceNotIntervalError when the admissible points are not contiguous.
        """
        grid = np.linspace(*self.window, SCAN_POINTS)
        x = np.asarray(x, dtype=float)
        idx = np.flatnonzero(self.contains(np.broadcast_to(x, grid.shape + x.shape), grid))
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
        for _ in range(200):
            if abs(outside - inside) <= SLICE_TOL:
                break
            mid = 0.5 * (inside + outside)
            if bool(self.contains(x, mid)):
                inside = mid
            else:
                outside = mid
        return inside

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


def _ball_radius(level, ctrl, vgrid):
    lam_max = np.linalg.eigvalsh(ctrl.lyap_weight(vgrid)).max(axis=-1)
    return float(np.min(np.sqrt(level / lam_max)))


def calibrate_fixed_level(poly: ConstraintPolytope, ctrl: TrackingController, grid):
    """Uniform level V_max = min over the grid of the per-reference level.

    Also certifies the radius delta of a state ball around h(v) that is
    contained in every slice, and a diagnostic settling horizon k_star
    (steps for the worst observed quadratic contraction to pull the largest
    per-reference level under the uniform one).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("calibration grid is empty")
    gamma = compute_gamma(grid, poly, ctrl)
    V_max = float(np.min(gamma))
    if not np.isfinite(V_max):
        cert = LevelCertificate(V_max=V_max, k_star=None, delta=np.inf,
                                gamma_max=float(np.max(gamma)))
        return V_max, cert
    if V_max <= 0.0:
        raise ReferenceInfeasibleError("non-positive level on the calibration grid")
    delta = _ball_radius(V_max, ctrl, grid)

    # worst one-step contraction of V on level-set boundary samples
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    factor = 0.0
    sub = grid[:: max(1, len(grid) // 45)]
    for v in sub:
        P = ctrl.lyap_weight(v)
        evals, evecs = np.linalg.eigh(P)
        P_inv_half = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        if ring.shape[-1] != P.shape[-1]:  # only 2-state plants sampled here
            continue
        x = ctrl.ss.h(v) + np.sqrt(compute_gamma(v, poly, ctrl)) * ring @ P_inv_half.T
        V0 = ctrl.lyapunov(x, v)
        V1 = ctrl.lyapunov(ctrl.closed_loop(x, v), v)
        factor = max(factor, float(np.max(V1 / V0)))
    gamma_max = float(np.max(gamma))
    if 0.0 < factor < 1.0:
        k_star = int(np.ceil(np.log(V_max / gamma_max) / np.log(factor))) if gamma_max > V_max else 0
    else:
        k_star = None
    cert = LevelCertificate(V_max=V_max, k_star=k_star, delta=delta, gamma_max=gamma_max)
    return V_max, cert


def fixed_level_set(poly, ctrl, grid_points=181, level_scale=1.0):
    grid = ctrl.ss.grid(grid_points)
    V_max, cert = calibrate_fixed_level(poly, ctrl, grid)
    return SafeSet("fixed", ctrl, poly, level_value=V_max,
                   level_scale=level_scale, certificate=cert)


def variable_level_set(poly, ctrl, grid_points=181, level_scale=1.0):
    grid = ctrl.ss.grid(grid_points)
    gamma = compute_gamma(grid, poly, ctrl)
    V_max = float(np.min(gamma))
    delta = _ball_radius(V_max, ctrl, grid) if np.isfinite(V_max) else np.inf
    cert = LevelCertificate(V_max=V_max, k_star=None, delta=delta,
                            gamma_max=float(np.max(gamma)))
    return SafeSet("variable", ctrl, poly, level_scale=level_scale, certificate=cert)
