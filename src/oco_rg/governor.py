"""Reference governors: admissible-reference selection in front of the loop.

Both governors guarantee (x_t, v_t) stays in the safe set: the scalar
governor moves from the previous reference toward the desired one by the
largest admissible fraction (bisection), the command governor projects the
desired reference onto the admissible slice at the current state.  Neither
keeps state: the caller carries v from one step to the next.
"""

from __future__ import annotations

from .safeset import SafeSet, SliceNotIntervalError, bisect

BETA_TOL = 2.0**-50  # exactly 50 halvings of [0, 1], far below the 1e-10 contract


class InvarianceViolationError(RuntimeError):
    """(x, v_prev) left the safe set; indicates a bug or a mis-calibrated set."""


class GovernorInfeasibleError(RuntimeError):
    """No admissible reference exists at the current state."""


class InitializationInfeasibleError(ValueError):
    """Initial (x0, r0) is not in the safe set."""


def initialize_governor(x0, r0, safe_set: SafeSet) -> float:
    """The first reference v_0 = r_0, requiring (x0, r0) to be safe."""
    V0 = float(safe_set.ctrl.lyapunov(x0, r0))
    lev = float(safe_set.level(r0))
    if not V0 <= lev:  # a NaN state or level fails here, not at a later step
        raise InitializationInfeasibleError(
            f"initial reference infeasible: V(x0, r0) = {V0:.6g} exceeds level {lev:.6g}"
        )
    return float(r0)


def scalar_rg(x, r, v_prev, safe_set: SafeSet):
    """Largest admissible step along the segment from v_prev toward r.

    Returns (v, beta) with v = v_prev + beta (r - v_prev) and beta the
    largest value in [0, 1] keeping (x, v) safe: beta = 1 exactly when r
    itself is admissible, otherwise bisection to |beta - beta*| <= 1e-10.
    """
    r = float(r)
    if bool(safe_set.contains(x, r)):
        return r, 1.0
    if not bool(safe_set.contains(x, v_prev)):
        raise InvarianceViolationError(
            f"(x, v_prev = {v_prev:.6g}) left the safe set; "
            f"V = {float(safe_set.ctrl.lyapunov(x, v_prev)):.6g} > "
            f"level = {float(safe_set.level(v_prev)):.6g}"
        )
    step = r - v_prev
    beta = bisect(lambda b: safe_set.contains(x, v_prev + b * step), 0.0, 1.0, BETA_TOL)
    return v_prev + beta * step, beta


def command_governor(x, r, safe_set: SafeSet):
    """Admissible reference closest to r (scalar references).

    Returns r when it is admissible, and otherwise r clipped onto the
    admissible slice ``safe_set.cross_section_v(x)``, bit for bit; only the
    slice end on r's side is bisected.  Raises SliceNotIntervalError when
    the window scan is not one interval or an inadmissible r lies strictly
    inside the admissible scan range.
    """
    r = float(r)
    if bool(safe_set.contains(x, r)):
        return r
    brackets = safe_set.scan_v(x)
    if brackets is None:
        raise GovernorInfeasibleError("no admissible reference at the current state")
    (a, a_out), (b, b_out) = brackets
    if r < a:
        return float(safe_set.bisect_v(x, a, a_out))
    if r > b:
        return float(safe_set.bisect_v(x, b, b_out))
    raise SliceNotIntervalError(
        f"inadmissible reference {r} lies inside the admissible scan range [{a}, {b}]")
