import math
import re

import numpy as np
import pytest

from oco_rg import (
    GovernorInfeasibleError,
    InitializationInfeasibleError,
    InvarianceViolationError,
    SafeSet,
    SliceNotIntervalError,
    TrackingController,
    command_governor,
    initialize_governor,
    sample_safe_states,
    scalar_rg,
)
from oco_rg import checks
from oco_rg.harness import command_governor_grid_oracle, scalar_rg_grid_oracle


def make_instances(safe_set, n, seed):
    rng = np.random.default_rng(seed)
    x, v_prev = sample_safe_states(safe_set, n, rng)
    lo, hi = safe_set.window
    r = rng.uniform(lo, hi, n)
    return x, v_prev, r


def literal_beta_scan(safe_set, x, r, v_prev, points=1_000_000, chunk=200_000):
    """Single-stage scan of the full lattice (slow; used to validate the
    two-stage oracle on a subsample)."""
    best = 0.0
    found = False
    for start in range(0, points, chunk):
        idx = np.arange(start, min(start + chunk, points))
        betas = idx / (points - 1)
        vs = v_prev + betas * (r - v_prev)
        feas = np.asarray(safe_set.contains(
            np.broadcast_to(np.asarray(x, float), vs.shape + np.shape(x)), vs))
        if feas.any():
            best = float(betas[np.flatnonzero(feas)[-1]])
            found = True
    return best if found else 0.0


def literal_v_scan(safe_set, x, r, points):
    """Nearest admissible reference to r on the full window lattice, smaller
    v on ties, in one stage."""
    lo, hi = safe_set.window
    vs = lo + np.arange(points) / (points - 1) * (hi - lo)
    feas = np.asarray(safe_set.contains(
        np.broadcast_to(np.asarray(x, float), vs.shape + np.shape(x)), vs))
    if not feas.any():
        return None
    vs = vs[feas]
    gap = np.abs(vs - r)
    return float(vs[gap == gap.min()].min())


def fifty_halvings(x, r, v_prev, safe_set):
    """scalar_rg's search as a fixed loop of 50 halvings of [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if bool(safe_set.contains(x, v_prev + mid * (r - v_prev))):
            lo = mid
        else:
            hi = mid
    return v_prev + lo * (r - v_prev), lo


class SliceStub(SafeSet):
    """Safe set whose reference slice is {v in [-1, 1] : admissible(v)} at every state."""

    window = (-1.0, 1.0)

    def __init__(self, admissible):
        self.admissible = admissible

    def contains(self, x, v):
        return self.admissible(np.asarray(v, dtype=float))

    def table_contains(self, x, key, make_grid):
        grid = make_grid()
        return grid, self.contains(x, grid)


class TestScalarGovernor:
    def test_pass_through_when_admissible(self, cstr):
        v0 = 0.62
        x = cstr.ctrl.ss.h(v0)
        r = 0.625  # close enough to remain admissible
        assert cstr.variable.contains(x, r)
        assert scalar_rg(x, r, v0, cstr.variable) == (r, 1.0)

    def test_blocked_reference_keeps_previous(self, cstr):
        ctrl = cstr.ctrl
        v0 = 0.55
        # state on the admissible boundary at v0: any move toward a far
        # reference leaves the set immediately
        lev = float(cstr.variable.level(v0))
        P = ctrl.lyap_weight(v0)
        d = np.array([1.0, 0.0])
        x = ctrl.ss.h(v0) + np.sqrt(lev / (d @ P @ d)) * d * (1.0 - 1e-12)
        r = 0.85
        if not cstr.variable.contains(x, r):
            v, _ = scalar_rg(x, r, v0, cstr.variable)
            assert abs(v - v0) <= 1e-9 * abs(r - v0)

    def test_bisection_matches_dense_lattice(self, cstr):
        x, v_prev, r = make_instances(cstr.variable, 1000, seed=77)
        worst = 0.0
        active = 0
        for i in range(1000):
            _, beta = scalar_rg(x[i], float(r[i]), float(v_prev[i]), cstr.variable)
            if beta == 1.0:
                continue
            active += 1
            beta_star = scalar_rg_grid_oracle(cstr.variable, x[i], float(r[i]),
                                              float(v_prev[i]))
            worst = max(worst, abs(beta - beta_star))
        assert active > 50, "instance generator produced no binding cases"
        assert worst <= 2e-6

    def test_bisection_equals_fifty_halvings(self, cstr):
        safe_set = cstr.fixed
        x, v_prev, r = make_instances(safe_set, 400, seed=84)
        active = 0
        for i in range(400):
            if bool(safe_set.contains(x[i], float(r[i]))):
                continue
            active += 1
            args = (x[i], float(r[i]), float(v_prev[i]), safe_set)
            assert scalar_rg(*args) == fifty_halvings(*args)
        assert active >= 300, f"only {active} active instances"

    def test_two_stage_oracle_equals_literal_scan(self, cstr):
        x, v_prev, r = make_instances(cstr.variable, 200, seed=78)
        checked = 0
        for i in range(200):
            if bool(cstr.variable.contains(x[i], float(r[i]))):
                continue
            fast = scalar_rg_grid_oracle(cstr.variable, x[i], float(r[i]), float(v_prev[i]))
            slow = literal_beta_scan(cstr.variable, x[i], float(r[i]), float(v_prev[i]))
            assert fast == pytest.approx(slow, abs=1e-12)
            checked += 1
            if checked >= 25:
                break
        assert checked >= 10

    def test_maximality_of_bisection(self, cstr):
        x, v_prev, r = make_instances(cstr.variable, 400, seed=79)
        for i in range(400):
            _, beta = scalar_rg(x[i], float(r[i]), float(v_prev[i]), cstr.variable)
            if beta < 1.0:
                probe = v_prev[i] + (beta + 1e-8) * (r[i] - v_prev[i])
                assert not bool(cstr.variable.contains(x[i], float(probe)))

    def test_monotone_approach(self, cstr):
        x, v_prev, r = make_instances(cstr.variable, 300, seed=80)
        for i in range(300):
            v, _ = scalar_rg(x[i], float(r[i]), float(v_prev[i]), cstr.variable)
            assert abs(r[i] - v) <= abs(r[i] - v_prev[i]) + 1e-15

    def test_kernel_matches_array_path(self, cstr):
        """On the fixed level, scalar_rg gives the same v and beta through the
        plain-float membership kernel as through the array path alone."""
        ctrl = cstr.ctrl
        array_only = SafeSet("fixed", TrackingController(ctrl.plant, ctrl.ss, ctrl.gain,
                                                         ctrl.lyap_weight),
                             cstr.poly, cstr.fixed.certificate)
        x, v_prev, r = make_instances(cstr.fixed, 500, seed=84)
        active = 0
        for i in range(500):
            fast = scalar_rg(x[i], float(r[i]), float(v_prev[i]), cstr.fixed)
            assert fast == scalar_rg(x[i], float(r[i]), float(v_prev[i]), array_only)
            active += fast[1] < 1.0
        assert active >= 300

    def test_invariance_violation_detected(self, cstr):
        x_bad = np.array([0.9, 0.45])  # far outside every slice
        assert not cstr.variable.contains(x_bad, 0.6)
        with pytest.raises(InvarianceViolationError):
            scalar_rg(x_bad, 0.85, 0.6, cstr.variable)

    def test_invariance_message_tells_v_from_level(self, cstr):
        """Just outside the level, V and the level agree to about nine
        digits; the message prints both to seventeen, so they differ."""
        ctrl, safe_set, v = cstr.ctrl, cstr.fixed, 0.6
        d = np.array([0.6, 0.8])
        dPd = float(d @ ctrl.lyap_weight(v) @ d)
        x = ctrl.ss.h(v) + math.sqrt(safe_set.level(v) / dPd) * (1.0 + 1e-9) * d
        assert ctrl.lyapunov(x, v) > safe_set.level(v)
        assert f"{ctrl.lyapunov(x, v):.6g}" == f"{safe_set.level(v):.6g}"
        with pytest.raises(InvarianceViolationError) as err:
            scalar_rg(x, 0.85, v, safe_set)
        V, level = re.search(r"V = (\S+) > level = (\S+)$", str(err.value)).groups()
        assert V != level
        assert float(V) == ctrl.lyapunov(x, v) and float(level) == safe_set.level(v)


class TestCommandGovernor:
    def test_pass_through(self, cstr):
        x = cstr.ctrl.ss.h(0.6)
        assert command_governor(x, 0.6, cstr.variable) == 0.6

    def test_projection_onto_interval(self, cstr):
        x = cstr.ctrl.ss.h(0.6)
        lo, hi = cstr.variable.cross_section_v(x)
        r = min(hi + 0.05, 0.85)
        if r > hi:
            v = command_governor(x, r, cstr.variable)
            assert v == pytest.approx(hi, abs=1e-8)

    def test_matches_dense_lattice(self, cstr):
        x, _, r = make_instances(cstr.variable, 300, seed=81)
        for i in range(300):
            v = command_governor(x[i], float(r[i]), cstr.variable)
            v_star = command_governor_grid_oracle(cstr.variable, x[i], float(r[i]))
            assert abs(v - v_star) <= 2e-6

    def test_two_stage_oracle_equals_literal_scan(self, cstr):
        x, _, r = make_instances(cstr.variable, 20, seed=85)
        for i in range(20):
            fast = command_governor_grid_oracle(cstr.variable, x[i], float(r[i]),
                                                points=100_001)
            assert fast == literal_v_scan(cstr.variable, x[i], float(r[i]), 100_001)

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    def test_is_reference_clipped_onto_slice(self, cstr, kind):
        safe_set = getattr(cstr, kind)
        x, _, r = make_instances(safe_set, 300, seed=83)
        clipped = 0
        for i in range(300):
            a, b = safe_set.cross_section_v(x[i])
            expected = min(max(float(r[i]), a), b)
            assert command_governor(x[i], float(r[i]), safe_set) == expected
            clipped += expected != r[i]
        assert clipped > 30, "instance generator produced no binding cases"

    def test_two_piece_slice_raises(self):
        pieces = SliceStub(lambda v: np.abs(v) >= 0.2)
        x = np.zeros(2)
        with pytest.raises(SliceNotIntervalError):
            pieces.cross_section_v(x)
        with pytest.raises(SliceNotIntervalError):
            command_governor(x, 0.0, pieces)
        assert command_governor(x, 0.5, pieces) == 0.5

    def test_gap_between_scan_points_raises(self):
        # the scan spacing is 1e-3, so the gap (2e-4, 4e-4) holds no scan point
        gap = SliceStub(lambda v: (v <= 2e-4) | (v >= 4e-4))
        x = np.zeros(2)
        assert gap.cross_section_v(x) == (-1.0, 1.0)
        with pytest.raises(SliceNotIntervalError, match="inside the admissible scan range"):
            command_governor(x, 3e-4, gap)
        # the lattice oracle fine-scans r's block and sees feasibility change twice
        with pytest.raises(SliceNotIntervalError, match="changes more than once"):
            command_governor_grid_oracle(gap, x, 3e-4)

    def test_agrees_with_scalar_rg_on_intervals(self, cstr):
        """When the slice is an interval containing v_prev, the segment
        maximum and the projection coincide."""
        x, v_prev, r = make_instances(cstr.variable, 300, seed=82)
        for i in range(300):
            v_seg, _ = scalar_rg(x[i], float(r[i]), float(v_prev[i]), cstr.variable)
            v_proj = command_governor(x[i], float(r[i]), cstr.variable)
            assert abs(v_seg - v_proj) <= 5e-6


class TestMaximalityCheck:
    def test_command_governor_passes(self, cstr):
        res = checks.check_governor_maximality(cstr.fixed, n_instances=60, governor="command")
        assert res["passed"], res
        assert 0.0 < res["worst_gap"]

    def test_mutated_command_governor_fails(self, cstr, monkeypatch):
        def slice_midpoint(x, r, safe_set):
            if bool(safe_set.contains(x, r)):
                return r
            a, b = safe_set.cross_section_v(x)
            return 0.5 * (a + b)

        monkeypatch.setattr(checks, "command_governor", slice_midpoint)
        res = checks.check_governor_maximality(cstr.fixed, n_instances=60, governor="command")
        assert not res["passed"]
        assert res["worst_gap"] > 1e-3 and res["counterexample"]["v_oracle"] is not None
        assert res["pass_through_failures"] == 0
        # the scalar governor's check never calls the command governor
        assert checks.check_governor_maximality(cstr.fixed, n_instances=60)["passed"]

    @pytest.mark.parametrize("name, r_at", [("command_governor", 1),
                                            ("command_governor_grid_oracle", 2)])
    def test_slice_not_interval_fails_the_check_without_raising(self, cstr, monkeypatch,
                                                                 name, r_at):
        """A slice in two pieces, met by the governor or by its lattice
        oracle, counts as a maximality failure of that instance."""
        original = getattr(checks, name)
        calls, raised = [], []

        def every_third_raises(*args, **kwargs):
            r = args[r_at]
            calls.append(r)
            if len(calls) % 3 == 0:
                raised.append(r)
                raise SliceNotIntervalError(f"two pieces at r = {r}")
            return original(*args, **kwargs)

        monkeypatch.setattr(checks, name, every_third_raises)
        res = checks.check_governor_maximality(cstr.fixed, n_instances=60, governor="command")
        assert not res["passed"]
        assert res["maximality_failures"] == len(raised) > 0
        assert res["counterexample"]["r"] == raised[0]
        assert res["counterexample"]["error"] == f"two pieces at r = {raised[0]}"
        assert res["pass_through_failures"] == 0

    def test_governor_infeasible_fails_the_check_without_raising(self, cstr, monkeypatch):
        """A state where the command governor finds no admissible reference
        counts as a maximality failure, with a counterexample."""
        calls = []

        def no_admissible_reference(x, r, safe_set):
            calls.append(r)
            raise GovernorInfeasibleError("no admissible reference at the current state")

        monkeypatch.setattr(checks, "command_governor", no_admissible_reference)
        res = checks.check_governor_maximality(cstr.fixed, n_instances=12, governor="command")
        assert not res["passed"]
        assert res["maximality_failures"] == len(calls) == 12
        assert res["counterexample"]["r"] == calls[0]
        assert res["counterexample"]["error"] == "no admissible reference at the current state"


class TestInitialization:
    def test_benchmark_start_accepted(self, cstr):
        assert initialize_governor(cstr.plant.x0, 0.6519, cstr.fixed) == 0.6519

    def test_any_steady_state_accepted(self, cstr):
        for v in (0.45, 0.6, 0.8):
            assert initialize_governor(cstr.ctrl.ss.h(v), v, cstr.fixed) == v

    def test_infeasible_start_rejected(self, cstr):
        with pytest.raises(InitializationInfeasibleError, match="exceeds level"):
            initialize_governor(np.array([0.9, 0.45]), 0.6, cstr.fixed)

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    def test_nan_start_rejected(self, cstr, kind):
        # V(x0, r0) is NaN, which no level bounds: the run must not start
        with pytest.raises(InitializationInfeasibleError):
            initialize_governor(np.array([np.nan, 0.6519]), 0.6519, getattr(cstr, kind))
