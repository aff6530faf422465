import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oco_rg import (
    CstrCostSchedule,
    InstrumentedCost,
    MemoryCostSchedule,
    OcoState,
    SteadyStateCost,
    TrackingController,
    benchmark_reference,
    golden_section,
    ogd_step,
    prev_opt_step,
    q_linear_regret_constants,
    register_controller,
    shift_register_plant,
)
from oco_rg.checks import check_causality
from oco_rg.oco import GOLDEN, project_window


def frozen_cost(ctrl, q, cbar):
    sched = CstrCostSchedule(horizon=10, q_offset=q, q_amplitude=0.0,
                             cbar_initial=cbar, cbar_high=cbar, cbar_final=cbar)
    return SteadyStateCost(sched, ctrl)


def register_cost(p, horizon=300, target_amplitude=0.6):
    ctrl = register_controller(shift_register_plant(p), -0.9, 0.9)
    sched = MemoryCostSchedule(horizon=horizon, p=p, target_amplitude=target_amplitude)
    return SteadyStateCost(sched, ctrl)


def loop_golden_section(f, a, b, tol=1e-10):
    """The golden-section loop as it was written before it became a generator."""
    c1 = b - GOLDEN * (b - a)
    c2 = a + GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    while b - a > tol:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - GOLDEN * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + GOLDEN * (b - a)
            f2 = f(c2)
    return 0.5 * (a + b)


class Toy:
    """Cost double on the reactor window: ``eval`` plus the uniform-grid ``scan``."""

    window = (0.4, 0.85)

    def scan(self, t, points):
        grid = np.linspace(*self.window, points)
        return grid, self.eval(t, grid)


class Quad(Toy):
    def eval(self, t, v):
        return (np.asarray(v, float) - 0.57) ** 2


class Slope(Toy):
    def eval(self, t, v):
        return -np.asarray(v, float)  # decreasing: optimum at v_hi


class Rise(Toy):
    def eval(self, t, v):
        return np.asarray(v, float)


class TestSchedule:
    def test_weight_range_over_run(self, cstr):
        q = np.array([cstr.schedule.weight(t) for t in range(2400)])
        assert q.min() == pytest.approx(50.0, abs=0.5)
        assert q.max() == pytest.approx(250.0, abs=0.5)
        assert np.all((q >= 50.0 - 1e-9) & (q <= 250.0 + 1e-9))

    def test_target_piecewise_breakpoints(self, cstr):
        sched = cstr.schedule
        assert sched.target(0) == pytest.approx(0.27)
        assert sched.target(899) == pytest.approx(0.65, abs=5e-4)
        assert sched.target(900) == pytest.approx(0.65)
        assert sched.target(1799) == pytest.approx(0.65)
        assert sched.target(2399) == pytest.approx(0.3, abs=1e-3)
        targets = [sched.target(t) for t in range(2400)]
        assert min(targets) >= 0.25 and max(targets) <= 0.65


class TestSteadyStateCost:
    def test_zero_cost_hypothetical(self, cstr):
        """If the target equals the steady concentration and the steady input
        were zero, both terms vanish; emulate by direct evaluation."""
        v = 0.6
        c_v = cstr.ctrl.ss.h(v)[0]
        cost = frozen_cost(cstr.ctrl, q=50.0, cbar=float(c_v))
        u_v = float(cstr.ctrl.ss.u_ss(v))
        assert cost.eval(0, v) == pytest.approx(u_v**2)

    @pytest.mark.parametrize("q,cbar,minimizer", [
        (50.0, 0.3, 0.64),
        (150.0, 0.5, 0.57),
        (250.0, 0.65, 0.54),
        (50.0, 0.65, 0.53),
    ])
    def test_minimizers_match_reference_curves(self, cstr, q, cbar, minimizer):
        cost = frozen_cost(cstr.ctrl, q, cbar)
        eta = benchmark_reference(cost, 0)
        assert eta == pytest.approx(minimizer, abs=0.006)

    def test_gradient_matches_finite_differences(self, cstr):
        cost = frozen_cost(cstr.ctrl, 150.0, 0.5)
        for r in (0.45, 0.5, 0.7, 0.84):
            fd = (float(cost.eval(0, r + 1e-6)) - float(cost.eval(0, r - 1e-6))) / 2e-6
            g = float(cost.grad(0, r))
            assert g == pytest.approx(fd, rel=1e-4)

    def test_lipschitz_budget(self, cstr, certificate):
        assert certificate.l_s <= certificate.l_s_bound + 1e-6

    def test_float_paths_never_reach_the_array_map(self, cstr):
        """A reactor cost evaluates float references and lanes through the
        controller's plain-float twin.  A fall-back to the array map changes
        only the last bits, so count the map's calls instead."""
        calls = []

        def counted(fn):
            def wrapper(v):
                calls.append(fn.__name__)
                return fn(v)
            return wrapper

        def rebuilt(ctrl):
            ss = dataclasses.replace(ctrl.ss, h=counted(ctrl.ss.h), u_ss=counted(ctrl.ss.u_ss))
            return TrackingController(ctrl.plant, ss, ctrl.gain, ctrl.lyap_weight,
                                      scalar_schedule=ctrl.scalar_schedule)

        cost = SteadyStateCost(cstr.schedule, rebuilt(cstr.ctrl))
        plain = SteadyStateCost(cstr.schedule, cstr.ctrl)
        t, v = np.array([3, 900, 2399]), np.array([0.45, 0.61, 0.8])
        assert cost.eval(5, 0.61) == plain.eval(5, 0.61)
        assert cost.eval(5, np.float64(0.61)) == plain.eval(5, 0.61)
        assert cost.grad(5, 0.61) == plain.grad(5, 0.61)
        assert cost.eval(t, v).tolist() == plain.eval(t, v).tolist()
        assert calls == []
        cost.eval(5, v)
        assert calls == ["h", "u_ss"]
        calls.clear()
        register = register_cost(2)
        SteadyStateCost(register.schedule, rebuilt(register.ctrl)).eval(5, 0.3)
        assert calls == ["h", "u_ss"]


class TestBenchmark:
    def test_quadratic_toy(self):
        assert benchmark_reference(Quad(), 0) == pytest.approx(0.57, abs=1e-9)

    def test_grid_optimality(self, cstr):
        cost = SteadyStateCost(cstr.schedule, cstr.ctrl)
        vgrid = np.linspace(0.4, 0.85, 500)
        for t in (0, 600, 1200, 2399):
            eta = benchmark_reference(cost, t)
            best = float(cost.eval(t, eta))
            assert best <= float(np.min(cost.eval(t, vgrid))) + 1e-9

    def test_golden_section_on_cosine(self):
        # value-only search localizes a smooth minimum to ~sqrt(eps)
        got = golden_section(math.cos, 2.0, 4.5, tol=1e-12)
        assert got == pytest.approx(math.pi, abs=5e-8)

    def test_boundary_minimizer_clamps(self):
        assert benchmark_reference(Slope(), 0) == pytest.approx(0.85, abs=1e-9)
        assert benchmark_reference(Rise(), 0) == pytest.approx(0.4, abs=1e-9)

    @pytest.mark.parametrize("f, a, b, tol", [
        (math.cos, 2.0, 4.5, 1e-12),
        (math.cos, 2.0, 4.5, 1e-10),
        (lambda v: max(abs(v - 0.5) - 0.1, 0.0), 0.0, 1.0, 1e-10),  # flat on [0.4, 0.6]
        (lambda v: 1.0, 0.3, 0.9, 1e-10),
    ], ids=["cos-1e-12", "cos", "flat-minimum", "constant"])
    def test_golden_section_equals_the_loop(self, f, a, b, tol):
        assert golden_section(f, a, b, tol) == loop_golden_section(f, a, b, tol)

    def test_index_array_equals_per_index_calls_on_reactor(self, cstr):
        # ramp [0, 100), plateau [100, 200) and descent [200, 300) all in one run
        sched = CstrCostSchedule(horizon=300, q_period=300, ramp_end=100, plateau_end=200)
        cost = SteadyStateCost(sched, cstr.ctrl)
        etas = benchmark_reference(cost, np.arange(300))
        assert etas.shape == (300,)
        assert np.array_equal(etas, [benchmark_reference(cost, t) for t in range(300)])

    @pytest.mark.parametrize("p, amplitude", [(1, 0.6), (3, 0.6), (1, 1.2)],
                             ids=["p1", "p3", "p1-target-leaves-window"])
    def test_index_array_equals_per_index_calls_on_register(self, p, amplitude):
        # a target beyond the window puts some optima on its edge, where the
        # bracket is one cell wide and those lanes finish rounds earlier
        cost = register_cost(p, target_amplitude=amplitude)
        etas = benchmark_reference(cost, np.arange(300))
        assert np.array_equal(etas, [benchmark_reference(cost, t) for t in range(300)])

    @pytest.mark.parametrize("cost", [Quad(), Slope(), Rise()], ids=["quad", "slope", "rise"])
    def test_duck_typed_costs_take_index_arrays(self, cost):
        one = benchmark_reference(cost, 3)
        assert np.array_equal(benchmark_reference(cost, np.arange(4)), np.full(4, one))

    @pytest.mark.parametrize("kind", ["reactor", "register"])
    def test_lane_evaluation_equals_scalar_calls(self, cstr, kind):
        t = np.array([0, 450, 901, 1799, 2399])
        if kind == "reactor":
            cost, v = SteadyStateCost(cstr.schedule, cstr.ctrl), [0.4, 0.55, 0.6, 0.7, 0.85]
        else:
            cost, v = register_cost(3, horizon=2400), [-0.9, -0.2, 0.0, 0.3, 0.9]
        lanes = cost.eval(t, np.array(v))
        assert lanes.shape == (5,)
        assert lanes.tolist() == [float(cost.eval(i, w)) for i, w in zip(t.tolist(), v)]

class TestOgd:
    def test_zero_gradient_is_fixed_point(self, cstr):
        cost = frozen_cost(cstr.ctrl, 150.0, 0.5)
        eta = benchmark_reference(cost, 0)
        state = OcoState(r_prev=eta)
        r = ogd_step(state, cost, 1)
        assert r == pytest.approx(eta, abs=1e-9)

    def test_projection_clamps_to_window(self, cstr):
        cost = frozen_cost(cstr.ctrl, 250.0, 0.65)
        state = OcoState(r_prev=0.4, gamma=10.0)  # huge step
        r = ogd_step(state, cost, 1)
        assert 0.4 <= r <= 0.85

    def test_rejects_time_zero(self, cstr):
        cost = frozen_cost(cstr.ctrl, 150.0, 0.5)
        with pytest.raises(ValueError):
            ogd_step(OcoState(r_prev=0.5), cost, 0)


class TestPrevOpt:
    def test_constant_costs_give_constant_reference(self, cstr):
        cost = frozen_cost(cstr.ctrl, 150.0, 0.5)
        eta = benchmark_reference(cost, 0)
        state = OcoState(r_prev=0.8)
        rs = [prev_opt_step(state, cost, t) for t in range(1, 5)]
        assert np.allclose(rs, eta, atol=1e-9)

    def test_q_linear_with_zero_factor(self, cstr):
        """r_t = eta_{t-1} exactly, the zero-contraction special case."""
        cost = SteadyStateCost(cstr.schedule, cstr.ctrl)
        state = OcoState(r_prev=0.6519)
        for t in range(1, 6):
            r = prev_opt_step(state, cost, t)
            eta_prev = benchmark_reference(cost, t - 1)
            assert abs(r - eta_prev) <= 1e-12


class TestCausality:
    def test_all_accesses_are_strictly_past(self, cstr):
        inst = InstrumentedCost(SteadyStateCost(cstr.schedule, cstr.ctrl))
        ogd = OcoState(r_prev=0.6519)
        prev = OcoState(r_prev=0.6519)
        for t in range(1, 40):
            inst.now = t
            ogd_step(ogd, inst, t)
            prev_opt_step(prev, inst, t)
        assert inst.accesses, "no accesses recorded"
        assert all(idx < now for now, idx in inst.accesses)

    def test_lane_call_logs_every_index(self, cstr):
        inst = InstrumentedCost(SteadyStateCost(cstr.schedule, cstr.ctrl))
        inst.now = 5
        vals = inst.eval(np.array([1, 4, 7]), np.array([0.5, 0.6, 0.7]))
        assert vals.shape == (3,)
        assert inst.accesses == [(5, 1), (5, 4), (5, 7)]
        log = check_causality(SimpleNamespace(causality_log=tuple(inst.accesses)))
        assert not log["passed"] and log["violations"] == [(5, 7)]

    def test_oracle_through_the_view_logs_each_lane(self, cstr):
        inst = InstrumentedCost(SteadyStateCost(cstr.schedule, cstr.ctrl))
        inst.now = 3
        benchmark_reference(inst, np.arange(3))
        assert {idx for _, idx in inst.accesses} == {0, 1, 2}
        assert check_causality(SimpleNamespace(causality_log=tuple(inst.accesses)))["passed"]
        inst.now = 2
        benchmark_reference(inst, np.arange(3))
        assert not check_causality(SimpleNamespace(causality_log=tuple(inst.accesses)))["passed"]


class TestProjection:
    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, v):
        window = (0.4, 0.85)
        once = project_window(v, window)
        assert 0.4 <= once <= 0.85
        assert project_window(once, window) == once


class TestQLinearConstants:
    def test_zero_contraction(self):
        c = q_linear_regret_constants(l_s=3.0, kappa=0.0)
        assert c.c_oco0 == pytest.approx(3.0)
        assert c.c_oco_patched == pytest.approx(3.0)
        assert c.c_pl0 == pytest.approx(1.0)

    def test_half_contraction_identity_weight(self):
        c = q_linear_regret_constants(l_s=2.0, kappa=0.5)
        # kappa/(1-kappa) = 1, so the initial-gap constant is 2 l_s
        assert c.c_oco0 == pytest.approx(4.0)

    def test_rejects_unit_contraction(self):
        with pytest.raises(ValueError):
            q_linear_regret_constants(1.0, 1.0)

    def test_measured_ogd_contraction_below_one(self, certificate):
        assert certificate.kappa_ogd is not None
        assert certificate.kappa_ogd < 1.0
