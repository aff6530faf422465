import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oco_rg import (
    CstrCostSchedule,
    InstrumentedCost,
    OcoState,
    SteadyStateCost,
    benchmark_reference,
    golden_section,
    ogd_step,
    prev_opt_step,
    q_linear_regret_constants,
)
from oco_rg.oco import project_window


def frozen_cost(ctrl, q, cbar):
    sched = CstrCostSchedule(horizon=10, q_offset=q, q_amplitude=0.0,
                             cbar_initial=cbar, cbar_high=cbar, cbar_final=cbar)
    return SteadyStateCost(sched, ctrl)


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

    def test_plateau_detection(self, cstr):
        assert cstr.schedule.plateaus() == [(900, 1800)]


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


class TestBenchmark:
    def test_quadratic_toy(self):
        class Quad:
            window = (0.4, 0.85)

            def eval(self, t, v):
                return (np.asarray(v, float) - 0.57) ** 2

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
        class Slope:
            window = (0.4, 0.85)

            def eval(self, t, v):
                return -np.asarray(v, float)  # decreasing: optimum at v_hi

        assert benchmark_reference(Slope(), 0) == pytest.approx(0.85, abs=1e-9)

        class Rise:
            window = (0.4, 0.85)

            def eval(self, t, v):
                return np.asarray(v, float)

        assert benchmark_reference(Rise(), 0) == pytest.approx(0.4, abs=1e-9)


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
        assert c.c_oco == 0.0
        assert c.c_oco_patched == pytest.approx(3.0)
        assert c.c_pl0 == pytest.approx(1.0)
        assert c.c_pl == 0.0

    def test_half_contraction_identity_weight(self):
        c = q_linear_regret_constants(l_s=2.0, kappa=0.5)
        # kappa/(1-kappa) = 1, so the variation constant equals l_s
        assert c.c_oco == pytest.approx(2.0)
        assert c.c_oco0 == pytest.approx(4.0)
        assert c.c_pl == pytest.approx((1.5 / 2.0) * 2.0)

    def test_weighting_matrix_norms(self):
        S = np.diag([4.0, 0.25])
        c = q_linear_regret_constants(l_s=1.0, kappa=0.5, S=S)
        # ||S^{1/2}|| = 2, ||S^{-1/2}|| = 2
        assert c.c_oco == pytest.approx(1.0 * 2.0 * 1.0 * 2.0)

    def test_rejects_unit_contraction(self):
        with pytest.raises(ValueError):
            q_linear_regret_constants(1.0, 1.0)

    def test_measured_ogd_contraction_below_one(self, certificate):
        assert certificate.kappa_ogd is not None
        assert certificate.kappa_ogd < 1.0
