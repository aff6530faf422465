import numpy as np
import pytest

from oco_rg import (
    CstrParams,
    PlantDomainError,
    cstr_continuous_rhs,
    cstr_plant,
    shift_register_plant,
)


def steady_pair(v, p: CstrParams):
    """Independent oracle: concentration balance in closed form, then a
    linear solve of the temperature balance for the coolant rate."""
    c = 1.0 / (1.0 + p.theta_f * p.k_rate * np.exp(-p.M_act / v))
    u = ((p.x_f - v) / p.theta_f + p.k_rate * c * np.exp(-p.M_act / v)) / (
        p.alpha_f * (v - p.x_c)
    )
    return np.array([c, v]), u


class TestCstrRhs:
    def test_vanishes_at_steady_pair(self, params):
        x, u = steady_pair(0.6519, params)
        assert u == pytest.approx(0.7583, abs=5e-4)
        res = cstr_continuous_rhs(x, u, params)
        assert np.linalg.norm(res) < 1e-9

    def test_full_concentration_kills_feed_term(self, params):
        # at c = 1 the feed term vanishes, leaving only the reaction drain
        for theta, u in [(0.5, 0.0), (0.7, 1.3)]:
            dc = cstr_continuous_rhs([1.0, theta], u, params)[0]
            assert dc == pytest.approx(-params.k_rate * np.exp(-params.M_act / theta))

    def test_zero_concentration_at_feed_temperature(self, params):
        ders = cstr_continuous_rhs([0.0, params.x_f], 0.0, params)
        assert ders[0] == pytest.approx(1.0 / params.theta_f)
        assert ders[1] == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nonpositive_temperature(self, params):
        with pytest.raises(PlantDomainError):
            cstr_continuous_rhs([0.5, 0.0], 0.0, params)
        with pytest.raises(PlantDomainError):
            cstr_continuous_rhs([0.5, -0.2], 0.0, params)

    def test_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            CstrParams(theta_f=0.0)


class TestEulerStep:
    def test_steady_pair_is_fixed_point(self, params):
        plant = cstr_plant(params)
        for v in np.linspace(0.4, 0.85, 200):
            x, u = steady_pair(v, params)
            assert np.linalg.norm(plant.step(x, u) - x) <= 1e-9

    def test_zero_tau_keeps_state(self, params):
        frozen = cstr_plant(CstrParams(tau=1e-300))
        x = np.array([0.3, 0.6])
        assert np.allclose(frozen.step(x, 0.5), x, atol=1e-12)

    def test_matches_plant_step(self, params):
        plant = cstr_plant(params)
        x = np.array([0.3, 0.6])
        euler = x + params.tau * cstr_continuous_rhs(x, 0.7, params)
        assert np.array_equal(euler, plant.step(x, 0.7))

    def test_step_is_deterministic(self, params):
        plant = cstr_plant(params)
        x = np.array([0.41, 0.77])
        a = plant.step(x, 1.1)
        b = plant.step(x, 1.1)
        assert np.array_equal(a, b)


class TestShiftRegister:
    def test_one_slot_register(self):
        plant = shift_register_plant(1)
        assert plant.step(np.array([3.0]), 2.0) == pytest.approx([2.0])

    def test_shift_semantics(self):
        plant = shift_register_plant(2)
        out = plant.step(np.array([1.0, 2.0]), 3.0)
        assert out.tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_deadbeat_to_stacked_reference(self, p):
        plant = shift_register_plant(p)
        x = np.arange(1.0, p + 1.0)
        v = 0.25
        for _ in range(p):
            x = plant.step(x, v)
        assert np.array_equal(x, np.full(p, v))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            shift_register_plant(0)

    def test_batched_step(self):
        plant = shift_register_plant(2)
        xs = np.array([[1.0, 2.0], [5.0, 6.0]])
        us = np.array([3.0, 7.0])
        out = plant.step(xs, us)
        assert out.tolist() == [[2.0, 3.0], [6.0, 7.0]]

    @pytest.mark.parametrize("p", [1, 3])
    def test_deadbeat_property_random(self, p):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        plant = shift_register_plant(p)

        @given(st.lists(st.floats(-5, 5), min_size=p, max_size=p),
               st.floats(-5, 5))
        @settings(max_examples=60, deadline=None)
        def run(entries, v):
            x = np.array(entries)
            for _ in range(p):
                x = plant.step(x, v)
            assert np.array_equal(x, np.full(p, v))

        run()


class TestConstraintPolytope:
    def test_box_membership_and_margins(self, cstr):
        poly = cstr.poly
        assert poly.worst_raw_margin([0.5, 0.5], 1.0) >= 0.0
        assert poly.worst_raw_margin([1.1, 0.5], 1.0) < 0.0
        # worst margin is the distance to the nearest face
        assert poly.worst_raw_margin([0.5, 0.7], 1.9) == pytest.approx(0.1)

    def test_membership_iff_all_margins_nonnegative(self, cstr):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.floats(-0.2, 1.2), st.floats(0.1, 1.2), st.floats(-0.5, 2.5))
        @settings(max_examples=150, deadline=None)
        def run(c, theta, u):
            x = np.array([c, theta])
            margins = cstr.poly.raw_margins(x, u)
            assert (cstr.poly.worst_raw_margin(x, u) >= 0.0) == bool(np.all(margins >= 0.0))

        run()

    def test_closed_loop_rows_match_direct_check(self, cstr):
        v = 0.62
        h_v = cstr.ctrl.ss.h(v)
        K_v = cstr.ctrl.gain(v)
        u_v = cstr.ctrl.ss.u_ss(v)
        G, margins = cstr.poly.rows_at(h_v, u_v, K_v)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = h_v + rng.uniform(-0.05, 0.05, 2)
            direct = cstr.poly.worst_raw_margin(x, cstr.ctrl.feedback(x, v)) >= 0.0
            via_rows = bool(np.all(G @ (x - h_v) <= margins + 1e-12))
            assert direct == via_rows

    def test_rows_broadcast_over_references(self, cstr):
        vgrid = np.linspace(0.4, 0.85, 7)
        ss, ctrl = cstr.ctrl.ss, cstr.ctrl
        G, margins = cstr.poly.rows_at(ss.h(vgrid), ss.u_ss(vgrid), ctrl.gain(vgrid))
        assert G.shape == (7, cstr.poly.n_rows, 2) and margins.shape == (7, cstr.poly.n_rows)
        for i, v in enumerate(vgrid):
            G_i, m_i = cstr.poly.rows_at(ss.h(v), ss.u_ss(v), ctrl.gain(v))
            assert np.array_equal(G[i], G_i) and np.array_equal(margins[i], m_i)
