import logging
import math

import numpy as np
import pytest

from oco_rg import (
    Plant,
    SingularParameterizationError,
    StabilityEstimationError,
    SteadyStateMap,
    SynthesisError,
    TrackingController,
    build_converse_lyapunov,
    build_cstr_controller,
    build_gain_schedule,
    dare_value_iteration,
    solve_steady_state,
)
from oco_rg.plant import THETA_MIN
from oco_rg.tracking import cstr_equilibrium, cstr_steady_state_map, linearize


def scalar_riccati_oracle(a, b, q, r, iters=100_000):
    """Independent scalar fixed-point iteration of the Riccati recursion."""
    p = q
    for _ in range(iters):
        k = -(b * p * a) / (r + b * p * b)
        p_next = q + a * p * a + a * p * b * k
        if abs(p_next - p) < 1e-14:
            return p_next
        p = p_next
    return p


def pointwise_schedule_oracle(plant, ss, Q, R, grid_points, tol=1e-12, max_iter=10_000):
    """Per-point Riccati value iteration, one grid point at a time.

    Returns (Ks, Ps, iterations) from plain 2-D numpy calls in the order the
    batched solver must reproduce bit for bit.
    """
    vgrid = ss.grid(grid_points)
    Ks = np.zeros((grid_points, plant.m, plant.n))
    Ps = np.zeros((grid_points, plant.n, plant.n))
    counts = []
    for idx, v in enumerate(vgrid):
        A, B = linearize(plant, ss.h(v), ss.u_ss(v))
        Ps[idx], Ks[idx], it = riccati_loop_oracle(A, B, Q, R, tol, max_iter)
        counts.append(it)
    return Ks, Ps, counts


def riccati_loop_oracle(A, B, Q, R, tol=1e-12, max_iter=10_000):
    """One 2-D Riccati value iteration with separate products and np.linalg.solve.

    Returns (P, K, iterations).
    """
    P = Q.copy()
    for it in range(1, max_iter + 1):
        BtP = B.T @ P
        K = -np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ A + A.T @ P @ B @ K
        if np.max(np.abs(P_next - P)) < tol:
            P = 0.5 * (P_next + P_next.T)
            K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
            return 0.5 * (P + P.T), K, it
        P = P_next
    raise AssertionError(f"oracle did not converge within {max_iter} iterations")


def literal_linearization(plant, x_bar, u_bar, eps=1e-6):
    """Central differences one state at a time, each perturbed pair stepped alone."""
    A = np.zeros((plant.n, plant.n))
    for j in range(plant.n):
        d = np.zeros(plant.n)
        d[j] = eps
        A[:, j] = (plant.step(x_bar + d, u_bar) - plant.step(x_bar - d, u_bar)) / (2 * eps)
    B = (plant.step(x_bar, u_bar + eps) - plant.step(x_bar, u_bar - eps)) / (2 * eps)
    return A, B.reshape(plant.n, 1)


def make_scalar_tracking(a=0.5):
    """x+ = a x + (1 - a) v: geometric decay toward h(v) = v at rate a."""

    def step(x, u):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        if u.ndim == x.ndim - 1:
            u = u[..., None]
        return a * x + (1 - a) * u

    plant = Plant(n=1, m=1, step=step, x0=np.array([0.0]))
    ss = SteadyStateMap(h=lambda v: np.asarray(v, float)[..., None],
                        u_ss=lambda v: np.asarray(v, float),
                        v_lo=-1.0, v_hi=1.0,
                        dh=lambda v: np.ones(np.shape(v) + (1,)),
                        du_ss=lambda v: np.ones_like(np.asarray(v, float)))
    K0 = np.zeros((1, 1))
    P0 = np.eye(1)
    return TrackingController(
        plant, ss,
        lambda v: np.broadcast_to(K0, np.shape(v) + (1, 1)),
        lambda v: np.broadcast_to(P0, np.shape(v) + (1, 1)),
    )


def near_steady_states(ctrl, n=20_000, seed=11):
    """(x, v, u) for the float-path pins: n states near h(v), v uniform on
    the window plus both ends and both ends moved half the schedule's 1e-9
    tolerance outward, the first 2% with the temperature just above
    THETA_MIN, and inputs that cover the input box and beyond."""
    rng = np.random.default_rng(seed)
    lo, hi = ctrl.ss.window
    v = np.concatenate([[lo, hi, lo - 0.5e-9, hi + 0.5e-9], rng.uniform(lo, hi, n - 4)])
    x = ctrl.ss.h(v) + rng.normal(scale=0.05, size=(n, 2))
    cold = n // 50
    x[:cold, 1] = THETA_MIN * (1.0 + rng.uniform(0.0, 2.0, cold))
    return x, v, rng.uniform(-0.5, 2.5, n)


class TestSteadyStateMap:
    def test_matches_benchmark_start(self, params):
        h, u = solve_steady_state(0.6519, params)
        assert h[0] == pytest.approx(0.2632, abs=5e-5)
        assert u == pytest.approx(0.758, abs=5e-4)

    def test_residual_on_grid(self, params, cstr):
        vgrid = np.linspace(0.4, 0.85, 200)
        h, u = solve_steady_state(vgrid, params)
        res = np.linalg.norm(cstr.plant.step(h, u) - h, axis=-1)
        assert res.max() <= 1e-12

    def test_concentration_decreases_with_temperature(self, params):
        vgrid = np.linspace(0.4, 0.85, 200)
        c = solve_steady_state(vgrid, params)[0][:, 0]
        assert np.all(np.diff(c) < 0)

    def test_singular_at_coolant_pivot(self, params):
        with pytest.raises(SingularParameterizationError):
            solve_steady_state(params.x_c, params)

    def test_analytic_derivatives_match_finite_differences(self, params):
        ss = cstr_steady_state_map(params)
        eps = 1e-6
        for v in (0.45, 0.62, 0.80):
            dh_fd = (ss.h(v + eps) - ss.h(v - eps)) / (2 * eps)
            du_fd = (ss.u_ss(v + eps) - ss.u_ss(v - eps)) / (2 * eps)
            assert np.allclose(ss.dh(v), dh_fd, rtol=1e-6, atol=1e-8)
            assert ss.du_ss(v) == pytest.approx(du_fd, rel=1e-6)

    def test_scalar_path_matches_array_path(self, params):
        ss = cstr_steady_state_map(params)
        vgrid = ss.grid(2001)
        array = (ss.h(vgrid)[:, 0], ss.u_ss(vgrid), ss.dh(vgrid)[:, 0], ss.du_ss(vgrid))
        pairs = np.array([cstr_equilibrium(float(v), params, math.exp) for v in vgrid]).T
        grads = np.array([cstr_equilibrium(float(v), params, math.exp, 2) for v in vgrid]).T
        for scalar, arr in zip((*pairs, *grads), array[:2] + array):
            assert np.max(np.abs(scalar - arr) / np.abs(arr)) <= 1e-13


class TestGainSynthesis:
    def test_scalar_riccati_against_oracle(self):
        p_star = scalar_riccati_oracle(0.5, 1.0, 1.0, 1.0)
        P, K = dare_value_iteration(np.array([[0.5]]), np.array([[1.0]]),
                                    np.array([[1.0]]), np.array([[1.0]]))
        assert P[0, 0] == pytest.approx(p_star, abs=1e-10)
        # closed-form root of p^2 - 0.25 p - 1 = 0
        assert P[0, 0] == pytest.approx((0.25 + np.sqrt(0.0625 + 4.0)) / 2.0, abs=1e-10)
        assert abs(0.5 + K[0, 0]) < 0.5

    def test_no_actuation_gives_lyapunov_solution(self):
        P, K = dare_value_iteration(np.array([[0.8]]), np.array([[0.0]]),
                                    np.array([[1.0]]), np.array([[1.0]]))
        assert K[0, 0] == 0.0
        assert P[0, 0] == pytest.approx(1.0 / (1.0 - 0.64), abs=1e-10)

    def test_batch_axes_match_unbatched_calls(self):
        A = np.array([[[0.5]], [[0.9]], [[0.7]]])
        B = np.array([[[1.0]], [[0.0]], [[0.3]]])
        Q, R = np.array([[1.0]]), np.array([[1.0]])
        P, K, iters = dare_value_iteration(A, B, Q, R, return_iterations=True)
        assert P.shape == (3, 1, 1) and K.shape == (3, 1, 1) and iters.shape == (3,)
        for i in range(3):
            P1, K1 = dare_value_iteration(A[i], B[i], Q, R)
            assert np.array_equal(P[i], P1) and np.array_equal(K[i], K1)
        with pytest.raises(SynthesisError, match="within 30 iterations") as err:
            dare_value_iteration(A, B, Q, R, max_iter=30)
        assert err.value.index == (1,)

    def test_gain_is_deterministic(self, cstr, params):
        ss = cstr_steady_state_map(params, 0.55, 0.85)
        s1 = build_gain_schedule(cstr.plant, ss, np.eye(2), np.array([[0.01]]), 2)
        s2 = build_gain_schedule(cstr.plant, ss, np.eye(2), np.array([[0.01]]), 2)
        assert np.array_equal(s1.Ks, s2.Ks) and np.array_equal(s1.Ps, s2.Ps)

    @pytest.mark.parametrize("v_lo, v_hi, points, q, r", [
        (0.41, 0.85, 5, 1.0, 0.01),  # v = 0.41 converges slowest on the default grid
        (0.5, 0.8, 4, 3.0, 0.05),
        (0.4, 0.85, 181, 1.0, 0.01),  # the default grid and weights
    ])
    def test_schedule_bit_identical_to_pointwise_loop(self, cstr, params, caplog,
                                                      v_lo, v_hi, points, q, r):
        ss = cstr_steady_state_map(params, v_lo, v_hi)
        Q, R = q * np.eye(2), np.array([[r]])
        Ks, Ps, counts = pointwise_schedule_oracle(cstr.plant, ss, Q, R, points)
        with caplog.at_level(logging.INFO, logger="oco_rg"):
            sched = build_gain_schedule(cstr.plant, ss, Q, R, points)
        assert np.array_equal(sched.Ks, Ks) and np.array_equal(sched.Ps, Ps)
        slowest = int(np.argmax(counts))
        assert (f"{points} grid points, {sum(counts)} Riccati iterations, "
                f"at most {counts[slowest]} (v = {ss.grid(points)[slowest]:.6g})") in caplog.text

    def test_both_rows_of_b_bit_identical_to_literal_loop(self):
        # the reactor's B[0] is exactly 0; here every entry of B takes part
        rng = np.random.default_rng(2024)
        A = rng.normal(scale=0.4, size=(200, 2, 2))
        B = rng.uniform(0.2, 1.5, size=(200, 2, 1)) * rng.choice([-1.0, 1.0], size=(200, 2, 1))
        Q, R = np.eye(2), np.array([[0.1]])
        P, K, iters = dare_value_iteration(A, B, Q, R, return_iterations=True)
        for i in range(len(A)):
            P1, K1, it1 = riccati_loop_oracle(A[i], B[i], Q, R)
            assert np.array_equal(P[i], P1) and np.array_equal(K[i], K1) and iters[i] == it1

    def test_more_than_one_input_rejected(self):
        with pytest.raises(ValueError, match="single input, got m = 2"):
            dare_value_iteration(np.eye(2), np.eye(2), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("points", [181, 2])
    def test_batched_linearization_equals_pointwise(self, cstr, points):
        ss = cstr.ctrl.ss
        vgrid = ss.grid(points)
        A, B = linearize(cstr.plant, ss.h(vgrid), ss.u_ss(vgrid))
        assert A.shape == (points, 2, 2) and B.shape == (points, 2, 1)
        for k, v in enumerate(vgrid):
            A1, B1 = linearize(cstr.plant, ss.h(v), ss.u_ss(v))
            A2, B2 = literal_linearization(cstr.plant, ss.h(v), float(ss.u_ss(v)))
            assert np.array_equal(A[k], A1) and np.array_equal(B[k], B1)
            assert np.array_equal(A[k], A2) and np.array_equal(B[k], B2)

    def test_non_convergence_names_lowest_grid_point(self, cstr, params):
        # unit input weight: the lowest failing point of the default grid
        with pytest.raises(SynthesisError) as err:
            build_cstr_controller(cstr.plant, params, lqr_r=1.0)
        assert str(err.value) == ("gain synthesis failed at v = 0.4225: Riccati value "
                                  "iteration did not converge within 10000 iterations")
        assert err.value.index == (9,)

    def test_schedule_stabilizes_on_grid(self, cstr):
        for v in np.linspace(0.4, 0.85, 100):
            A, B = linearize(cstr.plant, cstr.ctrl.ss.h(v), cstr.ctrl.ss.u_ss(v))
            A_cl = A + B @ cstr.ctrl.gain(v)
            assert np.abs(np.linalg.eigvals(A_cl)).max() < 1.0

    def test_lyap_weight_positive_definite(self, cstr):
        vgrid = np.linspace(0.4, 0.85, 181)
        P = cstr.ctrl.lyap_weight(vgrid)
        assert np.linalg.eigvalsh(P).min() > 0.0
        assert np.allclose(P, np.swapaxes(P, -1, -2))


class TestScalarTwin:
    """One 1-D state with a float reference goes through the reactor's
    plain-float twin, which must give the array path's bits."""

    def test_feedback_equals_array_feedback(self, cstr):
        x, v, _ = near_steady_states(cstr.ctrl)
        array = cstr.ctrl.feedback(x, v)
        mismatches = [k for k in range(v.size)
                      if cstr.ctrl.feedback(x[k], float(v[k])) != array[k]]
        assert mismatches == []

    def test_one_state_lyapunov_equals_array_lyapunov(self, cstr):
        # the batched einsum sums in another order, so compare one state at a time
        x, v, _ = near_steady_states(cstr.ctrl)
        mismatches = [k for k in range(v.size)
                      if cstr.ctrl.lyapunov(x[k], float(v[k]))
                      != cstr.ctrl.lyapunov(x[k], np.asarray(v[k]))]
        assert mismatches == []

    def test_twin_serves_only_one_state_with_a_float(self, cstr):
        ctrl = cstr.ctrl
        assert type(ctrl.feedback(ctrl.ss.h(0.6), 0.6)) is float
        assert type(ctrl.lyapunov(ctrl.ss.h(0.6), 0.6)) is float
        for x, v in [(ctrl.ss.h(0.6), np.asarray(0.6)), (ctrl.ss.h([0.6, 0.7]), 0.6),
                     (list(ctrl.ss.h(0.6)), 0.6)]:
            assert type(ctrl.feedback(x, v)) is not float

    @pytest.mark.parametrize("v", [0.4 - 1e-6, 0.85 + 1e-6, math.nan])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_float_paths_raise_as_array_paths(self, cstr, v):
        ctrl, x = cstr.ctrl, cstr.ctrl.ss.h(0.6)
        for method in (ctrl.feedback, ctrl.lyapunov):
            with pytest.raises(Exception) as array_error:
                method(x, np.asarray(v))
            with pytest.raises(type(array_error.value)):
                method(x, v)

    def test_twin_feedback_singular_at_coolant_pivot(self, cstr, params):
        with pytest.raises(SingularParameterizationError):
            solve_steady_state(params.x_c, params)
        with pytest.raises(SingularParameterizationError):
            cstr.ctrl.scalar_schedule.feedback(np.array([0.5, 0.5]), params.x_c)


class TestRollout:
    def test_constant_at_fixed_point(self, cstr, params):
        h, _ = solve_steady_state(0.6519, params)
        seq = cstr.ctrl.rollout(h, 0.6519, 100)
        assert np.linalg.norm(seq - h, axis=-1).max() <= 1e-6

    def test_zero_steps(self, cstr):
        x = np.array([0.3, 0.6])
        seq = cstr.ctrl.rollout(x, 0.6, 0)
        assert seq.shape == (1, 2)
        assert np.array_equal(seq[0], x)

    def test_benchmark_start_near_its_steady_state(self, cstr):
        # the configured start is the steady state at 0.6519 up to the
        # 4-digit rounding of its concentration entry
        assert np.linalg.norm(cstr.plant.x0 - cstr.ctrl.ss.h(0.6519)) < 5e-5
        seq = cstr.ctrl.rollout(cstr.plant.x0, 0.6519, 100)
        h = cstr.ctrl.ss.h(0.6519)
        assert np.linalg.norm(seq - h, axis=-1).max() <= 1e-4


class TestQuadraticDecrease:
    def test_decrease_inside_fixed_set(self, cstr):
        from oco_rg import sample_safe_states
        rng = np.random.default_rng(7)
        x, v = sample_safe_states(cstr.fixed, 1000, rng)
        V0 = cstr.ctrl.lyapunov(x, v)
        V1 = cstr.ctrl.lyapunov(cstr.ctrl.closed_loop(x, v), v)
        gap = np.linalg.norm(x - cstr.ctrl.ss.h(v), axis=-1)
        assert np.all(V1 <= V0 + 1e-12)
        strict = gap > 1e-8
        assert np.all(V1[strict] < V0[strict])


class TestConverseLyapunov:
    def test_scalar_construction(self):
        ctrl = make_scalar_tracking(a=0.5)
        con = build_converse_lyapunov(ctrl, c_phi=1.0, lam=0.5)
        # margin rule: smallest N with 0.5^N strictly below 1/2 is N = 2
        assert con.N == 2
        assert con.lam1 == 1.0
        assert con.lam2 == pytest.approx(2.0)
        assert con.lam3 == pytest.approx(0.75)
        x = np.array([0.8])
        assert con.evaluate(x, 0.0) == pytest.approx(1.5 * 0.8)

    def test_zero_at_fixed_point(self):
        ctrl = make_scalar_tracking()
        con = build_converse_lyapunov(ctrl, c_phi=1.0, lam=0.5)
        assert con.evaluate(np.array([0.3]), 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_sandwich_and_decrease_on_batch(self):
        ctrl = make_scalar_tracking(a=0.5)
        con = build_converse_lyapunov(ctrl, c_phi=1.0, lam=0.5)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(200, 1))
        v = rng.uniform(-0.5, 0.5, size=200)
        gap = np.abs(x[:, 0] - v)
        val = con.evaluate(x, v)
        nxt = con.evaluate(ctrl.closed_loop(x, v), v)
        assert np.all(val >= gap - 1e-12)
        assert np.all(val <= con.lam2 * gap + 1e-12)
        assert np.all(nxt - val <= -con.lam3 * gap + 1e-12)

    def test_rejects_non_contractive_rate(self):
        ctrl = make_scalar_tracking()
        with pytest.raises(StabilityEstimationError):
            build_converse_lyapunov(ctrl, c_phi=1.0, lam=1.0)
        with pytest.raises(StabilityEstimationError):
            build_converse_lyapunov(ctrl, c_phi=0.5, lam=0.5)


class TestLipschitzStability:
    def test_estimates_stable_under_refinement(self, cstr):
        from oco_rg.harness import max_difference_quotient
        grids = {}
        for pts in (100, 200):
            vg = np.linspace(0.4, 0.85, pts)
            grids[pts] = max_difference_quotient(cstr.ctrl.ss.h(vg), vg)
        assert grids[200] == pytest.approx(grids[100], rel=0.10)

    def test_feedback_estimates_stable_under_refinement(self, cstr):
        from oco_rg.harness import estimate_system_lipschitz, safe_state_box
        box = safe_state_box(cstr.variable)
        coarse = estimate_system_lipschitz(cstr.ctrl, box, x_pts=7, v_pts=13)
        fine = estimate_system_lipschitz(cstr.ctrl, box, x_pts=9, v_pts=17)
        for a, b in zip(coarse, fine):
            assert b == pytest.approx(a, rel=0.10)
            assert np.isfinite(b)
