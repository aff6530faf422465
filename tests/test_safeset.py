import numpy as np
import pytest

from oco_rg import (
    ConstraintPolytope,
    Plant,
    ReferenceInfeasibleError,
    ReferenceWindowError,
    SteadyStateMap,
    TrackingController,
    calibrate_fixed_level,
    compute_gamma,
    sample_safe_states,
)


def identity_tracking(n=2, margin_rows=None):
    """Trivial plant with h(v) = 0, u_ss = 0, K = 0, P = I for formula tests."""
    plant = Plant(n=n, m=1, step=lambda x, u: np.asarray(x, float), x0=np.zeros(n))
    ss = SteadyStateMap(
        h=lambda v: np.zeros(np.shape(v) + (n,)),
        u_ss=lambda v: np.zeros_like(np.asarray(v, float)),
        v_lo=-1.0, v_hi=1.0,
        dh=lambda v: np.zeros(np.shape(v) + (n,)),
        du_ss=lambda v: np.zeros_like(np.asarray(v, float)))
    return TrackingController(
        plant, ss,
        lambda v: np.broadcast_to(np.zeros((1, n)), np.shape(v) + (1, n)),
        lambda v: np.broadcast_to(np.eye(n), np.shape(v) + (n, n)))


class TestGammaFormula:
    def test_single_row_identity_weight(self):
        # row [1, 0] with margin 0.1 under P = I: level (0.1 / 1)^2
        ctrl = identity_tracking()
        poly = ConstraintPolytope(Ax=np.array([[1.0, 0.0]]), Au=np.zeros((1, 1)),
                                  b=np.array([0.1]))
        assert compute_gamma(0.0, poly, ctrl) == pytest.approx(0.01)

    def test_margin_scaling_is_quadratic(self):
        ctrl = identity_tracking()
        poly1 = ConstraintPolytope(np.array([[1.0, 0.0]]), np.zeros((1, 1)), np.array([0.1]))
        poly2 = ConstraintPolytope(np.array([[1.0, 0.0]]), np.zeros((1, 1)), np.array([0.2]))
        g1 = compute_gamma(0.0, poly1, ctrl)
        g2 = compute_gamma(0.0, poly2, ctrl)
        assert g2 == pytest.approx(4.0 * g1)

    def test_infeasible_margin_raises(self):
        ctrl = identity_tracking()
        poly = ConstraintPolytope(np.array([[1.0, 0.0]]), np.zeros((1, 1)),
                                  np.array([-0.05]), row_labels=("x0<=hi",))
        with pytest.raises(ReferenceInfeasibleError):
            compute_gamma(0.0, poly, ctrl)

    def test_rows_without_state_dependence_are_skipped(self):
        ctrl = identity_tracking()
        poly = ConstraintPolytope(Ax=np.zeros((1, 2)), Au=np.array([[1.0]]),
                                  b=np.array([0.5]))
        assert np.isinf(compute_gamma(0.0, poly, ctrl))

    def test_level_boundary_satisfies_every_row(self, cstr):
        """Rejection-sample the level ellipsoid boundary; all rows must hold."""
        rng = np.random.default_rng(99)
        v = rng.uniform(0.4, 0.85, 10_000)
        gamma = compute_gamma(v, cstr.poly, cstr.ctrl)
        P = cstr.ctrl.lyap_weight(v)
        evals, evecs = np.linalg.eigh(P)
        inv_half = np.einsum("nij,nj,nkj->nik", evecs, 1.0 / np.sqrt(evals), evecs)
        ang = rng.uniform(0.0, 2.0 * np.pi, v.size)
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        x = cstr.ctrl.ss.h(v) + np.sqrt(gamma)[:, None] * np.einsum(
            "nij,nj->ni", inv_half, ring)
        u = cstr.ctrl.feedback(x, v)
        margins = cstr.poly.raw_margins(x, u)
        assert margins.min() >= -1e-9


class TestFixedLevelCalibration:
    def test_single_row_constant_margin(self):
        ctrl = identity_tracking()
        poly = ConstraintPolytope(np.array([[1.0, 0.0]]), np.zeros((1, 1)), np.array([0.1]))
        V_max, cert = calibrate_fixed_level(poly, ctrl, np.linspace(-1, 1, 11))
        assert V_max == pytest.approx(0.01)
        assert cert.V_max == V_max
        assert cert.delta == pytest.approx(0.1)

    def test_cstr_level_order_of_magnitude(self, cstr):
        V_max = cstr.fixed.certificate.V_max
        # reference point 0.0135 from the benchmark write-up; controller
        # synthesis differs, so only the order of magnitude is pinned
        assert 0.00135 < V_max < 0.135

    def test_certificate_ordering(self, cstr):
        cert = cstr.fixed.certificate
        assert cert.V_max <= cert.gamma_max
        assert cert.delta > 0.0
        assert cert.k_star is None or cert.k_star >= 0

    def test_grid_refinement_stability(self, cstr):
        grid181 = cstr.ctrl.ss.grid(181)
        grid361 = cstr.ctrl.ss.grid(361)
        v1, _ = calibrate_fixed_level(cstr.poly, cstr.ctrl, grid181)
        v2, _ = calibrate_fixed_level(cstr.poly, cstr.ctrl, grid361)
        assert abs(v2 - v1) / v1 < 0.05

    def test_empty_grid_rejected(self, cstr):
        with pytest.raises(ValueError):
            calibrate_fixed_level(cstr.poly, cstr.ctrl, np.array([]))


class TestMembership:
    def test_steady_state_always_contained(self, cstr):
        for v in np.linspace(0.4, 0.85, 50):
            assert cstr.fixed.contains(cstr.ctrl.ss.h(v), v)
            assert cstr.variable.contains(cstr.ctrl.ss.h(v), v)

    def test_strict_thresholding(self, cstr):
        v = 0.6
        lev = float(cstr.fixed.level(v))
        P = cstr.ctrl.lyap_weight(v)
        direction = np.array([1.0, 0.0])
        scale = np.sqrt(lev / (direction @ P @ direction))
        inside = cstr.ctrl.ss.h(v) + scale * direction * (1.0 - 1e-9)
        outside = cstr.ctrl.ss.h(v) + scale * direction * (1.0 + 1e-9)
        assert cstr.fixed.contains(inside, v)
        assert not cstr.fixed.contains(outside, v)

    def test_window_enforced(self, cstr):
        with pytest.raises(ReferenceWindowError):
            cstr.fixed.contains(np.array([0.3, 0.6]), 0.95)

    def test_forward_invariance_sampled(self, cstr):
        rng = np.random.default_rng(5)
        for safe_set in (cstr.fixed, cstr.variable):
            x, v = sample_safe_states(safe_set, 1000, rng)
            assert np.all(safe_set.contains(x, v))
            x_next = cstr.ctrl.closed_loop(x, v)
            assert np.all(safe_set.contains(x_next, v))

    def test_nesting_fixed_inside_variable(self, cstr):
        vgrid = np.linspace(0.4, 0.85, 181)
        assert np.all(np.asarray(cstr.fixed.level(vgrid))
                      <= np.asarray(cstr.variable.level(vgrid)) + 1e-15)

    def test_delta_ball_inside_every_slice(self, cstr):
        delta = cstr.fixed.certificate.delta
        assert delta > 0
        ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        ring = delta * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        for v in np.linspace(0.4, 0.85, 60):
            x = cstr.ctrl.ss.h(v) + ring
            assert np.all(cstr.fixed.contains(x, v))


class TestCrossSections:
    def test_interval_at_steady_state(self, cstr):
        v0 = 0.62
        x = cstr.ctrl.ss.h(v0)
        lo, hi = cstr.variable.cross_section_v(x)
        assert lo < v0 < hi
        # endpoints are on the boundary: nudging outward leaves the set
        eps = 1e-6
        if lo > 0.4 + eps:
            assert not cstr.variable.contains(x, lo - eps)
        if hi < 0.85 - eps:
            assert not cstr.variable.contains(x, hi + eps)

    def test_interval_matches_dense_grid(self, cstr):
        x = cstr.ctrl.ss.h(0.55)
        lo, hi = cstr.variable.cross_section_v(x)
        grid = np.linspace(0.4, 0.85, 20_001)
        feas = np.asarray(cstr.variable.contains(
            np.broadcast_to(x, grid.shape + x.shape), grid))
        inside = grid[feas]
        assert lo == pytest.approx(inside.min(), abs=5e-5)
        assert hi == pytest.approx(inside.max(), abs=5e-5)
        # single component on the scanned lattice
        idx = np.flatnonzero(feas)
        assert np.all(np.diff(idx) == 1)

    def test_state_slice_membership(self, cstr):
        v = 0.7
        assert cstr.variable.contains(cstr.ctrl.ss.h(v), v)
        assert not cstr.variable.contains(cstr.ctrl.ss.h(v) + np.array([0.5, 0.0]), v)

    def test_empty_section_returns_none(self, cstr):
        x_far = np.array([0.99, 0.99])
        assert cstr.variable.cross_section_v(x_far) is None
