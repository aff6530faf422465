from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oco_rg import (
    ConstraintPolytope,
    Plant,
    ReferenceInfeasibleError,
    ReferenceWindowError,
    SafeSet,
    SteadyStateMap,
    TrackingController,
    box_polytope,
    build_scenario,
    calibrate_level,
    compute_gamma,
    fixed_level_set,
    load_config,
    register_controller,
    sample_safe_states,
    shift_register_plant,
    variable_level_set,
)
from oco_rg.safeset import SCAN_POINTS, build_window_table, scalar_gamma_kernel
from test_bench_hooks import load

REPO = Path(__file__).resolve().parents[1]


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


def gamma_over_every_row(v, poly, ctrl):
    """compute_gamma's row formula applied to every row, with no shortcut."""
    v = np.asarray(v, dtype=float)
    G, margins = poly.rows_at(ctrl.ss.h(v), ctrl.ss.u_ss(v), ctrl.gain(v))
    den = np.einsum("...zn,...nm,...zm->...z", G, np.linalg.inv(ctrl.lyap_weight(v)), G)
    levels = np.where(den > 0.0, margins**2 / np.where(den > 0.0, den, 1.0), np.inf)
    return np.min(levels, axis=-1)


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

    @pytest.mark.parametrize("p", [1, 3])
    def test_register_level_equals_the_row_formula(self, p):
        """K = 0 leaves no row depending on x; the level skips P^-1 and is
        inf, with the row formula's type and shape."""
        ctrl = register_controller(shift_register_plant(p), -0.9, 0.9)
        poly = box_polytope([(None, None)] * p, [(-1.0, 1.0)])
        grid = ctrl.ss.grid(181)
        for v in (grid, 0.3, grid[:1]):
            fast, full = compute_gamma(v, poly, ctrl), gamma_over_every_row(v, poly, ctrl)
            assert type(fast) is type(full) and np.shape(fast) == np.shape(full)
            assert np.array_equal(fast, full) and np.all(np.isinf(fast))

    def test_register_outside_the_input_box_still_raises(self):
        ctrl = register_controller(shift_register_plant(1), -1.5, 1.5)
        poly = box_polytope([(None, None)], [(-1.0, 1.0)])
        for v in (1.2, np.array([0.0, -1.2])):
            with pytest.raises(ReferenceInfeasibleError):
                compute_gamma(v, poly, ctrl)

    def test_reactor_level_equals_the_row_formula(self, cstr):
        grid = cstr.ctrl.ss.grid(181)
        assert np.array_equal(compute_gamma(grid, cstr.poly, cstr.ctrl),
                              gamma_over_every_row(grid, cstr.poly, cstr.ctrl))
        assert compute_gamma(0.6, cstr.poly, cstr.ctrl) == gamma_over_every_row(
            0.6, cstr.poly, cstr.ctrl)

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
        cert = calibrate_level(poly, ctrl, np.linspace(-1, 1, 11))
        assert cert.V_max == pytest.approx(0.01)
        assert cert.delta == pytest.approx(0.1)

    def test_cstr_level_order_of_magnitude(self, cstr):
        V_max = cstr.fixed.certificate.V_max
        # reference point 0.0135 from the benchmark write-up; controller
        # synthesis differs, so only the order of magnitude is pinned
        assert 0.00135 < V_max < 0.135

    def test_certificate_ordering(self, cstr):
        cert = cstr.fixed.certificate
        gamma = compute_gamma(cstr.ctrl.ss.grid(cstr.cfg.grid_points), cstr.poly, cstr.ctrl)
        assert cert.V_max == gamma.min() > 0.0
        assert cert.delta > 0.0

    def test_both_kinds_carry_one_certificate(self, cstr):
        # one calibration on one grid; the kinds differ only in how level(v) reads it
        assert cstr.fixed.certificate == cstr.variable.certificate

    def test_grid_refinement_stability(self, cstr):
        grid181 = cstr.ctrl.ss.grid(181)
        grid361 = cstr.ctrl.ss.grid(361)
        v1 = calibrate_level(cstr.poly, cstr.ctrl, grid181).V_max
        v2 = calibrate_level(cstr.poly, cstr.ctrl, grid361).V_max
        assert abs(v2 - v1) / v1 < 0.05

    def test_empty_grid_rejected(self, cstr):
        with pytest.raises(ValueError):
            calibrate_level(cstr.poly, cstr.ctrl, np.array([]))


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


def kernel_points(cstr, n_random=10_000, seed=7):
    """(x, v) pairs for the plain-float kernel: every grid node, both window
    ends and just past them (where the blend position is clipped), and
    random references, each with a state on a random ray from h(v) at 0.5
    to 1.5 times the fixed-level boundary distance, a quarter of them within
    1e-9 of the boundary."""
    ctrl = cstr.ctrl
    lo, hi = ctrl.ss.window
    rng = np.random.default_rng(seed)
    v = np.concatenate([ctrl.ss.grid(cstr.cfg.grid_points),
                        [lo, hi, lo - 5e-10, hi + 5e-10],
                        rng.uniform(lo, hi, n_random)])
    ang = rng.uniform(0.0, 2.0 * np.pi, v.size)
    d = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    dPd = np.einsum("ki,kij,kj->k", d, ctrl.lyap_weight(v), d)
    factor = np.where(rng.uniform(size=v.size) < 0.25,
                      1.0 + rng.uniform(-1e-9, 1e-9, v.size),
                      rng.uniform(0.5, 1.5, v.size))
    x = ctrl.ss.h(v) + (np.sqrt(cstr.fixed.certificate.V_max / dPd) * factor)[:, None] * d
    return x, v


def spy_safe_set(cstr, kind):
    """A safe set on the reactor controller whose plain-float twin logs its
    ``lyapunov`` calls."""
    calls = []
    ctrl = cstr.ctrl
    twin = ctrl.scalar_schedule

    def spy(x, v):
        calls.append(v)
        return twin.lyapunov(x, v)

    spied_twin = SimpleNamespace(lyapunov=spy, blend=twin.blend, params=twin.params)
    spied = TrackingController(ctrl.plant, ctrl.ss, ctrl.gain, ctrl.lyap_weight,
                               scalar_schedule=spied_twin)
    return SafeSet(kind, spied, cstr.poly, cstr.fixed.certificate), calls


class TestScalarKernel:
    """The plain-float V(x, v) must give the array path's bits: a numpy
    upgrade that changes how einsum sums fails here instead of moving the
    governor's results quietly."""

    def test_kernel_equals_lyapunov(self, cstr):
        x, v = kernel_points(cstr)
        kernel = cstr.ctrl.scalar_schedule.lyapunov
        mismatches = [k for k in range(v.size)
                      if kernel(x[k], float(v[k])) != cstr.ctrl.lyapunov(x[k], float(v[k]))]
        assert v.size > 10_000
        assert mismatches == []

    def test_membership_equals_array_path(self, cstr):
        x, v = kernel_points(cstr)
        fast = [bool(cstr.fixed.contains(x[k], v[k])) for k in range(v.size)]
        slow = [bool(cstr.fixed.contains(x[k], np.asarray(v[k]))) for k in range(v.size)]
        assert fast == slow
        assert 0.2 * v.size < sum(fast) < 0.8 * v.size

    def test_float_references_take_kernel(self, cstr):
        safe_set, calls = spy_safe_set(cstr, "fixed")
        x = cstr.ctrl.ss.h(0.6)
        assert safe_set.contains(x, 0.6) and safe_set.contains(x, np.float64(0.6))
        assert len(calls) == 2
        assert isinstance(calls[1], np.float64)

    def test_batches_and_arrays_keep_array_path(self, cstr):
        safe_set, calls = spy_safe_set(cstr, "fixed")
        x = cstr.ctrl.ss.h(0.6) + np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.01]])
        out = safe_set.contains(x, 0.6)
        assert out.shape == (3,)
        assert out.tolist() == [bool(safe_set.contains(row, 0.6)) for row in x]
        calls.clear()
        safe_set.contains(x[0], np.asarray(0.6))
        safe_set.contains(x, np.full(3, 0.6))
        assert calls == []

    def test_variable_set_takes_kernel(self, cstr, gamma_calls):
        safe_set, calls = spy_safe_set(cstr, "variable")
        x = cstr.ctrl.ss.h(0.6)
        assert safe_set.contains(x, 0.6) and safe_set.contains(x, np.float64(0.6))
        assert len(calls) == 2
        assert isinstance(calls[1], np.float64)
        assert gamma_calls == []

    def test_register_variable_set_keeps_array_path(self, gamma_calls):
        plant = shift_register_plant(1)
        ctrl = register_controller(plant, -0.9, 0.9)
        assert ctrl.scalar_schedule is None
        register = variable_level_set(box_polytope([(None, None)], [(-1.0, 1.0)]), ctrl,
                                      grid_points=21)
        gamma_calls.clear()
        assert register.contains(np.array([0.3]), 0.2)
        assert len(gamma_calls) == 1

    def test_float_level_is_a_float_on_both_kinds(self, cstr):
        for safe_set in (cstr.fixed, cstr.variable):
            for v in (0.6, np.float64(0.6)):
                assert type(safe_set.level(v)) is float
            assert safe_set.level(0.6) == safe_set.level(np.asarray(0.6))
        assert cstr.fixed.level(0.6) == cstr.fixed.certificate.V_max

    def test_out_of_window_raises(self, cstr):
        for kind in ("fixed", "variable"):
            safe_set, calls = spy_safe_set(cstr, kind)
            x = cstr.ctrl.ss.h(0.6)
            for v in (0.95, 0.4 - 2e-9, np.float64(0.85 + 2e-9)):
                with pytest.raises(ReferenceWindowError):
                    safe_set.contains(x, v)
            assert calls == []

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    def test_nan_reference_raises(self, cstr, kind):
        safe_set, calls = spy_safe_set(cstr, kind)
        x = cstr.ctrl.ss.h(0.6)
        for v in (float("nan"), np.float64("nan"), np.asarray(np.nan), np.array([0.6, np.nan])):
            with pytest.raises(ReferenceWindowError):
                safe_set.contains(x, v)
        assert calls == []


class TestScalarGammaKernel:
    """The plain-float level must give ``compute_gamma``'s bits: a numpy or
    BLAS upgrade that moves one of them fails here, where the outputs would
    not show it."""

    @pytest.mark.parametrize("source", ["fixture", "configs/cstr.ini", "cstr-oracle"])
    def test_kernel_equals_compute_gamma(self, cstr, source, tmp_path):
        if source == "fixture":
            whole = cstr.variable
        else:
            path = REPO / source
            if source == "cstr-oracle":
                path = tmp_path / "oracle.ini"
                path.write_text(load("workloads").generate("cstr-oracle", 1))
            whole = build_scenario(load_config(path), "variable").safe_set
        half = SafeSet("variable", whole.ctrl, whole.poly, whole.certificate, level_scale=0.5)
        _, v = kernel_points(cstr)
        mismatches = []
        for ref in v.tolist():
            gamma = compute_gamma(ref, whole.poly, whole.ctrl)
            if not (whole.level(ref) == gamma and half.level(ref) == 0.5 * gamma):
                mismatches.append(ref)
        assert v.size > 10_000
        assert mismatches == []

    def test_non_positive_margin_raises_compute_gammas_error(self, cstr):
        poly = box_polytope([(0.0, 1.0), (0.0, 0.7)], [(0.0, 2.0)])
        kernel = scalar_gamma_kernel(poly, cstr.ctrl)
        with pytest.raises(ReferenceInfeasibleError) as expected:
            compute_gamma(0.8, poly, cstr.ctrl)
        with pytest.raises(ReferenceInfeasibleError) as raised:
            kernel(0.8)
        assert str(raised.value) == str(expected.value)
        assert "x1<=hi" in str(raised.value)

    def test_variable_membership_equals_array_path(self, cstr, gamma_calls):
        """States on rays from h(v) rescaled to the variable level's boundary,
        a quarter of them within 1e-9 of it: no membership flips."""
        x, v = kernel_points(cstr)
        h = cstr.ctrl.ss.h(v)
        scale = np.sqrt(compute_gamma(v, cstr.poly, cstr.ctrl) / cstr.fixed.certificate.V_max)
        x = h + (x - h) * scale[:, None]
        gamma_calls.clear()
        fast = [bool(cstr.variable.contains(x[k], float(v[k]))) for k in range(v.size)]
        assert gamma_calls == []
        slow = [bool(cstr.variable.contains(x[k], np.asarray(v[k]))) for k in range(v.size)]
        assert fast == slow
        assert 0.2 * v.size < sum(fast) < 0.8 * v.size


def literal_scan_v(safe_set, x):
    """``SafeSet.scan_v`` as one array ``contains`` call on the broadcast state."""
    grid = np.linspace(*safe_set.window, SCAN_POINTS)
    x = np.asarray(x, dtype=float)
    idx = np.flatnonzero(safe_set.contains(np.broadcast_to(x, grid.shape + x.shape), grid))
    if idx.size == 0:
        return None
    i, j = idx[0], idx[-1]
    assert j - i + 1 == idx.size
    a_out = grid[i - 1] if i > 0 else None
    b_out = grid[j + 1] if j + 1 < SCAN_POINTS else None
    return (grid[i], a_out), (grid[j], b_out)


def register_tracking(p, weight):
    """Register controller, with its identity weight or a random SPD one."""
    ctrl = register_controller(shift_register_plant(p), -0.9, 0.9)
    if weight == "identity":
        return ctrl
    root = np.random.default_rng(p).normal(size=(p, p))
    P = root @ root.T + 0.1 * np.eye(p)
    return TrackingController(ctrl.plant, ctrl.ss, ctrl.gain,
                              lambda v: np.broadcast_to(P, np.shape(v) + (p, p)))


class TestWindowTables:
    """The table scan must give ``TrackingController.lyapunov``'s bits over a
    grid: a numpy upgrade that changes how einsum sums fails here, where the
    outputs would not show it."""

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    def test_table_lyapunov_equals_array_path(self, cstr, kind):
        safe_set = getattr(cstr, kind)
        grid = np.linspace(*safe_set.window, SCAN_POINTS)
        table = build_window_table(safe_set.ctrl, safe_set.level, grid)
        x, _ = kernel_points(cstr, n_random=1800)
        mismatches = [k for k in range(len(x)) if not np.array_equal(
            table.lyapunov(x[k]), cstr.ctrl.lyapunov(np.broadcast_to(x[k], (SCAN_POINTS, 2)), grid))]
        assert len(x) > 1900
        assert mismatches == []
        assert np.array_equal(table.level, safe_set.level(grid))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("weight", ["identity", "random-spd"])
    def test_register_table_lyapunov_equals_array_path(self, p, weight):
        ctrl = register_tracking(p, weight)
        grid = np.linspace(*ctrl.ss.window, SCAN_POINTS)
        table = build_window_table(ctrl, lambda v: np.full(np.shape(v), np.inf), grid)
        x = np.random.default_rng(10 + p).uniform(-1.5, 1.5, (200, p))
        mismatches = [k for k in range(len(x)) if not np.array_equal(
            table.lyapunov(x[k]), ctrl.lyapunov(np.broadcast_to(x[k], (SCAN_POINTS, p)), grid))]
        assert mismatches == []

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    def test_scan_equals_literal_contains_scan(self, cstr, kind):
        safe_set = getattr(cstr, kind)
        x, _ = kernel_points(cstr, n_random=1800)
        brackets = [safe_set.scan_v(row) for row in x]
        assert brackets == [literal_scan_v(safe_set, row) for row in x]
        assert 0 < sum(b is None for b in brackets) < 0.5 * len(x)
