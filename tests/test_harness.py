import math

import numpy as np
import pytest

from oco_rg import (
    CstrCostSchedule,
    MemoryCostSchedule,
    SafeSet,
    SamplingPlan,
    SteadyStateCost,
    adversarial_lower_bound,
    benchmark_reference,
    estimate_certificate,
    fit_exponential_envelope,
    kahan_total,
    lyapunov_window_diagnostics,
    path_length_coefficient,
    run_closed_loop,
    run_memory_reduction,
    variable_level_set,
    verify_q_linear_regret,
    verify_regret_bound,
)
from oco_rg import box_polytope, checks, safeset
from oco_rg.harness import KahanSum, RegretLedger

from test_tracking import make_scalar_tracking


class TestKahan:
    def test_matches_fsum(self):
        rng = np.random.default_rng(0)
        vals = list(rng.uniform(-1, 1, 5000) * 10.0 ** rng.integers(-8, 8, 5000))
        assert kahan_total(vals) == pytest.approx(math.fsum(vals), rel=1e-12)

    def test_incremental_equals_batch(self):
        acc = KahanSum()
        vals = [0.1] * 1000 + [1e16, -1e16]
        for v in vals:
            acc.add(v)
        assert acc.s == kahan_total(vals)


class TestLedger:
    def test_sum_identities_bitwise(self, standard_runs):
        for ledger in standard_runs.values():
            again = ledger.recompute_sums()
            assert again["regret"] == ledger.regret
            assert again["regret_oco"] == ledger.regret_oco
            assert again["path_length"] == ledger.path_length

    def test_path_length_nonnegative_and_violations_zero(self, standard_runs):
        for ledger in standard_runs.values():
            assert ledger.path_length >= 0.0
            assert ledger.violations == 0

    def test_record_takes_exactly_the_named_columns(self):
        ledger = RegretLedger()
        row = dict.fromkeys(RegretLedger.COLUMNS, 0.5)
        ledger.record(0, [0.1, 0.2], **row)
        with pytest.raises(TypeError, match="V_quad"):
            ledger.record(1, [0.1, 0.2], **row, V_quad=0.5)
        del row["V"]
        with pytest.raises(KeyError):
            ledger.record(1, [0.1, 0.2], **row)
        assert ledger.steps == 1
        assert all(len(getattr(ledger, name)) == 1 for name in RegretLedger.COLUMNS)

    def test_csv_round_trip_precision(self, standard_runs, tmp_path):
        ledger = standard_runs[("ogd", "variable")]
        path = ledger.to_csv(tmp_path / "traj.csv")
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert len(data) == ledger.steps
        assert data["v"][10] == ledger.v[10]
        assert data["L_stage"][100] == ledger.L_stage[100]


class TestClosedLoop:
    def test_zero_motion_run(self, cstr):
        """Start at the optimum of a frozen cost: nothing moves, regret ~ 0."""
        sched = CstrCostSchedule(horizon=50, q_offset=150.0, q_amplitude=0.0,
                                 cbar_initial=0.5, cbar_high=0.5, cbar_final=0.5)
        cost = SteadyStateCost(sched, cstr.ctrl)
        eta = benchmark_reference(cost, 0)
        ledger = run_closed_loop(cstr.plant, cstr.ctrl, cstr.variable, "scalar",
                                 "prev_opt", sched, T=50, r0=eta,
                                 x0=cstr.ctrl.ss.h(eta))
        assert abs(ledger.regret) <= 1e-8
        assert abs(ledger.regret_oco) <= 1e-10
        assert ledger.path_length <= 1e-9

    def test_command_governor_run(self, cstr):
        sched = CstrCostSchedule(horizon=120)
        ledger = run_closed_loop(cstr.plant, cstr.ctrl, cstr.variable, "command",
                                 "ogd", sched, T=120, r0=0.6519)
        assert ledger.violations == 0 and ledger.invariance_breaks == 0
        assert np.all(np.isnan(ledger.beta))

    @pytest.mark.parametrize("oco_kind", ["prev_opt", "ogd"])
    def test_variable_level_run_makes_no_array_gamma_calls(self, cstr, gamma_calls, oco_kind):
        """The plain-float level gives the array path's bits, so outputs cannot
        show a change that routes the per-step queries back to the array path;
        this count can."""
        ledger = run_closed_loop(cstr.plant, cstr.ctrl, cstr.variable, "scalar", oco_kind,
                                 cstr.schedule, T=200, r0=cstr.cfg.r0)
        assert ledger.steps == 200
        assert gamma_calls == []

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    def test_command_governor_reads_one_table_per_grid(self, cstr, monkeypatch, kind):
        """The window tables give the array path's bits, so outputs cannot show
        a change that routes the governor's scan or the command oracle's coarse
        lattice back through array ``contains`` or rebuilds a table; these
        counts can."""
        builds = []
        build = safeset.build_window_table

        def counted(ctrl, level, grid):
            builds.append(len(grid))
            return build(ctrl, level, grid)

        monkeypatch.setattr(safeset, "build_window_table", counted)
        fresh = SafeSet(kind, cstr.ctrl, cstr.poly, getattr(cstr, kind).certificate)
        array_queries = []
        contains = fresh.contains

        def spy(x, v):
            if not isinstance(v, float):
                array_queries.append(np.shape(v))
            return contains(x, v)

        monkeypatch.setattr(fresh, "contains", spy)
        # the ramp squeezed into 50 steps makes the governor act on most steps
        sched = CstrCostSchedule(horizon=200, ramp_end=50, plateau_end=150)
        ledger = run_closed_loop(cstr.plant, cstr.ctrl, fresh, "command", "ogd",
                                 sched, T=200, r0=cstr.cfg.r0)
        arrays = ledger.arrays()
        assert ledger.invariance_breaks == 0 and np.sum(arrays["v"] != arrays["r"]) > 150
        assert builds == [safeset.SCAN_POINTS]
        assert array_queries == []
        assert checks.check_governor_maximality(fresh, n_instances=20, governor="command")["passed"]
        assert builds == [safeset.SCAN_POINTS, 1001]

    def test_inductive_safety_along_runs(self, cstr, standard_runs):
        for (oco, kind), ledger in standard_runs.items():
            safe_set = getattr(cstr, kind)
            arr = ledger.arrays()
            assert np.all(arr["V"] <= arr["level"] * (1 + 1e-12))
            assert ledger.invariance_breaks == 0

    def test_pass_through_steps_return_r_exactly(self, standard_runs):
        ledger = standard_runs[("prev_opt", "variable")]
        arr = ledger.arrays()
        pass_through = arr["beta"] == 1.0
        assert pass_through.any()
        assert np.array_equal(arr["v"][pass_through], arr["r"][pass_through])

    def test_causality_log_holds_only_the_online_update(self, standard_runs):
        # the hindsight oracle runs before step 0 and never through the logged view
        T = standard_runs[("ogd", "fixed")].steps
        assert standard_runs[("ogd", "fixed")].causality_log == tuple(
            (t, t - 1) for t in range(1, T))
        log = standard_runs[("prev_opt", "fixed")].causality_log
        assert {(now, idx) for now, idx in log} == {(t, t - 1) for t in range(1, T)}

    def test_eta_is_the_per_index_oracle(self, cstr, standard_runs):
        cost = SteadyStateCost(cstr.schedule, cstr.ctrl)
        eta = standard_runs[("ogd", "fixed")].eta
        for t in (0, 1, 899, 900, 1799, 2399):
            assert eta[t] == benchmark_reference(cost, t)


class TestEnvelopeFit:
    def test_exact_geometric_decay(self):
        ctrl = make_scalar_tracking(a=0.5)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(64, 1))
        v = rng.uniform(-0.5, 0.5, size=64)
        c_phi, lam = fit_exponential_envelope(ctrl, x, v, horizon=40)
        # ratio estimates carry round-off from the decay tail
        assert lam == pytest.approx(0.5, abs=1e-5)
        assert c_phi == pytest.approx(1.0, abs=1e-3)

    def test_scalar_constant_chain(self, ):
        """Envelope (1, 1/2) pushes through the whole constant chain."""
        ctrl = make_scalar_tracking(a=0.5)
        poly = box_polytope([(-2.0, 2.0)], [(-2.0, 2.0)])
        safe_set = variable_level_set(poly, ctrl, grid_points=21)
        sched = MemoryCostSchedule(horizon=20, p=1)
        cert = estimate_certificate(ctrl.plant, ctrl, safe_set, sched,
                                    SamplingPlan(n_samples=200, seed=3, horizon=40))
        assert cert.lam == pytest.approx(0.5, abs=1e-5)
        assert cert.c_phi == pytest.approx(1.0, abs=1e-3)
        assert cert.N == 2
        assert cert.lam1 == 1.0
        assert cert.lam2 == pytest.approx(2.0, abs=1e-3)
        assert cert.lam3 == pytest.approx(0.75, abs=1e-3)
        assert cert.lam_tilde == pytest.approx(0.625, abs=1e-3)

    def test_deadbeat_register_rate_zero(self):
        from oco_rg import register_controller, shift_register_plant
        plant = shift_register_plant(1)
        ctrl = register_controller(plant, -0.9, 0.9)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(32, 1))
        v = rng.uniform(-0.9, 0.9, size=32)
        c_phi, lam = fit_exponential_envelope(ctrl, x, v, horizon=10)
        assert lam == 0.0 and c_phi == 1.0


class TestPathLengthCoefficient:
    def test_unit_plug_in(self):
        # l_s M/eps = 1; l (1+l_g) l_V (2M+eps)/(eps lam1 (1-lam_tilde)) = 2*3 = 6
        got = path_length_coefficient(l_s=1.0, l=1.0, l_g=1.0, l_V=1.0,
                                      lam1=1.0, lam_tilde=0.0, window_M=1,
                                      epsilon=1.0)
        assert got == pytest.approx(7.0)

    def test_monotone_in_window(self):
        a = path_length_coefficient(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 2, 0.5)
        b = path_length_coefficient(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 10, 0.5)
        assert b > a


class TestCertificate:
    def test_cstr_constants_sane(self, certificate):
        c = certificate
        assert 0.0 < c.lam < 1.0
        assert c.c_phi >= 1.0
        assert 0.0 < c.lam_tilde < 1.0
        assert c.lam3 > 0.0
        assert np.isfinite(c.V_bar)
        assert c.l_s <= c.l_s_bound + 1e-6
        assert c.quad_decay > 0.0
        assert c.delta > 0.0 and c.mu > 0.0
        assert c.best_effort

    def test_serializable(self, certificate):
        import json
        blob = json.dumps(certificate.as_dict(), sort_keys=True)
        assert "lam_tilde" in blob

    def test_activity_constants_well_formed(self, certificate):
        assert certificate.window_M >= 1
        assert 0.0 < certificate.epsilon <= 1.0
        assert certificate.c_pl > 0.0 and certificate.c0_coeff > 0.0


class TestRegretBound:
    def test_zero_motion_bound_tight(self, cstr):
        sched = CstrCostSchedule(horizon=40, q_offset=150.0, q_amplitude=0.0,
                                 cbar_initial=0.5, cbar_high=0.5, cbar_final=0.5)
        cost = SteadyStateCost(sched, cstr.ctrl)
        eta = benchmark_reference(cost, 0)
        ledger = run_closed_loop(cstr.plant, cstr.ctrl, cstr.variable, "scalar",
                                 "prev_opt", sched, T=40, r0=eta,
                                 x0=cstr.ctrl.ss.h(eta))
        cert = estimate_certificate(cstr.plant, cstr.ctrl, cstr.variable, sched,
                                    SamplingPlan(n_samples=300, seed=11))
        rep = verify_regret_bound(ledger, cert, cstr.ctrl)
        assert rep["holds"]
        assert rep["c0"] <= 1e-4
        assert abs(rep["lhs_regret"]) <= 1e-8

    def test_holds_on_standard_runs(self, cstr, standard_runs, certificate,
                                    certificate_fixed):
        for (oco, kind), ledger in standard_runs.items():
            cert = certificate if kind == "variable" else certificate_fixed
            rep = verify_regret_bound(ledger, cert, cstr.ctrl)
            assert rep["holds"], rep

    def test_q_linear_checks_prev_opt(self, cstr, standard_runs, certificate,
                                      certificate_fixed):
        for kind, cert in (("variable", certificate), ("fixed", certificate_fixed)):
            ledger = standard_runs[("prev_opt", kind)]
            rep = verify_q_linear_regret(ledger, cert, cstr.ctrl, kappa=0.0)
            assert rep["oco_holds"], rep
            assert rep["full_holds"], rep


class TestWindowDiagnostics:
    def test_constant_reference_geometric_decay(self, cstr, certificate):
        """With v frozen the recursion reduces to geometric decay."""
        v0 = 0.6
        d = np.array([1.0, 0.0])
        P = cstr.ctrl.lyap_weight(v0)
        lev = float(cstr.variable.level(v0))
        x0 = cstr.ctrl.ss.h(v0) + 0.9 * np.sqrt(lev / (d @ P @ d)) * d
        assert cstr.variable.contains(x0, v0)
        sched = CstrCostSchedule(horizon=60, q_offset=150.0, q_amplitude=0.0,
                                 cbar_initial=0.5, cbar_high=0.5, cbar_final=0.5)
        ledger = run_closed_loop(cstr.plant, cstr.ctrl, cstr.variable, "scalar",
                                 "prev_opt", sched, T=60, r0=v0, x0=x0)
        arr = ledger.arrays()
        keep = np.abs(arr["v"] - v0) < 1e-12
        Vt = certificate.converse.evaluate(arr["x"][keep], v0)
        lam_t = certificate.lam_tilde
        for g in (1, 5, 20):
            lhs = Vt[g:]
            rhs = lam_t**g * Vt[:-g]
            assert np.all(lhs <= rhs + 1e-9)

    def test_equal_endpoints_tight(self, certificate, standard_runs):
        arr = standard_runs[("ogd", "variable")].arrays()
        Vt = certificate.converse.evaluate(arr["x"][:5], arr["v"][:5])
        assert np.allclose(Vt, Vt, atol=0)  # tau2 = tau1 reduces to V <= V

    def test_windows_hold_on_standard_runs(self, standard_runs, certificate,
                                           certificate_fixed):
        for (oco, kind), ledger in standard_runs.items():
            cert = certificate if kind == "variable" else certificate_fixed
            rep = lyapunov_window_diagnostics(ledger, cert)
            assert rep["recursion_holds"], rep["failures"][:2]
            assert rep["vbar_holds"]


class TestAdversarial:
    def test_floor_and_strictness(self, cstr):
        out = adversarial_lower_bound(cstr.plant, cstr.ctrl, T=300)
        assert out["regret_oco"] == pytest.approx(0.0, abs=1e-12)
        assert out["regret"] >= -1e-9 * 300
        assert out["regret"] > 1e-6  # the scripted reference moves

    def test_stationary_start_gives_zero(self, cstr):
        v0 = 0.6519
        path = [v0] * 100
        out = adversarial_lower_bound(cstr.plant, cstr.ctrl, T=100,
                                      x0=cstr.ctrl.ss.h(v0), reference_path=path)
        assert out["regret"] == pytest.approx(0.0, abs=1e-15)
        assert out["regret_oco"] == pytest.approx(0.0, abs=1e-15)


class TestMemoryReduction:
    def test_diagonal_cost_identity(self, cstr):
        """The induced steady-state cost equals the diagonal stage cost."""
        from oco_rg import register_controller, shift_register_plant
        sched = MemoryCostSchedule(horizon=10, p=1)
        plant = shift_register_plant(1)
        ctrl = register_controller(plant, -0.9, 0.9)
        cost = SteadyStateCost(sched, ctrl)
        for t in range(5):
            for v in (-0.5, 0.0, 0.7):
                diag = float(sched.stage_cost(t, np.array([v]), v))
                assert float(cost.eval(t, v)) == diag

    def test_switching_cost_vanishes_on_diagonal(self):
        sched = MemoryCostSchedule(horizon=5, p=1, weight=2.0)
        assert float(sched.stage_cost(0, np.array([0.3]), 0.3)) == pytest.approx(
            2.0 * (0.3 - sched.target(0)) ** 2)

    def test_bound_and_pass_through(self):
        sched = MemoryCostSchedule(horizon=400, p=1)
        out = run_memory_reduction(sched, "ogd", T=400)
        ledger = out["ledger"]
        arr = ledger.arrays()
        # governor passes every reference through: u_t = r_t
        assert np.array_equal(arr["v"], arr["r"])
        assert np.array_equal(arr["u"], arr["r"])
        assert ledger.violations == 0
        assert out["bound"]["holds"], out["bound"]

    def test_matching_initial_register_no_transient(self):
        """Constant target, register preloaded at it: both regrets coincide."""
        sched = MemoryCostSchedule(horizon=50, p=1, target_amplitude=0.0)
        out = run_memory_reduction(sched, "prev_opt", T=50, r0=0.0)
        ledger = out["ledger"]
        assert ledger.regret == pytest.approx(ledger.regret_oco, abs=1e-12)
