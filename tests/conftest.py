"""Shared fixtures: the reactor controller is expensive to synthesize, so
everything built on it (safe sets, standard runs, certificate) is
session-scoped and reuses one gain schedule."""

from types import SimpleNamespace

import pytest

from oco_rg import (
    CstrCostSchedule,
    CstrParams,
    SamplingPlan,
    ScenarioConfig,
    box_polytope,
    build_cstr_controller,
    cstr_plant,
    estimate_certificate,
    fixed_level_set,
    run_closed_loop,
    safeset,
    variable_level_set,
)

SEED = 12345


@pytest.fixture(scope="session")
def params():
    return CstrParams()


@pytest.fixture(scope="session")
def cstr_cfg():
    return ScenarioConfig()


@pytest.fixture(scope="session")
def cstr(params, cstr_cfg):
    """Plant, controller, constraints, schedule, and both safe sets."""
    plant = cstr_plant(params, x0=cstr_cfg.x0)
    ctrl, gains = build_cstr_controller(
        plant, params, v_lo=cstr_cfg.v_min, v_hi=cstr_cfg.v_max,
        lqr_q=cstr_cfg.lqr_q, lqr_r=cstr_cfg.lqr_r,
        grid_points=cstr_cfg.grid_points)
    poly = box_polytope([(0.0, 1.0), (0.0, 1.0)], [(0.0, 2.0)])
    schedule = CstrCostSchedule(horizon=cstr_cfg.steps)
    return SimpleNamespace(
        plant=plant, ctrl=ctrl, gains=gains, poly=poly, schedule=schedule,
        fixed=fixed_level_set(poly, ctrl, grid_points=cstr_cfg.grid_points),
        variable=variable_level_set(poly, ctrl, grid_points=cstr_cfg.grid_points),
        cfg=cstr_cfg,
    )


@pytest.fixture(scope="session")
def standard_runs(cstr):
    """The four benchmark combinations, T = 2400 each."""
    runs = {}
    for oco in ("ogd", "prev_opt"):
        for kind in ("fixed", "variable"):
            safe_set = getattr(cstr, kind)
            runs[(oco, kind)] = run_closed_loop(
                cstr.plant, cstr.ctrl, safe_set, "scalar", oco,
                cstr.schedule, T=cstr.cfg.steps, r0=cstr.cfg.r0)
    return runs


@pytest.fixture(scope="session")
def certificate(cstr, standard_runs):
    """Certificate on the variable-level set, fed with trajectory states."""
    arr = standard_runs[("ogd", "variable")].arrays()
    plan = SamplingPlan(seed=SEED, extra_states=(arr["x"][::8], arr["v"][::8]))
    return estimate_certificate(cstr.plant, cstr.ctrl, cstr.variable,
                                cstr.schedule, plan)


@pytest.fixture(scope="session")
def certificate_fixed(cstr, standard_runs):
    arr = standard_runs[("ogd", "fixed")].arrays()
    plan = SamplingPlan(seed=SEED, extra_states=(arr["x"][::8], arr["v"][::8]))
    return estimate_certificate(cstr.plant, cstr.ctrl, cstr.fixed,
                                cstr.schedule, plan)


@pytest.fixture
def gamma_calls(monkeypatch):
    """References passed to the array ``compute_gamma``, counted at the
    module-level name that the safe set and the bench tracer look up."""
    calls = []
    array_gamma = safeset.compute_gamma

    def counted(v, poly, ctrl):
        calls.append(v)
        return array_gamma(v, poly, ctrl)

    monkeypatch.setattr(safeset, "compute_gamma", counted)
    return calls
