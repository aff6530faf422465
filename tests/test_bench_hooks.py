"""The benchmark's tracer and gate (bench/spans.py, bench/gate.py) still fit the library.

The tracer patches library functions by module and name, and the gate
re-checks a run from its ledger, so a refactor that renames a patched
function or changes the governor contract breaks the benchmark.  These
tests load the two bench modules on their own (not ``bench/run.py``, which
pins BLAS threads and edits ``sys.path`` when imported) and drive them
against the ``oco_rg`` package the rest of the suite imports.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oco_rg import ScenarioConfig, checks, cli, harness, oco, safeset, scenario, tracking

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls():
    spans = load("spans")
    lib = SimpleNamespace(cli=cli, harness=harness, checks=checks, scenario=scenario,
                          tracking=tracking, safeset=safeset, oco=oco)
    cfg = ScenarioConfig(plant_kind="shift_register", u_min=-1.0, u_max=1.0, v_min=-0.9,
                         v_max=0.9, r0=0.0, step_size=0.02, steps=30)
    tracer = spans.Tracer()
    tracer.install(lib)
    patched = list(tracer._undo)
    try:
        bundle = lib.scenario.build_scenario(cfg)
        ledger = lib.harness.run_closed_loop(  # as bench/run.py's run_once calls it
            bundle.plant, bundle.ctrl, bundle.safe_set, cfg.governor, cfg.oco,
            bundle.schedule, T=cfg.steps, r0=cfg.r0, gamma=cfg.step_size,
            grad_tol=cfg.grad_tolerance)
    finally:
        tracer.uninstall()
    assert ledger.steps == 30
    assert tracer.calls("governor") == tracer.calls("harness.record") == 30
    assert tracer.calls("harness.run") == 1
    assert tracer.calls("oco.oracle") == 1  # one batched oracle call per run, not one per step
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


@pytest.mark.parametrize("governor", ["scalar_rg", "stuck"])
def test_gate_passes_the_governor_and_catches_one_that_never_moves(cstr, monkeypatch,
                                                                   governor):
    gate = load("gate")
    if governor == "stuck":
        monkeypatch.setattr(harness, "scalar_rg", lambda x, r, v_prev, safe_set: (v_prev, 0.0))
    ledger = harness.run_closed_loop(cstr.plant, cstr.ctrl, cstr.fixed, "scalar", "ogd",
                                     cstr.schedule, T=200, r0=cstr.cfg.r0)
    inputs = gate.RunInputs(ctrl=cstr.ctrl, safe_set=cstr.fixed, schedule=cstr.schedule,
                            governor="scalar", r0=cstr.cfg.r0, level_kind="fixed",
                            grid_points=cstr.cfg.grid_points)
    g = gate.Gate()
    gate.check_run(g, ledger, inputs, np.random.default_rng(7))
    failed = {failure.split(":")[0] for failure in g.failures}
    assert g.attempted > 20
    assert failed == (set() if governor == "scalar_rg" else {"governor beta"})
