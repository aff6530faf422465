"""Tests of the benchmark itself: generator, correctness gate, tracer.

Run from the root of a checkout: ``python3 -m pytest bench -q``.  The gate
tests inject the faults the gate exists to catch (a governor that never
moves, an oracle that returns the window midpoint, a level scaled above
the certified one) and require a failed operation for each.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402  (pins BLAS threads before numpy loads)

LIB = bench.load_library()  # puts src/ on the path for the modules below

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def config(name, seed, tmp_path, **overrides):
    ini = tmp_path / f"{name}.ini"
    ini.write_text(generate(name, seed))
    return LIB.scenario.load_config(ini).with_overrides(**overrides), ini


@pytest.fixture(scope="module")
def reactor(tmp_path_factory):
    # a short horizon compresses the schedule, so the governor is busy early
    cfg, _ = config("cstr-governed", 1, tmp_path_factory.mktemp("cfg"), steps=300)
    return cfg, LIB.scenario.build_scenario(cfg)


def gate_one_run(cfg, bundle):
    g = gate.Gate()
    try:
        ledger, seconds = bench.run_once(LIB, bundle, cfg)
    except Exception as exc:  # counted as in bench.measure
        g.record("operation", False, repr(exc))
        return g
    bench.Runs(gate, g, seed=7).add(ledger, bench.inputs_of(gate, bundle, cfg), seconds)
    return g


def test_generator_is_seeded_and_loads(tmp_path):
    for name in WORKLOADS:
        assert generate(name, 3) == generate(name, 3)
        assert generate(name, 3) != generate(name, 4)
        config(name, 3, tmp_path)


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])


def test_clean_run_passes(reactor):
    g = gate_one_run(*reactor)
    assert g.failed == 0, g.failures
    assert g.attempted > 20


def test_gate_catches_governor_that_never_moves(reactor, monkeypatch):
    def stuck(x, r, state, safe_set):
        state.betas.append(0.0)
        return state.v_prev

    monkeypatch.setattr(LIB.harness, "scalar_rg", stuck)
    assert gate_one_run(*reactor).failed > 0


def test_gate_catches_midpoint_oracle(reactor, monkeypatch):
    monkeypatch.setattr(LIB.harness, "benchmark_reference",
                        lambda cost, t: 0.5 * sum(cost.window))
    assert gate_one_run(*reactor).failed > 0


def test_gate_catches_level_above_certified(reactor):
    cfg, bundle = reactor
    loose = LIB.safeset.fixed_level_set(bundle.poly, bundle.ctrl, cfg.grid_points,
                                        level_scale=1.5)
    assert gate_one_run(cfg, dataclasses.replace(bundle, safe_set=loose)).failed > 0


def test_trace_reports_every_layer_metric_and_accounts_for_wall(tmp_path):
    cfg, ini = config("register-memory", 1, tmp_path, steps=200)
    g, values, _ = bench.measure_traced(LIB, gate, spans, WORKLOADS["register-memory"],
                                        cfg, ini, seed=1)
    assert g.failed == 0, g.failures
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in values.items()}
    self_s = sum(values[f"{m}.self_s"][0] for m in bench.MODULES)
    wall = values["trace.wall_s"][0]
    assert self_s + values["trace.unattributed_s"][0] == pytest.approx(wall, rel=1e-9)
    assert values["safeset.contains.calls"][0] == values["governor.calls"][0] == 200
    # wrappers are gone afterwards
    assert LIB.harness.run_closed_loop.__module__ == "oco_rg.harness"
