"""oco-rg benchmark: seeded workloads, end-to-end metrics, traced per-layer split.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cstr-governed --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process each

The library is imported from ``src/`` next to this directory and driven only
through its public entry points: ``scenario.build_scenario``,
``harness.run_closed_loop`` and ``cli.main(["verify", ...])``.  Each workload
is one caller in one process, with BLAS pinned to one thread; every step
waits for the previous one (a closed loop), so a rate is closed-loop steps
per second at the stated horizon T.

``--trace 0`` measures the end-to-end metrics: set-up is built several
times and reported as a median, then whole operations (a T-step run, or one
``verify``) repeat until ``--seconds`` have passed.  ``--trace 1`` runs one
untraced operation, then builds and runs once more with span and count
wrappers installed (see ``spans.py``) and reports the per-layer split.
Every run is checked by ``gate.py`` outside the timed region.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_SECONDS = 12
SETUP_MIN = 3  # builds per run; setup_s is their median
SETUP_FILL_S = 0.5  # cheap builds repeat until this much time has passed
SETUP_MAX = 500
MODULES = ("plant", "tracking", "safeset", "governor", "oco", "harness", "checks",
           "scenario", "cli")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, generate  # noqa: E402

END_TO_END = {
    "setup_s": "s", "steps_per_s": "1/s", "decision_us_p90": "us", "regret": "cost",
    "op_s": "s", "peak_rss_mb": "MB",
}


class MissingSource(RuntimeError):
    pass


def load_library():
    """Import oco_rg from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "oco_rg" / "__init__.py").is_file():
        raise MissingSource(f"no oco_rg sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("oco_rg")
    if Path(package.__file__).resolve().parent != (src / "oco_rg").resolve():
        raise MissingSource(f"oco_rg imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"oco_rg.{m}") for m in MODULES})


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "loadavg_1m": os.getloadavg()[0],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class Tap:
    """Pass-through recorder of calls to ``owner.attr``: arguments, result, seconds."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        self.calls = []

        def wrapper(*args, **kwargs):
            result, dt = timed(self.original, *args, **kwargs)
            self.calls.append((args, kwargs, result, dt))
            return result

        setattr(owner, attr, wrapper)

    def remove(self):
        setattr(self.owner, self.attr, self.original)


def build(lib, cfg):
    return timed(lib.scenario.build_scenario, cfg)


def run_once(lib, bundle, cfg):
    """One T-step closed-loop run, as ``simulate`` makes it."""
    return timed(lib.harness.run_closed_loop, bundle.plant, bundle.ctrl, bundle.safe_set,
                 cfg.governor, cfg.oco, bundle.schedule, T=cfg.steps, r0=cfg.r0,
                 gamma=cfg.step_size, grad_tol=cfg.grad_tolerance)


def verify_once(lib, ini):
    """One ``verify`` command; returns (exit code, check lines), seconds."""
    out = io.StringIO()
    argv = ["verify", "--config", str(ini), "--jobs", "1"]
    with contextlib.redirect_stdout(out):
        code, dt = timed(lib.cli.main, argv)
    lines = [line.split() for line in out.getvalue().splitlines() if line.startswith("verify ")]
    return (code, lines), dt


def inputs_of(gate, bundle, cfg):
    return gate.RunInputs(ctrl=bundle.ctrl, safe_set=bundle.safe_set, schedule=bundle.schedule,
                          governor=cfg.governor, r0=cfg.r0, level_kind=cfg.safe_set,
                          grid_points=cfg.grid_points)


def digest(ledger):
    """Fingerprint of every recorded column and the regret, bit for bit."""
    h = hashlib.sha256(repr(ledger.regret).encode())
    for key, column in sorted(ledger.arrays().items()):
        h.update(key.encode())
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def decision_us(ledger):
    """Per-step oco_ns + rg_ns over steps 1..T-1, in microseconds."""
    return (np.asarray(ledger.oco_ns[1:]) + np.asarray(ledger.rg_ns[1:])) / 1e3


class Runs:
    """Checks each closed-loop run as it completes and keeps only what the metrics need.

    The first run goes through the whole gate; every later run of the same
    config must reproduce it bit for bit.  Ledgers are dropped after the
    check, so peak memory does not grow with the number of runs.
    """

    def __init__(self, gate_mod, gate, seed):
        self.gate_mod, self.gate = gate_mod, gate
        self.rng = np.random.default_rng(seed)
        self.first = None
        self.decisions, self.regrets, self.seconds = [], [], []

    def add(self, ledger, inputs, seconds):
        fingerprint = digest(ledger)
        if self.first is None:
            self.gate_mod.check_run(self.gate, ledger, inputs, self.rng)
            self.first = fingerprint
        else:
            self.gate.record("rerun", fingerprint == self.first, "rerun differs from the first run")
        self.decisions.append(decision_us(ledger))
        self.regrets.append(ledger.regret)
        self.seconds.append(seconds)

    def add_tapped(self, tap, cfg):
        """Runs that ``verify`` made, captured by a Tap on ``cli.run_closed_loop``."""
        for args, kwargs, ledger, seconds in tap.calls:
            self.add(ledger, self.gate_mod.RunInputs.from_call(args, kwargs, cfg), seconds)
        tap.calls.clear()


def check_verify(gate, result):
    code, lines = result
    gate.record("verify exit", code == 0, f"exit code {code}")
    for fields in lines:
        gate.record(f"verify {fields[1]}", fields[2] != "FAIL", " ".join(fields[3:])[:200])


def measure(lib, gate_mod, spec, cfg, ini, seconds, seed):
    """Untraced end-to-end run of one workload; None values when no operation completed."""
    gate = gate_mod.Gate()
    runs = Runs(gate_mod, gate, seed)
    verify = spec.kind == "verify"
    setups, op_s = [], []
    taps = [Tap(lib.cli, "build_scenario"), Tap(lib.cli, "run_closed_loop")] if verify else []
    try:
        # verify builds and runs once itself, and both count towards the
        # medians; a run after each extra build gives steps_per_s three samples
        while len(setups) < SETUP_MIN - verify or (
                sum(setups) < SETUP_FILL_S and len(setups) < SETUP_MAX):
            bundle, dt = build(lib, cfg)
            setups.append(dt)
            if verify:
                ledger, dt = run_once(lib, bundle, cfg)
                runs.add(ledger, inputs_of(gate_mod, bundle, cfg), dt)
                ledger = None
        while not op_s or sum(op_s) < seconds:
            try:
                result, dt = verify_once(lib, ini) if verify else run_once(lib, bundle, cfg)
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc()
                gate.record("operation", False, repr(exc))
                break
            op_s.append(dt)
            if verify:
                check_verify(gate, result)
                setups += [call[-1] for call in taps[0].calls]
                taps[0].calls.clear()
                runs.add_tapped(taps[1], cfg)
            else:
                runs.add(result, inputs_of(gate_mod, bundle, cfg), dt)
            result = None
        rss = peak_rss_mb()
    finally:
        for tap in taps:
            tap.remove()
    if not runs.seconds:
        return gate, None, {}
    d = np.concatenate(runs.decisions)
    value = {
        "setup_s": statistics.median(setups),
        "steps_per_s": cfg.steps / statistics.median(runs.seconds),
        "decision_us_p90": float(np.percentile(d, 90)),
        "regret": runs.regrets[0],
        "op_s": statistics.median(op_s),
        "peak_rss_mb": rss,
    }
    values = {name: (value[name], unit) for name, unit in END_TO_END.items()}
    return gate, values, {"decision_samples": int(d.size), "setup_samples": len(setups),
                          "ops": len(op_s)}


def measure_traced(lib, gate_mod, trace_mod, spec, cfg, ini, seed):
    """One untraced operation, then one traced build and operation."""
    gate = gate_mod.Gate()
    runs = Runs(gate_mod, gate, seed)
    tracer = trace_mod.Tracer()
    verify = spec.kind == "verify"
    taps = [Tap(lib.cli, "run_closed_loop")] if verify else []
    try:
        if verify:
            result, untraced_s = verify_once(lib, ini)
            check_verify(gate, result)
            untraced = taps[0].calls[-1][2]
            runs.add_tapped(taps[0], cfg)
        else:
            bundle, _ = build(lib, cfg)
            untraced, untraced_s = run_once(lib, bundle, cfg)
            runs.add(untraced, inputs_of(gate_mod, bundle, cfg), untraced_s)
        tracer.install(lib)
        t0 = time.perf_counter()
        try:
            if verify:
                result, traced_s = verify_once(lib, ini)
            else:
                bundle = lib.scenario.build_scenario(cfg)
                ledger, traced_s = run_once(lib, bundle, cfg)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        if verify:
            check_verify(gate, result)
            ledger = taps[0].calls[-1][2]
            runs.add_tapped(taps[0], cfg)
        else:
            runs.add(ledger, inputs_of(gate_mod, bundle, cfg), traced_s)
    finally:
        for tap in taps:
            tap.remove()
    values = layer_metrics(tracer, ledger, untraced, traced_s / untraced_s - 1.0, wall)
    return gate, values, {"trace_edges": {f"{p} > {n}": e for (p, n), e in tracer.edges.items()}}


def layer_metrics(tr, ledger, untraced, overhead, wall):
    """Per-layer split of the traced operation; step medians come from the untraced one."""
    gov_calls = tr.calls("governor")
    run_counts = tr.counts_under.get("harness.run", {})
    arr = ledger.arrays()
    m = {
        "scenario.build.s": (tr.seconds("scenario.build"), "s"),
        "tracking.gain_schedule.s": (tr.seconds("tracking.gain_schedule"), "s"),
        "tracking.dare.calls": (tr.calls("tracking.dare"), "count"),
        "tracking.dare.s": (tr.seconds("tracking.dare"), "s"),
        "tracking.linearize.s": (tr.seconds("tracking.linearize"), "s"),
        "tracking.feedback.calls": (tr.counts["tracking.feedback"], "count"),
        "tracking.lyapunov.calls": (tr.counts["tracking.lyapunov"], "count"),
        "tracking.closed_loop.calls": (tr.counts["tracking.closed_loop"], "count"),
        "tracking.converse_eval.s": (tr.seconds("tracking.converse_eval"), "s"),
        "safeset.calibrate.s": (tr.seconds("safeset.calibrate"), "s"),
        "safeset.contains.calls": (tr.calls("safeset.contains"), "count"),
        "safeset.contains.s": (tr.seconds("safeset.contains"), "s"),
        "safeset.gamma.calls": (tr.counts["safeset.gamma"], "count"),
        "governor.calls": (gov_calls, "count"),
        "governor.step_us_p50": (np.median(untraced.rg_ns[1:]) / 1e3, "us"),
        "governor.s": (tr.seconds("governor"), "s"),
        "governor.active_frac": (float(np.mean(arr["v"] != arr["r"])), "ratio"),
        "governor.contains_per_call": (
            tr.calls("safeset.contains", parent="governor") / max(gov_calls, 1), "ratio"),
        "oco.step.calls": (tr.calls("oco.step"), "count"),
        "oco.step_us_p50": (np.median(untraced.oco_ns[1:]) / 1e3, "us"),
        "oco.step.s": (tr.seconds("oco.step"), "s"),
        "oco.oracle.calls": (tr.calls("oco.oracle", parent="harness.run"), "count"),
        "oco.oracle.s": (tr.seconds("oco.oracle", parent="harness.run"), "s"),
        "oco.cost_eval.calls": (tr.counts["oco.cost_eval"], "count"),
        "oco.evals_per_step": (run_counts.get("oco.cost_eval", 0) / ledger.steps, "ratio"),
        "plant.step.calls": (tr.calls("plant.step"), "count"),
        "plant.step.s": (tr.seconds("plant.step"), "s"),
        "harness.run.s": (tr.seconds("harness.run"), "s"),
        "harness.record.s": (tr.seconds("harness.record"), "s"),
        "harness.certificate.s": (tr.seconds("harness.certificate"), "s"),
        "harness.envelope.s": (tr.seconds("harness.envelope"), "s"),
        "harness.ogd_kappa.s": (tr.seconds("harness.ogd_kappa"), "s"),
        "harness.probe.s": (tr.seconds("harness.probe"), "s"),
        "harness.lipschitz.s": (tr.seconds("harness.lipschitz"), "s"),
        "harness.grid_oracle.calls": (tr.calls("harness.grid_oracle"), "count"),
        "harness.grid_oracle.s": (tr.seconds("harness.grid_oracle"), "s"),
        "harness.windows.s": (tr.seconds("harness.windows"), "s"),
        "harness.converse_N": (tr.values.get("harness.converse_N", 0), "count"),
        "checks.soundness.s": (tr.seconds("checks.soundness"), "s"),
        "checks.maximality.s": (tr.seconds("checks.maximality"), "s"),
        "checks.converse_bounds.s": (tr.seconds("checks.converse_bounds"), "s"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (tr.module_self_s(module), "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (wall - tr.attributed_s(), "s")
    return {name: (float(value), unit) for name, (value, unit) in m.items()}


def run_workload(args):
    spec = WORKLOADS[args.workload]
    try:
        lib = load_library()
    except MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import gate as gate_mod
    import spans as trace_mod
    OUT.mkdir(exist_ok=True)
    ini_text = generate(spec.name, args.seed)
    ini = OUT / f"{spec.name}-seed{args.seed}.ini"
    ini.write_text(ini_text)
    cfg = lib.scenario.load_config(ini)
    env = environment()
    print(f"bench: workload {spec.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("bench: env " + json.dumps(env, sort_keys=True))
    print("bench: config " + json.dumps(ini_text))
    if args.trace:
        gate, values, extra = measure_traced(lib, gate_mod, trace_mod, spec, cfg, ini, args.seed)
    else:
        gate, values, extra = measure(lib, gate_mod, spec, cfg, ini, args.seconds, args.seed)
    for failure in gate.failures:
        print(f"bench: FAILED {failure}")
    if values is None:
        print("bench: no operation completed", file=sys.stderr)
        return 1
    for name, (value, unit) in values.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric failed_ops_frac = {gate.failed / gate.attempted:.6g} ratio "
          f"({gate.failed} of {gate.attempted} operations)")
    for key, value in extra.items():
        if key != "trace_edges":
            print(f"bench: {key} = {value}")
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in values.items()}}
    record = {"workload": spec.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": ini_text, "env": env,
              "failures": gate.failures, **extra, **result}
    (OUT / f"{spec.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a fresh interpreter, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
