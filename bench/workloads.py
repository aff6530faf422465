"""Seeded workloads of the oco-rg benchmark.

Each workload is a scenario config file drawn from ``--seed``: the values of
the shipped ``configs/*.ini`` with a narrow uniform jitter on the cost
schedule, plus a ``[run] seed`` for the sampling that ``verify`` does.  The
program only ever sees the generated file.

The ranges are narrow on purpose.  Regret and governor activity react
strongly to the schedule (a 0.1 move of ``cbar_high`` moves regret 7x), and
the benchmark compares medians over seeds, so a seed may change the inputs
but not the kind of work a step does.  Inside these ranges every run has
zero constraint violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# (section, key) -> (centre, half-width); ints draw ints
REACTOR_SCHEDULE = {
    ("schedule", "q_offset"): (150.0, 1.5),
    ("schedule", "q_amplitude"): (100.0, 1.0),
    ("schedule", "cbar_initial"): (0.27, 0.002),
    ("schedule", "cbar_final"): (0.30, 0.002),
    ("schedule", "ramp_end"): (900, 4),
    ("schedule", "plateau_end"): (1800, 4),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "run": build_scenario + run_closed_loop; "verify": cli verify
    fixed: dict
    jitter: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cstr-governed",
        why=("reactor, uniform level, scalar governor bisecting on ~90% of steps: governor and "
             "safeset.contains move decision_us_p90 and steps_per_s; oco.step does not"),
        kind="run",
        fixed={("governor", "kind"): "scalar", ("safeset", "kind"): "fixed",
               ("oco", "kind"): "ogd", ("run", "steps"): 2400},
        # cbar_high 0.80 instead of 0.65 makes the governor active on ~90% of
        # steps: at 0.65 the share is 0.517, and the bimodal decision latency
        # (one against ~52 contains calls) puts p50 on the edge between modes
        jitter={**REACTOR_SCHEDULE, ("schedule", "cbar_high"): (0.80, 0.0015)},
    ),
    Workload(
        name="cstr-oracle",
        why=("reactor, per-reference level, prev_opt; governor never active: oracle, oco.step and "
             "ledger move steps_per_s; a governor-search change must not move anything"),
        kind="run",
        fixed={("governor", "kind"): "scalar", ("safeset", "kind"): "variable",
               ("oco", "kind"): "prev_opt", ("run", "steps"): 2400},
        jitter={**REACTOR_SCHEDULE, ("schedule", "cbar_high"): (0.65, 0.0015)},
    ),
    Workload(
        name="cstr-verify",
        why=("verify on a reactor config with the command governor: synthesis, certificate, "
             "soundness rollouts and maximality lattice move op_s; the run workloads barely touch them"),
        # cbar_high 0.80 for the same reason: the command governor is active on
        # ~51% of steps at 0.65 and on ~90% here
        kind="verify",
        fixed={("governor", "kind"): "command", ("safeset", "kind"): "fixed",
               ("oco", "kind"): "ogd", ("run", "steps"): 2400},
        jitter={**REACTOR_SCHEDULE, ("schedule", "cbar_high"): (0.80, 0.0015)},
    ),
    Workload(
        name="register-memory",
        why=("shift-register memory costs: no synthesis, unbounded level, generic cost path; "
             "a reactor-only speed-up (2x2 closed form, dedup) must not move anything here"),
        kind="run",
        fixed={("plant", "kind"): "shift_register", ("plant", "m"): 1, ("plant", "p"): 1,
               ("constraints", "u_min"): -1.0, ("constraints", "u_max"): 1.0,
               ("reference", "v_min"): -0.9, ("reference", "v_max"): 0.9,
               ("reference", "r0"): 0.0, ("governor", "kind"): "scalar",
               ("safeset", "kind"): "fixed", ("oco", "kind"): "ogd",
               ("oco", "step_size"): 0.02, ("run", "steps"): 2400},
        jitter={("schedule", "memory_weight"): (4.0, 0.04),
                ("schedule", "memory_target_amplitude"): (0.6, 0.005),
                ("schedule", "memory_target_period"): (240.0, 2.0)},
    ),
)}


def generate(name: str, seed: int) -> str:
    """INI text of workload ``name`` for ``seed``; same seed, same text."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    values = dict(spec.fixed)
    for key, (centre, half) in spec.jitter.items():
        if isinstance(centre, int):
            values[key] = rng.randint(centre - half, centre + half)
        else:
            values[key] = rng.uniform(centre - half, centre + half)
    values[("run", "seed")] = rng.randrange(1, 2**31)
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value!r}" if isinstance(value, float)
                                                 else f"{key} = {value}")
    lines = [f"; workload {name}, seed {seed}"]
    for section, entries in sections.items():
        lines += ["", f"[{section}]", *entries]
    return "\n".join(lines) + "\n"
