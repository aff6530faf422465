"""Span and count recorder installed around the library from outside.

Modules import each other's functions by name, so a wrapper must sit at
every place a name is looked up: ``cli.run_closed_loop`` and
``harness.run_closed_loop`` are two lookups of one function.  Methods are
wrapped on their class.  Spans are aggregated in memory per (parent, name)
edge, which keeps the cost per call to two clock reads and a few dict
operations; self time is a span's duration minus the time of its child
spans.  Counts wrap hot calls (tens of thousands per run) without a span,
so their time stays with the caller.
"""

from __future__ import annotations

import dataclasses
import time

ROOT = "<bench>"


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0]]  # [name, child ns]
        self.edges = {}  # (parent, name) -> [calls, inclusive ns]
        self.self_ns = {}
        self.counts = {}
        self.counts_under = {}  # span name -> counts made inside it
        self.values = {}
        self._undo = []

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn, snap_counts=False):
        stack, edges, self_ns, counts = self.stack, self.edges, self.self_ns, self.counts
        clock = time.perf_counter_ns
        under = self.counts_under.setdefault(name, {}) if snap_counts else None
        self_ns.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            before = dict(counts) if under is not None else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0]
                edge[0] += 1
                edge[1] += dt
                self_ns[name] += dt - frame[1]
                if under is not None:
                    for key, n in counts.items():
                        under[key] = under.get(key, 0) + n - before.get(key, 0)

        return wrapper

    def count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def keep(self, name, fn, value):
        """Record ``value(result)`` of the latest call under ``name``."""
        values = self.values

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            values[name] = value(result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, lib):
        """Wrap the public entry points of every module named in ``lib``."""
        cli, harness, checks, scenario = lib.cli, lib.harness, lib.checks, lib.scenario
        tracking, safeset, oco = lib.tracking, lib.safeset, lib.oco
        spans = {
            "cli.main": [(cli, "main")],
            "scenario.build": [(scenario, "build_scenario"), (cli, "build_scenario")],
            "tracking.build_controller": [(scenario, "build_cstr_controller")],
            "tracking.gain_schedule": [(tracking, "build_gain_schedule")],
            "tracking.linearize": [(tracking, "linearize")],
            "tracking.dare": [(tracking, "dare_value_iteration")],
            "tracking.converse_eval": [(tracking.ConverseLyapunov, "evaluate")],
            "safeset.calibrate": [(scenario, "fixed_level_set"), (scenario, "variable_level_set"),
                                  (harness, "variable_level_set")],
            "safeset.contains": [(safeset.SafeSet, "contains")],
            "governor": [(harness, "scalar_rg"), (checks, "scalar_rg"),
                         (harness, "command_governor")],
            "oco.step": [(harness, "ogd_step"), (harness, "prev_opt_step")],
            "oco.oracle": [(harness, "benchmark_reference")],
            "harness.record": [(harness.RegretLedger, "record")],
            "harness.certificate": [(cli, "estimate_certificate"),
                                    (harness, "estimate_certificate")],
            "harness.envelope": [(harness, "fit_exponential_envelope")],
            "harness.ogd_kappa": [(harness, "estimate_ogd_kappa")],
            "harness.probe": [(harness, "probe_governor_contraction")],
            "harness.lipschitz": [(harness, "estimate_system_lipschitz"),
                                  (harness, "estimate_cost_lipschitz"),
                                  (harness, "estimate_induced_cost_lipschitz")],
            "harness.grid_oracle": [(checks, "scalar_rg_grid_oracle"),
                                    (harness, "scalar_rg_grid_oracle")],
            "harness.windows": [(cli, "lyapunov_window_diagnostics")],
            "harness.regret_bound": [(cli, "verify_regret_bound"),
                                     (harness, "verify_regret_bound"),
                                     (cli, "verify_q_linear_regret")],
            "harness.adversarial": [(cli, "adversarial_lower_bound")],
            "harness.memory_reduction": [(cli, "run_memory_reduction")],
            "checks.steady_states": [(cli, "check_steady_state_residuals")],
            "checks.soundness": [(cli, "check_safe_set_soundness")],
            "checks.delta_ball": [(cli, "check_delta_ball")],
            "checks.maximality": [(cli, "check_governor_maximality")],
            "checks.causality": [(cli, "check_causality")],
            "checks.converse_bounds": [(cli, "check_converse_bounds")],
        }
        for name, sites in spans.items():
            for owner, attr in sites:
                self.patch(owner, attr, lambda fn, name=name: self.span(name, fn))
        for owner in (harness, cli):
            self.patch(owner, "run_closed_loop",
                       lambda fn: self.span("harness.run", fn, snap_counts=True))
        counts = {
            "tracking.feedback": (tracking.TrackingController, "feedback"),
            "tracking.lyapunov": (tracking.TrackingController, "lyapunov"),
            "tracking.closed_loop": (tracking.TrackingController, "closed_loop"),
            "safeset.gamma": (safeset, "compute_gamma"),
            "oco.cost_eval": (oco.SteadyStateCost, "eval"),
        }
        for name, (owner, attr) in counts.items():
            self.patch(owner, attr, lambda fn, name=name: self.count(name, fn))
        self.patch(harness, "build_converse_lyapunov",
                   lambda fn: self.keep("harness.converse_N", fn, lambda conv: conv.N))

        # plants carry their step function as a field: wrap it where plants are made
        step_span = self.span("plant.step", lambda step, x, u: step(x, u))

        def traced_plant(make):
            def wrapper(*args, **kwargs):
                plant = make(*args, **kwargs)
                step = plant.step
                return dataclasses.replace(plant, step=lambda x, u: step_span(step, x, u))
            return wrapper

        for owner, attr in ((scenario, "cstr_plant"), (scenario, "shift_register_plant"),
                            (harness, "shift_register_plant")):
            self.patch(owner, attr, traced_plant)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def calls(self, name, parent=None):
        return sum(e[0] for (p, n), e in self.edges.items()
                   if n == name and (parent is None or p == parent))

    def seconds(self, name, parent=None):
        return sum(e[1] for (p, n), e in self.edges.items()
                   if n == name and (parent is None or p == parent)) / 1e9

    def module_self_s(self, module):
        return sum(ns for name, ns in self.self_ns.items()
                   if name.split(".")[0] == module) / 1e9

    def attributed_s(self):
        """Time inside top-level spans: everything the library did."""
        return sum(e[1] for (p, _), e in self.edges.items() if p == ROOT) / 1e9
