import json
from pathlib import Path

import pytest

from oco_rg import (
    ConfigError,
    CstrCostSchedule,
    RegretLedger,
    ScenarioConfig,
    build_scenario,
    load_config,
)
from oco_rg import cli, harness
from oco_rg.harness import estimate_ogd_kappa
from oco_rg.cli import main

REPO = Path(__file__).resolve().parents[1]

FAST_CSTR = """
[tracking]
grid_points = 61

[run]
steps = 160

[schedule]
q_period = 160
ramp_end = 60
plateau_end = 120
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def memory_config(tmp_path, steps, plant="p = 1"):
    """configs/oco_memory.ini with a shorter run; ``plant`` replaces its p line."""
    text = (REPO / "configs" / "oco_memory.ini").read_text()
    text = text.replace("steps = 600", f"steps = {steps}").replace("p = 1", plant)
    text = text.replace("dir = out_memory", f"dir = {tmp_path / 'm'}")
    return write(tmp_path, text, name="mem.ini")


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg == ScenarioConfig()

    def test_shipped_cstr_config_equals_defaults(self):
        cfg = load_config(REPO / "configs" / "cstr.ini")
        assert cfg == ScenarioConfig(out_dir="out")

    def test_shipped_memory_config_loads(self):
        cfg = load_config(REPO / "configs" / "oco_memory.ini")
        assert cfg.plant_kind == "shift_register"
        assert cfg.u_min == -1.0 and cfg.v_max == 0.9

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[nonsense]\na = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[run]\nwalltime = 5\n"))

    def test_bad_value_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="steps"):
            load_config(write(tmp_path, "[run]\nsteps = soon\n"))

    def test_reference_outside_window_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="r0"):
            load_config(write(tmp_path, "[reference]\nr0 = 0.95\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")


class TestSimulate:
    def test_writes_outputs_and_exits_zero(self, tmp_path):
        cfg = write(tmp_path, FAST_CSTR)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["violations"] == 0
        assert (out / "trajectory.csv").exists()
        assert json.loads((out / "timings.json").read_text())["build_s"] > 0.0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 160 + 1

    def test_single_step_run(self, tmp_path):
        cfg = write(tmp_path, "[run]\nsteps = 1\n[tracking]\ngrid_points = 61\n")
        out = tmp_path / "one"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        report = json.loads((out / "report.json").read_text())
        assert "closed_loop" in report["regrets"]

    def test_malformed_config_exits_two(self, tmp_path):
        cfg = write(tmp_path, "[run]\nsteps = never\n")
        assert main(["simulate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("entries, key", [
        ("[schedule]\nq_period = 0", "q_period"),
        ("[oco]\nstep_size = -1", "step_size"),
        ("[plant]\ntau = -0.1", "tau"),
        ("[plant]\nx0 = 0.2632 0.6519 0.1", "x0"),
        ("[constraints]\nu_min = 3.0\nu_max = 2.0", "u_min"),
        ("[schedule]\nmemory_target_period = 0", "memory_target_period"),
        ("[tracking]\nlqr_q = -1", "lqr_q"),
        ("[tracking]\nlqr_r = 0", "lqr_r"),
        ("[plant]\nkind = shift_register\nm = 0", "register_m"),
        ("[plant]\nkind = shift_register\nm = 2", "register_m"),
        ("[plant]\nkind = shift_register\np = 0", "register_p"),
        ("[schedule]\nq_amplitude = -1", "q_amplitude"),
        ("[schedule]\nq_amplitude = 200", "q_offset"),
        ("[schedule]\nramp_end = -5", "ramp_end"),
        ("[schedule]\nplateau_end = 10", "plateau_end"),
        ("[schedule]\nmemory_weight = -1", "memory_weight"),
        ("[safeset]\nlevel_scale = nan", "level_scale"),
        ("[safeset]\nlevel_scale = inf", "level_scale"),
        ("[plant]\nx0 = nan 0.6519", "x0"),
        ("[plant]\nx0 = 0.2632 inf", "x0"),
        ("[plant]\nkind = shift_register\nx0 = nan", "x0"),
        ("[plant]\ntheta_f = nan", "theta_f"),
        ("[constraints]\nc_max = nan", "c_max"),
        ("[schedule]\ncbar_high = nan", "cbar_high"),
        ("[run]\nseed = -1", "seed"),
        ("--seed -3", "seed"),
    ], ids=["q_period", "step_size", "tau", "x0", "empty_interval", "memory_target_period",
            "lqr_q", "lqr_r", "register_m", "register_m_two", "register_p", "q_amplitude",
            "q_offset", "ramp_end", "plateau_end", "memory_weight", "level_scale_nan",
            "level_scale_inf", "x0_nan", "x0_inf", "register_x0_nan", "theta_f_nan",
            "c_max_nan", "cbar_high_nan", "seed", "seed_flag"])
    def test_out_of_range_value_exits_two(self, tmp_path, capsys, entries, key):
        # entries starting with "--" are command-line flags, the rest config lines
        flags = entries.split() if entries.startswith("--") else []
        lines = "" if flags else entries
        run = "steps = 50" if "[run]" in lines else "[run]\nsteps = 50"
        cfg = write(tmp_path, f"{lines}\n{run}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "bad"),
                     *flags]) == 2
        assert key in capsys.readouterr().err

    def test_box_infeasible_at_steady_state_exits_one(self, tmp_path, capsys):
        # a non-empty input interval that no steady state satisfies
        cfg = write(tmp_path, "[constraints]\nu_min = 1.9\n[run]\nsteps = 50\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 1
        assert "steady-state margin" in capsys.readouterr().err

    def test_infeasible_start_exits_one(self, tmp_path):
        # start state far from the steady state of r0: initialization fails
        cfg = write(tmp_path, FAST_CSTR + "\n[plant]\nx0 = 0.9 0.45\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "bad")]) == 1

    def test_literal_weight_period_option(self, tmp_path):
        cfg = load_config(write(tmp_path, "[schedule]\nq_period = 24000\n"))
        assert cfg.q_period == 24000
        from oco_rg import CstrCostSchedule
        sched = CstrCostSchedule(horizon=2400, q_period=cfg.q_period)
        q = [sched.weight(t) for t in range(2400)]
        # a tenth of a period: the weight stays inside its budget band
        assert 50.0 <= min(q) and max(q) <= 250.0
        assert max(q) - min(q) < 100.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path, FAST_CSTR)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("trajectory.csv", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("plant, labels", [
        ("reactor", "c,theta"), ("register", "x0")])
    def test_trajectory_header(self, tmp_path, plant, labels):
        if plant == "reactor":
            cfg = write(tmp_path, "[run]\nsteps = 2\n[tracking]\ngrid_points = 61\n")
        else:
            cfg = memory_config(tmp_path, 2)
        out = tmp_path / "hdr"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == (f"t,{labels},u,r,v,eta,beta,L_stage,Ls_r,Ls_v,Ls_eta,"
                          "V,level,margin_worst")
        assert header.split(",") == ["t", *labels.split(","), *RegretLedger.COLUMNS]

    def test_register_starts_at_configured_x0(self, tmp_path):
        cfg = memory_config(tmp_path, 5, "p = 1\nx0 = 0.5")
        out = tmp_path / "x0"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        first = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert first[:2] == ["0", "0.5"]

    def test_register_x0_of_wrong_length_exits_two(self, tmp_path, capsys):
        cfg = memory_config(tmp_path, 5, "p = 1\nx0 = 0.5 0.5")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
        assert "x0" in capsys.readouterr().err

    def test_register_without_x0_starts_at_overridden_r0(self, tmp_path):
        cfg = load_config(memory_config(tmp_path, 5, "p = 2")).with_overrides(r0=0.2)
        assert cfg.x0 is None
        assert build_scenario(cfg).plant.x0.tolist() == [0.2, 0.2]

    def test_register_with_two_slots_finishes(self, tmp_path):
        # a deadbeat loop of two steps: the envelope rate is fixed at 1/2, so
        # the converse Lyapunov sum stays two steps long
        cfg = memory_config(tmp_path, 50, "p = 2")
        out = tmp_path / "p2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["certificate"]["lam"], report["certificate"]["N"]) == (0.5, 2)
        assert main(["verify", "--config", str(cfg)]) == 0

    def test_override_flags(self, tmp_path):
        cfg = write(tmp_path, FAST_CSTR)
        out = tmp_path / "ov"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--oco", "prev_opt", "--safe-set", "variable",
                     "--governor", "command"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["oco"] == "prev_opt"
        assert report["scenario"]["safe_set"] == "variable"
        assert "q_linear" in report["checks"]


class TestTable:
    def test_four_rows_and_normalization(self, tmp_path, capsys):
        cfg = write(tmp_path, FAST_CSTR)
        out = tmp_path / "table"
        code = main(["table1", "--config", str(cfg), "--out", str(out), "--jobs", "2"])
        assert code == 0
        lines = (out / "table.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        pcts = [float(row.split(",")[2]) for row in lines[1:]]
        assert max(pcts) == pytest.approx(100.0)
        header = lines[0].split(",")
        assert "rg_median_us" in header


class TestVerify:
    def test_fast_scenario_passes(self, tmp_path):
        cfg = write(tmp_path, FAST_CSTR + "\n[safeset]\nkind = variable\n")
        assert main(["verify", "--config", str(cfg)]) == 0

    def test_inflated_level_fails_soundness(self, tmp_path, capsys):
        cfg = write(tmp_path, FAST_CSTR + "\n[safeset]\nlevel_scale = 100.0\n")
        code = main(["verify", "--config", str(cfg)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_synthesis_failure_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "[tracking]\nlqr_r = 1\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        assert ("error: gain synthesis failed at v = 0.4225: Riccati value iteration "
                "did not converge within 10000 iterations") in capsys.readouterr().err

    def test_aborted_run_reports_every_check(self, tmp_path, capsys):
        # two grid points: the interpolated P is no Lyapunov function and the run leaves the set
        cfg = write(tmp_path, "[tracking]\ngrid_points = 2\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = {row.split()[1]: row.split(maxsplit=3)[2:] for row in captured.out.splitlines()}
        assert list(lines) == ["steady_states", "zero_violations", "safe_set_soundness",
                               "delta_ball", "governor_maximality", "causality",
                               "adversarial_floor", "certificate"]
        status, detail = lines["zero_violations"]
        assert status == "FAIL" and detail.startswith('{"step": 991, "error": "(x, v_prev = ')
        assert "left the safe set" in detail
        for name in ("causality", "certificate"):
            assert lines[name] == ["FAIL", '{"error": "run aborted"}']

    def test_memory_scenario_passes(self, tmp_path):
        assert main(["verify", "--config", str(memory_config(tmp_path, 200))]) == 0

    def test_memory_check_runs_configured_step_size(self, tmp_path, monkeypatch):
        runs, checks = [], []

        def capture(fn, into):
            def wrapper(*args, **kwargs):
                into.append(fn(*args, **kwargs))
                return into[-1]
            return wrapper

        monkeypatch.setattr(cli, "run_closed_loop", capture(cli.run_closed_loop, runs))
        monkeypatch.setattr(cli, "run_memory_reduction",
                            capture(cli.run_memory_reduction, checks))
        assert main(["verify", "--config", str(memory_config(tmp_path, 200))]) == 0
        assert len(runs) == len(checks) == 1
        assert checks[0]["ledger"].regret == runs[0].regret

    def test_ungoverned_run_counts_invariance_breaks(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "command_governor", lambda x, r, safe_set: r)
        cfg = write(tmp_path, FAST_CSTR + "\n[governor]\nkind = command\n")
        out = tmp_path / "free"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["invariance_breaks"] > 0
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 1
        line = next(row for row in capsys.readouterr().out.splitlines()
                    if row.startswith("verify zero_violations"))
        assert "FAIL" in line and '"invariance_breaks": 0' not in line


class TestConstants:
    def test_emits_levels_and_gains(self, tmp_path):
        cfg = write(tmp_path, FAST_CSTR)
        out = tmp_path / "consts"
        assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert 0.0 < cert["lam_tilde"] < 1.0
        table = (out / "constants.csv").read_text().strip().splitlines()
        header = table[0].split(",")
        assert header[:4] == ["v", "gamma", "V_max", "delta"]
        assert "K11" in header and "P12" in header
        first = [float(tok) for tok in table[1].split(",")]
        assert first[2] > 0.0  # V_max

    def test_certificate_uses_configured_step_size(self, tmp_path):
        text = FAST_CSTR + "\n[oco]\nstep_size = 1e-3\n"
        out = tmp_path / "step"
        assert main(["constants", "--config", str(write(tmp_path, text)),
                     "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        bundle = build_scenario(load_config(tmp_path / "scenario.ini"))
        kappa = estimate_ogd_kappa(bundle.ctrl, bundle.schedule, gamma=1e-3)
        assert cert["kappa_ogd"] == kappa
        assert cert["kappa_ogd"] != estimate_ogd_kappa(bundle.ctrl, bundle.schedule,
                                                       gamma=2.5e-4)

    def test_kappa_follows_the_schedule_target_range(self, tmp_path):
        ctrl = build_scenario(load_config(write(tmp_path, FAST_CSTR))).ctrl
        kappas = [estimate_ogd_kappa(ctrl, CstrCostSchedule(cbar_initial=low), gamma=2.5e-4)
                  for low in (0.27, 0.25)]
        assert kappas[0] != kappas[1]
        assert max(kappas) < 1.0

    def test_reruns_identical(self, tmp_path):
        cfg = write(tmp_path, FAST_CSTR)
        blobs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append((out / "certificate.json").read_bytes()
                         + (out / "constants.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestLogging:
    def test_log_env_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OCO_RG_LOG", "INFO")
        cfg = write(tmp_path, "[run]\nsteps = 2\n[tracking]\ngrid_points = 61\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "log")]) == 0
