"""Scenario configuration: INI-style files with experiment defaults.

Every parameter defaults to the benchmark experiment value, so an empty
file (or missing sections) reproduces the standard reactor scenario.  The
parser reports the file, section, and key for every malformed entry.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .oco import CstrCostSchedule, MemoryCostSchedule
from .plant import CstrParams, box_polytope, cstr_plant, shift_register_plant
from .safeset import fixed_level_set, variable_level_set
from .tracking import build_cstr_controller, register_controller


class ConfigError(ValueError):
    """Malformed scenario configuration; message carries section/key context."""


@dataclass(frozen=True)
class ScenarioConfig:
    # [plant]
    plant_kind: str = "cstr"
    theta_f: float = 20.0
    k_rate: float = 300.0
    m_act: float = 5.0
    x_f: float = 0.3947
    x_c: float = 0.3816
    alpha_f: float = 0.117
    tau: float = 0.1
    x0: tuple | None = None  # None: the reactor's benchmark start, r0 in every register slot
    register_m: int = 1
    register_p: int = 1
    # [constraints]
    c_min: float = 0.0
    c_max: float = 1.0
    theta_min: float = 0.0
    theta_max: float = 1.0
    u_min: float = 0.0
    u_max: float = 2.0
    # [reference]
    v_min: float = 0.4
    v_max: float = 0.85
    r0: float = 0.6519
    # [tracking]
    grid_points: int = 181
    lqr_q: float = 1.0
    lqr_r: float = 0.01
    # [governor]
    governor: str = "scalar"
    # [safeset]
    safe_set: str = "fixed"
    level_scale: float = 1.0
    # [oco]
    oco: str = "ogd"
    step_size: float = 2.5e-4
    grad_tolerance: float = 1e-9
    # [schedule]
    q_offset: float = 150.0
    q_amplitude: float = 100.0
    q_period: int = 2400
    cbar_initial: float = 0.27
    cbar_high: float = 0.65
    cbar_final: float = 0.3
    ramp_end: int = 900
    plateau_end: int = 1800
    memory_weight: float = 4.0
    memory_target_amplitude: float = 0.6
    memory_target_period: float = 240.0
    # [run]
    steps: int = 2400
    seed: int = 12345
    # [output]
    out_dir: str = "out"

    def with_overrides(self, **kwargs):
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)


_SECTIONS = {
    "plant": {
        "kind": ("plant_kind", str),
        "theta_f": ("theta_f", float),
        "k_rate": ("k_rate", float),
        "m_act": ("m_act", float),
        "x_f": ("x_f", float),
        "x_c": ("x_c", float),
        "alpha_f": ("alpha_f", float),
        "tau": ("tau", float),
        "x0": ("x0", "floats"),
        "m": ("register_m", int),
        "p": ("register_p", int),
    },
    "constraints": {
        "c_min": ("c_min", float), "c_max": ("c_max", float),
        "theta_min": ("theta_min", float), "theta_max": ("theta_max", float),
        "u_min": ("u_min", float), "u_max": ("u_max", float),
    },
    "reference": {
        "v_min": ("v_min", float), "v_max": ("v_max", float), "r0": ("r0", float),
    },
    "tracking": {
        "grid_points": ("grid_points", int),
        "lqr_q": ("lqr_q", float),
        "lqr_r": ("lqr_r", float),
    },
    "governor": {"kind": ("governor", str)},
    "safeset": {"kind": ("safe_set", str), "level_scale": ("level_scale", float)},
    "oco": {
        "kind": ("oco", str),
        "step_size": ("step_size", float),
        "grad_tolerance": ("grad_tolerance", float),
    },
    "schedule": {
        "q_offset": ("q_offset", float),
        "q_amplitude": ("q_amplitude", float),
        "q_period": ("q_period", int),
        "cbar_initial": ("cbar_initial", float),
        "cbar_high": ("cbar_high", float),
        "cbar_final": ("cbar_final", float),
        "ramp_end": ("ramp_end", int),
        "plateau_end": ("plateau_end", int),
        "memory_weight": ("memory_weight", float),
        "memory_target_amplitude": ("memory_target_amplitude", float),
        "memory_target_period": ("memory_target_period", float),
    },
    "run": {"steps": ("steps", int), "seed": ("seed", int)},
    "output": {"dir": ("out_dir", str)},
}

_CHOICES = {
    "plant_kind": ("cstr", "shift_register"),
    "governor": ("scalar", "command"),
    "safe_set": ("fixed", "variable"),
    "oco": ("ogd", "prev_opt"),
}


def load_config(path) -> ScenarioConfig:
    """Parse a scenario file; unknown keys and bad values raise ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            attr, conv = known[key]
            try:
                if conv == "floats":
                    values[attr] = tuple(float(tok) for tok in raw.replace(",", " ").split())
                else:
                    values[attr] = conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: [{section}] {key} = {raw!r}: {exc}"
                ) from exc
    cfg = ScenarioConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig):
    for item in fields(cfg):  # every comparison below is False on NaN
        value = getattr(cfg, item.name)
        if isinstance(value, float) and math.isnan(value):
            raise ConfigError(f"{item.name} must be a number, got nan")
    for attr, choices in _CHOICES.items():
        if getattr(cfg, attr) not in choices:
            raise ConfigError(f"{attr} must be one of {choices}, got {getattr(cfg, attr)!r}")
    if cfg.steps < 1:
        raise ConfigError("run steps must be >= 1")
    if cfg.seed < 0:  # numpy's default_rng takes no negative seed
        raise ConfigError(f"seed must be >= 0, got {cfg.seed!r}")
    if not cfg.v_min < cfg.v_max:
        raise ConfigError("reference window is empty")
    if not (cfg.v_min <= cfg.r0 <= cfg.v_max):
        raise ConfigError(f"r0 = {cfg.r0} outside reference window [{cfg.v_min}, {cfg.v_max}]")
    if not 0 < cfg.level_scale < math.inf:
        raise ConfigError(f"level_scale must be positive and finite, got {cfg.level_scale!r}")
    if cfg.grid_points < 2:
        raise ConfigError("grid_points must be >= 2")
    for attr in ("tau", "step_size", "q_period", "memory_target_period", "lqr_q", "lqr_r"):
        if not getattr(cfg, attr) > 0:
            raise ConfigError(f"{attr} must be positive, got {getattr(cfg, attr)!r}")
    if cfg.register_m != 1:  # the register's steady-state map takes one input channel
        raise ConfigError(f"register_m must be 1, got {cfg.register_m!r}")
    if cfg.register_p < 1:
        raise ConfigError(f"register_p must be >= 1, got {cfg.register_p!r}")
    for name in ("c", "theta", "u"):
        lo, hi = getattr(cfg, f"{name}_min"), getattr(cfg, f"{name}_max")
        if not lo <= hi:
            raise ConfigError(f"constraint interval [{name}_min, {name}_max] = "
                              f"[{lo}, {hi}] is empty")
    for attr in ("q_amplitude", "ramp_end", "memory_weight"):
        if not getattr(cfg, attr) >= 0:
            raise ConfigError(f"{attr} must be >= 0, got {getattr(cfg, attr)!r}")
    if not cfg.q_offset > cfg.q_amplitude:  # else the weight q_t turns the cost concave
        raise ConfigError(f"q_offset = {cfg.q_offset!r} must exceed q_amplitude")
    if cfg.plateau_end < cfg.ramp_end:
        raise ConfigError(f"plateau_end = {cfg.plateau_end!r} is before ramp_end")
    if cfg.x0 is not None:
        if cfg.plant_kind == "cstr":
            n, what = 2, "2 entries (c, theta) for the reactor"
        else:
            n = cfg.register_p
            what = f"p = {n} entries for the register"
        if len(cfg.x0) != n:
            raise ConfigError(f"x0 must have {what}, got {len(cfg.x0)}")
        if not all(math.isfinite(entry) for entry in cfg.x0):
            raise ConfigError(f"x0 entries must be finite, got {cfg.x0!r}")


@dataclass
class ScenarioBundle:
    """Everything a run needs, built once from a config."""

    config: ScenarioConfig
    plant: object
    ctrl: object
    poly: object
    safe_set: object
    schedule: object


def build_scenario(cfg: ScenarioConfig, safe_set_kind=None) -> ScenarioBundle:
    """Instantiate plant, controller, safe set, and cost schedule."""
    kind = safe_set_kind or cfg.safe_set
    if cfg.plant_kind == "cstr":
        params = CstrParams(theta_f=cfg.theta_f, k_rate=cfg.k_rate, M_act=cfg.m_act,
                            x_f=cfg.x_f, x_c=cfg.x_c, alpha_f=cfg.alpha_f, tau=cfg.tau)
        plant = cstr_plant(params, x0=cfg.x0)
        ctrl, _ = build_cstr_controller(
            plant, params, v_lo=cfg.v_min, v_hi=cfg.v_max,
            lqr_q=cfg.lqr_q, lqr_r=cfg.lqr_r, grid_points=cfg.grid_points)
        poly = box_polytope([(cfg.c_min, cfg.c_max), (cfg.theta_min, cfg.theta_max)],
                            [(cfg.u_min, cfg.u_max)])
        schedule = CstrCostSchedule(
            horizon=cfg.steps, q_offset=cfg.q_offset,
            q_amplitude=cfg.q_amplitude, q_period=cfg.q_period,
            cbar_initial=cfg.cbar_initial, cbar_high=cfg.cbar_high,
            cbar_final=cfg.cbar_final, ramp_end=cfg.ramp_end,
            plateau_end=cfg.plateau_end)
    elif cfg.plant_kind == "shift_register":
        p = cfg.register_p
        plant = shift_register_plant(p, x0=np.full(p, cfg.r0) if cfg.x0 is None else cfg.x0)
        ctrl = register_controller(plant, cfg.v_min, cfg.v_max)
        poly = box_polytope([(None, None)] * p, [(cfg.u_min, cfg.u_max)])
        schedule = MemoryCostSchedule(
            horizon=cfg.steps, p=p, weight=cfg.memory_weight,
            target_amplitude=cfg.memory_target_amplitude,
            target_period=cfg.memory_target_period)
    else:  # pragma: no cover - guarded by validate_config
        raise ConfigError(f"unknown plant kind {cfg.plant_kind!r}")

    bundle = ScenarioBundle(config=cfg, plant=plant, ctrl=ctrl, poly=poly,
                            safe_set=None, schedule=schedule)
    return with_safe_set(bundle, kind)


def with_safe_set(bundle: ScenarioBundle, kind: str) -> ScenarioBundle:
    """The bundle with a safe set of the given kind, sharing everything else.

    Plant, controller and cost schedule hold no state once built, so runs
    on several bundles from one build may share them across threads.
    """
    cfg = bundle.config
    make = fixed_level_set if kind == "fixed" else variable_level_set
    safe_set = make(bundle.poly, bundle.ctrl, grid_points=cfg.grid_points,
                    level_scale=cfg.level_scale)
    return replace(bundle, safe_set=safe_set)


DEVIATIONS = (
    {
        "id": "controller-synthesis",
        "description": "tracking gains come from pointwise discrete-time LQR on the "
                       "Jacobian linearization (input weight 0.01) with linear "
                       "interpolation between grid points; stability constants are "
                       "estimated empirically rather than certified",
    },
    {
        "id": "lqr-input-weight",
        "description": "default input weight 0.01 instead of 1: unit weight leaves the "
                       "loop nearly non-contractive near the lower window edge and the "
                       "Riccati iteration exceeds its iteration budget",
    },
    {
        "id": "weight-period-default",
        "description": "the cost-weight sinusoid completes one full period over the "
                       "run by default (q_period = steps); set q_period = 24000 for "
                       "the literal tenth-of-a-period schedule",
    },
    {
        "id": "gradient-index",
        "description": "projected gradient descent evaluates the gradient of the most "
                       "recently revealed cost (index t-1), keeping the update causal",
    },
    {
        "id": "variation-coefficient-patch",
        "description": "q-linear regret verification multiplies the optimizer "
                       "variation by 1/(1-kappa) instead of kappa/(1-kappa); the "
                       "latter fails for the previous-optimum update at kappa = 0",
    },
)
