"""Flat dotted-key experiment configuration.

Grammar: one `key = value` pair per line; `#` starts a comment; blank
lines are ignored.  Keys are dotted lowercase paths.  Values are parsed as
int, float, boolean (true/false), comma-separated float vectors, or raw
strings, in that order of preference.  Parsing is strict: unknown keys are
errors carrying the offending line number, and every default is resolved
at parse time so the echoed configuration is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigurationError

# Fixed leaf keys outside the free-parameter sections.
_FIXED_KEYS = {
    "seed", "mode", "x0",
    "flow.integrator", "flow.dt",
    "budget.steps", "budget.t_end",
    "stop.residual",
    "output.dir", "output.stride",
    "lyapunov.reference",
    "compare.steps", "compare.samples",
    "check.samples", "check.x_bar",
    "ensemble.count", "ensemble.verify", "ensemble.steps",
}

# Sections whose sub-keys name free parameters validated downstream.
_PARAM_SECTIONS = ("problem", "geometry", "preset")

_MEMBER_KEYS = {"geometry", "weights", "z0"}

MODES = ("discrete", "flow")
INTEGRATORS = ("euler", "rk4")


@dataclass
class MemberConfig:
    geometry: str = "euclidean"
    weights: Optional[tuple] = None
    z0: tuple = ()


@dataclass
class ExperimentConfig:
    seed: int = 0
    problem: str = "skew_bilinear"
    problem_params: dict = field(default_factory=dict)
    geometry: str = "euclidean"
    geometry_params: dict = field(default_factory=dict)
    preset: str = "eg"
    preset_params: dict = field(default_factory=dict)
    mode: str = "discrete"
    integrator: str = "euler"
    dt: float = 1e-2
    steps: int = 1000
    t_end: float = 10.0
    x0: Optional[tuple] = None
    lyapunov_reference: Optional[tuple] = None
    stop_residual: float = 1e-8
    output_dir: str = "runs"
    stride: Optional[int] = None
    compare_steps: int = 100
    compare_samples: int = 1000
    check_samples: int = 200
    check_x_bar: Optional[tuple] = None
    ensemble_members: tuple = ()
    ensemble_verify: bool = True
    ensemble_steps: int = 1000

    def effective_stride(self) -> int:
        if self.stride is not None:
            return self.stride
        return 1 if self.mode == "discrete" else 10


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        try:
            return tuple(float(part) for part in raw.split(","))
        except ValueError:
            raise ConfigurationError(f"cannot parse vector value {raw!r}")
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _as_vector(value, key):
    if isinstance(value, tuple):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    raise ConfigurationError(f"{key} expects a numeric vector")


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} expects an integer, got {value!r}")
    return value


def _as_float(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{key} expects a number, got {value!r}")
    return float(value)


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    pairs = {}
    order = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigurationError(f"{source}:{lineno}: empty key")
        if key in pairs:
            raise ConfigurationError(
                f"{source}:{lineno}: duplicate key {key!r} (first at line {order[key]})")
        pairs[key] = _parse_value(raw)
        order[key] = lineno

    cfg = ExperimentConfig()
    members: dict = {}

    for key, value in pairs.items():
        lineno = order[key]
        where = f"{source}:{lineno}"
        parts = key.split(".")
        if key in _FIXED_KEYS:
            _apply_fixed(cfg, key, value, where)
        elif parts[0] in _PARAM_SECTIONS and len(parts) == 2:
            section, leaf = parts
            if leaf == "name":
                if not isinstance(value, str):
                    raise ConfigurationError(f"{where}: {key} expects a name")
                setattr(cfg, section, value)
            else:
                getattr(cfg, f"{section}_params")[leaf] = value
        elif parts[0] == "ensemble" and len(parts) == 3 and parts[1].startswith("member"):
            index_text = parts[1][len("member"):]
            if not index_text.isdigit():
                raise ConfigurationError(f"{where}: bad member index in {key!r}")
            if parts[2] not in _MEMBER_KEYS:
                raise ConfigurationError(
                    f"{where}: unknown member key {parts[2]!r} "
                    f"(expected one of {sorted(_MEMBER_KEYS)})")
            members.setdefault(int(index_text), {})[parts[2]] = (value, where)
        else:
            raise ConfigurationError(f"{where}: unknown key {key!r}")

    if members:
        count = pairs.get("ensemble.count")
        indices = sorted(members)
        if indices != list(range(1, len(indices) + 1)):
            raise ConfigurationError(
                f"{source}: ensemble members must be numbered 1..N; got {indices}")
        if count is not None and count != len(indices):
            raise ConfigurationError(
                f"{source}: ensemble.count = {count} but {len(indices)} members defined")
        built = []
        for i in indices:
            entry = members[i]
            mc = MemberConfig()
            if "geometry" in entry:
                mc.geometry = str(entry["geometry"][0])
            if "weights" in entry:
                mc.weights = _as_vector(entry["weights"][0], f"member{i}.weights")
            if "z0" in entry:
                mc.z0 = _as_vector(entry["z0"][0], f"member{i}.z0")
            built.append(mc)
        cfg.ensemble_members = tuple(built)
    elif "ensemble.count" in pairs and pairs["ensemble.count"] not in (0,):
        raise ConfigurationError(f"{source}: ensemble.count given but no members defined")

    if cfg.mode not in MODES:
        raise ConfigurationError(f"{source}: mode must be one of {MODES}")
    if cfg.integrator not in INTEGRATORS:
        raise ConfigurationError(f"{source}: flow.integrator must be one of {INTEGRATORS}")
    if cfg.steps < 0 or cfg.ensemble_steps < 0:
        raise ConfigurationError(f"{source}: step budgets must be nonnegative")
    return cfg


def _apply_fixed(cfg, key, value, where):
    if key == "seed":
        cfg.seed = _as_int(value, key)
    elif key == "mode":
        cfg.mode = str(value)
    elif key == "x0":
        cfg.x0 = _as_vector(value, key)
    elif key == "flow.integrator":
        cfg.integrator = str(value)
    elif key == "flow.dt":
        cfg.dt = _as_float(value, key)
        if not (math.isfinite(cfg.dt) and cfg.dt > 0.0):
            raise ConfigurationError(
                f"{where}: {key} must be a finite positive number, got {value!r}")
    elif key == "budget.steps":
        cfg.steps = _as_int(value, key)
    elif key == "budget.t_end":
        cfg.t_end = _as_float(value, key)
        if not (math.isfinite(cfg.t_end) and cfg.t_end >= 0.0):
            raise ConfigurationError(
                f"{where}: {key} must be a finite number >= 0, got {value!r}")
    elif key == "stop.residual":
        cfg.stop_residual = _as_float(value, key)
    elif key == "output.dir":
        cfg.output_dir = str(value)
    elif key == "output.stride":
        cfg.stride = _as_int(value, key)
        if cfg.stride < 1:
            raise ConfigurationError(f"{where}: {key} must be at least 1, got {value}")
    elif key == "lyapunov.reference":
        cfg.lyapunov_reference = _as_vector(value, key)
    elif key == "compare.steps":
        cfg.compare_steps = _as_int(value, key)
    elif key == "compare.samples":
        cfg.compare_samples = _as_int(value, key)
    elif key == "check.samples":
        cfg.check_samples = _as_int(value, key)
    elif key == "check.x_bar":
        cfg.check_x_bar = _as_vector(value, key)
    elif key == "ensemble.count":
        _as_int(value, key)  # cross-validated against the member list
    elif key == "ensemble.verify":
        if not isinstance(value, bool):
            raise ConfigurationError(f"{where}: {key} expects true/false")
        cfg.ensemble_verify = value
    elif key == "ensemble.steps":
        cfg.ensemble_steps = _as_int(value, key)
    else:  # pragma: no cover - guarded by _FIXED_KEYS
        raise ConfigurationError(f"{where}: unknown key {key!r}")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), source=str(path))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: ExperimentConfig) -> list:
    """Canonical, complete (defaults included) line rendering; parsing the
    echo reproduces an equivalent configuration."""
    lines = {
        "seed": cfg.seed,
        "problem.name": cfg.problem,
        "geometry.name": cfg.geometry,
        "preset.name": cfg.preset,
        "mode": cfg.mode,
        "flow.integrator": cfg.integrator,
        "flow.dt": cfg.dt,
        "budget.steps": cfg.steps,
        "budget.t_end": cfg.t_end,
        "stop.residual": cfg.stop_residual,
        "output.dir": cfg.output_dir,
        "output.stride": cfg.effective_stride(),
        "compare.steps": cfg.compare_steps,
        "compare.samples": cfg.compare_samples,
        "check.samples": cfg.check_samples,
        "ensemble.verify": cfg.ensemble_verify,
        "ensemble.steps": cfg.ensemble_steps,
    }
    for section in _PARAM_SECTIONS:
        for key, value in getattr(cfg, f"{section}_params").items():
            lines[f"{section}.{key}"] = value
    if cfg.x0 is not None:
        lines["x0"] = cfg.x0
    if cfg.lyapunov_reference is not None:
        lines["lyapunov.reference"] = cfg.lyapunov_reference
    if cfg.check_x_bar is not None:
        lines["check.x_bar"] = cfg.check_x_bar
    if cfg.ensemble_members:
        lines["ensemble.count"] = len(cfg.ensemble_members)
        for i, member in enumerate(cfg.ensemble_members, start=1):
            lines[f"ensemble.member{i}.geometry"] = member.geometry
            if member.weights is not None:
                lines[f"ensemble.member{i}.weights"] = member.weights
            if member.z0:
                lines[f"ensemble.member{i}.z0"] = member.z0
    return [f"{key} = {_format_value(value)}" for key, value in sorted(lines.items())]
