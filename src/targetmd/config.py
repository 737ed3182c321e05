"""Flat dotted-key experiment configuration.

Grammar: one `key = value` pair per line; `#` starts a comment; blank
lines are ignored.  Keys are dotted lowercase paths.  Values are parsed as
comma-separated float vectors, boolean (true/false), int, float, or raw
strings, in that order of preference; the text keys (output.dir and
ensemble.memberN.geometry) keep the value's text as written, and
output.dir must not be empty.  A config file that cannot be read is an
error `source: reason`.  Parsing is
strict: every rejected key or value is an error that starts with
`source:line: key`, and every default is resolved at parse time so the
echoed configuration is complete.  output.dir is validated first; an
error after it has an `output_dir` attribute, the directory (or default)
the config names.  Each fixed key is one row of `_KEYS`,
which both parse_config and echo_config walk.

Each setting has one key, which every command that uses it reads: the
budget (budget.steps, or budget.t_end in flow mode), the reference point
(lyapunov.reference) and the design geometry (geometry.name).  An
ensemble has as many members as it lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigurationError

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
    geometry_weights: Optional[tuple] = None
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
    compare_samples: int = 1000
    check_samples: int = 200
    ensemble_members: tuple = ()
    ensemble_verify: bool = True

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
            raise ConfigurationError(f"expects a numeric vector, got {raw!r}") from None
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


# Value parsers: each converts a parsed value or raises a ConfigurationError
# whose message completes the sentence "<key> ...".

def _vector(value):
    if isinstance(value, tuple):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    raise ConfigurationError(f"expects a numeric vector, got {value!r}")


def _integer(least: int):
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"expects an integer, got {value!r}")
        if value < least:
            raise ConfigurationError(f"must be at least {least}, got {value}")
        return value
    return parse


def _number(rule: str, holds):
    """A finite float for which holds(value) is true."""
    def parse(value):
        try:
            number = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if not (math.isfinite(number) and holds(number)):
            raise ConfigurationError(f"must be {rule}, got {value!r}")
        return number
    return parse


def _choice(options: tuple):
    def parse(value):
        if value not in options:
            raise ConfigurationError(f"must be one of {options}, got {value!r}")
        return value
    return parse


def _typed(kind: type, what: str):
    def parse(value):
        if not isinstance(value, kind):
            raise ConfigurationError(f"expects {what}, got {value!r}")
        return value
    return parse


def _directory(text: str):
    if not text:
        raise ConfigurationError("must name a directory, got an empty value")
    return text


_NAME = _typed(str, "a name")
_FINITE_NONNEGATIVE = _number("a finite number >= 0", lambda v: v >= 0.0)

# The fixed keys: key -> (ExperimentConfig field, value parser).  Both
# parse_config and echo_config walk this table.
_KEYS = {
    "seed": ("seed", _integer(0)),
    "problem.name": ("problem", _NAME),
    "geometry.name": ("geometry", _NAME),
    "geometry.weights": ("geometry_weights", _vector),
    "preset.name": ("preset", _NAME),
    "mode": ("mode", _choice(MODES)),
    "x0": ("x0", _vector),
    "flow.integrator": ("integrator", _choice(INTEGRATORS)),
    "flow.dt": ("dt", _number("a finite positive number", lambda v: v > 0.0)),
    "budget.steps": ("steps", _integer(0)),
    "budget.t_end": ("t_end", _FINITE_NONNEGATIVE),
    "stop.residual": ("stop_residual", _FINITE_NONNEGATIVE),
    "output.dir": ("output_dir", _directory),
    "output.stride": ("stride", _integer(1)),
    "lyapunov.reference": ("lyapunov_reference", _vector),
    "compare.samples": ("compare_samples", _integer(1)),
    "check.samples": ("check_samples", _integer(2)),
    "ensemble.verify": ("ensemble_verify", _typed(bool, "true/false")),
}

# ensemble.memberN.<key> -> value parser; each key is a MemberConfig field.
_MEMBER_KEYS = {"geometry": str, "weights": _vector, "z0": _vector}

# Sections whose other sub-keys name free parameters validated downstream.
_PARAM_SECTIONS = ("problem", "preset")


def _convert(parse, raw: str):
    """parse of the value's text for the text keys, else of the parsed value."""
    return parse(raw.strip() if parse in (str, _directory) else _parse_value(raw))


def _apply(cfg, members: dict, key: str, raw: str):
    """Store the value of one `key = raw` line."""
    parts = key.split(".")
    if key in _KEYS:
        name, parse = _KEYS[key]
        setattr(cfg, name, _convert(parse, raw))
    elif len(parts) == 2 and parts[0] in _PARAM_SECTIONS:
        getattr(cfg, f"{parts[0]}_params")[parts[1]] = _parse_value(raw)
    elif len(parts) == 3 and parts[0] == "ensemble" and parts[1].startswith("member"):
        index = parts[1][len("member"):]
        if not index.isdecimal():
            raise ConfigurationError("has a bad member index")
        if parts[2] not in _MEMBER_KEYS:
            raise ConfigurationError(
                f"is not a member key (expected one of {sorted(_MEMBER_KEYS)})")
        members.setdefault(int(index), {})[parts[2]] = _convert(_MEMBER_KEYS[parts[2]], raw)
    else:
        raise ConfigurationError("is not a known key")


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
        pairs[key] = raw
        order[key] = lineno

    cfg = ExperimentConfig()
    members: dict = {}
    applied = set()
    try:
        # output.dir first: every later error carries the validated
        # directory as `output_dir`, where the command clears its outputs
        for key in sorted(pairs, key=lambda key: key != "output.dir"):
            try:
                _apply(cfg, members, key, pairs[key])
            except ConfigurationError as exc:
                raise ConfigurationError(f"{source}:{order[key]}: {key} {exc}") from None
            applied.add(key)

        indices = sorted(members)
        if indices != list(range(1, len(indices) + 1)):
            raise ConfigurationError(
                f"{source}: ensemble members must be numbered 1..N; got {indices}")
    except ConfigurationError as exc:
        if "output.dir" in applied or "output.dir" not in pairs:
            exc.output_dir = cfg.output_dir
        raise
    cfg.ensemble_members = tuple(MemberConfig(**members[i]) for i in indices)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from None
    return parse_config(text, source=str(path))


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
    echo reproduces an equivalent configuration.  Unset optional values
    (None, or an empty z0) are left out."""
    lines = {key: getattr(cfg, name) for key, (name, _) in _KEYS.items()}
    lines["output.stride"] = cfg.effective_stride()
    for section in _PARAM_SECTIONS:
        for key, value in getattr(cfg, f"{section}_params").items():
            lines[f"{section}.{key}"] = value
    for i, member in enumerate(cfg.ensemble_members, start=1):
        for key in _MEMBER_KEYS:
            lines[f"ensemble.member{i}.{key}"] = getattr(member, key)
    return [f"{key} = {_format_value(value)}" for key, value in sorted(lines.items())
            if value not in (None, ())]
