"""Scenario file parsing: each block's keys map to the fields of one
config class, which checks the values.

The format is a flat, diff-friendly, line-oriented key/value format with
`[block]` headers and `#` comments. Numeric keys carry their unit as a
suffix (_m, _rad, _s, combinations like _rad_s, or _per_m). Unknown keys
and blocks are rejected; missing optional blocks take documented defaults.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .controllers import OptimalParams
from .errors import ParameterError, PathConstructionError, ScenarioError, quoted
from .harness import NoiseSpec, Scenario, initial_lateral_for_error
from .paths import PRESET_DESCRIPTORS, build_path
from .presets import REAR_IMPLEMENT, TABLE1, TABLE2
from .vehicle import VehicleConfig

FORMAT_VERSION = 1

# file key -> config field, per block; a key the file leaves out keeps the
# field's default
_VEHICLE_KEYS = {"wheelbase_m": "wheelbase", "steer_limit_rad": "steer_limit",
                 "steer_rate_limit_rad_s": "steer_rate_limit", "speed_m_s": "speed"}
_IMPLEMENT_KEYS = {"I_s_m": "I_s", "I_y_m": "I_y"}
_OPTIMAL_KEYS = {"lambda_per_m": "lam", "k_theta_per_m": "k_theta", "s_h_m": "s_h",
                 "s_t_m": "s_t"}
_BASELINE_KEYS = {"k_y_per_m": "k_y", "k_theta_per_m": "k_theta"}
_NOISE_KEYS = {"y_std_m": "y_std", "theta_std_rad": "theta_std",
               "omega_std_rad_s": "omega_std"}
_RUN_KEYS = {"length_m": "run_length", "dt_s": "dt", "control_period_s": "control_period",
             "initial_s_m": "initial_s", "initial_y_m": "initial_y",
             "initial_theta_rad": "initial_theta"}
# config field -> file key; each field name has one key (k_theta the same in
# both controller tables)
_FIELD_KEYS = {name: key for keys in (_VEHICLE_KEYS, _IMPLEMENT_KEYS, _OPTIMAL_KEYS,
                                      _BASELINE_KEYS, _NOISE_KEYS, _RUN_KEYS,
                                      {"method": "method"})
               for key, name in keys.items()}
# config field -> the file key it is derived from when the file leaves out
# the field's own key
_DERIVED_KEYS = {"initial_y": "initial_e_I_m"}

_BLOCK_KEYS = {
    "path": {"preset", "start_x_m", "start_y_m", "start_heading_rad", "segment"},
    "vehicle": set(_VEHICLE_KEYS),
    "implement": set(_IMPLEMENT_KEYS),
    "controller": {"method", "preset", *_OPTIMAL_KEYS, *_BASELINE_KEYS},
    "run": {*_RUN_KEYS, "initial_e_I_m", "seed"},
    "noise": {"enabled", *_NOISE_KEYS},
}

_SEGMENT_KEYS = {"kind", "length_m", "curvature_per_m"}

class _Value(str):
    """A value as written in the file, with the line it was read from."""

    line: int

    def __new__(cls, text: str, line: int):
        value = super().__new__(cls, text)
        value.line = line
        return value


def parse_blocks(text: str) -> dict:
    """Split the document into blocks, each a map of key -> value, with a
    block's `segment` lines as one list; rejects unknown and repeated keys."""
    blocks: dict[str, dict] = {}
    current = block = None
    version_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _BLOCK_KEYS:
                raise ScenarioError(f"line {lineno}: unknown block {quoted(current)}")
            block = blocks.setdefault(current, {})
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if current is None:
            if key == "format_version":
                if value != str(FORMAT_VERSION):
                    raise ScenarioError(f"line {lineno}: unsupported format_version "
                                        f"{quoted(value)}")
                version_seen = True
                continue
            raise ScenarioError(f"line {lineno}: key {quoted(key)} outside any block")
        if key not in _BLOCK_KEYS[current]:
            raise ScenarioError(f"line {lineno}: unknown key {quoted(key)} in block [{current}]")
        if not value:
            raise ScenarioError(f"line {lineno}: key {key!r} has no value")
        if key == "segment":
            block.setdefault(key, []).append(_Value(value, lineno))
        elif key in block:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        else:
            block[key] = _Value(value, lineno)
    if not version_seen:
        raise ScenarioError("missing format_version")
    return blocks


def _float(text: str, what: str, line: int) -> float:
    """A finite float, or a line-numbered ScenarioError."""
    try:
        x = float(text)
    except ValueError:
        raise ScenarioError(f"line {line}: {what}: not a number: {quoted(text)}") from None
    if not math.isfinite(x):
        raise ScenarioError(f"line {line}: {what}: must be finite, got {quoted(text)}")
    return x


def _num(d: dict, key: str, default: float) -> float:
    if key not in d:
        return default
    return _float(d[key], f"key {key!r}", d[key].line)


def _fields(d: dict, keys: dict) -> dict:
    """The config fields that d's keys set, read in the table's order."""
    return {name: _num(d, key, None) for key, name in keys.items() if key in d}


def _echo(config, keys: dict) -> dict:
    return {key: getattr(config, name) for key, name in keys.items()}


def _at_line(exc: ParameterError, given: dict) -> ScenarioError:
    """exc as "line N: key K: ...", at the first field it blames whose key, or
    the key it is derived from, the file sets (given: key -> value, over all
    blocks)."""
    for name in exc.fields:
        key = _FIELD_KEYS.get(name)
        if key not in given:
            key = _DERIVED_KEYS.get(name)
        if key in given:
            return ScenarioError(f"line {given[key].line}: key {key!r}: {exc}")
    return ScenarioError(str(exc))


# Python's default bound on the digits of an int read from text
MAX_SEED_DIGITS = 4300
SEED_RULE = f"must be a non-negative integer of at most {MAX_SEED_DIGITS} digits"


def is_seed(text: str) -> bool:
    """Whether text is a valid seed (SEED_RULE): ASCII digits, with no sign,
    point or spaces, and at most MAX_SEED_DIGITS of them."""
    return text.isascii() and text.isdigit() and len(text) <= MAX_SEED_DIGITS


def _seed(d: dict) -> int:
    if "seed" not in d:
        return 0
    text = d["seed"]
    if not is_seed(text):
        raise ScenarioError(f"line {text.line}: key 'seed': {SEED_RULE}, got {quoted(text)}")
    return int(text)


def _parse_segment(spec: _Value) -> dict:
    desc = {}
    for item in spec.split():
        k, _, v = item.partition("=")
        if k not in _SEGMENT_KEYS:
            raise ScenarioError(f"line {spec.line}: segment: unknown field {quoted(k)}")
        if k in desc:
            raise ScenarioError(f"line {spec.line}: segment: duplicate field {quoted(k)}")
        desc[k] = v if k == "kind" else _float(v, f"segment field {k!r}", spec.line)
    if "kind" not in desc or "length_m" not in desc:
        raise ScenarioError(f"line {spec.line}: segment needs kind and length_m")
    return desc


def _build_path(d: dict):
    if "preset" in d and "segment" in d:
        line = max(d["preset"].line, d["segment"][0].line)
        raise ScenarioError(f"line {line}: [path] takes a preset or segment lines, not both")
    start = (_num(d, "start_x_m", 0.0), _num(d, "start_y_m", 0.0))
    heading = _num(d, "start_heading_rad", 0.0)
    if "preset" in d:
        name = d["preset"]
        if name not in PRESET_DESCRIPTORS:
            raise ScenarioError(f"line {name.line}: key 'preset': "
                                f"unknown path preset {quoted(name)}")
        descriptors = PRESET_DESCRIPTORS[name]
    elif "segment" in d:
        descriptors = [_parse_segment(s) for s in d["segment"]]
    else:
        raise ScenarioError("[path] needs a preset or segment lines")
    try:
        return build_path(descriptors, start=start, start_heading=heading)
    except PathConstructionError as exc:
        if "preset" in d or exc.segment is None:
            raise ScenarioError(f"[path]: {exc}") from exc
        raise ScenarioError(f"line {d['segment'][exc.segment].line}: segment: {exc}") from exc


_CONTROLLER_PRESETS = {}
for (_m, _p), (_imp, _params) in TABLE1.items():
    _CONTROLLER_PRESETS[f"table1_{_p}_{_m}"] = (_m, _imp, _params)
for _params in TABLE2:
    _CONTROLLER_PRESETS[f"table2_sh_{_params.s_h:g}"] = (
        "optimal", REAR_IMPLEMENT, _params)


def _build_controller(d: dict):
    """Returns (method, params, preset_implement_or_None)."""
    preset_imp = params_p = None
    method = d.get("method")
    if "preset" in d:
        preset = d["preset"]
        if preset not in _CONTROLLER_PRESETS:
            raise ScenarioError(f"line {preset.line}: key 'preset': "
                                f"unknown controller preset {quoted(preset)}")
        method_p, preset_imp, params_p = _CONTROLLER_PRESETS[preset]
        method = method or method_p
    if method is None:
        method = "optimal"
    if method == "optimal":
        keys, params = _OPTIMAL_KEYS, TABLE1[("optimal", "rear")][1]
    else:  # both baselines default to the rear backstepping gains; Scenario
        # rejects an unknown method
        keys, params = _BASELINE_KEYS, TABLE1[("backstepping", "rear")][1]
    # a preset of the other kind of params lends the fields the two share
    lent = {name: getattr(params_p, name) for name in keys.values()
            if hasattr(params_p, name)}
    return method, replace(params, **{**lent, **_fields(d, keys)}), preset_imp


def parse_scenario(text: str, seed_override: int | None = None,
                   noise_override: bool | None = None) -> Scenario:
    blocks = parse_blocks(text)
    path = _build_path(blocks.get("path", {"preset": "exp1"}))
    v, c, i, r, n = (blocks.get(name, {})
                     for name in ("vehicle", "controller", "implement", "run", "noise"))
    enabled = n.get("enabled", "false")
    if enabled not in ("true", "false"):
        raise ScenarioError(f"line {enabled.line}: key 'enabled': expected true or false, "
                            f"got {quoted(enabled)}")
    seed = _seed(r) if seed_override is None else seed_override
    try:  # the config classes check every value; a failed check names its key's line
        vehicle = replace(VehicleConfig(), **_fields(v, _VEHICLE_KEYS))
        method, params, preset_imp = _build_controller(c)
        implement = replace(preset_imp or REAR_IMPLEMENT, **_fields(i, _IMPLEMENT_KEYS))
        run = _fields(r, _RUN_KEYS)
        run.setdefault("run_length", path.total_length - 1.0)
        if "initial_y" not in run:
            run["initial_y"] = initial_lateral_for_error(_num(r, "initial_e_I_m", 0.5),
                                                         implement)
        noise = replace(NoiseSpec(), **_fields(n, _NOISE_KEYS),
                        enabled=(enabled == "true") if noise_override is None else noise_override)
        return Scenario(path=path, vehicle=vehicle, implement=implement, method=method,
                        params=params, seed=seed, noise=noise, **run)
    except ParameterError as exc:
        raise _at_line(exc, {**v, **c, **i, **r, **n}) from exc


def resolved_config(scn: Scenario) -> dict:
    """Fully resolved configuration, defaults included, for `validate` echo."""
    if isinstance(scn.params, OptimalParams):
        params = {**_echo(scn.params, _OPTIMAL_KEYS), "n_h": scn.params.n_h}
    else:
        params = _echo(scn.params, _BASELINE_KEYS)
    return {
        "format_version": FORMAT_VERSION,
        "path": {
            "total_length_m": scn.path.total_length,
            "segments": [
                {"kind": s.kind, "length_m": s.length, "curvature_per_m": s.curvature,
                 "label": lbl}
                for s, lbl in zip(scn.path.segments, scn.path.labels)
            ],
        },
        "vehicle": _echo(scn.vehicle, _VEHICLE_KEYS),
        "implement": _echo(scn.implement, _IMPLEMENT_KEYS),
        "controller": {"method": scn.method, **params},
        "run": {**_echo(scn, _RUN_KEYS), "seed": scn.seed},
        "noise": {"enabled": scn.noise.enabled, **_echo(scn.noise, _NOISE_KEYS)},
    }
