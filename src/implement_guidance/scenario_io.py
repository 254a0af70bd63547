"""Scenario file parsing and validation.

The format is a flat, diff-friendly, line-oriented key/value format with
`[block]` headers and `#` comments. Numeric keys carry their unit as a
suffix (_m, _rad, _s, combinations like _rad_s, or _per_m). Unknown keys
and blocks are rejected; missing optional blocks take documented defaults.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .controllers import CONTROLLERS, OptimalParams
from .errors import GuidanceError, ParameterError, ScenarioError
from .harness import NoiseSpec, Scenario, initial_lateral_for_error
from .paths import PRESET_DESCRIPTORS, build_path
from .presets import REAR_IMPLEMENT, TABLE1, TABLE2
from .vehicle import VehicleConfig

FORMAT_VERSION = 1

# Cost limits on a scenario that parses. The controller sums over n_h = s_h / s_t
# horizon samples, and a run takes at most Scenario.max_steps plant steps. The
# shipped scenarios, presets and benchmark workloads need at most n_h = 70 and
# under 4e5 plant steps.
MAX_N_H = 10_000
MAX_PLANT_STEPS = 10_000_000

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

_BLOCK_KEYS = {
    "path": {"preset", "start_x_m", "start_y_m", "start_heading_rad", "segment"},
    "vehicle": set(_VEHICLE_KEYS),
    "implement": set(_IMPLEMENT_KEYS),
    "controller": {"method", "preset", *_OPTIMAL_KEYS, *_BASELINE_KEYS},
    "run": {"length_m", "dt_s", "control_period_s", "initial_s_m", "initial_e_I_m",
            "initial_y_m", "initial_theta_rad", "seed"},
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
    """Split the document into blocks of (key, value) pairs; validates keys."""
    blocks: dict[str, list[tuple[str, str]]] = {}
    current = None
    version_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _BLOCK_KEYS:
                raise ScenarioError(f"line {lineno}: unknown block [{current}]")
            blocks.setdefault(current, [])
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if current is None:
            if key == "format_version":
                if value != str(FORMAT_VERSION):
                    raise ScenarioError(f"unsupported format_version {value!r}")
                version_seen = True
                continue
            raise ScenarioError(f"line {lineno}: key {key!r} outside any block")
        if key not in _BLOCK_KEYS[current]:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in block [{current}]")
        if not value:
            raise ScenarioError(f"line {lineno}: key {key!r} has no value")
        blocks[current].append((key, _Value(value, lineno)))
    if not version_seen:
        raise ScenarioError("missing format_version")
    return blocks


def _scalars(pairs: list[tuple[str, str]]) -> dict:
    out = {}
    for k, v in pairs:
        if k == "segment":
            out.setdefault("segment", []).append(v)
        else:
            if k in out:
                raise ScenarioError(f"line {v.line}: duplicate key {k!r}")
            out[k] = v
    return out


def _float(text: str, what: str, line: int) -> float:
    """A finite float, or a line-numbered ScenarioError."""
    try:
        x = float(text)
    except ValueError:
        raise ScenarioError(f"line {line}: {what}: not a number: {text!r}") from None
    if not math.isfinite(x):
        raise ScenarioError(f"line {line}: {what}: must be finite, got {text!r}")
    return x


def _num(d: dict, key: str, default: float) -> float:
    if key not in d:
        return default
    return _float(d[key], f"key {key!r}", d[key].line)


def _positive(d: dict, key: str, default: float) -> float:
    x = _num(d, key, default)
    if not x > 0:
        raise ScenarioError(f"line {d[key].line}: key {key!r}: must be > 0, got {d[key]!r}")
    return x


def _non_negative(d: dict, key: str, default: float) -> float:
    x = _num(d, key, default)
    if x < 0:
        raise ScenarioError(f"line {d[key].line}: key {key!r}: must be >= 0, got {d[key]!r}")
    return x + 0.0  # -0.0 becomes 0.0, so the scenario echo shows 0.0


def _fields(d: dict, keys: dict, read=_num) -> dict:
    """The config fields that d's keys set, read in the table's order."""
    return {name: read(d, key, None) for key, name in keys.items() if key in d}


def _echo(config, keys: dict) -> dict:
    return {key: getattr(config, name) for key, name in keys.items()}


def is_seed(text: str) -> bool:
    """Whether text is a valid seed: a non-negative integer in ASCII digits,
    with no sign, point or spaces."""
    return text.isascii() and text.isdigit()


def _seed(d: dict) -> int:
    if "seed" not in d:
        return 0
    text = d["seed"]
    if not is_seed(text):
        raise ScenarioError(f"line {text.line}: key 'seed': must be a non-negative "
                            f"integer, got {text!r}")
    return int(text)


def _parse_segment(spec: _Value) -> dict:
    desc = {}
    for item in spec.split():
        k, _, v = item.partition("=")
        if k not in _SEGMENT_KEYS:
            raise ScenarioError(f"line {spec.line}: segment: unknown field {k!r}")
        desc[k] = v if k == "kind" else _float(v, f"segment field {k!r}", spec.line)
    if "kind" not in desc or "length_m" not in desc:
        raise ScenarioError(f"line {spec.line}: segment needs kind and length_m")
    return desc


def _build_path(d: dict):
    start = (_num(d, "start_x_m", 0.0), _num(d, "start_y_m", 0.0))
    heading = _num(d, "start_heading_rad", 0.0)
    if "preset" in d:
        name = d["preset"]
        if name not in PRESET_DESCRIPTORS:
            raise ScenarioError(f"key 'preset': unknown path preset {name!r}")
        descriptors = PRESET_DESCRIPTORS[name]
    elif "segment" in d:
        descriptors = [_parse_segment(s) for s in d["segment"]]
    else:
        raise ScenarioError("[path] needs a preset or segment lines")
    try:
        return build_path(descriptors, start=start, start_heading=heading)
    except GuidanceError as exc:
        raise ScenarioError(f"[path]: {exc}") from exc


_CONTROLLER_PRESETS = {}
for (_m, _p), (_imp, _params) in TABLE1.items():
    _CONTROLLER_PRESETS[f"table1_{_p}_{_m}"] = (_m, _imp, _params)
for _params in TABLE2:
    _CONTROLLER_PRESETS[f"table2_sh_{_params.s_h:g}"] = (
        "optimal", REAR_IMPLEMENT, _params)


def controller_preset(name: str):
    """Resolve a named preset to (method, implement, params)."""
    try:
        return _CONTROLLER_PRESETS[name]
    except KeyError:
        raise ScenarioError(f"unknown controller preset {name!r}") from None


def _build_controller(d: dict):
    """Returns (method, params, preset_implement_or_None)."""
    preset_imp = params_p = None
    method = d.get("method")
    if "preset" in d:
        method_p, preset_imp, params_p = controller_preset(d["preset"])
        method = method or method_p
    if method is None:
        method = "optimal"
    if method not in CONTROLLERS:
        raise ScenarioError(f"key 'method': unknown method {method!r}")
    if method == "optimal":
        keys, params = _OPTIMAL_KEYS, TABLE1[("optimal", "rear")][1]
    else:  # both baselines default to the rear backstepping gains
        keys, params = _BASELINE_KEYS, TABLE1[("backstepping", "rear")][1]
    # a preset of the other kind of params lends the fields the two share
    lent = {name: getattr(params_p, name) for name in keys.values()
            if hasattr(params_p, name)}
    try:
        params = replace(params, **{**lent, **_fields(d, keys)})
    except ParameterError as exc:
        raise ScenarioError(f"[controller]: {exc}") from exc
    if isinstance(params, OptimalParams) and params.n_h > MAX_N_H:
        key = "s_h_m" if "s_h_m" in d else "s_t_m"  # a preset alone stays inside
        raise ScenarioError(f"line {d[key].line}: key {key!r}: the horizon has "
                            f"n_h = {params.n_h} samples, above the limit {MAX_N_H}")
    return method, params, preset_imp


def parse_scenario(text: str, seed_override: int | None = None,
                   noise_override: bool | None = None) -> Scenario:
    blocks = parse_blocks(text)
    path = _build_path(_scalars(blocks.get("path", [])) if "path" in blocks else
                       {"preset": "exp1"})
    v = _scalars(blocks.get("vehicle", []))
    try:
        vehicle = replace(VehicleConfig(), **_fields(v, _VEHICLE_KEYS))
    except ParameterError as exc:
        raise ScenarioError(f"[vehicle]: {exc}") from exc
    c = _scalars(blocks.get("controller", []))
    method, params, preset_imp = _build_controller(c)
    i = _scalars(blocks.get("implement", []))
    if i:
        implement = replace(REAR_IMPLEMENT, **_fields(i, _IMPLEMENT_KEYS))
    else:
        implement = preset_imp or REAR_IMPLEMENT
    if abs(implement.I_y) >= path.min_arc_radius():
        raise ScenarioError("key 'I_y_m': |I_y| must stay below the minimum arc radius")
    r = _scalars(blocks.get("run", []))
    if "initial_y_m" in r:
        initial_y = _num(r, "initial_y_m", 0.0)
    else:
        initial_y = initial_lateral_for_error(_num(r, "initial_e_I_m", 0.5), implement)
    n = _scalars(blocks.get("noise", []))
    enabled = n.get("enabled", "false")
    if enabled not in ("true", "false"):
        raise ScenarioError("key 'enabled': expected true or false")
    noise = replace(NoiseSpec(), **_fields(n, _NOISE_KEYS, _non_negative),
                    enabled=(enabled == "true") if noise_override is None else noise_override)
    seed = _seed(r) if seed_override is None else seed_override
    initial_s = _num(r, "initial_s_m", 0.0)
    if not 0.0 <= initial_s <= path.total_length:
        raise ScenarioError(f"line {r['initial_s_m'].line}: key 'initial_s_m': must lie in "
                            f"[0, {path.total_length!r}], got {r['initial_s_m']!r}")
    run_length = _num(r, "length_m", path.total_length - 1.0)
    if not initial_s < run_length:
        # the run would stop at its first record; point at initial_s_m, else length_m
        at = r.get("initial_s_m") or r.get("length_m")
        where = f"line {at.line}: " if at else ""
        raise ScenarioError(f"{where}key 'initial_s_m': must be below the run length "
                            f"{run_length!r}, got {initial_s!r}")
    try:
        scn = Scenario(
            path=path, vehicle=vehicle, implement=implement,
            method=method, params=params,
            run_length=run_length,
            dt=_positive(r, "dt_s", 0.01),
            control_period=_positive(r, "control_period_s", 0.1),
            initial_s=initial_s,
            initial_y=initial_y,
            initial_theta=_num(r, "initial_theta_rad", 0.0),
            seed=seed, noise=noise)
    except ParameterError as exc:
        raise ScenarioError(f"[run]: {exc}") from exc
    if scn.max_steps > MAX_PLANT_STEPS:  # the bound of run_scenario's loop
        at = v.get("speed_m_s") or r.get("dt_s") or r.get("length_m") or r.get("control_period_s")
        where = f"line {at.line}: " if at else "[run]: "
        raise ScenarioError(f"{where}the run may take {scn.max_steps:.3g} plant steps "
                            f"(its budget, Scenario.max_steps), "
                            f"above the limit {MAX_PLANT_STEPS}")
    return scn


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
        "run": {"length_m": scn.run_length, "dt_s": scn.dt,
                "control_period_s": scn.control_period,
                "initial_s_m": scn.initial_s, "initial_y_m": scn.initial_y,
                "initial_theta_rad": scn.initial_theta, "seed": scn.seed},
        "noise": {"enabled": scn.noise.enabled, **_echo(scn.noise, _NOISE_KEYS)},
    }
