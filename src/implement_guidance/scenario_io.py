"""Scenario file parsing and validation.

The format is a flat, diff-friendly, line-oriented key/value format with
`[block]` headers and `#` comments. Numeric keys carry their unit as a
suffix (_m, _rad, _s, combinations like _rad_s, or _per_m). Unknown keys
and blocks are rejected; missing optional blocks take documented defaults.
"""

from __future__ import annotations

import math

from .controllers import CONTROLLERS, BaselineParams, OptimalParams
from .errors import GuidanceError, ParameterError, ScenarioError
from .harness import NoiseSpec, Scenario, initial_lateral_for_error
from .paths import PRESET_DESCRIPTORS, build_path
from .presets import REAR_IMPLEMENT, TABLE1, TABLE2
from .vehicle import ImplementConfig, VehicleConfig

FORMAT_VERSION = 1

# Cost limits on a scenario that parses. The controller sums over n_h = s_h / s_t
# horizon samples, and a run takes at most 3 * length / (speed * dt) +
# control_period / dt plant steps. The shipped scenarios, presets and benchmark
# workloads need at most n_h = 70 and under 4e5 plant steps.
MAX_N_H = 10_000
MAX_PLANT_STEPS = 10_000_000

_BLOCK_KEYS = {
    "path": {"preset", "start_x_m", "start_y_m", "start_heading_rad", "segment"},
    "vehicle": {"wheelbase_m", "steer_limit_rad", "steer_rate_limit_rad_s", "speed_m_s"},
    "implement": {"I_s_m", "I_y_m"},
    "controller": {"method", "preset", "lambda_per_m", "k_theta_per_m", "k_y_per_m",
                   "s_h_m", "s_t_m"},
    "run": {"length_m", "dt_s", "control_period_s", "initial_s_m", "initial_e_I_m",
            "initial_y_m", "initial_theta_rad", "seed"},
    "noise": {"enabled", "y_std_m", "theta_std_rad", "omega_std_rad_s"},
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
    preset_imp = None
    method = d.get("method")
    defaults = {}
    if "preset" in d:
        method_p, preset_imp, params_p = controller_preset(d["preset"])
        method = method or method_p
        if isinstance(params_p, OptimalParams):
            defaults = {"lambda_per_m": params_p.lam, "k_theta_per_m": params_p.k_theta,
                        "s_h_m": params_p.s_h, "s_t_m": params_p.s_t}
        else:
            defaults = {"k_y_per_m": params_p.k_y, "k_theta_per_m": params_p.k_theta}
    if method is None:
        method = "optimal"
    if method not in CONTROLLERS:
        raise ScenarioError(f"key 'method': unknown method {method!r}")
    try:
        if method == "optimal":
            params = OptimalParams(
                lam=_num(d, "lambda_per_m", defaults.get("lambda_per_m", 0.1)),
                k_theta=_num(d, "k_theta_per_m", defaults.get("k_theta_per_m", 0.6)),
                s_h=_num(d, "s_h_m", defaults.get("s_h_m", 2.0)),
                s_t=_num(d, "s_t_m", defaults.get("s_t_m", 0.15)))
        else:
            params = BaselineParams(
                k_y=_num(d, "k_y_per_m", defaults.get("k_y_per_m", 0.2)),
                k_theta=_num(d, "k_theta_per_m", defaults.get("k_theta_per_m", 0.6)))
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
        vehicle = VehicleConfig(
            wheelbase=_num(v, "wheelbase_m", 1.2),
            steer_limit=_num(v, "steer_limit_rad", 0.55),
            steer_rate_limit=_num(v, "steer_rate_limit_rad_s", 0.8),
            speed=_num(v, "speed_m_s", 1.0))
    except ParameterError as exc:
        raise ScenarioError(f"[vehicle]: {exc}") from exc
    c = _scalars(blocks.get("controller", []))
    method, params, preset_imp = _build_controller(c)
    i = _scalars(blocks.get("implement", []))
    if i:
        implement = ImplementConfig(I_s=_num(i, "I_s_m", REAR_IMPLEMENT.I_s),
                                    I_y=_num(i, "I_y_m", REAR_IMPLEMENT.I_y))
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
    noise = NoiseSpec(
        enabled=(enabled == "true") if noise_override is None else noise_override,
        y_std=_non_negative(n, "y_std_m", 0.01),
        theta_std=_non_negative(n, "theta_std_rad", 0.005),
        omega_std=_non_negative(n, "omega_std_rad_s", 0.01))
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
    try:  # the bound of run_scenario's loop
        steps = 3 * scn.run_length / (scn.vehicle.speed * scn.dt) + scn.control_period / scn.dt
    except ZeroDivisionError:  # speed * dt underflowed
        steps = math.inf
    if not steps <= MAX_PLANT_STEPS:
        at = v.get("speed_m_s") or r.get("dt_s") or r.get("length_m") or r.get("control_period_s")
        where = f"line {at.line}: " if at else "[run]: "
        raise ScenarioError(f"{where}the run may take {steps:.3g} plant steps "
                            f"(3 * length / (speed * dt) + control_period / dt), "
                            f"above the limit {MAX_PLANT_STEPS}")
    return scn


def resolved_config(scn: Scenario) -> dict:
    """Fully resolved configuration, defaults included, for `validate` echo."""
    params: dict[str, float] = {"k_theta_per_m": scn.params.k_theta}
    if isinstance(scn.params, OptimalParams):
        params.update(lambda_per_m=scn.params.lam, s_h_m=scn.params.s_h,
                      s_t_m=scn.params.s_t, n_h=scn.params.n_h)
    else:
        params.update(k_y_per_m=scn.params.k_y)
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
        "vehicle": {"wheelbase_m": scn.vehicle.wheelbase,
                    "steer_limit_rad": scn.vehicle.steer_limit,
                    "steer_rate_limit_rad_s": scn.vehicle.steer_rate_limit,
                    "speed_m_s": scn.vehicle.speed},
        "implement": {"I_s_m": scn.implement.I_s, "I_y_m": scn.implement.I_y},
        "controller": {"method": scn.method, **params},
        "run": {"length_m": scn.run_length, "dt_s": scn.dt,
                "control_period_s": scn.control_period,
                "initial_s_m": scn.initial_s, "initial_y_m": scn.initial_y,
                "initial_theta_rad": scn.initial_theta, "seed": scn.seed},
        "noise": {"enabled": scn.noise.enabled, "y_std_m": scn.noise.y_std,
                  "theta_std_rad": scn.noise.theta_std,
                  "omega_std_rad_s": scn.noise.omega_std},
    }
