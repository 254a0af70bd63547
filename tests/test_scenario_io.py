import math
from pathlib import Path

import pytest

from implement_guidance.controllers import BaselineParams, OptimalParams
from implement_guidance.errors import ScenarioError
from implement_guidance.scenario_io import (
    MAX_N_H,
    MAX_PLANT_STEPS,
    controller_preset,
    parse_blocks,
    parse_scenario,
    resolved_config,
)

FULL = """\
# full scenario exercising every block
format_version 1

[path]
segment kind=line length_m=20
segment kind=arc length_m=15.707963267948966 curvature_per_m=0.1

[vehicle]
wheelbase_m 1.2
steer_limit_rad 0.5
steer_rate_limit_rad_s 0.4
speed_m_s 1.5

[implement]
I_s_m -1.5
I_y_m -0.25

[controller]
method optimal
lambda_per_m 0.12
k_theta_per_m 0.5
s_h_m 1.8
s_t_m 0.1

[run]
length_m 30
dt_s 0.01
control_period_s 0.1
initial_e_I_m 0.4
initial_theta_rad 0.05
seed 7

[noise]
enabled true
y_std_m 0.02
"""


def test_parse_full_scenario():
    scn = parse_scenario(FULL)
    assert scn.vehicle.speed == 1.5
    assert scn.implement.I_s == -1.5
    assert isinstance(scn.params, OptimalParams)
    assert scn.params.lam == 0.12 and scn.params.s_h == 1.8
    assert scn.path.total_length == pytest.approx(20 + 5 * math.pi)
    # initial_e_I -> lateral offset: e - I_y
    assert scn.initial_y == pytest.approx(0.4 - (-0.25))
    assert scn.seed == 7
    assert scn.noise.enabled and scn.noise.y_std == 0.02
    assert scn.noise.theta_std == 0.005  # default retained


def test_defaults_echoed_in_resolved_config():
    scn = parse_scenario("format_version 1\n[path]\npreset exp1\n")
    cfg = resolved_config(scn)
    assert cfg["vehicle"] == {"wheelbase_m": 1.2, "steer_limit_rad": 0.55,
                              "steer_rate_limit_rad_s": 0.8, "speed_m_s": 1.0}
    assert cfg["implement"] == {"I_s_m": -2.0, "I_y_m": -0.5}
    assert cfg["controller"]["method"] == "optimal"
    assert cfg["controller"]["n_h"] == 13
    assert cfg["run"]["dt_s"] == 0.01 and cfg["run"]["control_period_s"] == 0.1
    assert cfg["noise"]["enabled"] is False


# ------------------------------------------------------------------- errors

def test_unknown_block_reports_line():
    with pytest.raises(ScenarioError, match=r"line 2: unknown block"):
        parse_blocks("format_version 1\n[rocket]\n")


def test_unknown_key_reports_line_and_block():
    with pytest.raises(ScenarioError, match=r"line 3: unknown key 'mass_kg'"):
        parse_blocks("format_version 1\n[vehicle]\nmass_kg 100\n")


def test_missing_format_version():
    with pytest.raises(ScenarioError, match="format_version"):
        parse_blocks("[path]\npreset exp1\n")


def test_wrong_format_version():
    with pytest.raises(ScenarioError, match="format_version"):
        parse_blocks("format_version 2\n")


def test_key_outside_block():
    with pytest.raises(ScenarioError, match="outside any block"):
        parse_blocks("format_version 1\npreset exp1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate key"):
        parse_scenario("format_version 1\n[vehicle]\nspeed_m_s 1\nspeed_m_s 2\n")


def test_bad_number_rejected():
    with pytest.raises(ScenarioError, match="not a number"):
        parse_scenario("format_version 1\n[vehicle]\nspeed_m_s fast\n")


def test_bad_segment_field():
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario("format_version 1\n[path]\nsegment kind=line span_m=5\n")


def test_segment_requires_kind_and_length():
    with pytest.raises(ScenarioError, match="kind and length_m"):
        parse_scenario("format_version 1\n[path]\nsegment kind=line\n")


def test_unknown_path_preset():
    with pytest.raises(ScenarioError, match="unknown path preset"):
        parse_scenario("format_version 1\n[path]\npreset exp9\n")


def test_unknown_controller_method():
    with pytest.raises(ScenarioError, match="unknown method"):
        parse_scenario("format_version 1\n[controller]\nmethod pid\n")


def test_implement_offset_vs_min_radius():
    text = ("format_version 1\n[path]\npreset exp1\n"
            "[implement]\nI_s_m -2\nI_y_m -8\n")
    with pytest.raises(ScenarioError, match="minimum arc radius"):
        parse_scenario(text)


def test_noise_enabled_must_be_boolean():
    with pytest.raises(ScenarioError, match="true or false"):
        parse_scenario("format_version 1\n[noise]\nenabled maybe\n")


# ------------------------------------------------------------------ presets

def test_controller_presets():
    method, imp, params = controller_preset("table1_rear_optimal")
    assert method == "optimal"
    assert (imp.I_s, imp.I_y) == (-2.0, -0.5)
    assert (params.lam, params.k_theta, params.s_h, params.s_t) == (0.1, 0.6, 2.0, 0.15)
    method, imp, params = controller_preset("table1_front_backstepping")
    assert method == "backstepping" and imp.I_s == 2.0
    assert isinstance(params, BaselineParams)
    method, imp, params = controller_preset("table2_sh_2")
    assert method == "optimal" and params.s_h == 2.0 and params.s_t == 0.10
    with pytest.raises(ScenarioError, match="unknown controller preset"):
        controller_preset("table3_magic")


def test_preset_field_override():
    text = ("format_version 1\n[path]\npreset exp1\n"
            "[controller]\npreset table1_rear_optimal\nlambda_per_m 0.2\n")
    scn = parse_scenario(text)
    assert scn.params.lam == 0.2
    assert scn.params.k_theta == 0.6  # rest of the preset retained


@pytest.mark.parametrize("controller, params", [
    # both baselines default to the rear backstepping gains
    ("method lateral_servoing\n", BaselineParams(k_y=0.2, k_theta=0.6)),
    ("method backstepping\nk_y_per_m 0.3\n", BaselineParams(k_y=0.3, k_theta=0.6)),
    # a preset of the other method lends the fields the two share
    ("method backstepping\npreset table1_front_optimal\n", BaselineParams(k_y=0.2, k_theta=0.3)),
    ("method optimal\npreset table1_front_lateral_servoing\n",
     OptimalParams(lam=0.1, k_theta=0.5, s_h=2.0, s_t=0.15)),
])
def test_controller_defaults_and_lent_preset_fields(controller, params):
    scn = parse_scenario(f"format_version 1\n[controller]\n{controller}")
    assert scn.params == params


def test_initial_y_takes_precedence_over_initial_e():
    text = ("format_version 1\n[path]\npreset exp1\n"
            "[run]\ninitial_y_m 0.3\ninitial_e_I_m 0.5\n")
    assert parse_scenario(text).initial_y == 0.3


@pytest.mark.parametrize("value", ["-0.5", "48.28", "500"])
def test_initial_s_outside_path_rejected_with_line(value):
    # exp1 is 48.27... m long
    text = f"format_version 1\n[path]\npreset exp1\n[run]\ninitial_s_m {value}\n"
    with pytest.raises(ScenarioError, match=r"line 5: key 'initial_s_m': must lie in \[0, 48\.27"):
        parse_scenario(text)


def test_initial_s_at_either_end_accepted():
    # the admissible range is [0, run length): a run must have somewhere to go
    for value in ("0", repr(math.nextafter(30.0, 0.0))):
        text = (f"format_version 1\n[path]\npreset exp1\n[run]\nlength_m 30\n"
                f"initial_s_m {value}\n")
        assert parse_scenario(text).initial_s == float(value)


@pytest.mark.parametrize("run, line", [
    ("length_m 30\ninitial_s_m 30\n", 6),
    ("length_m 30\ninitial_s_m 40\n", 6),
    ("initial_s_m 48.2\n", 5),      # beyond the default run length, total - 1
    ("length_m 0\n", 5),            # default initial_s 0 at the run length
])
def test_initial_s_at_or_beyond_run_length_rejected_with_line(run, line):
    text = f"format_version 1\n[path]\npreset exp1\n[run]\n{run}"
    with pytest.raises(ScenarioError, match=rf"line {line}: key 'initial_s_m': must be below "
                                            r"the run length"):
        parse_scenario(text)


def test_negative_zero_noise_std_reads_as_zero():
    # numpy's normal() rejects a scale whose sign bit is set
    text = "format_version 1\n[noise]\nenabled true\ny_std_m -0\n"
    assert parse_scenario(text).noise.y_std.hex() == (0.0).hex()


def test_cost_limits_admit_their_bound():
    horizon = "format_version 1\n[path]\npreset exp1\n[controller]\ns_t_m 0.0001\ns_h_m {}\n"
    assert parse_scenario(horizon.format(1)).params.n_h == MAX_N_H
    with pytest.raises(ScenarioError, match=rf"line 6: key 's_h_m': .* n_h = {MAX_N_H + 1} "):
        parse_scenario(horizon.format(1.0001))
    # 3 * length / (speed * dt) + control_period / dt is 6 * length + 1 here
    steps = ("format_version 1\n[path]\nsegment kind=line length_m=2e6\n"
             "[run]\ndt_s 0.5\ncontrol_period_s 0.5\nlength_m {}\n")
    assert 6 * 1666666.5 + 1 == MAX_PLANT_STEPS
    assert parse_scenario(steps.format(1666666.5)).run_length == 1666666.5
    with pytest.raises(ScenarioError, match=r"line 5: the run may take 1e\+07 plant steps"):
        parse_scenario(steps.format(1666666.75))


def test_seed_and_noise_overrides():
    scn = parse_scenario(FULL, seed_override=99, noise_override=False)
    assert scn.seed == 99 and not scn.noise.enabled


# ----------------------------------------------------- shipped scenario files

@pytest.mark.parametrize("name", sorted(
    p.name for p in (Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn")))
def test_shipped_scenarios_parse(name):
    text = (Path(__file__).resolve().parent.parent / "scenarios" / name).read_text()
    scn = parse_scenario(text)
    assert scn.run_length <= scn.path.total_length
