import math
import re
from pathlib import Path

import pytest

from implement_guidance.controllers import MAX_N_H, BaselineParams, OptimalParams
from implement_guidance.errors import ECHO_CHARS, ScenarioError, quoted
from implement_guidance.harness import MAX_PLANT_STEPS
from implement_guidance.presets import TABLE1, TABLE2
from implement_guidance.scenario_io import parse_blocks, parse_scenario, resolved_config
from implement_guidance.vehicle import ImplementConfig

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


def test_blocks_map_each_key_to_its_value_and_line():
    blocks = parse_blocks("format_version 1\n[path]\nsegment kind=line length_m=5\n"
                          "start_x_m 2\nsegment kind=line length_m=7\n[run]\nseed 3\n")
    assert blocks == {"path": {"segment": ["kind=line length_m=5", "kind=line length_m=7"],
                               "start_x_m": "2"},
                      "run": {"seed": "3"}}
    assert [v.line for v in blocks["path"]["segment"]] == [3, 5]
    assert blocks["run"]["seed"].line == 7
    # a repeated key is rejected where it is read, before a later unknown key
    with pytest.raises(ScenarioError, match="^line 4: duplicate key 'speed_m_s'$"):
        parse_blocks("format_version 1\n[vehicle]\nspeed_m_s 1\nspeed_m_s 2\nmass_kg 3\n")


def test_bad_number_rejected():
    with pytest.raises(ScenarioError, match="not a number"):
        parse_scenario("format_version 1\n[vehicle]\nspeed_m_s fast\n")


def test_bad_segment_field():
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario("format_version 1\n[path]\nsegment kind=line span_m=5\n")


def test_repeated_segment_field_rejected():
    with pytest.raises(ScenarioError,
                       match="^line 3: segment: duplicate field 'length_m'$"):
        parse_scenario("format_version 1\n[path]\nsegment kind=line length_m=5 length_m=7\n")


@pytest.mark.parametrize("path, line", [
    ("preset exp2\nsegment kind=line length_m=5\n", 4),
    ("segment kind=line length_m=5\nsegment kind=line length_m=5\npreset exp2\n", 5),
    ("segment kind=line length_m=5\npreset exp2\nsegment kind=line length_m=5\n", 4),
])
def test_path_takes_a_preset_or_segments_not_both(path, line):
    # the line is the later key's: the first line at which the block holds both
    with pytest.raises(ScenarioError, match=f"^line {line}: \\[path\\] takes a preset or "
                                            "segment lines, not both$"):
        parse_scenario(f"format_version 1\n[path]\n{path}")


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


@pytest.mark.parametrize("text, message", [
    ("format_version 1\n# a preset\n[controller]\npreset table3_magic\n",
     "line 4: key 'preset': unknown controller preset 'table3_magic'"),
    ("format_version 1\n\n[path]\npreset exp9\n",
     "line 4: key 'preset': unknown path preset 'exp9'"),
    ("format_version 1\n[controller]\ns_h_m 2\nmethod pid\n",
     "line 4: key 'method': unknown method 'pid'"),
    ("format_version 1\n[noise]\ny_std_m 0.1\nenabled maybe\n",
     "line 4: key 'enabled': expected true or false, got 'maybe'"),
    ("# version 2\n\n\nformat_version 2\n", "line 4: unsupported format_version '2'"),
], ids=["controller_preset", "path_preset", "method", "enabled", "format_version"])
def test_file_level_errors_name_their_line(text, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)


def test_initial_y_derived_from_initial_e_names_its_line():
    # initial_y = initial_e_I - I_y = 1e308 + 1e308 overflows to inf
    text = ("format_version 1\n[path]\nsegment kind=line length_m=20\n"
            "[implement]\nI_y_m -1e308\n[run]\ninitial_e_I_m 1e308\n")
    with pytest.raises(ScenarioError, match=r"^line 7: key 'initial_e_I_m': initial_y must be "
                                            r"finite, got inf$"):
        parse_scenario(text)
    # with initial_y_m set, initial_e_I_m is not read
    assert parse_scenario(text + "initial_y_m 0.25\n").initial_y == 0.25


# ------------------------------------------------------------------ presets

def test_controller_presets():
    def preset(name):
        return parse_scenario(f"format_version 1\n[controller]\npreset {name}\n")

    scn = preset("table1_rear_optimal")
    assert scn.method == "optimal"
    assert (scn.implement.I_s, scn.implement.I_y) == (-2.0, -0.5)
    assert scn.params == OptimalParams(lam=0.1, k_theta=0.6, s_h=2.0, s_t=0.15)
    scn = preset("table1_front_backstepping")
    assert scn.method == "backstepping"
    assert (scn.implement, scn.params) == TABLE1[("backstepping", "front")]
    assert isinstance(scn.params, BaselineParams)
    scn = preset("table2_sh_2")
    assert scn.method == "optimal" and scn.params.s_h == 2.0 and scn.params.s_t == 0.10
    assert scn.params in TABLE2
    with pytest.raises(ScenarioError, match="line 3: key 'preset': unknown controller preset"):
        preset("table3_magic")


def test_preset_field_override():
    text = ("format_version 1\n[path]\npreset exp1\n"
            "[controller]\npreset table1_rear_optimal\nlambda_per_m 0.2\n")
    scn = parse_scenario(text)
    assert scn.params.lam == 0.2
    assert scn.params.k_theta == 0.6  # rest of the preset retained


@pytest.mark.parametrize("preset, implement", [
    ("preset table1_front_optimal\n", ImplementConfig(2.0, -0.3)),
    ("", ImplementConfig(-2.0, -0.3)),  # no preset: the rear implement's I_s
])
def test_implement_keys_override_the_preset_field_by_field(preset, implement):
    # as [controller] keys override the preset's params; an [implement] key
    # once swapped the front preset's implement for the rear one
    text = (f"format_version 1\n[path]\npreset exp1\n[controller]\n{preset}"
            "[implement]\nI_y_m -0.3\n")
    assert parse_scenario(text).implement == implement


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
    with pytest.raises(ScenarioError, match=r"line 5: key 'initial_s_m': initial_s must lie in "
                                            r"\[0, 48\.27"):
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
    key = "initial_s_m" if "initial_s_m" in run else "length_m"
    with pytest.raises(ScenarioError, match=rf"line {line}: key '{key}': initial_s must be "
                                            r"below run_length"):
        parse_scenario(text)


def test_negative_zero_noise_std_reads_as_zero():
    # noise is 0.0 + std * z, which draws alike for either zero; -0.0 reads
    # as 0.0 so that the echo shows 0.0
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
    with pytest.raises(ScenarioError, match=r"line 5: key 'dt_s': the run may take 10000001 "
                                            r"plant steps"):
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


@pytest.mark.parametrize("old, new, shown", [
    ("length_m 30", "length_m {}", "9" * 300 + "x"),     # not a number
    ("length_m 30", "length_m {}", "1e400" + "0" * 300),  # not finite
    ("seed 7", "seed {}", "7" * 5000),
    ("seed 7", "{} 1", "junk_" + "k" * 300),             # unknown key
    ("[vehicle]", "[{}]", "b" * 300),                    # unknown block
    ("kind=line", "kind={}", "q" * 300),                 # unknown segment kind
], ids=["not_a_number", "not_finite", "seed_digits", "unknown_key", "unknown_block",
        "unknown_segment_kind"])
def test_rejected_text_is_echoed_cut_to_its_first_characters(old, new, shown):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(FULL.replace(old, new.format(shown)))
    assert f"{shown[:ECHO_CHARS]!r}... ({len(shown)} characters)" in str(exc.value)
    assert len(str(exc.value)) < 200


def test_quoted_keeps_a_short_text_whole():
    assert quoted("x" * ECHO_CHARS) == repr("x" * ECHO_CHARS)
    assert quoted("a'b") == repr("a'b")
    assert quoted(None) == "None"
