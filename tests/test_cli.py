import contextlib
import gc
import io
import itertools
import json
import math
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from implement_guidance import harness
from implement_guidance.cli import main
from implement_guidance.errors import GuidanceError
from implement_guidance.harness import read_csv
from implement_guidance.scenario_io import (
    _BLOCK_KEYS,
    MAX_SEED_DIGITS,
    SEED_RULE,
    parse_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINI = """\
format_version 1
[path]
segment kind=line length_m=30
[controller]
preset table1_rear_optimal
[run]
length_m 25
initial_e_I_m 0.5
"""

FAULTY = """\
format_version 1
[path]
segment kind=arc length_m=6 curvature_per_m=1.0
[controller]
preset table1_rear_optimal
[run]
length_m 5
initial_y_m 0.999999999
initial_e_I_m 0
"""


@pytest.fixture
def scn_file(tmp_path):
    p = tmp_path / "mini.scn"
    p.write_text(MINI)
    return str(p)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))


def test_validate_ok(scn_file, capsys):
    assert main(["validate", scn_file]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["format_version"] == 1
    assert cfg["vehicle"]["wheelbase_m"] == 1.2
    assert cfg["controller"]["method"] == "optimal"


def test_validate_applies_seed_and_noise_like_run(tmp_path, capsys):
    flags = ["--seed", "7", "--noise", "on"]
    scenario = str(SCENARIOS / "exp1_rear_optimal.scn")
    assert main([*flags, "validate", scenario]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert (echoed["run"]["seed"], echoed["noise"]["enabled"]) == (7, True)
    assert main([*flags, "--out-dir", str(tmp_path / "o"), "run", scenario]) == 0
    assert echoed == json.loads((tmp_path / "o" / "summary.json").read_text())["scenario"]


def test_validate_bad_scenario(tmp_path, capsys):
    p = tmp_path / "bad.scn"
    p.write_text("format_version 1\n[vehicle]\nmass_kg 10\n")
    assert main(["validate", str(p)]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.scn")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.scn"
    p.write_bytes(b"format_version 1\n[path]\npreset exp1 \xff\n")
    for command in (["validate", str(p)], ["--out-dir", str(tmp_path / "o"), "run", str(p)]):
        assert main(command) == 2
        assert "scenario error: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_run_outputs_and_determinism(scn_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--out-dir", str(out1), "run", scn_file]) == 0
    assert main(["--out-dir", str(out2), "run", scn_file]) == 0
    csv1 = (out1 / "run.csv").read_bytes()
    assert csv1 == (out2 / "run.csv").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["fault"] is None
    assert summary["median_abs_e_m"] < 0.2
    assert summary["scenario"]["run"]["length_m"] == 25.0
    header = csv1.decode().splitlines()[0]
    assert header == ("t_s,s_m,y_m,theta_tilde_rad,e_I_exact_m,e_I_measured_m,"
                      "delta_cmd_rad,delta_actual_rad,theta_d_rad,segment,fault")


def test_run_fault_exit_code(tmp_path, capsys):
    p = tmp_path / "faulty.scn"
    p.write_text(FAULTY)
    assert main(["--out-dir", str(tmp_path / "o"), "run", str(p)]) == 3
    assert "simulation fault" in capsys.readouterr().err
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["fault"]


def test_out_dir_env_var(scn_file, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("IMPLEMENT_GUIDANCE_OUT_DIR", str(target))
    assert main(["run", scn_file]) == 0
    assert (target / "run.csv").exists()


@pytest.mark.parametrize("command", [["run"], ["compare"], ["sweep", "--horizons", "0.5"]])
@pytest.mark.parametrize("below", ["", "sub"])
def test_unusable_out_dir_exits_2(command, below, scn_file, tmp_path, capsys):
    # the output directory is an existing file, or lies below one
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / below if below else blocker
    if command == ["run"]:
        command = ["run", scn_file]
    assert main(["--out-dir", str(out)] + command) == 2
    assert "error: cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, first", [
    (["run"], "run.csv"),
    (["compare", "--placement", "rear"], "run_rear_lateral_servoing.csv"),
    (["sweep", "--horizons", "0.5"], "sweep.json"),
], ids=["run", "compare", "sweep"])
def test_unwritable_output_exits_2(command, first, scn_file, tmp_path, capsys):
    # the first output file's path is a directory
    (tmp_path / "o" / first).mkdir(parents=True)
    if command == ["run"]:
        command = ["run", scn_file]
    assert main(["--out-dir", str(tmp_path / "o")] + command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: [Errno 21] Is a directory: ")
    assert first in err


@pytest.mark.parametrize("scenario", ["missing", "bad"])
def test_failed_run_leaves_no_out_dir(scenario, tmp_path, capsys):
    path = tmp_path / "bad.scn"
    if scenario == "bad":
        path.write_text(MINI.replace("length_m 25", "length_m 99"))  # beyond the path
    out = tmp_path / "fo" / "x"
    assert main(["--out-dir", str(out), "run", str(path)]) == 2
    assert ("cannot read scenario" if scenario == "missing"
            else "scenario error") in capsys.readouterr().err
    assert not (tmp_path / "fo").exists()


def test_compare_emits_six_configurations(tmp_path):
    out = tmp_path / "cmp"
    assert main(["--out-dir", str(out), "--jobs", "4", "compare"]) == 0
    report = json.loads((out / "comparison.json").read_text())
    rows = report["configurations"]
    assert len(rows) == 6
    for row in rows:
        assert (out / row["csv"]).exists()
        assert row["reconstruction"] == (row["method"] != "optimal")
    assert report["overshoot_ratios"]
    assert (out / "figure4.svg").exists()


def test_compare_single_placement(tmp_path):
    out = tmp_path / "cmp_rear"
    assert main(["--out-dir", str(out), "compare", "--placement", "rear"]) == 0
    rows = json.loads((out / "comparison.json").read_text())["configurations"]
    assert len(rows) == 3
    assert {r["placement"] for r in rows} == {"rear"}


def test_sweep_with_horizon_filter(tmp_path):
    out = tmp_path / "swp"
    assert main(["--out-dir", str(out), "--jobs", "2",
                 "sweep", "--horizons", "0.5,2.0"]) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert [p["s_h_m"] for p in report["points"]] == [0.5, 2.0]
    assert report["argmin_s_h_m"] in (0.5, 2.0)
    assert (out / "figure6.svg").exists()


@pytest.mark.parametrize("command, runs", [
    (["compare"], 6), (["sweep", "--horizons", "0.5,1.0,1.5"], 3)])
def test_batches_drop_each_log_before_the_next_run(tmp_path, monkeypatch, command, runs):
    # the CLI lays out each run's rows as the run ends and keeps no log, so a
    # batch's peak follows its longest run, not its number of runs
    # RunLog has no __weakref__ slot: each run's float column stands for its log
    columns = []  # a weak reference to each run's column
    live = []  # how many of them are alive as each run starts
    original = harness.run_scenario

    def run_scenario(scn):
        gc.collect()
        live.append(sum(ref() is not None for ref in columns))
        log = original(scn)
        columns.append(weakref.ref(log.values))
        return log
    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    assert main(["--out-dir", str(tmp_path / "o"), *command]) == 0
    assert live == [0] * runs


def _traced_peak(out, argv):
    """The tracemalloc peak in bytes of main(argv), after a short noisy sweep
    has filled the caches that every later call shares."""
    assert main(["--out-dir", str(out), "--noise", "on", "sweep", "--horizons", "0.5"]) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_peak_is_one_runs_log_and_figure4_keeps_its_m4_points(tmp_path):
    # each run's series is reduced to its M4 points as the run ends: the
    # peak was 2.16 MB and figure4.svg 399 KB, with every record drawn
    argv = ["--out-dir", str(tmp_path / "o"), "--noise", "on", "--seed", "3", "compare"]
    assert _traced_peak(tmp_path / "warm", argv) <= 1_000_000
    assert (tmp_path / "o" / "figure4.svg").stat().st_size <= 100_000


def test_sweep_peak_is_one_runs_log(tmp_path):
    # one run's log (~85 B per record) and its summary (<= 48 B per record);
    # it was 1.49 MB when the summary cost 130 B per record
    argv = ["--out-dir", str(tmp_path / "o"), "--noise", "on", "--seed", "3", "sweep"]
    assert _traced_peak(tmp_path / "warm", argv) <= 1_000_000


def test_sweep_bad_horizons(tmp_path, capsys):
    for bad in ("abc", "", ","):
        assert main(["--out-dir", str(tmp_path / "x"), "sweep", "--horizons", bad]) == 2
        assert capsys.readouterr().err == f"error: bad --horizons value {bad!r}\n"
    assert main(["--out-dir", str(tmp_path / "x"), "sweep", "--horizons", "9.9"]) == 2
    assert not (tmp_path / "x").exists()


def test_shipped_scenarios_validate(tmp_path, capsys):
    for scn in sorted(SCENARIOS.glob("*.scn")):
        assert main(["validate", str(scn)]) == 0, scn.name
        capsys.readouterr()


@pytest.mark.parametrize("body, line", [
    ("[path]\nsegment kind=line length_m=abc\n", 3),
    ("[path]\nsegment kind=line length_m=inf\n", 3),
    ("[path]\npreset exp1\n[run]\ndt_s 0\n", 5),
    ("[path]\npreset exp1\n[run]\nlength_m nan\n", 5),
    ("[path]\npreset exp1\n[run]\nseed 1.7\n", 5),
    ("[path]\npreset exp1\n[run]\ninitial_s_m 500\n", 5),
    ("[path]\npreset exp1\n[run]\nlength_m 30\ninitial_s_m 40\n", 6),
    ("[path]\npreset exp1\n[noise]\nenabled true\ny_std_m -0.1\n", 6),
    ("[path]\npreset exp1\n[controller]\ns_h_m 1e12\n", 5),
    ("[path]\npreset exp1\n[vehicle]\nspeed_m_s 1e-300\n", 5),
    ("[path]\npreset exp1\n[vehicle]\nsteer_limit_rad 2\n", 5),
    ("[path]\npreset exp1\n[run]\ndt_s 0.03\n", 5),
    ("[path]\npreset exp1\n[controller]\nlambda_per_m 0\n", 5),
    ("[path]\npreset exp1\n[controller]\ns_t_m 3\n", 5),
    ("[path]\npreset exp1\n[implement]\nI_y_m 9\n", 5),  # exp1's smallest radius is 8 m
    ("[path]\npreset exp1\n[vehicle]\nspeed_m_s 1e-320\n", 5),
    ("[path]\npreset exp1\n[controller]\npreset table3\n", 5),
    ("[path]\npreset exp9\n", 3),
    ("[path]\npreset exp1\n[controller]\nmethod pid\n", 5),
    ("[path]\npreset exp1\n[noise]\nenabled yes\n", 5),
    ("[path]\nsegment kind=line length_m=20\n[implement]\nI_y_m -1e308\n"
     "[run]\ninitial_e_I_m 1e308\n", 7),
    ("[path]\nsegment kind=line length_m=20\nsegment kind=line length_m=5 length_m=7\n", 4),
    ("[path]\nsegment kind=line length_m=20\nsegment kind=spline length_m=5\n", 4),
    ("[path]\nsegment kind=line length_m=20\nsegment kind=line length_m=0\n", 4),
    ("[path]\nsegment kind=line length_m=20\nsegment kind=arc length_m=5 curvature_per_m=0\n",
     4),
    ("[path]\nsegment kind=line length_m=20\n"
     "segment kind=line length_m=5 curvature_per_m=0.1\n", 4),
    ("[path]\nsegment kind=line length_m=20\n"
     "segment kind=arc length_m=5 curvature_per_m=1e-320\n", 4),
    ("[path]\nsegment kind=line length_m=20\n"
     "segment kind=arc length_m=5 curvature_per_m=1e-320\nsegment kind=line length_m=20\n", 4),
    ("[path]\nsegment kind=line length_m=20\n"
     "segment kind=arc length_m=1e300 curvature_per_m=1e10\n", 4),
    ("[path]\npreset exp2\nsegment kind=line length_m=5\n", 4),
    ("[path]\npreset exp1\n[run]\nseed " + "1" * 5000 + "\n", 5),
], ids=["segment_not_a_number", "segment_infinite", "dt_zero", "run_length_nan",
        "seed_not_integer", "initial_s_beyond_path", "initial_s_beyond_run_length",
        "noise_std_negative", "horizon_samples_beyond_limit", "plant_steps_beyond_limit",
        "steer_limit_beyond_pi_2", "control_period_not_a_multiple_of_dt", "lambda_zero",
        "s_t_above_s_h", "I_y_beyond_min_arc_radius", "plant_step_budget_not_finite",
        "unknown_controller_preset", "unknown_path_preset", "unknown_method",
        "noise_enabled_not_boolean", "initial_y_from_initial_e_not_finite",
        "segment_field_repeated", "segment_kind_unknown", "segment_length_zero",
        "arc_curvature_zero", "line_curvature_nonzero", "last_arc_radius_overflows",
        "middle_arc_radius_overflows", "arc_turn_overflows", "path_preset_and_segments",
        "seed_beyond_digit_limit"])
def test_bad_value_exits_2_with_line(tmp_path, capsys, body, line):
    p = tmp_path / "bad.scn"
    p.write_text("format_version 1\n" + body)
    for command in (["validate", str(p)], ["--out-dir", str(tmp_path / "o"), "run", str(p)]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert f"scenario error: line {line}:" in err
        # a rejected text is echoed cut to its first ECHO_CHARS characters:
        # whole, the 5,000-digit seed makes a 5,050-character message
        assert len(err) < 500


def test_horizon_whose_sigma2_underflows_exits_2_in_validate_and_run(tmp_path, capsys):
    # n_h = 1 and (1e-300 m)^2 = 0.0: validate accepted it, and run made its
    # output directory, then exited 2 at its first control step with an
    # unlocated "error: sigma2 must be > 0 (empty horizon)"
    p = tmp_path / "tiny.scn"
    p.write_text("format_version 1\n[path]\npreset exp1\n[controller]\n"
                 "s_h_m 1e-300\ns_t_m 1e-300\n")
    out = tmp_path / "o"
    for command in (["validate", str(p)], ["--out-dir", str(out), "run", str(p)]):
        assert main(command) == 2
        assert capsys.readouterr().err.startswith("scenario error: line 6: key 's_t_m': ")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "1.7", "x",
                                  pytest.param("1" * 5000, id="5000_digits")])
def test_bad_seed_flag_exits_2(seed, capsys):
    run = ["--seed", seed, "run", str(SCENARIOS / "exp1_rear_optimal.scn")]
    with pytest.raises(SystemExit) as exc:
        main(run)
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert f"argument --seed: {SEED_RULE}, got " in message
    assert len(message) < 200  # not the 5,000 digits, echoed cut


def test_seed_digit_limit_is_one_rule_for_the_file_and_the_flag(tmp_path, capsys):
    # Python reads an int of at most 4300 digits from text; a longer seed
    # once exited 1 from a file
    seed = "9" * MAX_SEED_DIGITS
    p = tmp_path / "seed.scn"
    p.write_text(MINI + f"seed {seed}\n")  # MINI ends in its [run] block
    assert main(["validate", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["run"]["seed"] == int(seed)
    assert main(["--out-dir", str(tmp_path / "o"), "--seed", seed, "--noise", "on",
                 "run", str(p)]) == 0
    p.write_text(MINI + f"seed {seed}9\n")
    assert main(["validate", str(p)]) == 2
    assert f"scenario error: line 9: key 'seed': {SEED_RULE}, got " in capsys.readouterr().err


# ------------------------------------------------------ mutated scenario text

_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r")
_VALUES = st.one_of(
    st.sampled_from(["0", "-0", "-1", "1", "0.5", "nan", "inf", "-inf", "1e308", "-1e308",
                     "1e-320", "1e20", "true", "false", "abc", "exp2", "table2_sh_0.5",
                     "kind=arc length_m=3 curvature_per_m=0.5", "kind=line", "length_m=",
                     "=", "[run]", "[nope]", "#"]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.text(_CHARS, max_size=12),
)


@st.composite
def _mutated(draw, text):
    """The text with one to four random line edits: a key set in its block, a
    value replaced, a line deleted or duplicated, or one character changed."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["insert", "value", "field", "delete", "duplicate", "char"]))
        if edit == "insert":
            block = draw(st.sampled_from(sorted(_BLOCK_KEYS)))
            line = f"{draw(st.sampled_from(sorted(_BLOCK_KEYS[block])))} {draw(_VALUES)}"
            if f"[{block}]" in lines:
                lines.insert(lines.index(f"[{block}]") + 1, line)
            else:
                lines += [f"[{block}]", line]
        elif edit == "value":
            lines[i] = f"{lines[i].split(' ', 1)[0]} {draw(_VALUES)}"
        elif edit == "field":
            words = lines[i].split(" ")
            j = draw(st.integers(0, len(words) - 1))
            words[j] = words[j].split("=", 1)[0] + "=" + draw(_VALUES)
            lines[i] = " ".join(words)
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:j] + draw(_CHARS) + lines[i][j + 1:]
    return "\n".join(lines) + "\n"


def _exit_code(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "mutated.scn"
        scn.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return main(["--out-dir", str(Path(tmp) / "out"), command, str(scn)])


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.scn")))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_scenario_validate_never_exits_1(name, data):
    text = data.draw(_mutated((SCENARIOS / name).read_text()))
    assert _exit_code("validate", text) in (0, 2, 3)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(p.name for p in SCENARIOS.glob("*.scn"))),
       length=st.floats(0.0, 5.0))
def test_mutated_short_run_never_exits_1(data, name, length):
    # pin a short run, then mutate; runs whose parsed length or plant-step
    # budget is not small are skipped so the test stays within seconds
    text = (SCENARIOS / name).read_text().replace("[run]", f"[run]\nlength_m {length!r}", 1)
    text = text.replace("length_m 55\n", "")  # line_convergence's own length_m
    text = data.draw(_mutated(text))
    try:
        scn = parse_scenario(text)
    except GuidanceError:
        scn = None
    if scn is not None:
        n_ctrl = round(scn.control_period / scn.dt)
        assume(scn.run_length <= 5.0)
        assume(3 * scn.run_length / (scn.vehicle.speed * scn.dt) + n_ctrl <= 5000)
        assume(getattr(scn.params, "n_h", 0) <= 10000)
    assert _exit_code("run", text) in (0, 2, 3)


# ------------------------------------------------------- faults and headlands

@pytest.mark.parametrize("e_I", ["2.2", "2.7", "3.0"])
def test_narrow_headland_run_keeps_s_on_its_row(e_I, tmp_path):
    # rows 5 m apart, the robot up to 3.5 m off row 3: nearer row 4, but s
    # stays on row 3 and follows the path through the turns that follow
    text = (SCENARIOS / "fields" / "narrow_headland.scn").read_text()
    assert "initial_e_I_m 2.7\n" in text
    p = tmp_path / "narrow.scn"
    p.write_text(text.replace("initial_e_I_m 2.7\n", f"initial_e_I_m {e_I}\n"))
    assert main(["--out-dir", str(tmp_path / "o"), "run", str(p)]) == 0
    scn = parse_scenario(p.read_text())
    with open(tmp_path / "o" / "run.csv") as fh:
        log = read_csv(fh)
    s, y = log.column("s"), log.column("y")
    assert s[0] == scn.initial_s and s[-1] >= scn.run_length
    # s moves at most one step's travel at the Frenet rate v cos(theta~) /
    # (1 - c y), plus a margin; inside a turn that rate is up to 2.1 v here
    curvature = dict(zip(scn.path.labels, (seg.curvature for seg in scn.path.segments)))
    rates = [1.0 / (1.0 - curvature[segment] * yi) for segment, yi in zip(log.segments, y)]
    travel = scn.vehicle.speed * scn.dt
    for i in range(1, len(s)):
        assert abs(s[i] - s[i - 1]) <= travel * max(rates[i - 1], rates[i]) + 0.01
    assert set(log.segments) >= {"L3", "C3", "L4", "C4", "L5"}


def test_controller_domain_fault_exits_3_with_its_log(tmp_path, capsys):
    # a heading 1.6 rad off the path is outside the optimal controller's
    # domain: the fail-safe command, a truncated log, and the guard named
    text = (SCENARIOS / "exp1_rear_optimal.scn").read_text().replace(
        "[run]\n", "[run]\ninitial_theta_rad 1.6\n")
    p = tmp_path / "theta.scn"
    p.write_text(text)
    assert main(["validate", str(p)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["--out-dir", str(out), "run", str(p)]) == 3
    assert "simulation fault: controller fail-safe: |theta_tilde| must be < pi/2" in (
        capsys.readouterr().err)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fault"] == "controller fail-safe: |theta_tilde| must be < pi/2"
    with open(out / "run.csv") as fh:
        log = read_csv(fh)
    assert log.faults and log.faults[-1]


@pytest.mark.parametrize("method", ["optimal", "backstepping", "lateral_servoing"])
def test_nan_steering_angle_is_a_fault_that_exits_3(method, monkeypatch, tmp_path, capsys):
    # a NaN curvature at the third control step makes each method's raw
    # steering angle NaN; the controller's fail-safe holds its last command
    measure, calls = harness.measure, itertools.count(1)

    def nan_measure(*args):
        meas = measure(*args)
        return meas._replace(curvature_now=math.nan) if next(calls) == 3 else meas
    monkeypatch.setattr(harness, "measure", nan_measure)
    p = tmp_path / "nan.scn"
    p.write_text(MINI.replace("table1_rear_optimal", f"table1_rear_{method}"))
    out = tmp_path / "o"
    assert main(["--out-dir", str(out), "run", str(p)]) == 3
    assert "simulation fault: controller fail-safe: the raw steering angle is NaN" in (
        capsys.readouterr().err)
    with open(out / "run.csv") as fh:
        log = read_csv(fh)
    assert list(map(bool, log.faults)) == [False] * 20 + [True]
    assert all(math.isfinite(x) for name in ("delta_actual", "delta_cmd", "theta_d")
               for x in log.column(name))


@pytest.mark.parametrize("old, new, s_final", [
    ("initial_e_I_m 0.5", "initial_e_I_m 1e300", None),
    ("[vehicle]\n", "[vehicle]\nspeed_m_s 1e300\n", 20.0),
    ("[run]\n", "[run]\ndt_s 1e300\ncontrol_period_s 1e300\n", 20.0),
], ids=["initial_e_I", "speed", "dt"])
def test_run_that_uses_up_its_step_budget_exits_3(old, new, s_final, tmp_path, capsys):
    # each of these stops short of the run length when its plant-step budget
    # 3 * length / (speed * dt) + control_period / dt runs out: a fault
    text = (SCENARIOS / "exp1_rear_optimal.scn").read_text()
    assert old in text
    p = tmp_path / "budget.scn"
    p.write_text(text.replace(old, new))
    out = tmp_path / "o"
    assert main(["--out-dir", str(out), "run", str(p)]) == 3
    assert "simulation fault: plant-step budget of " in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert "short of run_length 47.27" in summary["fault"]
    with open(out / "run.csv") as fh:
        log = read_csv(fh)
    assert list(map(bool, log.faults)) == [False] * (len(log.faults) - 1) + [True]
    s_end = log.column("s")[-1]
    assert s_end < 47.27
    if s_final is not None:
        assert s_end == s_final


_PRESETS = sorted(f"table1_{placement}_{method}" for placement in ("front", "rear")
                  for method in ("optimal", "backstepping", "lateral_servoing"))


@settings(max_examples=60, deadline=None)
@given(preset=st.sampled_from(_PRESETS), initial_s=st.floats(0.0, 46.0),
       e_I=st.floats(-12.0, 12.0),
       theta=st.one_of(st.floats(-4.0, 4.0), st.sampled_from([1.6, -1.6, 1e6, -1e300])))
def test_accepted_start_state_runs_to_exit_0_or_3(preset, initial_s, e_I, theta):
    # a start state that `validate` accepts is never a bad scenario to `run`:
    # a 1 m run on exp1 ends or faults (3 with its log), never exits 2
    text = (f"format_version 1\n[path]\npreset exp1\n[controller]\npreset {preset}\n"
            f"[run]\nlength_m {initial_s + 1.0!r}\ninitial_s_m {initial_s!r}\n"
            f"initial_e_I_m {e_I!r}\ninitial_theta_rad {theta!r}\n")
    assert _exit_code("validate", text) == 0
    assert _exit_code("run", text) in (0, 3)
