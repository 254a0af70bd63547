"""Tests of the benchmark's own parts: input generators, output checks,
tracing arithmetic and the metric declarations. Each runs in well under a
second; no workload runs here."""

import json
import os
import re

import pytest

from checks import check_outputs
from implement_guidance import cli
from tracer import Tracer, instrumented, self_times, span_table
from implement_guidance.presets import TABLE2
from workloads import WORKLOADS, field_rows_scenario, line_100hz_scenario, op_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
GENERATORS = [field_rows_scenario, line_100hz_scenario]
# line_100hz's configuration on a 3 m run: about 300 controller steps
SHORT_LINE = """format_version 1
[path]
segment kind=line length_m=4.0
[controller]
preset table2_sh_3.5
s_t_m 0.05
[run]
length_m 3.0
dt_s 0.01
control_period_s 0.01
seed 5
[noise]
enabled true
"""


@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_gives_identical_file(generate):
    for seed in op_seeds(generate.__name__, 7, 5):
        assert generate(seed) == generate(seed)
    assert generate(1) != generate(2)


@pytest.mark.parametrize("generate, segments, n_h", [
    (field_rows_scenario, 59, 13), (line_100hz_scenario, 1, 70)])
def test_generated_files_validate(generate, segments, n_h, tmp_path, capsys):
    for seed in op_seeds(generate.__name__, 3, 4):
        path = tmp_path / f"{seed}.scn"
        path.write_text(generate(seed))
        capsys.readouterr()
        assert cli.main(["validate", str(path)]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert len(resolved["path"]["segments"]) == segments
        assert resolved["controller"]["n_h"] == n_h


def test_paper_repro_cycle_covers_both_figures():
    workload = WORKLOADS["paper_repro"]
    placements, horizons = set(), set()
    for index in range(workload.cycle):
        compare, sweep = workload.commands(index, 1, "")
        placement = compare[compare.index("--placement") + 1]
        placements.add(placement)
        horizons.update(float(h) for h in sweep[sweep.index("--horizons") + 1].split(","))
        assert f"run_{placement}_optimal.csv" in workload.outputs(index)
    assert placements == {"front", "rear"}
    assert horizons == {p.s_h for p in TABLE2}


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap (two
    # worker threads) and c [8, 12] that outlives it; a has child d [2, 3].
    spans = [(1, 0, "root", 1, 0.0, 10.0), (2, 1, "a", 1, 1.0, 4.0),
             (3, 1, "b", 1, 3.0, 6.0), (4, 1, "c", 1, 8.0, 12.0),
             (5, 2, "d", 1, 2.0, 3.0)]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}
    table = span_table(spans)
    assert table["root"]["calls"] == 1 and table["root"]["total_s"] == 10.0
    assert table["a"]["self_s"] == 2.0


def _traced_counts(scenario_path, out_dir):
    tracer = Tracer()
    with instrumented(tracer):
        assert cli.main(["--out-dir", str(out_dir), "run", str(scenario_path)]) == 0
    calls = {name: row["calls"] for name, row in span_table(tracer.spans).items()}
    return calls, tracer.counts()


def test_traced_counts_repeat_exactly(tmp_path):
    path = tmp_path / "short.scn"
    path.write_text(SHORT_LINE)
    first = _traced_counts(path, tmp_path / "a")
    assert first == _traced_counts(path, tmp_path / "b")
    calls, counts = first
    assert calls["controllers.step"] == calls["vehicle.measure"] > 250
    assert counts["paths.segment_point_at.calls"] > 0
    assert cli.main.__name__ == "main"  # patches are undone


def test_checks_flag_non_finite_values_and_faults(tmp_path):
    (tmp_path / "run.csv").write_text(
        "header\n" + ",".join(["0.0"] * 9 + ["L1", "0"]) + "\n"
        + ",".join(["nan"] + ["0.0"] * 8 + ["L1", "0"]) + "\n")
    (tmp_path / "summary.json").write_text(
        json.dumps({"fault": "guard tripped", "summary": {"fault_count": 1}}))
    problems = check_outputs(str(tmp_path), ("run.csv", "summary.json")).problems
    assert any("run.csv:3: non-finite" in p for p in problems)
    assert any("fault 'guard tripped'" in p for p in problems)
    assert any("1 faults" in p for p in problems)
    assert check_outputs(str(tmp_path), ("missing.csv",)).problems[0] == "missing.csv: missing"


def test_benchmark_json_names_units_and_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
