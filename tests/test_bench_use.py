"""The benchmark's use of the package: `bench/run.py` drives `cli.main` one
operation at a time and counts each run's plant steps with
`len(RunLog.records)`. One operation of each workload runs here, so that a
change that breaks the benchmark fails a test, not only a benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module; it imports its siblings from bench/."""
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(BENCH)


def _data_rows(csv):
    with open(csv) as fh:
        return sum(1 for _ in fh) - 1  # less the header


@pytest.mark.parametrize("name", ["paper_repro", "field_rows", "line_100hz"])
def test_one_operation_of_each_workload(bench_run, name, tmp_path):
    workload = bench_run.WORKLOADS[name]
    op_seed = bench_run.op_seeds(name, 1, workload.cycle)[0]
    scenario = tmp_path / "op0.scn"
    scenario.write_text(workload.scenario(op_seed))
    out = tmp_path / "out"
    op = bench_run.run_operation(workload, 0, op_seed, str(scenario), str(out))
    assert op.problems == []
    csv_rows = sum(_data_rows(csv) for csv in out.glob("*.csv"))
    if name == "paper_repro":  # sweep's runs write no CSV
        assert 0 < csv_rows < op.records
    else:
        assert op.records == csv_rows > 0
