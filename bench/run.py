"""Benchmark for the implement_guidance simulator.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-golden

Run from a source checkout: the package is imported from ./src. Each run
generates its inputs from --seed (see workloads.py), then drives `cli.main`
in a closed loop, one operation after another, for --seconds seconds, and
checks every operation's outputs (checks.py). With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs a fixed set of operations, each
untraced and then traced, and reports the per-layer metrics (tracer.py) and
the tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Metric names and units are declared in BENCHMARK.json.

At the default seed the output hashes must match bench/golden.json;
--record-golden rewrites that file from the current program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from checks import check_outputs
from workloads import WORKLOADS, op_seeds

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(BENCH, "golden.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 7

# What every CLI call pays before simulating: a fresh interpreter imports
# the package and parses the scenario.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import implement_guidance; "
              "from implement_guidance.scenario_io import parse_scenario; "
              "parse_scenario(open(sys.argv[2]).read())")


@dataclass
class OpResult:
    index: int          # position in the workload's cycle of operations
    wall_s: float
    cpu_s: float        # process + child CPU time during the CLI calls
    records: int        # plant steps: len(RunLog.records) summed over runs
    out_bytes: int
    problems: list[str]
    hashes: dict[str, str]


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def import_program():
    """Import implement_guidance from this checkout's src/, never another copy."""
    if not os.path.isfile(os.path.join(SRC, "implement_guidance", "cli.py")):
        raise SystemExit(f"error: no implement_guidance sources under {SRC}")
    sys.path.insert(0, SRC)
    import implement_guidance
    if not os.path.abspath(implement_guidance.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {implement_guidance.__file__}, not {SRC}")


def prepare(workload, seed: int) -> tuple[list[int], list[str], str]:
    """Write the workload's scenario files; returns (op seeds, paths, out dir)."""
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    seeds = op_seeds(workload.name, seed, workload.cycle)
    scenario_paths = []
    for i, op_seed in enumerate(seeds):
        path = os.path.join(work, f"op{i}.scn")
        with open(path, "w") as fh:
            fh.write(workload.scenario(op_seed))
        scenario_paths.append(path)
    return seeds, scenario_paths, os.path.join(work, "out")


def start_interpreter(scenario_path: str) -> float:
    """Wall time of a fresh interpreter importing the package and parsing."""
    t0 = time.perf_counter()
    # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
    # which would quantize the measurement
    subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, scenario_path], check=True)
    return time.perf_counter() - t0


@contextmanager
def counting_plant_steps(counts: list[int]):
    """Append len(RunLog.records) of every run to counts. `sweep` writes no
    CSV, so plant steps cannot be read back from the outputs; one wrapped
    call per run costs nothing measurable."""
    from implement_guidance import harness
    original = harness.run_scenario

    def run_scenario(scn):
        log = original(scn)
        counts.append(len(log.records))
        return log
    harness.run_scenario = run_scenario
    try:
        yield
    finally:
        harness.run_scenario = original


def run_operation(workload, index: int, op_seed: int, scenario_path: str,
                  out_dir: str) -> OpResult:
    from implement_guidance import cli
    shutil.rmtree(out_dir, ignore_errors=True)
    wall = cpu = 0.0
    problems = []
    steps: list[int] = []
    saved_argv = sys.argv
    try:
        for args in workload.commands(index, op_seed, scenario_path):
            argv = ["--out-dir", out_dir, *args]
            # figures embed the command line, read from sys.argv
            sys.argv = ["implement-guidance", *argv]
            with counting_plant_steps(steps):
                c0, t0 = _cpu_s(), time.perf_counter()
                code = cli.main(argv)
                wall += time.perf_counter() - t0
            cpu += _cpu_s() - c0
            if code != 0:
                problems.append(f"{' '.join(args)}: exit code {code}")
    finally:
        sys.argv = saved_argv
    outputs = check_outputs(out_dir, workload.outputs(index))
    problems += outputs.problems
    return OpResult(index, wall, cpu, sum(steps), outputs.out_bytes, problems,
                    outputs.hashes)


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class HashCheck:
    """Outputs of an operation must equal the stored hashes at the default
    seed, and those of the first run of the same operation at any seed."""

    def __init__(self, workload: str, seed: int):
        self.expected: dict[int, dict] = {}
        if seed == DEFAULT_SEED:
            with open(GOLDEN) as fh:
                stored = json.load(fh)[workload]
            self.expected = {i: h for i, h in enumerate(stored)}

    def __call__(self, op: OpResult) -> None:
        want = self.expected.setdefault(op.index, op.hashes)
        for name in sorted(set(want) | set(op.hashes)):
            if want.get(name) != op.hashes.get(name):
                op.problems.append(f"{name}: sha256 differs from the reference")


def run_pass(workload, seeds, scenario_paths, out_dir, check, count=None,
             seconds=None, before_op=None) -> list[OpResult]:
    """Closed loop over the cycle of operations: `count` operations, or as
    many as start within `seconds`. `before_op(elapsed_s)` runs before each
    operation, outside its timing."""
    ops = []
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)
    i = 0
    while (i < count) if count is not None else (i == 0 or time.perf_counter() < deadline):
        if before_op is not None:
            before_op(time.perf_counter() - start)
        k = i % workload.cycle
        op = run_operation(workload, k, seeds[k], scenario_paths[k], out_dir)
        check(op)
        ops.append(op)
        i += 1
    return ops


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile with at least 10 samples beyond it. Below 21 samples no
    percentile above the median has that support, so the median is given."""
    xs = sorted(values)
    if len(xs) < 21:
        return statistics.median(xs), 50.0, len(xs) // 2
    idx = len(xs) - 11
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - 1 - idx


def end_to_end(workload, seed, seconds) -> tuple[list[OpResult], dict, list[str]]:
    seeds, scenario_paths, out_dir = prepare(workload, seed)
    start_interpreter(scenario_paths[0])  # warm-up: fills the file cache
    setup_times = []

    def sample_setup(elapsed: float) -> None:
        # SETUP_REPEATS starts spread evenly over the run, so that their
        # median sees the same machine speed as the operations
        if (len(setup_times) < SETUP_REPEATS
                and elapsed >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(start_interpreter(scenario_paths[0]))

    ops = run_pass(workload, seeds, scenario_paths, out_dir, HashCheck(workload.name, seed),
                   seconds=seconds, before_op=sample_setup)
    walls = [op.wall_s for op in ops]
    tail_s, tail_pct, beyond = tail(walls)
    failed = sum(1 for op in ops if op.problems)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": sum(op.records for op in ops) / sum(walls),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = ["operation wall s: " + " ".join(f"{w:.4f}" for w in walls),
             "setup s: " + " ".join(f"{t:.4f}" for t in setup_times),
             f"op_s_tail is p{tail_pct:.4g} of {len(ops)} operations, {beyond} beyond it",
             f"failed_ratio {failed / len(ops):.4g} ({failed} of {len(ops)} operations)"]
    return ops, metrics, notes


def per_layer(workload, seed) -> tuple[list[OpResult], dict, list[str]]:
    from tracer import Tracer, instrumented, span_table, write_spans
    seeds, scenario_paths, out_dir = prepare(workload, seed)
    check = HashCheck(workload.name, seed)
    tracer = Tracer()
    plain, traced = [], []
    # each operation runs untraced, then traced, so that both see the same
    # machine speed and their difference is the tracing overhead
    for i in range(workload.trace_ops):
        k = i % workload.cycle
        plain.append(run_operation(workload, k, seeds[k], scenario_paths[k], out_dir))
        tracer.op_id = i + 1
        with instrumented(tracer):
            traced.append(run_operation(workload, k, seeds[k], scenario_paths[k], out_dir))
    for op in plain + traced:
        check(op)
    spans_path = os.path.join(WORK, workload.name, "spans.csv")
    write_spans(tracer.spans, spans_path)
    table = span_table(tracer.spans)
    counts = tracer.counts()

    def span(name, key):
        return table.get(name, {}).get(key, 0)

    plain_s = sum(op.wall_s for op in plain)
    traced_s = sum(op.wall_s for op in traced)
    metrics = {
        "paths.project.calls": span("paths.project", "calls"),
        "paths.project.self_s": span("paths.project", "self_s"),
        "paths.project.us_p50": span("paths.project", "us_p50"),
        "paths.project.us_p99": span("paths.project", "us_p99"),
        "paths.segment_point_at.calls": counts.get("paths.segment_point_at.calls", 0),
        "paths.segment_index.calls": counts.get("paths.segment_index.calls", 0),
        "vehicle.step.calls": span("vehicle.step", "calls"),
        "vehicle.step.self_s": span("vehicle.step", "self_s"),
        "vehicle.integrate_pose.self_s": span("vehicle.integrate_pose", "self_s"),
        "vehicle.measure.calls": span("vehicle.measure", "calls"),
        "vehicle.measure.self_s": span("vehicle.measure", "self_s"),
        "vehicle.implement_error_exact.calls": span("vehicle.implement_error_exact", "calls"),
        "vehicle.implement_error_exact.self_s": span("vehicle.implement_error_exact", "self_s"),
        "controllers.step.calls": span("controllers.step", "calls"),
        "controllers.step.self_s": span("controllers.step", "self_s"),
        "controllers.step.us_p50": span("controllers.step", "us_p50"),
        "controllers.step.us_p99": span("controllers.step", "us_p99"),
        "controllers.sigma_terms.calls": counts.get("controllers.sigma_terms.calls", 0),
        "controllers.predicted_cost.calls": counts.get("controllers.predicted_cost.calls", 0),
        "controllers.faults": counts.get("controllers.faults", 0),
        "harness.run_scenario.self_s": span("harness.run_scenario", "self_s"),
        "harness.records": sum(op.records for op in traced),
        "harness.summarize.self_s": span("harness.summarize", "self_s"),
        "harness.write_csv.self_s": span("harness.write_csv", "self_s"),
        "harness.write_csv.bytes": counts.get("harness.write_csv.bytes", 0),
        "scenario_io.parse_scenario.self_s": span("scenario_io.parse_scenario", "self_s"),
        "cli.cpu_per_wall": sum(op.cpu_s for op in traced) / traced_s,
        "cli.output_bytes": sum(op.out_bytes for op in traced),
        "svgplot.figure.self_s": span("svgplot.figure", "self_s"),
        "svgplot.figure.bytes": counts.get("svgplot.figure.bytes", 0),
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
    }
    notes = [f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}"]
    for name, row in table.items():
        notes.append(f"span {name}: " + ", ".join(f"{k} {v:.6g}" for k, v in row.items()))
    return plain + traced, metrics, notes


def record_golden() -> None:
    golden = {}
    for name, workload in WORKLOADS.items():
        seeds, scenario_paths, out_dir = prepare(workload, DEFAULT_SEED)
        ops = run_pass(workload, seeds, scenario_paths, out_dir, lambda op: None,
                       count=workload.cycle)
        bad = [p for op in ops for p in op.problems]
        if bad:
            raise SystemExit(f"error: {name}: {bad[:5]}")
        golden[name] = [op.hashes for op in ops]
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    import_program()
    if args.record_golden:
        record_golden()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics()[kind]
    if args.trace:
        ops, values, notes = per_layer(workload, args.seed)
    else:
        ops, values, notes = end_to_end(workload, args.seed, args.seconds)
    if set(values) != set(units):
        raise SystemExit(f"error: measured {sorted(values)} but BENCHMARK.json "
                         f"declares {sorted(units)}")
    failed = [op for op in ops if op.problems]
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} operations, {len(failed)} failed")
    for op in failed:
        for problem in op.problems:
            print(f"FAIL operation {op.index}: {problem}")
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    for note in notes:
        print(note)
    import numpy
    print(f"machine: nproc {len(os.sched_getaffinity(0))}, python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
