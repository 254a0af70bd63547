"""Benchmark workloads: seeded input generators and the operation each runs.

Each generator maps an integer seed to the text of a scenario file; the same
seed always gives byte-identical text. The program under test only ever sees
these generated inputs, through its public entry point `cli.main`.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

FIELD_ROWS = 30


def op_seeds(workload: str, seed: int, count: int) -> list[int]:
    """The per-operation seeds a workload cycles through, drawn from its seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def field_rows_scenario(seed: int) -> str:
    """Serpentine field: FIELD_ROWS rows joined by alternating 180-degree
    headland arcs (2 * FIELD_ROWS - 1 segments). The run starts at a
    seed-chosen row and stops after that row and its headland turn.

    The turn radius stays above the vehicle's ~2 m minimum turning radius
    (wheelbase 1.2 m, steer limit 0.55 rad). The ranges are narrow so that
    operations from different seeds cost about the same.
    """
    rng = random.Random(seed)
    row = round(rng.uniform(29.0, 31.0), 3)
    radius = round(rng.uniform(2.8, 3.2), 3)
    e0 = round(rng.uniform(0.3, 0.5), 3)
    start_row = rng.randrange(FIELD_ROWS - 1)
    arc = math.pi * radius
    lines = [
        f"# Serpentine field: {FIELD_ROWS} rows of {row} m, headland radius {radius} m.",
        "format_version 1",
        "",
        "[path]",
    ]
    for i in range(FIELD_ROWS):
        lines.append(f"segment kind=line length_m={row!r}")
        if i < FIELD_ROWS - 1:
            curvature = (1.0 if i % 2 == 0 else -1.0) / radius
            lines.append(f"segment kind=arc length_m={arc!r} curvature_per_m={curvature!r}")
    lines += [
        "",
        "[controller]",
        "preset table1_rear_optimal",
        "",
        "[run]",
        f"initial_s_m {start_row * (row + arc)!r}",
        f"length_m {(start_row + 1) * (row + arc)!r}",
        f"initial_e_I_m {e0!r}",
        f"seed {seed}",
    ]
    return "\n".join(lines) + "\n"


def line_100hz_scenario(seed: int) -> str:
    """About 100 m of straight line, optimal controller at the plant rate
    (control period = dt = 0.01 s) with n_h = 3.5 / 0.05 = 70, noise on."""
    rng = random.Random(seed)
    length = round(rng.uniform(99.0, 101.0), 3)
    e0 = round(rng.uniform(0.3, 0.5), 3)
    return "\n".join([
        f"# Straight line of {length} m, optimal controller at 100 Hz.",
        "format_version 1",
        "",
        "[path]",
        f"segment kind=line length_m={length!r}",
        "",
        "[controller]",
        "preset table2_sh_3.5",
        "s_t_m 0.05",
        "",
        "[run]",
        f"length_m {length - 1.0!r}",
        "dt_s 0.01",
        "control_period_s 0.01",
        f"initial_e_I_m {e0!r}",
        f"seed {seed}",
        "",
        "[noise]",
        "enabled true",
    ]) + "\n"


def paper_repro_scenario(seed: int) -> str:
    """The first configuration `compare` runs (exp1, rear, optimal) as a
    scenario file; only used to time start-up for this workload."""
    return "\n".join([
        "# Experiment-1 path, rear implement, optimal controller, noise on.",
        "format_version 1",
        "",
        "[path]",
        "preset exp1",
        "",
        "[controller]",
        "preset table1_rear_optimal",
        "",
        "[run]",
        "initial_e_I_m 0.5",
        f"seed {seed}",
        "",
        "[noise]",
        "enabled true",
    ]) + "\n"


def _jobs() -> str:
    return str(len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    # distinct operations per run; a run cycles through them, so a repeat
    # must reproduce the first occurrence's outputs byte for byte
    cycle: int
    # operations a traced run makes, each once untraced and once traced
    trace_ops: int
    scenario: Callable[[int], str]
    # (index in the cycle, operation seed, scenario file) -> CLI argument
    # lists, without --out-dir
    commands: Callable[[int, int, str], list[list[str]]]
    # index in the cycle -> files the operation must write; hashed unless
    # they are figures
    outputs: Callable[[int], tuple[str, ...]]


# Table II's prediction horizons (s_h, m), two per operation, so that
# `sweep` hands its thread pool as many runs as there are workers.
HORIZON_PAIRS = (("0.5", "1.0"), ("1.5", "2.0"), ("2.5", "3.0"), ("3.5", "0.5"))
PLACEMENTS = ("front", "rear")
METHODS = ("lateral_servoing", "backstepping", "optimal")


def _paper_slice(index: int) -> tuple[str, tuple[str, str]]:
    """Operation `index` of paper_repro: one placement of Figure 4 and two
    horizons of Figure 6. A cycle of 8 runs every placement with every pair,
    which covers all of `compare` twice and all of `sweep`."""
    return PLACEMENTS[index % 2], HORIZON_PAIRS[index // 2 % len(HORIZON_PAIRS)]


def _paper_repro_commands(index: int, seed: int, _scenario_path: str) -> list[list[str]]:
    placement, horizons = _paper_slice(index)
    common = ["--jobs", _jobs(), "--noise", "on", "--seed", str(seed)]
    return [common + ["compare", "--placement", placement],
            common + ["sweep", "--horizons", ",".join(horizons)]]


def _paper_repro_outputs(index: int) -> tuple[str, ...]:
    placement, _ = _paper_slice(index)
    return tuple(f"run_{placement}_{m}.csv" for m in METHODS) + (
        "comparison.json", "figure4.svg", "sweep.json", "figure6.svg")


def _run_command(_index: int, _seed: int, scenario_path: str) -> list[list[str]]:
    return [["run", scenario_path]]


def _run_outputs(_index: int) -> tuple[str, ...]:
    return ("run.csv", "summary.json")


WORKLOADS = {w.name: w for w in (
    # The paper's figures: the only workload that reaches cli batch
    # orchestration, its thread pool and svgplot. An operation is a slice
    # of `compare` plus a slice of `sweep` (~2 s), so that a run holds
    # enough operations for a steady median.
    Workload(
        name="paper_repro",
        cycle=8, trace_ops=4, scenario=paper_repro_scenario,
        commands=_paper_repro_commands, outputs=_paper_repro_outputs),
    # Projection-heavy: ReferencePath.project scans all 59 segments twice
    # per plant step. Controller changes should not move it (10 Hz control).
    Workload(
        name="field_rows",
        cycle=8, trace_ops=3, scenario=field_rows_scenario,
        commands=_run_command, outputs=_run_outputs),
    # Controller-heavy: a control step every plant step with n_h = 70, and a
    # one-segment path, so projection changes should not move it.
    Workload(
        name="line_100hz",
        cycle=8, trace_ops=3, scenario=line_100hz_scenario,
        commands=_run_command, outputs=_run_outputs),
)}
