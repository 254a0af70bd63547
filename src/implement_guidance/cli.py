"""Command-line front end.

Commands: run, compare, sweep, validate. Exit codes: 0 success, 2 scenario
validation error or an output that cannot be written, 3 simulation fault,
1 unexpected error. `main` maps each failure to its code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .errors import GuidanceError, ScenarioError, quoted
from .harness import (
    NoiseSpec,
    Scenario,
    compare_methods,
    run_and_summarize,
    sweep_horizon,
    write_csv,
)
from .paths import ReferencePath, build_experiment_path
from .presets import TABLE1, TABLE2
from .scenario_io import SEED_RULE, is_seed, parse_scenario, resolved_config
from .svgplot import comparison_figure, m4, sweep_figure
from .vehicle import VehicleConfig

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_VALIDATION = 2
EXIT_FAULT = 3

OUT_DIR_ENV = "IMPLEMENT_GUIDANCE_OUT_DIR"


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise GuidanceError(f"cannot create output directory {out!r}: {exc.strerror}") from exc
    return out


def _command_line() -> str:
    return "implement-guidance " + " ".join(sys.argv[1:])


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_scenario(args) -> Scenario:
    """The scenario file of args, with the --seed and --noise overrides; a
    GuidanceError when it cannot be read, a ScenarioError when it is not valid."""
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GuidanceError(f"cannot read scenario: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(str(exc)) from exc
    return parse_scenario(text, seed_override=args.seed, noise_override=_noise_flag(args))


def cmd_run(args) -> int:
    scn = _read_scenario(args)
    out = _out_dir(args)  # made only once the scenario parsed
    log, summary = run_and_summarize(scn)
    with open(os.path.join(out, "run.csv"), "w") as fh:
        write_csv(log, fh)
    _write_json(os.path.join(out, "summary.json"),
                {**summary, "fault": log.fault, "scenario": resolved_config(scn)})
    if log.fault:
        print(f"simulation fault: {log.fault}", file=sys.stderr)
        return EXIT_FAULT
    return EXIT_OK


def _base_scenario(args, path: ReferencePath) -> Scenario:
    """The Table I rear optimal run over all of path, that compare and sweep vary."""
    imp, params = TABLE1[("optimal", "rear")]
    return Scenario(
        path=path, vehicle=VehicleConfig(), implement=imp, method="optimal", params=params,
        run_length=math.floor(path.total_length - 1.0),
        seed=args.seed or 0, noise=NoiseSpec(enabled=_noise_flag(args) or False))


def cmd_compare(args) -> int:
    out = _out_dir(args)
    path = build_experiment_path("exp1")
    placements = (args.placement,) if args.placement else ("front", "rear")
    rows = []
    per_placement: dict[str, dict] = {}  # the figure's series, as their M4 points
    for placement, method, log, summary in compare_methods(_base_scenario(args, path),
                                                           placements):
        csv = f"run_{placement}_{method}.csv"
        with open(os.path.join(out, csv), "w") as fh:
            write_csv(log, fh)
        overshoot = summary["junction_overshoot_m"]
        rows.append({"method": method, "placement": placement,
                     "reconstruction": method != "optimal", "summary": summary,
                     "max_junction_overshoot_m": max(overshoot.values()) if overshoot else 0.0,
                     "fault": log.fault, "csv": csv})
        s, e = m4(log.column("s"), log.column("e_I_exact"))
        per_placement.setdefault(placement, {})[method] = {"s": s, "e": e, "summary": summary}
        del log  # before the next run starts
    ratios = {}
    for placement in placements:
        by_method = {r["method"]: r["max_junction_overshoot_m"] for r in rows
                     if r["placement"] == placement}
        for baseline in ("backstepping", "lateral_servoing"):
            if by_method.get(baseline):
                ratios[f"{placement}_optimal_vs_{baseline}"] = (
                    by_method["optimal"] / by_method[baseline])
    _write_json(os.path.join(out, "comparison.json"),
                {"configurations": rows, "overshoot_ratios": ratios})
    with open(os.path.join(out, "figure4.svg"), "w") as fh:
        fh.write(comparison_figure(per_placement, path.junctions(), _command_line()))
    if any(r["fault"] for r in rows):
        return EXIT_FAULT
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = TABLE2
    if args.horizons is not None:
        try:
            wanted = {float(h) for h in args.horizons.split(",")}
        except ValueError:
            raise GuidanceError(f"bad --horizons value {quoted(args.horizons)}") from None
        rows = [p for p in TABLE2 if p.s_h in wanted]
        if not rows:
            raise GuidanceError("no Table II row matches --horizons")
    out = _out_dir(args)  # made only once the horizons parsed
    path = build_experiment_path("exp2")
    points = []
    for params, log, summary in sweep_horizon(_base_scenario(args, path), rows):
        points.append({**summary, "s_h_m": params.s_h, "lambda_per_m": params.lam,
                       "k_theta_per_m": params.k_theta, "s_t_m": params.s_t,
                       "fault": log.fault})
        del log  # before the next run starts
    best = min(points, key=lambda p: p["median_abs_e_m"])
    _write_json(os.path.join(out, "sweep.json"),
                {"points": points, "argmin_s_h_m": best["s_h_m"]})
    with open(os.path.join(out, "figure6.svg"), "w") as fh:
        fh.write(sweep_figure(points, _command_line()))
    if any(p["fault"] for p in points):
        return EXIT_FAULT
    return EXIT_OK


def cmd_validate(args) -> int:
    json.dump(resolved_config(_read_scenario(args)), sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    if not is_seed(text):
        raise argparse.ArgumentTypeError(f"{SEED_RULE}, got {quoted(text)}")
    return int(text)


def _noise_flag(args):
    if args.noise is None:
        return None
    return args.noise == "on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implement-guidance",
        description="Path-following control toolkit for an offset implement point")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or ./out)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: compare and sweep run serially, "
                             "as threads were no faster (the runs hold the GIL)")
    parser.add_argument("--seed", type=_non_negative_int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--noise", choices=["on", "off"], default=None,
                        help="override the scenario noise switch")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.set_defaults(func=cmd_run)
    p_cmp = sub.add_parser("compare", help="run the experiment-1 method comparison")
    p_cmp.add_argument("--placement", choices=["front", "rear"], default=None)
    p_cmp.set_defaults(func=cmd_compare)
    p_swp = sub.add_parser("sweep", help="run the prediction-horizon sweep")
    p_swp.add_argument("--horizons", default=None,
                       help="comma-separated s_h values to keep, e.g. 1.0,2.0")
    p_swp.set_defaults(func=cmd_sweep)
    p_val = sub.add_parser("validate", help="validate a scenario file without running")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GuidanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # reading the scenario and making --out-dir raise GuidanceError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
