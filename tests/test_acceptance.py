"""Acceptance gate: one test per top-level criterion, each printing a single
pass/fail line with the measured values before asserting."""

import io
import json
import math
import time
from dataclasses import replace

import numpy as np

from implement_guidance.cli import main
from implement_guidance.controllers import (
    BaselineParams,
    OptimalParams,
    backstepping_control_step,
    e_I_prime,
    e_I_second,
    lateral_servoing_control_step,
    optimal_control_step,
    predicted_cost,
    sigma_terms,
    xi_optimal,
)
from implement_guidance.harness import (
    CSV_HEADER,
    NoiseSpec,
    Scenario,
    compare_methods,
    initial_lateral_for_error,
    run_scenario,
    sweep_horizon,
    write_csv,
)
from implement_guidance.paths import FrenetState, build_experiment_path, build_path
from implement_guidance.presets import TABLE1, TABLE2
from implement_guidance.vehicle import (
    ImplementConfig,
    Measurements,
    VehicleConfig,
    VehiclePose,
    implement_error_measured,
    integrate_pose,
    pose_on_path,
)

from support import column

CFG = VehicleConfig()


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _golden(f, a, b, iters=70):
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


def test_criterion_1_closed_form_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        params = OptimalParams(lam=rng.uniform(0.1, 0.25),
                               k_theta=rng.uniform(0.3, 0.6),
                               s_h=rng.uniform(0.5, 3.5),
                               s_t=float(rng.choice([0.10, 0.15])))
        imp = ImplementConfig(I_s=rng.uniform(-2, 2), I_y=rng.uniform(-0.5, 0.5))
        e = rng.uniform(-1, 1)
        alpha = rng.uniform(0.8, 1.2)
        gamma = rng.uniform(-0.2, 0.2)
        e2 = rng.uniform(-0.5, 0.5)
        xi = xi_optimal(e, alpha, gamma, imp, e2, sigma_terms(params))
        xi_num = _golden(
            lambda x: predicted_cost(x, e, alpha, gamma, imp, e2, params), -10.0, 10.0)
        worst = max(worst, abs(xi - xi_num))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 5.0
    _report(1, ok, f"max |delta xi| = {worst:.2e} over 1000 draws, {dt:.2f} s")
    assert worst < 1e-6
    assert dt < 5.0


def test_criterion_2_steady_state_convergence():
    t0 = time.perf_counter()
    imp, params = TABLE1[("optimal", "rear")]
    path = build_path([{"kind": "line", "length_m": 60.0}])
    scn = Scenario(path=path, vehicle=CFG, implement=imp, method="optimal",
                   params=params, run_length=55.0,
                   initial_y=initial_lateral_for_error(0.5, imp))
    log = run_scenario(scn)
    s = column(log, "s")
    e = np.abs(column(log, "e_I_exact"))
    idx = np.nonzero(e < 0.02)[0]
    converged_s = s[idx[0]] if idx.size else math.inf
    stays = bool(idx.size) and bool(np.all(e[s >= converged_s] < 0.02))
    window = (e / 0.5 > 0.05) & (e / 0.5 < 0.8)
    slope = float(np.polyfit(s[window], np.log(e[window]), 1)[0])
    lam = params.lam
    slope_ok = abs(slope + lam) <= 0.3 * lam
    dt = time.perf_counter() - t0
    ok = converged_s <= 40.0 and stays and slope_ok and dt < 1.0
    _report(2, ok, f"|e_I| < 0.02 m at s = {converged_s:.1f} m (stays: {stays}); "
                   f"log-slope {slope:.4f} vs -{lam} +/- 30%, {dt:.2f} s")
    assert converged_s <= 40.0 and stays
    assert dt < 1.0
    assert slope_ok, (f"mid-decay log-slope {slope:.4f} outside "
                      f"[{-1.3 * lam:.3f}, {-0.7 * lam:.3f}]")


def test_criterion_3_overshoot_reduction():
    t0 = time.perf_counter()
    path = build_experiment_path("exp1")
    template = Scenario(
        path=path, vehicle=VehicleConfig(steer_rate_limit=0.15),
        implement=TABLE1[("optimal", "rear")][0], method="optimal",
        params=TABLE1[("optimal", "rear")][1],
        run_length=math.floor(path.total_length - 1.0), initial_y=1.0)
    results = list(compare_methods(template, methods=("backstepping", "optimal")))
    ratios = {}
    for placement in ("rear", "front"):
        by = {method: max(summary["junction_overshoot_m"].values())
              for p, method, _, summary in results if p == placement}
        ratios[placement] = by["optimal"] / by["backstepping"]
    dt = time.perf_counter() - t0
    ok = all(r <= 0.5 for r in ratios.values()) and dt < 5.0
    _report(3, ok, f"optimal/backstepping max overshoot ratio: "
                   f"rear {ratios['rear']:.2f}, front {ratios['front']:.2f} "
                   f"(threshold 0.50), {dt:.2f} s")
    assert dt < 5.0
    assert ratios["rear"] <= 0.5, f"rear ratio {ratios['rear']:.2f} > 0.5"
    assert ratios["front"] <= 0.5, f"front ratio {ratios['front']:.2f} > 0.5"


def test_criterion_4_interior_optimal_horizon():
    t0 = time.perf_counter()
    path = build_experiment_path("exp2")
    imp, params = TABLE1[("optimal", "rear")]
    base = Scenario(path=path, vehicle=CFG, implement=imp, method="optimal",
                    params=params, run_length=math.floor(path.total_length - 1.0),
                    initial_y=initial_lateral_for_error(0.5, imp))
    results = list(sweep_horizon(base))
    hs = [p.s_h for p, _, _ in results]
    med = [summary["median_abs_e_m"] for _, _, summary in results]
    i = int(np.argmin(med))
    interior = 0 < i < len(hs) - 1
    margin_lo = 1.0 - med[i] / med[0]
    margin_hi = 1.0 - med[i] / med[-1]
    dt = time.perf_counter() - t0
    ok = interior and margin_lo >= 0.10 and margin_hi >= 0.10 and dt < 30.0
    _report(4, ok, f"argmin s_h = {hs[i]} m (interior: {interior}); "
                   f"{100 * margin_lo:.0f}% below s_h={hs[0]}, "
                   f"{100 * margin_hi:.0f}% below s_h={hs[-1]}, {dt:.2f} s")
    assert interior
    assert margin_lo >= 0.10 and margin_hi >= 0.10
    assert dt < 30.0


def test_criterion_5_anticipation():
    t0 = time.perf_counter()
    path = build_path([
        {"kind": "line", "length_m": 20.0},
        {"kind": "arc", "length_m": 10.0 * math.pi / 2, "curvature_per_m": 0.1},
    ])
    s_j = 20.0
    firsts = {}
    for method in ("optimal", "backstepping"):
        imp, params = TABLE1[(method, "rear")]
        scn = Scenario(path=path, vehicle=CFG, implement=imp, method=method,
                       params=params, run_length=30.0,
                       initial_y=initial_lateral_for_error(0.0, imp))
        log = run_scenario(scn)
        s = column(log, "s")
        d = column(log, "delta_cmd")
        steady = d[(s > 5.0) & (s < 10.0)].mean()
        dev = np.abs(d - steady) > 1e-6
        firsts[method] = float(s[np.nonzero(dev & (s > 10.0))[0][0]])
    s_h = TABLE1[("optimal", "rear")][1].s_h
    dt = time.perf_counter() - t0
    ok = (s_j - s_h <= firsts["optimal"] < s_j) and firsts["backstepping"] >= s_j \
        and dt < 2.0
    _report(5, ok, f"first command deviation: optimal at s = {firsts['optimal']:.2f} m "
                   f"(window [{s_j - s_h}, {s_j})), backstepping at "
                   f"s = {firsts['backstepping']:.2f} m (>= {s_j}), {dt:.2f} s")
    assert s_j - s_h <= firsts["optimal"] < s_j
    assert firsts["backstepping"] >= s_j
    assert dt < 2.0


def test_criterion_6_model_consistency():
    t0 = time.perf_counter()
    # (a) projection-based lateral state vs direct curvilinear integration
    R = 10.0
    path = build_path([{"kind": "arc", "length_m": 15.0, "curvature_per_m": 1.0 / R}])
    v, L = CFG.speed, CFG.wheelbase

    def steer_of_t(t):
        return math.atan(L / R) + 0.05 * math.sin(0.5 * t)

    pose = pose_on_path(path, 0.0, lateral=0.2, heading_offset=0.1)
    dtp = 1e-3
    for i in range(10000):
        pose = integrate_pose(pose, steer_of_t, i * dtp, dtp, CFG)

    def deriv(t, s, y, th):
        c = path.point_at(min(s, path.total_length))[2]
        denom = 1.0 - c * y
        return (v * math.cos(th) / denom, v * math.sin(th),
                v * (math.tan(steer_of_t(t)) / L - c * math.cos(th) / denom))

    s, y, th, h, t = 0.0, 0.2, 0.1, 1e-4, 0.0
    for _ in range(100000):
        k1 = deriv(t, s, y, th)
        k2 = deriv(t + h / 2, s + h / 2 * k1[0], y + h / 2 * k1[1], th + h / 2 * k1[2])
        k3 = deriv(t + h / 2, s + h / 2 * k2[0], y + h / 2 * k2[1], th + h / 2 * k2[2])
        k4 = deriv(t + h, s + h * k3[0], y + h * k3[1], th + h * k3[2])
        s += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        th += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        t += h
    dy = abs(path.project((pose.x, pose.y_world), pose.heading, s).frenet.y - y)
    a_ok = dy < 1e-5

    # (b) first/second error derivatives vs finite differences of simulated e_I
    def rollout_errors(arc, y0, th0, steer, imp, n=6, hstep=1e-3):
        p0 = pose_on_path(arc, 10.0, lateral=y0, heading_offset=th0, steer=steer)
        ss, es = [], []
        for direction in (-1, 1):
            p = p0
            for _ in range(n):
                p = integrate_pose(p, lambda t: steer, 0.0, direction * hstep, CFG)
                f = arc.project((p.x, p.y_world), p.heading, 10.0).frenet
                ss.append(f.s)
                es.append(implement_error_measured(f, imp))
        f = arc.project((p0.x, p0.y_world), p0.heading, 10.0).frenet
        ss.append(f.s)
        es.append(implement_error_measured(f, imp))
        order = np.argsort(ss)
        return np.array(ss)[order] - 10.0, np.array(es)[order]

    c = 0.05
    arc = build_path([{"kind": "arc", "length_m": 30.0, "curvature_per_m": c}])
    rng = np.random.default_rng(31)
    rear = ImplementConfig(I_s=-2.0, I_y=-0.5)
    point = ImplementConfig(I_s=0.0, I_y=0.0)
    err1 = err2 = 0.0
    for _ in range(10):
        y0, th0 = rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)
        steer = rng.uniform(-0.1, 0.3)
        alpha = 1.0 - c * y0
        gamma = math.tan(steer) / L - c * math.cos(th0) / alpha
        ss, es = rollout_errors(arc, y0, th0, steer, rear)
        fd1 = np.polyfit(ss, es, 3)[-2]
        a1 = e_I_prime(th0, alpha, gamma, rear)
        err1 = max(err1, abs(fd1 - a1) / max(abs(a1), 1e-3))
        y0, th0 = rng.uniform(-0.3, 0.3), rng.uniform(-0.03, 0.03)
        steer = rng.uniform(0.12, 0.3)
        alpha = 1.0 - c * y0
        ss, es = rollout_errors(arc, y0, th0, steer, point)
        fd2 = 2.0 * np.polyfit(ss, es, 4)[-3]
        a2 = e_I_second(th0, alpha, steer, c, L)
        err2 = max(err2, abs(fd2 - a2) / max(abs(a2), 1e-2))
    b_ok = err1 < 1e-3 and err2 < 5e-3

    # (c) 4th-order convergence of the integrator
    start = VehiclePose(x=0.0, y_world=0.0, heading=0.0, steer=0.0)

    def final(step_dt):
        p, t = start, 0.0
        for _ in range(int(round(2.0 / step_dt))):
            p = integrate_pose(p, lambda tt: 0.3 * math.sin(tt), t, step_dt, CFG)
            t += step_dt
        return p

    ref = final(1e-4)
    errs = [math.hypot(final(d).x - ref.x, final(d).y_world - ref.y_world)
            for d in (0.08, 0.04, 0.02, 0.01)]
    c_ok = all(e1 / e2 >= 2 ** 4 * 0.8 for e1, e2 in zip(errs, errs[1:]))

    # (d) zero-error fixed point for all three controllers
    imp0 = ImplementConfig(I_s=-2.0, I_y=0.0)
    f0 = FrenetState(0.0, 0.0, 0.0)
    meas0 = Measurements(frenet=f0, omega_bar=0.0,
                         e_I=implement_error_measured(f0, imp0),
                         curvature_now=0.0, curvature_at_horizon=0.0)
    cmds = [
        optimal_control_step(meas0, TABLE1[("optimal", "rear")][1], imp0, CFG,
                             sigma_terms(TABLE1[("optimal", "rear")][1])),
        backstepping_control_step(meas0, BaselineParams(0.2, 0.6), imp0, CFG),
        lateral_servoing_control_step(meas0, BaselineParams(0.1, 0.8), imp0, CFG),
    ]
    d_ok = all(cmd.delta_desired == 0.0 for cmd in cmds)

    dt = time.perf_counter() - t0
    ok = a_ok and b_ok and c_ok and d_ok and dt < 5.0
    _report(6, ok, f"(a) |dy| = {dy:.2e}; (b) rel err {err1:.2e}/{err2:.2e}; "
                   f"(c) order-4 ratios ok: {c_ok}; (d) zero fixed point: {d_ok}; "
                   f"{dt:.2f} s")
    assert a_ok and b_ok and c_ok and d_ok
    assert dt < 5.0


def test_criterion_7_singularity_guards(tmp_path, capsys):
    t0 = time.perf_counter()
    # |1 - c y| < 1e-6 along the run: fault recorded, commands stay finite
    path = build_path([{"kind": "arc", "length_m": 6.0, "curvature_per_m": 1.0}])
    imp, params = TABLE1[("optimal", "rear")]
    scn = Scenario(path=path, vehicle=CFG, implement=imp, method="optimal",
                   params=params, run_length=5.0, initial_y=1.0 - 1e-9)
    log = run_scenario(scn)
    guard1 = log.fault is not None and all(
        math.isfinite(x) for name in ("delta_cmd", "delta_actual") for x in log.column(name))

    # |1 - gamma I_y| < 1e-6 in the controller: fail-safe hold, finite command
    imp2 = ImplementConfig(I_s=-2.0, I_y=0.5)
    f = FrenetState(0.0, 0.2, 0.0)
    bad = Measurements(frenet=f, omega_bar=2.0 + 1e-9,
                       e_I=implement_error_measured(f, imp2),
                       curvature_now=0.0, curvature_at_horizon=0.0)
    ctrl = Scenario(path=build_path([{"kind": "line", "length_m": 10.0}]),
                    vehicle=CFG, implement=imp2, method="optimal", params=params,
                    run_length=5.0).make_controller()
    cmd = ctrl.step(bad)
    guard2 = cmd.fault and math.isfinite(cmd.delta_desired)

    # exit-code-3 path through the CLI
    scn_file = tmp_path / "fault.scn"
    scn_file.write_text(
        "format_version 1\n[path]\nsegment kind=arc length_m=6 curvature_per_m=1.0\n"
        "[controller]\npreset table1_rear_optimal\n"
        "[run]\nlength_m 5\ninitial_y_m 0.999999999\n")
    code = main(["--out-dir", str(tmp_path / "out"), "run", str(scn_file)])
    capsys.readouterr()
    dt = time.perf_counter() - t0
    ok = guard1 and guard2 and code == 3 and dt < 1.0
    _report(7, ok, f"plant guard fault: {guard1}; controller fail-safe: {guard2}; "
                   f"CLI exit code {code}; {dt:.2f} s")
    assert guard1 and guard2
    assert code == 3
    assert dt < 1.0


def test_criterion_8_determinism_and_formats(tmp_path):
    t0 = time.perf_counter()
    imp, params = TABLE1[("optimal", "rear")]
    path = build_path([{"kind": "line", "length_m": 40.0}])

    def one_run():
        scn = Scenario(path=path, vehicle=CFG, implement=imp, method="optimal",
                       params=params, run_length=35.0,
                       initial_y=initial_lateral_for_error(0.5, imp),
                       seed=42, noise=NoiseSpec(enabled=True))
        buf = io.StringIO()
        write_csv(run_scenario(scn), buf)
        return buf.getvalue().encode()

    b1, b2 = one_run(), one_run()
    identical = b1 == b2
    header = b1.decode().splitlines()[0]
    header_ok = header == CSV_HEADER == (
        "t_s,s_m,y_m,theta_tilde_rad,e_I_exact_m,e_I_measured_m,"
        "delta_cmd_rad,delta_actual_rad,theta_d_rad,segment,fault")

    out = tmp_path / "cmp"
    code = main(["--out-dir", str(out), "--jobs", "4", "compare"])
    rows = json.loads((out / "comparison.json").read_text())["configurations"]
    six = len(rows) == 6 and len({(r["method"], r["placement"]) for r in rows}) == 6
    dt = time.perf_counter() - t0
    ok = identical and header_ok and code == 0 and six and dt < 10.0
    _report(8, ok, f"seeded runs bit-identical: {identical}; header exact: "
                   f"{header_ok}; compare emitted {len(rows)} configurations; "
                   f"{dt:.2f} s")
    assert identical and header_ok
    assert code == 0 and six
    assert dt < 10.0
