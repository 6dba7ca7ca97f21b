"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figures.  Tolerances are fixed here and
nowhere else.

 1. Design-point reproduction against the reference station table
 2. Conservation sweep over a 200-point random operating envelope
 3. Off-design honesty: fixed point, monotone trends, preset convergence
 4. Generator design/off-design rms values
 5. Healthy-reduction equivalence against the classic dq0 oracle
 6. Stator turn-fault signature and open-branch recovery
 7. Coupling energy audit and macro-step halving insensitivity
 8. Joint-scenario fault signatures and runtime budget
 9. Byte-identical determinism, including parallel batch execution
"""
import concurrent.futures
import hashlib
import json
import math
import time

import numpy as np
import pytest

from dq0_oracle import ClassicDq0Generator
from machine_reference import flux_system

from apucosim.control import AvrState
from apucosim.cosim import run_generator, run_joint
from apucosim.gasgen import (
    GasGenDesignSpec,
    GasGenInput,
    HEALTHY,
    HealthParams,
    ambient_conditions,
    design_point_size,
    off_design_solve,
)
from apucosim.gasgen.cycle import (BURNER_ETA, NGV_COOL_FRAC, OVERBOARD_FRAC,
                                   ROTOR_COOL_FRAC)
from apucosim.gasgen.engine import outputs_from_solution, trim_fuel
from apucosim.numerics import StepperOptions, integrate_adaptive
from apucosim.scenario import (
    build_joint_setup,
    load_preset,
    parse_scenario,
    write_csv,
)
from apucosim.wrsg import (
    ElectricalSystem,
    FaultParams,
    HEALTHY_FAULT,
    LoadModel,
    WrsgParams,
    currents_fast,
    field_voltage_for_terminal,
    rms_window,
    seed_fault_flux,
    steady_state,
)

W_E_DESIGN = 2.0 * math.pi * 400.0
R_225 = 3.0 * 230.0 ** 2 / 225e3

# reference design-point station table (deck values)
TABLE_DESIGN = {
    "XNHPC": 36050.0, "PWSD": 500.0027, "HPCSM": 23.9856,
    "T1": 293.15, "P1": 101.325, "T2": 293.15, "P2": 100.3118, "W2": 3.1442,
    "T3": 568.127, "P3": 802.4929, "Ps3": 768.3194, "W3": 3.1442,
    "T4": 1200.114, "P4": 778.418, "W4": 2.8466, "T41": 1169.3879,
    "W41": 3.0038, "T5": 755.148, "P5": 106.4943, "W5": 3.161,
    "T8": 755.148, "P8": 104.3644, "W8": 3.161,
}

OFF_DESIGN_POINTS = (
    (0.0, 0.0, 500.0), (0.0, 0.0, 400.0), (0.0, 0.0, 300.0), (0.0, 0.0, 230.0),
    (2000.0, 0.2, 450.0), (4000.0, 0.4, 350.0), (6000.0, 0.5, 300.0),
    (8000.0, 0.7, 222.0), (8000.0, 0.5, 250.0), (10000.0, 0.7, 200.0),
)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def joint_preset_result():
    setup = build_joint_setup(load_preset("joint-fault"))
    t0 = time.perf_counter()
    result = run_joint(setup)
    wall = time.perf_counter() - t0
    return result, wall


# ------------------------------------------------------------------------- 1

def test_criterion_1_design_point_reproduction():
    t0 = time.perf_counter()
    params, sol = design_point_size(GasGenDesignSpec())
    wall = time.perf_counter() - t0
    out = outputs_from_solution(sol)
    worst_name, worst_rel = "", 0.0
    for name, ref in TABLE_DESIGN.items():
        rel = abs(out[name] - ref) / abs(ref)
        if rel > worst_rel:
            worst_name, worst_rel = name, rel
        assert rel < 5e-3, f"{name}: {out[name]:.4f} vs {ref} (rel {rel:.2e})"
    sfc_rel = abs(out["SFC"] - 0.3280) / 0.3280
    assert sfc_rel < 0.01, f"SFC {out['SFC']:.4f} vs 0.3280"
    sm_rel = abs(out["HPCSM"] - 23.9856) / 23.9856
    assert sm_rel < 5e-3
    _report(1, wall < 1.0,
            f"all station rows within 0.5 % (worst {worst_name} "
            f"{worst_rel:.2e}), SFC rel {sfc_rel:.2e}, sizing {wall:.2f} s")


# ------------------------------------------------------------------------- 2

def test_criterion_2_conservation_sweep(gg_params):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_mass = worst_energy = worst_res = 0.0
    for _ in range(200):
        alt = rng.uniform(0.0, 10000.0)
        mach = rng.uniform(0.0, 0.7)
        n = rng.uniform(0.93, 1.05) * 36050.0
        _, _, st2 = ambient_conditions(alt, mach, 5.0)
        wf = rng.uniform(0.6, 1.05) * gg_params.wf_design * st2.Pt / 101.325
        health = HealthParams(*(1.0 + rng.uniform(-0.02, 0.02, 4)))
        sol = off_design_solve(gg_params, GasGenInput(wf=wf, altitude=alt,
                                                      mach=mach),
                               health, n)
        st = sol.stations
        w_in = st[2].W * (1.0 - OVERBOARD_FRAC) + sol.wf
        worst_mass = max(worst_mass, abs(st[8].W - w_in) / st[8].W)
        # node energy balances: burner heat release and the two cooling mixes
        lhv = gg_params.fuel_lhv_mj * 1000.0
        burner = (st[31].W * st[31].h + BURNER_ETA * sol.wf * lhv
                  - st[4].W * st[4].h)
        worst_energy = max(worst_energy,
                           abs(burner) / (st[4].W * abs(st[4].h)))
        w_cool = NGV_COOL_FRAC * st[2].W
        mix41 = st[4].W * st[4].h + w_cool * st[3].h - st[41].W * st[41].h
        worst_energy = max(worst_energy,
                           abs(mix41) / (st[41].W * abs(st[41].h)))
        w_rot = ROTOR_COOL_FRAC * st[2].W
        h5u = (st[5].W * st[5].h - w_rot * st[3].h) / st[41].W
        mix5 = st[41].W * (st[41].h - h5u) - sol.PW_turb
        worst_energy = max(worst_energy, abs(mix5) / sol.PW_turb)
        worst_res = max(worst_res, sol.newton_residual_norm)
    wall = time.perf_counter() - t0
    ok = worst_mass <= 1e-12 and worst_energy <= 1e-10 and worst_res < 1e-8 \
        and wall < 30.0
    _report(2, ok,
            f"200 points: mass {worst_mass:.2e}, energy {worst_energy:.2e}, "
            f"residual {worst_res:.2e}, {wall:.1f} s")


# ------------------------------------------------------------------------- 3

def test_criterion_3_off_design_honesty(gg_params):
    # (a) fixed-point persistence at the design inputs
    sol = off_design_solve(gg_params, GasGenInput(wf=gg_params.wf_design),
                           HEALTHY, 36050.0)
    fixed_ok = (sol.newton_residual_norm < 1e-8
                and abs(sol.PW_shaft_net - 500.0) < 0.05)
    # (b) monotone trends
    less = off_design_solve(gg_params,
                            GasGenInput(wf=0.9 * gg_params.wf_design),
                            HEALTHY, 36050.0)
    trend_ok = (less.PW_shaft_net < sol.PW_shaft_net
                and less.stations[4].Tt < sol.stations[4].Tt)
    health = HealthParams(eta_c_factor=0.98)
    wf_m, _ = trim_fuel(gg_params, 36050.0, 500.0, health)
    degraded = off_design_solve(gg_params, GasGenInput(wf=wf_m), health,
                                36050.0)
    trend_ok = trend_ok and degraded.SFC > sol.SFC
    # (c) all preset off-design points converge
    worst = 0.0
    for alt, mach, power in OFF_DESIGN_POINTS:
        wf, _ = trim_fuel(gg_params, 36050.0, power, HEALTHY, altitude=alt,
                          mach=mach)
        s = off_design_solve(gg_params, GasGenInput(wf=wf, altitude=alt,
                                                    mach=mach),
                             HEALTHY, 36050.0)
        worst = max(worst, s.newton_residual_norm)
    ok = fixed_ok and trend_ok and worst < 1e-8
    _report(3, ok,
            f"fixed point {sol.newton_residual_norm:.1e}, trends hold, "
            f"10 preset points converge (worst residual {worst:.1e})")


# ------------------------------------------------------------------------- 4

def test_criterion_4_generator_design_points():
    results = {}
    for power, refs in ((225.0, {"V": 229.7, "I": 325.7}),
                        (100.0, {"V": None, "I": 144.9})):
        t0 = time.perf_counter()
        res = run_generator(WrsgParams(), LoadModel.from_power(power),
                            AvrState(), speed_rpm=12000.0, duration=0.3,
                            decimation=4)
        wall = time.perf_counter() - t0
        v = np.mean([res.rms_table[f"Phase {ph} Voltage"] for ph in "ABC"])
        i = np.mean([res.rms_table[f"Phase {ph} Current"] for ph in "ABC"])
        results[power] = (v, i, wall)
        assert wall < 30.0, f"{power} kW run took {wall:.1f} s"
        if refs["V"] is not None:
            assert abs(v - refs["V"]) / refs["V"] < 0.01, f"V rms {v:.2f}"
        assert abs(i - refs["I"]) / refs["I"] < 0.01, f"I rms {i:.2f}"
    v225, i225, w225 = results[225.0]
    _, i100, w100 = results[100.0]
    _report(4, True,
            f"225 kW: {v225:.1f} V / {i225:.1f} A ({w225:.1f} s); "
            f"100 kW: {i100:.1f} A ({w100:.1f} s)")


# ------------------------------------------------------------------------- 5

def test_criterion_5_healthy_reduction_oracle():
    p = WrsgParams()
    r_from = R_225
    r_to = 3.0 * 230.0 ** 2 / 150e3       # load step 225 kW -> 150 kW
    v_fd = field_voltage_for_terminal(p, r_from, W_E_DESIGN, 230.0)
    y0 = steady_state(p, r_from, v_fd, W_E_DESIGN)

    mloop = ElectricalSystem(p, LoadModel(R_phase=r_to), HEALTHY_FAULT,
                             W_E_DESIGN, v_fd, r_to)
    oracle = ClassicDq0Generator(p, r_to)
    oracle_affine = oracle.make_affine(v_fd, W_E_DESIGN)

    opts = StepperOptions(relative_tolerance=1e-9, absolute_tolerance=1e-12,
                          max_step=1e-4)
    grid = np.linspace(0.0, 0.5, 501)
    ym = y0.copy()
    yo = np.concatenate([y0[:6], [y0[7]]])
    hm = ho = 1e-7
    max_diff = np.zeros(6)
    max_val = np.zeros(6)
    for a, b in zip(grid, grid[1:]):
        rm = integrate_adaptive(flux_system(mloop, ym[7], a), ym[:7], (a, b), opts,
                                record=False, initial_step=min(hm, b - a))
        ro = integrate_adaptive(oracle_affine, yo[:6], (a, b), opts,
                                record=False, initial_step=min(ho, b - a))
        ym, hm = np.append(rm.state, ym[7] + W_E_DESIGN * (b - a)), rm.last_step
        yo, ho = np.append(ro.state, yo[6] + W_E_DESIGN * (b - a)), ro.last_step
        max_diff = np.maximum(max_diff, np.abs(ym[:6] - yo[:6]))
        max_val = np.maximum(max_val, np.abs(yo[:6]))
        # currents through each model's own inversion
        im = currents_fast(ym, mloop.fault, mloop.model)[0]
        io = np.array(oracle.currents(yo))[[0, 1, 2, 3, 4, 5]]
        imv = np.array([im[0], im[1], im[2], im[3], im[4], im[5]])
        max_diff_i = np.abs(imv - io)
        assert np.max(max_diff_i / np.maximum(np.abs(io), 1.0)) < 1e-6
    rel = float(np.max(max_diff / np.maximum(max_val, 1e-12)))
    _report(5, rel < 1e-6,
            f"flux trajectories agree to {rel:.2e} relative over 0.5 s")


# ------------------------------------------------------------------------- 6

def _faulted_phase_rms(p, fault, v_fd, duration=0.06):
    st = steady_state(p, R_225, v_fd, W_E_DESIGN)
    y0 = seed_fault_flux(st, fault) if fault.active else st
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), fault, W_E_DESIGN,
                            v_fd, R_225)
    rec = {"t": [], "ia": [], "ib": [], "ic": [], "if": [], "pl": []}

    def obs(t, y):
        i_abc, v_abc, i_f, i6, p_tot, p_loss = sysm.terminal(y)
        rec["t"].append(t)
        rec["ia"].append(i_abc[0])
        rec["ib"].append(i_abc[1])
        rec["ic"].append(i_abc[2])
        rec["if"].append(i_f)
        rec["pl"].append(p_loss)

    opts = StepperOptions(relative_tolerance=1e-5,
                          absolute_tolerance=1e-7, max_step=1e-4)
    # the stepper carries the fluxes; theta = theta0 + w_e t in closed form
    integrate_adaptive(flux_system(sysm, y0[7], 0.0), y0[:7], (0.0, duration),
                       opts, observers=[lambda t, lam: obs(t, np.append(
                           lam, y0[7] + W_E_DESIGN * t))], record=False,
                       initial_step=1e-7)
    t = np.array(rec["t"])
    w = 1.0 / 400.0
    rms = np.array([rms_window(t, rec[c], w) for c in ("ia", "ib", "ic")])
    if_rms = rms_window(t, rec["if"], w)
    tail = np.array(rec["pl"])[t > duration - w]
    return rms, if_rms, float(np.mean(tail))


def _trajectory_on_grid(p, fault, v_fd, t_end=0.05, n_pts=126):
    """Phase-a current sampled on a shared grid (segment-wise integration)."""
    st = steady_state(p, R_225, v_fd, W_E_DESIGN)
    y = seed_fault_flux(st, fault) if fault.active else st
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), fault, W_E_DESIGN,
                            v_fd, R_225)
    opts = StepperOptions(relative_tolerance=1e-7,
                          absolute_tolerance=1e-9, max_step=1e-4)
    grid = np.linspace(0.0, t_end, n_pts)
    samples = np.empty(n_pts - 1)
    h = 1e-8
    for k, (a, b) in enumerate(zip(grid, grid[1:])):
        res = integrate_adaptive(flux_system(sysm, y[7], a), y[:7], (a, b), opts,
                                 record=False, initial_step=min(h, b - a))
        y, h = np.append(res.state, y[7] + W_E_DESIGN * (b - a)), res.last_step
        samples[k] = sysm.terminal(y)[0][0]
    return samples


def test_criterion_6_ttsc_signature():
    p = WrsgParams()
    v_fd = field_voltage_for_terminal(p, R_225, W_E_DESIGN, 230.0)
    rms, if_rms, p_loss = _faulted_phase_rms(p, FaultParams(mu=0.05, k_rf=1.0),
                                             v_fd)
    unbalance = float(rms.max() / rms.min())
    sig_ok = unbalance > 1.01 and if_rms > 1.0 and p_loss > 0.0
    # open-branch recovery on a shared time grid: sup-norm against healthy
    healthy = _trajectory_on_grid(p, HEALTHY_FAULT, v_fd)
    gaps = []
    for krf in (1e2, 1e3, 1e4, 1e5):
        traj = _trajectory_on_grid(p, FaultParams(mu=0.05, k_rf=krf), v_fd)
        gaps.append(float(np.max(np.abs(traj - healthy))))
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    vanishes = gaps[-1] < 1e-3 * float(np.max(np.abs(healthy)))
    open_traj = _trajectory_on_grid(p, FaultParams(mu=0.05, k_rf=1e6), v_fd)
    exact_ok = bool(np.max(np.abs(open_traj - healthy))
                    < 1e-9 * np.max(np.abs(healthy)))
    ok = sig_ok and monotone and vanishes and exact_ok
    _report(6, ok,
            f"unbalance {unbalance:.3f}, i_f rms {if_rms:.0f} A, extra loss "
            f"{p_loss:.1f} kW; open-branch sup gaps {['%.2e' % g for g in gaps]}")


# ------------------------------------------------------------------------- 7

def _machine_rms_probes(result, windows):
    fast = result.fast
    out = {}
    for (a, b) in windows:
        m = (fast.time >= a) & (fast.time <= b)
        t = fast.time[m]
        for ch in ("ia", "va"):
            out[(ch, a)] = rms_window(t, fast.column(ch)[m], 1.0 / 400.0)
    return out


def test_criterion_7_energy_audit_and_macro_halving(joint_preset_result):
    result, _ = joint_preset_result
    max_rel = result.audit.max_relative_residual
    audit_ok = max_rel <= 1e-9

    scn = load_preset("joint-fault")
    halved = run_joint(build_joint_setup(
        parse_scenario(json.dumps({**scn.doc, "macro_dt": 0.01}))))
    windows = ((1.8, 2.0), (4.8, 5.0), (9.5, 9.8))
    base_probes = _machine_rms_probes(result, windows)
    half_probes = _machine_rms_probes(halved, windows)
    worst = max(abs(base_probes[k] - half_probes[k]) / abs(base_probes[k])
                for k in base_probes)
    ok = audit_ok and worst < 1e-3
    _report(7, ok,
            f"audit residual {max_rel:.2e}; macro-step halving moves machine "
            f"rms by at most {worst:.2e}")


# ------------------------------------------------------------------------- 8

def test_criterion_8_joint_scenario_signatures(joint_preset_result):
    result, wall = joint_preset_result
    slow, fast = result.slow, result.fast
    t = slow.time
    n = slow.column("XNHPC")
    n_set = 36050.0

    def win(col, a, b, series=slow):
        m = (series.time > a) & (series.time <= b)
        return col[m]

    # load shed at 2 s: overshoot then recovery to +-0.2 %; the regulator
    # brings the phase-voltage rms back inside 1 % within 0.5 s
    shed_over = np.max(win(n, 2.0, 3.0)) > n_set * 1.001
    shed_rec = np.all(np.abs(win(n, 4.5, 6.0) - n_set) < 0.002 * n_set)
    v_rms = slow.column("V_rms")
    v_rec = np.all(np.abs(win(v_rms, 2.5, 3.0) - 230.0) < 0.01 * 230.0)
    # gas-path fault at 6 s: fuel and T4 increase, speed dips and recovers
    wf = slow.column("wf")
    t4 = slow.column("T4")
    wf_up = np.mean(win(wf, 7.5, 8.0)) > np.mean(win(wf, 5.5, 6.0))
    t4_up = np.mean(win(t4, 7.5, 8.0)) > np.mean(win(t4, 5.5, 6.0))
    gas_dip = np.min(win(n, 6.0, 6.6)) < n_set * (1.0 - 0.0005)
    gas_rec = np.all(np.abs(win(n, 8.5, 10.0) - n_set) < 0.002 * n_set)
    # TTSC at 10 s: unbalance appears, total power rises, speed dips/recovers
    m_pre = (fast.time > 9.5) & (fast.time <= 10.0)
    m_post = (fast.time > 10.5) & (fast.time <= 12.0)
    rms_post = []
    for ch in ("ia", "ib", "ic"):
        rms_post.append(rms_window(fast.time[m_post],
                                   fast.column(ch)[m_post], 1.0 / 400.0))
    unbalance = max(rms_post) / min(rms_post)
    p_pre = float(np.mean(fast.column("P_sg_total")[m_pre]))
    p_post = float(np.mean(fast.column("P_sg_total")[m_post]))
    ttsc_dip = np.min(win(n, 10.0, 10.6)) < n_set * (1.0 - 0.0005)
    ttsc_rec = np.all(np.abs(win(n, 11.5, 12.0) - n_set) < 0.002 * n_set)
    checks = {
        "shed overshoot": shed_over, "shed recovery": shed_rec,
        "voltage recovery": v_rec,
        "fuel rises": wf_up, "T4 rises": t4_up, "gas-path dip": gas_dip,
        "gas-path recovery": gas_rec, "unbalance": unbalance > 1.01,
        "power rises": p_post > p_pre, "ttsc dip": ttsc_dip,
        "ttsc recovery": ttsc_rec, "runtime": wall < 60.0,
    }
    failed = [k for k, v in checks.items() if not v]
    _report(8, not failed,
            f"signatures {'all hold' if not failed else failed}; "
            f"unbalance {unbalance:.3f}, power {p_pre:.0f}->{p_post:.0f} kW, "
            f"12 s preset in {wall:.1f} s")


# ------------------------------------------------------------------------- 9

def _run_and_hash(doc_text, seed, tmp_path, tag):
    scn = parse_scenario(doc_text)
    scn = parse_scenario(json.dumps({**scn.doc, "seed": seed}))
    result = run_joint(build_joint_setup(scn))
    digests = []
    for track in ("fast", "slow"):
        path = tmp_path / f"{tag}_{track}.csv"
        write_csv(getattr(result, track), path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    return tuple(digests)


def _hash_worker(payload):
    import tempfile
    from pathlib import Path
    doc_text, seed = payload
    with tempfile.TemporaryDirectory() as td:
        return _run_and_hash(doc_text, seed, Path(td), "w")


def test_criterion_9_determinism(tmp_path):
    doc = json.dumps({"name": "det", "duration": 0.3, "seed": 11,
                      "noise": {"std_w1": 0.05, "std_vv": 0.1},
                      "hook": {"std_rpm": 2.0}})
    serial_1 = _run_and_hash(doc, 11, tmp_path, "a")
    serial_2 = _run_and_hash(doc, 11, tmp_path, "b")
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(_hash_worker, [(doc, 11), (doc, 11)]))
    ok = (serial_1 == serial_2 == parallel[0] == parallel[1])
    _report(9, ok, f"CSV digests identical across repeats and workers "
                   f"({serial_1[0][:12]}...)")
