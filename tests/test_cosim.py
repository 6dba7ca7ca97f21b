import json
import math
from dataclasses import replace

import numpy as np
import pytest

from apucosim.cosim import (
    CouplingParams,
    EmptyWindow,
    coupling_power,
    coupling_speed,
    energy_audit,
    propagate_healthy,
    run_joint,
)
from apucosim.numerics import (
    IntegralAccumulator,
    StepperOptions,
    accumulate,
    integrate_adaptive,
)
from apucosim.scenario import build_joint_setup, parse_scenario
from apucosim.wrsg import (
    ElectricalSystem,
    HEALTHY_FAULT,
    LoadModel,
    WrsgParams,
    field_voltage_for_terminal,
    steady_state,
)

W_E = 2.0 * math.pi * 400.0
R_225 = 3.0 * 230.0 ** 2 / 225e3


def _mini_scenario(extra=None, duration=0.3):
    doc = {"name": "mini", "duration": duration}
    if extra:
        doc.update(extra)
    return parse_scenario(json.dumps(doc))


@pytest.fixture(scope="module")
def mini_result():
    return run_joint(build_joint_setup(_mini_scenario()))


# ------------------------------------------------------------------- coupling

def test_coupling_power_constant():
    acc = IntegralAccumulator(last_time=0.0, last_sample=450.0)
    accumulate(acc, 0.02, 450.0)
    assert coupling_power(acc, 0.02, 1.0) == pytest.approx(450.0, rel=1e-12)


def test_coupling_power_efficiency():
    acc = IntegralAccumulator(last_time=0.0, last_sample=450.0)
    accumulate(acc, 0.02, 450.0)
    assert coupling_power(acc, 0.02, 0.98) == pytest.approx(450.0 / 0.98, rel=1e-12)


def test_coupling_power_ripple_rejection():
    # a zero-mean 400 Hz ripple over exactly 8 periods leaves the mean power
    acc = IntegralAccumulator(last_time=0.0, last_sample=450.0)
    n = 1600
    for k in range(1, n + 1):
        t = 0.02 * k / n
        accumulate(acc, t, 450.0 + 30.0 * math.sin(2 * math.pi * 400.0 * t))
    assert coupling_power(acc, 0.02, 1.0) == pytest.approx(450.0, rel=1e-5)


def test_coupling_power_empty_window():
    acc = IntegralAccumulator(last_time=0.0, last_sample=0.0)
    with pytest.raises(EmptyWindow):
        coupling_power(acc, 0.0, 1.0)


def test_coupling_speed_reference_ratio():
    w_sg, w_e = coupling_speed(36050.0, CouplingParams(), pole_pairs=2)
    assert w_sg == pytest.approx(12000.0, rel=1e-12)
    assert w_e / (2 * math.pi) == pytest.approx(400.0, rel=1e-12)


def test_coupling_speed_identity_and_zero():
    c = CouplingParams(omega_gtTsg=1.0)
    assert coupling_speed(5000.0, c)[0] == 5000.0
    assert coupling_speed(0.0, c)[0] == 0.0


# ------------------------------------------------------------------ run_joint

def test_joint_steady_channels_hold(mini_result):
    slow = mini_result.slow
    for ch in ("XNHPC", "PWSD", "T4", "P3"):
        col = slow.column(ch)
        assert np.max(np.abs(col - col[0])) / abs(col[0]) < 1e-3, ch


def test_energy_audit_zero_residual(mini_result):
    assert mini_result.audit.max_relative_residual < 1e-9


def test_energy_audit_recompute_and_sensitivity(mini_result):
    audit = energy_audit(mini_result.slow, 1.0, 0.02)
    assert audit.max_relative_residual < 1e-9
    # auditing with a deliberately wrong efficiency shows a proportional gap
    wrong = energy_audit(mini_result.slow, 0.9, 0.02)
    expected = abs(1.0 - 0.9)
    assert wrong.max_relative_residual == pytest.approx(expected / 0.9, rel=1e-6)


def test_healthy_fast_track_is_uniform_grid(mini_result):
    # healthy segments are sampled every max_step (1e-4 s), every 2nd kept
    dt = np.diff(mini_result.fast.time)
    assert np.allclose(dt, 2e-4, rtol=1e-9, atol=0.0)
    assert mini_result.fast.n_samples == 1500


@pytest.mark.parametrize("case", ["load-step", "equation-noise", "series-RL",
                                  "cubic-speed"])
def test_healthy_propagator_matches_tight_stepper(case):
    p = WrsgParams()
    v_fd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    y0 = steady_state(p, R_225, v_fd, W_E, theta0=0.3).as_array()
    w_e, r, load, noise = W_E, R_225, LoadModel(R_phase=R_225), None
    if case == "load-step":
        r = 3.0 * 230.0 ** 2 / 150e3
        load = LoadModel(R_phase=r)
    elif case == "equation-noise":
        noise = [0.5, -0.3, 0.2, 0.1, -0.2, 0.05]
    elif case == "series-RL":
        load = LoadModel(kind="series-RL", R_phase=r, L_phase=5e-5)
    else:
        load = LoadModel.from_power(225.0, kind="cubic-speed-law")
        w_e = 0.9 * W_E
        r = load.resistance_at(0.0, speed_rpm=0.9 * 12000.0)
    sysm = ElectricalSystem(p, load, HEALTHY_FAULT, w_e, v_fd, r, noise_w=noise)
    # 200 full steps and a clipped 3e-5 s last step
    times, states = propagate_healthy(sysm, y0, 0.0, 0.02003, 1e-4)
    assert times.size == 201 and times[-1] == 0.02003
    opts = StepperOptions(relative_tolerance=1e-11, absolute_tolerance=1e-14,
                          initial_step=1e-8, max_step=1e-5)
    y, ta, h, worst = y0, 0.0, 1e-8, 0.0
    for tb, got in zip(times, states):
        res = integrate_adaptive(sysm.flux_system(y[7], ta), y[:7], (ta, tb),
                                 replace(opts, initial_step=min(h, tb - ta)),
                                 record=False)
        y, ta, h = np.append(res.state, y[7] + w_e * (tb - ta)), tb, res.last_step
        worst = max(worst, float(np.max(np.abs(got - y)) / np.max(np.abs(y[:6]))))
    assert worst < 1e-9


def test_hook_identity_transparent():
    base = run_joint(build_joint_setup(_mini_scenario()))
    hooked = run_joint(build_joint_setup(_mini_scenario(
        {"hook": {"kind": "identity"}})))
    assert np.array_equal(base.slow.data, hooked.slow.data)
    assert np.array_equal(base.fast.data, hooked.fast.data)


def test_seeded_determinism():
    a = run_joint(build_joint_setup(_mini_scenario({"seed": 7})))
    b = run_joint(build_joint_setup(_mini_scenario({"seed": 7})))
    assert np.array_equal(a.slow.data, b.slow.data)
    assert np.array_equal(a.fast.data, b.fast.data)
    assert np.array_equal(a.fast.time, b.fast.time)


def test_state_noise_hook_changes_trajectory_deterministically():
    scn = _mini_scenario({"hook": {"kind": "speed-noise", "std_rpm": 5.0},
                          "seed": 3})
    a = run_joint(build_joint_setup(scn))
    b = run_joint(build_joint_setup(scn))
    base = run_joint(build_joint_setup(_mini_scenario({"seed": 3})))
    assert np.array_equal(a.slow.data, b.slow.data)
    assert not np.array_equal(a.slow.column("XNHPC"), base.slow.column("XNHPC"))


def test_fault_schedule_atomicity():
    # no recorded sample mixes pre- and post-fault parameters
    scn = _mini_scenario({
        "duration": 0.2,
        "gas_path_faults": [{"time_s": 0.1, "eta_c_factor": 0.99,
                             "flow_c_factor": 0.97, "eta_t_factor": 0.98,
                             "flow_t_factor": 1.04}],
        "ttsc_faults": [{"time_s": 0.11, "mu": 0.05, "k_rf": 1.0}],
    })
    res = run_joint(build_joint_setup(scn))
    slow = res.slow
    eta = slow.column("eta_c_f")
    mu = slow.column("mu")
    assert set(np.unique(eta)) == {0.99, 1.0}
    assert set(np.unique(mu)) == {0.0, 0.05}
    # the health swap happens at the first macro boundary at/after 0.1 s
    t = slow.time
    assert np.all(eta[t < 0.1] == 1.0)
    assert np.all(eta[t >= 0.12] == 0.99)
    # the electrical fault appears exactly at 0.11 s on the fast track
    fast = res.fast
    i_f = fast.column("i_f")
    assert np.all(i_f[fast.time < 0.11] == 0.0)
    assert np.max(np.abs(i_f[fast.time > 0.13])) > 100.0


def test_speed_zoh_convergence_short():
    # halving the macro step barely moves the machine rms channels
    base = run_joint(build_joint_setup(_mini_scenario(duration=0.4)))
    halved = run_joint(build_joint_setup(_mini_scenario(
        {"macro_dt": 0.01}, duration=0.4)))

    def tail_rms(res, ch):
        fast = res.fast
        m = fast.time > 0.3
        return float(np.sqrt(np.mean(fast.column(ch)[m] ** 2)))

    for ch in ("ia", "va"):
        a, b = tail_rms(base, ch), tail_rms(halved, ch)
        assert abs(a - b) / a < 1e-3, ch


def test_fault_active_from_time_zero():
    scn = _mini_scenario({
        "duration": 0.1,
        "ttsc_faults": [{"time_s": 0.0, "mu": 0.05, "k_rf": 1.0}],
    })
    res = run_joint(build_joint_setup(scn))
    assert np.all(res.slow.column("mu") == 0.05)
    assert np.max(np.abs(res.fast.column("i_f"))) > 100.0


def test_gasgen_output_noise_is_seeded_and_additive():
    noisy_doc = {"noise": {"gasgen_output": {"T3": 0.5}}, "seed": 5}
    a = run_joint(build_joint_setup(_mini_scenario(noisy_doc, duration=0.1)))
    b = run_joint(build_joint_setup(_mini_scenario(noisy_doc, duration=0.1)))
    clean = run_joint(build_joint_setup(_mini_scenario({"seed": 5}, duration=0.1)))
    assert np.array_equal(a.slow.column("T3"), b.slow.column("T3"))
    assert not np.array_equal(a.slow.column("T3"), clean.slow.column("T3"))
    # noise is additive on the recorded channel only: speed evolution unchanged
    assert np.array_equal(a.slow.column("XNHPC"), clean.slow.column("XNHPC"))


def test_generator_run_with_series_rl_load():
    from apucosim.control import AvrState
    from apucosim.cosim import run_generator
    from apucosim.wrsg import LoadModel, WrsgParams

    load = LoadModel.from_power(200.0, kind="series-RL", L_phase=5e-5)
    res = run_generator(WrsgParams(), load, AvrState(), speed_rpm=12000.0,
                        duration=0.2, decimation=4)
    v = np.mean([res.rms_table[f"Phase {p} Voltage"] for p in "ABC"])
    i = np.mean([res.rms_table[f"Phase {p} Current"] for p in "ABC"])
    assert abs(v - 230.0) < 2.5            # regulator holds the setpoint
    # rms current lags the pure-resistive value through the series reactance
    z = math.hypot(load.R_phase, 2 * math.pi * 400.0 * load.L_phase)
    assert i == pytest.approx(v / z, rel=0.02)


def test_generator_run_with_cubic_speed_load():
    from apucosim.control import AvrState
    from apucosim.cosim import run_generator
    from apucosim.wrsg import LoadModel, WrsgParams

    load = LoadModel.from_power(225.0, kind="cubic-speed-law")
    low = run_generator(WrsgParams(), load, AvrState(), speed_rpm=10800.0,
                        duration=0.2, decimation=4)
    nom = run_generator(WrsgParams(), load, AvrState(), speed_rpm=12000.0,
                        duration=0.2, decimation=4)
    i_low = np.mean([low.rms_table[f"Phase {p} Current"] for p in "ABC"])
    i_nom = np.mean([nom.rms_table[f"Phase {p} Current"] for p in "ABC"])
    # at held terminal voltage the cubic law scales current with speed^3
    assert i_low / i_nom == pytest.approx(0.9 ** 3, rel=0.03)
