import hashlib
import json
import math
import mmap
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from machine_reference import flux_system
from apucosim import cosim
from apucosim.cosim import (
    GENERATOR_STEPPER,
    CouplingParams,
    coupling_speed,
    energy_audit,
    propagate,
    run_generator,
    run_joint,
)
from apucosim.control import AvrState
from apucosim.numerics import (
    NonFiniteDerivative,
    StepperOptions,
    StepUnderflow,
    expm,
    integrate_adaptive,
)
from apucosim.scenario import build_joint_setup, parse_scenario, write_csv
from apucosim.wrsg import (
    ElectricalSystem,
    FaultParams,
    HEALTHY_FAULT,
    LoadModel,
    NoiseConfig,
    WrsgParams,
    field_voltage_for_terminal,
    rms_window,
    seed_fault_flux,
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

def _track(fault_schedule=(), load=LoadModel.from_power(225.0), v_fd_max=200.0,
           steps=7):
    """A machine track, at 225 kW by default, that records every sample of
    up to `steps` 0.02 s macro steps at speeds up to W_E; its AVR has no
    gains, so the field voltage holds at the start's."""
    avr = AvrState(K_p=0.0, K_i=0.0, V_fd_max=v_fd_max)
    return cosim._MachineTrack(WrsgParams(), load, fault_schedule, NoiseConfig(),
                               GENERATOR_STEPPER, decimation=1, rng=None, avr=avr,
                               dt=0.02, duration=0.02 * steps, w_e_max=W_E)


def _trapezoid(t, p):
    return float(np.sum(np.diff(t) * (p[1:] + p[:-1])) / 2.0)


def test_coupling_power_constant():
    # a healthy balanced start draws constant shaft power, so the macro
    # step's energy is that power times the step
    track = _track()
    p0 = track.start(W_E)
    assert track.advance(1, W_E) / 0.02 == pytest.approx(p0, rel=1e-12)


def test_coupling_power_efficiency():
    # the gas generator's load is the step's machine energy over dt * eta;
    # at a load step inside a macro step the trapezoid splits at the switch,
    # whose sample is recorded under the old load and taken again under the
    # new one: at the same currents a resistive bank's power scales with its
    # resistance, by 1 / 0.6
    t_sw = 0.05315
    for schedule in ([], [{"time_s": t_sw, "scale": 0.6}]):
        res = run_joint(build_joint_setup(_mini_scenario(
            {"coupling": {"eta": 0.98}, "record": {"decimation": 1},
             "load": {"schedule": schedule}}, duration=0.1)))
        t, p = res.fast.time, res.fast.column("P_sg_total")
        for t1, pe in zip(res.slow.time[1:], res.slow.column("Pe_gt")[1:]):
            step = (t >= t1 - 0.02 - 1e-9) & (t <= t1 + 1e-9)
            ts, ps = t[step], p[step]
            if schedule and ts[0] < t_sw < ts[-1]:
                k = int(np.flatnonzero(ts == t_sw)[0])
                want = (_trapezoid(ts[:k + 1], ps[:k + 1])
                        + _trapezoid(ts[k:], np.append(ps[k] / 0.6, ps[k + 1:])))
            else:
                want = _trapezoid(ts, ps)
            assert pe * 0.02 * 0.98 == pytest.approx(want, rel=1e-12)


def test_each_segment_takes_one_terminal_call_with_its_start(monkeypatch):
    # a load step inside the third of five macro steps and a TTSC fault on
    # the fifth's boundary: six segments, each evaluated with its start
    # state in one call on a stack, after the steady start's one-row stack
    shapes, starts = [], []
    terminal, propagate = ElectricalSystem.terminal, cosim.propagate

    def counted_terminal(self, y):
        shapes.append(np.shape(y))
        return terminal(self, y)

    def counted_propagate(sys_, y, ta, tb, *args):
        starts.append(ta)
        return propagate(sys_, y, ta, tb, *args)

    monkeypatch.setattr(ElectricalSystem, "terminal", counted_terminal)
    monkeypatch.setattr(cosim, "propagate", counted_propagate)
    res = run_joint(build_joint_setup(_mini_scenario({
        "record": {"decimation": 1},
        "load": {"schedule": [{"time_s": 0.0537, "scale": 0.6}]},
        "ttsc_faults": [{"time_s": 0.08, "mu": 0.05, "k_rf": 1.0}]}, duration=0.1)))
    assert starts == pytest.approx([0.0, 0.02, 0.04, 0.0537, 0.06, 0.08], abs=1e-15)
    assert shapes[0] == (1, 8)
    samples = np.diff(np.searchsorted(res.fast.time, starts[1:] + [0.1], side="right"),
                      prepend=0)
    assert shapes[1:] == [(1 + n, 8) for n in samples]
    assert res.slow.column("mu")[-1] == 0.05


def test_coupling_power_ripple_rejection():
    # a shorted turn makes the shaft power ripple at twice the electrical
    # frequency; over a macro step of whole periods the step's mean power
    # is the samples' mean, whatever the ripple's phase at the ends
    track = _track(((0.0, FaultParams(mu=0.05, k_rf=1.0)),))
    track.start(W_E)
    energies = [track.advance(k + 1, W_E) for k in range(7)]
    fast = track.fast_series()
    t, p = fast.time, fast.column("P_sg_total")
    # from the fourth step on, once the switch-on transient has settled
    for k, energy in enumerate(energies[3:], start=3):
        step = (t > 0.02 * k + 1e-9) & (t <= 0.02 * (k + 1) + 1e-9)
        assert np.ptp(p[step]) > 0.3 * np.mean(p[step])
        assert energy / 0.02 == pytest.approx(np.mean(p[step]), rel=1e-5)


@pytest.mark.parametrize("t_fault", [0.0, 0.013, None], ids=["fault-at-start",
                                                              "fault-mid-step",
                                                              "healthy"])
def test_track_energy_is_the_trapezoid_of_its_samples(t_fault):
    # advance sums the shaft power by the trapezoid rule from the start's
    # sample over every sample of the step, across a fault switch too
    track = _track(() if t_fault is None else ((t_fault, FaultParams(mu=0.05)),))
    p0 = track.start(W_E)
    energy = track.advance(1, W_E)
    fast = track.fast_series()
    t = np.append(0.0, fast.time)
    p = np.append(p0, fast.column("P_sg_total"))
    assert t[-1] == 0.02
    assert energy == pytest.approx(_trapezoid(t, p), rel=1e-12)
    # the next step starts from this step's last sample
    energy = track.advance(2, W_E)
    fast = track.fast_series()
    step = fast.time >= 0.02
    assert energy == pytest.approx(
        _trapezoid(fast.time[step], fast.column("P_sg_total")[step]), rel=1e-12)


def _event_time(rng, dt, steps):
    """A time within a run of `steps` macro steps dt: on a macro boundary,
    within or just past the 1e-9 dt that puts an event on it, or anywhere."""
    k = int(rng.integers(0, steps))
    return max(0.0, k * dt + rng.choice([0.0, -1e-12, 1e-12, 0.5e-9 * dt, -0.5e-9 * dt,
                                         2e-9 * dt, -2e-9 * dt, rng.uniform(0.0, dt)]))


def _bound_case(seed, monkeypatch):
    """A short faulted run with a load step, drawn from `seed`, at decimation
    1-7: for an odd seed a joint run at a gear ratio of 0.05-3 and max_step
    3e-5 to 2.5e-4 s, else a generator run at 4,000-14,400 rpm whose
    patched max_step is just above a whole fraction of the period, so that
    its faulted grid takes a step more per period. Returns a callable that
    runs it."""
    rng = np.random.default_rng(seed)
    decimation, steps = int(rng.integers(1, 8)), int(rng.integers(2, 6))
    fault = (_event_time(rng, 0.02, steps), rng.uniform(0.02, 0.3))
    load = (_event_time(rng, 0.02, steps), rng.uniform(0.5, 1.0))
    if seed % 2:
        doc = {"duration": 0.02 * steps, "coupling": {"speed_ratio": rng.uniform(0.05, 3.0)},
               "stepper": {"max_step_s": rng.uniform(3e-5, 2.5e-4)},
               "record": {"decimation": decimation},
               "ttsc_faults": [{"time_s": fault[0], "mu": fault[1], "k_rf": 1.0}],
               "load": {"schedule": [{"time_s": load[0], "scale": load[1]}]}}
        return lambda: run_joint(build_joint_setup(parse_scenario(json.dumps(doc))))
    rpm = rng.uniform(4000.0, 14400.0)
    period = 60.0 / (rpm * WrsgParams().pole_pairs)
    max_step = period / (math.ceil(period / 2.5e-4) + rng.uniform(1e-6, 0.05))
    monkeypatch.setattr(cosim, "GENERATOR_STEPPER",
                        replace(GENERATOR_STEPPER, max_step=max_step))
    return lambda: run_generator(
        WrsgParams(), LoadModel.from_power(225.0, schedule=(load,)), AvrState(),
        speed_rpm=rpm, duration=0.02 * steps, decimation=decimation,
        fault_schedule=((fault[0], FaultParams(mu=fault[1], k_rf=1.0)),))


@pytest.mark.parametrize("seed", range(12))
def test_a_run_records_within_the_rows_it_reserves(monkeypatch, seed):
    # the recorder reserves its rows once, from fast_sample_bound: no run,
    # whatever its speed, grid, events and decimation, takes more samples
    run = _bound_case(seed, monkeypatch)
    tracks, bounds = [], []
    track_class, bound = cosim._MachineTrack, cosim.fast_sample_bound

    class Kept(track_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracks.append(self)

    def kept_bound(*args):
        bounds.append(bound(*args))
        return bounds[-1]

    monkeypatch.setattr(cosim, "_MachineTrack", Kept)
    monkeypatch.setattr(cosim, "fast_sample_bound", kept_bound)
    res = run()
    (track,), (samples,) = tracks, bounds
    assert 0 < track._count <= samples
    assert track._rows.shape == (samples // track.decimation, 1 + len(cosim.FAST_CHANNELS))
    assert res.fast.n_samples == track._count // track.decimation


def test_a_large_recorder_buffer_is_mapped_apart_from_malloc():
    # every recorder buffer, a short run's as a long one's, is a shared map
    # of its own, which a forked child reads in place and which, freed
    # through malloc, would raise glibc's mmap threshold to its size; one of
    # 0 rows, a decimation longer than the run, maps one row's worth
    columns = 1 + len(cosim.FAST_CHANNELS)
    for rows in (1, 2500, 8191, 8192, 63181):
        buffer = cosim._record_buffer(rows)
        assert isinstance(buffer.base.base.obj, mmap.mmap)
        assert len(buffer.base.base.obj) == 8 * rows * columns
        assert buffer.shape == (rows, columns)
        assert buffer.flags.writeable and buffer.flags.c_contiguous
    assert cosim._record_buffer(0).shape == (0, columns)


def test_track_start_is_steady_at_the_run_speed():
    # a cubic-speed-law load is sized at the run's speed, so the start is a
    # steady state: its power holds over the first macro step
    track = _track(load=LoadModel.from_power(225.0, kind="cubic-speed-law"))
    w_e = 0.9 * W_E
    p0 = track.start(w_e)
    # 225 kW scaled by speed^3, drawn through both machines at eta_sg
    p = WrsgParams()
    assert p0 == pytest.approx(0.9 ** 3 * 225.0 * p.two_machine_factor / p.eta_sg,
                               rel=1e-9)
    assert track.advance(1, w_e) / 0.02 == pytest.approx(p0, rel=1e-12)


def test_machine_noise_draws_only_the_recorded_voltages(monkeypatch):
    # measurement noise is drawn for the three phase voltages alone, the
    # channels that are recorded; the field voltage is recorded clean
    shapes = []
    measure = cosim.measure

    def spy(v, i, noise, rng):
        shapes.append(np.shape(v))
        return measure(v, i, noise, rng)
    monkeypatch.setattr(cosim, "measure", spy)
    res = run_joint(build_joint_setup(_mini_scenario(
        {"noise": {"std_vv": 2.0}}, duration=0.04)))
    assert shapes and all(s[1:] == (3,) for s in shapes)
    second = res.fast.time > 0.02 + 1e-9
    assert np.all(res.fast.column("V_fd")[second] == res.slow.column("V_fd")[0])


@pytest.mark.parametrize("fault", [None, FaultParams(mu=0.05, k_rf=1.0)],
                         ids=["healthy", "faulted"])
def test_phase_rms_is_the_per_phase_loop(fault):
    # one rms_window pass over the (3, n) stack of the step's phase voltages
    # gives each phase's bits, on a healthy step and on one that a fault
    # splits into a healthy and a faulted segment
    track = _track(() if fault is None else ((0.013, fault),))
    track.start(W_E)
    track.advance(1, W_E)
    assert track.fault.active is (fault is not None)
    ts, _, v_abc = track.segment()
    window = 1.0 / 400.0
    rms = track.v_rms
    assert rms.shape == (3,)
    assert [rms[k] for k in range(3)] == [rms_window(ts, v_abc[:, k], window)
                                          for k in range(3)]


def test_machine_track_builds_its_inductance_model_once(monkeypatch):
    # every ElectricalSystem of a run shares the track's inductance model,
    # so the builds do not grow with the run's steps and segments, and a
    # system given the model equals one that builds its own
    from apucosim.wrsg import dynamics
    calls = []
    for module in (cosim, dynamics):
        build = module.build_L
        monkeypatch.setattr(module, "build_L",
                            lambda *args, build=build: calls.append(1) or build(*args))
    builds = []
    for duration in (0.04, 0.2):
        calls.clear()
        run_joint(build_joint_setup(_mini_scenario(
            {"ttsc_faults": [{"time_s": 0.013, "mu": 0.05, "k_rf": 1.0}],
             "load": {"schedule": [{"time_s": 0.031, "scale": 0.8}]}}, duration)))
        builds.append(len(calls))
    # the start's steady state and field voltage build their own
    assert builds[0] == builds[1] < 10
    track = _track()
    load = LoadModel.from_power(225.0)
    shared = ElectricalSystem(WrsgParams(), load, HEALTHY_FAULT, W_E, 57.0, R_225,
                              model=track.model)
    own = ElectricalSystem(WrsgParams(), load, HEALTHY_FAULT, W_E, 57.0, R_225)
    assert np.array_equal(shared.basis, own.basis) and np.array_equal(shared.b, own.b)


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


def test_track_start_refuses_a_field_voltage_above_the_limit():
    # 2 MW at 12,000 rpm needs about 310 V of field, above the AVR's 200 V;
    # the limit itself is accepted
    load = LoadModel.from_power(2000.0)
    with pytest.raises(cosim.FieldVoltageOutOfRange, match="310.372 V.* 200 V"):
        _track(load=load).start(W_E)
    needed = field_voltage_for_terminal(WrsgParams(), load.R_phase, W_E, 230.0)
    track = _track(load=load, v_fd_max=needed)
    track.start(W_E)
    assert track.V_fd == needed


def test_joint_start_takes_the_avr_field_limit():
    # the default start needs 52.9 V of field
    with pytest.raises(cosim.FieldVoltageOutOfRange, match="52.878.* 50 V"):
        run_joint(build_joint_setup(_mini_scenario({"avr": {"v_fd_max": 50.0}},
                                                   duration=0.04)))


def test_joint_refuses_a_setpoint_past_the_spools_limit():
    # the recorder is sized for speeds up to the spool's limit, and the first
    # macro step runs at the setpoint
    setup = build_joint_setup(_mini_scenario(duration=0.04))
    setup = replace(setup, governor=replace(setup.governor, N_set=45000.0))
    with pytest.raises(ValueError, match="setpoint 45000 rpm above the spool's limit "
                                         "of 43260 rpm"):
        run_joint(setup)


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
        load = LoadModel(R_phase=r, L_phase=5e-5)
    else:
        load = LoadModel.from_power(225.0, kind="cubic-speed-law")
        w_e = 0.9 * W_E
        r = load.resistance(1.0, speed_rpm=0.9 * 12000.0)
    sysm = ElectricalSystem(p, load, HEALTHY_FAULT, w_e, v_fd, r, noise_w=noise)
    # 200 full steps and a clipped 3e-5 s last step
    times, states, _ = propagate(sysm, y0, 0.0, 0.02003, GENERATOR_STEPPER)
    assert times.size == 201 and times[-1] == 0.02003
    opts = StepperOptions(relative_tolerance=1e-11, absolute_tolerance=1e-14,
                          max_step=1e-5)
    y, ta, h, worst = y0, 0.0, 1e-8, 0.0
    for tb, got in zip(times, states):
        res = integrate_adaptive(flux_system(sysm, y[7], ta), y[:7], (ta, tb), opts,
                                 record=False, initial_step=min(h, tb - ta))
        y, ta, h = np.append(res.state, y[7] + w_e * (tb - ta)), tb, res.last_step
        worst = max(worst, float(np.max(np.abs(got - y)) / np.max(np.abs(y[:6]))))
    assert worst < 1e-9


def test_healthy_propagator_holds_lam_f():
    # a healthy segment after a cleared fault: the basis's lam_f row and its
    # angle-dependent matrices are zero, so lam_f is carried exactly
    p = WrsgParams()
    v_fd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    y0 = steady_state(p, R_225, v_fd, W_E, theta0=0.3).as_array()
    y0[6] = 0.37
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), HEALTHY_FAULT, W_E,
                            v_fd, R_225, noise_w=[0.5, -0.3, 0.2, 0.1, -0.2, 0.05])
    assert not np.any(sysm.basis[1:]) and not np.any(sysm.basis[0, 42:])
    states = propagate(sysm, y0, 0.0, 0.02003, GENERATOR_STEPPER)[1]
    assert np.all(states[:, 6] == 0.37)


def _stepper(rtol=1e-5, atol=1e-6, max_step=1e-4):
    return StepperOptions(relative_tolerance=rtol, absolute_tolerance=atol,
                          max_step=max_step)


def _faulted_system(mu=0.05, w_e=W_E):
    p = WrsgParams()
    fault = FaultParams(mu=mu, k_rf=1.0)
    v_fd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    y0 = seed_fault_flux(steady_state(p, R_225, v_fd, W_E, theta0=0.3),
                         fault, p).as_array()
    return ElectricalSystem(p, LoadModel(R_phase=R_225), fault, w_e, v_fd,
                            R_225), y0


@pytest.mark.parametrize("faulted", [False, True])
def test_zero_generator_rows_give_exact_unit_rows(faulted):
    # the constant's row, and lam_f's when healthy, are zero in the
    # generator, so the exponentials and the propagators built from them
    # carry those rows as exact unit rows
    if faulted:
        sysm, y0 = _faulted_system()
        omega, _ = cosim._magnus_exponents(sysm.basis, sysm.b, y0[7], W_E, 0.0,
                                           2.5e-5 * np.arange(104),
                                           np.full(104, 2.5e-5))
        rows = [7]
    else:
        p = WrsgParams()
        v_fd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
        y0 = steady_state(p, R_225, v_fd, W_E, theta0=0.3).as_array()
        sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), HEALTHY_FAULT, W_E,
                                v_fd, R_225)
        omega = np.zeros((8, 8))
        omega[:7, :7] = sysm.basis[0].reshape(7, 7) * 1e-4
        omega[:7, 7] = sysm.b * 1e-4
        rows = [6, 7]
    assert not np.any(omega[..., rows, :])
    built = propagate(sysm, y0, 0.0, 0.02003, GENERATOR_STEPPER)[2]
    for e in (expm(omega), built.prefix, built.last):
        assert np.all(e[..., rows, :] == np.eye(8)[rows])


def test_magnus_with_constant_a_matches_healthy_propagator():
    # with A constant the order-6 exponent is the healthy step's dt gen, bit
    # for bit, and the order-4 one coincides with it, so the estimate is
    # zero at any tolerance
    p = WrsgParams()
    v_fd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), HEALTHY_FAULT, W_E,
                            v_fd, R_225, noise_w=[0.5, -0.3, 0.2, 0.1, -0.2, 0.05])
    gen = np.zeros((8, 8))
    gen[:7, :7] = sysm.basis[0].reshape(7, 7)
    gen[:7, 7] = sysm.b
    starts = 0.01 + 1e-4 * np.arange(200)
    dt = np.append(np.full(199, 1e-4), 3e-5)
    omega6, diff = cosim._magnus_exponents(sysm.basis, sysm.b, 0.3, W_E, 0.01,
                                           starts, dt)
    assert np.array_equal(omega6, dt[:, None, None] * gen)
    assert not np.any(diff)


def test_magnus_substeps_grow_with_tighter_tolerance():
    sysm, y0 = _faulted_system()
    # from a state 10 ms into the fault, where no flux is zero and a
    # negligible atol leaves rtol to set every channel's tolerance
    y = propagate(sysm, y0, 0.0, 0.01, GENERATOR_STEPPER)[1][-1]
    picks = [propagate(sysm, y, 0.01, 0.03, _stepper(rtol, 1e-12))[2].m
             for rtol in (1e-3, 1e-5, 1e-7)]
    assert picks[0] < picks[1] < picks[2]
    assert all(m & (m - 1) == 0 for m in picks)        # powers of two
    # run_generator's tolerances at the onset state
    assert propagate(sysm, y0, 0.0, 0.02, GENERATOR_STEPPER)[2].m == 4
    # a step already small enough needs no sub-steps
    assert propagate(sysm, y0, 0.0, 0.002, _stepper(max_step=1e-6))[2].m == 1


def test_magnus_non_finite_state_raises_with_sim_time():
    sysm, y0 = _faulted_system()
    y0[1] = math.nan
    with pytest.raises(NonFiniteDerivative) as info:
        propagate(sysm, y0, 0.25, 0.27, GENERATOR_STEPPER)
    assert info.value.t == 0.25 and info.value.channel == 0


def test_magnus_tolerance_below_rounding_level_raises_step_underflow():
    # the error names the sub-step h / 2048 it needs and the smallest one
    # allowed, h / 1024, for the period-locked grid's step h: 1e-4 s at
    # 12000 rpm, 9.74e-5 s at 11000 rpm
    for rpm in (12000.0, 11000.0):
        w_e = rpm * math.pi / 30.0 * 2
        sysm, y0 = _faulted_system(w_e=w_e)
        h = 2.0 * math.pi / w_e / math.ceil(2.0 * math.pi / w_e / 1e-4 - 1e-9)
        with pytest.raises(StepUnderflow) as info:
            propagate(sysm, y0, 0.25, 0.27, _stepper(1e-300, 1e-300))
        assert info.value.t == 0.25
        assert info.value.step == h / 2048
        assert f"{h / 2048:.3e}" in str(info.value)
        assert f"{h / 1024:.3e}" in str(info.value)


def test_fault_switch_inside_macro_step_lands_on_the_fast_track():
    t_sw = 0.0137
    res = run_generator(WrsgParams(), LoadModel.from_power(225.0), AvrState(),
                        speed_rpm=12000.0, duration=0.04,
                        fault_schedule=((t_sw, FaultParams(mu=0.05, k_rf=1.0)),))
    t, i_f = res.fast.time, res.fast.column("i_f")
    k = int(np.flatnonzero(t == t_sw)[0])
    assert np.all(i_f[:k + 1] == 0.0) and np.all(i_f[k + 1:] != 0.0)
    # the faulted grid restarts at the switch and ends on the macro boundary
    after = t[k:][t[k:] <= 0.02]
    assert np.allclose(np.diff(after)[:-1], 1e-4, rtol=1e-9, atol=0.0)
    assert after[-1] == 0.02 and after[-1] - after[-2] <= 1e-4


def _csv_digest(series, path):
    write_csv(series, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _joint_golden(tmp_path):
    """A joint run with every kind of event and noise, whose AVR moves the
    field voltage: a load step to 0.6, a gas-path fault, a TTSC fault inside
    a macro step and seeded noise on all three streams; with the digests of
    its fast and slow tracks."""
    res = run_joint(build_joint_setup(_mini_scenario({
        "load": {"schedule": [{"time_s": 0.1, "scale": 0.6}]},
        "gas_path_faults": [{"time_s": 0.15, "eta_c_factor": 0.99}],
        "ttsc_faults": [{"time_s": 0.2113, "mu": 0.05, "k_rf": 1.0}],
        "noise": {"std_w1": 1, "std_w2": 0.5, "std_vi": 0.5, "std_vv": 1,
                  "gasgen_output": {"XNHPC": 2, "T4": 1.5}},
        "hook": {"std_rpm": 3}, "seed": 5}, duration=0.4)))
    return res, (_csv_digest(res.fast, tmp_path / "fast.csv"),
                 _csv_digest(res.slow, tmp_path / "slow.csv"))


def _generator_golden(tmp_path):
    """A faulted generator run, its fault branch closed (k_rf = 1) from
    0.1 s; with the digests of its fast track at decimation 1 and of the
    last step's rms table."""
    res = run_generator(WrsgParams(), LoadModel.from_power(225.0), AvrState(),
                        speed_rpm=12000.0, duration=0.2, decimation=1,
                        fault_schedule=((0.1, FaultParams(mu=0.05, k_rf=1.0)),))
    table = json.dumps(res.rms_table, sort_keys=True).encode()
    return res, (_csv_digest(res.fast, tmp_path / "fast.csv"),
                 hashlib.sha256(table).hexdigest())


# the golden digests are tied to this platform's libm, as the fuel-step one
# is, and to an FMA BLAS kernel: they are the same under OpenBLAS's
# Haswell, Zen and SkylakeX kernels

def test_joint_run_golden_csvs(tmp_path):
    res, digests = _joint_golden(tmp_path)
    assert np.ptp(res.slow.column("V_fd")) > 10.0
    assert digests == (
        "a3818cbd575eecce7d2716aaaadfdbb2e2f44032e1f7de5ad4834eebcdfa9f7b",
        "93d9c18d257af77f0109b9a3d0e85f1be08533483e5d632f83a69b82679757f5")


def test_generator_run_golden_outputs(tmp_path):
    res, digests = _generator_golden(tmp_path)
    assert np.all(res.fast.column("i_f")[res.fast.time > 0.1] != 0.0)
    assert digests == (
        "5fad6a94b03220be9871b61db2d23bba0813ddad06bc4bcc386dc51b567ee5a5",
        "dbd674875d37515b433703d4758b3023ba518fcf350f507b6e21edddfc259b7d")


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("fault, w_e, r_load, l_phase", [
    (HEALTHY_FAULT, W_E, R_225, 0.0),
    (HEALTHY_FAULT, 0.7 * W_E, 2.0 * R_225, 5e-5),
    (FaultParams(mu=0.05, k_rf=1.0), W_E, R_225, 0.0),
    (FaultParams(mu=0.2, k_rf=0.1), 0.9 * W_E, 0.5 * R_225, 2e-5),
    (FaultParams(mu=0.01, k_rf=30.0), 1.2 * W_E, 3.0 * R_225, 0.0),
    (FaultParams(mu=0.5, k_rf=0.0), 0.3 * W_E, R_225, 0.0),
], ids=["healthy", "healthy-RL", "mu0.05", "mu0.2-RL", "mu0.01", "mu0.5-short"])
def test_kernels_match_their_reference_bits(fault, w_e, r_load, l_phase):
    # the in-place Magnus and expm kernels make the reference formulas'
    # operations in their order: every bit and every zero's sign agree, on
    # 1 to 128 sub-steps of healthy and faulted generators
    import kernel_reference as ref
    rng = np.random.default_rng(44)
    sysm = ElectricalSystem(WrsgParams(), LoadModel(R_phase=r_load, L_phase=l_phase), fault,
                            w_e, 61.3, r_load, noise_w=rng.normal(0.0, 0.5, 6))
    for n in (1, 2, 3, 5, 8, 25, 64, 100, 127, 128):
        h = 1e-4 / rng.choice([1, 2, 4, 64])
        ta = rng.uniform(0.0, 1.0)
        starts = ta + h * np.arange(n)
        dt = np.full(n, h)
        dt[-1] *= rng.uniform(0.1, 1.0)
        args = (sysm.basis, sysm.b, rng.uniform(-math.pi, math.pi), w_e, ta, starts, dt)
        got, want = cosim._magnus_exponents(*args), ref.magnus_exponents(*args)
        assert all(_same_bits(g, w) for g, w in zip(got, want)), n
        assert _same_bits(expm(want[0]), ref.expm(want[0])), n
        # a stack whose norm takes squarings
        assert _same_bits(expm(5e3 * want[0]), ref.expm(5e3 * want[0])), n
    for a in (rng.normal(0.0, 3.0, (8, 8)), rng.normal(0.0, 1.0, (3, 3)), np.zeros((8, 8)),
              -np.zeros((3, 3)), rng.normal(0.0, 40.0, (4, 7, 7))):
        assert _same_bits(expm(a), ref.expm(a)), a.shape


def _fma_kernels():
    """The OPENBLAS_CORETYPE kernels among Haswell, Zen and SkylakeX that
    this CPU can run, from the flags of /proc/cpuinfo: Haswell and Zen need
    AVX2 and FMA, SkylakeX AVX-512F (OpenBLAS 0.3.31 runs Zen on Haswell's
    kernel). Forcing a kernel the CPU lacks ends the process on an illegal
    instruction."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = next((set(line.split(":", 1)[1].split()) for line in fh
                          if line.startswith("flags")), set())
    except OSError:
        flags = set()
    kernels = ["Haswell", "Zen"] if {"avx2", "fma"} <= flags else []
    return kernels + (["SkylakeX"] if "avx512f" in flags else [])


def _off_speed_digest(tmp_path):
    """The fast-track digest of `genrun --speed-rpm 12500 --duration 0.3
    --mu 0.08 --fault-time 0.1137 --k-rf 2`, whose steady start a LAPACK
    solve gave other last bits under Haswell than under SkylakeX."""
    res = run_generator(WrsgParams(), LoadModel.from_power(225.0), AvrState(),
                        speed_rpm=12500.0, duration=0.3, decimation=2,
                        fault_schedule=((0.1137, FaultParams(mu=0.08, k_rf=2.0)),))
    return _csv_digest(res.fast, tmp_path / "off_speed.csv")


_GOLDEN_CHILD = """
import pathlib, tempfile
import test_cosim
with tempfile.TemporaryDirectory() as d:
    print(*test_cosim._joint_golden(pathlib.Path(d))[1],
          *test_cosim._generator_golden(pathlib.Path(d))[1],
          test_cosim._off_speed_digest(pathlib.Path(d)))
"""


def test_machine_bytes_do_not_depend_on_the_blas_kernel():
    # both golden runs and an off-speed faulted start in one child process
    # per kernel; only an OpenBLAS built with DYNAMIC_ARCH picks its kernel
    # at run time
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
    kernels = _fma_kernels()
    if len(kernels) < 2:
        pytest.skip(f"this CPU runs fewer than two of the FMA kernels: {kernels}")
    path = os.pathsep.join([str(Path(cosim.__file__).parents[1]),
                            str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")])
    digests = {}
    for kernel in kernels:
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", _GOLDEN_CHILD], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, (kernel, out.stderr)
        digests[kernel] = out.stdout.split()
    assert len(digests[kernels[0]]) == 5
    assert all(d == digests[kernels[0]] for d in digests.values()), digests


def _count_builds(monkeypatch):
    """The fault state and m of each propagator build the machine track makes."""
    builds = []
    build = cosim._build

    def counted(sys_, *args):
        built = build(sys_, *args)
        builds.append(("faulted" if sys_.fault.active else "healthy", built.m))
        return built

    monkeypatch.setattr(cosim, "_build", counted)
    return builds


def _faulted_run(rpm):
    # the fault 13.7 ms into the third of six macro steps, the AVR moving V_fd
    return run_generator(WrsgParams(), LoadModel.from_power(225.0), AvrState(),
                         speed_rpm=rpm, duration=0.12, decimation=1,
                         fault_schedule=((0.0537, FaultParams(mu=0.05, k_rf=1.0)),))


def test_whole_periods_per_macro_step_keep_the_step_propagators(monkeypatch):
    # at 12000 rpm a macro step is 8 periods of 400 Hz: after the first
    # full step each system differs from the last only in its field voltage
    builds = _count_builds(monkeypatch)
    res = _faulted_run(12000.0)
    # healthy: the first step and the one up to the onset; faulted: the
    # onset's segment and the first full step
    assert [kind for kind, _ in builds] == ["healthy"] * 2 + ["faulted"] * 2
    assert np.ptp(res.fast.column("V_fd")) > 1.0
    builds.clear()
    monkeypatch.setattr(cosim, "_reusable", lambda *args: False)
    fresh = _faulted_run(12000.0)
    assert [kind for kind, _ in builds] == ["healthy"] * 3 + ["faulted"] * 4
    assert np.array_equal(res.fast.time, fresh.fast.time)
    scale = np.max(np.abs(fresh.fast.data), axis=0)
    assert np.all(np.abs(res.fast.data - fresh.fast.data) <= 1e-12 * scale)


def test_a_start_angle_that_does_not_repeat_rebuilds_every_faulted_segment(monkeypatch):
    # at 11000 rpm a macro step is 7.33 periods: the healthy propagators
    # hold no angle and are kept, the faulted ones are built each step
    builds = _count_builds(monkeypatch)
    _faulted_run(11000.0)
    assert [kind for kind, _ in builds] == ["healthy"] * 2 + ["faulted"] * 4


def test_a_tolerance_that_raises_m_rebuilds_the_kept_period(monkeypatch):
    builds = _count_builds(monkeypatch)
    track = _track(fault_schedule=((0.0, FaultParams(mu=0.05, k_rf=1.0)),))
    track.start(W_E)
    track.advance(1, W_E)
    track.advance(2, W_E)
    assert len(builds) == 1
    # the re-taken estimate of a tighter tolerance needs more sub-steps
    track.stepper = replace(track.stepper, absolute_tolerance=1e-9)
    track.advance(3, W_E)
    (_, m_kept), (_, m_new) = builds
    assert (m_kept, m_new) == (4, 8)


def test_a_cleared_fault_rebuilds_the_healthy_propagators(monkeypatch):
    # the track keeps only its last segment's propagators, so the healthy
    # system after a fault cleared by HEALTHY_FAULT is built again, then
    # kept; the fault acts and clears on macro boundaries
    def run():
        return run_generator(WrsgParams(), LoadModel.from_power(225.0), AvrState(),
                             speed_rpm=12000.0, duration=0.16, decimation=1,
                             fault_schedule=((0.04, FaultParams(mu=0.05, k_rf=1.0)),
                                             (0.1, HEALTHY_FAULT)))
    builds = _count_builds(monkeypatch)
    res = run()
    # six steps march again what the step before them built: the healthy
    # step at the start, the fault's period at the onset, and the healthy
    # step again after the clear
    assert builds == [("healthy", 0), ("faulted", 4), ("healthy", 0)]
    builds.clear()
    monkeypatch.setattr(cosim, "_reusable", lambda *args: False)
    fresh = run()
    assert len(builds) == 8
    assert np.array_equal(res.fast.time, fresh.fast.time)
    scale = np.max(np.abs(fresh.fast.data), axis=0)
    assert np.all(np.abs(res.fast.data - fresh.fast.data) <= 1e-12 * scale)


def test_load_step_acts_at_its_time_inside_a_macro_step():
    # a load step to 0.6 and a health swap, both at 0.03 s, half way through
    # the second macro step: that step draws full load, then 0.6, so its
    # power lies well inside the steps on either side, and each row records
    # the load at its own time, as it records the fault
    res = run_joint(build_joint_setup(_mini_scenario({
        "load": {"schedule": [{"time_s": 0.03, "scale": 0.6}]},
        "gas_path_faults": [{"time_s": 0.03, "eta_c_factor": 0.99}]}, duration=0.1)))
    before, mixed, after = res.slow.column("Pe_gt")[:3]
    margin = 0.1 * (before - after)
    assert before - margin > mixed > after + margin
    assert list(res.slow.column("load_scale")) == [1.0, 0.6, 0.6, 0.6, 0.6]


def test_machine_event_on_a_rounded_boundary_leaves_no_sliver():
    # 35 * 0.02 rounds to 0.7000000000000001; a fault at 0.7 s, within 1e-9
    # of a step of that boundary, acts on it, not 1e-16 s before it
    res = run_generator(WrsgParams(), LoadModel.from_power(225.0), AvrState(),
                        speed_rpm=12000.0, duration=0.72,
                        fault_schedule=((0.7, FaultParams(mu=0.05, k_rf=1.0)),))
    assert np.min(np.diff(res.fast.time)) > 1e-9
    assert np.max(np.abs(res.fast.column("i_f"))) > 0.0


def test_event_just_after_the_start_acts_at_the_first_step():
    # events within 1e-9 of a step after t = 0 are not the start's: they act
    # at the start of the first step, after the trim, as a health swap at
    # that time does, and alike wherever they lie within that allowance
    energies = []
    for t_ev in (1e-12, 1.5e-11):
        track = _track(((t_ev, FaultParams(mu=0.05, k_rf=1.0)),),
                       load=LoadModel.from_power(225.0, schedule=((t_ev, 0.6),)))
        track.start(W_E)
        assert track.scale == 1.0 and not track.fault.active
        energies.append(track.advance(1, W_E))
        assert track.scale == 0.6 and track.fault.active
        assert track.fast_series().time[0] > 1e-9
    untouched = _track()
    untouched.start(W_E)
    assert energies[0] == energies[1] != untouched.advance(1, W_E)


# ---------------------------------------------- period grid and block march

def _magnus_step_by_step(sysm, y0, ta, times, m):
    """Fluxes on `times` from y0 at ta, every grid step from its own m
    sub-step exponentials, one matrix-vector product each."""
    z, edges, out = np.append(y0[:7], 1.0), np.append(ta, times), []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        dt = np.full(m, (t1 - t0) / m)
        omega, _ = cosim._magnus_exponents(sysm.basis, sysm.b, y0[7],
                                           sysm.w_e, ta, t0 + dt * np.arange(m), dt)
        for e in expm(omega):
            z = e @ z
        out.append(z[:7])
    return np.array(out)


@pytest.mark.parametrize("span, w_e", [
    (0.7e-4, W_E),                  # one step
    (0.0013, W_E),                  # under one period: 13 steps
    (0.02, W_E),                    # exactly 8 periods of 25 steps
    (0.02037, W_E),                 # 8 periods and 4 more steps
    (0.02 + 1e-10, W_E),            # a last step of 1e-6 of a step
    (0.02, 2.0 * math.pi * 10.0),   # a period longer than the segment
])
def test_magnus_period_reuse_matches_step_by_step(span, w_e):
    sysm, y0 = _faulted_system(w_e=w_e)
    ta = 0.01
    tb = ta + span
    times, states, built = propagate(sysm, y0, ta, tb, GENERATOR_STEPPER)
    assert times[-1] == tb
    m = built.m
    want = _magnus_step_by_step(sysm, y0, ta, times, m)
    assert np.max(np.abs(states[:, :7] - want)) <= 1e-12 * np.max(np.abs(want[:, :6]))
    assert np.array_equal(states[:, 7], y0[7] + w_e * (times - ta))


@pytest.mark.parametrize("rpm, max_step", [
    (12000.0, 1e-4), (11000.0, 1e-4), (12500.0, 1e-4), (9000.0, 7e-5)])
def test_magnus_grid_is_a_whole_fraction_of_the_period(rpm, max_step):
    w_e = rpm * math.pi / 30.0 * 2
    sysm, y0 = _faulted_system(w_e=w_e)
    period = 2.0 * math.pi / w_e
    times = propagate(sysm, y0, 0.01, 0.03, _stepper(max_step=max_step))[0]
    steps = np.diff(np.append(0.01, times))
    assert times[-1] == 0.03
    assert np.all(steps <= max_step * (1.0 + 1e-9))
    # the fewest steps per period: one fewer would exceed max_step
    n = round(period / steps[0])
    assert np.allclose(steps[:-1], period / n, rtol=1e-9, atol=0.0)
    assert period / (n - 1) > max_step
    if rpm == 12000.0:
        assert n == 25


@pytest.mark.parametrize("span, computed", [(0.0013, 13), (0.02, 26), (0.1, 26)])
def test_magnus_computes_one_period_of_exponentials(monkeypatch, span, computed):
    # 400 Hz, 25 steps per period: the exponents of min(n, K - 1) full steps
    # and of the clipped last step, one sub-step each for the estimate, then
    # m sub-steps each, whatever the length
    sysm, y0 = _faulted_system()
    sizes = []
    inner = cosim._magnus_exponents

    def counted(basis, b, theta0, w_e, ta, starts, dt):
        sizes.append(starts.size)
        return inner(basis, b, theta0, w_e, ta, starts, dt)

    monkeypatch.setattr(cosim, "_magnus_exponents", counted)
    m = propagate(sysm, y0, 0.0, span, GENERATOR_STEPPER)[2].m
    assert m == 4
    assert sum(sizes) == computed * (1 + m)
    if span == 0.02:
        assert sum(sizes) == 130


@pytest.mark.parametrize("span, w_e", [(0.02003, W_E), (0.02, 0.9 * W_E),
                                       (0.7e-4, W_E), (0.02, 0.0)])
def test_healthy_block_march_matches_step_by_step(span, w_e):
    p = WrsgParams()
    v_fd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    y0 = steady_state(p, R_225, v_fd, W_E, theta0=0.3).as_array()
    y0[6] = 0.37
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), HEALTHY_FAULT, w_e,
                            v_fd, R_225, noise_w=[0.5, -0.3, 0.2, 0.1, -0.2, 0.05])
    times, states, _ = propagate(sysm, y0, 0.0, span, GENERATOR_STEPPER)
    gen = np.zeros((8, 8))
    gen[:7, :7] = sysm.basis[0].reshape(7, 7)
    gen[:7, 7] = sysm.b
    step = expm(gen * 1e-4)
    last = expm(gen * (span - (times[-2] if times.size > 1 else 0.0)))
    z, want = np.append(y0[:7], 1.0), []
    for k in range(times.size):
        z = (step if k < times.size - 1 else last) @ z
        want.append(z[:7])
    want = np.array(want)
    assert np.max(np.abs(states[:, :7] - want)) <= 1e-13 * np.max(np.abs(want[:, :6]))
    assert np.all(states[:, 6] == 0.37)


def test_healthy_segment_of_whole_steps_takes_one_exponential(monkeypatch):
    # a macro step's segment is a whole number of max_step steps, but its
    # last step tb - t_last misses h by rounding: within _grid's 1e-9 h
    # allowance it is the full step, whose exponential is reused
    p = WrsgParams()
    v_fd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    y0 = steady_state(p, R_225, v_fd, W_E).as_array()
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), HEALTHY_FAULT, W_E, v_fd, R_225)
    calls = []
    monkeypatch.setattr(cosim, "expm", lambda a: calls.append(1) or expm(a))
    dt = 0.02
    for k in range(1, 101):
        t0, t1 = (k - 1) * dt, k * dt
        calls.clear()
        times = propagate(sysm, y0, t0, t1, GENERATOR_STEPPER)[0]
        assert times.size == 200 and times[-1] == t1
        assert len(calls) == 1, k
    calls.clear()
    propagate(sysm, y0, 0.0, 0.02003, GENERATOR_STEPPER)
    assert len(calls) == 2


def test_seeded_determinism():
    a = run_joint(build_joint_setup(_mini_scenario({"seed": 7})))
    b = run_joint(build_joint_setup(_mini_scenario({"seed": 7})))
    assert np.array_equal(a.slow.data, b.slow.data)
    assert np.array_equal(a.fast.data, b.fast.data)
    assert np.array_equal(a.fast.time, b.fast.time)


def test_state_noise_hook_changes_trajectory_deterministically():
    scn = _mini_scenario({"hook": {"std_rpm": 5.0}, "seed": 3})
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


# ------------------------------------------------------- shared cycle match

_DEGRADED = {"eta_c_factor": 0.99, "flow_c_factor": 0.97,
             "eta_t_factor": 0.98, "flow_t_factor": 1.04}


def _count_matches(monkeypatch):
    """Every cycle match the loops make, all of them in the engine."""
    from apucosim.gasgen import cycle, engine
    calls = []
    solve = cycle.off_design_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(engine, "off_design_solve", counted)
    return calls


@pytest.mark.parametrize("swap", [False, True], ids=["healthy", "health-swap"])
def test_two_cycle_matches_per_macro_step(monkeypatch, swap):
    # the output match at (N_k, wf_k) is the next spool update's first
    # sub-step match; a health swap invalidates it and solves one fresh
    from apucosim.scenario import fuel_step_run
    extra = {"gas_path_faults": [dict(time_s=0.1, **_DEGRADED)]} if swap else {}
    calls = _count_matches(monkeypatch)
    run_joint(build_joint_setup(_mini_scenario(extra, duration=0.2)))
    assert len(calls) == 2 * 10 + swap
    calls.clear()
    # the transient's first match is its fuel trim's solution
    fuel_step_run(_mini_scenario(extra, duration=0.2))()
    assert len(calls) == 2 * 10 + swap


def test_fuel_step_replay_work_count(monkeypatch):
    # each warm match starts at the start its guess's sensitivity predicts,
    # and the output match starts from the spool update's half-step match:
    # the replay's 1,000 matches and its trim take at most 1,800 cycle
    # evaluations (2,530 when each match started at the output match before).
    # Ps3 is solved only for the matches whose outputs are read, so the
    # static-state solves stay at most 2,300 (2,731 when every match solved it)
    from apucosim.gasgen import cycle
    from apucosim.scenario import fuel_step_run, load_preset
    evaluations, statics = [], []
    evaluate, static = cycle._evaluate_cycle, cycle.static_from_flow
    monkeypatch.setattr(cycle, "_evaluate_cycle",
                        lambda *args: evaluations.append(1) or evaluate(*args))
    monkeypatch.setattr(cycle, "static_from_flow",
                        lambda *args: statics.append(1) or static(*args))
    calls = _count_matches(monkeypatch)
    fuel_step_run(load_preset("fuel-step"))()
    assert len(calls) == 1000
    assert len(evaluations) <= 1800
    assert len(statics) <= 2300


def _record_updates(monkeypatch):
    """(x.N, match.N, match.wf, u.wf, the returned speed) of every spool
    update the loops make."""
    update = cosim.state_update
    seen = []

    def recorded(params, x, u, health, Pe, dt, match):
        new, half = update(params, x, u, health, Pe, dt=dt, match=match)
        seen.append((x.N, match.N, match.wf, u.wf, new.N))
        return new, half
    monkeypatch.setattr(cosim, "state_update", recorded)
    return seen


def test_speed_noise_hook_state_is_what_both_matches_see(monkeypatch):
    seen = _record_updates(monkeypatch)
    res = run_joint(build_joint_setup(_mini_scenario(
        {"seed": 3, "hook": {"std_rpm": 5.0}}, duration=0.1)))
    speeds = res.slow.column("XNHPC").tolist()
    # the output match is at the noised speed, not the updated one ...
    assert all(n != s[4] for n, s in zip(speeds, seen))
    # ... and is the next update's first match, at that speed and fuel flow
    assert [s[0] for s in seen[1:]] == [s[1] for s in seen[1:]] == speeds[:-1]
    assert all(wf == u_wf for _, _, wf, u_wf, _ in seen)


def test_state_noise_keeps_its_draws():
    # the state noise draws from the third seeded stream where the hook
    # drew: row 3 at seed 3 and 5 rpm, frozen from the loop that called
    # a hook(x, rng)
    res = run_joint(build_joint_setup(_mini_scenario(
        {"seed": 3, "hook": {"std_rpm": 5.0}}, duration=0.1)))
    assert res.slow.column("XNHPC")[3] == pytest.approx(36043.84531577004, abs=1e-6)


@pytest.mark.parametrize("time_s", [0.0, 0.02])
def test_transient_first_match_is_at_the_update_fuel_flow(monkeypatch, time_s):
    # a fuel step at t = 0 acts from the first sub-step: the spool update
    # re-solves the trim's match, at the fuel before the step, at the
    # stepped fuel flow, and uses every later update's given match as it is
    from apucosim.gasgen import engine
    from apucosim.scenario import fuel_step_run
    solves, used = [], []
    solve, update = engine.off_design_solve, cosim.state_update

    def solved(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    def updated(params, x, u, health, Pe, dt, match):
        solves.clear()
        new, half = update(params, x, u, health, Pe, dt=dt, match=match)
        # the first sub-step's match: the first solve where the update made
        # one per sub-step, else the given match
        first = solves[0] if len(solves) == engine._SUBSTEPS else match
        used.append((x.N, first.N, u.wf, first.wf, first is not match))
        return new, half
    monkeypatch.setattr(engine, "off_design_solve", solved)
    monkeypatch.setattr(cosim, "state_update", updated)
    fuel_step_run(_mini_scenario(
        {"fuel_step": {"time_s": time_s, "factor": 1.1}}, duration=0.06))()
    assert len(used) == 3
    assert all(x == n and u_wf == wf for x, n, u_wf, wf, _ in used)
    assert [resolved for *_, resolved in used] == [time_s == 0.0, False, False]


def test_gasgen_output_noise_keeps_its_draws():
    # drawing the output noise before the governor keeps its draws: row 3
    # at seed 5, frozen from the loop that drew it after the output match
    def run(extra):
        return run_joint(build_joint_setup(_mini_scenario(
            dict(seed=5, **extra), duration=0.1)))
    noise = {"T4": 1.5, "PWSD": 2.0, "T3": 0.5}
    noisy = run({"noise": {"gasgen_output": noise}})
    clean = run({})
    frozen = {"T4": -0.2960218069038092, "PWSD": 2.037917899146805,
              "T3": 0.1864845379561757}
    for ch, value in frozen.items():
        added = noisy.slow.column(ch)[3] - clean.slow.column(ch)[3]
        assert added == pytest.approx(value, abs=1e-9), ch


def _slow_track(loop, scenario):
    """The slow track of `scenario` run by run_joint or by fuel_step_run's
    runner."""
    from apucosim.scenario import fuel_step_run
    return (run_joint(build_joint_setup(scenario)) if loop == "joint"
            else fuel_step_run(scenario)()).slow


# the joint run's cases keep the ids they had before the transient's joined
@pytest.mark.parametrize("loop, t_swap, first_row", [
    pytest.param(loop, t_swap, first_row,
                 id=f"{'' if loop == 'joint' else 'transient-'}{t_swap}-{first_row}")
    for loop in ("joint", "transient")
    for t_swap, first_row in [(0.7, 0.72), (0.68, 0.70), (0.69, 0.70)]])
def test_health_swap_boundary_by_step_index(loop, t_swap, first_row):
    # a swap acts from the step that starts on the last boundary at or
    # before it, in both loops; 35 * 0.02 = 0.7000000000000001 must not pull
    # 0.7 a step early
    clean = _slow_track(loop, _mini_scenario(duration=0.76))
    fault = _slow_track(loop, _mini_scenario(
        {"gas_path_faults": [dict(time_s=t_swap, **_DEGRADED)]}, duration=0.76))
    moved = np.any(fault.data != clean.data, axis=1)
    assert fault.time[np.argmax(moved)] == pytest.approx(first_row, abs=1e-9)
    assert not moved[fault.time < first_row - 1e-9].any()
    if loop == "joint":
        eta = fault.column("eta_c_f")
        assert np.all((eta == 0.99) == (fault.time > first_row - 1e-9))


def test_transient_applies_a_timed_gas_path_fault():
    from apucosim.scenario import fuel_step_run
    clean = fuel_step_run(_mini_scenario(duration=0.6))().slow
    fault = fuel_step_run(_mini_scenario(
        {"gas_path_faults": [dict(time_s=0.5, **_DEGRADED)]}, duration=0.6))().slow
    before = clean.time <= 0.5 + 1e-9
    assert np.array_equal(fault.data[before], clean.data[before])
    row = np.flatnonzero(np.isclose(clean.time, 0.52))[0]
    assert not np.array_equal(fault.data[row], clean.data[row])


def test_a_transient_runner_repeats():
    # each call of one fuel_step_run's runner starts from the trim, not from
    # where the call before it ended
    from apucosim.scenario import fuel_step_run
    run = fuel_step_run(_mini_scenario(
        {"fuel_step": {"time_s": 0.1, "factor": 1.05},
         "gas_path_faults": [dict(time_s=0.15, **_DEGRADED)]}, duration=0.2))
    first, second = run().slow, run().slow
    assert np.array_equal(first.time, second.time)
    assert np.array_equal(first.data, second.data)


def test_generator_run_with_series_rl_load():
    from apucosim.control import AvrState
    from apucosim.cosim import run_generator
    from apucosim.wrsg import LoadModel, WrsgParams

    load = LoadModel.from_power(200.0, L_phase=5e-5)
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


def test_series_rl_run_starts_steady():
    # the steady start carries the load inductance: the first steps draw
    # one power at the setpoint speed and the AVR's 230 V
    res = run_joint(build_joint_setup(_mini_scenario(
        {"load": {"l_phase_h": 2e-5}}, duration=0.1)))
    pe = res.slow.column("Pe_gt")
    assert pe.size == 5 and np.ptp(pe) < 1e-9 * pe[0]
    assert pe[0] == pytest.approx(471.29, abs=0.01)
    assert np.max(np.abs(res.slow.column("XNHPC") - 36050.0)) < 0.01
    assert res.slow.column("V_rms") == pytest.approx([230.0] * 5, rel=1e-9)


@pytest.mark.parametrize("extra, made", [
    ({}, 0), ({"noise": {"std_vi": 0.5}}, 1), ({"noise": {"gasgen_output": {"T4": 0.0}}}, 0),
    ({"noise": {"gasgen_output": {"T4": 1.0}}}, 1), ({"hook": {"std_rpm": 1.0}}, 1),
    ({"noise": {"std_w1": 1.0, "gasgen_output": {"XNHPC": 1.0}},
      "hook": {"std_rpm": 1.0}}, 3),
    ({"hook": {"std_rpm": 0.0}}, 0),
], ids=["noise-free", "machine", "zero-width-output", "output", "hook", "all",
        "zero-width-hook"])
def test_run_makes_a_generator_only_for_a_stream_that_draws(monkeypatch, extra, made):
    rngs = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: rngs.append(seed) or default_rng(seed))
    run_joint(build_joint_setup(_mini_scenario(extra, duration=0.04)))
    assert len(rngs) == made


# ---------------------------------------------------------------- whole steps


# (duration, its whole 0.02 s steps or None): every caller of the rule, the
# scenario parser, the three runners and genrun, judges each alike (the
# gas-path transient ran 0.04 s for 0.05 s, and 0.08 s for 0.07 s)
WHOLE_STEP_CASES = [
    (0.04, 2), (0.06, 3), (0.02 * (1.0 + 1e-12), 1),
    (0.05, None), (0.07, None), (0.01, None), (0.02 * (1.0 + 1e-8), None),
    (0.0, None), (-0.02, None), (math.nan, None), (math.inf, None),
]


@pytest.mark.parametrize("duration, steps", WHOLE_STEP_CASES,
                         ids=[repr(c[0]) for c in WHOLE_STEP_CASES])
def test_every_caller_takes_whole_steps_alike(tmp_path, monkeypatch, capsys,
                                              duration, steps):
    from test_cli import _reach, _Reached
    from apucosim import cli
    from apucosim.scenario import SchemaError, fuel_step_run

    assert cosim.whole_steps(duration, 0.02) == steps
    setup = build_joint_setup(_mini_scenario(duration=0.04))
    transient = fuel_step_run(_mini_scenario(duration=0.04))
    runs = (lambda: run_joint(replace(setup, duration=duration)).slow,
            lambda: transient(duration=duration).slow,
            lambda: run_generator(WrsgParams(), LoadModel.from_power(225.0),
                                  AvrState(), speed_rpm=12000.0,
                                  duration=duration).fast)
    text = json.dumps({"duration": duration})   # NaN and Infinity as literals
    monkeypatch.setattr(cli, "run_generator", _reach)
    genrun = ["genrun", "--duration", repr(duration), "--out", str(tmp_path), "--no-svg"]
    if steps is None:
        with pytest.raises(SchemaError, match="at duration"):
            parse_scenario(text)
        for run in runs:
            with pytest.raises(ValueError, match="duration must be a positive multiple"):
                run()
        assert cli.main(genrun) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        # a duration outside (0, inf) is refused when parsed
        if 0.0 < duration < math.inf:
            assert "--duration must be a positive multiple" in err
        else:
            assert "argument --duration" in err and "outside (0, inf)" in err
        return
    assert parse_scenario(text)["duration"] == duration
    for run in runs:
        assert run().time[-1] == pytest.approx(steps * 0.02, rel=1e-9)
    with pytest.raises(_Reached):
        cli.main(genrun)
