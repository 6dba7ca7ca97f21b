"""Multi-rate orchestrator: continuous machine integration inside each fixed
gas-generator macro step (the exact propagator of the affine flux equations
on healthy segments, the variable-step implicit stepper on faulted ones),
with power/speed coupling rules, an externally pluggable state-process hook,
and per-step energy bookkeeping.

Per macro step k the loop (a) integrates the machine over [t_{k-1}, t_k]
with the speed held from the last gas-generator update, accumulating its
shaft power, (b) converts the accumulated energy into the gas-generator
load, (c) updates the spool state, applies the hook, evaluates outputs and
the two regulators, then (d) hands the new speed back to the machine as a
zero-order hold.  TTSC fault switches are applied exactly at their requested
times on the fast track; gas-path health swaps happen at macro boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .control import AvrState, GovernorState, avr_step, governor_step
from .gasgen import (
    GasGenInput,
    GasGenParams,
    GasGenState,
    HEALTHY,
    HealthParams,
    outputs_from_solution,
    state_update,
    off_design_solve,
)
from .gasgen.engine import OUTPUT_CHANNELS, trim_fuel
from .numerics import (
    IntegralAccumulator,
    StepperOptions,
    accumulate,
    expm,
    integrate_adaptive,
)
from .wrsg import (
    ElectricalSystem,
    FaultParams,
    HEALTHY_FAULT,
    LoadModel,
    NoiseConfig,
    WrsgParams,
    WrsgState,
    field_voltage_for_terminal,
    measure,
    rms_window,
    seed_fault_flux,
    steady_state,
)
from .wrsg.machine import IDX_LAM_F, IDX_THETA


class EmptyWindow(Exception):
    pass


@dataclass(frozen=True)
class CouplingParams:
    eta_gtTsg: float = 1.0                 # power-transfer efficiency
    omega_gtTsg: float = 36050.0 / 12000.0  # gearbox speed ratio (gas gen / generator)

    def __post_init__(self):
        if not 0 < self.eta_gtTsg <= 1:
            raise ValueError("eta_gtTsg must lie in (0, 1]")
        if self.omega_gtTsg <= 0:
            raise ValueError("omega_gtTsg must be positive")


def coupling_power(acc: IntegralAccumulator, dt: float, eta_gtTsg: float) -> float:
    """Gas-generator load over the last macro step: mean machine power / eta."""
    if dt <= 0:
        raise EmptyWindow("macro step has zero width")
    return acc.value / (dt * eta_gtTsg)


def coupling_speed(w_gt_rpm: float, coupling: CouplingParams,
                   pole_pairs: int = 2) -> tuple[float, float]:
    """Generator shaft speed (rpm) and electrical speed (rad/s)."""
    w_sg = w_gt_rpm / coupling.omega_gtTsg
    w_e = w_sg * math.pi / 30.0 * pole_pairs
    return w_sg, w_e


@dataclass
class TimeSeries:
    names: tuple
    units: tuple
    time: np.ndarray
    data: np.ndarray     # shape (n_samples, n_channels)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.names.index(name)]

    @property
    def n_samples(self) -> int:
        return self.time.size


@dataclass
class EnergyAudit:
    time: np.ndarray
    machine_energy: np.ndarray      # integral of P_sg_total over each step, kJ
    transferred: np.ndarray         # Pe_gt * dt * eta, kJ
    residual: np.ndarray            # machine_energy - transferred, kJ

    @property
    def max_relative_residual(self) -> float:
        scale = np.maximum(np.abs(self.transferred), 1e-12)
        return float(np.max(np.abs(self.residual) / scale))

    @property
    def mean_relative_residual(self) -> float:
        scale = np.maximum(np.abs(self.transferred), 1e-12)
        return float(np.mean(np.abs(self.residual) / scale))


def energy_audit(slow: TimeSeries, eta_gtTsg: float, macro_dt: float) -> EnergyAudit:
    """Recompute the per-step power-balance residual from recorded channels."""
    energy = slow.column("seg_energy")
    pe = slow.column("Pe_gt")
    transferred = pe * macro_dt * eta_gtTsg
    return EnergyAudit(time=slow.time, machine_energy=energy,
                       transferred=transferred, residual=energy - transferred)


FAST_CHANNELS = (
    ("ia", "A"), ("ib", "A"), ("ic", "A"),
    ("va", "V"), ("vb", "V"), ("vc", "V"),
    ("i_f", "A"), ("i_fd", "A"),
    ("P_sg_total", "kW"), ("P_sg_loss", "kW"), ("V_fd", "V"),
)

SLOW_EXTRA = (
    ("wf", "kg/s"), ("Pe_gt", "kW"), ("seg_energy", "kJ"),
    ("audit_residual", "kJ"), ("V_rms", "V"), ("V_fd", "V"),
    ("load_scale", "-"), ("mu", "-"), ("k_rf", "-"),
    ("eta_c_f", "-"), ("flow_c_f", "-"), ("eta_t_f", "-"), ("flow_t_f", "-"),
)


def propagate_healthy(sys_: ElectricalSystem, y, ta: float, tb: float, h: float):
    """Exact solution of a healthy segment on the uniform grid ta + k h, the
    last step clipped to end on tb: (times, states), the start excluded.

    Speed, field voltage, load and equation noise are held, so the fluxes
    obey d lam/dt = A lam + b and each step is one product with
    exp([[A, b], [0, 0]] h); lam_f is constant and theta = theta0 + w_e t.
    """
    n = max(1, math.ceil((tb - ta) / h - 1e-9))
    times = ta + h * np.arange(1, n + 1)
    times[-1] = tb
    a, b = sys_.affine()
    gen = np.zeros((7, 7))
    gen[:6, :6] = a
    gen[:6, 6] = b
    h_last = tb - (times[-2] if n > 1 else ta)
    step = expm(gen * h)
    last = step if h_last == h else expm(gen * h_last)
    # the exponential's last row is exactly (0, ..., 0, 1); pin it so the
    # solve's rounding cannot drift the constant that carries b
    step[6] = last[6] = np.eye(7)[6]
    z = np.append(y[:6], 1.0)
    out = np.empty((n, 7))
    for k in range(n - 1):
        z = step @ z
        out[k] = z
    out[-1] = last @ z
    states = np.empty((n, 8))
    states[:, :6] = out[:, :6]
    states[:, IDX_LAM_F] = y[IDX_LAM_F]
    states[:, IDX_THETA] = y[IDX_THETA] + sys_.w_e * (times - ta)
    return times, states


class _MachineTrack:
    """Owns the electrical state, fault schedule, recorder and rms buffers."""

    def __init__(self, params: WrsgParams, load: LoadModel,
                 fault_schedule, noise: NoiseConfig, stepper: StepperOptions,
                 decimation: int, rng):
        if decimation < 1:
            raise ValueError("decimation must be an integer >= 1")
        if not math.isfinite(stepper.max_step):
            raise ValueError("max_step must be finite: it is the healthy "
                             "segments' sample period")
        self.params = params
        self.load = load
        self.schedule = sorted(fault_schedule, key=lambda s: s[0])
        self.noise = noise
        self.stepper = stepper
        self.decimation = decimation
        self.rng = rng
        self.fault = HEALTHY_FAULT
        self.state = None          # state array, set by start()
        self.h_next = stepper.initial_step
        self._times, self._rows = [], []     # recorded fast-track chunks
        self._count = 0
        self._seg = []             # this macro step's (times, i_abc, v_abc) chunks
        self.V_fd = 0.0
        self.w_e = 0.0

    def start(self, y):
        """Set the initial state, with every fault scheduled at t <= 0
        already applied."""
        self.state = y
        for t_sw, fault0 in self.schedule:
            if t_sw <= 0.0:
                self.state = self._apply_fault(self.state, fault0)

    def _switch_points(self, t0, t1):
        return [s for s in self.schedule if t0 < s[0] <= t1]

    def advance(self, t0: float, t1: float, w_e: float, V_fd: float) -> float:
        """Integrate the machine over [t0, t1]; returns accumulated energy kJ."""
        self.w_e = w_e
        self.V_fd = V_fd
        self._seg = []
        y = self.state
        noise_w = None
        if not self.noise.silent and (self.noise.std_w1 or self.noise.std_w2):
            noise_w = np.concatenate([
                self.rng.normal(0.0, self.noise.std_w1, 3) if self.noise.std_w1 else np.zeros(3),
                self.rng.normal(0.0, self.noise.std_w2, 3) if self.noise.std_w2 else np.zeros(3)])
        pieces = self._switch_points(t0, t1)
        t_cur = t0
        sys_ = self._system(t_cur, noise_w)
        self.acc = IntegralAccumulator(last_time=t0,
                                       last_sample=float(sys_.terminal(y)[4]))
        for t_sw, fault_new in pieces:
            if t_sw > t_cur:
                y = self._run(sys_, y, t_cur, t_sw)
                t_cur = t_sw
            y = self._apply_fault(y, fault_new)
            sys_ = self._system(t_cur, noise_w)
            self.h_next = self.stepper.initial_step   # restart after the jump
        if t1 > t_cur:
            y = self._run(sys_, y, t_cur, t1)
        self.state = y
        return self.acc.value

    def _apply_fault(self, y, fault_new: FaultParams):
        was_active = self.fault.active
        self.fault = fault_new
        st = WrsgState.from_array(y)
        if fault_new.active and not was_active:
            st = seed_fault_flux(st, fault_new, self.params)
        return st.as_array()

    def _system(self, t, noise_w):
        speed_rpm = self.w_e * 30.0 / (math.pi * self.params.pole_pairs)
        r = self.load.resistance_at(t, speed_rpm=speed_rpm)
        return ElectricalSystem(self.params, self.load, self.fault,
                                self.w_e, self.V_fd, r, noise_w=noise_w)

    def _run(self, sys_, y, ta, tb):
        if self.fault.active:
            opts = replace(self.stepper, initial_step=min(
                max(self.h_next, self.stepper.min_step), self.stepper.max_step,
                (tb - ta)))
            # the seven fluxes on the stepper, theta in closed form
            res = integrate_adaptive(sys_.flux_system(y[IDX_THETA], ta),
                                     y[:IDX_THETA], (ta, tb), opts)
            self.h_next = res.last_step
            times = res.times[1:]
            states = np.empty((times.size, 8))
            states[:, :IDX_THETA] = res.states[1:]
            states[:, IDX_THETA] = y[IDX_THETA] + sys_.w_e * (times - ta)
        else:
            times, states = propagate_healthy(sys_, y, ta, tb,
                                              self.stepper.max_step)
        self._record(sys_, times, states)
        y = states[-1].copy()
        # wrap the electrical angle to keep trig arguments small
        y[IDX_THETA] = math.fmod(y[IDX_THETA], 2.0 * math.pi)
        return y

    def _record(self, sys_, times, states):
        """Fast-track pass over one segment's samples: shaft energy, the rms
        buffers and every decimation-th row of the recorded channels."""
        i_abc, v_abc, i_f, i6, p_tot, p_loss = sys_.terminal(states)
        accumulate(self.acc, times, p_tot)
        self._seg.append((times, i_abc, v_abc))
        index = np.arange(self._count + 1, self._count + times.size + 1)
        keep = index % self.decimation == 0
        self._count += times.size
        i_rec, v_rec = i_abc[keep], v_abc[keep]
        v_fd = np.full(i_rec.shape[0], self.V_fd)
        if self.noise.std_vi or self.noise.std_vv:
            # recorded channels carry the measurement-noise model
            v_meas, i_rec = measure(np.column_stack([v_rec, v_fd]), i_rec,
                                    self.noise, rng=self.rng)
            v_rec = v_meas[:, :3]
        self._times.append(times[keep])
        self._rows.append(np.column_stack([
            i_rec, v_rec, i_f[keep],
            i6[keep, 3], p_tot[keep], p_loss[keep], v_fd]))

    def segment(self):
        """This macro step's samples: times, phase currents, phase voltages."""
        return tuple(np.concatenate(parts) for parts in zip(*self._seg))

    def phase_rms(self, window: float):
        """Trailing rms of phase voltages and currents over the last window."""
        ts, i_abc, v_abc = self.segment()
        i_rms = [rms_window(ts, i_abc[:, k], window) for k in range(3)]
        v_rms = [rms_window(ts, v_abc[:, k], window) for k in range(3)]
        return np.array(v_rms), np.array(i_rms)

    def fast_series(self) -> TimeSeries:
        names = tuple(n for n, _ in FAST_CHANNELS)
        units = tuple(u for _, u in FAST_CHANNELS)
        if self._rows:
            time, data = np.concatenate(self._times), np.concatenate(self._rows)
        else:
            time, data = np.empty(0), np.empty((0, len(names)))
        return TimeSeries(names=names, units=units, time=time, data=data)


@dataclass
class JointResult:
    fast: TimeSeries
    slow: TimeSeries
    audit: EnergyAudit
    gasgen_state: GasGenState
    machine_state: WrsgState
    governor: GovernorState
    avr: AvrState


HOOKS = {
    "none": None,
    "identity": lambda x: x,
}


def make_speed_noise_hook(std_rpm: float, rng):
    """State-process hook adding Gaussian noise to the spool-speed state."""
    def hook(x: GasGenState) -> GasGenState:
        return GasGenState(N=x.N + rng.normal(0.0, std_rpm))
    return hook


@dataclass
class JointSetup:
    """Everything run_joint needs, pre-trimmed at the initial condition."""
    gg_params: GasGenParams
    machine: WrsgParams
    load: LoadModel
    coupling: CouplingParams
    governor: GovernorState
    avr: AvrState
    ambient: tuple                      # (altitude, mach, dT_ISA)
    health_schedule: tuple              # ((time, HealthParams), ...)
    fault_schedule: tuple               # ((time, FaultParams), ...)
    machine_noise: NoiseConfig
    gasgen_noise: dict
    hook: object
    duration: float
    macro_dt: float
    stepper: StepperOptions
    decimation: int
    seed: int


def run_joint(setup: JointSetup) -> JointResult:
    """Run the coupled simulation; deterministic for a fixed setup and seed."""
    if setup.macro_dt <= 0:
        raise ValueError("macro_dt must be positive")
    n_steps = round(setup.duration / setup.macro_dt)
    if abs(n_steps * setup.macro_dt - setup.duration) > 1e-9:
        raise ValueError("duration must be a multiple of macro_dt")

    ss = np.random.SeedSequence(setup.seed)
    rng_machine, rng_gg, rng_hook = [np.random.default_rng(s) for s in ss.spawn(3)]
    hook = setup.hook
    if callable(hook) and getattr(hook, "needs_rng", False):
        hook = hook(rng_hook)

    gg = setup.gg_params
    coupling = setup.coupling
    alt, mach, disa = setup.ambient
    dt = setup.macro_dt

    # initial condition: governor setpoint speed, machine in steady state at
    # the trimmed field voltage, fuel trimmed so the engine carries the load
    n0 = setup.governor.N_set
    w_sg, w_e = coupling_speed(n0, coupling, setup.machine.pole_pairs)
    r0 = setup.load.resistance_at(0.0)
    v_fd0 = field_voltage_for_terminal(setup.machine, r0, w_e,
                                       setup.avr.V_set)
    mstate = steady_state(setup.machine, r0, v_fd0, w_e)
    track = _MachineTrack(setup.machine, setup.load, setup.fault_schedule,
                          setup.machine_noise, setup.stepper,
                          setup.decimation, rng_machine)
    track.start(mstate.as_array())
    health = HEALTHY
    health_sched = sorted(setup.health_schedule, key=lambda s: s[0])
    for t_sw, hp in health_sched:
        if t_sw <= 0.0:
            health = hp
    sys0 = track._system(0.0, None)
    p0 = sys0.terminal(track.state)[4]
    pe0 = p0 / coupling.eta_gtTsg
    wf0 = trim_fuel(gg, n0, pe0, health, altitude=alt, mach=mach, dT_ISA=disa)
    governor = replace(setup.governor,
                       integral=wf0 - setup.governor.wf_ff, prev_wf=wf0)
    avr = replace(setup.avr, integral=v_fd0)
    x = GasGenState(N=n0)
    wf = wf0
    v_fd = v_fd0
    guess = None
    period = 1.0 / (setup.machine.f_n)

    slow_names = tuple(n for n, _ in OUTPUT_CHANNELS) + tuple(n for n, _ in SLOW_EXTRA)
    slow_units = tuple(u for _, u in OUTPUT_CHANNELS) + tuple(u for _, u in SLOW_EXTRA)
    slow_t, slow_rows = [], []

    audit_e, audit_tr = [], []

    for k in range(1, n_steps + 1):
        t0, t1 = (k - 1) * dt, k * dt
        # (a) machine over the macro step with held speed
        w_sg, w_e = coupling_speed(x.N, coupling, setup.machine.pole_pairs)
        energy = track.advance(t0, t1, w_e, v_fd)
        # (b) power transfer
        pe_gt = coupling_power(track.acc, dt, coupling.eta_gtTsg)
        # (c) health swap at the boundary, then spool update
        for t_sw, hp in health_sched:
            if t0 <= t_sw < t1:
                health = hp
        u = GasGenInput(wf=wf, altitude=alt, mach=mach, dT_ISA=disa)
        x = state_update(gg, x, u, health, pe_gt, dt=dt, guess=guess)
        # (d) externally processed state
        if hook is not None:
            x = hook(x)
        # (e) outputs and regulators
        sol = off_design_solve(gg, u, health, Pe=pe_gt, N=x.N, guess=guess)
        guess = np.array([sol.beta, sol.turbine_pr / gg.tmap.pr_design])
        out = outputs_from_solution(sol)
        if setup.gasgen_noise:
            for name, std in setup.gasgen_noise.items():
                if std:
                    out[name] = out[name] + rng_gg.normal(0.0, std)
        wf, governor = governor_step(governor, out["XNHPC"], dt)
        v_rms_phases, _ = track.phase_rms(period)
        v_rms = float(np.mean(v_rms_phases))
        v_fd, avr = avr_step(avr, v_rms, dt)
        # (f) record; the speed handed back next step comes from the new x
        extra = (u.wf, pe_gt, energy, energy - pe_gt * dt * coupling.eta_gtTsg,
                 v_rms, v_fd, setup.load.scale_at(t1),
                 track.fault.mu, track.fault.k_rf,
                 health.eta_c_factor, health.flow_c_factor,
                 health.eta_t_factor, health.flow_t_factor)
        slow_t.append(t1)
        slow_rows.append(tuple(out[n] for n, _ in OUTPUT_CHANNELS) + extra)
        audit_e.append(energy)
        audit_tr.append(pe_gt * dt * coupling.eta_gtTsg)

    slow = TimeSeries(names=slow_names, units=slow_units,
                      time=np.array(slow_t), data=np.array(slow_rows))
    audit_e = np.array(audit_e)
    audit_tr = np.array(audit_tr)
    audit = EnergyAudit(time=np.array(slow_t), machine_energy=audit_e,
                        transferred=audit_tr, residual=audit_e - audit_tr)
    return JointResult(fast=track.fast_series(), slow=slow, audit=audit,
                       gasgen_state=x, machine_state=WrsgState.from_array(track.state),
                       governor=governor, avr=avr)


@dataclass
class GeneratorRunResult:
    fast: TimeSeries
    rms_table: dict
    machine_state: WrsgState
    avr: AvrState


def run_generator(machine: WrsgParams, load: LoadModel, avr: AvrState,
                  speed_rpm: float, duration: float,
                  fault_schedule=(), noise: NoiseConfig = NoiseConfig(),
                  stepper: StepperOptions | None = None, decimation: int = 1,
                  seed: int = 0, control_dt: float = 0.02) -> GeneratorRunResult:
    """Machine-only run at fixed shaft speed with the AVR active."""
    n_steps = round(duration / control_dt)
    if n_steps < 1 or abs(n_steps * control_dt - duration) > 1e-9:
        raise ValueError("duration must be a positive multiple of control_dt")
    stepper = stepper or StepperOptions(
        relative_tolerance=1e-5, absolute_tolerance=1e-6,
        initial_step=1e-6, max_step=1e-4)
    w_e = speed_rpm * math.pi / 30.0 * machine.pole_pairs
    rng = np.random.default_rng(seed)
    r0 = load.resistance_at(0.0)
    v_fd = field_voltage_for_terminal(machine, r0, w_e, avr.V_set)
    avr = replace(avr, integral=v_fd)
    track = _MachineTrack(machine, load, fault_schedule, noise, stepper,
                          decimation, rng)
    track.start(steady_state(machine, r0, v_fd, w_e).as_array())
    period = 1.0 / machine.f_n
    for k in range(1, n_steps + 1):
        track.advance((k - 1) * control_dt, k * control_dt, w_e, v_fd)
        v_rms, _ = track.phase_rms(period)
        v_fd, avr = avr_step(avr, float(np.mean(v_rms)), control_dt)
    v_rms, i_rms = track.phase_rms(period)
    ts, _, v_abc = track.segment()
    vab, vbc, vca = (v_abc - np.roll(v_abc, -1, axis=1)).T
    rms_table = {
        "Phase A Voltage": v_rms[0], "Phase B Voltage": v_rms[1],
        "Phase C Voltage": v_rms[2],
        "AB Line Voltage": rms_window(ts, vab, period),
        "BC Line Voltage": rms_window(ts, vbc, period),
        "CA Line Voltage": rms_window(ts, vca, period),
        "Phase A Current": i_rms[0], "Phase B Current": i_rms[1],
        "Phase C Current": i_rms[2],
    }
    return GeneratorRunResult(fast=track.fast_series(), rms_table=rms_table,
                              machine_state=WrsgState.from_array(track.state),
                              avr=avr)


@dataclass
class TransientRunResult:
    slow: TimeSeries
    gasgen_state: GasGenState


def run_gasgen_transient(gg: GasGenParams, x0: GasGenState, wf_of_t,
                         load_law, health: HealthParams = HEALTHY,
                         duration: float = 10.0, macro_dt: float = 0.02,
                         ambient=(0.0, 0.0, 5.0)) -> TransientRunResult:
    """Gas-generator-only transient: fuel schedule against a shaft load law."""
    alt, mach, disa = ambient
    n_steps = round(duration / macro_dt)
    x = x0
    guess = None
    names = tuple(n for n, _ in OUTPUT_CHANNELS) + ("wf", "Pe")
    units = tuple(u for _, u in OUTPUT_CHANNELS) + ("kg/s", "kW")
    ts, rows = [], []
    for k in range(1, n_steps + 1):
        t0, t1 = (k - 1) * macro_dt, k * macro_dt
        wf = wf_of_t(t0)
        pe = load_law(x.N)
        u = GasGenInput(wf=wf, altitude=alt, mach=mach, dT_ISA=disa)
        x = state_update(gg, x, u, health, pe, dt=macro_dt, guess=guess)
        sol = off_design_solve(gg, u, health, Pe=pe, N=x.N, guess=guess)
        guess = np.array([sol.beta, sol.turbine_pr / gg.tmap.pr_design])
        out = outputs_from_solution(sol)
        ts.append(t1)
        rows.append(tuple(out[n] for n, _ in OUTPUT_CHANNELS) + (wf, pe))
    slow = TimeSeries(names=names, units=units, time=np.array(ts),
                      data=np.array(rows))
    return TransientRunResult(slow=slow, gasgen_state=x)
