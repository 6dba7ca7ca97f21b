"""Multi-rate orchestrator: continuous machine integration inside each fixed
gas-generator macro step (the exact propagator of the affine flux equations
on healthy segments, on the uniform max_step grid; a sixth-order Magnus
integrator on faulted ones, on a grid of n steps per electrical period, at
most max_step each, so that only one period's propagators are computed;
both marched in blocks, of one step healthy and of n faulted, whose starts
are reached by doubling and whose states are one batched product; a
segment whose system differs from the last one's only in its field
voltage marches that one's propagators), with power/speed coupling rules,
spool-speed state noise, and per-step energy bookkeeping.

Per macro step k the loop (a) integrates the machine over [t_{k-1}, t_k]
with the speed held from the last gas-generator update and the field
voltage from the last AVR update, accumulating its shaft power, then runs
the AVR on the step's phase-voltage rms (_MachineTrack.advance), (b)
converts the accumulated energy into the gas-generator load, (c) applies
the step's health swap, updates the spool state from the cycle match at
(N_{k-1}, wf_{k-1}) and adds the state noise, a normal draw of width
state_noise_rpm from the run's third seeded stream (SpoolTrack.advance),
(d) runs the governor on the speed plus its output-noise draw, before (e)
the one cycle match at (N_k, wf_k), started from the spool update's last
(half-step) match, which gives the row's outputs and the next step's first
match (SpoolTrack.match), then (f) hands the new speed back to the machine
as a zero-order hold.  The gas-generator transient runs (c) and (e) on the
same spool track, with a load law and a fuel schedule in place of (a), (b)
and (d).  Machine events, TTSC faults and load steps, act at their times on
the fast track, one within 1e-9 of a step of a macro boundary on that
boundary; gas-path health swaps act from the boundary at or before their
times, where the spool update re-solves its first match at the new health
(as it does any match made at another speed or fuel flow).
"""
from __future__ import annotations

import copy
import math
import mmap
from dataclasses import astuple, dataclass, replace

import numpy as np

from .control import AvrState, GovernorState, avr_step, governor_step
from .errors import UsageError
from .gasgen import (
    GasGenInput,
    GasGenParams,
    GasGenState,
    HEALTHY,
    state_update,
)
from .gasgen.engine import (MAX_SPEED_RATIO, OUTPUT_CHANNELS, SpeedOutOfRange, output,
                             trim_fuel)
from .numerics import NonFiniteDerivative, StepperOptions, StepUnderflow, expm
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
from .wrsg.dynamics import harmonic_weights
from .wrsg.machine import IDX_THETA, build_L


@dataclass(frozen=True)
class CouplingParams:
    eta_gtTsg: float = 1.0                 # power-transfer efficiency
    omega_gtTsg: float = 36050.0 / 12000.0  # gearbox speed ratio (gas gen / generator)

    def __post_init__(self):
        if not 0 < self.eta_gtTsg <= 1:
            raise ValueError("eta_gtTsg must lie in (0, 1]")
        if self.omega_gtTsg <= 0:
            raise ValueError("omega_gtTsg must be positive")


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
    """Recompute the per-step power-balance residual from recorded channels.

    run_joint defines Pe_gt as seg_energy / (macro_dt eta_gtTsg), so the
    residual checks only that transfer's bookkeeping and reads 0 up to
    rounding; it cannot see a wrong energy sum. The trapezoid sum itself is
    checked against the recorded shaft power at decimation 1 by
    test_coupling_power_efficiency."""
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
    # the load scale and the TTSC fault in force at the row's time
    ("load_scale", "-"), ("mu", "-"), ("k_rf", "-"),
    ("eta_c_f", "-"), ("flow_c_f", "-"), ("eta_t_f", "-"), ("flow_t_f", "-"),
)


def _record_buffer(rows: int) -> np.ndarray:
    """A buffer of `rows` rows of time and FAST_CHANNELS, the CSV's columns,
    in an anonymous shared map: a child forked in the run sees the rows
    recorded after the fork, and freeing it leaves glibc's mmap threshold as
    it was, which a reader of the fast CSV growing its array in the heap
    would otherwise pass. A map has at least one byte, so 0 rows map one."""
    shape = (rows, 1 + len(FAST_CHANNELS))
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), count=size).reshape(shape)


# three-point Gauss-Legendre nodes on [0, 1]
_GAUSS_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
# sub-steps per batch of Magnus exponentials: bounds the (batch, 8, 8)
# temporaries, and so the memory, whatever the segment's length
MAGNUS_CHUNK = 128
# the most sub-steps per grid step, so h / MAGNUS_MAX_SUBSTEPS is the smallest
# sub-step allowed: the estimate falls by 1024^5 ~ 1e15 up to there, so only
# a tolerance near rounding level needs more
MAGNUS_MAX_SUBSTEPS = 1024


def _grid(ta: float, tb: float, h: float):
    """The uniform grid ta + k h over (ta, tb], its last step clipped to end
    on tb: (times, start of the last step)."""
    n = max(1, math.ceil((tb - ta) / h - 1e-9))
    times = ta + h * np.arange(1, n + 1)
    times[-1] = tb
    return times, times[-2] if n > 1 else ta


def _period_grid(w_e: float, max_step: float):
    """(h, n): the electrical period T_e = 2 pi / |w_e| cut into the fewest
    n equal steps h = T_e / n that are at most max_step (to a 1e-9 rounding
    allowance), so A(theta(t)) repeats every n steps; (max_step, inf) when
    there is no period, at w_e = 0 or one beyond float range."""
    period = 2.0 * math.pi / abs(w_e) if w_e else math.inf
    if math.isinf(period):
        return max_step, math.inf
    n = max(1, math.ceil(period / max_step - 1e-9))
    return period / n, n


def _prefix_products(steps):
    """Prefix products Phi_1..Phi_b of the step propagators E_0..E_b-1,
    Phi_j = E_j-1 ... E_0, as a log-depth scan of batched products (Hillis
    & Steele 1986)."""
    phi = np.array(steps)
    d = 1
    while d < len(phi):
        phi[d:] = phi[d:] @ phi[:-d]
        d *= 2
    return phi


def _march(sys_, y, ta, times, prefix, last, forcing=1.0):
    """States on `times` from y at ta. The augmented vector z = (the seven
    fluxes, forcing) crosses the full steps in blocks of b = len(prefix)
    steps, prefix[j] being the propagator over j + 1 steps from a block's
    start: the block starts z_0, B z_0, B^2 z_0, ..., B = prefix[-1], are
    reached by doubling, B^(2^i) taking the first 2^i of them to the next
    2^i, and then one batched product of prefix with them gives every full
    step's state; `last` takes the last one over the last step. The
    propagators' forcing columns, linear in b (Van Loan 1978), enter only
    times z's last entry, which their unit last rows keep, so `forcing`
    scales them. theta = theta0 + w_e (t - ta)."""
    full = times.size - 1
    states = np.empty((times.size, 8))
    z = np.append(y[:7], forcing)
    if full:
        blocks = -(-full // len(prefix))
        # the block starts as columns: a product with an 8 x 8 propagator on
        # the left has the same bits under every FMA kernel of OpenBLAS,
        # whatever the columns' count, unlike one on the right
        starts = np.empty((8, blocks))
        starts[:, 0] = z
        found, power = 1, prefix[-1]
        while found < blocks:
            more = min(found, blocks - found)
            starts[:, found:found + more] = power @ starts[:, :more]
            found += more
            if found < blocks:
                power = power @ power
        # (b, 8, blocks): step j + 1 of block i goes to row i b + j
        filled = (prefix @ starts).transpose(2, 0, 1).reshape(-1, 8)
        states[:full, :7] = filled[:full, :7]
        z = filled[full - 1]
    states[-1, :7] = (last @ z)[:7]
    states[:, IDX_THETA] = y[IDX_THETA] + sys_.w_e * (times - ta)
    return states


def _commutator(x, y):
    """x y - y x, in a new array."""
    c = x @ y
    c -= y @ x
    return c


def _magnus_exponents(basis, b, theta0, w_e, ta, starts, dt):
    """Order-6 Magnus exponents of the augmented generator [[A, b], [0, 0]]
    over the sub-steps [starts, starts + dt], from A at each one's three
    Gauss-Legendre nodes, and their differences from the order-4 exponents
    of the same nodes (Blanes, Casas, Oteo & Ros 2009, Phys. Rep. 470).

    A at the nodes is taken sub-step by sub-step, then laid out node-major,
    so that each node's stack is contiguous; the terms are then updated in
    place, each operation the one the formulas in the comments make, in
    their order."""
    t = starts[:, None] + dt[:, None] * _GAUSS_NODES
    a = harmonic_weights(theta0 + w_e * (t - ta)) @ basis
    gen = np.zeros((3, starts.size, 8, 8))
    gen[..., :7, :7] = np.swapaxes(a.reshape(starts.size, 3, 7, 7), 0, 1)
    gen[..., :7, 7] = b
    g0, g1, g2 = gen
    d = dt[:, None, None]
    # a1 = d g1; a2 = (sqrt(15) / 3) d (g2 - g0); a3 = (10 / 3) d (g2 - 2 g1 + g0)
    a1 = d * g1
    a2 = g2 - g0
    a2 *= (math.sqrt(15.0) / 3.0) * d
    g1 *= 2.0
    np.subtract(g2, g1, out=g2)
    g2 += g0
    g2 *= (10.0 / 3.0) * d
    a3 = g2
    # c1 = [a1, a2]; c2 = [a1, 2 a3 + c1] / -60
    c1 = _commutator(a1, a2)
    x = np.multiply(a3, 2.0, out=g1)
    x += c1
    c2 = _commutator(a1, x)
    c2 /= -60.0
    # high = [-20 a1 - a3 + c1, a2 + c2] / 240
    u = np.multiply(a1, -20.0, out=g0)
    u -= a3
    u += c1
    c2 += a2
    high = _commutator(u, c2)
    high /= 240.0
    # the order-4 exponent is a1 + a3/12 - c1/12: (a1 + a3/12 + high, high + c1/12)
    a3 /= 12.0
    a3 += a1
    a3 += high
    c1 /= 12.0
    c1 += high
    return a3, c1


def _finite(x, starts):
    """x, stacked along the sub-steps that begin at `starts`; a non-finite
    entry raises NonFiniteDerivative at its sub-step, naming its row."""
    bad = ~np.isfinite(x)
    if bad.any():
        k, row = np.argwhere(bad)[0][:2]
        raise NonFiniteDerivative(float(starts[k]), int(row))
    return x


def _error_estimates(diff, y, forcing, rtol: float, atol):
    """Each sub-step's embedded error estimate |(Omega6 - Omega4) z| over
    atol + rtol |lam|, channel by channel, z = (the fluxes of y, forcing)."""
    return np.abs(diff[:, :7] @ np.append(y[:7], forcing)) / (atol + rtol * np.abs(y[:7]))


def _substep_count(worst: float) -> int:
    """The smallest power of two m with worst <= m^5, where that is at most
    MAGNUS_MAX_SUBSTEPS, else 2 MAGNUS_MAX_SUBSTEPS."""
    m = 1
    while worst > m ** 5 and m <= MAGNUS_MAX_SUBSTEPS:
        m *= 2
    return m


@dataclass
class _Propagators:
    """A segment's propagators as _build builds them and propagate marches
    them again for a segment that differs from theirs only in V_fd
    (_reusable)."""
    system: tuple           # (w_e, R_load, fault, grid steps)
    last_h: float           # the last step's length
    V_fd: float             # the field voltage of their forcing columns
    theta: float            # the start angle
    prefix: np.ndarray      # over 1..b steps from a block's start (b: 1 healthy, n faulted)
    last: np.ndarray        # over the last step
    m: int = 0              # sub-steps per grid step, when faulted
    diff: np.ndarray | None = None  # Omega6 - Omega4 at m = 1, when faulted


def _reusable(kept: _Propagators | None, sys_: ElectricalSystem, y, size: int,
              last_h: float, h: float, stepper: StepperOptions) -> bool:
    """Whether the kept propagators serve a segment of `size` grid steps h,
    the last one last_h long, from y on sys_: whether the two systems differ
    only in V_fd (the same w_e, R_load and fault, no equation noise, the
    same grid to _grid's 1e-9 h allowance, and a kept V_fd other than 0 to
    scale their forcing columns from) and, when faulted, the start
    angle repeats the kept one's mod 2 pi to 1e-9 of a step's angle and the
    error estimate re-taken from y and the kept differences, their forcing
    columns scaled to sys_.V_fd, picks the kept m."""
    if (kept is None or kept.system != (sys_.w_e, sys_.R_load, sys_.fault, size)
            or sys_.noise_w.any() or not kept.V_fd
            or abs(last_h - kept.last_h) > 1e-9 * h):
        return False
    if kept.diff is None:
        return True
    turn = math.remainder(y[IDX_THETA] - kept.theta, 2.0 * math.pi)
    if not abs(turn) <= 1e-9 * abs(sys_.w_e) * h:
        return False
    worst = float(np.max(_error_estimates(
        kept.diff, y, sys_.V_fd / kept.V_fd, stepper.relative_tolerance,
        stepper.absolute_tolerance)))
    return math.isfinite(worst) and _substep_count(worst) == kept.m


def _build(sys_: ElectricalSystem, y, ta: float, times, t_last: float, h: float,
           n, stepper: StepperOptions) -> _Propagators:
    """The propagators of a segment from y at ta on the grid `times`, whose
    full steps are h long and n to an electrical period, the last one from
    t_last: those of _march's blocks, as prefix products, and the last
    step's.

    Healthy, the full steps share P = exp([[A, b], [0, 0]] h), A the
    constant matrix of sys_.basis, so a block is the one step P; the last
    step reuses P when within _grid's 1e-9 h of h. Faulted, a block is the
    first period's full steps (at most n), step j's propagator is step
    (j mod n)'s, and each computed step is the product of the exponentials
    of the sixth-order Magnus exponents of its m equal sub-steps, in
    batches of MAGNUS_CHUNK sub-steps (of one grid step's when it has
    more). m is the smallest power of two at which every sub-step's embedded
    error estimate |(Omega6 - Omega4) z| meets atol + rtol |lam| channel by
    channel, z the state at ta: the estimate is taken with one sub-step per
    computed step, on the same starts and lengths, and divided by m^5, its
    order in the step length; at m = 1 its exponents are the steps' own. A
    tolerance that needs more than MAGNUS_MAX_SUBSTEPS raises StepUnderflow."""
    last_h = times[-1] - t_last
    k = min(n, times.size - 1)
    m, diff = 0, None
    if not sys_.fault.active:
        gen = np.zeros((8, 8))
        gen[:7, :7] = sys_.basis[0].reshape(7, 7)
        gen[:7, 7] = sys_.b
        step = expm(gen * h)
        last = step if abs(last_h - h) <= 1e-9 * h else expm(gen * last_h)
        prefix = step[None]
    else:
        # the exponents' arguments that hold over the segment
        segment = (sys_.basis, sys_.b, y[IDX_THETA], sys_.w_e, ta)
        starts = np.append(ta + h * np.arange(k), t_last)
        lengths = np.append(np.full(k, h), last_h)
        # one sub-step per computed step, in the chunks that m = 1 takes
        estimate = [_magnus_exponents(*segment, starts[i:i + MAGNUS_CHUNK],
                                      lengths[i:i + MAGNUS_CHUNK])
                    for i in range(0, starts.size, MAGNUS_CHUNK)]
        diff = np.concatenate([d for _, d in estimate])
        err = _finite(_error_estimates(diff, y, 1.0, stepper.relative_tolerance,
                                       stepper.absolute_tolerance), starts)
        m = _substep_count(float(np.max(err)))
        if m > MAGNUS_MAX_SUBSTEPS:
            raise StepUnderflow(ta, h / m, h / MAGNUS_MAX_SUBSTEPS)
        dt = lengths / m
        sub = (starts[:, None] + dt[:, None] * np.arange(m)).ravel()
        dt = np.repeat(dt, m)
        size = max(1, MAGNUS_CHUNK // m) * m
        steps = []
        for j, i in enumerate(range(0, sub.size, size)):
            part = slice(i, i + size)
            omega = (estimate[j][0] if m == 1
                     else _magnus_exponents(*segment, sub[part], dt[part])[0])
            e = _finite(expm(_finite(omega, sub[part])), sub[part])
            # each grid step's sub-step exponentials, later ones on the left
            e = e.reshape(-1, m, 8, 8)
            while e.shape[1] > 1:
                e = e[:, 1::2] @ e[:, 0::2]
            steps.append(e[:, 0])
        steps = np.concatenate(steps)
        prefix, last = _prefix_products(steps[:-1]), steps[-1]
    return _Propagators((sys_.w_e, sys_.R_load, sys_.fault, times.size), last_h,
                        sys_.V_fd, y[IDX_THETA], prefix, last, m, diff)


def propagate(sys_: ElectricalSystem, y, ta: float, tb: float,
              stepper: StepperOptions, kept: _Propagators | None = None):
    """Solution of a segment from y at ta to tb: (times, states, the
    propagators it marched), the start excluded.

    Speed, field voltage, load, fault and equation noise are held, so the
    seven fluxes obey d lam/dt = A(theta(t)) lam + b with theta = theta0 +
    w_e (t - ta). Healthy, A is constant with a zero lam_f row, and the grid
    is the uniform ta + k max_step. A shorted stator turn makes A depend on
    the rotor angle, and the grid is locked to the electrical period T_e:
    steps of T_e / n from ta, n the fewest per period that are at most
    max_step. Either grid's last step is clipped to end on tb. The march
    crosses n steps per batched product; it takes `kept`, its forcing
    columns scaled by sys_.V_fd / kept.V_fd, where _reusable allows, else
    the propagators _build builds.
    """
    h, n = _period_grid(sys_.w_e, stepper.max_step)
    if not sys_.fault.active:
        h = stepper.max_step
    times, t_last = _grid(ta, tb, h)
    if _reusable(kept, sys_, y, times.size, tb - t_last, h, stepper):
        props, forcing = kept, sys_.V_fd / kept.V_fd
    else:
        props, forcing = _build(sys_, y, ta, times, t_last, h, n, stepper), 1.0
    return times, _march(sys_, y, ta, times, props.prefix, props.last, forcing), props


class FieldVoltageOutOfRange(UsageError):
    """A steady start whose field voltage the AVR cannot give."""


class _MachineTrack:
    """The machine half of a macro step with its AVR: owns the electrical
    state, its steady start, the machine events (TTSC faults and load
    steps), the AVR state, the held field voltage V_fd, the macro step's
    shaft energy and phase-voltage rms, the recorder, the rms buffers and
    the propagators of its last noise-free segment; `noise` draws from
    `rng`, which may be None where all its widths are 0. The run's `duration`
    and top electrical speed w_e_max size the recorder (fast_sample_bound)."""

    def __init__(self, params: WrsgParams, load: LoadModel,
                 fault_schedule, noise: NoiseConfig, stepper: StepperOptions,
                 decimation: int, rng, avr: AvrState, dt: float, duration: float,
                 w_e_max: float):
        if decimation < 1:
            raise ValueError("decimation must be an integer >= 1")
        self.params = params
        self.load = load
        # the inductance model of every ElectricalSystem the track builds
        self.model = build_L(params, load.L_phase)
        # the events still to act, by time: a FaultParams or a load scale each
        self.events = sorted([*fault_schedule, *load.schedule], key=lambda e: e[0])
        self.noise = noise
        self.stepper = stepper
        self.decimation = decimation
        self.rng = rng
        self.avr = avr
        self.dt = dt               # the macro step, the AVR's control period
        # the AVR's rms window, one electrical period at the rated frequency
        self.window = 1.0 / params.f_n
        self.fault = HEALTHY_FAULT
        self.scale = 1.0           # the load's admittance scale
        self.state = None          # state array and V_fd: set by start()
        self.v_rms = None          # per-phase rms of the last step: set by advance()
        self.v_mean = None         # their mean, the AVR's input: set by advance()
        # the recorder's buffer, its rows recorded and the samples passed to it
        samples = fast_sample_bound(duration, dt, stepper.max_step, w_e_max, len(self.events))
        self._rows = _record_buffer(samples // decimation)
        self._recorded = 0
        self._count = 0
        self._seg = []             # this macro step's (times, i_abc, v_abc) chunks
        self._kept = None          # the last noise-free segment's propagators
        # called with the buffer and _recorded after each block recorded, or None
        self.sink = None

    def start(self, w_e: float) -> float:
        """Start at electrical speed w_e from the healthy steady state whose
        phase rms is the AVR's V_set, with every event at t <= 0 applied,
        and seed the AVR integral with its field voltage; returns the
        start's shaft power, kW. A start whose field voltage is not finite
        or above the AVR's limit V_fd_max raises FieldVoltageOutOfRange."""
        fault_on = self._apply_events(0.0)
        speed_rpm = w_e * 30.0 / (math.pi * self.params.pole_pairs)
        r0, l0 = self.load.resistance(self.scale, speed_rpm), self.load.L_phase
        v_set, v_fd_max = self.avr.V_set, self.avr.V_fd_max
        self.V_fd = field_voltage_for_terminal(self.params, r0, w_e, v_set, l0)
        if not self.V_fd <= v_fd_max:
            raise FieldVoltageOutOfRange(
                f"the steady start at {v_set:g} V rms needs a field voltage of "
                f"{self.V_fd:.6g} V, above the AVR's limit of {v_fd_max:g} V")
        self.avr = replace(self.avr, integral=self.V_fd)
        st = steady_state(self.params, r0, self.V_fd, w_e, L_load=l0)
        self.state = (seed_fault_flux(st, self.fault, self.params) if fault_on
                      else st).as_array()
        sys_ = ElectricalSystem(self.params, self.load, self.fault, w_e, self.V_fd, r0,
                                model=self.model)
        return float(sys_.terminal(self.state[None])[4][0])

    def _apply_events(self, t: float) -> bool:
        """Apply the events at or before t, each setting the fault or the
        load scale; returns whether they switch a fault on, whose flux the
        caller then seeds."""
        was_active = self.fault.active
        while self.events and self.events[0][0] <= t:
            _, event = self.events.pop(0)
            if isinstance(event, FaultParams):
                self.fault = event
            else:
                self.scale = event
        return self.fault.active and not was_active

    def advance(self, k: int, w_e: float) -> float:
        """Macro step k: integrate the machine over [(k - 1) dt, k dt] at the
        held field voltage, then run the AVR on the per-phase rms over one
        electrical period, kept as v_rms, giving the next step's V_fd;
        returns the step's shaft energy, kJ, the trapezoid sum of the shaft
        power over the samples from (k - 1) dt.

        An event acts at its time, except that one within 1e-9 dt after the
        step's start or after the event before it acts there, and one within
        that before the step's end acts on it. Where events act a segment on
        a new system starts, its first power sample taken again, so the
        trapezoid splits there as at a macro boundary: each segment's start
        state is evaluated with its samples, in one terminal call."""
        t0, t1 = (k - 1) * self.dt, k * self.dt
        self._seg = []
        noise_w = None
        if self.noise.std_w1 or self.noise.std_w2:
            noise_w = np.concatenate([
                self.rng.normal(0.0, self.noise.std_w1, 3) if self.noise.std_w1 else np.zeros(3),
                self.rng.normal(0.0, self.noise.std_w2, 3) if self.noise.std_w2 else np.zeros(3)])
        speed_rpm = w_e * 30.0 / (math.pi * self.params.pole_pairs)
        tol = 1e-9 * (t1 - t0)
        y, ta, self._energy = self.state, t0, 0.0
        while True:
            if self._apply_events(ta + tol):
                y = seed_fault_flux(WrsgState.from_array(y), self.fault,
                                    self.params).as_array()
            if ta == t1:
                break
            sys_ = ElectricalSystem(self.params, self.load, self.fault, w_e, self.V_fd,
                                    self.load.resistance(self.scale, speed_rpm),
                                    noise_w=noise_w, model=self.model)
            tb = self.events[0][0] if self.events else t1
            tb = tb if tb < t1 - tol else t1
            y = self._run(sys_, y, ta, tb)
            ta = tb
        self.state = y
        # the AVR's rms reads the samples from the last at or before its
        # window's start on, which the last segment holds unless an event
        # fell in the window, as one C-contiguous (3, n) stack
        start = self._seg[-1][0][-1] - self.window
        ts, _, v_abc = self._seg[-1] if self._seg[-1][0][0] <= start else self.segment()
        k = max(int(np.searchsorted(ts, start, side="right")) - 1, 0)
        self.v_rms = rms_window(ts[k:], np.ascontiguousarray(v_abc[k:].T), self.window)
        v_a, v_b, v_c = self.v_rms.tolist()
        self.v_mean = (v_a + v_b + v_c) / 3.0      # np.mean's sum and division
        self.V_fd, self.avr = avr_step(self.avr, self.v_mean, self.dt)
        return self._energy

    def _run(self, sys_, y, ta, tb):
        times, states, kept = propagate(sys_, y, ta, tb, self.stepper, self._kept)
        if not sys_.noise_w.any():
            self._kept = kept
        self._record(sys_, y, ta, times, states)
        y = states[-1].copy()
        # wrap the electrical angle to keep trig arguments small
        y[IDX_THETA] = math.fmod(y[IDX_THETA], 2.0 * math.pi)
        return y

    def _record(self, sys_, y, ta, times, states):
        """Fast-track pass over one segment from y at ta: its shaft energy,
        the trapezoid sum over the start and the samples, the rms buffers
        and every decimation-th row of the recorded channels, after which
        the sink is called."""
        i_abc, v_abc, i_f, i6, p, p_loss = sys_.terminal(np.concatenate((y[None], states)))
        t = np.append(ta, times)
        self._energy += float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(t)))
        self._seg.append((times, i_abc[1:], v_abc[1:]))
        # the samples that bring the run's count to a multiple of decimation,
        # past the start's row
        keep = slice(1 + (-self._count - 1) % self.decimation, None, self.decimation)
        self._count += times.size
        i_rec, v_rec = i_abc[keep], v_abc[keep]
        if self.noise.std_vi or self.noise.std_vv:
            # recorded phase channels carry the measurement-noise model
            v_rec, i_rec = measure(v_rec, i_rec, self.noise, rng=self.rng)
        a, b = self._recorded, self._recorded + i_rec.shape[0]
        rows = self._rows[a:b]
        rows[:, 0], rows[:, 1:4], rows[:, 4:7] = t[keep], i_rec, v_rec
        rows[:, 7], rows[:, 8], rows[:, 9] = i_f[keep], i6[keep, 3], p[keep]
        rows[:, 10], rows[:, 11] = p_loss[keep], self.V_fd
        self._recorded = b
        if self.sink and b > a:
            self.sink(self._rows, b)

    def segment(self):
        """This macro step's samples: times, phase currents, phase voltages."""
        return tuple(np.concatenate(parts) for parts in zip(*self._seg))

    def fast_series(self) -> TimeSeries:
        """The track recorded so far, as column views of the buffer."""
        names, units = zip(*FAST_CHANNELS)
        rows = self._rows[:self._recorded]
        return TimeSeries(names=names, units=units, time=rows[:, 0], data=rows[:, 1:])


@dataclass
class JointResult:
    fast: TimeSeries
    slow: TimeSeries
    audit: EnergyAudit


def whole_steps(duration: float, dt: float) -> int | None:
    """The number of steps dt that make up duration, or None where that is
    not a whole number >= 1, to a rounding allowance of 1e-9 steps."""
    n = duration / dt if dt > 0.0 else math.nan
    if not math.isfinite(n) or round(n) < 1 or abs(n - round(n)) > 1e-9:
        return None
    return round(n)


# the most machine samples (fast_sample_bound) a run may take
MAX_FAST_STEPS = 1_000_000


def fast_sample_bound(duration: float, dt: float, max_step: float, w_e_max: float,
                      events: int):
    """The most machine samples of a run on macro steps dt with `events`
    machine events, at electrical speeds up to w_e_max: a faulted grid takes
    at most one step more per period than max_step does (_period_grid), and
    each segment, a macro step's or an event's, one more; inf past 2**62."""
    samples = duration * (1.0 / max_step + w_e_max / (2.0 * math.pi))
    segments = round(duration / dt) + events
    return math.ceil(samples) + segments if samples + segments < 2.0 ** 62 else math.inf


def joint_w_e_max(design_speed: float, coupling: CouplingParams,
                  pole_pairs: int) -> float:
    """The electrical speed no joint run passes: at the spool's limit, which
    holds its governor setpoint too (run_joint)."""
    return coupling_speed(MAX_SPEED_RATIO * design_speed, coupling, pole_pairs)[1]


class SpoolTrack:
    """The gas half of a macro step: owns the engine, its ambient (altitude,
    mach, dT_ISA), the gas-path health in force, its swaps, the spool state
    x, the last output match and the spool update's half-step match. A swap
    at t > 0 acts from the step that starts on the last boundary at or before
    t, found by index with a rounding allowance (0.7 s at 0.02 s steps:
    boundary 35, so step 36, although 35 * 0.02 > 0.7)."""

    def __init__(self, params: GasGenParams, ambient, health_schedule, dt: float):
        self.params, self.ambient, self.dt = params, ambient, dt
        self.health, self.swaps = HEALTHY, {}
        for t_sw, hp in sorted(health_schedule, key=lambda s: s[0]):
            if t_sw <= 0.0:
                self.health = hp
            else:
                self.swaps[math.floor(t_sw / dt + 1e-9) + 1] = hp

    def trim(self, N: float, pe: float) -> float:
        """Start at N rpm on the fuel trim for pe kW at the health at t = 0,
        whose match is the first update's; returns the trimmed fuel flow."""
        wf, self.sol = trim_fuel(self.params, N, pe, self.health, *self.ambient)
        self.x = GasGenState(N=N)
        return wf

    def advance(self, k: int, pe: float, wf: float, dn: float = 0.0) -> float:
        """Macro step k: its health swap, then the spool update at fuel flow
        wf against pe kW from the last match, plus the state-noise increment
        dn rpm; returns the new speed. A noised speed outside the update's
        range (0, MAX_SPEED_RATIO design speed] raises SpeedOutOfRange."""
        self.health = self.swaps.get(k, self.health)
        self.x, self.half = state_update(self.params, self.x, GasGenInput(wf, *self.ambient),
                                         self.health, pe, dt=self.dt, match=self.sol)
        if dn:
            n, n_max = self.x.N + dn, MAX_SPEED_RATIO * self.params.design_speed
            if not 0.0 < n <= n_max:
                raise SpeedOutOfRange(n, n_max)
            self.x = GasGenState(N=n)
        return self.x.N

    def match(self, wf: float) -> tuple:
        """The output row of the match at the spool speed and fuel flow wf,
        from the half-step match; it is the next update's first match."""
        out, self.sol = output(self.params, self.x, GasGenInput(wf, *self.ambient),
                               self.health, guess=self.half)
        return out


@dataclass
class JointSetup:
    """Everything run_joint needs; run_joint trims the start itself."""
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
    state_noise_rpm: float              # std of the spool-speed state noise
    duration: float
    macro_dt: float
    stepper: StepperOptions
    decimation: int
    seed: int


def run_joint(setup: JointSetup, sink=None) -> JointResult:
    """Run the coupled simulation; deterministic for a fixed setup and seed.
    `sink`, if given, is called with the fast track's buffer and its count
    of recorded rows after each block the machine track records, from the
    first macro step on."""
    n_steps = whole_steps(setup.duration, setup.macro_dt)
    if n_steps is None:
        raise ValueError("duration must be a positive multiple of macro_dt")
    # the first macro step runs at the setpoint, which the recorder's bound
    # (joint_w_e_max) takes to lie within the spool's range
    n_max = MAX_SPEED_RATIO * setup.gg_params.design_speed
    if setup.governor.N_set > n_max:
        raise ValueError(f"governor setpoint {setup.governor.N_set:g} rpm above "
                         f"the spool's limit of {n_max:g} rpm")

    # a generator for each stream that draws, each from its own spawned
    # child, so that a noise-free run makes none
    draws = (any(astuple(setup.machine_noise)), any(setup.gasgen_noise.values()),
             setup.state_noise_rpm != 0.0)
    rng_machine = rng_gg = rng_state = None
    if any(draws):
        children = np.random.SeedSequence(setup.seed).spawn(3)
        rng_machine, rng_gg, rng_state = [np.random.default_rng(child) if draw else None
                                          for draw, child in zip(draws, children)]

    coupling, dt = setup.coupling, setup.macro_dt

    # initial condition: governor setpoint speed, machine in steady state at
    # the trimmed field voltage, fuel trimmed so the engine carries the load
    w_e_max = joint_w_e_max(setup.gg_params.design_speed, coupling, setup.machine.pole_pairs)
    track = _MachineTrack(setup.machine, setup.load, setup.fault_schedule,
                          setup.machine_noise, setup.stepper, setup.decimation,
                          rng_machine, setup.avr, dt, setup.duration, w_e_max)
    spool = SpoolTrack(setup.gg_params, setup.ambient, setup.health_schedule, dt)
    _, w_e = coupling_speed(setup.governor.N_set, coupling, setup.machine.pole_pairs)
    p0 = track.start(w_e)
    wf = spool.trim(setup.governor.N_set, p0 / coupling.eta_gtTsg)
    governor = replace(setup.governor, integral=wf - setup.governor.wf_ff, prev_wf=wf)
    track.sink = sink

    slow_names = tuple(n for n, _ in OUTPUT_CHANNELS) + tuple(n for n, _ in SLOW_EXTRA)
    slow_units = tuple(u for _, u in OUTPUT_CHANNELS) + tuple(u for _, u in SLOW_EXTRA)
    slow_t, slow_rows = [], []

    for k in range(1, n_steps + 1):
        # (a) machine over the macro step with held speed, then its AVR
        _, w_e = coupling_speed(spool.x.N, coupling, setup.machine.pole_pairs)
        energy = track.advance(k, w_e)
        # (b) power transfer: the step's mean machine power over eta
        pe_gt = energy / (dt * coupling.eta_gtTsg)
        # (c) health swap at the boundary, spool update and state noise
        dn = rng_state.normal(0.0, setup.state_noise_rpm) if setup.state_noise_rpm else 0.0
        speed = spool.advance(k, pe_gt, wf, dn)
        # (d) output noise draws and the governor; (e) the match at (N_k, wf_k)
        noise = {n: rng_gg.normal(0.0, s) for n, s in setup.gasgen_noise.items() if s}
        wf, governor = governor_step(governor, speed + noise.get("XNHPC", 0.0), dt)
        out = spool.match(wf)
        # (f) record; the speed handed back next step comes from the spool
        health = spool.health
        extra = (wf, pe_gt, energy, energy - pe_gt * dt * coupling.eta_gtTsg,
                 track.v_mean, track.V_fd, track.scale, track.fault.mu, track.fault.k_rf,
                 health.eta_c_factor, health.flow_c_factor, health.eta_t_factor,
                 health.flow_t_factor)
        slow_t.append(k * dt)
        slow_rows.append(tuple(v + noise.get(n, 0.0)
                               for v, (n, _) in zip(out, OUTPUT_CHANNELS)) + extra)

    slow = TimeSeries(names=slow_names, units=slow_units,
                      time=np.array(slow_t), data=np.array(slow_rows))
    return JointResult(fast=track.fast_series(), slow=slow,
                       audit=energy_audit(slow, coupling.eta_gtTsg, dt))


@dataclass
class GeneratorRunResult:
    fast: TimeSeries
    rms_table: dict


# the AVR period of run_generator, and the stepper of its machine track
GENERATOR_CONTROL_DT = 0.02
GENERATOR_STEPPER = StepperOptions(relative_tolerance=1e-5, absolute_tolerance=1e-6,
                                   max_step=1e-4)


def run_generator(machine: WrsgParams, load: LoadModel, avr: AvrState,
                  speed_rpm: float, duration: float, fault_schedule=(),
                  decimation: int = 1, sink=None) -> GeneratorRunResult:
    """Noise-free machine-only run at fixed shaft speed with the AVR active;
    `sink` as run_joint's."""
    dt = GENERATOR_CONTROL_DT
    n_steps = whole_steps(duration, dt)
    if n_steps is None:
        raise ValueError(f"duration must be a positive multiple of {dt:g} s")
    w_e = speed_rpm * math.pi / 30.0 * machine.pole_pairs
    track = _MachineTrack(machine, load, fault_schedule, NoiseConfig(),
                          GENERATOR_STEPPER, decimation, rng=None, avr=avr, dt=dt,
                          duration=duration, w_e_max=w_e)
    track.start(w_e)
    track.sink = sink
    for k in range(1, n_steps + 1):
        track.advance(k, w_e)
    # the last step's segment: its voltage rms is the AVR's last input
    ts, i_abc, v_abc = track.segment()
    v_rms, window = track.v_rms, track.window
    i_rms = rms_window(ts, np.ascontiguousarray(i_abc.T), window)
    vab, vbc, vca = (v_abc - np.roll(v_abc, -1, axis=1)).T
    rms_table = {
        "Phase A Voltage": v_rms[0], "Phase B Voltage": v_rms[1],
        "Phase C Voltage": v_rms[2],
        "AB Line Voltage": rms_window(ts, vab, window),
        "BC Line Voltage": rms_window(ts, vbc, window),
        "CA Line Voltage": rms_window(ts, vca, window),
        "Phase A Current": i_rms[0], "Phase B Current": i_rms[1],
        "Phase C Current": i_rms[2],
    }
    return GeneratorRunResult(fast=track.fast_series(), rms_table=rms_table)


@dataclass
class TransientRunResult:
    slow: TimeSeries


def run_gasgen_transient(spool: SpoolTrack, wf_of_t, load_law,
                         duration: float) -> TransientRunResult:
    """Gas-generator-only transient: fuel schedule against a shaft load law,
    on a copy of the trimmed `spool`, so that each run starts from its trim.
    A fuel flow wf_of_t(0) other than the trim's acts from the first
    sub-step, where the spool update re-solves the trim's match at it."""
    n_steps = whole_steps(duration, spool.dt)
    if n_steps is None:
        raise ValueError("duration must be a positive multiple of macro_dt")
    spool = copy.copy(spool)
    names = tuple(n for n, _ in OUTPUT_CHANNELS) + ("wf", "Pe")
    units = tuple(unit for _, unit in OUTPUT_CHANNELS) + ("kg/s", "kW")
    ts, rows = [], []
    wf = wf_of_t(0.0)
    for k in range(1, n_steps + 1):
        t1 = k * spool.dt
        pe = load_law(spool.x.N)
        spool.advance(k, pe, wf)
        wf = wf_of_t(t1)
        ts.append(t1)
        rows.append(spool.match(wf) + (wf, pe))
    slow = TimeSeries(names=names, units=units, time=np.array(ts),
                      data=np.array(rows))
    return TransientRunResult(slow=slow)
