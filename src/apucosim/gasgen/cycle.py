"""0-D component-level cycle of the single-shaft turboshaft gas generator.

Station numbering: 0 ambient, 1 intake entrance, 2 compressor inlet,
3 compressor outlet, 31 burner inlet (after bleed extraction), 4 burner
outlet, 41 turbine inlet (NGV cooling returned), 5 turbine outlet (rotor
cooling returned), 6 exhaust inlet, 8 exhaust outlet.  Pressures are total
kPa except where a static value is named explicitly; the station-1 pressure
is reported as free-stream static, matching the reference deck convention.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ..errors import NumericalFailure, UsageError
from ..numerics import NonConvergence, newton_solve
from . import properties as gas
from .maps import CompressorMap, PressureRatioBelowUnity, TurbineMap

P_STD = 101.325     # kPa
T_STD = 288.15      # K
_ISA_LAPSE = 0.0065
_ISA_EXP = 9.80665 / (_ISA_LAPSE * 287.05287)

ALTITUDE_RANGE_M = (0.0, 15000.0)   # span of the atmosphere model
HEALTH_FACTOR_RANGE = (0.8, 1.2)    # span of each gas-path health factor
STATIC_MAX_ITERATIONS = 50          # Newton cap of the static-state solve


class AltitudeOutOfRange(UsageError):
    def __init__(self, alt):
        lo, hi = ALTITUDE_RANGE_M
        super().__init__(f"altitude {alt:.0f} m outside [{lo:.0f}, {hi:.0f}] m")


class NoSteadyState(NumericalFailure):
    pass


class T4OutOfRange(NumericalFailure):
    def __init__(self, t4):
        super().__init__(f"burner outlet temperature {t4:.1f} K above 2000 K")


@dataclass(frozen=True)
class GasState:
    """Mass flow / total temperature / total pressure / fuel-air ratio."""
    W: float
    Tt: float
    Pt: float
    FAR: float = 0.0

    def __post_init__(self):
        if self.W < 0 or self.Tt <= 0 or self.Pt <= 0:
            raise ValueError(f"invalid gas state {self}")
        if not 0 <= self.FAR < 0.07:
            raise ValueError(f"fuel-air ratio {self.FAR} outside [0, 0.07)")

    @property
    def h(self) -> float:
        return gas.enthalpy(self.Tt, self.FAR)


@dataclass(frozen=True)
class HealthParams:
    """Multiplicative gas-path health factors; all 1.0 when healthy."""
    eta_c_factor: float = 1.0
    flow_c_factor: float = 1.0
    eta_t_factor: float = 1.0
    flow_t_factor: float = 1.0

    def __post_init__(self):
        lo, hi = HEALTH_FACTOR_RANGE
        for name in ("eta_c_factor", "flow_c_factor", "eta_t_factor", "flow_t_factor"):
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ValueError(f"{name}={v} outside [{lo}, {hi}]")

    @property
    def healthy(self) -> bool:
        return (self.eta_c_factor == self.flow_c_factor
                == self.eta_t_factor == self.flow_t_factor == 1.0)


HEALTHY = HealthParams()


@dataclass(frozen=True)
class GasGenParams:
    """Calibrated engine description produced by design sizing."""
    cmap: CompressorMap
    tmap: TurbineMap
    intake_recovery: float
    burner_loss: float
    burner_eta: float
    exhaust_loss: float
    ngv_cool_frac: float
    rotor_cool_frac: float
    overboard_frac: float
    design_speed: float            # rpm
    ncor_design: float             # rpm, corrected to 288.15 K
    fuel_lhv_mj: float
    accessory_kw: float
    eta_mech: float
    inertia: float                 # spool inertia, kg m^2
    a3_m2: float
    a8_m2: float
    nox_p_ref: float
    nox_t_ref: float
    nox_t_scale: float
    wf_design: float
    pe_design: float               # design shaft-power delivery, kW

    def __post_init__(self):
        for name in ("intake_recovery", "burner_eta"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")
        for name in ("burner_loss", "exhaust_loss", "ngv_cool_frac",
                     "rotor_cool_frac", "overboard_frac"):
            if not 0 <= getattr(self, name) < 0.2:
                raise ValueError(f"{name} must lie in [0, 0.2)")
        if self.inertia <= 0:
            raise ValueError("inertia must be positive")


class StationTemperatures(NamedTuple):
    """Temperatures (K) of one cycle evaluation, where the property
    inversions of the next evaluation nearby start; None starts one cold."""
    t3s: float | None = None    # compressor isentropic exit
    t3: float | None = None
    t4: float | None = None
    t41: float | None = None
    t5s: float | None = None    # turbine isentropic exit
    t5u: float | None = None    # turbine exit before the rotor cooling returns
    t5: float | None = None
    ts8: float | None = None    # exhaust exit static, at Tt = t5
    ts3: float | None = None    # compressor exit static (of Ps3), at Tt = t3


COLD = StationTemperatures()


def _scaled(ts, tt, tt_prev):
    """Start for a static temperature carried from total temperature
    tt_prev to tt (exactly ts when tt == tt_prev), or None."""
    return None if ts is None else ts * (tt / tt_prev)


@dataclass(frozen=True)
class CycleSolution:
    stations: dict
    Ps3: float
    PW_turb: float
    PW_cpr: float
    PW_shaft_net: float
    SFC: float
    surge_margin: float
    NOx_severity: float
    newton_residual_norm: float
    N: float
    wf: float
    beta: float
    turbine_pr: float
    # d(residuals)/d(beta, turbine_pr / pr_design) carried by the solver to
    # the next cycle match started from this solution (None if not built)
    jacobian: np.ndarray | None = field(default=None, compare=False, repr=False)
    # station temperatures of the last cycle evaluation, where the next match
    # started from this solution starts its property inversions
    temperatures: StationTemperatures = field(default=COLD, compare=False, repr=False)


def isa_static(altitude: float):
    """ISA standard-day static temperature (K) and pressure (kPa)."""
    if altitude <= 11000.0:
        t_std = T_STD - _ISA_LAPSE * altitude
        return t_std, P_STD * (t_std / T_STD) ** _ISA_EXP
    t11 = T_STD - _ISA_LAPSE * 11000.0
    p11 = P_STD * (t11 / T_STD) ** _ISA_EXP
    return t11, p11 * math.exp(-9.80665 * (altitude - 11000.0) / (287.05287 * t11))


def ambient_conditions(altitude: float, mach: float, dT_ISA: float,
                       recovery: float = 0.99):
    """ISA atmosphere + ram recovery: states at stations 0 (static), 1, 2."""
    if not ALTITUDE_RANGE_M[0] <= altitude <= ALTITUDE_RANGE_M[1]:
        raise AltitudeOutOfRange(altitude)
    if not 0.0 <= mach < 1.0:
        raise ValueError(f"mach {mach} outside [0, 1)")
    t_std, p_s = isa_static(altitude)
    t_s = t_std + dT_ISA

    if mach > 0.0:
        cp_s = gas.cp(t_s)
        gamma = cp_s / (cp_s - gas.R_GAS)
        v = mach * math.sqrt(gamma * 287.05287 * t_s)
        t_t = gas.temperature_from_enthalpy(gas.enthalpy(t_s) + v * v / 2000.0)
        p_t = p_s * math.exp((gas.phi(t_t) - gas.phi(t_s)) / gas.R_GAS)
    else:
        t_t, p_t = t_s, p_s

    st0 = GasState(W=0.0, Tt=t_s, Pt=p_s)
    st1 = GasState(W=0.0, Tt=t_t, Pt=p_s)       # deck convention: P1 = static
    st2 = GasState(W=0.0, Tt=t_t, Pt=p_t * recovery)
    return st0, st1, st2


def static_from_flow(Tt: float, Pt: float, W: float, area: float, far: float = 0.0,
                     ts_guess: float | None = None):
    """Static state from continuity: returns (Ts, Ps, mach, choked).

    The flow W(Ts) = rho v A, with v = sqrt(2 (h(Tt) - h(Ts))) and Ps from
    the entropy function, has the slope d ln W/dTs = cp/(R Ts) - 1/Ts
    - 1000 cp/v^2, which is zero where v reaches the speed of sound
    a = sqrt(gamma(Ts) R Ts): the flow is largest at Mach 1. Below that
    maximum, Ts is solved by Newton on ln W with this slope, bracketed by
    T_MIN and Tt, until the flow meets its tolerance or, near Mach 0, Ts
    stops moving by more than rounding; mach is v / a.

    The Newton starts from `ts_guess` (the static temperature of a nearby
    earlier state) or from above the root. From above it descends on the
    concave ln W without crossing the root, so an iterate reaches the flow
    maximum (slope >= 0) only when W is at or above it: the exit is then
    choked and the Mach-1 point is returned with mach 1.0. A run from
    `ts_guess` that reaches the maximum restarts once from above. Raises
    NonConvergence rather than return an unconverged state.
    """
    h_t = gas.enthalpy(Tt, far)
    phi_t = gas.phi(Tt, far)

    def flow_at(ts):
        v = math.sqrt(max(0.0, 2000.0 * (h_t - gas.enthalpy(ts, far))))
        ps = Pt * math.exp((gas.phi(ts, far) - phi_t) / gas.R_GAS)
        rho = ps / (gas.R_GAS * ts)
        return rho * v * area, v, ps

    tol = 1e-11 * max(W, 1e-6)

    def newton(ts):
        """(Ts, Ps, mach, False) at the subsonic root, or None once an
        iterate lies at or past the flow maximum."""
        lo, hi = gas.T_MIN, Tt
        for _ in range(STATIC_MAX_ITERATIONS):
            cps = gas.cp(ts, far)
            w_s, v, ps = flow_at(ts)
            # near Mach 0, h(Tt) - h(Ts) is close to rounding error (v may
            # round to 0) and the flow tolerance is out of reach: stop once
            # Ts can no longer move by more than rounding
            if v == 0.0:
                break
            slope = cps / (gas.R_GAS * ts) - 1.0 / ts - 1000.0 * cps / (v * v)
            # checked before the tolerance: a state past the maximum is not
            # returned even where its flow is within it
            if slope >= 0.0:
                return None
            if abs(w_s - W) < tol:
                break
            if w_s > W:
                lo = ts
            else:
                hi = ts
            step = -math.log(w_s / W) / slope
            rounding = 4.0 * sys.float_info.epsilon * ts
            if abs(step) <= rounding or hi - lo <= rounding:
                break
            ts = ts + step if lo < ts + step < hi else 0.5 * (lo + hi)
        else:
            raise NonConvergence(STATIC_MAX_ITERATIONS, abs(w_s - W) / max(W, 1e-6))
        a = math.sqrt(1000.0 * gas.R_GAS * ts * cps / (cps - gas.R_GAS))
        return ts, ps, v / a, False

    if ts_guess is not None and gas.T_MIN < ts_guess < Tt:
        found = newton(ts_guess)
        if found is not None:
            return found
    # the stagnation density underestimates the velocity, so this start
    # lies above the root; only a W far above the flow maximum puts it
    # below T_MIN
    v0 = W * gas.R_GAS * Tt / (Pt * area)
    ts = Tt - v0 * v0 / (2000.0 * gas.cp(Tt, far))
    found = newton(ts if ts > gas.T_MIN else 0.5 * (gas.T_MIN + Tt))
    if found is not None:
        return found

    # the Mach-1 point: Newton from Tt on (v^2 - a^2) / 1000 = 2 (h(Tt) -
    # h(Ts)) - gamma(Ts) R Ts with the slope -(2 cp + gamma R). That slope
    # leaves out the small d gamma/dTs term, so each step still cuts the
    # error a hundredfold or more. The first step lands on the perfect-gas
    # choke Tt 2 / (gamma(Tt) + 1). It stops at a relative step of 1e-12,
    # well above the rounding of h(Tt)
    ts = Tt
    for _ in range(STATIC_MAX_ITERATIONS):
        cps = gas.cp(ts, far)
        gamma_r = gas.R_GAS * cps / (cps - gas.R_GAS)
        step = (2.0 * (h_t - gas.enthalpy(ts, far)) - gamma_r * ts) / (2.0 * cps + gamma_r)
        if abs(step) <= 1e-12 * ts:
            return ts, flow_at(ts)[2], 1.0, True
        ts += step
    raise NonConvergence(STATIC_MAX_ITERATIONS, abs(step) / ts)


@dataclass(frozen=True)
class CompressorResult:
    outlet: GasState
    W2: float
    PW_cpr: float
    surge_margin: float
    h3: float                 # outlet enthalpy, kJ/kg
    t3s: float                # isentropic exit temperature, K


def compressor_calc(inlet: GasState, N: float, beta: float, params: GasGenParams,
                    health: HealthParams = HEALTHY,
                    start: StationTemperatures = COLD) -> CompressorResult:
    """Map lookup + isentropic compression; health scales flow and efficiency.
    The two inversions start from `start`'s t3s and t3."""
    theta = inlet.Tt / T_STD
    delta = inlet.Pt / P_STD
    n_rel = (N / math.sqrt(theta)) / params.ncor_design

    cmap = params.cmap
    wc = cmap.corrected_flow(n_rel, beta)
    pr = cmap.pressure_ratio(n_rel, beta)
    eta = cmap.efficiency(n_rel, beta)
    if not health.healthy:
        wc = wc * health.flow_c_factor
        eta = eta * health.eta_c_factor

    w2 = wc * delta / math.sqrt(theta)
    t3s = gas.isentropic_temperature(inlet.Tt, pr, inlet.FAR, start.t3s)
    h2 = gas.enthalpy(inlet.Tt, inlet.FAR)
    h3 = h2 + (gas.enthalpy(t3s, inlet.FAR) - h2) / eta
    t3 = gas.temperature_from_enthalpy(h3, inlet.FAR, start.t3)
    outlet = GasState(W=w2, Tt=t3, Pt=inlet.Pt * pr, FAR=inlet.FAR)

    # margin is reported against the clean engine's anchored surge line at the
    # delivered corrected flow, so flow-capacity loss shows up as lost margin
    pr_surge = cmap.surge_pressure_ratio(wc)
    sm = (pr_surge / pr - 1.0) * 100.0
    return CompressorResult(outlet=outlet, W2=w2, PW_cpr=w2 * (h3 - h2),
                            surge_margin=sm, h3=h3, t3s=t3s)


def _burn(inlet, h_in, wf, params, t_guess=None):
    """Heat addition with calibrated efficiency and fixed pressure-loss
    fraction, for an inlet of enthalpy h_in: (outlet, outlet enthalpy)."""
    if wf < 0:
        raise ValueError("fuel flow must be non-negative")
    if wf == 0.0:
        return GasState(W=inlet.W, Tt=inlet.Tt, Pt=inlet.Pt * (1.0 - params.burner_loss),
                        FAR=inlet.FAR), h_in
    w_air = inlet.W / (1.0 + inlet.FAR)
    w4 = inlet.W + wf
    far4 = (inlet.FAR * w_air + wf) / w_air
    h4 = (inlet.W * h_in + params.burner_eta * wf * params.fuel_lhv_mj * 1000.0) / w4
    t4 = gas.temperature_from_enthalpy(h4, far4, t_guess)
    if t4 > 2000.0:
        raise T4OutOfRange(t4)
    return GasState(W=w4, Tt=t4, Pt=inlet.Pt * (1.0 - params.burner_loss), FAR=far4), h4


def mix_streams(a: GasState, b: GasState, Pt: float) -> GasState:
    """Enthalpy-weighted adiabatic mix of two streams at a common total pressure."""
    return _mix(a, a.h, b, b.h, Pt)[0]


def _mix(a, h_a, b, h_b, Pt, t_guess=None):
    """mix_streams for streams of enthalpies h_a, h_b: (mix, mix enthalpy)."""
    w = a.W + b.W
    w_air = a.W / (1.0 + a.FAR) + b.W / (1.0 + b.FAR)
    far = (w - w_air) / w_air
    h = (a.W * h_a + b.W * h_b) / w
    return GasState(W=w, Tt=gas.temperature_from_enthalpy(h, far, t_guess), Pt=Pt,
                    FAR=far), h


@dataclass(frozen=True)
class TurbineResult:
    st41: GasState
    st5: GasState
    PW_turb: float
    t5s: float                # isentropic exit temperature, K
    t5u: float                # exit temperature before the rotor cooling returns


def _turbine(inlet4, h4, cool_ngv, h_ngv, cool_rotor, h_rot, N, pr_t, params,
             health, start):
    """NGV cooling return, map expansion, rotor cooling return, for streams
    of the given enthalpies, its four inversions starting from `start`'s
    t41, t5s, t5u and t5."""
    if pr_t <= 1.0:
        raise PressureRatioBelowUnity(pr_t)
    st41, h41 = _mix(inlet4, h4, cool_ngv, h_ngv, inlet4.Pt, start.t41)
    p5 = st41.Pt / pr_t
    t5s = gas.isentropic_temperature(st41.Tt, 1.0 / pr_t, st41.FAR, start.t5s)
    dhs = h41 - gas.enthalpy(t5s, st41.FAR)
    n_rel = N / params.design_speed
    eta = params.tmap.efficiency(n_rel, dhs)
    if not health.healthy:
        eta = eta * health.eta_t_factor
    h5u = h41 - eta * dhs
    pw_turb = st41.W * (h41 - h5u)
    t5u = gas.temperature_from_enthalpy(h5u, st41.FAR, start.t5u)
    st5u = GasState(W=st41.W, Tt=t5u, Pt=p5, FAR=st41.FAR)
    st5, _ = _mix(st5u, h5u, cool_rotor, h_rot, p5, start.t5)
    return TurbineResult(st41=st41, st5=st5, PW_turb=pw_turb, t5s=t5s, t5u=t5u)


def exhaust_calc(inlet: GasState, params: GasGenParams) -> GasState:
    """Adiabatic exhaust duct with a total-pressure loss fraction."""
    return GasState(W=inlet.W, Tt=inlet.Tt, Pt=inlet.Pt * (1.0 - params.exhaust_loss),
                    FAR=inlet.FAR)


@dataclass(frozen=True)
class GasGenInput:
    wf: float
    altitude: float = 0.0
    mach: float = 0.0
    dT_ISA: float = 5.0

    def __post_init__(self):
        if self.wf < 0:
            raise ValueError("fuel flow must be non-negative")


def _evaluate_cycle(params, st0, st2, N, beta, pr_t, wf, health, start=COLD):
    """One pass through the gas path, its inversions started from `start`;
    returns residuals, the station chain and the station temperatures.

    Each station's enthalpy is computed once: the compressor, burner, mixes
    and turbine hand on the enthalpy their energy balance gave.
    """
    comp = compressor_calc(st2, N, beta, params, health, start)
    st3 = comp.outlet
    w2 = comp.W2
    w_ngv = params.ngv_cool_frac * w2
    w_rot = params.rotor_cool_frac * w2
    w_ob = params.overboard_frac * w2
    st31 = GasState(W=w2 - w_ngv - w_rot - w_ob, Tt=st3.Tt, Pt=st3.Pt, FAR=st3.FAR)
    st4, h4 = _burn(st31, comp.h3, wf, params, start.t4)
    cool_ngv = GasState(W=w_ngv, Tt=st3.Tt, Pt=st4.Pt, FAR=st3.FAR)
    cool_rot = GasState(W=w_rot, Tt=st3.Tt, Pt=st3.Pt, FAR=st3.FAR)
    turb = _turbine(st4, h4, cool_ngv, comp.h3, cool_rot, comp.h3, N, pr_t, params,
                    health, start)
    st8 = exhaust_calc(turb.st5, params)

    # residual 1: turbine swallowing capacity vs delivered corrected flow
    wc41 = turb.st41.W * math.sqrt(turb.st41.Tt / T_STD) / (turb.st41.Pt / P_STD)
    wc41_map = params.tmap.corrected_flow(pr_t)
    if not health.healthy:
        wc41_map = wc41_map * health.flow_t_factor
    r1 = (wc41 - wc41_map) / params.tmap.wc_design

    # residual 2: exhaust exit static pressure vs ambient
    ts8, ps8, _, choked = static_from_flow(st8.Tt, st8.Pt, st8.W, params.a8_m2, st8.FAR,
                                           _scaled(start.ts8, st8.Tt, start.t5))
    r2 = (ps8 - st0.Pt) / st0.Pt
    if choked:
        # the excess of W over the choke flow rho v A, zero at the flow maximum
        v8 = math.sqrt(2000.0 * (gas.enthalpy(st8.Tt, st8.FAR) - gas.enthalpy(ts8, st8.FAR)))
        r2 += 5.0 * (st8.W / (ps8 / (gas.R_GAS * ts8) * v8 * params.a8_m2) - 1.0)

    temps = StationTemperatures(comp.t3s, st3.Tt, st4.Tt, turb.st41.Tt, turb.t5s,
                                turb.t5u, turb.st5.Tt, ts8, start.ts3)
    return np.array([r1, r2]), comp, st31, st4, turb, st8, temps


def off_design_solve(params: GasGenParams, u: GasGenInput,
                     health: HealthParams = HEALTHY, Pe: float = 0.0,
                     N: float = None, guess: CycleSolution | None = None) -> CycleSolution:
    """Quasi-Newton cycle match on (compressor beta, turbine expansion ratio).

    A `guess` (a previous solution of a nearby point) supplies the starting
    point and the Jacobian the solver carries from one match to the next,
    and the station temperatures the first cycle evaluation starts its
    property inversions from; each later evaluation starts from the one
    before it.
    The shaft load Pe is bookkeeping only; any surplus of PW_shaft_net over
    Pe drives the spool and is never forced to zero here.
    """
    if N is None:
        N = params.design_speed
    ambient = ambient_conditions(u.altitude, u.mach, u.dT_ISA, params.intake_recovery)
    if guess is None:
        x0, jac0, start = np.array([0.5, 1.0]), None, COLD
    else:
        x0 = np.array([guess.beta, guess.turbine_pr / params.tmap.pr_design])
        jac0, start = guess.jacobian, guess.temperatures

    last = []

    def residual(x):
        last[:] = _evaluate_cycle(params, ambient[0], ambient[2], N, x[0],
                                  x[1] * params.tmap.pr_design, u.wf, health,
                                  last[6] if last else start)
        return last[0]

    x, jac = newton_solve(residual, x0, jacobian=jac0)
    return _solution(params, ambient, N, u.wf, x, jac, last, start)


def power_match(params: GasGenParams, u: GasGenInput, health: HealthParams,
                Pe: float, N: float) -> CycleSolution:
    """Cycle match with the fuel flow as a third unknown, started cold from
    u.wf: (beta, turbine pr / pr_design, wf / wf_design), the third residual
    (PW_shaft_net - Pe) / max(|Pe|, 1). The solution carries the leading 2x2
    block of the Jacobian, the one off_design_solve carries at fixed wf."""
    ambient = ambient_conditions(u.altitude, u.mach, u.dT_ISA, params.intake_recovery)
    last = []

    def residual(x):
        wf = x[2] * params.wf_design
        if wf <= 0.0:
            raise NoSteadyState(f"no positive fuel flow delivers {Pe} kW at {N} rpm")
        last[:] = _evaluate_cycle(params, ambient[0], ambient[2], N, x[0],
                                  x[1] * params.tmap.pr_design, wf, health,
                                  last[6] if last else COLD)
        power = _shaft_power(params, last[1], last[4])
        last[0] = np.append(last[0], (power - Pe) / max(abs(Pe), 1.0))
        return last[0]

    x, jac = newton_solve(residual, [0.5, 1.0, u.wf / params.wf_design])
    return _solution(params, ambient, N, x[2] * params.wf_design, x,
                     None if jac is None else jac[:2, :2], last, COLD)


def _shaft_power(params, comp, turb):
    """Net shaft power (kW) of one cycle evaluation."""
    return turb.PW_turb - comp.PW_cpr / params.eta_mech - params.accessory_kw


def _solution(params, ambient, N, wf, x, jac, last, start) -> CycleSolution:
    """The CycleSolution of a match converged at x, from `last`, its final
    cycle evaluation, made at x; the norm spans all the match's residuals."""
    st0, st1, st2 = ambient
    beta, pr_t = x[0], x[1] * params.tmap.pr_design
    r, comp, st31, st4, turb, st8, temps = last
    pw_net = _shaft_power(params, comp, turb)
    sfc = 3600.0 * wf / (pw_net + params.accessory_kw) if pw_net > -params.accessory_kw else math.inf
    st3 = comp.outlet
    ts3, ps3, _, _ = static_from_flow(st3.Tt, st3.Pt, st3.W, params.a3_m2, st3.FAR,
                                      _scaled(start.ts3, st3.Tt, start.t3))
    snox = ((comp.outlet.Pt / params.nox_p_ref) ** 0.4
            * math.exp((comp.outlet.Tt - params.nox_t_ref) / params.nox_t_scale))
    st2w = replace(st2, W=comp.W2)
    stations = {0: st0, 1: replace(st1, W=comp.W2), 2: st2w, 3: comp.outlet,
                31: st31, 4: st4, 41: turb.st41, 5: turb.st5, 6: turb.st5, 8: st8}
    return CycleSolution(
        stations=stations, Ps3=ps3, PW_turb=turb.PW_turb, PW_cpr=comp.PW_cpr,
        PW_shaft_net=pw_net, SFC=sfc, surge_margin=comp.surge_margin,
        NOx_severity=snox, newton_residual_norm=float(np.max(np.abs(r))), N=N,
        wf=wf, beta=beta, turbine_pr=pr_t, jacobian=jac, temperatures=temps._replace(ts3=ts3))
