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

import numpy as np

from ..numerics import NewtonOptions, NonConvergence, newton_solve
from . import properties as gas
from .maps import CompressorMap, PressureRatioBelowUnity, TurbineMap

P_STD = 101.325     # kPa
T_STD = 288.15      # K
_ISA_LAPSE = 0.0065
_ISA_EXP = 9.80665 / (_ISA_LAPSE * 287.05287)

ALTITUDE_RANGE_M = (0.0, 15000.0)   # span of the atmosphere model
HEALTH_FACTOR_RANGE = (0.8, 1.2)    # span of each gas-path health factor
STATIC_MAX_ITERATIONS = 50          # Newton cap of the static-state solve


class AltitudeOutOfRange(Exception):
    def __init__(self, alt):
        lo, hi = ALTITUDE_RANGE_M
        super().__init__(f"altitude {alt:.0f} m outside [{lo:.0f}, {hi:.0f}] m")


class T4OutOfRange(Exception):
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
    design_surge_margin: float
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


@dataclass(frozen=True)
class CycleSolution:
    stations: dict
    Ps3: float
    PW_turb: float
    PW_cpr: float
    eta_mech_cpr: float
    PW_shaft_net: float
    SFC: float
    surge_margin: float
    NOx_severity: float
    newton_residual_norm: float
    N: float
    wf: float
    beta: float
    turbine_pr: float
    surge_crossed: bool
    # d(residuals)/d(beta, turbine_pr / pr_design) carried by the solver to
    # the next cycle match started from this solution (None if not built)
    jacobian: np.ndarray | None = field(default=None, compare=False, repr=False)


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


def static_from_flow(Tt: float, Pt: float, W: float, area: float, far: float = 0.0):
    """Subsonic static state from continuity: returns (Ts, Ps, mach, choked).

    Below the choke flow, W(Ts) = rho v A, with v = sqrt(2 (h(Tt) - h(Ts)))
    and Ps from the entropy function, is solved for Ts by Newton on ln W
    with the analytic slope d ln W/dTs = cp/(R Ts) - 1/Ts - 1000 cp/v^2,
    bracketed by the choke point and Tt, until the flow meets its tolerance
    or, near Mach 0, Ts stops moving by more than rounding. Mach follows from
    Ts and gamma(Ts). Raises NonConvergence rather than return an unconverged
    state.
    """
    h_t = gas.enthalpy(Tt, far)
    phi_t = gas.phi(Tt, far)

    def flow_at(ts):
        v = math.sqrt(max(0.0, 2000.0 * (h_t - gas.enthalpy(ts, far))))
        ps = Pt * math.exp((gas.phi(ts, far) - phi_t) / gas.R_GAS)
        rho = ps / (gas.R_GAS * ts)
        return rho * v * area, v, ps

    # choke point: Mach 1, a fixed point of Ts = Tt / (1 + (gamma(Ts) - 1) / 2)
    ts_c = Tt
    for _ in range(12):
        cps = gas.cp(ts_c, far)
        gamma = cps / (cps - gas.R_GAS)
        ts_new = Tt / (1.0 + 0.5 * (gamma - 1.0))
        if abs(ts_new - ts_c) < 1e-10:
            ts_c = ts_new
            break
        ts_c = ts_new
    w_choke, _, ps_c = flow_at(ts_c)
    if W >= w_choke:
        return ts_c, ps_c, 1.0, True

    tol = 1e-11 * max(W, 1e-6)
    lo, hi = ts_c, Tt
    # the stagnation density underestimates the velocity, so this first
    # guess lies above the root, from where Newton on the concave ln W
    # descends without overshoot
    v0 = W * gas.R_GAS * Tt / (Pt * area)
    ts = Tt - v0 * v0 / (2000.0 * gas.cp(Tt, far))
    if ts <= lo:
        ts = 0.5 * (lo + hi)
    for _ in range(STATIC_MAX_ITERATIONS):
        cps = gas.cp(ts, far)
        w_s, v, ps = flow_at(ts)
        if abs(w_s - W) < tol:
            break
        # near Mach 0, h(Tt) - h(Ts) is close to rounding error (v may round
        # to 0) and the flow tolerance is out of reach: stop once Ts can no
        # longer move by more than rounding
        if v == 0.0:
            break
        if w_s > W:
            lo = ts
        else:
            hi = ts
        slope = cps / (gas.R_GAS * ts) - 1.0 / ts - 1000.0 * cps / (v * v)
        step = -math.log(w_s / W) / slope
        rounding = 4.0 * sys.float_info.epsilon * ts
        if abs(step) <= rounding or hi - lo <= rounding:
            break
        ts = ts + step if lo < ts + step < hi else 0.5 * (lo + hi)
    else:
        raise NonConvergence(STATIC_MAX_ITERATIONS, abs(w_s - W) / max(W, 1e-6))
    gamma = cps / (cps - gas.R_GAS)
    mach = math.sqrt(2.0 * (Tt / ts - 1.0) / (gamma - 1.0))
    return ts, ps, mach, False


def static_pressure(Tt, Pt, W, area, far=0.0):
    return static_from_flow(Tt, Pt, W, area, far)[1]


@dataclass(frozen=True)
class CompressorResult:
    outlet: GasState
    W2: float
    PW_cpr: float
    surge_margin: float
    surge_crossed: bool
    eta: float


def compressor_calc(inlet: GasState, N: float, beta: float, params: GasGenParams,
                    health: HealthParams = HEALTHY) -> CompressorResult:
    """Map lookup + isentropic compression; health scales flow and efficiency."""
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
    t3s = gas.isentropic_temperature(inlet.Tt, pr, inlet.FAR)
    h2 = gas.enthalpy(inlet.Tt, inlet.FAR)
    h3 = h2 + (gas.enthalpy(t3s, inlet.FAR) - h2) / eta
    t3 = gas.temperature_from_enthalpy(h3, inlet.FAR)
    outlet = GasState(W=w2, Tt=t3, Pt=inlet.Pt * pr, FAR=inlet.FAR)

    # margin is reported against the clean engine's anchored surge line at the
    # delivered corrected flow, so flow-capacity loss shows up as lost margin
    pr_surge = cmap.surge_pressure_ratio(wc)
    sm = (pr_surge / pr - 1.0) * 100.0
    return CompressorResult(outlet=outlet, W2=w2, PW_cpr=w2 * (h3 - h2),
                            surge_margin=sm, surge_crossed=sm < 0.0, eta=eta)


def burner_calc(inlet: GasState, wf: float, params: GasGenParams) -> GasState:
    """Heat addition with calibrated efficiency and fixed pressure-loss fraction."""
    if wf < 0:
        raise ValueError("fuel flow must be non-negative")
    if wf == 0.0:
        return GasState(W=inlet.W, Tt=inlet.Tt, Pt=inlet.Pt * (1.0 - params.burner_loss),
                        FAR=inlet.FAR)
    w_air = inlet.W / (1.0 + inlet.FAR)
    w4 = inlet.W + wf
    far4 = (inlet.FAR * w_air + wf) / w_air
    h4 = (inlet.W * inlet.h + params.burner_eta * wf * params.fuel_lhv_mj * 1000.0) / w4
    t4 = gas.temperature_from_enthalpy(h4, far4)
    if t4 > 2000.0:
        raise T4OutOfRange(t4)
    return GasState(W=w4, Tt=t4, Pt=inlet.Pt * (1.0 - params.burner_loss), FAR=far4)


def mix_streams(a: GasState, b: GasState, Pt: float) -> GasState:
    """Enthalpy-weighted adiabatic mix of two streams at a common total pressure."""
    w = a.W + b.W
    w_air = a.W / (1.0 + a.FAR) + b.W / (1.0 + b.FAR)
    far = (w - w_air) / w_air
    h = (a.W * a.h + b.W * b.h) / w
    return GasState(W=w, Tt=gas.temperature_from_enthalpy(h, far), Pt=Pt, FAR=far)


@dataclass(frozen=True)
class TurbineResult:
    st41: GasState
    st5: GasState
    PW_turb: float
    eta: float


def turbine_calc(inlet4: GasState, cool_ngv: GasState, cool_rotor: GasState,
                 N: float, pr_t: float, params: GasGenParams,
                 health: HealthParams = HEALTHY) -> TurbineResult:
    """NGV cooling return, map expansion, rotor cooling return."""
    if pr_t <= 1.0:
        raise PressureRatioBelowUnity(pr_t)
    st41 = mix_streams(inlet4, cool_ngv, inlet4.Pt)
    p5 = st41.Pt / pr_t
    t5s = gas.isentropic_temperature(st41.Tt, 1.0 / pr_t, st41.FAR)
    dhs = st41.h - gas.enthalpy(t5s, st41.FAR)
    n_rel = N / params.design_speed
    eta = params.tmap.efficiency(n_rel, dhs)
    if not health.healthy:
        eta = eta * health.eta_t_factor
    h5u = st41.h - eta * dhs
    pw_turb = st41.W * (st41.h - h5u)
    st5u = GasState(W=st41.W, Tt=gas.temperature_from_enthalpy(h5u, st41.FAR),
                    Pt=p5, FAR=st41.FAR)
    st5 = mix_streams(st5u, cool_rotor, p5)
    return TurbineResult(st41=st41, st5=st5, PW_turb=pw_turb, eta=eta)


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


def _evaluate_cycle(params, st0, st2, N, beta, pr_t, wf, health):
    """One pass through the gas path; returns residuals plus the station chain."""
    comp = compressor_calc(st2, N, beta, params, health)
    st3 = comp.outlet
    w2 = comp.W2
    w_ngv = params.ngv_cool_frac * w2
    w_rot = params.rotor_cool_frac * w2
    w_ob = params.overboard_frac * w2
    st31 = GasState(W=w2 - w_ngv - w_rot - w_ob, Tt=st3.Tt, Pt=st3.Pt, FAR=st3.FAR)
    st4 = burner_calc(st31, wf, params)
    cool_ngv = GasState(W=w_ngv, Tt=st3.Tt, Pt=st4.Pt, FAR=st3.FAR)
    cool_rot = GasState(W=w_rot, Tt=st3.Tt, Pt=st3.Pt, FAR=st3.FAR)
    turb = turbine_calc(st4, cool_ngv, cool_rot, N, pr_t, params, health)
    st8 = exhaust_calc(turb.st5, params)

    # residual 1: turbine swallowing capacity vs delivered corrected flow
    wc41 = turb.st41.W * math.sqrt(turb.st41.Tt / T_STD) / (turb.st41.Pt / P_STD)
    wc41_map = params.tmap.corrected_flow(pr_t)
    if not health.healthy:
        wc41_map = wc41_map * health.flow_t_factor
    r1 = (wc41 - wc41_map) / params.tmap.wc_design

    # residual 2: exhaust exit static pressure vs ambient
    ts8, ps8, m8, choked = static_from_flow(st8.Tt, st8.Pt, st8.W, params.a8_m2, st8.FAR)
    r2 = (ps8 - st0.Pt) / st0.Pt
    if choked:
        r2 += 5.0 * (st8.W / (ps8 / (gas.R_GAS * ts8) * params.a8_m2) - 1.0)

    return np.array([r1, r2]), comp, st31, st4, turb, st8


def off_design_solve(params: GasGenParams, u: GasGenInput,
                     health: HealthParams = HEALTHY, Pe: float = 0.0,
                     N: float = None, guess: CycleSolution | None = None,
                     newton_opts: NewtonOptions | None = None) -> CycleSolution:
    """Quasi-Newton cycle match on (compressor beta, turbine expansion ratio).

    A `guess` (a previous solution of a nearby point) supplies the starting
    point and the Jacobian the solver carries from one match to the next.
    The shaft load Pe is bookkeeping only; any surplus of PW_shaft_net over
    Pe drives the spool and is never forced to zero here.
    """
    if N is None:
        N = params.design_speed
    st0, st1, st2 = ambient_conditions(u.altitude, u.mach, u.dT_ISA,
                                       params.intake_recovery)
    if guess is None:
        x0, jac0 = np.array([0.5, 1.0]), None
    else:
        x0 = np.array([guess.beta, guess.turbine_pr / params.tmap.pr_design])
        jac0 = guess.jacobian

    last = []

    def residual(x):
        beta, pr_t = x[0], x[1] * params.tmap.pr_design
        last[:] = _evaluate_cycle(params, st0, st2, N, beta, pr_t, u.wf, health)
        return last[0]

    opts = newton_opts or NewtonOptions(relative_tolerance=1e-10, max_iterations=40)
    x, jac = newton_solve(residual, x0, opts, scale=np.array([1.0, 1.0]),
                          jacobian=jac0)

    # newton_solve returns the point it evaluated last, so that evaluation
    # already holds the station chain of the converged cycle
    beta, pr_t = x[0], x[1] * params.tmap.pr_design
    r, comp, st31, st4, turb, st8 = last
    res_norm = float(np.max(np.abs(r)))

    pw_net = (turb.PW_turb - comp.PW_cpr / params.eta_mech - params.accessory_kw)
    sfc = 3600.0 * u.wf / (pw_net + params.accessory_kw) if pw_net > -params.accessory_kw else math.inf
    ps3 = static_pressure(comp.outlet.Tt, comp.outlet.Pt, comp.outlet.W,
                          params.a3_m2, comp.outlet.FAR)
    snox = ((comp.outlet.Pt / params.nox_p_ref) ** 0.4
            * math.exp((comp.outlet.Tt - params.nox_t_ref) / params.nox_t_scale))
    st2w = replace(st2, W=comp.W2)
    stations = {0: st0, 1: replace(st1, W=comp.W2), 2: st2w, 3: comp.outlet,
                31: st31, 4: st4, 41: turb.st41, 5: turb.st5, 6: turb.st5, 8: st8}
    return CycleSolution(
        stations=stations, Ps3=ps3, PW_turb=turb.PW_turb, PW_cpr=comp.PW_cpr,
        eta_mech_cpr=params.eta_mech, PW_shaft_net=pw_net, SFC=sfc,
        surge_margin=comp.surge_margin, NOx_severity=snox,
        newton_residual_norm=res_norm, N=N, wf=u.wf, beta=beta,
        turbine_pr=pr_t, surge_crossed=comp.surge_crossed, jacobian=jac)
