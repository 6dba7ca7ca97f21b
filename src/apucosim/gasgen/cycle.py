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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from ..errors import NumericalFailure, UsageError
from ..numerics import NonConvergence, newton_solve
from . import properties as gas
from .maps import BETA_DESIGN, CompressorMap, PressureRatioBelowUnity, TurbineMap

P_STD = 101.325     # kPa
T_STD = 288.15      # K
_ISA_LAPSE = 0.0065
_ISA_EXP = 9.80665 / (_ISA_LAPSE * 287.05287)

ALTITUDE_RANGE_M = (0.0, 15000.0)   # span of the atmosphere model
HEALTH_FACTOR_RANGE = (0.8, 1.2)    # span of each gas-path health factor
STATIC_MAX_ITERATIONS = 50          # Newton cap of the static-state solve
FAR_MAX = 0.07                      # a stream's fuel-air ratio lies in [0, FAR_MAX)
_H_AIR_MAX = gas.enthalpy(gas.T_MAX)  # air enthalpy at the top of the tables

# the fixed engine arrangement, backed out of the reference engine deck once
INTAKE_RECOVERY = 0.99
BURNER_LOSS = 0.03
EXHAUST_LOSS = 0.02
NGV_COOL_FRAC = 0.05
ROTOR_COOL_FRAC = 0.05
OVERBOARD_FRAC = 0.01
# burner efficiency calibrated against the reference deck's fuel flow; the
# solve lands marginally above unity with this working-fluid model, so it is
# clipped at the physical bound (default sizing then gives wf = 0.04842 kg/s)
BURNER_ETA = 1.0
NOX_T_REF = 817.6
NOX_T_SCALE = 194.4


class AltitudeOutOfRange(UsageError):
    def __init__(self, alt):
        lo, hi = ALTITUDE_RANGE_M
        super().__init__(f"altitude {alt:.0f} m outside [{lo:.0f}, {hi:.0f}] m")


class AmbientTemperatureOutOfRange(UsageError):
    def __init__(self, temperature, dT_ISA):
        self.temperature = temperature   # which one, and its value where known
        self.dT_ISA = dT_ISA
        super().__init__(f"{temperature} (ISA offset {dT_ISA:g} K) outside "
                         f"[{gas.T_MIN:g}, {gas.T_MAX:g}] K")


class NoSteadyState(NumericalFailure):
    pass


class SurgeCrossed(NumericalFailure):
    def __init__(self, surge_margin, N, wf):
        self.surge_margin = surge_margin
        self.N = N
        self.wf = wf
        super().__init__(f"compressor past its surge line: surge margin "
                         f"{surge_margin:.2f} % at {N:.0f} rpm, fuel flow {wf:.5f} kg/s")


class T4OutOfRange(NumericalFailure):
    def __init__(self, h4, h_max):
        super().__init__(f"burner outlet temperature above {gas.T_MAX:.0f} K: enthalpy "
                         f"{h4:.1f} kJ/kg, {h_max:.1f} kJ/kg at {gas.T_MAX:.0f} K")


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
        if not 0 <= self.FAR < FAR_MAX:
            raise ValueError(f"fuel-air ratio {self.FAR} outside [0, {FAR_MAX:g})")

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


HEALTHY = HealthParams()


@dataclass(frozen=True)
class GasGenParams:
    """Calibrated engine description produced by design sizing."""
    cmap: CompressorMap
    tmap: TurbineMap
    design_speed: float            # rpm
    ncor_design: float             # rpm, corrected to 288.15 K
    fuel_lhv_mj: float
    accessory_kw: float
    inertia: float                 # spool inertia, kg m^2
    a3_m2: float
    a8_m2: float
    nox_p_ref: float
    wf_design: float
    pe_design: float               # design shaft-power delivery, kW

    def __post_init__(self):
        if self.inertia <= 0:
            raise ValueError("inertia must be positive")


class StationTemperatures(NamedTuple):
    """Temperatures (K) where the property inversions of a cycle evaluation
    start; None starts one cold. Each cycle evaluation sets all five, and the
    next evaluation, or the next match's first, starts from them."""
    t3s: float | None = None    # compressor isentropic exit
    t41: float | None = None
    t5s: float | None = None    # turbine isentropic exit
    t5: float | None = None
    ts8: float | None = None    # exhaust exit static, at Tt = t5


COLD = StationTemperatures()


def _scaled(ts, tt, tt_prev):
    """Start for a static temperature carried from total temperature
    tt_prev to tt (exactly ts when tt == tt_prev), or None."""
    return None if ts is None else ts * (tt / tt_prev)


# the stations of a CycleSolution's table, in its order, and the values the
# table gives for each
STATIONS = (0, 1, 2, 3, 31, 4, 41, 5, 6, 8)
STATION_FIELDS = ("W", "Tt", "Pt", "FAR")


@dataclass
class CycleSolution:
    """A converged cycle match. Its fields are what the spool update and the
    next match read; the station table, and the stations, Ps3 and
    NOx_severity read from it, are projected from its final cycle pass when
    first read. Nothing assigns to a solution once made; it is not frozen
    because a frozen dataclass sets each field through object.__setattr__,
    which would cost a match more than the rest of its bookkeeping."""
    PW_turb: float
    PW_cpr: float
    PW_shaft_net: float
    SFC: float
    surge_margin: float
    newton_residual_norm: float
    N: float
    wf: float
    beta: float
    turbine_pr: float
    # the final cycle evaluation, made at the converged point, whose
    # temperatures start the next match's property inversions, and the
    # engine, ambient stations (0, 1, 2) and health it was made with
    final_pass: CyclePass = field(compare=False, repr=False)
    params: GasGenParams = field(compare=False, repr=False)
    ambient: tuple = field(compare=False, repr=False)
    health: HealthParams = field(compare=False, repr=False)
    # d(residuals)/d(beta, turbine_pr / pr_design), 2x2 as a tuple of row
    # tuples, carried by the solver to the next cycle match started from
    # this solution (None if not built)
    jacobian: tuple[tuple[float, float], tuple[float, float]] | None = field(
        default=None, compare=False, repr=False)
    # d(beta, turbine_pr / pr_design) / d(N / design_speed, wf / wf_design),
    # 2x2 as a tuple of row tuples: the secant estimate that predicts the
    # start of the next match started from this solution (None if no warm
    # match has updated one yet)
    sensitivity: tuple[tuple[float, float], tuple[float, float]] | None = field(
        default=None, compare=False, repr=False)

    @cached_property
    def table(self) -> tuple:
        """The STATION_FIELDS of each of STATIONS, in that order, as one flat
        tuple of floats. t3 and t4, which no residual reads, are inverted
        here, from the pass's t3s and t41."""
        st0, st1, st2 = self.ambient
        c = self.final_pass
        temps = c.temperatures
        t3 = gas.temperature_from_enthalpy(c.h3, 0.0, temps.t3s)
        t4 = gas.temperature_from_enthalpy(c.h4, c.far4, temps.t41) if self.wf else t3
        t5 = temps.t5
        return (st0.W, st0.Tt, st0.Pt, st0.FAR,
                c.w2, st1.Tt, st1.Pt, st1.FAR,
                c.w2, st2.Tt, st2.Pt, st2.FAR,
                c.w2, t3, c.p3, 0.0,
                c.w31, t3, c.p3, 0.0,
                c.w4, t4, c.p4, c.far4,
                c.w41, temps.t41, c.p4, c.far41,
                c.w5, t5, c.p5, c.far5,
                c.w5, t5, c.p5, c.far5,
                c.w5, t5, c.p8, c.far5)

    def _station(self, station: int) -> tuple:
        """The STATION_FIELDS of one station, from the table."""
        k = len(STATION_FIELDS) * STATIONS.index(station)
        return self.table[k:k + len(STATION_FIELDS)]

    @cached_property
    def stations(self) -> dict:
        """GasStates by station number, built from the table."""
        return {s: GasState(*self._station(s)) for s in STATIONS}

    @cached_property
    def Ps3(self) -> float:
        """Compressor exit static pressure (kPa), solved cold."""
        w3, t3, p3, _ = self._station(3)
        return static_from_flow(t3, p3, w3, self.params.a3_m2)[1]

    @cached_property
    def NOx_severity(self) -> float:
        _, t3, p3, _ = self._station(3)
        return (p3 / self.params.nox_p_ref) ** 0.4 * math.exp((t3 - NOX_T_REF) / NOX_T_SCALE)


def isa_static(altitude: float):
    """ISA standard-day static temperature (K) and pressure (kPa)."""
    if altitude <= 11000.0:
        t_std = T_STD - _ISA_LAPSE * altitude
        return t_std, P_STD * (t_std / T_STD) ** _ISA_EXP
    t11 = T_STD - _ISA_LAPSE * 11000.0
    p11 = P_STD * (t11 / T_STD) ** _ISA_EXP
    return t11, p11 * math.exp(-9.80665 * (altitude - 11000.0) / (287.05287 * t11))


@lru_cache(maxsize=64, typed=True)
def ambient_conditions(altitude: float, mach: float, dT_ISA: float):
    """ISA atmosphere + ram recovery: states at stations 0 (static), 1, 2.

    A pure function of its arguments returning frozen states, so it is
    computed once per distinct ambient, not once per cycle match; a call
    that raises is not remembered."""
    if not ALTITUDE_RANGE_M[0] <= altitude <= ALTITUDE_RANGE_M[1]:
        raise AltitudeOutOfRange(altitude)
    if not 0.0 <= mach < 1.0:
        raise ValueError(f"mach {mach} outside [0, 1)")
    t_std, p_s = isa_static(altitude)
    t_s = t_std + dT_ISA
    if not gas.T_MIN <= t_s <= gas.T_MAX:
        raise AmbientTemperatureOutOfRange(f"ambient static temperature {t_s:.2f} K",
                                           dT_ISA)

    if mach > 0.0:
        cp_s = gas.cp(t_s)
        gamma = cp_s / (cp_s - gas.R_GAS)
        v = mach * math.sqrt(gamma * 287.05287 * t_s)
        h_t = gas.enthalpy(t_s) + v * v / 2000.0
        # the ram rise can carry the total temperature above the tables
        if h_t > _H_AIR_MAX:
            raise AmbientTemperatureOutOfRange(
                f"intake total temperature at Mach {mach:g} from {t_s:.2f} K "
                "static", dT_ISA)
        t_t = gas.temperature_from_enthalpy(h_t)
        p_t = p_s * math.exp((gas.phi(t_t) - gas.phi(t_s)) / gas.R_GAS)
    else:
        t_t, p_t = t_s, p_s

    st0 = GasState(W=0.0, Tt=t_s, Pt=p_s)
    st1 = GasState(W=0.0, Tt=t_t, Pt=p_s)       # deck convention: P1 = static
    st2 = GasState(W=0.0, Tt=t_t, Pt=p_t * INTAKE_RECOVERY)
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


def _mix(w_a, far_a, h_a, w_b, far_b, h_b):
    """Flow, fuel-air ratio and enthalpy of the adiabatic mix of two streams
    of the given flows, fuel-air ratios and enthalpies."""
    w = w_a + w_b
    w_air = w_a / (1.0 + far_a) + w_b / (1.0 + far_b)
    return w, (w - w_air) / w_air, (w_a * h_a + w_b * h_b) / w


@dataclass(frozen=True)
class GasGenInput:
    wf: float
    altitude: float = 0.0
    mach: float = 0.0
    dT_ISA: float = 5.0

    def __post_init__(self):
        if self.wf < 0:
            raise ValueError("fuel flow must be non-negative")


class CyclePass(NamedTuple):
    """Station values of one cycle evaluation, as plain floats: flows kg/s,
    enthalpies kJ/kg, total pressures kPa, powers kW. Stations 3 and 31 are
    dry air at (h3, p3), 41 is at p4 and 8 is station 5 after the exhaust
    loss; t41 and t5 are in `temperatures`."""
    w2: float
    h3: float
    p3: float
    pw_cpr: float
    surge_margin: float
    w31: float
    w4: float
    far4: float
    h4: float
    p4: float
    w41: float
    far41: float
    pw_turb: float
    w5: float
    far5: float
    p5: float
    p8: float
    temperatures: StationTemperatures


def _evaluate_cycle(params, st0, st2, N, beta, pr_t, wf, health, start=COLD):
    """One pass through the gas path, its inversions started from `start`;
    returns the residuals, a tuple of floats, and the CyclePass.

    It works on plain floats, hands each station's enthalpy on from the
    energy balance that gave it, and inverts only the enthalpies whose
    temperatures the residuals read: t41 (turbine expansion and swallowing
    capacity) and t5 (exhaust static state). t3 and t4 feed outputs only,
    so a CycleSolution inverts them when its stations are first read. The
    compressor inlet is dry air.
    """
    # compressor: map lookup and isentropic compression, health scaling
    # flow and efficiency
    t2 = st2.Tt
    theta = t2 / T_STD
    n_rel = (N / math.sqrt(theta)) / params.ncor_design
    cmap = params.cmap
    wc = cmap.corrected_flow(n_rel, beta) * health.flow_c_factor
    pr = cmap.pressure_ratio(n_rel, beta)
    eta = cmap.efficiency(n_rel, beta) * health.eta_c_factor
    w2 = wc * (st2.Pt / P_STD) / math.sqrt(theta)
    t3s = gas.isentropic_temperature(t2, pr, 0.0, start.t3s)
    h2 = gas.enthalpy(t2)
    h3 = h2 + (gas.enthalpy(t3s) - h2) / eta
    p3 = st2.Pt * pr
    # margin is reported against the clean engine's anchored surge line at the
    # delivered corrected flow, so flow-capacity loss shows up as lost margin
    surge_margin = (cmap.surge_pressure_ratio(wc) / pr - 1.0) * 100.0

    # bleeds, then the burner: calibrated efficiency, fixed pressure loss
    w_ngv = NGV_COOL_FRAC * w2
    w_rot = ROTOR_COOL_FRAC * w2
    w31 = w2 - w_ngv - w_rot - OVERBOARD_FRAC * w2
    if w31 <= 0.0:   # the map flow underflows at a vanishing speed
        raise NumericalFailure(f"no compressor flow at {N:g} rpm")
    p4 = p3 * (1.0 - BURNER_LOSS)
    if wf:
        w4 = w31 + wf
        far4 = wf / w31
        h4 = (w31 * h3 + BURNER_ETA * wf * params.fuel_lhv_mj * 1000.0) / w4
    else:
        w4, far4, h4 = w31, 0.0, h3
    h_max = gas.enthalpy(gas.T_MAX, far4)
    if h4 > h_max:
        raise T4OutOfRange(h4, h_max)

    # turbine: NGV cooling return, map expansion, rotor cooling return
    if pr_t <= 1.0:
        raise PressureRatioBelowUnity(pr_t)
    w41, far41, h41 = _mix(w4, far4, h4, w_ngv, 0.0, h3)
    t41 = gas.temperature_from_enthalpy(h41, far41, start.t41)
    t5s = gas.isentropic_temperature(t41, 1.0 / pr_t, far41, start.t5s)
    dhs = h41 - gas.enthalpy(t5s, far41)
    eta = params.tmap.efficiency(N / params.design_speed, dhs) * health.eta_t_factor
    h5u = h41 - eta * dhs
    pw_turb = w41 * (h41 - h5u)
    w5, far5, h5 = _mix(w41, far41, h5u, w_rot, 0.0, h3)
    t5 = gas.temperature_from_enthalpy(h5, far5, start.t5)
    p5 = p4 / pr_t
    p8 = p5 * (1.0 - EXHAUST_LOSS)

    # residual 1: turbine swallowing capacity vs delivered corrected flow
    wc41 = w41 * math.sqrt(t41 / T_STD) / (p4 / P_STD)
    wc41_map = params.tmap.corrected_flow(pr_t) * health.flow_t_factor
    r1 = (wc41 - wc41_map) / params.tmap.wc_design

    # residual 2: exhaust exit static pressure vs ambient
    ts8, ps8, _, choked = static_from_flow(t5, p8, w5, params.a8_m2, far5,
                                           _scaled(start.ts8, t5, start.t5))
    r2 = (ps8 - st0.Pt) / st0.Pt
    if choked:
        # the excess of W over the choke flow rho v A, zero at the flow maximum
        v8 = math.sqrt(2000.0 * (gas.enthalpy(t5, far5) - gas.enthalpy(ts8, far5)))
        r2 += 5.0 * (w5 / (ps8 / (gas.R_GAS * ts8) * v8 * params.a8_m2) - 1.0)

    temps = StationTemperatures(t3s, t41, t5s, t5, ts8)
    return (r1, r2), CyclePass(
        w2, h3, p3, w2 * (h3 - h2), surge_margin, w31, w4, far4, h4, p4,
        w41, far41, pw_turb, w5, far5, p5, p8, temps)


def off_design_solve(params: GasGenParams, u: GasGenInput,
                     health: HealthParams = HEALTHY, N: float = None,
                     guess: CycleSolution | None = None) -> CycleSolution:
    """Quasi-Newton cycle match on (compressor beta, turbine expansion ratio).

    A `guess` (a previous solution of a nearby point) supplies the Jacobian
    the solver carries from one match to the next, the temperatures of its
    final cycle pass, where the first cycle evaluation starts its property
    inversions (each later evaluation starts from the one before it), and
    the start itself: a predictor-corrector step along the operating line,
    x_guess + S dp for the step dp in (N / design_speed, wf / wf_design)
    from the guess's point, with S the guess's sensitivity. After the match
    S takes Broyden's rank-one update along dp, so it holds the secant of
    both speed and fuel steps; the first warm match after a cold one starts
    at x_guess and builds S from zero.
    """
    if N is None:
        N = params.design_speed
    ambient = ambient_conditions(u.altitude, u.mach, u.dT_ISA)
    st0, _, st2 = ambient
    wf, pr_design = u.wf, params.tmap.pr_design
    if guess is None:
        beta0, pr0, jac0, start, sens = BETA_DESIGN, 1.0, None, COLD, None
    else:
        dp0 = (N - guess.N) / params.design_speed
        dp1 = (wf - guess.wf) / params.wf_design
        beta0, pr0 = guess.beta, guess.turbine_pr / pr_design
        jac0, start, sens = guess.jacobian, guess.final_pass.temperatures, guess.sensitivity
        if sens is not None:
            (s00, s01), (s10, s11) = sens
            beta0 += s00 * dp0 + s01 * dp1
            pr0 += s10 * dp0 + s11 * dp1
    r = c = None     # the last evaluation's residuals and cycle pass

    def residual(x):
        nonlocal r, c
        r, c = _evaluate_cycle(params, st0, st2, N, x[0], x[1] * pr_design, wf, health,
                               start if c is None else c.temperatures)
        return r

    x, jac = newton_solve(residual, [beta0, pr0], jacobian=jac0)
    if guess is not None and (dp0 or dp1):
        # Broyden's update: the secant condition S dp = x - x_guess
        dpdp = dp0 * dp0 + dp1 * dp1
        (s00, s01), (s10, s11) = ((0.0, 0.0), (0.0, 0.0)) if sens is None else sens
        dx0, dx1 = x[0] - beta0, x[1] - pr0
        sens = ((s00 + dx0 * dp0 / dpdp, s01 + dx0 * dp1 / dpdp),
                (s10 + dx1 * dp0 / dpdp, s11 + dx1 * dp1 / dpdp))
    return _solution(params, ambient, health, N, wf, x, jac, r, c, sens)


def trim_fuel(params: GasGenParams, N: float, Pe: float,
              health: HealthParams = HEALTHY, altitude: float = 0.0,
              mach: float = 0.0, dT_ISA: float = 5.0) -> tuple[float, CycleSolution]:
    """Fuel flow at which the engine delivers Pe kW at speed N (steady), and
    the cycle solution at that fuel flow: one cold cycle match with the fuel
    flow as a third unknown, (beta, turbine pr / pr_design, wf / wf_design),
    the third residual (PW_shaft_net - Pe) / max(|Pe|, 1). The fuel flow
    starts in proportion to the power the turbine must deliver. The solution
    carries the leading 2x2 block of the Jacobian, the one off_design_solve
    carries at fixed wf."""
    ambient = ambient_conditions(altitude, mach, dT_ISA)
    # a numpy scalar (a joint run's demand is one) would carry into every
    # power residual
    Pe = float(Pe)
    wf0 = params.wf_design * max(Pe + params.accessory_kw, 20.0) / (
        params.pe_design + params.accessory_kw)
    st0, _, st2 = ambient
    r = c = None     # the last evaluation's residuals and cycle pass

    def residual(x):
        nonlocal r, c
        wf = x[2] * params.wf_design
        if wf <= 0.0:
            raise NoSteadyState(f"no positive fuel flow delivers {Pe} kW at {N} rpm")
        r, c = _evaluate_cycle(params, st0, st2, N, x[0], x[1] * params.tmap.pr_design,
                               wf, health, COLD if c is None else c.temperatures)
        r += ((_shaft_power(params, c) - Pe) / max(abs(Pe), 1.0),)
        return r

    x, jac = newton_solve(residual, [BETA_DESIGN, 1.0, wf0 / params.wf_design])
    wf = x[2] * params.wf_design
    return wf, _solution(params, ambient, health, N, wf, x,
                         None if jac is None else (jac[0][:2], jac[1][:2]), r, c, None)


def _shaft_power(params, c):
    """Net shaft power (kW) of the CyclePass c."""
    return c.pw_turb - c.pw_cpr - params.accessory_kw


def _solution(params, ambient, health, N, wf, x, jac, r, c, sens) -> CycleSolution:
    """The CycleSolution of a match converged at x, from its final cycle
    evaluation, made at x: residuals r and cycle pass c; the norm spans all
    the match's residuals. Raises SurgeCrossed if the point lies past the
    surge line."""
    if c.surge_margin < 0.0:
        raise SurgeCrossed(c.surge_margin, N, wf)
    pw_net = _shaft_power(params, c)
    sfc = 3600.0 * wf / (pw_net + params.accessory_kw) if pw_net > -params.accessory_kw else math.inf
    return CycleSolution(
        PW_turb=c.pw_turb, PW_cpr=c.pw_cpr, PW_shaft_net=pw_net, SFC=sfc,
        surge_margin=c.surge_margin, newton_residual_norm=max(map(abs, r)),
        N=N, wf=wf, beta=x[0], turbine_pr=x[1] * params.tmap.pr_design,
        final_pass=c, params=params, ambient=ambient, health=health, jacobian=jac,
        sensitivity=sens)
