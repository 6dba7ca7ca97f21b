"""Reference forms of gas-generator pieces, kept as checks on
`apucosim.gasgen`: the compressor, burner, turbine and exhaust components on
plain station states, each stream mix inverted to a temperature (the cycle
evaluation works on floats, carries enthalpies between the components and
inverts only the temperatures its residuals read), the design burner's fuel
flow as a fixed point (the sizing solves it in closed form), and a
steady-state speed search, the check on the fuel-step transient's analytic
starting speed.
"""
import math
from dataclasses import dataclass

import numpy as np

from apucosim.gasgen import (
    HEALTHY,
    CycleSolution,
    GasGenInput,
    GasGenParams,
    GasGenState,
    GasState,
    HealthParams,
    off_design_solve,
    outputs_from_solution,
)
from apucosim.gasgen import properties as gas
from apucosim.gasgen.cycle import (BURNER_ETA, BURNER_LOSS, EXHAUST_LOSS, P_STD, T_STD,
                                   NoSteadyState)


def mix_streams(a: GasState, b: GasState, Pt: float) -> GasState:
    """Enthalpy-weighted adiabatic mix of two streams at a common total pressure."""
    w = a.W + b.W
    w_air = a.W / (1.0 + a.FAR) + b.W / (1.0 + b.FAR)
    far = (w - w_air) / w_air
    h = (a.W * a.h + b.W * b.h) / w
    return GasState(W=w, Tt=gas.temperature_from_enthalpy(h, far), Pt=Pt, FAR=far)


def design_fuel_flow(w31: float, h3: float, T4: float, lhv_mj: float,
                     eta: float) -> float:
    """Burner fuel flow (kg/s) that takes w31 kg/s of dry air at enthalpy h3
    to T4, by fixed-point iteration on the burner energy balance
    wf = w31 (h4 - h3) / (eta LHV - h4), h4 = enthalpy(T4, wf / w31)."""
    lhv_kj = lhv_mj * 1000.0
    wf = w31 * 1.05 * (gas.enthalpy(T4) - h3) / lhv_kj
    for _ in range(60):
        h4 = gas.enthalpy(T4, wf / w31)
        wf_new = w31 * (h4 - h3) / (eta * lhv_kj - h4)
        if abs(wf_new - wf) < 1e-14:
            return wf_new
        wf = wf_new
    raise ArithmeticError("design fuel flow fixed point did not converge")


@dataclass(frozen=True)
class CompressorResult:
    outlet: GasState
    W2: float
    PW_cpr: float
    surge_margin: float


def compressor_calc(inlet: GasState, N: float, beta: float, params: GasGenParams,
                    health: HealthParams = HEALTHY) -> CompressorResult:
    """Map lookup + isentropic compression; health scales flow and efficiency."""
    theta = inlet.Tt / T_STD
    n_rel = (N / math.sqrt(theta)) / params.ncor_design
    cmap = params.cmap
    wc = cmap.corrected_flow(n_rel, beta)
    pr = cmap.pressure_ratio(n_rel, beta)
    eta = cmap.efficiency(n_rel, beta)
    if health != HEALTHY:
        wc = wc * health.flow_c_factor
        eta = eta * health.eta_c_factor
    w2 = wc * (inlet.Pt / P_STD) / math.sqrt(theta)
    t3s = gas.isentropic_temperature(inlet.Tt, pr, inlet.FAR)
    h3 = inlet.h + (gas.enthalpy(t3s, inlet.FAR) - inlet.h) / eta
    outlet = GasState(W=w2, Tt=gas.temperature_from_enthalpy(h3, inlet.FAR),
                      Pt=inlet.Pt * pr, FAR=inlet.FAR)
    sm = (cmap.surge_pressure_ratio(wc) / pr - 1.0) * 100.0
    return CompressorResult(outlet=outlet, W2=w2, PW_cpr=w2 * (h3 - inlet.h),
                            surge_margin=sm)


def burner_calc(inlet: GasState, wf: float, params: GasGenParams) -> GasState:
    """Heat addition with calibrated efficiency and fixed pressure-loss fraction."""
    p4 = inlet.Pt * (1.0 - BURNER_LOSS)
    if wf == 0.0:
        return GasState(W=inlet.W, Tt=inlet.Tt, Pt=p4, FAR=inlet.FAR)
    w_air = inlet.W / (1.0 + inlet.FAR)
    w4 = inlet.W + wf
    far4 = (inlet.FAR * w_air + wf) / w_air
    h4 = (inlet.W * inlet.h + BURNER_ETA * wf * params.fuel_lhv_mj * 1000.0) / w4
    return GasState(W=w4, Tt=gas.temperature_from_enthalpy(h4, far4), Pt=p4, FAR=far4)


@dataclass(frozen=True)
class TurbineResult:
    st41: GasState
    st5: GasState
    PW_turb: float


def turbine_calc(inlet4: GasState, cool_ngv: GasState, cool_rotor: GasState,
                 N: float, pr_t: float, params: GasGenParams,
                 health: HealthParams = HEALTHY) -> TurbineResult:
    """NGV cooling return, map expansion, rotor cooling return."""
    st41 = mix_streams(inlet4, cool_ngv, inlet4.Pt)
    p5 = st41.Pt / pr_t
    t5s = gas.isentropic_temperature(st41.Tt, 1.0 / pr_t, st41.FAR)
    dhs = st41.h - gas.enthalpy(t5s, st41.FAR)
    eta = params.tmap.efficiency(N / params.design_speed, dhs)
    if health != HEALTHY:
        eta = eta * health.eta_t_factor
    h5u = st41.h - eta * dhs
    st5u = GasState(W=st41.W, Tt=gas.temperature_from_enthalpy(h5u, st41.FAR), Pt=p5,
                    FAR=st41.FAR)
    return TurbineResult(st41=st41, st5=mix_streams(st5u, cool_rotor, p5),
                         PW_turb=st41.W * (st41.h - h5u))


def exhaust_calc(inlet: GasState) -> GasState:
    """Adiabatic exhaust duct with a total-pressure loss fraction."""
    return GasState(W=inlet.W, Tt=inlet.Tt, Pt=inlet.Pt * (1.0 - EXHAUST_LOSS),
                    FAR=inlet.FAR)


def init(params: GasGenParams, u: GasGenInput, health: HealthParams = HEALTHY,
         Pe: float | None = None, load_law=None) -> tuple[GasGenState, dict, CycleSolution]:
    """Steady state: spool speed where delivered power meets the load.

    Provide either a fixed shaft power Pe or a load_law(N)->kW callable
    (e.g. a cubic speed law).
    """
    if (Pe is None) == (load_law is None):
        raise ValueError("provide exactly one of Pe or load_law")
    law = (lambda n: Pe) if load_law is None else load_law

    def surplus(n):
        """Power surplus at speed n (0.0 once it meets the tolerance) and
        the cycle solution it was read from."""
        sol = off_design_solve(params, u, health, N=n)
        s = sol.PW_shaft_net - law(n)
        return (0.0 if abs(s) < 1e-9 * max(abs(law(n)), 1.0) else s), sol

    n_lo, n_hi = 0.55 * params.design_speed, 1.15 * params.design_speed
    ns = np.linspace(n_lo, n_hi, 13)
    vals, sols = [], {}
    for n in ns:
        try:
            s, sols[n] = surplus(n)
            vals.append((n, s))
        except Exception:
            vals.append((n, None))
    brackets = [(n1, s1, n2, s2)
                for (n1, s1), (n2, s2) in zip(vals, vals[1:])
                if s1 is not None and s2 is not None and s1 * s2 <= 0.0]
    if not brackets:
        raise NoSteadyState("no speed bracket where delivered power meets the load")
    # prefer the stable equilibrium (surplus falls through zero as N rises)
    stable = [b for b in brackets if b[1] >= 0.0 >= b[3]]
    bracket = (stable or brackets)[-1]
    n1, s1, n2, s2 = bracket
    # a grid speed may already be the steady state (a surplus peaking at
    # zero there touches zero without changing sign)
    for n, s in ((n1, s1), (n2, s2)):
        if s == 0.0:
            return GasGenState(N=n), outputs_from_solution(sols[n]), sols[n]
    for _ in range(80):
        n_mid = n1 - s1 * (n2 - n1) / (s2 - s1)
        if not n1 < n_mid < n2:
            n_mid = 0.5 * (n1 + n2)
        s_mid, sol = surplus(n_mid)
        if s_mid == 0.0:
            x = GasGenState(N=n_mid)
            return x, outputs_from_solution(sol), sol
        if s_mid * s1 <= 0.0:
            n2, s2 = n_mid, s_mid
        else:
            n1, s1 = n_mid, s_mid
    raise NoSteadyState("steady-state speed search did not converge")
