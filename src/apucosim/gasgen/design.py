"""Design-point sizing: turns a compact design specification into a fully
calibrated GasGenParams plus the design-point CycleSolution.

The fixed arrangement (intake recovery, burner/exhaust losses, cooling and
overboard bleed) is the cycle's; the compressor-exit Mach number and the
exhaust back-pressure margin were backed out of the same reference engine
deck. Efficiencies anchor the analytic maps so the sized engine reproduces
its own design point exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import NumericalFailure
from . import properties as gas
from .cycle import (
    BURNER_ETA,
    BURNER_LOSS,
    CycleSolution,
    EXHAUST_LOSS,
    FAR_MAX,
    GasGenInput,
    GasGenParams,
    GasState,
    HEALTHY,
    NGV_COOL_FRAC,
    NOX_T_REF,
    NOX_T_SCALE,
    OVERBOARD_FRAC,
    P_STD,
    ROTOR_COOL_FRAC,
    T_STD,
    ambient_conditions,
    _mix,
    off_design_solve,
)
from .maps import CompressorMap, TurbineMap

# compressor-exit static/total and exhaust total/ambient pressure ratios
PS3_OVER_P3 = 768.3194 / 802.4929
P8_OVER_AMBIENT = 104.3644 / 101.325
DESIGN_SURGE_MARGIN = 23.9856
NOX_DESIGN_SEVERITY = 0.1769
DEFAULT_INERTIA = 0.12   # kg m^2, free parameter tuned so a 10 % fuel step
                         # settles in 2-4 s; never asserted as ground truth


class CalibrationFailed(NumericalFailure):
    def __init__(self, parameter, target, achieved):
        self.parameter = parameter
        self.target = target
        self.achieved = achieved
        super().__init__(f"sizing failed on {parameter}: target {target:.6g}, "
                         f"achieved {achieved:.6g}")


@dataclass(frozen=True)
class GasGenDesignSpec:
    altitude: float = 0.0
    mach: float = 0.0
    dT_ISA: float = 5.0
    shaft_power_design: float = 500.0     # kW
    pressure_ratio: float = 8.0
    T4_design: float = 1200.114           # K
    fuel_LHV: float = 43.124              # MJ/kg
    design_speed: float = 36050.0         # rpm
    eta_compressor: float = 0.85
    accessory_power: float = 30.0         # kW
    W2_design: float = 3.1442             # kg/s
    inertia: float = DEFAULT_INERTIA

    def __post_init__(self):
        if self.shaft_power_design <= 0 or self.design_speed <= 0:
            raise ValueError("shaft power and design speed must be positive")
        if self.pressure_ratio <= 1:
            raise ValueError("pressure ratio must exceed 1")
        if min(self.T4_design, self.fuel_LHV, self.eta_compressor,
               self.W2_design) <= 0:
            raise ValueError("design quantities must be positive")
        if not gas.T_MIN <= self.T4_design <= gas.T_MAX:
            raise ValueError(f"T4_design {self.T4_design:g} K outside the property "
                             f"tables' [{gas.T_MIN:g}, {gas.T_MAX:g}] K")


def design_point_size(spec: GasGenDesignSpec) -> tuple[GasGenParams, CycleSolution]:
    """Size the engine at the spec's design point and verify the fixed point."""
    st0, st1, st2 = ambient_conditions(spec.altitude, spec.mach, spec.dT_ISA)
    theta2 = st2.Tt / T_STD
    delta2 = st2.Pt / P_STD
    w2 = spec.W2_design

    # compressor
    p3 = st2.Pt * spec.pressure_ratio
    t3s = gas.isentropic_temperature(st2.Tt, spec.pressure_ratio)
    h2 = gas.enthalpy(st2.Tt)
    h3 = h2 + (gas.enthalpy(t3s) - h2) / spec.eta_compressor
    t3 = gas.temperature_from_enthalpy(h3)
    pw_cpr = w2 * (h3 - h2)
    st3 = GasState(W=w2, Tt=t3, Pt=p3)

    # bleed split and burner: the fuel flow that puts station 4 at T4 in
    # closed form, as enthalpy is affine in FAR/(1 + FAR) (Walsh & Fletcher)
    w_ngv = NGV_COOL_FRAC * w2
    w_rot = ROTOR_COOL_FRAC * w2
    w31 = w2 - w_ngv - w_rot - OVERBOARD_FRAC * w2
    h4_air = gas.enthalpy(spec.T4_design)
    wf = w31 * (h4_air - h3) / (BURNER_ETA * spec.fuel_LHV * 1000.0 - h4_air
                                - gas.products_enthalpy(spec.T4_design))
    far4 = wf / w31
    if not 0.0 <= far4 < FAR_MAX:
        raise ValueError(f"burner fuel-air ratio {far4:.4g} outside [0, {FAR_MAX:g}) "
                         f"at T4_design {spec.T4_design:g} K")
    p4 = p3 * (1.0 - BURNER_LOSS)

    # NGV cooling return, mixed as the cycle mixes it
    w41, far41, h41 = _mix(w31 + wf, far4, gas.enthalpy(spec.T4_design, far4),
                           w_ngv, 0.0, h3)
    t41 = gas.temperature_from_enthalpy(h41, far41)

    # turbine sized from the power balance; map efficiency calibrated
    # so the design expansion lands on the fixed exhaust back-pressure margin
    pw_turb = pw_cpr + spec.shaft_power_design + spec.accessory_power
    dh_t = pw_turb / w41
    p8 = P8_OVER_AMBIENT * st0.Pt
    p5 = p8 / (1.0 - EXHAUST_LOSS)
    pr_t = p4 / p5
    t5s = gas.isentropic_temperature(t41, 1.0 / pr_t, far41)
    dh_s = h41 - gas.enthalpy(t5s, far41)
    eta_t = dh_t / dh_s
    if not 0.70 <= eta_t <= 1.0:
        # the target reported is the bound of [0.70, 1.0] that was missed
        raise CalibrationFailed("turbine efficiency anchor",
                                min(max(eta_t, 0.70), 1.0), eta_t)
    # rotor cooling return
    w5, far5, h5 = _mix(w41, far41, h41 - dh_t, w_rot, 0.0, h3)
    st8 = GasState(W=w5, Tt=gas.temperature_from_enthalpy(h5, far5), Pt=p8, FAR=far5)

    # geometry anchors from the fixed static-pressure ratios
    a3 = _area_from_static(st3, PS3_OVER_P3 * p3)
    a8 = _area_from_static(st8, st0.Pt)

    wc2 = w2 * math.sqrt(theta2) / delta2
    cmap = CompressorMap(
        wc_design=wc2, pr_design=spec.pressure_ratio, eta_design=spec.eta_compressor,
        surge_pr_design=spec.pressure_ratio * (1.0 + DESIGN_SURGE_MARGIN / 100.0))
    wc41 = w41 * math.sqrt(t41 / T_STD) / (p4 / P_STD)
    tmap = TurbineMap(wc_design=wc41, pr_design=pr_t, eta_design=eta_t,
                      dhs_design=dh_s)
    nox_p_ref = p3 * (math.exp((t3 - NOX_T_REF) / NOX_T_SCALE)
                      / NOX_DESIGN_SEVERITY) ** 2.5

    params = GasGenParams(
        cmap=cmap, tmap=tmap, design_speed=spec.design_speed,
        ncor_design=spec.design_speed / math.sqrt(theta2),
        fuel_lhv_mj=spec.fuel_LHV, accessory_kw=spec.accessory_power,
        inertia=spec.inertia, a3_m2=a3, a8_m2=a8, nox_p_ref=nox_p_ref,
        wf_design=wf, pe_design=spec.shaft_power_design)

    u = GasGenInput(wf=wf, altitude=spec.altitude, mach=spec.mach,
                    dT_ISA=spec.dT_ISA)
    sol = off_design_solve(params, u, HEALTHY, N=spec.design_speed)
    if abs(sol.PW_shaft_net - spec.shaft_power_design) > 1e-3 * spec.shaft_power_design:
        raise CalibrationFailed("shaft power", spec.shaft_power_design,
                                sol.PW_shaft_net)
    if sol.newton_residual_norm > 1e-8:
        raise CalibrationFailed("design residual", 0.0, sol.newton_residual_norm)
    return params, sol


def _area_from_static(st: GasState, ps_target: float) -> float:
    """Flow area that puts the stream at the given static pressure."""
    ts = gas.isentropic_temperature(st.Tt, ps_target / st.Pt, st.FAR)
    v = math.sqrt(2000.0 * (st.h - gas.enthalpy(ts, st.FAR)))
    rho = ps_target / (gas.R_GAS * ts)
    return st.W / (rho * v)
