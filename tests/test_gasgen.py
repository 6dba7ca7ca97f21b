import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apucosim.cli import OFF_DESIGN_PRESETS
from apucosim.gasgen import (
    AltitudeOutOfRange,
    GasGenDesignSpec,
    GasGenInput,
    GasGenParams,
    GasGenState,
    GasState,
    HEALTHY,
    HealthParams,
    ambient_conditions,
    off_design_solve,
    state_update,
    trim_fuel,
)
from apucosim.gasgen import properties as gas
from apucosim.gasgen import cycle, engine
from apucosim.gasgen.cycle import (
    BURNER_ETA,
    NGV_COOL_FRAC,
    NOX_T_REF,
    NOX_T_SCALE,
    NoSteadyState,
    OVERBOARD_FRAC,
    ROTOR_COOL_FRAC,
    T4OutOfRange,
    static_from_flow,
)
from apucosim.gasgen.design import CalibrationFailed, design_point_size
from apucosim.gasgen.engine import outputs_from_solution
from apucosim.numerics import NonConvergence, newton_solve
from gasgen_reference import (
    burner_calc,
    compressor_calc,
    exhaust_calc,
    design_fuel_flow,
    init,
    turbine_calc,
)
from property_reference import (
    reference_cp,
    reference_enthalpy,
    reference_isentropic_temperature,
    reference_phi,
    reference_temperature_from_enthalpy,
)
from static_flow_reference import (
    choke_flow,
    continuity_flow,
    flow_maximum,
    reference_static_from_flow,
)

# design-point reference values (external deck), checked at 0.5 % unless noted
TABLE_DESIGN = {
    "XNHPC": 36050.0, "PWSD": 500.0027, "SNOx": 0.1769, "HPCSM": 23.9856,
    "T1": 293.15, "P1": 101.325, "T2": 293.15, "P2": 100.3118, "W2": 3.1442,
    "T3": 568.127, "P3": 802.4929, "Ps3": 768.3194, "W3": 3.1442,
    "T4": 1200.114, "P4": 778.418, "W4": 2.8466, "T41": 1169.3879,
    "W41": 3.0038, "T5": 755.148, "P5": 106.4943, "W5": 3.161,
    "T8": 755.148, "P8": 104.3644, "W8": 3.161,
}


# ----------------------------------------------------------------- properties

def test_enthalpy_rise_regression():
    # frozen once the cp polynomial was chosen; physical band 305..315
    dh = gas.enthalpy(600.0) - gas.enthalpy(300.0)
    assert 305.0 < dh < 315.0
    assert dh == pytest.approx(306.801, abs=0.01)


def test_enthalpy_round_trip():
    t = gas.temperature_from_enthalpy(gas.enthalpy(293.15))
    assert abs(t - 293.15) < 1e-9


@pytest.mark.parametrize("T", [250.0, 600.0, 1400.0])
def test_far_blend_identity_at_zero(T):
    assert gas.cp(T, 0.0) == gas.cp(T)
    assert gas.enthalpy(T, 0.0) == gas.enthalpy(T)


def test_temperature_range_guard():
    with pytest.raises(gas.TemperatureOutOfRange):
        gas.cp(150.0)
    with pytest.raises(gas.TemperatureOutOfRange):
        gas.enthalpy(2500.0)


def test_isentropic_round_trip():
    t2 = gas.isentropic_temperature(300.0, 8.0)
    back = gas.isentropic_temperature(t2, 1.0 / 8.0)
    assert abs(back - 300.0) < 1e-8


@given(st.floats(200.0, 2000.0), st.one_of(
    st.just(0.0), st.floats(0.0, 0.07, exclude_max=True)))
@settings(max_examples=300, deadline=None)
def test_enthalpy_reference_hoist_is_exact(T, far):
    assert gas.enthalpy(T, far) == gas._h_raw(T, far) - gas._h_raw(gas.T_REF, far)


_FAR = st.one_of(st.just(0.0), st.floats(0.0, 0.07, exclude_max=True))


@given(st.floats(200.0, 2000.0), _FAR)
@settings(max_examples=500, deadline=None)
def test_straight_line_polynomials_match_the_horner_loop(T, far):
    # the kernel's generated expressions return the generic loop's bits
    assert gas.cp(T, far) == reference_cp(T, far)
    assert gas.enthalpy(T, far) == reference_enthalpy(T, far)
    assert gas.phi(T, far) == reference_phi(T, far)


@given(st.floats(200.0, 2000.0), _FAR, st.floats(0.05, 20.0))
@settings(max_examples=300, deadline=None)
def test_fused_inversions_match_separate_calls(T, far, pr):
    # one z per Newton iteration for h (or phi) and cp gives the same iterates
    # as separate enthalpy/phi and cp calls
    h = gas.enthalpy(T, far)
    assert gas.temperature_from_enthalpy(h, far) == reference_temperature_from_enthalpy(h, far)
    try:
        expected = reference_isentropic_temperature(T, pr, far)
    except gas.TemperatureOutOfRange:
        with pytest.raises(gas.TemperatureOutOfRange):
            gas.isentropic_temperature(T, pr, far)
    else:
        assert gas.isentropic_temperature(T, pr, far) == expected


@given(st.floats(200.0, 2000.0), _FAR, st.floats(100.0, 2500.0))
@settings(max_examples=300, deadline=None)
def test_warm_and_cold_enthalpy_inversions_agree(T, far, guess):
    # guesses inside and outside [T_MIN, T_MAX]; both stop within 1e-10 kJ/kg
    h = gas.enthalpy(T, far)
    cold = gas.temperature_from_enthalpy(h, far)
    warm = gas.temperature_from_enthalpy(h, far, guess)
    assert abs(gas.enthalpy(warm, far) - h) < 1e-10
    assert abs(warm - cold) <= 2e-10 / gas.cp(cold, far)


@given(st.floats(250.0, 1900.0), _FAR, st.floats(0.1, 10.0), st.floats(100.0, 2500.0))
@settings(max_examples=300, deadline=None)
def test_warm_and_cold_isentropic_inversions_agree(T, far, pr, guess):
    try:
        cold = gas.isentropic_temperature(T, pr, far)
    except gas.TemperatureOutOfRange:
        with pytest.raises(gas.TemperatureOutOfRange):
            gas.isentropic_temperature(T, pr, far, guess)
        return
    warm = gas.isentropic_temperature(T, pr, far, guess)
    target = gas.phi(T, far) + gas.R_GAS * math.log(pr)
    assert abs(gas.phi(warm, far) - target) < 1e-13
    # phi' = cp/T, so the 1e-13 stopping test fixes T to 1e-13 T/cp
    assert abs(warm - cold) <= 2e-13 * cold / gas.cp(cold, far)


@pytest.mark.parametrize("guess", [None, 150.0, 290.0, 1000.0, 1999.0, 2600.0])
@pytest.mark.parametrize("far", [0.0, 0.03])
def test_out_of_range_enthalpy_raises(guess, far):
    for h in (gas.enthalpy(gas.T_MAX, far) + 10.0, gas.enthalpy(gas.T_MIN, far) - 10.0,
              math.nan):
        with pytest.raises(gas.TemperatureOutOfRange):
            gas.temperature_from_enthalpy(h, far, guess)


# ------------------------------------------------------- static from flow

# (Tt K, Pt kPa, far, area m^2): compressor exit, exhaust, and a hot,
# fuel-rich duct where at W/W_choke = 1e-3 h(Tt) - h(Ts) is already too
# close to rounding error for the flow tolerance
STATIC_STATES = [(560.0, 810.0, 0.0, 0.01), (755.0, 104.0, 0.016, 0.25),
                 (1900.0, 2000.0, 0.069, 0.002)]


def _log_flow_slope(Tt, Pt, ts, area, far):
    """d ln W / d ln Ts of the continuity flow, by central difference."""
    h = min(0.1 * (Tt - ts), 1e-6 * ts)
    return ts * (math.log(continuity_flow(Tt, Pt, ts + h, area, far))
                 - math.log(continuity_flow(Tt, Pt, ts - h, area, far))) / (2.0 * h)


def _assert_choke_point(state, Tt, Pt, area, far):
    """`state` is the reference's choke point: the flow maximum, whose Ts
    the golden-section search finds only to about 1e-8 relative."""
    ts, ps, mach, choked = state
    ts_r, ps_r, mach_r, choked_r = reference_static_from_flow(Tt, Pt, math.inf, area, far)
    assert (mach, choked) == (mach_r, choked_r) == (1.0, True)
    assert ts == pytest.approx(ts_r, rel=1e-7, abs=0.0)
    assert ps == pytest.approx(ps_r, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("Tt, Pt, far, area", STATIC_STATES)
def test_static_from_flow_matches_reference(Tt, Pt, far, area):
    w_choke = choke_flow(Tt, Pt, area, far)
    for ratio in (1e-12, 1e-6, 1e-3, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
                  0.9999, 0.99999):
        W = ratio * w_choke
        ts_r, ps_r, _, choked_r = reference_static_from_flow(Tt, Pt, W, area, far)
        ts, ps, mach, choked = static_from_flow(Tt, Pt, W, area, far)
        assert choked is choked_r is False
        assert 0.0 <= mach < 1.0
        # both solves stop within 1e-11 of W, which near choke fixes ln Ts
        # only to 1e-11 / |d ln W / d ln Ts| (and ln Ps to cp/R times that);
        # below W/W_choke = 1e-3 that band is under 1e-17
        band = 0.0
        if ratio >= 1e-3:
            band = 2e-11 / abs(_log_flow_slope(Tt, Pt, ts_r, area, far))
        assert abs(ts - ts_r) / ts_r <= 1e-10 + band, ratio
        assert abs(ps - ps_r) / ps_r <= 1e-10 + gas.cp(ts_r, far) / gas.R_GAS * band, ratio
    for ratio in (1.0 + 1e-9, 1.5):
        _assert_choke_point(static_from_flow(Tt, Pt, ratio * w_choke, area, far),
                            Tt, Pt, area, far)


@pytest.mark.parametrize("Tt, Pt, far, area", STATIC_STATES)
def test_warm_static_from_flow_matches_reference(Tt, Pt, far, area):
    # guesses carried from a nearby state: the root itself, a few per cent
    # off on either side, and the choke point
    w_choke = choke_flow(Tt, Pt, area, far)
    ts_choke = reference_static_from_flow(Tt, Pt, w_choke, area, far)[0]
    for ratio in (0.1, 0.5, 0.9, 0.99, 0.99999):
        W = ratio * w_choke
        ts_r, ps_r, _, _ = reference_static_from_flow(Tt, Pt, W, area, far)
        band = 2e-11 / abs(_log_flow_slope(Tt, Pt, ts_r, area, far))
        for guess in (ts_r, 0.97 * ts_r, min(1.02 * ts_r, 0.5 * (ts_r + Tt)), ts_choke):
            ts, ps, mach, choked = static_from_flow(Tt, Pt, W, area, far, guess)
            assert choked is False
            assert 0.0 <= mach < 1.0
            assert abs(ts - ts_r) / ts_r <= 1e-10 + band, (ratio, guess)
            assert abs(ps - ps_r) / ps_r <= 1e-10 + gas.cp(ts_r, far) / gas.R_GAS * band
    # above the choke flow the guess is left behind: the choke point is
    # found from Tt, as without one
    for ratio in (1.0 + 1e-9, 1.5):
        W = ratio * w_choke
        cold = static_from_flow(Tt, Pt, W, area, far)
        _assert_choke_point(cold, Tt, Pt, area, far)
        for guess in (ts_choke, 1.01 * ts_choke, 0.97 * ts_choke, 0.5 * (ts_choke + Tt)):
            assert static_from_flow(Tt, Pt, W, area, far, guess) == cold


@pytest.mark.parametrize("Tt, Pt, far, area", STATIC_STATES)
def test_choke_flow_is_the_flow_maximum(Tt, Pt, far, area):
    ts_c, _, _, choked = static_from_flow(Tt, Pt, 2.0 * choke_flow(Tt, Pt, area, far),
                                          area, far)
    assert choked
    assert continuity_flow(Tt, Pt, ts_c, area, far) == pytest.approx(
        choke_flow(Tt, Pt, area, far), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("Tt, Pt, far, area", STATIC_STATES)
def test_static_state_is_continuous_through_choke(Tt, Pt, far, area):
    # a flow a hair under the maximum is subsonic just under Mach 1, and a
    # hair over it choked, both at nearly the choke point's pressure
    ts_choke, w_choke = flow_maximum(Tt, Pt, area, far)
    ps_choke = reference_static_from_flow(Tt, Pt, w_choke, area, far)[1]
    for ratio in (1.0 - 1e-9, 1.0 + 1e-9):
        for guess in (None, ts_choke, 0.97 * ts_choke, 0.5 * (ts_choke + Tt)):
            ts, ps, mach, choked = static_from_flow(Tt, Pt, ratio * w_choke, area, far,
                                                    guess)
            assert choked is (ratio > 1.0)
            assert abs(mach - 1.0) <= 1e-4, (ratio, guess)
            assert abs(ps / ps_choke - 1.0) <= 1e-4, (ratio, guess)


def test_choked_exhaust_penalty_vanishes_at_the_flow_maximum(gg_params):
    # an exit area that puts the exhaust flow a hair over the flow maximum:
    # residual 2 is the static-pressure error plus the choked penalty
    # 5 (W / W_choke - 1), which the hair only just moves off zero
    sol = off_design_solve(gg_params, GasGenInput(wf=gg_params.wf_design), HEALTHY)
    st0, st8 = sol.stations[0], sol.stations[8]
    w_per_m2 = flow_maximum(st8.Tt, st8.Pt, 1.0, st8.FAR)[1]
    params = replace(gg_params, a8_m2=st8.W / ((1.0 + 1e-9) * w_per_m2))
    r = cycle._evaluate_cycle(params, st0, sol.stations[2], sol.N, sol.beta,
                              sol.turbine_pr, sol.wf, HEALTHY)[0]
    _, ps8, _, choked = static_from_flow(st8.Tt, st8.Pt, st8.W, params.a8_m2, st8.FAR)
    assert choked
    assert 0.0 <= r[1] - (ps8 - st0.Pt) / st0.Pt < 1e-7


def test_burner_outlet_above_the_table_raises_t4_out_of_range(gg_params):
    # the burner check compares h4 with the enthalpy at T_MAX: at 1e-6 below
    # the fuel flow that puts h4 there the pass goes on, 1e-6 above it stops
    # with T4OutOfRange; the check is the one the t4 inversion would fail
    st0, _, st2 = ambient_conditions(0.0, 0.0, 5.0)
    args = (gg_params, st0, st2, 36050.0, 0.5, gg_params.tmap.pr_design)
    c = cycle._evaluate_cycle(*args, gg_params.wf_design, HEALTHY)[1]

    def excess(wf):
        h4 = (c.w31 * c.h3 + BURNER_ETA * wf * gg_params.fuel_lhv_mj
              * 1000.0) / (c.w31 + wf)
        return h4 - gas.enthalpy(gas.T_MAX, wf / c.w31)

    lo, hi = gg_params.wf_design, 10.0 * gg_params.wf_design
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
    cycle._evaluate_cycle(*args, lo * (1.0 - 1e-6), HEALTHY)
    over = hi * (1.0 + 1e-6)
    with pytest.raises(T4OutOfRange, match="above 2000 K"):
        cycle._evaluate_cycle(*args, over, HEALTHY)
    far = over / c.w31
    with pytest.raises(gas.TemperatureOutOfRange):
        gas.temperature_from_enthalpy(excess(over) + gas.enthalpy(gas.T_MAX, far), far)


def test_static_from_flow_raises_rather_than_return_unconverged(monkeypatch):
    Tt, Pt, far, area = STATIC_STATES[1]
    W = 0.5 * choke_flow(Tt, Pt, area, far)
    assert not static_from_flow(Tt, Pt, W, area, far)[3]
    monkeypatch.setattr(cycle, "STATIC_MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergence):
        static_from_flow(Tt, Pt, W, area, far)


# -------------------------------------------------------------------- ambient

def test_ambient_sea_level_isa_plus5():
    st0, st1, st2 = ambient_conditions(0.0, 0.0, 5.0)
    assert st1.Tt == pytest.approx(293.15, abs=1e-9)
    assert st1.Pt == pytest.approx(101.325, abs=1e-9)
    assert st2.Pt == pytest.approx(100.3118, rel=1e-5)


def test_ambient_altitude_with_ram():
    st0, st1, st2 = ambient_conditions(8000.0, 0.7, 5.0)
    assert st1.Tt == pytest.approx(264.829, rel=2e-3)
    assert st1.Pt == pytest.approx(35.5998, rel=2e-3)
    assert st2.Pt == pytest.approx(48.8945, rel=2e-3)


def test_ambient_altitude_guard():
    with pytest.raises(AltitudeOutOfRange):
        ambient_conditions(20000.0, 0.0, 0.0)


@pytest.mark.parametrize("altitude, p_table", [(12000.0, 19.330), (15000.0, 12.045)])
def test_isa_above_11km_is_isothermal(altitude, p_table):
    # the ISA tables: 216.65 K from 11 km up, 19.330 kPa at 12 km and
    # 12.045 kPa at 15 km
    t, p = cycle.isa_static(altitude)
    assert t == cycle.isa_static(11000.0)[0] == pytest.approx(216.65, abs=1e-9)
    assert p == pytest.approx(p_table, rel=1e-3)


# ----------------------------------------------------------------- components

def test_compressor_design_point(gg_params):
    _, _, st2 = ambient_conditions(0.0, 0.0, 5.0)
    res = compressor_calc(st2, 36050.0, 0.5, gg_params)
    assert res.outlet.Tt == pytest.approx(568.127, rel=5e-3)
    assert res.outlet.Pt == pytest.approx(802.49, rel=5e-3)
    assert res.W2 == pytest.approx(3.1442, rel=1e-6)


def test_compressor_health_identity(gg_params):
    _, _, st2 = ambient_conditions(0.0, 0.0, 5.0)
    healthy = compressor_calc(st2, 36050.0, 0.47, gg_params, HEALTHY)
    unit = compressor_calc(st2, 36050.0, 0.47, gg_params,
                           HealthParams(1.0, 1.0, 1.0, 1.0))
    assert healthy == unit


def test_compressor_eta_monotonicity(gg_params):
    _, _, st2 = ambient_conditions(0.0, 0.0, 5.0)
    base = compressor_calc(st2, 36050.0, 0.5, gg_params)
    worse = compressor_calc(st2, 36050.0, 0.5, gg_params,
                            HealthParams(eta_c_factor=0.99))
    assert worse.PW_cpr > base.PW_cpr
    assert worse.outlet.Tt > base.outlet.Tt


def test_burner_design_point(gg_params):
    _, _, st2 = ambient_conditions(0.0, 0.0, 5.0)
    comp = compressor_calc(st2, 36050.0, 0.5, gg_params)
    w31 = comp.W2 * (1.0 - 0.11)
    st31 = GasState(W=w31, Tt=comp.outlet.Tt, Pt=comp.outlet.Pt)
    st4 = burner_calc(st31, 0.04830, gg_params)
    assert st4.Tt == pytest.approx(1200.114, rel=5e-3)
    assert st4.Pt / st31.Pt == pytest.approx(0.97, abs=1e-12)


def test_burner_no_fuel_identity(gg_params):
    st31 = GasState(W=2.8, Tt=568.0, Pt=800.0)
    st4 = burner_calc(st31, 0.0, gg_params)
    assert st4.Tt == st31.Tt
    assert st4.W == st31.W


def test_turbine_design_rows(design_solution):
    st = design_solution.stations
    assert st[41].Tt == pytest.approx(1169.3879, rel=5e-3)
    assert st[41].W == pytest.approx(3.0038, rel=5e-3)
    assert st[5].Tt == pytest.approx(755.148, rel=5e-3)
    # cooling-flow bookkeeping from the deck: both returns are 5 % of W2
    assert st[41].W - st[4].W == pytest.approx(0.05 * st[2].W, rel=1e-9)
    assert st[5].W - st[41].W == pytest.approx(0.05 * st[2].W, rel=1e-9)


def test_turbine_health_identity(gg_params, design_solution):
    st = design_solution.stations
    w2 = st[2].W
    cool_n = GasState(W=0.05 * w2, Tt=st[3].Tt, Pt=st[4].Pt)
    cool_r = GasState(W=0.05 * w2, Tt=st[3].Tt, Pt=st[3].Pt)
    a = turbine_calc(st[4], cool_n, cool_r, 36050.0,
                     design_solution.turbine_pr, gg_params, HEALTHY)
    b = turbine_calc(st[4], cool_n, cool_r, 36050.0,
                     design_solution.turbine_pr, gg_params,
                     HealthParams(1.0, 1.0, 1.0, 1.0))
    assert a == b


@pytest.mark.parametrize("health", [HEALTHY, HealthParams(0.98, 0.97, 0.99, 1.03)],
                         ids=["healthy", "degraded"])
def test_cycle_pass_matches_the_component_references(gg_params, design_solution, health):
    # the cycle evaluation's float arithmetic against the reference
    # components on station states, chained at the design solution
    sol, st = design_solution, design_solution.stations
    _, c = cycle._evaluate_cycle(gg_params, st[0], st[2], sol.N, sol.beta,
                                 sol.turbine_pr, sol.wf, health)
    comp = compressor_calc(st[2], sol.N, sol.beta, gg_params, health)
    st3 = comp.outlet
    w2 = comp.W2
    st31 = GasState(W=c.w31, Tt=st3.Tt, Pt=st3.Pt)
    st4 = burner_calc(st31, sol.wf, gg_params)
    turb = turbine_calc(st4, GasState(W=0.05 * w2, Tt=st3.Tt, Pt=st4.Pt),
                        GasState(W=0.05 * w2, Tt=st3.Tt, Pt=st3.Pt), sol.N,
                        sol.turbine_pr, gg_params, health)
    st8 = exhaust_calc(turb.st5)
    t = c.temperatures
    pairs = [
        (c.w2, w2), (c.p3, st3.Pt), (c.h3, st3.h), (c.pw_cpr, comp.PW_cpr),
        (c.surge_margin, comp.surge_margin), (c.w31, 0.89 * w2),
        (c.w4, st4.W), (c.far4, st4.FAR), (c.h4, st4.h), (c.p4, st4.Pt),
        (c.w41, turb.st41.W), (c.far41, turb.st41.FAR), (t.t41, turb.st41.Tt),
        (c.pw_turb, turb.PW_turb), (c.w5, turb.st5.W), (c.far5, turb.st5.FAR),
        (t.t5, turb.st5.Tt), (c.p5, turb.st5.Pt), (c.p8, st8.Pt),
    ]
    for k, (got, ref) in enumerate(pairs):
        assert got == pytest.approx(ref, rel=1e-12), k


def test_exhaust_rows(design_solution):
    st5 = design_solution.stations[5]
    st8 = exhaust_calc(st5)
    assert st8.Pt == pytest.approx(104.3644, rel=5e-3)
    assert st8.Pt / st5.Pt == pytest.approx(0.98, abs=1e-12)
    assert st8.Tt == st5.Tt and st8.W == st5.W


# --------------------------------------------------------------------- sizing

def test_design_point_reproduces_reference_table(design_solution):
    out = outputs_from_solution(design_solution)
    for name, ref in TABLE_DESIGN.items():
        rel = abs(out[name] - ref) / abs(ref)
        tol = 1e-3 if name == "PWSD" else 5e-3
        assert rel < tol, f"{name}: {out[name]} vs {ref} (rel {rel:.2e})"


def test_design_sfc_convention(gg_params, design_solution):
    # SFC = 3600 wf / (PWSD + accessory): the only reading consistent with
    # 0.0483 * 3600 / 530 = 0.3281
    expected = 3600.0 * gg_params.wf_design / (500.0 + 30.0)
    assert design_solution.SFC == pytest.approx(expected, rel=1e-12)
    assert design_solution.SFC == pytest.approx(0.3280, rel=0.01)


def test_design_bleed_split(design_solution, gg_params):
    st = design_solution.stations
    w2 = st[2].W
    # burner inlet flow = W2 less 5+5+1 % extraction
    assert st[31].W == pytest.approx(0.89 * w2, rel=1e-12)
    assert st[8].W == pytest.approx(w2 - 0.01 * w2 + design_solution.wf, rel=1e-12)


@pytest.mark.parametrize("spec", [
    GasGenDesignSpec(),
    GasGenDesignSpec(T4_design=1300.0, fuel_LHV=42.0, altitude=3000.0, mach=0.3),
    GasGenDesignSpec(shaft_power_design=300.0, pressure_ratio=6.0, T4_design=1100.0),
], ids=["default", "hot-altitude", "low-ratio"])
def test_closed_form_design_fuel_flow_matches_the_fixed_point(spec):
    params, sol = design_point_size(spec)
    # the burner inlet the sizing sees: dry air at the compressor exit
    _, _, st2 = ambient_conditions(spec.altitude, spec.mach, spec.dT_ISA)
    h2 = gas.enthalpy(st2.Tt)
    t3s = gas.isentropic_temperature(st2.Tt, spec.pressure_ratio)
    h3 = h2 + (gas.enthalpy(t3s) - h2) / spec.eta_compressor
    w2 = spec.W2_design
    w31 = w2 - NGV_COOL_FRAC * w2 - ROTOR_COOL_FRAC * w2 - OVERBOARD_FRAC * w2
    wf = params.wf_design
    assert wf == pytest.approx(design_fuel_flow(w31, h3, spec.T4_design, spec.fuel_LHV,
                                                BURNER_ETA), rel=1e-14)
    # the burner energy balance at that flow puts station 4 at T4, and so
    # does the design solution
    h4 = (w31 * h3 + BURNER_ETA * wf * spec.fuel_LHV * 1000.0) / (w31 + wf)
    assert gas.temperature_from_enthalpy(h4, wf / w31) == pytest.approx(
        spec.T4_design, rel=1e-12)
    assert sol.stations[4].Tt == pytest.approx(spec.T4_design, rel=1e-12)


def test_sized_engine_holds_only_what_its_sizing_computes():
    # the fixed arrangement is stated once, as the cycle's constants
    assert [f.name for f in fields(GasGenParams)] == [
        "cmap", "tmap", "design_speed", "ncor_design", "fuel_lhv_mj", "accessory_kw",
        "inertia", "a3_m2", "a8_m2", "nox_p_ref", "wf_design", "pe_design"]


def test_design_speed_and_power(design_solution):
    assert design_solution.N == 36050.0
    assert design_solution.PW_shaft_net == pytest.approx(500.0, abs=5e-4)


# ----------------------------------------------------------------- off-design

def test_design_inputs_are_cycle_fixed_point(gg_params, design_solution):
    # evaluate the cycle residuals at the calibrated design solution via the
    # generic Newton kernel: the design point is already a root
    u = GasGenInput(wf=gg_params.wf_design)
    sol = off_design_solve(gg_params, u, HEALTHY, N=36050.0)
    assert sol.newton_residual_norm < 1e-8
    assert sol.PW_shaft_net == pytest.approx(500.0, rel=1e-4)
    assert sol.beta == pytest.approx(0.5, abs=1e-6)


def test_off_design_solve_evaluates_cycle_once_per_residual(gg_params, monkeypatch):
    calls = {"cycle": 0, "residual": 0}
    evaluate, solve = cycle._evaluate_cycle, cycle.newton_solve

    def counted_cycle(*args):
        calls["cycle"] += 1
        return evaluate(*args)

    def counted_solve(residual_fn, *args, **kwargs):
        def counted_residual(x):
            calls["residual"] += 1
            return residual_fn(x)
        return solve(counted_residual, *args, **kwargs)

    monkeypatch.setattr(cycle, "_evaluate_cycle", counted_cycle)
    monkeypatch.setattr(cycle, "newton_solve", counted_solve)
    u = GasGenInput(wf=0.9 * gg_params.wf_design)
    _, _, st2 = ambient_conditions(u.altitude, u.mach, u.dT_ISA)
    cold = off_design_solve(gg_params, u, HEALTHY, N=35000.0)
    # warm: the carried Jacobian from the cold solve at a nearby speed
    warm = off_design_solve(gg_params, u, HEALTHY, N=35020.0, guess=cold)
    assert calls["residual"] > 2
    assert calls["cycle"] == calls["residual"]
    for sol in (cold, warm):
        # the projected stations are the cycle's at the converged point (its
        # inversions started from the temperatures of the final pass)
        r, c = evaluate(gg_params, sol.stations[0], st2, sol.N, sol.beta,
                        sol.turbine_pr, u.wf, HEALTHY, sol.final_pass.temperatures)
        st = sol.stations
        assert sol.newton_residual_norm == max(map(abs, r))
        assert (st[3].W, st[3].Pt, st[4].W, st[4].Pt, st[4].FAR) == (
            c.w2, c.p3, c.w4, c.p4, c.far4)
        assert st[41] == GasState(c.w41, c.temperatures.t41, c.p4, c.far41)
        assert st[8] == GasState(c.w5, c.temperatures.t5, c.p8, c.far5)
        # t3 and t4, which no residual reads, are inverted when the stations
        # are first read
        assert abs(st[3].h - c.h3) < 1e-10
        assert abs(st[4].h - c.h4) < 1e-10


def test_warm_started_speed_ramp_makes_fewer_cycle_evaluations(gg_params, monkeypatch):
    u = GasGenInput(wf=0.9 * gg_params.wf_design)
    speeds = np.linspace(35000.0, 35400.0, 21)
    start = off_design_solve(gg_params, u, HEALTHY, N=speeds[0])
    evaluations = []
    evaluate = cycle._evaluate_cycle
    monkeypatch.setattr(cycle, "_evaluate_cycle",
                        lambda *args: evaluations.append(1) or evaluate(*args))
    counts = {}
    for carried in (True, False):
        evaluations.clear()
        sol = start
        for n in speeds[1:]:
            guess = sol if carried else replace(sol, jacobian=None, sensitivity=None)
            sol = off_design_solve(gg_params, u, HEALTHY, N=n, guess=guess)
            assert sol.newton_residual_norm < 1e-10
        counts[carried] = len(evaluations)
    # a carried Jacobian and sensitivity save at least the two
    # finite-difference columns each solve without them pays
    assert counts[True] <= counts[False] - 2 * (len(speeds) - 1)


def test_warm_match_makes_fewer_property_evaluations(gg_params, monkeypatch):
    # every cp, enthalpy and phi evaluation, inside the inversions too,
    # evaluates its air polynomial once
    polys = {"n": 0}
    for name in ("_cp_air", "_h_air", "_phi_air"):
        poly = getattr(gas, name)
        monkeypatch.setattr(gas, name, lambda z, poly=poly: polys.__setitem__(
            "n", polys["n"] + 1) or poly(z))
    per_evaluation = []
    evaluate = cycle._evaluate_cycle

    def counted(*args):
        before = polys["n"]
        out = evaluate(*args)
        per_evaluation.append(polys["n"] - before)
        return out

    monkeypatch.setattr(cycle, "_evaluate_cycle", counted)
    u = GasGenInput(wf=0.9 * gg_params.wf_design)
    prev = off_design_solve(gg_params, u, HEALTHY, N=35000.0)
    first = {}
    for kind, guess in (("cold", None), ("warm", prev)):
        per_evaluation.clear()
        sol = off_design_solve(gg_params, u, HEALTHY, N=35020.0, guess=guess)
        assert sol.newton_residual_norm < 1e-10
        first[kind] = per_evaluation[0]
    # a cold match starts the inversions of its first evaluation cold, and
    # a warm one from the temperatures of the solution it starts from
    assert first["warm"] < first["cold"]


@pytest.mark.parametrize("kind", ["negated", "singular"])
def test_wrong_carried_jacobian_is_rebuilt(gg_params, kind):
    u = GasGenInput(wf=0.9 * gg_params.wf_design)
    prev = off_design_solve(gg_params, u, HEALTHY, N=35000.0)
    bad = (tuple(tuple(-v for v in row) for row in prev.jacobian) if kind == "negated"
           else ((1.0, 1.0), (1.0, 1.0)))
    reference = off_design_solve(gg_params, u, HEALTHY, N=35200.0)
    sol = off_design_solve(gg_params, u, HEALTHY, N=35200.0,
                           guess=replace(prev, jacobian=bad))
    assert sol.newton_residual_norm < 1e-10
    assert sol.beta == pytest.approx(reference.beta, abs=1e-8)
    assert sol.turbine_pr == pytest.approx(reference.turbine_pr, rel=1e-9)
    assert sol.PW_shaft_net == pytest.approx(reference.PW_shaft_net, rel=1e-8)


def _ramp(params, u, health, speeds):
    """Warm matches along a speed ramp, each started from the one before."""
    sol = off_design_solve(params, u, health, N=speeds[0])
    for n in speeds[1:]:
        sol = off_design_solve(params, u, health, N=n, guess=sol)
    return sol


def _same_root(a, b):
    assert abs(a.beta - b.beta) <= 1e-9
    assert abs(a.turbine_pr - b.turbine_pr) <= 1e-9 * b.turbine_pr
    assert a.newton_residual_norm < 1e-10 and b.newton_residual_norm < 1e-10


@pytest.mark.parametrize("factor", [0.5, 1.6])
def test_predicted_start_converges_to_the_unpredicted_root(gg_params, factor):
    # a fuel step with a speed step, from a solution whose sensitivity a
    # speed ramp and a fuel step built: the start predicted from it
    # converges to the root a start at the guess's point reaches
    u = GasGenInput(wf=0.9 * gg_params.wf_design)
    prev = _ramp(gg_params, u, HEALTHY, [35000.0, 35010.0, 35020.0])
    prev = off_design_solve(gg_params, GasGenInput(wf=0.92 * gg_params.wf_design),
                            HEALTHY, N=35030.0, guess=prev)
    assert all(v != 0.0 for row in prev.sensitivity for v in row)
    step = GasGenInput(wf=factor * prev.wf)
    predicted = off_design_solve(gg_params, step, HEALTHY, N=35040.0,
                                 guess=prev)
    plain = off_design_solve(gg_params, step, HEALTHY, N=35040.0,
                             guess=replace(prev, sensitivity=None))
    _same_root(predicted, plain)
    # the sensitivity meets the secant condition along the step it saw
    dp = np.array([10.0 / gg_params.design_speed, (step.wf - prev.wf) / gg_params.wf_design])
    dx = np.array([predicted.beta - prev.beta,
                   (predicted.turbine_pr - prev.turbine_pr) / gg_params.tmap.pr_design])
    assert np.allclose(np.array(predicted.sensitivity) @ dp, dx, rtol=0.0, atol=1e-14)


def test_predicted_start_after_a_health_swap(gg_params):
    # the swap's match is at the guess's own point (no step, so no
    # prediction and no update); the match after it predicts its start
    # from the sensitivity built under the old health
    u = GasGenInput(wf=0.9 * gg_params.wf_design)
    prev = _ramp(gg_params, u, HEALTHY, [35000.0, 35010.0, 35020.0])
    worn = HealthParams(0.99, 0.97, 0.98, 1.04)
    swap = off_design_solve(gg_params, u, worn, N=35020.0, guess=prev)
    assert swap.sensitivity == prev.sensitivity
    _same_root(swap, off_design_solve(gg_params, u, worn, N=35020.0))
    after = off_design_solve(gg_params, u, worn, N=35030.0, guess=swap)
    plain = off_design_solve(gg_params, u, worn, N=35030.0,
                             guess=replace(swap, sensitivity=None))
    _same_root(after, plain)


_SOLUTION_FLOATS = ("PW_turb", "PW_cpr", "PW_shaft_net", "SFC", "surge_margin",
                    "newton_residual_norm", "N", "wf", "beta", "turbine_pr")


def test_cycle_match_computes_in_python_floats(gg_params, monkeypatch):
    # a numpy scalar anywhere in a match gives the same bits at several
    # times the cost per operation, so only the types can show one
    iterates, residuals = [], []
    solve = cycle.newton_solve

    def recorded(residual_fn, guess, jacobian=None):
        x, jac = solve(lambda v: residuals.append(residual_fn(v)) or residuals[-1],
                       guess, jacobian)
        iterates.append(x)
        return x, jac

    monkeypatch.setattr(cycle, "newton_solve", recorded)
    u = GasGenInput(wf=0.95 * gg_params.wf_design)
    # a joint run's trim power comes from the machine side as a numpy scalar
    _, trim = trim_fuel(gg_params, 35600.0, np.float64(430.0))
    cold = off_design_solve(gg_params, u, HEALTHY, N=35600.0)
    state, half = state_update(gg_params, GasGenState(N=35600.0), u, HEALTHY,
                               Pe=430.0, match=cold)
    _, out = engine.output(gg_params, state, GasGenInput(wf=0.96 * gg_params.wf_design),
                           HEALTHY, guess=half)
    _, again = state_update(gg_params, state, u, HEALTHY, Pe=430.0, match=out)
    swap = off_design_solve(gg_params, u, HealthParams(0.99, 0.97, 0.98, 1.04),
                            N=again.N, guess=again)
    # `again` re-solves its first sub-step: `out` was made at 0.96 wf_design
    assert len(iterates) == 7
    assert all(type(v) is float for values in iterates + residuals for v in values)
    for sol in (trim, cold, half, out, again, swap):
        assert all(type(getattr(sol, name)) is float for name in _SOLUTION_FLOATS)
        c = sol.final_pass
        assert all(type(v) is float for v in c[:-1] + c.temperatures)
        for matrix in (sol.jacobian, sol.sensitivity):
            assert matrix is None or all(type(v) is float for row in matrix for v in row)
    assert out.sensitivity is not None and again.jacobian is not None


@pytest.mark.parametrize("made_at", ["speed", "fuel flow", "health"])
def test_state_update_re_solves_a_match_made_elsewhere(gg_params, made_at):
    # a match made at another speed, fuel flow or health is only the first
    # sub-step's guess: the update equals one handed the match re-solved at
    # its own point from it, and differs from one that integrates the stale
    # match
    x = GasGenState(N=35600.0)
    u = GasGenInput(wf=0.95 * gg_params.wf_design)
    n, v, health = {"speed": (35700.0, u, HEALTHY),
                    "fuel flow": (x.N, GasGenInput(wf=0.96 * gg_params.wf_design), HEALTHY),
                    "health": (x.N, u, HealthParams(eta_c_factor=0.99))}[made_at]
    stale = off_design_solve(gg_params, v, health, N=n)
    fresh = off_design_solve(gg_params, u, HEALTHY, N=x.N, guess=stale)
    new, half = state_update(gg_params, x, u, HEALTHY, Pe=430.0, match=stale)
    assert (new, half) == state_update(gg_params, x, u, HEALTHY, Pe=430.0, match=fresh)
    sub = engine.MACRO_DT / engine._SUBSTEPS
    n_stale, n_fresh = (x.N + engine._dn_dt(gg_params, sol.PW_shaft_net, 430.0, x.N) * sub
                        for sol in (stale, fresh))
    assert half.N == n_fresh != n_stale


def test_fuel_reduction_trends(gg_params):
    base = off_design_solve(gg_params, GasGenInput(wf=gg_params.wf_design),
                            HEALTHY, 36050.0)
    less = off_design_solve(gg_params,
                            GasGenInput(wf=0.9 * gg_params.wf_design),
                            HEALTHY, 36050.0)
    assert less.PW_shaft_net < base.PW_shaft_net
    assert less.stations[4].Tt < base.stations[4].Tt


def test_flow_capacity_fault_shrinks_surge_margin(gg_params):
    u = GasGenInput(wf=gg_params.wf_design)
    base = off_design_solve(gg_params, u, HEALTHY, 36050.0)
    degraded = off_design_solve(gg_params, u, HealthParams(flow_c_factor=0.97),
                                36050.0)
    assert degraded.surge_margin < base.surge_margin


def test_turbine_flow_fault_drops_p3(gg_params):
    u = GasGenInput(wf=gg_params.wf_design)
    base = off_design_solve(gg_params, u, HEALTHY, 36050.0)
    opened = off_design_solve(gg_params, u, HealthParams(flow_t_factor=1.04),
                              36050.0)
    assert opened.stations[3].Pt < base.stations[3].Pt


def test_eta_c_fault_raises_sfc_at_matched_power(gg_params):
    health = HealthParams(eta_c_factor=0.98)
    wf, _ = trim_fuel(gg_params, 36050.0, 500.0, health)
    degraded = off_design_solve(gg_params, GasGenInput(wf=wf), health,
                                36050.0)
    base = off_design_solve(gg_params, GasGenInput(wf=gg_params.wf_design),
                            HEALTHY, 36050.0)
    assert degraded.SFC > base.SFC


def test_mass_and_energy_closure_random_envelope(gg_params):
    rng = np.random.default_rng(7)
    for _ in range(25):
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
        w_in = st[2].W - OVERBOARD_FRAC * st[2].W + sol.wf
        assert abs(st[8].W - w_in) <= 1e-12 * st[8].W
        # burner node energy balance
        lhs = st[31].W * st[31].h + BURNER_ETA * sol.wf * 43124.0
        assert abs(lhs - st[4].W * st[4].h) <= 1e-10 * abs(lhs)
        assert sol.newton_residual_norm < 1e-8


# --------------------------------------------------------------------- engine

def test_state_update_equilibrium(gg_params):
    x = GasGenState(N=36050.0)
    u = GasGenInput(wf=gg_params.wf_design)
    x1, _ = state_update(gg_params, x, u, HEALTHY, Pe=500.0)
    assert x1.N == pytest.approx(36050.0, abs=1e-6)


def test_state_update_power_surplus_sign(gg_params):
    x = GasGenState(N=36050.0)
    u = GasGenInput(wf=gg_params.wf_design)
    x1, _ = state_update(gg_params, x, u, HEALTHY, Pe=450.0)
    assert x1.N > 36050.0


@pytest.mark.parametrize("pe", [0.0, 5000.0], ids=["overspeed", "below-zero"])
def test_state_update_outside_the_speed_range(gg_params, pe):
    # a 10 s sub-step at a 500 kW surplus passes 1.2 design speed, and at a
    # 4500 kW deficit falls below zero
    with pytest.raises(engine.SpeedOutOfRange, match="spool speed"):
        state_update(gg_params, GasGenState(N=36050.0),
                     GasGenInput(wf=gg_params.wf_design), HEALTHY, Pe=pe, dt=20.0)


def test_state_update_purity(gg_params):
    x = GasGenState(N=35600.0)
    u = GasGenInput(wf=0.95 * gg_params.wf_design)
    a = state_update(gg_params, x, u, HEALTHY, Pe=430.0)
    b = state_update(gg_params, x, u, HEALTHY, Pe=430.0)
    assert a == b
    assert a[1].sensitivity == b[1].sensitivity
    # the projected outputs, which equality of solutions leaves out
    assert (a[1].stations, a[1].Ps3, a[1].NOx_severity) == (
        b[1].stations, b[1].Ps3, b[1].NOx_severity)


def test_warm_state_update_projects_no_outputs(gg_params, monkeypatch):
    # each cycle evaluation solves the exhaust static state once; the
    # compressor exit static state (Ps3) is solved only when it is read
    u = GasGenInput(wf=0.95 * gg_params.wf_design)
    match = off_design_solve(gg_params, u, HEALTHY, N=35600.0)
    counts = {"cycle": 0, "static": 0}
    evaluate, static = cycle._evaluate_cycle, cycle.static_from_flow

    def counted_cycle(*args):
        counts["cycle"] += 1
        return evaluate(*args)

    def counted_static(*args):
        counts["static"] += 1
        return static(*args)

    monkeypatch.setattr(cycle, "_evaluate_cycle", counted_cycle)
    monkeypatch.setattr(cycle, "static_from_flow", counted_static)
    _, half = state_update(gg_params, GasGenState(N=35600.0), u, HEALTHY,
                           Pe=430.0, match=match)
    assert counts["cycle"] > 0 and counts["static"] == counts["cycle"]
    before = counts["static"]
    ps3 = half.Ps3
    assert counts["static"] == before + 1
    assert ps3 == static(half.stations[3].Tt, half.stations[3].Pt,
                         half.stations[3].W, gg_params.a3_m2)[1]


def test_projected_outputs_are_read_once(gg_params):
    sol = off_design_solve(gg_params, GasGenInput(wf=0.9 * gg_params.wf_design),
                           HEALTHY, N=35000.0)
    first = (sol.stations, sol.Ps3, sol.NOx_severity)
    second = (sol.stations, sol.Ps3, sol.NOx_severity)
    assert first == second
    assert all(a is b for a, b in zip(first, second))


def _stations_from_the_pass(sol):
    """The station GasStates built the long way, straight from the final
    cycle pass and the ambient states, each with its checks."""
    st0, st1, st2 = sol.ambient
    c = sol.final_pass
    temps = c.temperatures
    t3 = gas.temperature_from_enthalpy(c.h3, 0.0, temps.t3s)
    t4 = gas.temperature_from_enthalpy(c.h4, c.far4, temps.t41) if sol.wf else t3
    st5 = GasState(W=c.w5, Tt=temps.t5, Pt=c.p5, FAR=c.far5)
    return {0: st0, 1: replace(st1, W=c.w2), 2: replace(st2, W=c.w2),
            3: GasState(W=c.w2, Tt=t3, Pt=c.p3),
            31: GasState(W=c.w31, Tt=t3, Pt=c.p3),
            4: GasState(W=c.w4, Tt=t4, Pt=c.p4, FAR=c.far4),
            41: GasState(W=c.w41, Tt=temps.t41, Pt=c.p4, FAR=c.far41),
            5: st5, 6: st5,
            8: GasState(W=c.w5, Tt=temps.t5, Pt=c.p8, FAR=c.far5)}


def _projection_cases(gg_params):
    """(name, solution): a cold trim, a warm match chained from a spool
    update, a zero-fuel point reached by a warm chain (its SFC is inf) and
    a point at altitude and Mach."""
    _, trim = trim_fuel(gg_params, 36050.0, 400.0)
    u = GasGenInput(wf=0.95 * gg_params.wf_design)
    x, half = state_update(gg_params, GasGenState(N=35600.0), u, HEALTHY,
                           Pe=430.0, match=trim)
    _, warm = engine.output(gg_params, x, GasGenInput(wf=0.96 * gg_params.wf_design),
                            HEALTHY, guess=half)
    fuelless = None
    for share in (0.5, 0.2, 0.05, 0.0):
        fuelless = off_design_solve(gg_params, GasGenInput(wf=share * gg_params.wf_design),
                                    HEALTHY, N=36050.0, guess=fuelless)
    aloft = off_design_solve(gg_params, GasGenInput(wf=0.8 * gg_params.wf_design,
                                                    altitude=3000.0, mach=0.4),
                             HEALTHY, N=35000.0)
    return (("cold-trim", trim), ("warm-chained", warm), ("zero-fuel", fuelless),
            ("altitude-mach", aloft))


def test_output_projection_reads_the_station_table(gg_params):
    # a row is read from the final pass's station table, without GasStates:
    # it equals, bit for bit, the channels read from the stations built the
    # long way and from Ps3 and NOx_severity, each of which equals its own
    # formula on station 3
    for name, sol in _projection_cases(gg_params):
        stations = sol.stations
        assert stations == _stations_from_the_pass(sol), name
        expected = {ch: getattr(sol if station is None else stations[station], field)
                    for ch, _, _, station, field in engine.OUTPUT_TABLE}
        assert outputs_from_solution(sol) == expected, name
        assert engine.output_row(sol) == tuple(expected[ch] for ch, _ in
                                               engine.OUTPUT_CHANNELS), name
        st3 = stations[3]
        assert sol.Ps3 == static_from_flow(st3.Tt, st3.Pt, st3.W, gg_params.a3_m2)[1]
        assert sol.NOx_severity == ((st3.Pt / gg_params.nox_p_ref) ** 0.4 * math.exp(
            (st3.Tt - NOX_T_REF) / NOX_T_SCALE))
    cases = dict(_projection_cases(gg_params))
    assert cases["zero-fuel"].wf == 0.0 and math.isinf(cases["zero-fuel"].SFC)
    assert cases["zero-fuel"].stations[4].Tt == cases["zero-fuel"].stations[3].Tt
    assert cases["altitude-mach"].stations[1].Tt > cases["altitude-mach"].stations[0].Tt


def test_ambient_is_computed_once_per_distinct_ambient(gg_params, monkeypatch):
    # the matches of one ambient share its states; a call that raises is
    # not remembered, so it raises again
    cycle.ambient_conditions.cache_clear()
    isa = cycle.isa_static
    calls = []
    monkeypatch.setattr(cycle, "isa_static", lambda alt: calls.append(alt) or isa(alt))
    u = GasGenInput(wf=0.9 * gg_params.wf_design, altitude=1000.0)
    a = off_design_solve(gg_params, u, HEALTHY, N=35000.0)
    b = off_design_solve(gg_params, u, HEALTHY, N=35100.0, guess=a)
    assert calls == [1000.0] and a.ambient is b.ambient
    for _ in range(2):
        with pytest.raises(AltitudeOutOfRange):
            ambient_conditions(20000.0, 0.0, 0.0)
    assert calls == [1000.0]
    cycle.ambient_conditions.cache_clear()


def test_state_update_spool_power_bookkeeping(gg_params):
    # the speed change equals the two-sub-step integral of the power surplus,
    # and the match returned is the second sub-step's
    x = GasGenState(N=36050.0)
    u = GasGenInput(wf=gg_params.wf_design)
    pe, dt = 460.0, 0.02
    factor = 1000.0 * (30.0 / math.pi) ** 2 / gg_params.inertia
    n = x.N
    for _ in range(2):
        sol = off_design_solve(gg_params, u, HEALTHY, N=n)
        n_half = n
        n = n + factor * (sol.PW_shaft_net - pe) / n * (dt / 2)
    x1, half = state_update(gg_params, x, u, HEALTHY, Pe=pe, dt=dt)
    assert x1.N == pytest.approx(n, rel=1e-12)
    assert half.N == pytest.approx(n_half, rel=1e-12) and half.wf == u.wf
    assert half.PW_shaft_net == pytest.approx(sol.PW_shaft_net, rel=1e-8)


def test_output_determinism(gg_params):
    from apucosim.gasgen import output
    x = GasGenState(N=36050.0)
    u = GasGenInput(wf=gg_params.wf_design)
    a, _ = output(gg_params, x, u, HEALTHY)
    b, _ = output(gg_params, x, u, HEALTHY)
    assert a == b


def test_output_noise_disabled_equals_empty_std():
    # a gas-path output channel of zero width draws nothing: a run listing
    # one before a noisy channel equals the run without it, draws included
    from apucosim.cosim import run_joint
    from apucosim.scenario import build_joint_setup, parse_scenario

    def run(noise):
        doc = {"duration": 0.1, "seed": 5, "noise": {"gasgen_output": noise}}
        return run_joint(build_joint_setup(parse_scenario(json.dumps(doc)))).slow
    a = run({"T3": 0.0, "T4": 1.5})
    b = run({"T4": 1.5})
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.column("T4"), run({}).column("T4"))


def test_init_design_speed(gg_params):
    u = GasGenInput(wf=gg_params.wf_design)
    x, out, sol = init(gg_params, u, Pe=500.0)
    assert x.N == pytest.approx(36050.0, rel=1e-4)


def test_init_cubic_law_anchored(gg_params):
    u = GasGenInput(wf=gg_params.wf_design)
    x, _, _ = init(gg_params, u,
                   load_law=lambda n: 500.0 * (n / 36050.0) ** 3)
    assert x.N == pytest.approx(36050.0, rel=1e-4)


def test_trim_fuel_returns_the_solution_it_checked(gg_params):
    wf, sol = trim_fuel(gg_params, 35000.0, 300.0, HEALTHY, altitude=4000.0, mach=0.4)
    assert sol.wf == wf and sol.N == 35000.0
    assert abs(sol.PW_shaft_net - 300.0) < 1e-9 * 300.0


@pytest.mark.parametrize("alt, mach, power", OFF_DESIGN_PRESETS)
def test_trim_is_one_match_of_few_evaluations(gg_params, monkeypatch, alt, mach, power):
    # the fuel flow is the third unknown of one cold match, no secant over
    # full matches (about 30 cycle evaluations per trim)
    evaluations, matches = [], []
    evaluate, match = cycle._evaluate_cycle, cycle.off_design_solve
    monkeypatch.setattr(cycle, "_evaluate_cycle",
                        lambda *args: evaluations.append(1) or evaluate(*args))
    for module in (cycle, engine):
        monkeypatch.setattr(module, "off_design_solve",
                            lambda *args, **kw: matches.append(1) or match(*args, **kw))
    wf, sol = trim_fuel(gg_params, 36050.0, power, HEALTHY, altitude=alt, mach=mach)
    assert len(evaluations) <= 15 and not matches
    assert sol.wf == wf and sol.newton_residual_norm < 1e-10
    assert abs(sol.PW_shaft_net - power) <= 1e-10 * power
    # the solution carries the 2x2 Jacobian of a match at fixed fuel flow,
    # so a match at the trimmed point starts converged
    assert sol.jacobian is None or [len(row) for row in sol.jacobian] == [2, 2]
    evaluations.clear()
    warm = off_design_solve(gg_params, GasGenInput(wf, alt, mach), HEALTHY,
                            36050.0, guess=sol)
    assert len(evaluations) <= 2 and warm.newton_residual_norm < 1e-10


def test_trim_trial_without_fuel_is_no_steady_state(gg_params):
    # a trial fuel flow <= 0 ends the trim as a numerical failure before
    # the cycle is evaluated at it: a shaft power of -500 kW drives the
    # fuel flow below zero
    with pytest.raises(NoSteadyState, match="no positive fuel flow"):
        trim_fuel(gg_params, 36050.0, -500.0)


def test_init_degraded_low_power_converges(gg_params):
    # start of the fuel-step transient: 230 kW with gas-path degradation
    health = HealthParams(0.99, 0.97, 0.98, 1.04)
    n0 = 36050.0 * (230.0 / 500.0) ** (1.0 / 3.0)
    wf, _ = trim_fuel(gg_params, n0, 230.0, health)
    sol = off_design_solve(gg_params, GasGenInput(wf=wf), health, n0)
    assert sol.newton_residual_norm < 1e-8
    assert sol.PW_shaft_net == pytest.approx(230.0, rel=1e-6)


def test_fuel_step_starts_at_its_steady_speed(gg_params):
    # fuel_step_run starts where the cubic load law meets the initial power,
    # n0 = n_design (p0 / pe_design)^(1/3), with the fuel trimmed there; the
    # reference speed search at that fuel flow finds n0 as the steady state
    health = HealthParams(0.99, 0.97, 0.98, 1.04)
    n_design, pe_design = gg_params.design_speed, gg_params.pe_design
    n0 = n_design * (230.0 / pe_design) ** (1.0 / 3.0)
    wf, _ = trim_fuel(gg_params, n0, 230.0, health)
    x, _, _ = init(gg_params, GasGenInput(wf=wf), health,
                   load_law=lambda n: pe_design * (n / n_design) ** 3)
    assert x.N == pytest.approx(n0, rel=1e-8)


def test_design_newton_fixed_point_via_kernel(gg_params):
    # the 2-D matching residual evaluated through the generic Newton solver
    # returns the design operating point unchanged
    from apucosim.gasgen.cycle import _evaluate_cycle
    _, _, st2 = ambient_conditions(0.0, 0.0, 5.0)
    st0 = ambient_conditions(0.0, 0.0, 5.0)[0]

    def residual(x):
        r, *_ = _evaluate_cycle(gg_params, st0, st2, 36050.0, x[0],
                                x[1] * gg_params.tmap.pr_design,
                                gg_params.wf_design, HEALTHY)
        return r

    x, _ = newton_solve(residual, np.array([0.5, 1.0]))
    assert x[0] == pytest.approx(0.5, abs=1e-7)
    assert x[1] == pytest.approx(1.0, abs=1e-7)


def test_design_spec_validation():
    with pytest.raises(ValueError):
        GasGenDesignSpec(shaft_power_design=0.0)
    with pytest.raises(ValueError):
        GasGenDesignSpec(pressure_ratio=0.9)
    for t4 in (150.0, 5000.0):
        with pytest.raises(ValueError, match="T4_design"):
            GasGenDesignSpec(T4_design=t4)


@pytest.mark.parametrize("disa", [-100.0, 2000.0])
def test_ambient_temperature_guard(disa):
    with pytest.raises(cycle.AmbientTemperatureOutOfRange, match="ambient static"):
        ambient_conditions(0.0, 0.0, disa)


def test_intake_total_temperature_guard():
    # a 1788.15 K static temperature lies within the tables; its ram rise at
    # Mach 0.9 carries the total temperature above them
    with pytest.raises(cycle.AmbientTemperatureOutOfRange, match="intake total"):
        ambient_conditions(0.0, 0.9, 1500.0)


@pytest.mark.parametrize("power, bound", [(50.0, 0.7), (1500.0, 1.0)])
def test_turbine_anchor_outside_its_range_reports_the_bound(power, bound):
    # the calibrated turbine efficiency must lie in [0.70, 1.0]
    with pytest.raises(CalibrationFailed, match="turbine efficiency anchor") as info:
        design_point_size(GasGenDesignSpec(shaft_power_design=power))
    assert info.value.target == bound
    assert not 0.70 <= info.value.achieved <= 1.0


def test_ambient_mach_guard():
    with pytest.raises(ValueError):
        ambient_conditions(0.0, 1.2, 0.0)
