import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apucosim.control import AvrState, GovernorState, avr_step, governor_step


def test_governor_zero_error_returns_feed_forward():
    gov = GovernorState(wf_ff=0.0484)
    wf, gov2 = governor_step(gov, 36050.0, 0.02)
    assert wf == pytest.approx(0.0484, rel=1e-12)
    assert gov2.integral == 0.0


def test_governor_underspeed_raises_fuel():
    gov = GovernorState(wf_ff=0.0484)
    wf, _ = governor_step(gov, 35800.0, 0.02)
    assert wf > 0.0484


def test_governor_respects_limits_and_rate():
    gov = GovernorState(wf_ff=0.0484, wf_max=0.06, rate_limit=0.01,
                        prev_wf=0.0484)
    wf, gov = governor_step(gov, 20000.0, 0.02)   # huge underspeed
    assert wf <= 0.0484 + 0.01 * 0.02 + 1e-15
    for _ in range(2000):
        wf, gov = governor_step(gov, 20000.0, 0.02)
    assert wf <= 0.06


def test_governor_zero_gains_transparent():
    gov = GovernorState(K_p=0.0, K_i=0.0, wf_ff=0.05, rate_limit=1e9)
    outs = {governor_step(gov, n, 0.02)[0] for n in (30000.0, 36050.0, 40000.0)}
    assert outs == {0.05}


def test_avr_setpoint_holds_field():
    avr = AvrState(integral=52.9)
    v_fd, avr2 = avr_step(avr, 230.0, 0.02)
    assert v_fd == pytest.approx(52.9, rel=1e-12)
    assert avr2.integral == avr.integral


def test_avr_low_voltage_raises_field():
    avr = AvrState(integral=52.9)
    v_fd, _ = avr_step(avr, 220.0, 0.02)
    assert v_fd > 52.9


def test_avr_zero_gains_transparent():
    avr = AvrState(K_p=0.0, K_i=0.0, integral=40.0)
    outs = {avr_step(avr, v, 0.02)[0] for v in (180.0, 230.0, 260.0)}
    assert outs == {40.0}


@given(st.lists(st.floats(0.0, 80000.0), min_size=1, max_size=80),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_governor_output_always_within_limits(meas, seed):
    gov = GovernorState()
    for n in meas:
        wf, gov = governor_step(gov, n, 0.02)
        assert gov.wf_min <= wf <= gov.wf_max


@given(st.lists(st.floats(0.0, 500.0), min_size=1, max_size=80))
@settings(max_examples=60, deadline=None)
def test_avr_output_always_within_limits(meas):
    avr = AvrState(integral=52.9)
    for v in meas:
        v_fd, avr = avr_step(avr, v, 0.02)
        assert 0.0 <= v_fd <= avr.V_fd_max


def test_governor_anti_windup_recovery():
    gov = GovernorState(wf_ff=0.0484, rate_limit=1e9)
    # drive into deep saturation
    for _ in range(500):
        wf, gov = governor_step(gov, 20000.0, 0.02)
    assert wf == gov.wf_max
    # one step after the error flips sign the output must leave the limit
    wf, gov = governor_step(gov, 40000.0, 0.02)
    assert wf < gov.wf_max


def test_avr_anti_windup_recovery():
    avr = AvrState(integral=52.9)
    for _ in range(500):
        v_fd, avr = avr_step(avr, 0.0, 0.02)
    assert v_fd == avr.V_fd_max
    v_fd, avr = avr_step(avr, 400.0, 0.02)
    assert v_fd < avr.V_fd_max


def test_governor_closed_loop_recovers_minus_50kw_step(gg_params):
    # gas generator + governor alone: a -50 kW load step at the design point
    # must bring the speed back inside +-0.2 % of 36050 rpm within 5 s
    from apucosim.gasgen import GasGenInput, GasGenState, HEALTHY, state_update
    from apucosim.gasgen.engine import trim_fuel

    n_set = 36050.0
    wf0, _ = trim_fuel(gg_params, n_set, 500.0)
    gov = GovernorState(N_set=n_set, wf_ff=wf0, prev_wf=wf0)
    x = GasGenState(N=n_set)
    wf = wf0
    dt = 0.02
    back_in_band_at = None
    for k in range(1, int(6.0 / dt) + 1):
        t = k * dt
        pe = 500.0 if t < 1.0 else 450.0
        x, _ = state_update(gg_params, x, GasGenInput(wf=wf), HEALTHY, pe, dt=dt)
        wf, gov = governor_step(gov, x.N, dt)
        if t > 1.0:
            if abs(x.N - n_set) < 0.002 * n_set:
                if back_in_band_at is None:
                    back_in_band_at = t
            else:
                back_in_band_at = None
    assert back_in_band_at is not None and back_in_band_at - 1.0 < 5.0
    assert abs(x.N - n_set) < 0.002 * n_set
