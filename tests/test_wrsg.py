import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dq0_oracle import ClassicDq0Generator

from apucosim.numerics import StepperOptions, integrate_adaptive
from apucosim.wrsg import (
    ElectricalSystem,
    FaultParams,
    HEALTHY_FAULT,
    LoadModel,
    NoiseConfig,
    WrsgParams,
    WrsgState,
    build_L,
    currents_fast,
    currents_from_flux,
    field_voltage_for_terminal,
    inverse_park,
    machine_derivatives,
    measure,
    mech_power,
    park,
    park_matrix,
    inverse_park_matrix,
    rms_window,
    seed_fault_flux,
    steady_state,
)
from apucosim.wrsg.measurement import WindowTooShort

W_E = 2.0 * math.pi * 400.0
R_225 = 3.0 * 230.0 ** 2 / 225e3


# ----------------------------------------------------------------------- park

def test_park_aligned_balanced_set():
    vm, theta = 325.27, 0.83
    abc = [vm * math.cos(theta), vm * math.cos(theta - 2 * math.pi / 3),
           vm * math.cos(theta + 2 * math.pi / 3)]
    qd0 = park(abc, theta)
    assert qd0[0] == pytest.approx(vm, rel=1e-12)
    assert abs(qd0[1]) < 1e-9 and abs(qd0[2]) < 1e-9


def test_park_zero_vector():
    assert np.all(park([0.0, 0.0, 0.0], 1.234) == 0.0)


@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
       st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_park_round_trip(abc, theta):
    back = inverse_park(park(abc, theta), theta)
    scale = max(1.0, float(np.max(np.abs(abc))))
    assert np.max(np.abs(back - np.array(abc))) < 1e-14 * scale


def test_park_resistance_similarity_is_identity():
    # T diag(r) T^-1 = r I for scalar-diagonal stator resistance
    theta = 0.456
    t = park_matrix(theta)
    tinv = inverse_park_matrix(theta)
    rs = 0.0044
    m = t @ (rs * np.eye(3)) @ tinv
    assert np.max(np.abs(m - rs * np.eye(3))) < 1e-15


# ------------------------------------------------------------------ machine L

def test_build_L_reference_entries():
    model = build_L(WrsgParams())
    assert model.L[0, 0] == pytest.approx(-(0.162e-3 + 19.8e-6), rel=1e-12)
    assert model.L[1, 3] == pytest.approx(0.221e-3, rel=1e-12)
    assert model.L[3, 1] == pytest.approx(-0.221e-3, rel=1e-12)
    # q-damper self term uses the q-axis magnetizing inductance
    assert model.L[5, 5] == pytest.approx(0.162e-3 + 0.144e-3, rel=1e-12)
    assert abs(np.linalg.det(model.L)) > 0.0


def test_zero_sequence_default_and_override():
    assert build_L(WrsgParams()).L[2, 2] == pytest.approx(-19.8e-6)
    assert build_L(WrsgParams(L_0=5e-5)).L[2, 2] == pytest.approx(-5e-5)


# ----------------------------------------------------------- currents mapping

def test_currents_healthy_identity():
    model = build_L(WrsgParams())
    rng = np.random.default_rng(3)
    i_known = rng.normal(size=6) * 100.0
    lam = model.L @ i_known
    state = WrsgState.from_array(np.append(lam, [0.0, 0.3]))
    i = currents_from_flux(state, HEALTHY_FAULT, model)
    assert np.max(np.abs(i[:6] - i_known)) < 1e-10 * 100.0
    assert i[6] == 0.0


def test_currents_zero_flux():
    model = build_L(WrsgParams())
    i = currents_from_flux(WrsgState(), FaultParams(mu=0.05, k_rf=1.0), model)
    assert np.all(i == 0.0)


def test_currents_open_branch_limit():
    p = WrsgParams()
    model = build_L(p)
    st = steady_state(p, R_225, 50.0, W_E, theta0=0.9)
    st = seed_fault_flux(st, FaultParams(mu=0.05, k_rf=1.0), p)
    # branch flagged open: behaves exactly as healthy
    i = currents_from_flux(st, FaultParams(mu=0.05, k_rf=1e6), model)
    assert abs(i[6]) < 1e-6 * 326.0


def test_currents_7x7_matches_closed_form():
    p = WrsgParams()
    model = build_L(p)
    fault = FaultParams(mu=0.07, k_rf=2.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        y = rng.normal(size=8) * np.array([0.1] * 7 + [math.pi])
        i7 = currents_from_flux(WrsgState.from_array(y), fault, model)
        i6, i_f = currents_fast(y, fault, model)
        assert np.max(np.abs(i7 - np.append(i6, i_f))) < 1e-9


# ------------------------------------------------------------------- dynamics

def test_steady_state_derivative_vanishes():
    p = WrsgParams()
    vfd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    st = steady_state(p, R_225, vfd, W_E)
    dy = machine_derivatives(st, vfd, W_E, HEALTHY_FAULT,
                             LoadModel(R_phase=R_225), p)
    scale = np.maximum(np.abs(st.as_array()[:7]), 1e-3)
    assert np.max(np.abs(dy[:7]) / (scale * W_E)) < 1e-9


def test_fault_branch_inert_when_healthy():
    p = WrsgParams()
    st = steady_state(p, R_225, 50.0, W_E)
    dy = machine_derivatives(st, 50.0, W_E, HEALTHY_FAULT,
                             LoadModel(R_phase=R_225), p)
    assert dy[6] == 0.0


def test_rest_state_zero_derivative():
    p = WrsgParams()
    dy = machine_derivatives(WrsgState(), 0.0, 0.0, HEALTHY_FAULT,
                             LoadModel(R_phase=1e9), p)
    assert np.all(dy == 0.0)


# ----------------------------------------------------------------- mech power

def test_mech_power_balanced_reference():
    # 229.7 V / 325.7 A rms three-phase unity pf, doubled and divided by eta
    p = WrsgParams()
    v = 229.7 * math.sqrt(2.0)
    i = 325.7 * math.sqrt(2.0)
    v_abc = np.array([v, -v / 2, -v / 2])
    i_abc = np.array([i, -i / 2, -i / 2])
    total, loss = mech_power(v_abc, i_abc, 0.0, HEALTHY_FAULT, p)
    expected = 2.0 * 1.5 * v * i / 0.95 * 1e-3
    assert total == pytest.approx(expected, rel=1e-12)
    assert total == pytest.approx(2.0 * 224.4 / 0.95, rel=2e-3)
    assert loss == 0.0


def test_mech_power_fault_loss_positive_rms():
    p = WrsgParams()
    fault = FaultParams(mu=0.05, k_rf=1.0)
    rng = np.random.default_rng(5)
    # average over one electrical period of representative waveforms
    total_loss = 0.0
    for k in range(100):
        th = 2 * math.pi * k / 100
        i_a = 460.0 * math.cos(th)
        i_f = 6000.0 * math.cos(th - 0.4)
        i_abc = np.array([i_a, 0.0, 0.0])
        _, loss = mech_power(np.zeros(3), i_abc, i_f, fault, p)
        total_loss += loss
    assert total_loss / 100 > 0.0


# ---------------------------------------------------------------- measurement

def test_measure_zero_std_identity():
    v, i = measure([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0], NoiseConfig())
    assert np.all(v == [1.0, 2.0, 3.0, 4.0]) and np.all(i == [5.0, 6.0, 7.0])


def test_measure_noise_statistics():
    rng = np.random.default_rng(123)
    cfg = NoiseConfig(std_vv=1.0)
    n = 100_000
    vals = np.empty(n)
    for k in range(n // 4):
        v, _ = measure(np.zeros(4), np.zeros(3), cfg, rng=rng)
        vals[4 * k:4 * k + 4] = v
    assert abs(np.std(vals) - 1.0) < 0.02


def test_measure_seeded_reproducibility():
    cfg = NoiseConfig(std_vv=2.0, std_vi=0.5, seed=42)
    a = measure(np.ones(4), np.ones(3), cfg)
    b = measure(np.ones(4), np.ones(3), cfg)
    assert np.all(a[0] == b[0]) and np.all(a[1] == b[1])


def test_rms_pure_sine():
    t = np.linspace(0.0, 0.01, 4001)
    x = 100.0 * np.sin(2 * math.pi * 400.0 * t)
    assert rms_window(t, x, 1 / 400.0) == pytest.approx(100.0 / math.sqrt(2), rel=1e-6)


def test_rms_dc():
    t = np.linspace(0.0, 0.01, 101)
    assert rms_window(t, np.full(101, 3.7), 1 / 400.0) == pytest.approx(3.7, rel=1e-12)


def test_rms_with_third_harmonic():
    a1, a3 = 100.0, 5.0
    t = np.linspace(0.0, 0.01, 8001)
    x = a1 * np.sin(2 * math.pi * 400 * t) + a3 * np.sin(3 * 2 * math.pi * 400 * t)
    expected = math.sqrt(a1 ** 2 / 2 + a3 ** 2 / 2)
    assert rms_window(t, x, 1 / 400.0) == pytest.approx(expected, rel=1e-5)


def test_rms_window_too_short():
    with pytest.raises(WindowTooShort):
        rms_window([0.0, 1e-4], [1.0, 1.0], 1 / 400.0)


# ------------------------------------------------------- trajectory behaviour

def test_healthy_phase_symmetry_analytic():
    # balanced steady state: the three phase rms values agree to round-off
    # when the constant dq currents are swept through one electrical period
    p = WrsgParams()
    vfd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    st = steady_state(p, R_225, vfd, W_E)
    model = build_L(p)
    i6, _ = currents_fast(st.as_array(), HEALTHY_FAULT, model)
    n = 720
    waves = np.empty((n, 3))
    for k in range(n):
        theta = 2 * math.pi * k / n
        waves[k] = inverse_park(i6[:3], theta)
    rms = np.sqrt(np.mean(waves ** 2, axis=0))   # uniform full-period grid
    assert rms.max() / rms.min() < 1.0 + 1e-9


def test_fault_breaks_symmetry_and_open_branch_recovers():
    p = WrsgParams()
    vfd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    st = steady_state(p, R_225, vfd, W_E)
    load = LoadModel(R_phase=R_225)

    def phase_rms_after(fault):
        y0 = seed_fault_flux(st, fault, p).as_array() if fault.active \
            else st.as_array()
        sysm = ElectricalSystem(p, load, fault, W_E, vfd, R_225)
        rec = {"t": [], "ia": [], "ib": [], "ic": []}

        def obs(t, y):
            i_abc, *_ = sysm.terminal(y)
            rec["t"].append(t)
            rec["ia"].append(i_abc[0])
            rec["ib"].append(i_abc[1])
            rec["ic"].append(i_abc[2])

        opts = StepperOptions(relative_tolerance=1e-5,
                              absolute_tolerance=1e-7,
                              initial_step=1e-7, max_step=1e-4)
        integrate_adaptive(sysm.flux_system(y0[7], 0.0), y0[:7], (0.0, 0.05), opts,
                           observers=[lambda t, lam: obs(t, np.append(
                               lam, y0[7] + W_E * t))], record=False)
        t = np.array(rec["t"])
        return np.array([rms_window(t, rec[c], 1 / 400.0)
                         for c in ("ia", "ib", "ic")])

    healthy = phase_rms_after(HEALTHY_FAULT)
    faulted = phase_rms_after(FaultParams(mu=0.05, k_rf=1.0))
    assert faulted.max() / faulted.min() > 1.01
    assert healthy.max() / healthy.min() < 1.001
    # opening the branch recovers the healthy trajectory monotonically
    prev_gap = None
    for krf in (1e2, 1e3, 1e4):
        r = phase_rms_after(FaultParams(mu=0.05, k_rf=krf))
        gap = float(np.max(np.abs(r - healthy)))
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 0.05 * float(healthy.mean())


@given(st.floats(0.001, 0.5), st.floats(0.0, 100.0),
       st.floats(-2e3, 2e3), st.floats(-1e4, 1e4))
@settings(max_examples=60, deadline=None)
def test_mech_power_loss_terms_non_negative(mu, k_rf, i_a, i_f):
    # each quadratic dissipation term of the power bookkeeping is >= 0
    p = WrsgParams()
    fault = FaultParams(mu=mu, k_rf=k_rf)
    assert fault.r_f(p.r_s) >= 0.0
    assert i_f * i_f * fault.r_f(p.r_s) >= 0.0
    assert (i_a - i_f) ** 2 * fault.r_sa_f(p.r_s) >= 0.0


# ------------------------------------------------------- batched evaluation

def _segment_states(p, fault, n=40, seed=7):
    """Perturbed steady states at spread rotor angles, fault flux seeded."""
    vfd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    st0 = steady_state(p, R_225, vfd, W_E)
    if fault.active:
        st0 = seed_fault_flux(st0, fault, p)
    rng = np.random.default_rng(seed)
    states = st0.as_array() * (1.0 + 0.05 * rng.normal(size=(n, 8)))
    states[:, 6] += 0.01 * rng.normal(size=n)     # nonzero fault current
    states[:, 7] = rng.uniform(0.0, 2.0 * math.pi, n)
    return vfd, states


@pytest.mark.parametrize("fault", [HEALTHY_FAULT, FaultParams(mu=0.05, k_rf=1.0)],
                         ids=["healthy", "faulted"])
@pytest.mark.parametrize("l_phase", [0.0, 5e-5], ids=["resistive", "series-RL"])
def test_terminal_and_derivatives_batched_match_per_row(fault, l_phase):
    p = WrsgParams()
    vfd, states = _segment_states(p, fault)
    load = LoadModel(kind="series-RL" if l_phase else "resistive-bank",
                     R_phase=R_225, L_phase=l_phase)
    sysm = ElectricalSystem(p, load, fault, W_E, vfd, R_225,
                            noise_w=[0.5, -0.3, 0.2, 0.1, -0.2, 0.05])
    batch = sysm.terminal(states) + (sysm.derivatives(0.0, states),)
    for k, y in enumerate(states):
        row = sysm.terminal(y) + (sysm.derivatives(0.0, y),)
        for got, want in zip(batch, row):
            want = np.asarray(want)
            scale = float(np.max(np.abs(want)))
            assert np.all(np.abs(np.asarray(got)[k] - want) <= 1e-12 * scale)


def test_faulted_derivatives_match_current_form():
    # the flux equations written through the 7x7 current solve: stator rows
    # see (R_load + r_s) i less the shorted turns' mu r_s i_f drop
    p = WrsgParams()
    fault = FaultParams(mu=0.07, k_rf=2.0)
    vfd, states = _segment_states(p, fault, n=10, seed=3)
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), fault, W_E, vfd, R_225)
    rs = R_225 + p.r_s
    for y in states:
        iq, id_, i0, ifd, ikd, ikq, i_f = currents_from_flux(
            WrsgState.from_array(y), fault, sysm.model)
        cs, sn = math.cos(y[7]), math.sin(y[7])
        mu_rs_if = fault.mu * p.r_s * i_f
        want = np.array([
            rs * iq - W_E * y[1] - mu_rs_if * 2.0 / 3.0 * cs,
            rs * id_ + W_E * y[0] - mu_rs_if * 2.0 / 3.0 * sn,
            rs * i0 - mu_rs_if / 3.0,
            vfd - p.r_fd * ifd, -p.r_kd * ikd, -p.r_kq * ikq,
            fault.mu * p.r_s * (cs * iq + sn * id_ + i0 - i_f)
            - fault.r_f(p.r_s) * i_f,
            W_E])
        got = sysm.derivatives(0.0, y)
        assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


def test_affine_form_reproduces_healthy_derivatives():
    p = WrsgParams()
    vfd, states = _segment_states(p, HEALTHY_FAULT, n=5)
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), HEALTHY_FAULT, W_E,
                            vfd, R_225, noise_w=[0.1] * 6)
    a, b = sysm.affine()
    dy = sysm.derivatives(0.0, states)
    assert np.allclose(dy[:, :6], states[:, :6] @ a.T + b, rtol=1e-12, atol=1e-9)
    assert np.all(dy[:, 6] == 0.0) and np.all(dy[:, 7] == W_E)
    faulted = ElectricalSystem(p, LoadModel(R_phase=R_225),
                               FaultParams(mu=0.05, k_rf=1.0), W_E, vfd, R_225)
    with pytest.raises(ValueError):
        faulted.affine()


@pytest.mark.parametrize("fault", [HEALTHY_FAULT, FaultParams(mu=0.05, k_rf=1.0),
                                   FaultParams(mu=0.3, k_rf=2.0)],
                         ids=["healthy", "faulted", "faulted-wide"])
@pytest.mark.parametrize("l_phase", [0.0, 5e-5], ids=["resistive", "series-RL"])
def test_flux_system_matches_derivatives(fault, l_phase):
    p = WrsgParams()
    vfd, states = _segment_states(p, fault, n=30, seed=11)
    load = LoadModel(kind="series-RL" if l_phase else "resistive-bank",
                     R_phase=R_225, L_phase=l_phase)
    sysm = ElectricalSystem(p, load, fault, W_E, vfd, R_225,
                            noise_w=[0.5, -0.3, 0.2, 0.1, -0.2, 0.05])
    rng = np.random.default_rng(5)
    for y in states:
        # a segment from a random time and angle, y at its closed-form angle
        t0, theta0 = rng.uniform(0.0, 1.0), y[7]
        t = t0 + rng.uniform(0.0, 0.02)
        y[7] = theta0 + W_E * (t - t0)
        a, b = sysm.flux_system(theta0, t0)(t)
        want = sysm.derivatives(0.0, y)[:7]
        got = a @ y[:7] + b
        # within the rounding of either evaluation: the size of the terms
        scale = np.abs(a) @ np.abs(y[:7]) + np.abs(b)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        # A built column by column from derivatives() at unit fluxes
        unit = np.zeros((8, 8))
        unit[:, 7] = y[7]
        unit[np.arange(7), np.arange(7)] = 1.0
        direct = (sysm.derivatives(0.0, unit[:7]) - sysm.derivatives(0.0, unit[7])).T
        assert np.max(np.abs(direct[:7] - a)) <= 1e-14 * np.max(np.abs(a))


def _rk4(system, y, t0, t1, h):
    """Fixed-step classical Runge-Kutta on d lam/dt = A(t) lam + b(t)."""
    for k in range(round((t1 - t0) / h)):
        t = t0 + k * h
        a1, b1 = system(t)
        a2, b2 = system(t + h / 2)
        a4, b4 = system(t + h)
        k1 = a1 @ y + b1
        k2 = a2 @ (y + h / 2 * k1) + b2
        k3 = a2 @ (y + h / 2 * k2) + b2
        k4 = a4 @ (y + h * k3) + b4
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


@pytest.mark.parametrize("mu", [0.03, 0.05, 0.08])
def test_faulted_segment_truncation_error(mu):
    # one faulted segment at the machine-only run's tolerances against a
    # reference: RK4 at 2e-6 s moves by < 1e-10 relative when its step is
    # halved and matches this stepper at rtol 1e-11 (~200k steps, too slow
    # for the suite); the state at 0.05 s within 1.5e-6 of the fluxes' size
    p = WrsgParams()
    fault = FaultParams(mu=mu, k_rf=1.0)
    vfd = field_voltage_for_terminal(p, R_225, W_E, 230.0)
    y0 = seed_fault_flux(steady_state(p, R_225, vfd, W_E), fault, p).as_array()
    sysm = ElectricalSystem(p, LoadModel(R_phase=R_225), fault, W_E, vfd, R_225)
    system = sysm.flux_system(y0[7], 0.0)
    opts = StepperOptions(relative_tolerance=1e-5, absolute_tolerance=1e-6,
                          initial_step=1e-6, max_step=1e-4)
    got = integrate_adaptive(system, y0[:7], (0.0, 0.05), opts, record=False).state
    want = _rk4(system, y0[:7], 0.0, 0.05, 2e-6)
    assert np.max(np.abs(got - want)) < 1.5e-6 * np.max(np.abs(want))


def test_oracle_affine_form_matches_its_derivatives():
    p = WrsgParams()
    oracle = ClassicDq0Generator(p, R_225)
    a, b = oracle.make_affine(50.0, W_E)(0.0)
    deriv = oracle.make_derivatives(50.0, W_E)
    _, states = _segment_states(p, HEALTHY_FAULT, n=10, seed=2)
    for y in states:
        yo = np.append(y[:6], y[7])
        want = deriv(0.0, yo)
        assert want[6] == W_E
        assert np.max(np.abs(a @ yo[:6] + b - want[:6])) <= 1e-14 * np.max(np.abs(want[:6]))
