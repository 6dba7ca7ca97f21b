import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apucosim.numerics import (
    IntegralAccumulator,
    NewtonOptions,
    NonConvergence,
    SingularMatrix,
    SingularStageMatrix,
    StepperOptions,
    StepUnderflow,
    TimeReversal,
    accumulate,
    expm,
    integrate_adaptive,
    newton_solve,
    solve_dense,
)


# ---------------------------------------------------------------- newton_solve

def test_newton_linear_one_step():
    x = newton_solve(lambda v: v - 3.0, np.array([0.0]))
    assert abs(x[0] - 3.0) < 1e-9


def test_newton_quadratic():
    x = newton_solve(lambda v: v * v - 4.0, np.array([3.0]))
    assert abs(x[0] - 2.0) < 1e-8


def test_newton_counts_one_iteration_for_affine():
    calls = {"n": 0}

    def affine(v):
        calls["n"] += 1
        return np.array([2.0 * v[0] + v[1] - 5.0, -v[0] + 3.0 * v[1] + 1.0])

    newton_solve(affine, np.array([10.0, -10.0]))
    # initial residual + 2 FD columns + 1 damped-free trial, nothing more
    assert calls["n"] == 4


@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_newton_affine_systems_converge_in_one_damped_free_iteration(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + np.eye(n) * n
    xs = rng.normal(size=n)
    b = a @ xs
    trials = []

    def res(v):
        trials.append(v.copy())
        return a @ v - b

    x = newton_solve(res, np.zeros(n))
    assert np.allclose(x, xs, atol=1e-7)


def test_newton_nonconvergence_reports_norm():
    opts = NewtonOptions(max_iterations=4)
    with pytest.raises(NonConvergence) as exc:
        newton_solve(lambda v: np.array([v[0] ** 2 + 1.0]), np.array([0.5]), opts)
    assert exc.value.iterations == 4
    assert exc.value.final_norm > 0


def test_newton_scale_normalizes_mixed_units():
    # residuals in wildly different units still converge together
    def res(v):
        return np.array([1e6 * (v[0] - 1.0), 1e-6 * (v[1] - 2.0)])

    x = newton_solve(res, np.array([0.0, 0.0]), scale=np.array([1e6, 1e-6]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-8)


# ---------------------------------------------------------------- solve_dense

def test_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(solve_dense(np.eye(3), b), b)


def test_solve_diagonal():
    x = solve_dense(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)


def test_solve_random_7x7_known_solution():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(7, 7)) + 7 * np.eye(7)
    x_known = rng.normal(size=7)
    x = solve_dense(a, a @ x_known)
    assert np.max(np.abs(x - x_known)) < 1e-10


def test_solve_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix) as exc:
        solve_dense(a, np.array([1.0, 2.0]))
    assert exc.value.pivot_index == 1


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_solve_residual_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = rng.normal(size=(n, n))
    if np.linalg.cond(a) > 1e6:
        return
    b = rng.normal(size=n)
    x = solve_dense(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * max(np.linalg.norm(b), 1.0) * np.linalg.cond(a)


# ---------------------------------------------------------- integrate_adaptive

def test_constant_solution_exact():
    res = integrate_adaptive(lambda t: (np.zeros((1, 1)), np.zeros(1)),
                             np.array([5.0]), (0.0, 1.0))
    assert res.state[0] == 5.0
    assert res.t == 1.0


def test_stiff_exponential():
    rtol = 1e-7
    opts = StepperOptions(relative_tolerance=rtol, absolute_tolerance=1e-30,
                          initial_step=1e-6)
    res = integrate_adaptive(lambda t: (np.array([[-1000.0]]), np.zeros(1)),
                             np.array([1.0]), (0.0, 0.02), opts)
    exact = math.exp(-20.0)
    assert abs(res.state[0] - exact) / exact < 10 * rtol


def test_cosine_quadrature():
    opts = StepperOptions(relative_tolerance=1e-8, absolute_tolerance=1e-10)
    res = integrate_adaptive(lambda t: (np.zeros((1, 1)), np.array([math.cos(t)])),
                             np.array([0.0]), (0.0, math.pi / 2), opts)
    assert abs(res.state[0] - 1.0) < 1e-7


def test_tolerance_monotonicity_on_exponential():
    errors = []
    for rtol in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 6.25e-6, 3.125e-6):
        opts = StepperOptions(relative_tolerance=rtol, absolute_tolerance=1e-30,
                              initial_step=1e-6)
        res = integrate_adaptive(lambda t: (np.array([[-1000.0]]), np.zeros(1)),
                                 np.array([1.0]), (0.0, 0.02), opts)
        errors.append(abs(res.state[0] - math.exp(-20.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse * (1.0 + 1e-12)


def test_observers_see_every_accepted_step():
    seen = []
    res = integrate_adaptive(lambda t: (-np.eye(1), np.zeros(1)), np.array([1.0]),
                             (0.0, 0.1), observers=[lambda t, y: seen.append(t)])
    assert len(seen) == res.accepted
    assert seen[-1] == 0.1
    assert all(b > a for a, b in zip(seen, seen[1:]))


def test_final_time_exact():
    res = integrate_adaptive(lambda t: (-np.eye(1), np.zeros(1)), np.array([1.0]),
                             (0.0, 0.0173))
    assert res.t == 0.0173
    assert res.times[-1] == 0.0173


def test_step_underflow():
    opts = StepperOptions(relative_tolerance=1e-10, absolute_tolerance=1e-14,
                          initial_step=1e-3, min_step=1e-4)
    # highly oscillatory forcing cannot be met with steps >= 1e-4
    with pytest.raises(StepUnderflow):
        integrate_adaptive(lambda t: (np.zeros((1, 1)),
                                      np.array([math.sin(1e7 * t) * 1e7])),
                           np.array([0.0]), (0.0, 1.0), opts)


# TR-BDF2 coefficients written out from Hosea & Shampine (1996)
GAMMA = 2.0 - math.sqrt(2.0)
D = GAMMA / 2.0


def test_one_step_equals_closed_form_tr_bdf2_update():
    # constant A: trapezoidal stage to t + gamma h, BDF2 stage to t + h, the
    # embedded third-order estimate filtered through (I - d h A) and the
    # locally extrapolated value, each written as one linear solve
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3)) - 3.0 * np.eye(3)
    b = rng.normal(size=3)
    y0 = rng.normal(size=3)
    h = 0.05
    opts = StepperOptions(relative_tolerance=1.0, absolute_tolerance=1.0,
                          initial_step=h, max_step=h)
    res = integrate_adaptive(lambda t: (a, b), y0, (0.0, h), opts)
    assert res.accepted == 1 and res.rejected == 0

    m = np.eye(3) - D * h * a
    f0 = a @ y0 + b
    g = np.linalg.solve(m, y0 + D * h * f0 + D * h * b)
    c1 = 1.0 / (GAMMA * (2.0 - GAMMA))
    c0 = (1.0 - GAMMA) ** 2 / (GAMMA * (2.0 - GAMMA))
    y1 = np.linalg.solve(m, c1 * g - c0 * y0 + D * h * b)
    w0 = 0.5 - 1.0 / (6.0 * GAMMA)
    wg = 1.0 / (6.0 * GAMMA * (1.0 - GAMMA))
    w1 = (2.0 - 3.0 * GAMMA) / (6.0 * (1.0 - GAMMA))
    est = np.linalg.solve(m, y0 + h * (w0 * f0 + wg * (a @ g + b)
                                       + w1 * (a @ y1 + b)) - y1)
    want = y1 + np.linalg.solve(m, est)
    assert np.max(np.abs(res.state - want)) <= 1e-14 * np.max(np.abs(want))


def test_singular_stage_matrix_raises():
    # A = 1/(d h) makes the first stage matrix I - d h A exactly zero
    h = 0.5
    a = 1.0 / (D * h)
    assert 1.0 - (D * h) * a == 0.0
    opts = StepperOptions(initial_step=h, max_step=h)
    with pytest.raises(SingularStageMatrix):
        integrate_adaptive(lambda t: (np.array([[a]]), np.zeros(1)),
                           np.array([1.0]), (0.0, 1.0), opts)


# ----------------------------------------------------------------- accumulate

def test_accumulate_constant():
    acc = IntegralAccumulator(last_time=0.0, last_sample=450.0)
    accumulate(acc, 0.02, 450.0)
    assert abs(acc.value - 9.0) < 1e-12


def test_accumulate_linear_ramp():
    acc = IntegralAccumulator(last_time=0.0, last_sample=0.0)
    accumulate(acc, 1.0, 100.0)
    assert abs(acc.value - 50.0) < 1e-12


def test_accumulate_sine_period_near_zero():
    f = 400.0
    period = 1.0 / f
    acc = IntegralAccumulator(last_time=0.0, last_sample=0.0)
    n = 100
    for k in range(1, n + 1):
        t = k * period / n
        accumulate(acc, t, math.sin(2 * math.pi * f * t))
    assert abs(acc.value) < 1e-3 * 1.0 * period


def test_accumulate_time_reversal():
    acc = IntegralAccumulator(last_time=1.0, last_sample=0.0)
    with pytest.raises(TimeReversal):
        accumulate(acc, 0.5, 1.0)


def test_accumulate_arrays_match_sequential_samples():
    rng = np.random.default_rng(4)
    t = np.cumsum(rng.uniform(1e-5, 1e-4, 200))
    s = rng.normal(size=200)
    one = IntegralAccumulator(last_time=0.0, last_sample=1.0)
    for tk, sk in zip(t, s):
        accumulate(one, tk, sk)
    many = accumulate(IntegralAccumulator(last_time=0.0, last_sample=1.0), t, s)
    assert many.value == pytest.approx(one.value, rel=1e-12)
    assert (many.last_time, many.last_sample) == (t[-1], s[-1])


def test_accumulate_array_time_reversal():
    acc = IntegralAccumulator(last_time=0.0, last_sample=0.0)
    with pytest.raises(TimeReversal):
        accumulate(acc, [0.1, 0.3, 0.2], [1.0, 2.0, 3.0])


def test_accumulator_reset():
    acc = IntegralAccumulator(last_time=0.0, last_sample=1.0, value=3.0)
    acc.reset(2.0, 5.0)
    assert acc.value == 0.0 and acc.last_time == 2.0 and acc.last_sample == 5.0


@given(st.lists(st.tuples(st.floats(0.001, 10.0), st.floats(-100, 100)),
                min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_accumulate_exact_for_piecewise_linear(segments):
    # trapezoid rule integrates piecewise-linear signals exactly at breakpoints
    acc = IntegralAccumulator(last_time=0.0, last_sample=0.0)
    t, s, exact = 0.0, 0.0, 0.0
    for dt, s_next in segments:
        exact += 0.5 * (s + s_next) * dt
        t += dt
        s = s_next
        accumulate(acc, t, s)
    assert acc.value == pytest.approx(exact, rel=1e-12, abs=1e-9)


def test_newton_non_finite_residual_at_guess():
    from apucosim.numerics import NonFiniteResidual

    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteResidual):
        newton_solve(lambda v: np.sqrt(np.array([v[0]])), np.array([-1.0]))


# ----------------------------------------------------------------------- expm

def test_expm_diagonal_and_zero():
    d = np.diag([-3.0, 0.5, 0.0])
    assert np.allclose(expm(d), np.diag(np.exp([-3.0, 0.5, 0.0])),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(expm(np.zeros((4, 4))), np.eye(4), rtol=0.0, atol=1e-15)


def test_expm_rotation_needs_squaring():
    th = 40.0    # 1-norm far above the Pade bound
    r = expm(np.array([[0.0, -th], [th, 0.0]]))
    c, s = math.cos(th), math.sin(th)
    assert np.max(np.abs(r - np.array([[c, -s], [s, c]]))) < 1e-12


def test_expm_augmented_affine_step():
    # exp([[a, b], [0, 0]] h) carries the exact affine update y -> e^{ah} y
    # + b (e^{ah} - 1) / a in its last column
    a, b, h = -2.5e4, 3.0e3, 1e-4
    r = expm(np.array([[a, b], [0.0, 0.0]]) * h)
    assert r[0, 0] == pytest.approx(math.exp(a * h), rel=1e-13)
    assert r[0, 1] == pytest.approx(b * math.expm1(a * h) / a, rel=1e-13)
    assert r[1, 0] == 0.0 and r[1, 1] == pytest.approx(1.0, rel=1e-15)


def test_expm_matches_taylor_series_and_inverse():
    rng = np.random.default_rng(9)
    small = rng.normal(size=(7, 7)) * 0.1
    series, term = np.eye(7), np.eye(7)
    for k in range(1, 30):
        term = term @ small / k
        series = series + term
    assert np.max(np.abs(expm(small) - series)) < 1e-14
    big = rng.normal(size=(7, 7)) * 3.0
    assert np.max(np.abs(expm(big) @ expm(-big) - np.eye(7))) < 1e-9


def test_expm_rejects_non_square():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
