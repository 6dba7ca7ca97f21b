import math
import random
import struct
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from machine_reference import SingularMatrix, solve_dense

from apucosim.numerics import (
    _THETA16,
    NEWTON_MAX_ITERATIONS,
    NonConvergence,
    SingularJacobian,
    SingularStageMatrix,
    StepperOptions,
    StepUnderflow,
    _broyden,
    _eliminate,
    expm,
    integrate_adaptive,
    newton_solve,
)


# ---------------------------------------------------------------- newton_solve

def test_newton_linear_one_step():
    x, _ = newton_solve(lambda v: [v[0] - 3.0], [0.0])
    assert abs(x[0] - 3.0) < 1e-9


def test_newton_quadratic():
    x, _ = newton_solve(lambda v: [v[0] * v[0] - 4.0], [3.0])
    assert abs(x[0] - 2.0) < 1e-8


def test_newton_counts_one_iteration_for_affine():
    calls = {"n": 0}

    def affine(v):
        calls["n"] += 1
        return np.array([2.0 * v[0] + v[1] - 5.0, -v[0] + 3.0 * v[1] + 1.0])

    # from 1e-3 off the root (16/7, 3/7) the finite-difference Jacobian's
    # rounding leaves a residual far below NEWTON_TOLERANCE after one step:
    # initial residual + 2 FD columns + 1 damped-free trial, nothing more
    newton_solve(affine, np.array([16.0 / 7.0 + 1e-3, 3.0 / 7.0 - 1e-3]))
    assert calls["n"] == 4


@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_newton_affine_systems_converge_undamped_in_n_plus_3_evaluations(n, seed):
    # from the zero start the finite-difference step is its 1e-9 absolute
    # floor, which leaves the first step an error of about 1e-8 to 1e-7, so
    # one Broyden step follows: the start, n columns and two trials
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + np.eye(n) * n
    xs = rng.normal(size=n)
    b = a @ xs
    trials = []

    def res(v):
        trials.append(v.copy())
        return a @ v - b

    x, _ = newton_solve(res, np.zeros(n))
    assert np.allclose(x, xs, atol=1e-7)
    assert len(trials) <= n + 3
    # no trial is damped: damping follows only a trial whose residual is
    # not below the last iterate's, so every trial after the columns is an
    # iterate and each lowers the residual
    norms = [np.max(np.abs(a @ v - b)) for v in [trials[0], *trials[n + 1:]]]
    assert all(later < earlier for earlier, later in zip(norms, norms[1:]))


def test_newton_carried_exact_jacobian_skips_finite_differences():
    a = np.array([[2.0, 1.0], [-1.0, 3.0]])
    calls = {"n": 0}

    def affine(v):
        calls["n"] += 1
        return a @ v - np.array([5.0, -1.0])

    x, jac = newton_solve(affine, np.array([10.0, -10.0]), jacobian=a)
    # initial residual + one trial; Broyden leaves an exact Jacobian as it is
    assert calls["n"] == 2
    assert np.allclose(a @ x, [5.0, -1.0], atol=1e-12)
    assert np.allclose(jac, a, rtol=1e-12)


def _curved(v):
    return np.array([v[0] ** 2 + v[1] - 3.0, v[0] - np.exp(-v[1]) - 0.5])


@pytest.mark.parametrize("jacobian", [
    None,
    -np.array([[2.0, 1.0], [1.0, math.exp(-1.0)]]),   # negated: an ascent step
    np.array([[1.0, 2.0], [2.0, 4.0]]),                # singular
])
def test_newton_wrong_carried_jacobian_reaches_the_same_root(jacobian, monkeypatch):
    from apucosim import numerics
    reference, _ = newton_solve(_curved, np.array([1.0, 1.0]))
    builds = []
    fd = numerics._fd_jacobian
    monkeypatch.setattr(numerics, "_fd_jacobian",
                        lambda *args: builds.append(args[1].copy()) or fd(*args))
    x, jac = newton_solve(_curved, np.array([1.0, 1.0]), jacobian=jacobian)
    # one finite-difference build at the guess, whether or not one was given
    assert len(builds) == 1 and np.array_equal(builds[0], [1.0, 1.0])
    assert np.max(np.abs(_curved(x))) < 1e-10
    assert np.allclose(x, reference, atol=1e-9)
    assert [len(row) for row in jac] == [2, 2]


def test_newton_singular_fresh_jacobian_raises():
    # both residuals move with x0 + x1 alone, so the finite-difference
    # Jacobian at the guess has two equal columns
    def parallel(v):
        return np.array([v[0] + v[1] - 1.0, 2.0 * v[0] + 2.0 * v[1] - 3.0])

    with pytest.raises(SingularJacobian) as exc:
        newton_solve(parallel, np.array([0.0, 0.0]))
    assert exc.value.iteration == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_newton_elimination_agrees_with_lapack(n):
    # the step of every Newton iteration, Gaussian elimination with partial
    # pivoting on lists, against LAPACK on well-conditioned systems whose
    # rows are shuffled so that the pivots must be searched for
    rng = np.random.default_rng(n)
    for _ in range(200):
        a = (rng.normal(size=(n, n)) + n * np.eye(n))[rng.permutation(n)]
        assert np.linalg.cond(a) < 1e3
        b = rng.normal(size=n)
        x = _eliminate(a.tolist(), b.tolist())
        ref = np.linalg.solve(a, b)
        assert all(type(v) is float for v in x)
        assert np.max(np.abs(np.array(x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_newton_elimination_stops_at_an_exactly_zero_pivot():
    assert _eliminate(((1.0, 2.0), (2.0, 4.0)), [1.0, 2.0]) is None
    assert _eliminate(((1.0, 0.0, 2.0), (3.0, 0.0, 1.0), (0.0, 0.0, 5.0)),
                      [1.0, 2.0, 3.0]) is None


def _eliminate_loop(a, b):
    """Gaussian elimination with partial pivoting for any n, the loop that
    _eliminate runs for n other than 2: the reference of its 2x2 path."""
    n = len(b)
    m = [[*row, bi] for row, bi in zip(a, b)]
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(m[i][k]) > abs(m[p][k]):
                p = i
        pivot = m[p]
        if pivot[k] == 0.0:
            return None
        m[k], m[p] = pivot, m[k]
        for row in m[k + 1:]:
            f = row[k] / pivot[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * pivot[j]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        s = m[k][n]
        for j in range(k + 1, n):
            s -= m[k][j] * x[j]
        x[k] = s / m[k][k]
    return x


def _broyden_loop(jac, s, rt, r):
    """The good Broyden update as generator expressions over any n: the
    reference of _broyden's 2x2 path."""
    ss = sum(v * v for v in s)
    if not ss > 0.0:
        return jac
    return tuple(tuple(a + (rti - ri - sum(b * sj for b, sj in zip(row, s))) * sj / ss
                       for a, sj in zip(row, s))
                 for row, rti, ri in zip(jac, rt, r))


def _bits(values):
    """The IEEE bytes of each float (so -0.0 and NaN compare exactly)."""
    return None if values is None else [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("seed", range(3))
def test_newton_2x2_paths_take_the_loops_operations(seed):
    # the cycle match's 2x2 elimination and Broyden update are written out;
    # they give the general loops' bits, signed zeros, exactly zero pivots
    # (singular), pivot ties, overflow and NaN included
    rng = random.Random(seed)
    specials = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-300, -1e300, math.inf, math.nan)

    def value():
        if rng.random() < 0.25:
            return rng.choice(specials)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)

    for _ in range(20000):
        a = ((value(), value()), (value(), value()))
        b = [value(), value()]
        assert _bits(_eliminate(a, b)) == _bits(_eliminate_loop(a, b))
        s, rt = [value(), value()], [value(), value()]
        assert [_bits(row) for row in _broyden(a, s, rt, b)] == [
            _bits(row) for row in _broyden_loop(a, s, rt, b)]
    assert _eliminate(((1.0, 2.0), (-1.0, 3.0)), [1.0, 1.0]) == pytest.approx([0.2, 0.4])


def test_newton_returns_carried_jacobian_when_guess_is_a_root():
    jac0 = ((1.0,),)
    x, jac = newton_solve(lambda v: [v[0] - 3.0], [3.0], jacobian=jac0)
    assert x == [3.0] and jac == jac0
    assert newton_solve(lambda v: [v[0] - 3.0], [3.0])[1] is None


def test_newton_nonconvergence_reports_norm():
    with pytest.raises(NonConvergence) as exc:
        newton_solve(lambda v: np.array([v[0] ** 2 + 1.0]), np.array([0.5]))
    assert exc.value.iterations == NEWTON_MAX_ITERATIONS
    assert exc.value.final_norm > 0


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

# tolerances for tests that need no particular ones
RTOL, ATOL = 1e-6, 1e-9


def test_stepper_options_are_three_required_values():
    assert [f.name for f in fields(StepperOptions)] == [
        "relative_tolerance", "absolute_tolerance", "max_step"]
    assert all(f.default is MISSING for f in fields(StepperOptions))
    # a max_step below the integrator's default first step is a valid setting
    opts = StepperOptions(relative_tolerance=1e-4, absolute_tolerance=1e-5, max_step=5e-5)
    assert opts.max_step == 5e-5


@pytest.mark.parametrize("field, value", [
    (name, value) for name in ("relative_tolerance", "absolute_tolerance")
    for value in (0.0, -1e-6, math.nan)
] + [("max_step", value) for value in (0.0, -1e-4, math.nan, math.inf)])
def test_stepper_options_refuse_a_bad_value(field, value):
    good = {"relative_tolerance": 1e-4, "absolute_tolerance": 1e-5, "max_step": 1e-4}
    with pytest.raises(ValueError, match=field):
        StepperOptions(**{**good, field: value})


@pytest.mark.parametrize("initial_step, min_step", [(1e-4, 0.0), (1e-6, 1e-5)],
                         ids=["zero-min-step", "min-step-above-initial"])
def test_integrate_adaptive_refuses_bad_step_bounds(initial_step, min_step):
    opts = StepperOptions(relative_tolerance=RTOL, absolute_tolerance=ATOL, max_step=1.0)
    with pytest.raises(ValueError, match="min_step"):
        integrate_adaptive(lambda t: (np.zeros((1, 1)), np.zeros(1)), np.array([1.0]),
                           (0.0, 1.0), opts, initial_step=initial_step, min_step=min_step)


def test_constant_solution_exact():
    opts = StepperOptions(relative_tolerance=RTOL, absolute_tolerance=ATOL, max_step=1.0)
    res = integrate_adaptive(lambda t: (np.zeros((1, 1)), np.zeros(1)),
                             np.array([5.0]), (0.0, 1.0), opts)
    assert res.state[0] == 5.0
    assert res.t == 1.0


def test_stiff_exponential():
    rtol = 1e-7
    opts = StepperOptions(relative_tolerance=rtol, absolute_tolerance=1e-30,
                          max_step=0.02)
    res = integrate_adaptive(lambda t: (np.array([[-1000.0]]), np.zeros(1)),
                             np.array([1.0]), (0.0, 0.02), opts, initial_step=1e-6)
    exact = math.exp(-20.0)
    assert abs(res.state[0] - exact) / exact < 10 * rtol


def test_cosine_quadrature():
    opts = StepperOptions(relative_tolerance=1e-8, absolute_tolerance=1e-10,
                          max_step=math.pi / 2)
    res = integrate_adaptive(lambda t: (np.zeros((1, 1)), np.array([math.cos(t)])),
                             np.array([0.0]), (0.0, math.pi / 2), opts)
    assert abs(res.state[0] - 1.0) < 1e-7


def test_tolerance_monotonicity_on_exponential():
    errors = []
    for rtol in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 6.25e-6, 3.125e-6):
        opts = StepperOptions(relative_tolerance=rtol, absolute_tolerance=1e-30,
                              max_step=0.02)
        res = integrate_adaptive(lambda t: (np.array([[-1000.0]]), np.zeros(1)),
                                 np.array([1.0]), (0.0, 0.02), opts, initial_step=1e-6)
        errors.append(abs(res.state[0] - math.exp(-20.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse * (1.0 + 1e-12)


def test_observers_see_every_accepted_step():
    seen = []
    opts = StepperOptions(relative_tolerance=RTOL, absolute_tolerance=ATOL, max_step=0.1)
    res = integrate_adaptive(lambda t: (-np.eye(1), np.zeros(1)), np.array([1.0]),
                             (0.0, 0.1), opts, observers=[lambda t, y: seen.append(t)])
    assert len(seen) == res.accepted
    assert seen[-1] == 0.1
    assert all(b > a for a, b in zip(seen, seen[1:]))


def test_final_time_exact():
    opts = StepperOptions(relative_tolerance=RTOL, absolute_tolerance=ATOL, max_step=0.0173)
    res = integrate_adaptive(lambda t: (-np.eye(1), np.zeros(1)), np.array([1.0]),
                             (0.0, 0.0173), opts)
    assert res.t == 0.0173
    assert res.times[-1] == 0.0173


def test_step_underflow():
    opts = StepperOptions(relative_tolerance=1e-10, absolute_tolerance=1e-14,
                          max_step=1.0)
    # highly oscillatory forcing cannot be met with steps >= 1e-4
    with pytest.raises(StepUnderflow, match="below the smallest step allowed"):
        integrate_adaptive(lambda t: (np.zeros((1, 1)),
                                      np.array([math.sin(1e7 * t) * 1e7])),
                           np.array([0.0]), (0.0, 1.0), opts,
                           initial_step=1e-3, min_step=1e-4)


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
    opts = StepperOptions(relative_tolerance=1.0, absolute_tolerance=1.0, max_step=h)
    res = integrate_adaptive(lambda t: (a, b), y0, (0.0, h), opts, initial_step=h)
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
    opts = StepperOptions(relative_tolerance=RTOL, absolute_tolerance=ATOL, max_step=h)
    with pytest.raises(SingularStageMatrix):
        integrate_adaptive(lambda t: (np.array([[a]]), np.zeros(1)),
                           np.array([1.0]), (0.0, 1.0), opts, initial_step=h)


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
    th = 40.0    # 1-norm far above the Taylor polynomial's bound
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
    with pytest.raises(ValueError):
        expm(np.zeros(3))


# degree-13 Pade coefficients and the 1-norm bound up to which that
# approximant is accurate to double precision (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm_pade_reference(a):
    """The exponential by scaling and squaring with the degree-13 Pade
    approximant and one solve (Higham 2005, SIAM J. Matrix Anal. Appl.
    26(4)), one common scaling for a stack."""
    a = np.array(a, dtype=float)
    norm = float(np.max(np.sum(np.abs(a), axis=-2))) if a.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0 ** squarings
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _assert_matches_pade(a):
    """expm(a) within 1e-13 of the Pade reference, relative to each
    matrix's largest entry."""
    got, want = expm(a), _expm_pade_reference(a)
    scale = np.max(np.abs(want), axis=(-2, -1))
    assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 1e-13 * scale)


@pytest.mark.parametrize("n, scale", [(2, 40.0), (7, 0.1), (7, 3.0), (8, 1e-3),
                                      (8, 25.0)])
def test_expm_2d_bits_unchanged(n, scale):
    # the five 2-D cases that locked the Pade approximant's bits: the Taylor
    # polynomial agrees with it to rounding
    _assert_matches_pade(
        np.random.default_rng(n + int(scale * 10)).normal(size=(n, n)) * scale)


@pytest.mark.parametrize("seed", range(4))
def test_expm_stacks_match_pade_over_the_machine_norm_range(seed):
    # the machine's exponentials have 1-norms of 1.2-6: a stack whose slices
    # span 1-6, and one as large as a faulted build's batch (26 steps of 4
    # sub-steps)
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(12, 8, 8))
    norms = np.max(np.sum(np.abs(stack), axis=-2), axis=-1)
    _assert_matches_pade(stack * (np.linspace(1.0, 6.0, 12) / norms)[:, None, None])
    _assert_matches_pade(rng.normal(size=(104, 8, 8)))


def test_taylor_bound_holds_at_theta():
    # e^theta times the series' tail beyond degree 16 stays below 2^-53 at
    # _THETA16, and exceeds it above the 0.787 the bound allows at most
    def tail(theta):
        return math.exp(theta) * math.fsum(theta ** k / math.factorial(k)
                                           for k in range(17, 60))
    assert tail(_THETA16) <= 2.0 ** -53 < tail(0.788)


def test_expm_calls_no_linear_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm called np.linalg")

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    a = np.random.default_rng(3).normal(size=(5, 8, 8)) * 4.0
    assert np.all(np.isfinite(expm(a)))


def test_expm_stack_matches_slice_by_slice():
    # one common scaling for the stack: slices with smaller norms are
    # squared more often than alone, which costs only rounding
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(6, 8, 8)) * np.array([1e-3, 0.1, 1.0, 3.0, 8.0,
                                                   20.0])[:, None, None]
    got = expm(stack)
    assert got.shape == stack.shape
    for g, a in zip(got, stack):
        want = expm(a)
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(expm(stack[None, 2:4])[0], expm(stack[2:4]))
