"""Shared numerical kernels: quasi-Newton with a Jacobian carried between
solves (finite differences, Broyden updates), adaptive linearly implicit ODE
stepper for affine systems (an independent reference for the machine
propagators, which run on a fixed grid), matrix exponential of one matrix
or a stack from matrix products alone (a Taylor polynomial, no solve).

The quasi-Newton solver computes in Python floats, with no numpy: its
iterate is a list of floats, its Jacobian a tuple of row tuples, and each
step comes from Gaussian elimination with partial pivoting. It solves the
2- and 3-unknown cycle matches, whose residual code (station values,
property polynomials and their inversions) would otherwise run on the
numpy scalars of a numpy iterate: the same bits at several times the cost
per operation. The stepper and expm work on numpy arrays. A run's step
settings are a StepperOptions, the three leaves of its scenario's `stepper`
block; the reference stepper takes its initial and smallest step per call.

All kernels are pure (state in, state out) and hold no module-level state,
so independent problems can run on separate threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import mul, neg, sub

import numpy as np

from .errors import NumericalFailure


class NonConvergence(NumericalFailure):
    def __init__(self, iterations: int, final_norm: float):
        self.iterations = iterations
        self.final_norm = final_norm
        super().__init__(f"no convergence after {iterations} iterations "
                         f"(residual norm {final_norm:.3e})")


class SingularJacobian(NumericalFailure):
    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"singular Jacobian at iteration {iteration}")


class NonFiniteResidual(NumericalFailure):
    pass


class StepUnderflow(NumericalFailure):
    def __init__(self, t: float, step: float, smallest: float):
        self.t = t
        self.step = step
        super().__init__(f"required step {step:.3e} below the smallest step "
                         f"allowed, {smallest:.3e}, at t={t:.6g}")


class NonFiniteDerivative(NumericalFailure):
    def __init__(self, t: float, channel: int):
        self.t = t
        self.channel = channel
        super().__init__(f"non-finite derivative in channel {channel} at t={t:.6g}")


class SingularStageMatrix(NumericalFailure):
    def __init__(self, t: float, step: float):
        self.t = t
        self.step = step
        super().__init__(f"singular stage matrix I - d h A in the step of "
                         f"{step:.3e} from t={t:.6g}")


# Newton settings: residuals are commensurate, of order 1, and converged
# when each is below NEWTON_TOLERANCE
NEWTON_TOLERANCE = 1e-10
NEWTON_MAX_ITERATIONS = 40
_JACOBIAN_PERTURBATION = 1e-6    # relative FD step, absolute floor 1e-9
_DAMPING_MIN = 1.0 / 64.0


def _residual(residual_fn, x):
    """residual_fn(x) as a sequence of floats: a tuple is taken to hold
    floats already, any other sequence is read as floats."""
    r = residual_fn(x)
    return r if type(r) is tuple else list(map(float, r))


def _norm(r):
    """max |r_i|, or inf if an entry is not finite."""
    return max(map(abs, r)) if all(map(math.isfinite, r)) else math.inf


def _fd_jacobian(residual_fn, x, r0):
    """Forward-difference Jacobian at x, where the residual is r0, as a
    tuple of rows."""
    columns = []
    for j, xj in enumerate(x):
        dx = max(_JACOBIAN_PERTURBATION * abs(xj), 1e-9)
        xp = x.copy()
        xp[j] += dx
        rp = _residual(residual_fn, xp)
        columns.append([(a - b) / dx for a, b in zip(rp, r0)])
    return tuple(zip(*columns))


def _eliminate(a, b):
    """x with a x = b, by Gaussian elimination with partial pivoting, or
    None if a pivot is exactly zero (a is singular). A 2x2 system, the
    cycle match's, takes _eliminate_2x2, the same operations."""
    n = len(b)
    if n == 2:
        return _eliminate_2x2(a, b)
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
        row = m[k]
        s = row[n]
        for j in range(k + 1, n):
            s -= row[j] * x[j]
        x[k] = s / row[k]
    return x


def _eliminate_2x2(a, b):
    """_eliminate's loop for two unknowns, written out: the same operations
    in the same order, without the loop's list and index bookkeeping."""
    (p0, p1), (q0, q1) = a
    pb, qb = b
    if abs(q0) > abs(p0):
        p0, p1, pb, q0, q1, qb = q0, q1, qb, p0, p1, pb
    if p0 == 0.0:
        return None
    f = q0 / p0
    q1 -= f * p1
    qb -= f * pb
    if q1 == 0.0:
        return None
    x1 = qb / q1
    return [(pb - p1 * x1) / p0, x1]


def _broyden(jac, s, rt, r):
    """Good Broyden update (Broyden 1965) of jac for the step s that moved
    the residual from r to rt, so that the new jac s = rt - r: row i gains
    u_i s / (s.s) with u_i = rt_i - r_i - jac_i.s. jac itself where s.s is
    not positive. A 2x2 jac takes the loop's operations written out, in
    the loop's order (each dot product a sum() from 0, as in the loop)."""
    ss = sum(map(mul, s, s))
    if not ss > 0.0:
        return jac
    if len(s) == 2:
        (a0, a1), (b0, b1) = jac
        s0, s1 = s
        u0 = rt[0] - r[0] - sum((a0 * s0, a1 * s1))
        u1 = rt[1] - r[1] - sum((b0 * s0, b1 * s1))
        return ((a0 + u0 * s0 / ss, a1 + u0 * s1 / ss),
                (b0 + u1 * s0 / ss, b1 + u1 * s1 / ss))
    rows = []
    for row, rti, ri in zip(jac, rt, r):
        u = rti - ri - sum(map(mul, row, s))
        rows.append(tuple([a + u * sj / ss for a, sj in zip(row, s)]))
    return tuple(rows)


def newton_solve(residual_fn, guess, jacobian=None):
    """Quasi-Newton root find for a square system; returns (x, jacobian).

    x is a list of floats, and residual_fn takes such a list and returns a
    sequence of residuals, read as floats unless it is a tuple, which is
    taken to hold floats already; the Jacobian is a tuple of row tuples.
    Convergence is on max |r_i| < NEWTON_TOLERANCE within
    NEWTON_MAX_ITERATIONS iterations. A starting `jacobian` is any square
    nested sequence, read as floats unless it is a tuple, such as the one
    a solve returns, which is taken to hold floats already; without one the
    first iteration builds one by finite differences. After every step
    the Jacobian takes Broyden's rank-one update (Broyden 1965), and the
    returned one, None if no iteration was needed and none was given, can
    start the next solve of a nearby system. A carried (not freshly built)
    Jacobian that is singular (an exactly zero pivot) or whose step does
    not lower the residual norm is rebuilt by finite differences at the
    current point, and the step is taken again; a singular fresh one raises
    SingularJacobian. Only steps from a fresh Jacobian are damped. The last
    residual evaluation is always at the returned x.
    """
    x = list(map(float, guess))
    n = len(x)
    r = _residual(residual_fn, x)
    if len(r) != n:
        raise ValueError("residual dimension does not match guess dimension")
    rn = _norm(r)
    if not math.isfinite(rn):
        raise NonFiniteResidual("residual not finite at initial guess")
    jac = None
    if jacobian is not None:
        jac = jacobian if type(jacobian) is tuple else tuple(
            [tuple(map(float, row)) for row in jacobian])
        if len(jac) != n or any(len(row) != n for row in jac):
            raise ValueError(f"jacobian is not {n}x{n}, the guess dimension")

    for it in range(1, NEWTON_MAX_ITERATIONS + 1):
        if rn < NEWTON_TOLERANCE:
            return x, jac
        fresh = jac is None
        while True:
            if fresh:
                jac = _fd_jacobian(residual_fn, x, r)
                if not all(map(math.isfinite, chain.from_iterable(jac))):
                    raise NonFiniteResidual(f"non-finite Jacobian at iteration {it}")
            dx = _eliminate(jac, list(map(neg, r)))
            if dx is None:
                if fresh:
                    raise SingularJacobian(it)
                fresh = True        # a singular carried Jacobian is rebuilt
                continue
            alpha = 1.0
            while True:
                xt = [xi + alpha * di for xi, di in zip(x, dx)]
                rt = _residual(residual_fn, xt)
                rtn = _norm(rt)
                if rtn < rn or not fresh or alpha <= _DAMPING_MIN:
                    break
                alpha *= 0.5
            if fresh or rtn < rn:
                break
            fresh = True            # so is one whose step does not descend
        if not math.isfinite(rtn):
            raise NonFiniteResidual(f"residual not finite at iteration {it}")
        jac = _broyden(jac, list(map(sub, xt, x)), rt, r)
        x, r, rn = xt, rt, rtn
    if rn < NEWTON_TOLERANCE:
        return x, jac
    raise NonConvergence(NEWTON_MAX_ITERATIONS, rn)


@dataclass(frozen=True)
class StepperOptions:
    """A run's step settings, its scenario's `stepper` block: the two error
    tolerances and the longest machine step."""
    relative_tolerance: float
    absolute_tolerance: float
    max_step: float

    def __post_init__(self):
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be positive")
        if not self.absolute_tolerance > 0:
            raise ValueError("absolute_tolerance must be positive")
        if not 0 < self.max_step < math.inf:
            raise ValueError("max_step must be positive and finite")


@dataclass
class IntegrationResult:
    t: float
    state: np.ndarray
    times: np.ndarray
    states: np.ndarray
    last_step: float
    accepted: int
    rejected: int


# TR-BDF2 constants (one-step implicit: trapezoidal stage + BDF2 corrector,
# both stages share the stage-matrix form I - d*h*A).
_GAMMA = 2.0 - math.sqrt(2.0)
_D = _GAMMA / 2.0
_C1 = 1.0 / (_GAMMA * (2.0 - _GAMMA))
_C0 = (1.0 - _GAMMA) ** 2 / (_GAMMA * (2.0 - _GAMMA))
# quadrature weights of the embedded third-order solution at nodes 0, gamma, 1
_W0 = 0.5 - 1.0 / (6.0 * _GAMMA)
_WG = 1.0 / (6.0 * _GAMMA * (1.0 - _GAMMA))
_W1 = (2.0 - 3.0 * _GAMMA) / (6.0 * (1.0 - _GAMMA))


def _check_finite(f, t):
    if not np.all(np.isfinite(f)):
        bad = int(np.argmax(~np.isfinite(f)))
        raise NonFiniteDerivative(t, bad)


def integrate_adaptive(deriv_fn, state0, t_span, opts: StepperOptions,
                       observers=(), record=True, initial_step=1e-4, min_step=1e-13):
    """Adaptive TR-BDF2 integration of the affine system dy/dt = A(t) y + b(t)
    over t_span, where deriv_fn(t) returns (A, b).

    Each stage equation is linear in its unknown, so a stage is one linear
    solve with the exact A at the stage time (linearly implicit, no Newton
    iteration). A step is accepted iff every channel satisfies
    |err_i| <= atol + rtol*|y_i|; observers are invoked on each accepted
    step; the final step is clipped so the end time is exactly t_span[1].
    The first step is initial_step, and a step the error control cuts below
    min_step, other than the final one, raises StepUnderflow.
    """
    if not 0 < min_step <= initial_step:
        raise ValueError("need 0 < min_step <= initial_step")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y = np.array(state0, dtype=float)
    n = y.size

    t = t0
    a, b = deriv_fn(t)
    f0 = a @ y + b
    _check_finite(f0, t)

    times = [t] if record else None
    states = [y.copy()] if record else None

    h = min(initial_step, opts.max_step, t1 - t0)
    accepted = rejected = 0
    eye = np.eye(n)

    while t < t1:
        remaining = t1 - t
        final = h >= 0.9 * remaining
        if final:
            h = remaining      # stretch/clip so the last step lands exactly on t1
        elif h < min_step:
            raise StepUnderflow(t, h, min_step)
        dh = _D * h
        wt = opts.absolute_tolerance + opts.relative_tolerance * np.abs(y)
        tg = t + _GAMMA * h
        ag, bg = deriv_fn(tg)
        a1, b1 = deriv_fn(t + h)
        try:
            # trapezoidal stage: (I - dh A(tg)) g = y + dh f0 + dh b(tg)
            g = np.linalg.solve(eye - dh * ag, y + dh * (f0 + bg))
            # BDF2 stage; the error filter and the extrapolation reuse its matrix
            minv = np.linalg.inv(eye - dh * a1)
        except np.linalg.LinAlgError:
            raise SingularStageMatrix(t, h) from None
        y1 = minv @ (_C1 * g - _C0 * y + dh * b1)
        fg = ag @ g + bg
        f1 = a1 @ y1 + b1
        # embedded third-order error estimate, filtered through the stage matrix
        est = minv @ (y + h * (_W0 * f0 + _WG * fg + _W1 * f1) - y1)
        err = float(np.max(np.abs(est) / wt))
        if err <= 1.0:
            t += h
            # propagate the locally-extrapolated value; the second filter pass
            # keeps the correction damped at infinity (|R| < 1 on the real axis)
            y = y1 + minv @ est
            f0 = a1 @ y + b1
            if not math.isfinite(float(np.sum(f0))):
                _check_finite(f0, t)
            accepted += 1
            for obs in observers:
                obs(t, y)
            if record:
                times.append(t)
                states.append(y.copy())
            fac = 0.9 * err ** (-1.0 / 3.0) if err > 0 else 5.0
            h = min(h * min(5.0, max(0.3, fac)), opts.max_step)
        else:
            rejected += 1
            if not math.isfinite(err):
                _check_finite(f1, t + h)
                _check_finite(fg, tg)
            h *= max(0.1, 0.9 * err ** (-1.0 / 3.0)) if math.isfinite(err) else 0.25

    return IntegrationResult(
        t=t, state=y,
        times=np.asarray(times) if record else np.empty(0),
        states=np.asarray(states) if record else np.empty((0, n)),
        last_step=h, accepted=accepted, rejected=rejected)


# Taylor coefficients 1/k! of the degree-16 approximant, and the 1-norm up to
# which e^theta * sum_{k>16} theta^k / k! stays below 2^-53 (largest: 0.787)
_TAYLOR16 = tuple(1.0 / math.factorial(k) for k in range(17))
_THETA16 = 0.78


def expm(a):
    """Matrix exponential by scaling and squaring with the degree-16 Taylor
    polynomial in six matrix products and no solve (Paterson & Stockmeyer
    1973; Bader, Blanes & Casas 2019): a zero row of `a` gives an exact unit
    row, and the bytes are the same under OpenBLAS's FMA kernels.

    A stack of matrices along leading axes is exponentiated in one pass
    with one common scaling, the one its largest 1-norm needs. The
    polynomial r a4 + c3 a3 + c2 a2 + c1 a + c0 I is summed left to right
    into two buffers taken in turn, each c I added as a whole matrix, so
    that a signed zero rounds as in the expression.
    """
    a = np.array(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm needs square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    norm = float(np.max(np.sum(np.abs(a), axis=-2))) if a.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / _THETA16))) if norm > 0 else 0
    a /= 2.0 ** squarings
    c = _TAYLOR16
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2
    r, s, term = c[16] * a4, np.empty_like(a), np.empty_like(a)
    for k in (12, 8, 4, 0):
        if k < 12:
            np.matmul(r, a4, out=s)
            r, s = s, r
        r += np.multiply(c[k + 3], a3, out=term)
        r += np.multiply(c[k + 2], a2, out=term)
        r += np.multiply(c[k + 1], a, out=term)
        r += c[k] * eye
    for _ in range(squarings):
        np.matmul(r, r, out=s)
        r, s = s, r
    return r
