"""Shared numerical kernels: damped Newton, adaptive linearly implicit ODE
stepper for affine systems, small dense linear solver, matrix exponential,
running time-integral accumulator.

All kernels are pure (state in, state out) and hold no module-level state,
so independent problems can run on separate threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericsError(Exception):
    pass


class NonConvergence(NumericsError):
    def __init__(self, iterations: int, final_norm: float):
        self.iterations = iterations
        self.final_norm = final_norm
        super().__init__(f"no convergence after {iterations} iterations "
                         f"(residual norm {final_norm:.3e})")


class SingularJacobian(NumericsError):
    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular Jacobian at pivot {pivot_index}")


class NonFiniteResidual(NumericsError):
    pass


class SingularMatrix(NumericsError):
    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular matrix at pivot {pivot_index}")


class StepUnderflow(NumericsError):
    def __init__(self, t: float, step: float, min_step: float):
        self.t = t
        self.step = step
        super().__init__(f"required step {step:.3e} below min_step "
                         f"{min_step:.3e} at t={t:.6g}")


class NonFiniteDerivative(NumericsError):
    def __init__(self, t: float, channel: int):
        self.t = t
        self.channel = channel
        super().__init__(f"non-finite derivative in channel {channel} at t={t:.6g}")


class SingularStageMatrix(NumericsError):
    def __init__(self, t: float, step: float):
        self.t = t
        self.step = step
        super().__init__(f"singular stage matrix I - d h A in the step of "
                         f"{step:.3e} from t={t:.6g}")


class TimeReversal(NumericsError):
    pass


@dataclass
class NewtonOptions:
    max_iterations: int = 30
    relative_tolerance: float = 1e-10
    jacobian_perturbation: float = 1e-6  # relative FD step, absolute floor 1e-9
    damping_min: float = 1.0 / 64.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.relative_tolerance <= 0 or self.jacobian_perturbation <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.damping_min <= 1:
            raise ValueError("damping_min must lie in (0, 1]")


def solve_dense(matrix, rhs):
    """Solve A x = b by Gaussian elimination with partial pivoting (n <= 16)."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = b.size
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match rhs size {n}")
    if n > 16:
        raise ValueError("solve_dense is meant for small systems (n <= 16)")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise SingularMatrix(k)
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        f = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(f, a[k, k:])
        b[k + 1:] -= f * b[k]
    if a[n - 1, n - 1] == 0.0:
        raise SingularMatrix(n - 1)
    x = np.empty(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


def _fd_jacobian(residual_fn, x, r0, pert):
    n = x.size
    jac = np.empty((r0.size, n))
    for j in range(n):
        dx = max(pert * abs(x[j]), 1e-9)
        xp = x.copy()
        xp[j] += dx
        rp = np.asarray(residual_fn(xp), dtype=float)
        jac[:, j] = (rp - r0) / dx
    return jac


def newton_solve(residual_fn, guess, opts: NewtonOptions | None = None, scale=None):
    """Damped Newton root find for a square system.

    `scale` holds per-equation reference magnitudes so mixed-unit residuals
    are commensurate; convergence is on max |r_i / scale_i|.
    """
    opts = opts or NewtonOptions()
    x = np.array(guess, dtype=float)

    r = np.asarray(residual_fn(x), dtype=float)
    if r.size != x.size:
        raise ValueError("residual dimension does not match guess dimension")
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residual not finite at initial guess")
    if scale is None:
        scale = np.maximum(np.abs(r), 1.0)
    else:
        scale = np.asarray(scale, dtype=float)

    def norm(rv):
        return float(np.max(np.abs(rv / scale)))

    rn = norm(r)
    for it in range(1, opts.max_iterations + 1):
        if rn < opts.relative_tolerance:
            return x
        jac = _fd_jacobian(residual_fn, x, r, opts.jacobian_perturbation)
        if not np.all(np.isfinite(jac)):
            raise NonFiniteResidual(f"non-finite Jacobian at iteration {it}")
        try:
            dx = solve_dense(jac, -r)
        except SingularMatrix as exc:
            raise SingularJacobian(exc.pivot_index) from exc
        alpha = 1.0
        while True:
            xt = x + alpha * dx
            rt = np.asarray(residual_fn(xt), dtype=float)
            rtn = norm(rt) if np.all(np.isfinite(rt)) else math.inf
            if rtn < rn or alpha <= opts.damping_min:
                break
            alpha *= 0.5
        x, r, rn = xt, rt, rtn
        if not math.isfinite(rn):
            raise NonFiniteResidual(f"residual not finite at iteration {it}")
    if rn < opts.relative_tolerance:
        return x
    raise NonConvergence(opts.max_iterations, rn)


@dataclass
class StepperOptions:
    relative_tolerance: float = 1e-6
    absolute_tolerance: float | np.ndarray = 1e-9  # scalar or per-channel vector
    initial_step: float = 1e-4
    min_step: float = 1e-13
    max_step: float = math.inf

    def __post_init__(self):
        if self.relative_tolerance <= 0:
            raise ValueError("relative_tolerance must be positive")
        if np.any(np.asarray(self.absolute_tolerance) <= 0):
            raise ValueError("absolute_tolerance must be positive")
        if not 0 < self.min_step <= self.initial_step <= self.max_step:
            raise ValueError("need 0 < min_step <= initial_step <= max_step")


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


def integrate_adaptive(deriv_fn, state0, t_span, opts: StepperOptions | None = None,
                       observers=(), record=True):
    """Adaptive TR-BDF2 integration of the affine system dy/dt = A(t) y + b(t)
    over t_span, where deriv_fn(t) returns (A, b).

    Each stage equation is linear in its unknown, so a stage is one linear
    solve with the exact A at the stage time (linearly implicit, no Newton
    iteration). A step is accepted iff every channel satisfies
    |err_i| <= atol_i + rtol*|y_i|; observers are invoked on each accepted
    step; the final step is clipped so the end time is exactly t_span[1].
    """
    opts = opts or StepperOptions()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y = np.array(state0, dtype=float)
    n = y.size
    atol = np.broadcast_to(np.asarray(opts.absolute_tolerance, dtype=float), (n,))
    rtol = opts.relative_tolerance

    t = t0
    a, b = deriv_fn(t)
    f0 = a @ y + b
    _check_finite(f0, t)

    times = [t] if record else None
    states = [y.copy()] if record else None

    h = min(opts.initial_step, opts.max_step, t1 - t0)
    accepted = rejected = 0
    eye = np.eye(n)

    while t < t1:
        remaining = t1 - t
        final = h >= 0.9 * remaining
        if final:
            h = remaining      # stretch/clip so the last step lands exactly on t1
        elif h < opts.min_step:
            raise StepUnderflow(t, h, opts.min_step)
        dh = _D * h
        wt = atol + rtol * np.abs(y)
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


# degree-13 Pade coefficients and the 1-norm bound up to which that
# approximant is accurate to double precision (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential by scaling and squaring with a degree-13 Pade
    approximant (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4))."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    norm = float(np.max(np.sum(np.abs(a), axis=0))) if a.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0 ** squarings
    b = _PADE13
    eye = np.eye(a.shape[0])
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


@dataclass
class IntegralAccumulator:
    """Trapezoidal running integral of a sampled signal."""
    last_time: float
    last_sample: float
    value: float = 0.0

    def reset(self, t: float, sample: float):
        self.last_time = t
        self.last_sample = sample
        self.value = 0.0


def accumulate(acc: IntegralAccumulator, t, sample) -> IntegralAccumulator:
    """Advance the accumulator to time t with the new sample (trapezoid rule).

    t and sample may also be equal-length 1-D arrays of successive samples.
    """
    tt = np.concatenate(([acc.last_time], np.atleast_1d(np.asarray(t, dtype=float))))
    ss = np.concatenate(([acc.last_sample],
                         np.atleast_1d(np.asarray(sample, dtype=float))))
    if tt.size != ss.size:
        raise ValueError("times and samples differ in length")
    dt = np.diff(tt)
    if np.any(dt < 0):
        k = int(np.argmax(dt < 0))
        raise TimeReversal(f"t={tt[k + 1]} precedes accumulator time {tt[k]}")
    acc.value += float(np.sum(0.5 * (ss[1:] + ss[:-1]) * dt))
    acc.last_time = float(tt[-1])
    acc.last_sample = float(ss[-1])
    return acc
