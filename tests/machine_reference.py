"""Reference forms of the machine model, kept as checks on `apucosim.wrsg`:
the amplitude-invariant Park transform, the fault-loop current solve as the
full 7x7 linear system (Gaussian elimination with partial pivoting), which
`currents_fast` reduces to closed form, the healthy steady state written
out entry by entry, which `steady_state` takes from build_L's matrix, the
flux derivatives of one state under a frozen speed, field and load, and the
flux right-hand side t -> (A(t), b) that the adaptive reference integrator
takes.

Park convention: q-axis leading d-axis, rotor-angle referenced; a balanced
set aligned with the rotor maps to (amplitude, 0, 0).
"""
import math

import numpy as np

from apucosim.numerics import _eliminate_2x2
from apucosim.wrsg import (ElectricalSystem, FaultParams, InductanceModel, WrsgParams,
                           WrsgState)
from apucosim.wrsg.machine import IDX_LAM_F, IDX_THETA

_TWO_THIRDS = 2.0 / 3.0
_SHIFT = 2.0 * math.pi / 3.0


def park_matrix(theta: float) -> np.ndarray:
    """3x3 abc -> qd0 matrix T(theta)."""
    c0, c1, c2 = (math.cos(theta), math.cos(theta - _SHIFT), math.cos(theta + _SHIFT))
    s0, s1, s2 = (math.sin(theta), math.sin(theta - _SHIFT), math.sin(theta + _SHIFT))
    return _TWO_THIRDS * np.array([
        [c0, c1, c2],
        [s0, s1, s2],
        [0.5, 0.5, 0.5],
    ])


def inverse_park_matrix(theta: float) -> np.ndarray:
    """3x3 qd0 -> abc matrix, exact inverse of park_matrix(theta)."""
    c0, c1, c2 = (math.cos(theta), math.cos(theta - _SHIFT), math.cos(theta + _SHIFT))
    s0, s1, s2 = (math.sin(theta), math.sin(theta - _SHIFT), math.sin(theta + _SHIFT))
    return np.array([
        [c0, s0, 1.0],
        [c1, s1, 1.0],
        [c2, s2, 1.0],
    ])


def park(abc, theta: float) -> np.ndarray:
    return park_matrix(theta) @ np.asarray(abc, dtype=float)


def inverse_park(qd0, theta: float) -> np.ndarray:
    return inverse_park_matrix(theta) @ np.asarray(qd0, dtype=float)


class SingularMatrix(ArithmeticError):
    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular matrix at pivot {pivot_index}")


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


def currents_from_flux(state: WrsgState, fault: FaultParams,
                       model: InductanceModel) -> np.ndarray:
    """Solve the 7x7 linear system for (i_q, i_d, i_0, i_fd, i_kd, i_kq, i_f).

    Rows 1-6 are the flux-current map with the fault MMF correction; row 7 is
    the sub-winding flux closure.  With the branch open the system decouples
    and i_f = 0.
    """
    y = state.as_array()
    lam6 = y[:6]
    if not fault.active:
        i6 = model.L_inv @ lam6
        return np.append(i6, 0.0)
    theta = y[IDX_THETA]
    mu = fault.mu
    # qd0 image of a unit phase-a fault current, and the phase-a row of the
    # inverse transform
    col = np.zeros(6)
    col[:3] = park_matrix(theta)[:, 0]
    a_row = inverse_park_matrix(theta)[0]
    a = np.zeros((7, 7))
    a[:6, :6] = model.L
    a[:6, 6] = -mu * (model.L @ col)
    a[6, :6] = mu * (a_row @ model.L[:3, :])
    a[6, 6] = mu * (1.0 - mu) * model.L_ls - mu * mu * float(a_row @ model.L[:3, :] @ col)
    b = np.append(lam6, y[IDX_LAM_F])
    return solve_dense(a, b)


def steady_state_by_hand(params: WrsgParams, R_load: float, V_fd: float,
                         w_e: float, theta0: float = 0.0,
                         L_load: float = 0.0) -> WrsgState:
    """Healthy balanced steady state with the load's series inductance
    L_load in the stator self inductances, each flux written out."""
    p = params
    i_fd = V_fd / p.r_fd
    lq = p.L_mq + p.L_ls + L_load
    ld = p.L_md + p.L_ls + L_load
    r = R_load + p.r_s
    # (R) i_q = w lam_d = w (-Ld i_d + Lmd i_fd); (R) i_d = w Lq i_q, solved
    # as steady_state solves it, in floats
    i_q, i_d = _eliminate_2x2(((r, w_e * ld), (-w_e * lq, r)), (w_e * p.L_md * i_fd, 0.0))
    lam_q = -lq * i_q
    lam_d = -ld * i_d + p.L_md * i_fd
    lam_fd = -p.L_md * i_d + (p.L_md + p.L_lf) * i_fd
    lam_kd = -p.L_md * i_d + p.L_md * i_fd
    lam_kq = -p.L_mq * i_q
    return WrsgState(lam_q=float(lam_q), lam_d=float(lam_d), lam_0=0.0,
                     lam_fd=float(lam_fd), lam_kd=float(lam_kd),
                     lam_kq=float(lam_kq), lam_f=0.0, theta_e=theta0)


def derivatives(sys_: ElectricalSystem, t, y):
    """d/dt of [lam_q, lam_d, lam_0, lam_fd, lam_kd, lam_kq, lam_f, theta]
    under sys_'s frozen speed, field, load, fault and equation noise."""
    p, fault = sys_.params, sys_.fault
    # healthy flux equations d lam/dt = A lam + b: winding resistance
    # times current (L^-1 lam), the speed voltage coupling lam_q and
    # lam_d, the field voltage and the held equation noise
    r6 = np.array([sys_.R_load + p.r_s] * 3 + [-p.r_fd, -p.r_kd, -p.r_kq])
    a = r6[:, None] * sys_.model.L_inv
    a[0, 1] -= sys_.w_e
    a[1, 0] += sys_.w_e
    b = np.array([0.0, 0.0, 0.0, sys_.V_fd, 0.0, 0.0]) + sys_.noise_w
    # one product yields A lam and the stator currents the fault rows need
    al_t = np.vstack([a, sys_.model.L_inv[:3]]).T
    y = np.asarray(y, dtype=float)
    z = y[..., :6] @ al_t
    dy = np.empty(y.shape)
    dy[..., :6] = z[..., :6] + b
    yt, dt, zt = y.T, dy.T, z.T
    dt[IDX_THETA] = sys_.w_e
    if not fault.active:
        dt[IDX_LAM_F] = 0.0
        return dy
    # the fault MMF adds mu i_f (2/3 cos, 2/3 sin, 1/3) to the stator
    # currents; through R_load + r_s less the shorted turns' own mu r_s
    # drop that leaves R_load on the stator rows
    mu = fault.mu
    cs, sn = np.cos(yt[IDX_THETA]), np.sin(yt[IDX_THETA])
    i_f = (yt[IDX_LAM_F] - mu * (cs * yt[0] + sn * yt[1] + yt[2])) \
        / (mu * (1.0 - mu) * p.L_ls)
    k = sys_.R_load * mu * i_f
    dt[0] += _TWO_THIRDS * k * cs
    dt[1] += _TWO_THIRDS * k * sn
    dt[2] += k / 3.0
    # phase-a current: healthy part plus the full fault MMF (cos^2 + sin^2 = 1)
    i_a = cs * zt[6] + sn * zt[7] + zt[8] + mu * i_f
    dt[IDX_LAM_F] = mu * p.r_s * (i_a - i_f) - fault.r_f(p.r_s) * i_f
    return dy


def machine_derivatives(state: WrsgState, V_fd: float, w_r: float,
                        fault: FaultParams, load, params, t: float = 0.0,
                        noise_w=None) -> np.ndarray:
    """Flux-linkage derivatives for a frozen (speed, field, load) condition,
    the load at full scale."""
    sys = ElectricalSystem(params, load, fault, w_r, V_fd,
                           load.resistance(1.0), noise_w=noise_w)
    return derivatives(sys, t, state.as_array())


def flux_system(sys_: ElectricalSystem, theta0: float, t0: float):
    """t -> (A, b) of sys_.basis and sys_.b with the rotor angle taken in
    closed form as theta = theta0 + w_e (t - t0): the right-hand side of the
    fluxes for the adaptive reference integrator."""
    flat, b = sys_.basis, sys_.b
    if not sys_.fault.active:
        a = flat[0].reshape(7, 7)
        return lambda t: (a, b)
    w_e = sys_.w_e

    def at(t):
        theta = theta0 + w_e * (t - t0)
        c, s = math.cos(theta), math.sin(theta)
        return (np.array((1.0, c, s, c * c - s * s, 2.0 * c * s)) @ flat
                ).reshape(7, 7), b
    return at
