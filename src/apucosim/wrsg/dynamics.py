"""Machine + load dynamics: the flux-linkage ODE, terminal quantities,
mechanical-power bookkeeping and the healthy steady-state solver.

An ElectricalSystem freezes everything constant over an integration segment
(speed, field voltage, load resistance, fault descriptor, held equation
noise) and exposes the derivatives, the affine form of the healthy flux
equations for the exact propagator, the time-dependent affine form of the
faulted ones for the stepper, and terminal evaluation over whole recorded
segments.
"""
from __future__ import annotations

import math

import numpy as np

from .loads import LoadModel
from .machine import (
    FaultParams,
    HEALTHY_FAULT,
    IDX_LAM_F,
    IDX_THETA,
    InductanceModel,
    WrsgParams,
    WrsgState,
    build_L,
    currents_fast,
)

_SHIFT = 2.0 * math.pi / 3.0
_TWO_THIRDS = 2.0 / 3.0
# phases a, b, c sit at theta, theta - 2 pi/3 and theta + 2 pi/3
_PHASE_SHIFTS = np.array([0.0, _SHIFT, -_SHIFT])
# product of the i-th and j-th of (1, cos, sin) in the harmonic basis
# (1, cos, sin, cos 2x, sin 2x): cos^2 = (1 + cos 2x)/2, sin^2 = (1 - cos 2x)/2,
# cos sin = sin 2x / 2
_TRIG_PRODUCTS = np.zeros((3, 3, 5))
_TRIG_PRODUCTS[0, 0, 0] = 1.0
_TRIG_PRODUCTS[0, 1, 1] = _TRIG_PRODUCTS[1, 0, 1] = 1.0
_TRIG_PRODUCTS[0, 2, 2] = _TRIG_PRODUCTS[2, 0, 2] = 1.0
_TRIG_PRODUCTS[1, 1, [0, 3]] = 0.5
_TRIG_PRODUCTS[2, 2, [0, 3]] = 0.5, -0.5
_TRIG_PRODUCTS[1, 2, 4] = _TRIG_PRODUCTS[2, 1, 4] = 0.5


def mech_power(v_abc, i_abc, i_f, fault: FaultParams, params: WrsgParams):
    """Total mechanical power drawn from the shaft (both machines) and the
    fault-branch extra loss, kW; row-wise over leading axes of the inputs.

    P_total = 2 (v.i + i_f^2 r_f + (i_a - i_f)^2 r_saf - i_a^2 r_saf) / eta_sg
    """
    v_abc = np.asarray(v_abc, dtype=float)
    i_abc = np.asarray(i_abc, dtype=float)
    r_f = fault.r_f(params.r_s)
    r_saf = fault.r_sa_f(params.r_s)
    i_a = i_abc[..., 0]
    p_elec = np.sum(v_abc * i_abc, axis=-1)
    p_fault = i_f * i_f * r_f + (i_a - i_f) ** 2 * r_saf - i_a * i_a * r_saf
    p_total = params.two_machine_factor * (p_elec + p_fault) / params.eta_sg
    p_loss = params.two_machine_factor * p_fault / params.eta_sg
    return p_total * 1e-3, p_loss * 1e-3


class ElectricalSystem:
    """Constant-coefficient wrapper for one integration segment.

    The state-evaluation methods take one state or a stack of states along
    the last axis.
    """

    def __init__(self, params: WrsgParams, load: LoadModel, fault: FaultParams,
                 w_e: float, V_fd: float, R_load: float,
                 noise_w=None):
        self.params = params
        self.load = load
        self.fault = fault
        self.w_e = w_e
        self.V_fd = V_fd
        self.R_load = R_load
        self.model: InductanceModel = build_L(params, load.L_phase)
        self.noise_w = np.zeros(6) if noise_w is None else np.asarray(noise_w, float)
        p = params
        # healthy flux equations d lam/dt = A lam + b: winding resistance
        # times current (L^-1 lam), the speed voltage coupling lam_q and
        # lam_d, the field voltage and the held equation noise
        r6 = np.array([R_load + p.r_s] * 3 + [-p.r_fd, -p.r_kd, -p.r_kq])
        self._A = r6[:, None] * self.model.L_inv
        self._A[0, 1] -= w_e
        self._A[1, 0] += w_e
        self._b = np.array([0.0, 0.0, 0.0, V_fd, 0.0, 0.0]) + self.noise_w
        # one product yields A lam and the stator currents the fault rows need
        self._AL_T = np.vstack([self._A, self.model.L_inv[:3]]).T
        self._active = fault.active
        if self._active:
            self._mu_rs = fault.mu * p.r_s
            self._r_f = fault.r_f(p.r_s)
            self._if_den = fault.mu * (1.0 - fault.mu) * p.L_ls

    def affine(self):
        """(A, b) with d lam/dt = A lam + b for the six winding fluxes.

        Only an open fault branch leaves the system affine and time-invariant
        over a segment; lam_f is then constant and theta advances at w_e.
        """
        if self._active:
            raise ValueError("a shorted stator turn makes the flux equations "
                             "depend on the rotor angle")
        return self._A, self._b

    def flux_system(self, theta0: float, t0: float):
        """t -> (A, b) with d lam/dt = A lam + b for the seven fluxes
        [lam_q, lam_d, lam_0, lam_fd, lam_kd, lam_kq, lam_f], the rotor angle
        taken in closed form as theta = theta0 + w_e (t - t0).

        The terms are those of derivatives(). The fault current is linear in
        the fluxes, i_f = g . lam with g = g0 + cos(theta) gc + sin(theta) gs;
        the stator rows add R_load mu i_f (2/3 cos, 2/3 sin, 1/3), so A is a
        trigonometric polynomial of degree 2 in theta, and A(t) is one
        weighted sum of five basis matrices built here for the segment.
        """
        a = np.zeros((7, 7))
        a[:6, :6] = self._A
        b = np.append(self._b, 0.0)
        if not self._active:
            return lambda t: (a, b)
        mu = self.fault.mu
        # rows: the constant, cos and sin parts of g and of the stator MMF u
        g = np.zeros((3, 7))
        g[0, 2], g[0, 6], g[1, 0], g[2, 1] = -mu, 1.0, -mu, -mu
        g /= self._if_den
        u = np.zeros((3, 7))
        u[0, 2], u[1, 0], u[2, 1] = 1.0 / 3.0, _TWO_THIRDS, _TWO_THIRDS
        basis = np.zeros((5, 7, 7))
        basis[0] = a
        basis += np.einsum("ijk,ia,jb->kab", _TRIG_PRODUCTS,
                           self.R_load * mu * u, g)
        # lam_f row: mu r_s (i_a - i_f) - r_f i_f with the healthy phase-a
        # current cos i_q + sin i_d + i_0 (rows of L^-1) plus mu i_f
        li = np.zeros((3, 7))
        li[:, :6] = self.model.L_inv[[2, 0, 1]]
        basis[:3, 6] += self._mu_rs * li + (self._mu_rs * (mu - 1.0) - self._r_f) * g
        flat = basis.reshape(5, 49)
        w_e = self.w_e

        def at(t):
            theta = theta0 + w_e * (t - t0)
            c, s = math.cos(theta), math.sin(theta)
            return (np.array((1.0, c, s, c * c - s * s, 2.0 * c * s)) @ flat
                    ).reshape(7, 7), b
        return at

    def currents(self, y):
        return currents_fast(y, self.fault, self.model)

    def derivatives(self, t, y):
        """d/dt of [lam_q, lam_d, lam_0, lam_fd, lam_kd, lam_kq, lam_f, theta]."""
        y = np.asarray(y, dtype=float)
        z = y[..., :6] @ self._AL_T
        dy = np.empty(y.shape)
        dy[..., :6] = z[..., :6] + self._b
        yt, dt, zt = y.T, dy.T, z.T
        dt[IDX_THETA] = self.w_e
        if not self._active:
            dt[IDX_LAM_F] = 0.0
            return dy
        # the fault MMF adds mu i_f (2/3 cos, 2/3 sin, 1/3) to the stator
        # currents; through R_load + r_s less the shorted turns' own mu r_s
        # drop that leaves R_load on the stator rows
        mu = self.fault.mu
        cs, sn = np.cos(yt[IDX_THETA]), np.sin(yt[IDX_THETA])
        i_f = (yt[IDX_LAM_F] - mu * (cs * yt[0] + sn * yt[1] + yt[2])) / self._if_den
        k = self.R_load * mu * i_f
        dt[0] += _TWO_THIRDS * k * cs
        dt[1] += _TWO_THIRDS * k * sn
        dt[2] += k / 3.0
        # phase-a current: healthy part plus the full fault MMF (cos^2 + sin^2 = 1)
        i_a = cs * zt[6] + sn * zt[7] + zt[8] + mu * i_f
        dt[IDX_LAM_F] = self._mu_rs * (i_a - i_f) - self._r_f * i_f
        return dy

    def terminal(self, y):
        """Phase currents/voltages, fault current and powers at a state."""
        y = np.asarray(y, dtype=float)
        i6, i_f = currents_fast(y, self.fault, self.model)
        angle = y[..., IDX_THETA, None] - _PHASE_SHIFTS
        cs, sn = np.cos(angle), np.sin(angle)

        def to_abc(qd0):
            return cs * qd0[..., 0:1] + sn * qd0[..., 1:2] + qd0[..., 2:3]

        i_abc = to_abc(i6)
        v_abc = self.R_load * i_abc
        if self.load.L_phase:
            dy = self.derivatives(0.0, y)
            di3 = dy[..., :6] @ self.model.L_inv[:3].T
            # speed voltage of the series inductance: w (i_d, -i_q, 0)
            vl = self.load.L_phase * (di3 + self.w_e * i6[..., [1, 0, 2]]
                                      * np.array([1.0, -1.0, 0.0]))
            v_abc = v_abc + to_abc(vl)
        p_total, p_loss = mech_power(v_abc, i_abc, i_f, self.fault, self.params)
        return i_abc, v_abc, i_f, i6, p_total, p_loss


def machine_derivatives(state: WrsgState, V_fd: float, w_r: float,
                        fault: FaultParams, load: LoadModel,
                        params: WrsgParams, t: float = 0.0,
                        noise_w=None) -> np.ndarray:
    """Flux-linkage derivatives for a frozen (speed, field, load) condition."""
    sys = ElectricalSystem(params, load, fault, w_r, V_fd,
                           load.resistance_at(t), noise_w=noise_w)
    return sys.derivatives(t, state.as_array())


def steady_state(params: WrsgParams, R_load: float, V_fd: float,
                 w_e: float, theta0: float = 0.0) -> WrsgState:
    """Healthy balanced steady state at constant speed and field voltage."""
    p = params
    i_fd = V_fd / p.r_fd
    lq = p.L_mq + p.L_ls
    ld = p.L_md + p.L_ls
    r = R_load + p.r_s
    # (R) i_q = w lam_d = w (-Ld i_d + Lmd i_fd); (R) i_d = w Lq i_q
    a = np.array([[r, w_e * ld], [-w_e * lq, r]])
    b = np.array([w_e * p.L_md * i_fd, 0.0])
    i_q, i_d = np.linalg.solve(a, b)
    lam_q = -lq * i_q
    lam_d = -ld * i_d + p.L_md * i_fd
    lam_fd = -p.L_md * i_d + (p.L_md + p.L_lf) * i_fd
    lam_kd = -p.L_md * i_d + p.L_md * i_fd
    lam_kq = -p.L_mq * i_q
    return WrsgState(lam_q=float(lam_q), lam_d=float(lam_d), lam_0=0.0,
                     lam_fd=float(lam_fd), lam_kd=float(lam_kd),
                     lam_kq=float(lam_kq), lam_f=0.0, theta_e=theta0)


def field_voltage_for_terminal(params: WrsgParams, R_load: float, w_e: float,
                               v_phase_rms: float) -> float:
    """Field voltage whose healthy steady state hits the target phase rms.

    The healthy steady map V_rms(V_fd) is linear through the origin.
    """
    probe = 10.0
    st = steady_state(params, R_load, probe, w_e)
    model = build_L(params)
    i6, _ = currents_fast(st.as_array(), HEALTHY_FAULT, model)
    v_amp = R_load * math.hypot(i6[0], i6[1])
    v_rms = v_amp / math.sqrt(2.0)
    return probe * v_phase_rms / v_rms


def seed_fault_flux(state: WrsgState, fault: FaultParams,
                    params: WrsgParams) -> WrsgState:
    """Continuity at fault switch-on: sub-winding flux takes its proportional
    share of the phase-a linkage so i_f starts at exactly zero."""
    lam_a = (math.cos(state.theta_e) * state.lam_q
             + math.sin(state.theta_e) * state.lam_d + state.lam_0)
    return WrsgState(state.lam_q, state.lam_d, state.lam_0, state.lam_fd,
                     state.lam_kd, state.lam_kq, fault.mu * lam_a, state.theta_e)
