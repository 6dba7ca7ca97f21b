"""Machine + load dynamics: the flux-linkage ODE, terminal quantities,
mechanical-power bookkeeping and the healthy steady-state solver.

The flux equations are stated once, by flux_basis(), as one affine form in
the fluxes whose matrix is a trigonometric polynomial in the rotor angle,
constant when healthy. An ElectricalSystem freezes everything constant over
an integration segment (speed, field voltage, load resistance, fault
descriptor, held equation noise), builds that form for it, which both
propagators step and the series-RL terminal voltage differentiates through,
and evaluates terminal quantities over whole recorded segments.
"""
from __future__ import annotations

import math

import numpy as np

from ..numerics import _eliminate_2x2
from .loads import LoadModel
from .machine import (
    FaultParams,
    HEALTHY_FAULT,
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


def harmonic_weights(theta):
    """(1, cos, sin, cos 2x, sin 2x) of each angle along a new last axis,
    the weights of flux_basis()."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack((np.ones_like(c), c, s, c * c - s * s, 2.0 * c * s), axis=-1)


def mech_power(v_abc, i_abc, i_f, fault: FaultParams, params: WrsgParams):
    """Total mechanical power drawn from the shaft (both machines) and the
    fault-branch extra loss, kW; row-wise over leading axes of the inputs.

    P_total = 2 (v.i + i_f^2 r_f + (i_a - i_f)^2 r_saf - i_a^2 r_saf) / eta_sg

    Without an active fault i_f is 0 (currents_fast), so the fault terms
    are exact zeros and are left out.
    """
    v_abc = np.asarray(v_abc, dtype=float)
    i_abc = np.asarray(i_abc, dtype=float)
    p_elec = np.sum(v_abc * i_abc, axis=-1)
    if not fault.active:
        return (params.two_machine_factor * p_elec / params.eta_sg * 1e-3,
                np.zeros_like(p_elec))
    r_f = fault.r_f(params.r_s)
    r_saf = fault.r_sa_f(params.r_s)
    i_a = i_abc[..., 0]
    p_fault = i_f * i_f * r_f + (i_a - i_f) ** 2 * r_saf - i_a * i_a * r_saf
    p_total = params.two_machine_factor * (p_elec + p_fault) / params.eta_sg
    p_loss = params.two_machine_factor * p_fault / params.eta_sg
    return p_total * 1e-3, p_loss * 1e-3


def flux_basis(p: WrsgParams, model: InductanceModel, fault: FaultParams,
               w_e: float, V_fd: float, R_load: float, noise_w):
    """(basis, b): the flux equations d lam/dt = A lam + b for the seven
    fluxes [lam_q, lam_d, lam_0, lam_fd, lam_kd, lam_kq, lam_f] with A the
    (7, 7) reshape of harmonic_weights(theta) @ basis, basis of shape (5, 49).

    The healthy terms are winding resistance times current (L^-1 lam), the
    speed voltage coupling lam_q and lam_d, the field voltage and the held
    equation noise; they form the constant basis matrix, and without a fault
    the other four and the lam_f row are zero. With a shorted turn the fault
    current is linear in the fluxes, i_f = g . lam with g = g0 + cos(theta)
    gc + sin(theta) gs; the fault MMF adds mu i_f (2/3 cos, 2/3 sin, 1/3) to
    the stator currents, and through R_load + r_s less the shorted turns'
    own mu r_s drop that leaves R_load mu i_f on the stator rows, so A is a
    trigonometric polynomial of degree 2 in theta.
    """
    basis = np.zeros((5, 7, 7))
    a = basis[0, :6, :6]
    np.multiply(R_load + p.r_s, model.L_inv[:3], out=a[:3])
    a[3:] = model.rotor_rows
    a[0, 1] -= w_e
    a[1, 0] += w_e
    b = np.append(np.array([0.0, 0.0, 0.0, V_fd, 0.0, 0.0]) + noise_w, 0.0)
    if fault.active:
        mu = fault.mu
        mu_rs = mu * p.r_s
        # rows: the constant, cos and sin parts of g and of the stator MMF u
        g = np.zeros((3, 7))
        g[0, 2], g[0, 6], g[1, 0], g[2, 1] = -mu, 1.0, -mu, -mu
        g /= mu * (1.0 - mu) * p.L_ls
        u = np.zeros((3, 7))
        u[0, 2], u[1, 0], u[2, 1] = 1.0 / 3.0, _TWO_THIRDS, _TWO_THIRDS
        basis += np.einsum("ijk,ia,jb->kab", _TRIG_PRODUCTS, R_load * mu * u, g)
        # lam_f row: mu r_s (i_a - i_f) - r_f i_f with the healthy phase-a
        # current cos i_q + sin i_d + i_0 (rows of L^-1) plus mu i_f
        li = np.zeros((3, 7))
        li[:, :6] = model.L_inv[[2, 0, 1]]
        basis[:3, 6] += mu_rs * li + (mu_rs * (mu - 1.0) - fault.r_f(p.r_s)) * g
    return basis.reshape(5, 49), b


class ElectricalSystem:
    """Constant-coefficient wrapper for one integration segment: the flux
    equations of flux_basis(), built once, as `basis` and `b`.

    The state-evaluation methods take one state or a stack of states along
    the last axis.
    """

    def __init__(self, params: WrsgParams, load: LoadModel, fault: FaultParams,
                 w_e: float, V_fd: float, R_load: float,
                 noise_w=None, model: InductanceModel | None = None):
        self.params = params
        self.load = load
        self.fault = fault
        self.w_e = w_e
        self.V_fd = V_fd
        self.R_load = R_load
        # build_L(params, load.L_phase): a caller that builds many systems
        # of one machine and load builds it once and passes it in
        self.model: InductanceModel = (build_L(params, load.L_phase) if model is None
                                       else model)
        self.noise_w = np.zeros(6) if noise_w is None else np.asarray(noise_w, float)
        self.basis, self.b = flux_basis(params, self.model, fault, w_e, V_fd,
                                        R_load, self.noise_w)

    def currents(self, y):
        return currents_fast(y, self.fault, self.model)

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
            a = harmonic_weights(y[..., IDX_THETA]) @ self.basis
            a = a.reshape(y.shape[:-1] + (7, 7))[..., :6, :]
            dlam = (a @ y[..., :7, None])[..., 0] + self.b[:6]
            di3 = dlam @ self.model.L_inv[:3].T
            # speed voltage of the series inductance: w (i_d, -i_q, 0)
            vl = self.load.L_phase * (di3 + self.w_e * i6[..., [1, 0, 2]]
                                      * np.array([1.0, -1.0, 0.0]))
            v_abc = v_abc + to_abc(vl)
        p_total, p_loss = mech_power(v_abc, i_abc, i_f, self.fault, self.params)
        return i_abc, v_abc, i_f, i6, p_total, p_loss


def steady_state(params: WrsgParams, R_load: float, V_fd: float,
                 w_e: float, theta0: float = 0.0, L_load: float = 0.0) -> WrsgState:
    """Healthy balanced steady state at constant speed and field voltage,
    with the load's series inductance L_load in the stator fluxes: the
    fluxes are L i of build_L's L, for the currents where the dampers and
    the zero sequence carry none."""
    L = build_L(params, L_load).L
    i_fd = V_fd / params.r_fd
    r = R_load + params.r_s
    # r i_q = w lam_d = w (L_dd i_d + L_d,fd i_fd); r i_d = -w lam_q = -w L_qq i_q,
    # solved in floats: a LAPACK solve's last bits depend on the BLAS kernel
    l_qq, l_dd, l_dfd = float(L[0, 0]), float(L[1, 1]), float(L[1, 3])
    i_q, i_d = _eliminate_2x2(((r, -w_e * l_dd), (w_e * l_qq, r)), (w_e * l_dfd * i_fd, 0.0))
    lam = L @ np.array([i_q, i_d, 0.0, i_fd, 0.0, 0.0])
    return WrsgState(*lam.tolist(), lam_f=0.0, theta_e=theta0)


def field_voltage_for_terminal(params: WrsgParams, R_load: float, w_e: float,
                               v_phase_rms: float, L_load: float = 0.0) -> float:
    """Field voltage whose healthy steady state hits the target phase rms
    across the load R_load in series with L_load.

    The healthy steady map V_rms(V_fd) is linear through the origin.
    """
    probe = 10.0
    st = steady_state(params, R_load, probe, w_e, L_load=L_load)
    model = build_L(params, L_load)
    i6, _ = currents_fast(st.as_array(), HEALTHY_FAULT, model)
    v_amp = math.hypot(R_load, w_e * L_load) * math.hypot(i6[0], i6[1])
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
