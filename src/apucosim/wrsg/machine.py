"""Multi-loop dq0 model of the wound-rotor synchronous starter/generator
with an injectable stator turn-to-turn short-circuit branch.

Generator sign convention: stator current flows out of the machine, so
stator self-inductance terms enter the flux-current map with negative sign.
The state is one float array of 8, indexed by the IDX_* slots:
[lam_q, lam_d, lam_0, lam_fd, lam_kd, lam_kq, lam_f, theta_e], where lam_f
is the flux linkage of the shorted sub-winding and theta_e the electrical
rotor angle.

The shorted fraction mu of phase a carries (i_a - i_f); its flux linkage is
the proportional share of the phase-a linkage plus the sub-winding leakage
contribution of the circulating current:

    lam_f = mu * lam_a + mu * (1 - mu) * L_ls * i_f

The leakage term is what closes the 7x7 flux-current system; without it the
fault row is a linear combination of the stator rows and i_f is
indeterminate.  With i_f = 0 the closure reduces to the pure proportional
share.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure

# fault-resistance factor at or above this value means the branch is open
OPEN_BRANCH_KRF = 1e6

IDX_LAM_Q, IDX_LAM_D, IDX_LAM_0 = 0, 1, 2
IDX_LAM_FD, IDX_LAM_KD, IDX_LAM_KQ = 3, 4, 5
IDX_LAM_F, IDX_THETA = 6, 7
_TWO_THIRDS = 2.0 / 3.0


class SingularSystem(NumericalFailure):
    pass


@dataclass(frozen=True)
class WrsgParams:
    """Machine constants; defaults are the 225 kW / 400 Hz reference set."""
    f_n: float = 400.0            # Hz
    r_s: float = 0.0044           # stator phase resistance, ohm
    L_ls: float = 19.8e-6         # stator leakage, H
    L_md: float = 0.221e-3        # d-axis magnetizing, H
    L_mq: float = 0.162e-3        # q-axis magnetizing, H
    r_fd: float = 68.9e-3         # field resistance, ohm
    L_lf: float = 32.8e-6         # field leakage, H
    r_kd: float = 0.0142          # d damper resistance, ohm
    L_lkd: float = 34.1e-6        # d damper leakage, H
    r_kq: float = 0.0031          # q damper resistance, ohm
    L_lkq: float = 0.144e-3       # q damper leakage, H
    pole_pairs: int = 2
    eta_sg: float = 0.95          # electrical-to-shaft efficiency
    two_machine_factor: float = 2.0

    def __post_init__(self):
        for name in ("r_s", "L_ls", "L_md", "L_mq", "r_fd", "L_lf", "r_kd",
                     "L_lkd", "r_kq", "L_lkq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.pole_pairs < 1:
            raise ValueError("pole_pairs must be >= 1")


@dataclass(frozen=True)
class FaultParams:
    """Stator turn-to-turn short: mu = shorted-turn fraction of phase a,
    k_rf = fault-branch resistance factor (r_f = k_rf * mu * r_s)."""
    mu: float = 0.0
    k_rf: float = OPEN_BRANCH_KRF

    def __post_init__(self):
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        if self.k_rf < 0.0:
            raise ValueError("k_rf must be non-negative")

    @property
    def active(self) -> bool:
        return self.mu > 0.0 and self.k_rf < OPEN_BRANCH_KRF

    def r_f(self, r_s: float) -> float:
        return self.k_rf * self.mu * r_s

    def r_sa_f(self, r_s: float) -> float:
        return self.mu * r_s


HEALTHY_FAULT = FaultParams()


@dataclass(frozen=True)
class InductanceModel:
    """The 6x6 flux-current matrix and its inverse, and the rotor rows of
    the flux equations, -(r_fd, r_kd, r_kq) times L^-1's, which no segment
    changes."""
    L: np.ndarray
    L_inv: np.ndarray
    L_ls: float
    rotor_rows: np.ndarray


def build_L(params: WrsgParams, extra_stator_inductance: float = 0.0) -> InductanceModel:
    """Assemble the 6x6 inductance matrix (generator sign convention).

    extra_stator_inductance folds a series load inductance into the stator
    self terms so a machine + series-RL circuit stays a plain ODE.
    """
    lmd, lmq = params.L_md, params.L_mq
    lq = lmq + params.L_ls
    ld = lmd + params.L_ls
    le = extra_stator_inductance
    m = np.array([
        [-(lq + le), 0.0, 0.0, 0.0, 0.0, lmq],
        [0.0, -(ld + le), 0.0, lmd, lmd, 0.0],
        [0.0, 0.0, -(params.L_ls + le), 0.0, 0.0, 0.0],
        [0.0, -lmd, 0.0, lmd + params.L_lf, lmd, 0.0],
        [0.0, -lmd, 0.0, lmd, lmd + params.L_lkd, 0.0],
        [-lmq, 0.0, 0.0, 0.0, 0.0, lmq + params.L_lkq],
    ])
    det = np.linalg.det(m)
    if abs(det) < 1e-40:
        raise SingularSystem("inductance matrix is singular")
    L_inv = np.linalg.inv(m)
    r_rotor = np.array([-params.r_fd, -params.r_kd, -params.r_kq])
    return InductanceModel(L=m, L_inv=L_inv, L_ls=params.L_ls,
                           rotor_rows=r_rotor[:, None] * L_inv[3:])


def fault_current_from_state(y, fault: FaultParams, model: InductanceModel):
    """Closed-form i_f from the sub-winding flux closure (0 when inactive).

    y is a state or a stack of states along the last axis.
    """
    y = np.asarray(y, dtype=float)
    if not fault.active:
        return np.zeros(y.shape[:-1])[()]
    theta = y[..., IDX_THETA]
    lam_a = np.cos(theta) * y[..., IDX_LAM_Q] + np.sin(theta) * y[..., IDX_LAM_D] \
        + y[..., IDX_LAM_0]
    mu = fault.mu
    return (y[..., IDX_LAM_F] - mu * lam_a) / (mu * (1.0 - mu) * model.L_ls)


def currents_fast(y, fault: FaultParams, model: InductanceModel):
    """Winding currents (i_q, i_d, i_0, i_fd, i_kd, i_kq) and the fault
    current i_f of a raw state array, or row-wise on a stack of states.

    Uses i = L^-1 lam + mu * [T_c1; 0] * i_f, the exact closed-form
    reduction of the 7x7 flux-current system with the sub-winding closure
    (pinned by test against a direct solve of that system).
    """
    y = np.asarray(y, dtype=float)
    i_f = fault_current_from_state(y, fault, model)
    i6 = y[..., :6] @ model.L_inv.T
    if fault.active:
        theta = y[..., IDX_THETA]
        k = fault.mu * i_f
        i6[..., 0] += _TWO_THIRDS * k * np.cos(theta)
        i6[..., 1] += _TWO_THIRDS * k * np.sin(theta)
        i6[..., 2] += k / 3.0
    return i6, i_f
