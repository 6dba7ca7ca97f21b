"""Independent classic dq0 synchronous generator used as the healthy-mode
reference: textbook per-axis flux-current inversion (d-axis 3x3, q-axis 2x2,
zero-sequence scalar), no fault machinery, generator sign convention.

State: [lam_q, lam_d, lam_0, lam_fd, lam_kd, lam_kq, theta_e].
"""
import numpy as np


class ClassicDq0Generator:
    def __init__(self, params, R_load):
        self.p = params
        self.R = R_load
        lmd, lmq = params.L_md, params.L_mq
        ld = lmd + params.L_ls
        lq = lmq + params.L_ls
        # d-axis: [lam_d, lam_fd, lam_kd] vs [i_d, i_fd, i_kd]
        md = np.array([
            [-ld, lmd, lmd],
            [-lmd, lmd + params.L_lf, lmd],
            [-lmd, lmd, lmd + params.L_lkd],
        ])
        # q-axis: [lam_q, lam_kq] vs [i_q, i_kq]
        mq = np.array([
            [-lq, lmq],
            [-lmq, lmq + params.L_lkq],
        ])
        self.md_inv = np.linalg.inv(md)
        self.mq_inv = np.linalg.inv(mq)
        self.l0 = params.zero_seq_inductance

    def currents(self, y):
        i_q, i_kq = self.mq_inv @ np.array([y[0], y[5]])
        i_d, i_fd, i_kd = self.md_inv @ np.array([y[1], y[3], y[4]])
        i_0 = -y[2] / self.l0
        return i_q, i_d, i_0, i_fd, i_kd, i_kq

    def make_affine(self, V_fd, w_e):
        """t -> (A, b) with d lam/dt = A lam + b for the six fluxes, built
        from the per-axis inverses (theta advances at w_e outside)."""
        p = self.p
        r_tot = self.R + p.r_s
        # current = C lam, each row from its own axis inverse
        c = np.zeros((6, 6))
        c[np.ix_([0, 5], [0, 5])] = self.mq_inv
        c[np.ix_([1, 3, 4], [1, 3, 4])] = self.md_inv
        c[2, 2] = -1.0 / self.l0
        a = np.array([r_tot, r_tot, r_tot, -p.r_fd, -p.r_kd, -p.r_kq])[:, None] * c
        a[0, 1] -= w_e
        a[1, 0] += w_e
        b = np.array([0.0, 0.0, 0.0, V_fd, 0.0, 0.0])
        return lambda t: (a, b)

    def make_derivatives(self, V_fd, w_e):
        p = self.p
        r_tot = self.R + p.r_s

        def deriv(t, y):
            i_q, i_d, i_0, i_fd, i_kd, i_kq = self.currents(y)
            return np.array([
                r_tot * i_q - w_e * y[1],
                r_tot * i_d + w_e * y[0],
                r_tot * i_0,
                V_fd - p.r_fd * i_fd,
                -p.r_kd * i_kd,
                -p.r_kq * i_kq,
                w_e,
            ])
        return deriv
