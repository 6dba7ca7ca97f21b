"""Reference static-state solve from continuity, kept as the check on
`apucosim.gasgen.cycle.static_from_flow`: Newton on Mach with a
finite-difference slope, each flow evaluation finding Ts from Mach by a
fixed point in gamma(Ts). Slower than the solve in the package, and
independent of it apart from the gas properties.
"""
import math

from apucosim.gasgen import properties as gas


def reference_static_from_flow(Tt, Pt, W, area, far=0.0):
    """(Ts, Ps, mach, choked) for flow W through `area` at Tt, Pt."""
    def flow_at(m):
        ts = Tt
        for _ in range(12):
            cps = gas.cp(ts, far)
            gamma = cps / (cps - gas.R_GAS)
            ts_new = Tt / (1.0 + 0.5 * (gamma - 1.0) * m * m)
            if abs(ts_new - ts) < 1e-10:
                ts = ts_new
                break
            ts = ts_new
        v = math.sqrt(max(0.0, 2000.0 * (gas.enthalpy(Tt, far) - gas.enthalpy(ts, far))))
        ps = Pt * math.exp((gas.phi(ts, far) - gas.phi(Tt, far)) / gas.R_GAS)
        rho = ps / (gas.R_GAS * ts)
        return rho * v * area, ts, ps

    w_choke, ts_c, ps_c = flow_at(1.0)
    if W >= w_choke:
        return ts_c, ps_c, 1.0, True
    lo, hi = 1e-9, 1.0
    m = min(0.99, max(1e-6, W / w_choke))
    for _ in range(80):
        w_m, ts, ps = flow_at(m)
        err = w_m - W
        if abs(err) < 1e-11 * max(W, 1e-6):
            return ts, ps, m, False
        if err > 0:
            hi = m
        else:
            lo = m
        dm = 1e-7
        w_p, _, _ = flow_at(min(m + dm, 1.0))
        slope = (w_p - w_m) / dm
        m_new = m - err / slope if slope > 0 else 0.5 * (lo + hi)
        m = m_new if lo < m_new < hi else 0.5 * (lo + hi)
    return ts, ps, m, False


def continuity_flow(Tt, Pt, ts, area, far=0.0):
    """rho v A at static temperature ts, from the same relations."""
    v = math.sqrt(max(0.0, 2000.0 * (gas.enthalpy(Tt, far) - gas.enthalpy(ts, far))))
    ps = Pt * math.exp((gas.phi(ts, far) - gas.phi(Tt, far)) / gas.R_GAS)
    return ps / (gas.R_GAS * ts) * v * area


def choke_flow(Tt, Pt, area, far=0.0):
    """The flow at which the reference solve reports a choked state."""
    ts, _, _, _ = reference_static_from_flow(Tt, Pt, math.inf, area, far)
    return continuity_flow(Tt, Pt, ts, area, far)
