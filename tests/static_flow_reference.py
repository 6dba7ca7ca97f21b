"""Reference static-state solve from continuity, kept as the check on
`apucosim.gasgen.cycle.static_from_flow`: the choke point is the maximum of
the continuity flow over Ts, found by golden-section search, and below it
Newton on Mach with a finite-difference slope, each flow evaluation finding
Ts from Mach by a fixed point in gamma(Ts). Slower than the solve in the
package, and independent of it apart from the gas properties.
"""
import math

from apucosim.gasgen import properties as gas

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def continuity_flow(Tt, Pt, ts, area, far=0.0):
    """rho v A at static temperature ts."""
    v = math.sqrt(max(0.0, 2000.0 * (gas.enthalpy(Tt, far) - gas.enthalpy(ts, far))))
    ps = Pt * math.exp((gas.phi(ts, far) - gas.phi(Tt, far)) / gas.R_GAS)
    return ps / (gas.R_GAS * ts) * v * area


def flow_maximum(Tt, Pt, area, far=0.0):
    """(Ts, W) at the largest continuity flow over Ts in [T_MIN, Tt], by
    golden-section search. The flow is flat there, so Ts is found only to
    about the square root of the rounding error, and W to rounding."""
    def flow(ts):
        return continuity_flow(Tt, Pt, ts, area, far)

    a, b = gas.T_MIN, Tt
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = flow(c), flow(d)
    for _ in range(200):
        if b - a <= 1e-15 * Tt:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = flow(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = flow(d)
    return (c, fc) if fc >= fd else (d, fd)


def reference_static_from_flow(Tt, Pt, W, area, far=0.0):
    """(Ts, Ps, mach, choked) for flow W through `area` at Tt, Pt; mach is
    the Mach number of the fixed point Ts = Tt / (1 + (gamma(Ts) - 1) m^2 / 2)."""
    def ts_at(m):
        ts = Tt
        for _ in range(12):
            cps = gas.cp(ts, far)
            gamma = cps / (cps - gas.R_GAS)
            ts_new = Tt / (1.0 + 0.5 * (gamma - 1.0) * m * m)
            if abs(ts_new - ts) < 1e-10:
                return ts_new
            ts = ts_new
        return ts

    def static_pressure(ts):
        return Pt * math.exp((gas.phi(ts, far) - gas.phi(Tt, far)) / gas.R_GAS)

    ts_max, w_max = flow_maximum(Tt, Pt, area, far)
    if W >= w_max:
        return ts_max, static_pressure(ts_max), 1.0, True
    cps = gas.cp(ts_max, far)
    m_max = math.sqrt(2.0 * (Tt / ts_max - 1.0) * (cps - gas.R_GAS) / gas.R_GAS)
    lo, hi = 1e-9, m_max
    m = min(0.99 * m_max, max(1e-6, W / w_max))
    for _ in range(80):
        ts = ts_at(m)
        w_m = continuity_flow(Tt, Pt, ts, area, far)
        err = w_m - W
        if abs(err) < 1e-11 * max(W, 1e-6):
            break
        if err > 0:
            hi = m
        else:
            lo = m
        m_p = min(m + 1e-7, m_max)
        slope = (continuity_flow(Tt, Pt, ts_at(m_p), area, far) - w_m) / (m_p - m)
        m_new = m - err / slope if slope > 0 else 0.5 * (lo + hi)
        m = m_new if lo < m_new < hi else 0.5 * (lo + hi)
    return ts, static_pressure(ts), m, False


def choke_flow(Tt, Pt, area, far=0.0):
    """The flow at which the reference solve reports a choked state."""
    return flow_maximum(Tt, Pt, area, far)[1]
