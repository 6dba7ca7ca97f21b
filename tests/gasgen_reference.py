"""Reference forms of gas-generator pieces, kept as checks on
`apucosim.gasgen`: the burner and turbine components on plain station
states (the cycle evaluation carries enthalpies and starting temperatures
between them), and a steady-state speed search, the check on the fuel-step
transient's analytic starting speed.
"""
import numpy as np

from apucosim.gasgen import (
    HEALTHY,
    CycleSolution,
    GasGenInput,
    GasGenParams,
    GasGenState,
    GasState,
    HealthParams,
    off_design_solve,
    outputs_from_solution,
)
from apucosim.gasgen.cycle import COLD, NoSteadyState, TurbineResult, _burn, _turbine


def burner_calc(inlet: GasState, wf: float, params: GasGenParams) -> GasState:
    """Heat addition with calibrated efficiency and fixed pressure-loss fraction."""
    return _burn(inlet, inlet.h, wf, params)[0]


def turbine_calc(inlet4: GasState, cool_ngv: GasState, cool_rotor: GasState,
                 N: float, pr_t: float, params: GasGenParams,
                 health: HealthParams = HEALTHY) -> TurbineResult:
    """NGV cooling return, map expansion, rotor cooling return."""
    return _turbine(inlet4, inlet4.h, cool_ngv, cool_ngv.h, cool_rotor, cool_rotor.h,
                    N, pr_t, params, health, COLD)


def init(params: GasGenParams, u: GasGenInput, health: HealthParams = HEALTHY,
         Pe: float | None = None, load_law=None) -> tuple[GasGenState, dict, CycleSolution]:
    """Steady state: spool speed where delivered power meets the load.

    Provide either a fixed shaft power Pe or a load_law(N)->kW callable
    (e.g. a cubic speed law).
    """
    if (Pe is None) == (load_law is None):
        raise ValueError("provide exactly one of Pe or load_law")
    law = (lambda n: Pe) if load_law is None else load_law

    def surplus(n):
        """Power surplus at speed n (0.0 once it meets the tolerance) and
        the cycle solution it was read from."""
        sol = off_design_solve(params, u, health, Pe=law(n), N=n)
        s = sol.PW_shaft_net - law(n)
        return (0.0 if abs(s) < 1e-9 * max(abs(law(n)), 1.0) else s), sol

    n_lo, n_hi = 0.55 * params.design_speed, 1.15 * params.design_speed
    ns = np.linspace(n_lo, n_hi, 13)
    vals, sols = [], {}
    for n in ns:
        try:
            s, sols[n] = surplus(n)
            vals.append((n, s))
        except Exception:
            vals.append((n, None))
    brackets = [(n1, s1, n2, s2)
                for (n1, s1), (n2, s2) in zip(vals, vals[1:])
                if s1 is not None and s2 is not None and s1 * s2 <= 0.0]
    if not brackets:
        raise NoSteadyState("no speed bracket where delivered power meets the load")
    # prefer the stable equilibrium (surplus falls through zero as N rises)
    stable = [b for b in brackets if b[1] >= 0.0 >= b[3]]
    bracket = (stable or brackets)[-1]
    n1, s1, n2, s2 = bracket
    # a grid speed may already be the steady state (a surplus peaking at
    # zero there touches zero without changing sign)
    for n, s in ((n1, s1), (n2, s2)):
        if s == 0.0:
            return GasGenState(N=n), outputs_from_solution(sols[n]), sols[n]
    for _ in range(80):
        n_mid = n1 - s1 * (n2 - n1) / (s2 - s1)
        if not n1 < n_mid < n2:
            n_mid = 0.5 * (n1 + n2)
        s_mid, sol = surplus(n_mid)
        if s_mid == 0.0:
            x = GasGenState(N=n_mid)
            return x, outputs_from_solution(sol), sol
        if s_mid * s1 <= 0.0:
            n2, s2 = n_mid, s_mid
        else:
            n1, s1 = n_mid, s_mid
    raise NoSteadyState("steady-state speed search did not converge")
