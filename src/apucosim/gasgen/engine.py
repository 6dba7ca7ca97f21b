"""Discrete state-space wrapper around the cycle: explicit state update,
output projection and the steady fuel trim.

The single state is spool speed; update and output are pure functions of
(state, input, health, shaft load), so external state processing (noise
injection, Monte Carlo; the co-simulation loop's hook) fits between the
two. The matches are chained: `state_update` returns its last (half-step)
match with the new state, `output` starts from it, and the match `output`
returns is the next `state_update`'s first. Each warm match starts where
its guess's sensitivity predicts (cycle.off_design_solve), so the chain
carries that secant through both speed and fuel steps. A match carries only
this chain state; its station table is projected when first read, so the
half-step match, whose outputs nothing reads, never builds one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import NumericalFailure
from .cycle import (
    CycleSolution,
    GasGenInput,
    GasGenParams,
    HEALTHY,
    HealthParams,
    off_design_solve,
    power_match,
)

MACRO_DT = 0.02          # s, fixed gas-generator step
_SUBSTEPS = 2            # forward sub-steps per macro step


class SpeedOutOfRange(NumericalFailure):
    def __init__(self, n, n_max):
        super().__init__(f"spool speed {n:.0f} rpm outside (0, {n_max:.0f}] rpm")


@dataclass(frozen=True)
class GasGenState:
    N: float      # spool speed, rpm

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("spool speed must be positive")


# output channel list mirrors the reference deck's design-point table,
# including its unit strings
OUTPUT_CHANNELS = (
    ("XNHPC", "r/min"), ("PWSD", "kW"), ("SFC", "kg/(kW.h)"), ("SNOx", "/"),
    ("HPCSM", "/"),
    ("T1", "K"), ("P1", "kPa"), ("T2", "K"), ("P2", "kPa"), ("W2", "kg/s"),
    ("T3", "K"), ("P3", "kPa"), ("Ps3", "kPa"), ("W3", "kg/s"),
    ("T4", "K"), ("P4", "kPa"), ("W4", "kg/s"),
    ("T41", "K"), ("W41", "kg/s"),
    ("T5", "K"), ("P5", "kPa"), ("W5", "kg/s"),
    ("T8", "K"), ("P8", "kPa"), ("W8", "kg/s"),
)


def outputs_from_solution(sol: CycleSolution) -> dict:
    st = sol.stations
    return {
        "XNHPC": sol.N, "PWSD": sol.PW_shaft_net, "SFC": sol.SFC,
        "SNOx": sol.NOx_severity, "HPCSM": sol.surge_margin,
        "T1": st[1].Tt, "P1": st[1].Pt, "T2": st[2].Tt, "P2": st[2].Pt,
        "W2": st[2].W, "T3": st[3].Tt, "P3": st[3].Pt, "Ps3": sol.Ps3,
        "W3": st[3].W, "T4": st[4].Tt, "P4": st[4].Pt, "W4": st[4].W,
        "T41": st[41].Tt, "W41": st[41].W, "T5": st[5].Tt, "P5": st[5].Pt,
        "W5": st[5].W, "T8": st[8].Tt, "P8": st[8].Pt, "W8": st[8].W,
    }


def _dn_dt(params: GasGenParams, pw_net_kw: float, pe_kw: float, n_rpm: float) -> float:
    """Spool acceleration in rpm/s from the power surplus."""
    return ((pw_net_kw - pe_kw) * 1000.0 * (30.0 / math.pi) ** 2
            / (params.inertia * n_rpm))


def state_update(params: GasGenParams, x: GasGenState, u: GasGenInput,
                 health: HealthParams = HEALTHY, Pe: float = 0.0,
                 dt: float = MACRO_DT,
                 match: CycleSolution | None = None) -> tuple[GasGenState, CycleSolution]:
    """Advance spool speed over one macro step (two forward sub-steps), the
    first from `match`, the cycle match at (x, u, health) (None: solve it);
    returns the new state and the last sub-step's match, the nearest one to
    start the output match from."""
    n = x.N
    n_max = 1.2 * params.design_speed
    sub = dt / _SUBSTEPS
    for k in range(_SUBSTEPS):
        if k or match is None:
            match = off_design_solve(params, u, health, Pe=Pe, N=n, guess=match)
        n = n + _dn_dt(params, match.PW_shaft_net, Pe, n) * sub
        if not 0.0 < n <= n_max:
            raise SpeedOutOfRange(n, n_max)
    return GasGenState(N=n), match


def output(params: GasGenParams, x: GasGenState, u: GasGenInput,
           health: HealthParams = HEALTHY, Pe: float = 0.0,
           guess: CycleSolution | None = None) -> tuple[dict, CycleSolution]:
    """Project the cycle match at (x, u, health) onto the output channels;
    returns the outputs and the match."""
    sol = off_design_solve(params, u, health, Pe=Pe, N=x.N, guess=guess)
    return outputs_from_solution(sol), sol


def trim_fuel(params: GasGenParams, N: float, Pe: float,
              health: HealthParams = HEALTHY, altitude: float = 0.0,
              mach: float = 0.0, dT_ISA: float = 5.0) -> tuple[float, CycleSolution]:
    """Fuel flow at which the engine delivers Pe kW at speed N (steady), and
    the cycle solution at that fuel flow: one power_match, its fuel flow
    started in proportion to the power the turbine must deliver."""
    wf = params.wf_design * max(Pe + params.accessory_kw, 20.0) / (
        params.pe_design + params.accessory_kw)
    sol = power_match(params, GasGenInput(wf, altitude, mach, dT_ISA), health, Pe, N)
    return sol.wf, sol
