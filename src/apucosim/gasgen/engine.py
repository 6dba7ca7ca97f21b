"""Discrete state-space wrapper around the cycle: explicit state update,
output projection and the steady fuel trim (cycle.trim_fuel).

The single state is spool speed; the update is a pure function of (state,
input, health, shaft load) and the output of (state, input, health), so
external state processing (noise injection, Monte Carlo; the co-simulation
loop's spool-speed state noise) fits between the two. The matches are chained: `state_update`
returns its last (half-step) match with the new state, `output` starts from
it, and the match `output` returns is the next `state_update`'s first.
`state_update` uses its given match only where it was made at the update's
speed, fuel flow and health (the same HealthParams object); elsewhere, as
at a health swap or a fuel step at t = 0, its first sub-step re-solves the
match from it, as it solves cold where it is given none.
Each warm match starts where its guess's sensitivity predicts
(cycle.off_design_solve), so the chain carries that secant through both
speed and fuel steps. A match carries only this chain state; its station
table is projected from its final cycle pass when first read, so the
half-step match, whose outputs nothing reads, never builds one, and a row
of outputs is read from that table without a GasState or a dict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from ..errors import NumericalFailure
from .cycle import (
    CycleSolution,
    GasGenInput,
    GasGenParams,
    HEALTHY,
    HealthParams,
    STATION_FIELDS,
    STATIONS,
    off_design_solve,
    trim_fuel,
)

MACRO_DT = 0.02          # s, fixed gas-generator step
_SUBSTEPS = 2            # forward sub-steps per macro step
MAX_SPEED_RATIO = 1.2    # the spool's speed limit over its design speed


class SpeedOutOfRange(NumericalFailure):
    def __init__(self, n, n_max):
        super().__init__(f"spool speed {n:.0f} rpm outside (0, {n_max:.0f}] rpm")


@dataclass(frozen=True)
class GasGenState:
    N: float      # spool speed, rpm

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("spool speed must be positive")


# the output channels of the reference deck's design-point table, in its
# order and with its unit strings: (name, unit, description, station, field),
# the value being `field` of that station's state, or of the cycle solution
# itself where the station is None
OUTPUT_TABLE = (
    ("XNHPC", "r/min", "Rotor Speed", None, "N"),
    ("PWSD", "kW", "Output Shaft Power", None, "PW_shaft_net"),
    ("SFC", "kg/(kW.h)", "Specific Fuel Consumption", None, "SFC"),
    ("SNOx", "/", "NOx Severity Factor", None, "NOx_severity"),
    ("HPCSM", "/", "Compressor Stability Margin", None, "surge_margin"),
    ("T1", "K", "Inlet Total Temperature", 1, "Tt"),
    ("P1", "kPa", "Inlet Total Pressure", 1, "Pt"),
    ("T2", "K", "Compressor Inlet Total Temperature", 2, "Tt"),
    ("P2", "kPa", "Compressor Inlet Total Pressure", 2, "Pt"),
    ("W2", "kg/s", "Compressor Inlet Flow Rate", 2, "W"),
    ("T3", "K", "Compressor Outlet Total Temperature", 3, "Tt"),
    ("P3", "kPa", "Compressor Outlet Total Pressure", 3, "Pt"),
    ("Ps3", "kPa", "Compressor Outlet Static Pressure", None, "Ps3"),
    ("W3", "kg/s", "Compressor Outlet Flow Rate", 3, "W"),
    ("T4", "K", "Combustion Chamber Outlet Total Temperature", 4, "Tt"),
    ("P4", "kPa", "Combustion Chamber Outlet Total Pressure", 4, "Pt"),
    ("W4", "kg/s", "Combustion Chamber Outlet Flow Rate", 4, "W"),
    ("T41", "K", "Turbine Inlet Total Temperature", 41, "Tt"),
    ("W41", "kg/s", "Turbine Inlet Flow Rate", 41, "W"),
    ("T5", "K", "Turbine Outlet Total Temperature", 5, "Tt"),
    ("P5", "kPa", "Turbine Outlet Total Pressure", 5, "Pt"),
    ("W5", "kg/s", "Turbine Outlet Flow Rate", 5, "W"),
    ("T8", "K", "Engine Outlet Total Temperature", 8, "Tt"),
    ("P8", "kPa", "Engine Outlet Total Pressure", 8, "Pt"),
    ("W8", "kg/s", "Engine Outlet Flow Rate", 8, "W"),
)
OUTPUT_CHANNELS = tuple((name, unit) for name, unit, *_ in OUTPUT_TABLE)


# the channels read from the solution itself, and each channel's place in a
# solution's station table followed by those values
_OWN = tuple(field for *_, station, field in OUTPUT_TABLE if station is None)
_own_values = attrgetter(*_OWN)
_row = itemgetter(*(
    len(STATIONS) * len(STATION_FIELDS) + _OWN.index(field) if station is None
    else len(STATION_FIELDS) * STATIONS.index(station) + STATION_FIELDS.index(field)
    for *_, station, field in OUTPUT_TABLE))


def output_row(sol: CycleSolution) -> tuple:
    """The output channels of a cycle match, in OUTPUT_TABLE order, read
    from its station table."""
    return _row(sol.table + _own_values(sol))


def outputs_from_solution(sol: CycleSolution) -> dict:
    """The output channels of a cycle match by name."""
    return dict(zip((name for name, _ in OUTPUT_CHANNELS), output_row(sol)))


def _dn_dt(params: GasGenParams, pw_net_kw: float, pe_kw: float, n_rpm: float) -> float:
    """Spool acceleration in rpm/s from the power surplus."""
    return ((pw_net_kw - pe_kw) * 1000.0 * (30.0 / math.pi) ** 2
            / (params.inertia * n_rpm))


def state_update(params: GasGenParams, x: GasGenState, u: GasGenInput,
                 health: HealthParams = HEALTHY, Pe: float = 0.0,
                 dt: float = MACRO_DT,
                 match: CycleSolution | None = None) -> tuple[GasGenState, CycleSolution]:
    """Advance spool speed over one macro step (two forward sub-steps), the
    first from `match` where it is the cycle match at (x, u, health), else
    from a match solved there from `match` (cold where None); returns the
    new state and the last sub-step's match, the nearest one to start the
    output match from."""
    n = x.N
    n_max = MAX_SPEED_RATIO * params.design_speed
    sub = dt / _SUBSTEPS
    for k in range(_SUBSTEPS):
        if (k or match is None or match.N != n or match.wf != u.wf
                or match.health is not health):
            match = off_design_solve(params, u, health, N=n, guess=match)
        n = n + _dn_dt(params, match.PW_shaft_net, Pe, n) * sub
        if not 0.0 < n <= n_max:
            raise SpeedOutOfRange(n, n_max)
    return GasGenState(N=n), match


def output(params: GasGenParams, x: GasGenState, u: GasGenInput,
           health: HealthParams = HEALTHY,
           guess: CycleSolution | None = None) -> tuple[tuple, CycleSolution]:
    """Project the cycle match at (x, u, health) onto the output channels;
    returns the outputs, in OUTPUT_TABLE order, and the match."""
    sol = off_design_solve(params, u, health, N=x.N, guess=guess)
    return output_row(sol), sol

