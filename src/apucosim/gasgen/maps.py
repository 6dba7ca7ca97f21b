"""Analytic scalable component maps, anchored at the sizing point.

The compressor map parameterizes corrected flow, pressure ratio and a
parabolic efficiency on (relative corrected speed, beta); the turbine map is
a saturating corrected-flow vs expansion-ratio curve with efficiency on the
velocity ratio.  Health factors are applied by the cycle code, never here,
so a healthy lookup is bit-identical to the raw map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import NumericalFailure


class BetaOutOfRange(NumericalFailure):
    def __init__(self, beta):
        super().__init__(f"map coordinate beta={beta:.4f} outside [-0.25, 1.25]")


class PressureRatioBelowUnity(NumericalFailure):
    def __init__(self, pr):
        super().__init__(f"turbine expansion ratio {pr:.4f} not above 1")


# beta at the sizing anchor: flow and pressure ratio take their design values
# there (_LO + 0.5 _SPAN = 1), efficiency peaks there, cold matches start there
BETA_DESIGN = 0.5
_FLOW_EXP = 1.3      # corrected flow vs corrected speed along the map
_PR_EXP = 1.9        # pressure-rise vs corrected speed
_FLOW_LO, _FLOW_SPAN = 1.10, -0.20   # beta=0 choke side, beta=1 surge side
_PR_LO, _PR_SPAN = 0.85, 0.30
_ETA_BETA_CURV = 0.45
_ETA_SPEED_CURV = 1.5


@dataclass(frozen=True)
class CompressorMap:
    wc_design: float          # corrected flow at the anchor, kg/s
    pr_design: float
    eta_design: float
    surge_pr_design: float    # surge-line pressure ratio at design corrected flow

    def _check(self, beta):
        if not -0.25 <= beta <= 1.25:
            raise BetaOutOfRange(beta)

    def corrected_flow(self, n_rel: float, beta: float) -> float:
        self._check(beta)
        return self.wc_design * n_rel ** _FLOW_EXP * (_FLOW_LO + _FLOW_SPAN * beta)

    def pressure_ratio(self, n_rel: float, beta: float) -> float:
        self._check(beta)
        return 1.0 + (self.pr_design - 1.0) * n_rel ** _PR_EXP * (_PR_LO + _PR_SPAN * beta)

    def efficiency(self, n_rel: float, beta: float) -> float:
        self._check(beta)
        eta = (self.eta_design
               * (1.0 - _ETA_BETA_CURV * (beta - BETA_DESIGN) ** 2)
               * (1.0 - _ETA_SPEED_CURV * (n_rel - 1.0) ** 2))
        return max(eta, 0.2)

    def surge_pressure_ratio(self, wc: float) -> float:
        """Surge-line PR at a given corrected flow, anchored at the design flow."""
        n_at = (wc / (self.wc_design * (_FLOW_LO + _FLOW_SPAN))) ** (1.0 / _FLOW_EXP)
        n_anchor = (1.0 / (_FLOW_LO + _FLOW_SPAN)) ** (1.0 / _FLOW_EXP)
        shape = (n_at / n_anchor) ** _PR_EXP
        return 1.0 + (self.surge_pr_design - 1.0) * shape


@dataclass(frozen=True)
class TurbineMap:
    wc_design: float          # corrected inlet flow at the anchor, kg/s
    pr_design: float          # design expansion ratio (inlet/outlet total)
    eta_design: float
    dhs_design: float         # design isentropic enthalpy drop, kJ/kg

    def corrected_flow(self, pr: float) -> float:
        if pr <= 1.0:
            raise PressureRatioBelowUnity(pr)
        sat = math.sqrt(max(0.0, 1.0 - pr ** -2))
        sat_design = math.sqrt(1.0 - self.pr_design ** -2)
        return self.wc_design * sat / sat_design

    def efficiency(self, n_rel: float, dhs: float) -> float:
        """Velocity-ratio parabola: peak at the design blade-speed ratio."""
        r = n_rel * math.sqrt(self.dhs_design / max(dhs, 1e-9))
        r = min(max(r, 0.05), 1.95)
        return self.eta_design * (2.0 * r - r * r)
