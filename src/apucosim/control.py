"""The two regulators: a PI fuel governor holding gas-generator speed and an
AVR holding generator terminal voltage through the field voltage.

Both are value-state step functions with output clamps, rate limiting on the
fuel path and conditional-integration anti-windup (the integral freezes when
the output is saturated and the error would push it further out).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GovernorState:
    N_set: float = 36050.0        # rpm
    K_p: float = 0.35             # kg/s per unit relative speed error
    K_i: float = 1.2              # kg/s per unit error-second
    wf_ff: float = 0.0484         # feed-forward fuel flow, kg/s
    wf_min: float = 0.004
    wf_max: float = 0.085
    rate_limit: float = 0.08      # kg/s per second
    integral: float = 0.0         # accumulated K_i * error * dt, kg/s
    prev_wf: float | None = None


def governor_step(state: GovernorState, N_meas: float, dt: float) -> tuple[float, GovernorState]:
    """One governor update: returns (fuel flow, new state)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    e = (state.N_set - N_meas) / state.N_set
    integral = state.integral + state.K_i * e * dt
    wf_raw = state.wf_ff + state.K_p * e + integral
    wf = min(max(wf_raw, state.wf_min), state.wf_max)
    if wf != wf_raw and (wf_raw - wf) * e > 0:
        integral = state.integral          # anti-windup: freeze the integral
    if state.prev_wf is not None:
        step = state.rate_limit * dt
        wf = min(max(wf, state.prev_wf - step), state.prev_wf + step)
        wf = min(max(wf, state.wf_min), state.wf_max)
    return wf, GovernorState(state.N_set, state.K_p, state.K_i, state.wf_ff, state.wf_min,
                             state.wf_max, state.rate_limit, integral, wf)


@dataclass(frozen=True)
class AvrState:
    V_set: float = 230.0          # V rms phase
    K_p: float = 0.10             # V field per V rms error
    K_i: float = 6.0              # V field per V-second
    V_fd_max: float = 200.0
    integral: float = 0.0         # accumulated K_i * error * dt, V


def avr_step(state: AvrState, V_rms_meas: float, dt: float) -> tuple[float, AvrState]:
    """One AVR update: returns (field voltage, new state)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    e = state.V_set - V_rms_meas
    integral = state.integral + state.K_i * e * dt
    v_raw = state.K_p * e + integral
    v_fd = min(max(v_raw, 0.0), state.V_fd_max)
    if v_fd != v_raw and (v_raw - v_fd) * e > 0:
        integral = state.integral          # anti-windup: freeze the integral
    return v_fd, AvrState(state.V_set, state.K_p, state.K_i, state.V_fd_max, integral)
