"""Terminal load models for the starter/generator.

The load closes the stator circuit algebraically: a resistive bank gives
v = R i per phase; a series inductance is folded into the stator leakage
(the flux state then carries machine + load flux, which keeps the whole
circuit a plain ODE).  The neutral is solidly grounded so the zero-sequence
path stays active.
"""
from __future__ import annotations

from dataclasses import dataclass

OPEN_CIRCUIT_R = 1e9
SPEED_REF_RPM = 12000.0     # reference speed of the cubic-speed-law load
LOAD_KINDS = ("resistive-bank", "cubic-speed-law")


@dataclass(frozen=True)
class LoadModel:
    R_phase: float                          # ohm per phase at scale 1
    kind: str = "resistive-bank"            # resistive-bank | cubic-speed-law
    L_phase: float = 0.0                    # H per phase, in series on every kind
    schedule: tuple = ()                    # ((time_s, scale), ...) on admittance

    def __post_init__(self):
        if self.kind not in LOAD_KINDS:
            raise ValueError(f"unknown load kind {self.kind!r}")
        if self.R_phase <= 0:
            raise ValueError("R_phase must be positive")
        if self.L_phase < 0:
            raise ValueError("L_phase must be non-negative")
        times = [t for t, _ in self.schedule]
        if times != sorted(set(times)):
            raise ValueError("schedule times must be strictly increasing")

    @staticmethod
    def from_power(power_kw: float, v_phase_rms: float = 230.0,
                   schedule: tuple = (), kind: str = "resistive-bank",
                   L_phase: float = 0.0) -> "LoadModel":
        """Per-phase resistance drawing power_kw at the rated phase voltage."""
        r = 3.0 * v_phase_rms ** 2 / (power_kw * 1000.0)
        return LoadModel(kind=kind, R_phase=r, L_phase=L_phase, schedule=schedule)

    def resistance(self, s: float, speed_rpm: float | None = None) -> float:
        """Per-phase resistance at admittance scale s (0.6 = 60 % power)."""
        if self.kind == "cubic-speed-law" and speed_rpm is not None:
            s = s * (speed_rpm / SPEED_REF_RPM) ** 3
        if s <= 0.0:
            return OPEN_CIRCUIT_R
        return min(self.R_phase / s, OPEN_CIRCUIT_R)
