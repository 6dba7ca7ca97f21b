"""Terminal measurement model (additive Gaussian channel noise) and the
trailing-window rms used by the regulator and the report tables."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure


class WindowTooShort(NumericalFailure):
    def __init__(self, span, needed):
        super().__init__(f"window spans {span:.6g} s, needs >= {needed:.6g} s")


@dataclass(frozen=True)
class NoiseConfig:
    std_w1: float = 0.0    # stator flux-equation noise, V-equivalent
    std_w2: float = 0.0    # rotor flux-equation noise
    std_vi: float = 0.0    # current measurement noise, A
    std_vv: float = 0.0    # voltage measurement noise, V

    def __post_init__(self):
        for name in ("std_w1", "std_w2", "std_vi", "std_vv"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def measure(v_abc, i_abc, noise: NoiseConfig, rng):
    """Measured phase voltages and currents: adds zero-mean Gaussian noise
    per channel, drawn from the generator rng."""
    v = np.asarray(v_abc, dtype=float).copy()
    i = np.asarray(i_abc, dtype=float).copy()
    if noise.std_vi:
        i += rng.normal(0.0, noise.std_vi, size=i.shape)
    if noise.std_vv:
        v += rng.normal(0.0, noise.std_vv, size=v.shape)
    return v, i


def rms_window(times, samples, window: float):
    """Trapezoidal rms of the trailing `window` seconds of a sampled signal,
    or of each row of a stack of signals sampled at `times` (an array whose
    last axis is time): a float, or an array of the stack's shape without
    that axis. A C-contiguous stack sums each row as the call on that row
    alone does, so each rms has that call's bits."""
    t = np.asarray(times, dtype=float)
    x = np.asarray(samples, dtype=float)
    if t.size < 2:
        raise WindowTooShort(0.0, window)
    t_end = t[-1]
    span = t_end - t[0]
    if span + 1e-12 < window:
        raise WindowTooShort(span, window)
    t0 = t_end - window
    k = int(np.searchsorted(t, t0, side="right"))
    if k > 0:
        # interpolate the sample exactly at the window start
        f = (t0 - t[k - 1]) / (t[k] - t[k - 1])
        x0 = x[..., k - 1] + f * (x[..., k] - x[..., k - 1])
        tt = np.concatenate(([t0], t[k:]))
        xx = np.concatenate((x0[..., None], x[..., k:]), axis=-1)
    else:
        tt, xx = t, x
    f = xx * xx
    mean_square = (np.sum(np.diff(tt) * (f[..., 1:] + f[..., :-1]), axis=-1) * 0.5
                   / (tt[-1] - tt[0]))
    return np.sqrt(mean_square) if x.ndim > 1 else math.sqrt(mean_square)
