"""Working-fluid model: cp/enthalpy/entropy of dry air and kerosene-type
combustion products, blended by fuel-air ratio.

cp polynomials are in z = T/1000 over 200..2000 K; the products curve is a
correction per unit fuel mass fraction FAR/(1+FAR).  Enthalpy is referenced
to zero at 288.15 K for every composition, so combustion energy balances can
use the fuel heating value directly.
"""
from __future__ import annotations

import math

# specific gas constant, kJ/(kg K); composition effect on R is below the
# calibration noise of the cycle anchors and is deliberately ignored
R_GAS = 0.28705287

T_REF = 288.15
T_MIN, T_MAX = 200.0, 2000.0

# dry air cp [kJ/(kg K)], ascending powers of z = T/1000
_CP_AIR = (0.992313, 0.236688, -1.852148, 6.083152, -8.893933, 7.097112,
           -3.234725, 0.794571, -0.081873)
# combustion-products correction per unit FAR/(1+FAR), same form
_CP_PROD = (-0.718874, 8.747481, -15.863157, 17.254096, -10.233795,
            3.081778, -0.361112, -0.003919)

# antiderivative coefficients: h = 1000 * sum a_k z^(k+1) / (k+1)
_H_AIR = tuple(1000.0 * c / (k + 1) for k, c in enumerate(_CP_AIR))
_H_PROD = tuple(1000.0 * c / (k + 1) for k, c in enumerate(_CP_PROD))
# entropy function: phi = a_0 ln z + sum_{k>=1} a_k z^k / k
_PHI_AIR = tuple(c / k if k else c for k, c in enumerate(_CP_AIR))
_PHI_PROD = tuple(c / k if k else c for k, c in enumerate(_CP_PROD))


class TemperatureOutOfRange(Exception):
    def __init__(self, T):
        super().__init__(f"temperature {T:.2f} K outside [{T_MIN}, {T_MAX}] K")


def _polyval(coeffs, z):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _check(T):
    if not T_MIN <= T <= T_MAX:
        raise TemperatureOutOfRange(T)


def _wfuel(far):
    return far / (1.0 + far)


def cp(T: float, far: float = 0.0) -> float:
    """Specific heat kJ/(kg K) of air/combustion-product mix."""
    _check(T)
    z = T / 1000.0
    v = _polyval(_CP_AIR, z)
    if far:
        v += _wfuel(far) * _polyval(_CP_PROD, z)
    return v


def _h_raw(T, far):
    z = T / 1000.0
    v = _polyval(_H_AIR, z) * z
    if far:
        v += _wfuel(far) * _polyval(_H_PROD, z) * z
    return v


# the terms of _h_raw(T_REF, far), kept apart so enthalpy() can combine them
# in _h_raw's own order and match it bit for bit
_Z_REF = T_REF / 1000.0
_H_AIR_REF = _polyval(_H_AIR, _Z_REF) * _Z_REF
_H_PROD_REF = _polyval(_H_PROD, _Z_REF)


def enthalpy(T: float, far: float = 0.0) -> float:
    """Enthalpy kJ/kg, zero at 288.15 K for any composition."""
    _check(T)
    ref = _H_AIR_REF
    if far:
        ref += _wfuel(far) * _H_PROD_REF * _Z_REF
    return _h_raw(T, far) - ref


def temperature_from_enthalpy(h: float, far: float = 0.0) -> float:
    """Invert enthalpy(T, far) = h by bounded Newton."""
    t = min(max(T_REF + h / 1.05, T_MIN), T_MAX)
    lo, hi = T_MIN, T_MAX
    for _ in range(60):
        f = enthalpy(t, far) - h
        if abs(f) < 1e-10:
            return t
        if f > 0:
            hi = t
        else:
            lo = t
        t_new = t - f / cp(t, far)
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    raise TemperatureOutOfRange(t)


def phi(T: float, far: float = 0.0) -> float:
    """Entropy function integral cp dT/T, kJ/(kg K); additive constant free."""
    _check(T)
    z = T / 1000.0
    lnz = math.log(z)
    v = _CP_AIR[0] * lnz + _polyval(_PHI_AIR[1:], z) * z
    if far:
        v += _wfuel(far) * (_CP_PROD[0] * lnz + _polyval(_PHI_PROD[1:], z) * z)
    return v


def isentropic_temperature(T_in: float, pressure_ratio: float, far: float = 0.0) -> float:
    """Exit temperature of an isentropic process from T_in across P_out/P_in."""
    target = phi(T_in, far) + R_GAS * math.log(pressure_ratio)
    t = T_in * pressure_ratio ** 0.283
    t = min(max(t, T_MIN), T_MAX)
    lo, hi = T_MIN, T_MAX
    for _ in range(60):
        f = phi(t, far) - target
        if abs(f) < 1e-13:
            return t
        if f > 0:
            hi = t
        else:
            lo = t
        t_new = t - f * t / cp(t, far)
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    raise TemperatureOutOfRange(t)
