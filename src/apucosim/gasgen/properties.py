"""Working-fluid model: cp/enthalpy/entropy of dry air and kerosene-type
combustion products, blended by fuel-air ratio.

cp polynomials are in z = T/1000 over 200..2000 K; the products curve is a
correction per unit fuel mass fraction FAR/(1+FAR).  Enthalpy is referenced
to zero at 288.15 K for every composition, so combustion energy balances can
use the fuel heating value directly.
"""
from __future__ import annotations

import math

from ..errors import NumericalFailure

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


class TemperatureOutOfRange(NumericalFailure):
    def __init__(self, T):
        super().__init__(f"temperature {T:.2f} K outside [{T_MIN}, {T_MAX}] K")


def _straight_line(coeffs):
    """z -> sum c_k z^k as one Horner expression with the coefficients as
    literals. Its operation order is the loop's `acc = acc * z + c` over the
    reversed coefficients, whose first step 0.0 * z + c[-1] is exact, so it
    returns the loop's bits without the loop's per-term overhead."""
    expr = repr(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        expr = f"({expr}) * z + {c!r}"
    return eval(f"lambda z: {expr}")


_cp_air, _cp_prod = _straight_line(_CP_AIR), _straight_line(_CP_PROD)
_h_air, _h_prod = _straight_line(_H_AIR), _straight_line(_H_PROD)
_phi_air, _phi_prod = _straight_line(_PHI_AIR[1:]), _straight_line(_PHI_PROD[1:])


def cp(T: float, far: float = 0.0) -> float:
    """Specific heat kJ/(kg K) of air/combustion-product mix."""
    if not T_MIN <= T <= T_MAX:
        raise TemperatureOutOfRange(T)
    z = T / 1000.0
    v = _cp_air(z)
    if far:
        v += far / (1.0 + far) * _cp_prod(z)
    return v


def _h_raw(T, far):
    z = T / 1000.0
    v = _h_air(z) * z
    if far:
        v += far / (1.0 + far) * _h_prod(z) * z
    return v


# the terms of _h_raw(T_REF, far), kept apart so enthalpy() can combine them
# in _h_raw's own order and match it bit for bit
_Z_REF = T_REF / 1000.0
_H_AIR_REF = _h_air(_Z_REF) * _Z_REF
_H_PROD_REF = _h_prod(_Z_REF)


def _h_ref(far):
    """_h_raw(T_REF, far), the offset that zeroes enthalpy at T_REF."""
    ref = _H_AIR_REF
    if far:
        ref += far / (1.0 + far) * _H_PROD_REF * _Z_REF
    return ref


def enthalpy(T: float, far: float = 0.0) -> float:
    """Enthalpy kJ/kg, zero at 288.15 K for any composition."""
    if not T_MIN <= T <= T_MAX:
        raise TemperatureOutOfRange(T)
    return _h_raw(T, far) - _h_ref(far)


def products_enthalpy(T: float) -> float:
    """The products' part of enthalpy, kJ/kg per unit FAR/(1+FAR):
    enthalpy(T, far) = enthalpy(T) + far/(1+far) products_enthalpy(T)."""
    if not T_MIN <= T <= T_MAX:
        raise TemperatureOutOfRange(T)
    z = T / 1000.0
    return _h_prod(z) * z - _H_PROD_REF * _Z_REF


def temperature_from_enthalpy(h: float, far: float = 0.0,
                              guess: float | None = None) -> float:
    """Invert enthalpy(T, far) = h by bounded Newton.

    Starts from `guess` (a nearby earlier result; clamped to the table
    range) or, without one, from T_REF + h/1.05. Each iteration evaluates h
    and its slope cp at one z = T/1000, with the same expressions (and
    bits) as enthalpy() and cp().
    """
    t = T_REF + h / 1.05 if guess is None else guess
    t = min(max(t, T_MIN), T_MAX)
    w = far / (1.0 + far)
    ref = _h_ref(far)
    lo, hi = T_MIN, T_MAX
    for _ in range(60):
        if not T_MIN <= t <= T_MAX:
            raise TemperatureOutOfRange(t)
        z = t / 1000.0
        if far:
            f = _h_air(z) * z + w * _h_prod(z) * z - ref - h
        else:
            f = _h_air(z) * z - ref - h
        if abs(f) < 1e-10:
            return t
        if f > 0:
            hi = t
        else:
            lo = t
        slope = _cp_air(z) + w * _cp_prod(z) if far else _cp_air(z)
        t_new = t - f / slope
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    raise TemperatureOutOfRange(t)


def phi(T: float, far: float = 0.0) -> float:
    """Entropy function integral cp dT/T, kJ/(kg K); additive constant free."""
    if not T_MIN <= T <= T_MAX:
        raise TemperatureOutOfRange(T)
    z = T / 1000.0
    lnz = math.log(z)
    v = _CP_AIR[0] * lnz + _phi_air(z) * z
    if far:
        v += far / (1.0 + far) * (_CP_PROD[0] * lnz + _phi_prod(z) * z)
    return v


def isentropic_temperature(T_in: float, pressure_ratio: float, far: float = 0.0,
                           guess: float | None = None) -> float:
    """Exit temperature of an isentropic process from T_in across P_out/P_in.

    Newton on phi(T) = phi(T_in) + R ln(pressure_ratio) from `guess` (as in
    temperature_from_enthalpy) or T_in pressure_ratio^0.283, each iteration
    evaluating phi and its slope cp/T at one z = T/1000, with the same
    expressions (and bits) as phi() and cp().
    """
    target = phi(T_in, far) + R_GAS * math.log(pressure_ratio)
    t = T_in * pressure_ratio ** 0.283 if guess is None else guess
    t = min(max(t, T_MIN), T_MAX)
    w = far / (1.0 + far)
    a0, p0 = _CP_AIR[0], _CP_PROD[0]
    lo, hi = T_MIN, T_MAX
    for _ in range(60):
        if not T_MIN <= t <= T_MAX:
            raise TemperatureOutOfRange(t)
        z = t / 1000.0
        lnz = math.log(z)
        if far:
            f = a0 * lnz + _phi_air(z) * z + w * (p0 * lnz + _phi_prod(z) * z) - target
        else:
            f = a0 * lnz + _phi_air(z) * z - target
        if abs(f) < 1e-13:
            return t
        if f > 0:
            hi = t
        else:
            lo = t
        slope = _cp_air(z) + w * _cp_prod(z) if far else _cp_air(z)
        t_new = t - f * t / slope
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    raise TemperatureOutOfRange(t)
