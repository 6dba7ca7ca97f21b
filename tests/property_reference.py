"""Reference forms of the gas-property polynomials, kept as the check on
`apucosim.gasgen.properties`: the generic Horner loop over the coefficient
tuples that the package's straight-line expressions replace."""
import math

from apucosim.gasgen import properties as gas


def _polyval(coeffs, z):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _wfuel(far):
    return far / (1.0 + far)


def reference_cp(T, far=0.0):
    z = T / 1000.0
    v = _polyval(gas._CP_AIR, z)
    if far:
        v += _wfuel(far) * _polyval(gas._CP_PROD, z)
    return v


def reference_h_raw(T, far=0.0):
    z = T / 1000.0
    v = _polyval(gas._H_AIR, z) * z
    if far:
        v += _wfuel(far) * _polyval(gas._H_PROD, z) * z
    return v


def reference_enthalpy(T, far=0.0):
    return reference_h_raw(T, far) - reference_h_raw(gas.T_REF, far)


def reference_phi(T, far=0.0):
    z = T / 1000.0
    lnz = math.log(z)
    v = gas._CP_AIR[0] * lnz + _polyval(gas._PHI_AIR[1:], z) * z
    if far:
        v += _wfuel(far) * (gas._CP_PROD[0] * lnz + _polyval(gas._PHI_PROD[1:], z) * z)
    return v


def reference_temperature_from_enthalpy(h, far=0.0):
    """The bounded Newton with separate enthalpy and cp calls."""
    t = min(max(gas.T_REF + h / 1.05, gas.T_MIN), gas.T_MAX)
    lo, hi = gas.T_MIN, gas.T_MAX
    for _ in range(60):
        f = reference_enthalpy(t, far) - h
        if abs(f) < 1e-10:
            return t
        if f > 0:
            hi = t
        else:
            lo = t
        t_new = t - f / reference_cp(t, far)
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    raise gas.TemperatureOutOfRange(t)


def reference_isentropic_temperature(T_in, pressure_ratio, far=0.0):
    """The bounded Newton on phi with separate phi and cp calls."""
    target = reference_phi(T_in, far) + gas.R_GAS * math.log(pressure_ratio)
    t = min(max(T_in * pressure_ratio ** 0.283, gas.T_MIN), gas.T_MAX)
    lo, hi = gas.T_MIN, gas.T_MAX
    for _ in range(60):
        f = reference_phi(t, far) - target
        if abs(f) < 1e-13:
            return t
        if f > 0:
            hi = t
        else:
            lo = t
        t_new = t - f * t / reference_cp(t, far)
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    raise gas.TemperatureOutOfRange(t)
