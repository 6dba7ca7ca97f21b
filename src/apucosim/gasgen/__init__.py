from .cycle import (
    AltitudeOutOfRange,
    CycleSolution,
    GasGenInput,
    GasGenParams,
    GasState,
    HEALTHY,
    HealthParams,
    T4OutOfRange,
    ambient_conditions,
    burner_calc,
    compressor_calc,
    exhaust_calc,
    off_design_solve,
    turbine_calc,
)
from .design import CalibrationFailed, GasGenDesignSpec, design_point_size
from .maps import BetaOutOfRange, CompressorMap, PressureRatioBelowUnity, TurbineMap
from .properties import TemperatureOutOfRange, cp, enthalpy, phi, temperature_from_enthalpy
from .engine import (
    GasGenState,
    MACRO_DT,
    NoSteadyState,
    OUTPUT_CHANNELS,
    OUTPUT_NAMES,
    SpeedOutOfRange,
    init,
    output,
    outputs_from_solution,
    state_update,
    trim_fuel,
)
