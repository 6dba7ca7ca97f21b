from .cycle import (
    AltitudeOutOfRange,
    CycleSolution,
    GasGenInput,
    GasGenParams,
    GasState,
    HEALTHY,
    HealthParams,
    ambient_conditions,
    off_design_solve,
)
from .design import GasGenDesignSpec, design_point_size
from .maps import CompressorMap, TurbineMap
from .properties import cp, enthalpy, phi, temperature_from_enthalpy
from .engine import (
    GasGenState,
    MACRO_DT,
    OUTPUT_CHANNELS,
    output,
    outputs_from_solution,
    state_update,
    trim_fuel,
)
