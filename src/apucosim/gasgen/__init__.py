from .cycle import (
    AltitudeOutOfRange,
    CycleSolution,
    GasGenInput,
    GasGenParams,
    GasState,
    HEALTHY,
    HealthParams,
    ambient_conditions,
    burner_calc,
    compressor_calc,
    exhaust_calc,
    off_design_solve,
    turbine_calc,
)
from .design import GasGenDesignSpec, design_point_size
from .maps import CompressorMap, TurbineMap
from .properties import cp, enthalpy, phi, temperature_from_enthalpy
from .engine import (
    GasGenState,
    MACRO_DT,
    OUTPUT_CHANNELS,
    OUTPUT_NAMES,
    init,
    output,
    outputs_from_solution,
    state_update,
    trim_fuel,
)
