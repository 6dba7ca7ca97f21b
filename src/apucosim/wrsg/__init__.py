from .dynamics import (
    ElectricalSystem,
    field_voltage_for_terminal,
    mech_power,
    seed_fault_flux,
    steady_state,
)
from .loads import OPEN_CIRCUIT_R, LoadModel
from .machine import (
    FaultParams,
    HEALTHY_FAULT,
    OPEN_BRANCH_KRF,
    InductanceModel,
    SingularSystem,
    WrsgParams,
    WrsgState,
    build_L,
    currents_fast,
)
from .measurement import NoiseConfig, measure, rms_window
