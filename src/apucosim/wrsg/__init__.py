from .dynamics import (
    ElectricalSystem,
    field_voltage_for_terminal,
    machine_derivatives,
    mech_power,
    seed_fault_flux,
    steady_state,
)
from .loads import OPEN_CIRCUIT_R, LoadModel
from .machine import (
    FaultParams,
    HEALTHY_FAULT,
    OPEN_BRANCH_KRF,
    STATE_NAMES,
    InductanceModel,
    SingularSystem,
    WrsgParams,
    WrsgState,
    build_L,
    currents_fast,
    currents_from_flux,
)
from .measurement import NoiseConfig, measure, rms_window
from .park import inverse_park, inverse_park_matrix, park, park_column_a, park_matrix
