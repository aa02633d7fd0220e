"""Joint power-allocation and sub-array-activation optimization for
harvested-power efficiency in modular XL-MIMO wireless power transfer."""

from .baselines import MethodResult, ea_fa, normalize, pa_es, pa_fa, pa_sa
from .geometry import (
    ArrayGeometry,
    ChannelSet,
    UserPosition,
    build_channel_set,
    channel,
    fraunhofer_distance,
    near_field_boundary,
    radiation_pattern,
)
from .pa import PAConfig, PATrace, SolverFault, dr_solve, pa_solve
from .power import (
    AllocationState,
    PowerConfig,
    consumed_power,
    harvested_power,
    hpe,
    power_map,
)
from .sa import SAConfig, SolveReport, activation_update, joint_solve, parameterize, surrogate
from .scenario import ClusterSpec, ConfigError, ScenarioConfig, load_scenario

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry", "UserPosition", "ChannelSet",
    "fraunhofer_distance", "near_field_boundary", "radiation_pattern",
    "channel", "build_channel_set",
    "PowerConfig", "AllocationState", "harvested_power", "consumed_power",
    "hpe", "power_map",
    "PAConfig", "PATrace", "SolverFault", "dr_solve", "pa_solve",
    "SAConfig", "SolveReport", "surrogate", "activation_update",
    "parameterize", "joint_solve",
    "MethodResult", "ea_fa", "pa_fa", "pa_sa", "pa_es", "normalize",
    "ScenarioConfig", "ClusterSpec", "ConfigError", "load_scenario",
    "__version__",
]
