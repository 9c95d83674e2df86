"""Aircraft maintenance routing and crew pairing over a cyclic week.

The package exports the instance model and ``generate_instance``, and
importing it loads no numpy. The solvers are imported from their modules:
``crewroute.routing``, ``crewroute.pairing``, ``crewroute.integrated`` and
``crewroute.rcsp``.
"""

from .generate import generate_instance
from .instance import (
    Airport,
    Connection,
    ConnectionKind,
    CostWeights,
    FlightLeg,
    FlyingLimitBand,
    Instance,
    InstanceError,
    InstanceFormatError,
    InstanceValidationError,
    RulesConfig,
    build_connections,
    classify_connection,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Airport",
    "Connection",
    "ConnectionKind",
    "CostWeights",
    "FlightLeg",
    "FlyingLimitBand",
    "Instance",
    "InstanceError",
    "InstanceFormatError",
    "InstanceValidationError",
    "RulesConfig",
    "build_connections",
    "classify_connection",
    "dumps_instance",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "save_instance",
    "generate_instance",
    "__version__",
]
