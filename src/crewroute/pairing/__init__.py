from .algebra import PairingAlgebra
from .colgen import PairingResult, PairingSession, solve_crew_pairing
from .master import CutRow, MasterProblem
from .network import (
    PairingColumn,
    arc_resources,
    build_pricing_networks,
    decode_pairing,
)

__all__ = [
    "PairingAlgebra",
    "PairingResult",
    "PairingSession",
    "solve_crew_pairing",
    "CutRow",
    "MasterProblem",
    "PairingColumn",
    "arc_resources",
    "build_pricing_networks",
    "decode_pairing",
]
