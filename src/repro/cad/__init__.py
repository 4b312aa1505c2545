"""CAD flow: technology mapping → packing → placement → routing → timing
→ bitstream generation → functional verification.

The entry point is :func:`repro.cad.compile_netlist`; everything else is
exposed for tests, ablation benchmarks (E13) and curious users.
"""

from .cache import CompileCache, netlist_digest
from .flow import (
    CompileError,
    CompileResult,
    PinCapacityError,
    compile_netlist,
    minimal_region,
    virtual_pin_capacity,
)
from .instrument import (
    PHASES,
    CadAnnealStep,
    CadCacheLookup,
    CadInstrumentation,
    CadPhaseEnd,
    CadPhaseStart,
    CadRouteIteration,
    CompileProfile,
)
from .pack import Ble, PackedDesign, PackError, nets_of, pack
from .place import Placement, PlacementError, hpwl, place
from .route import NetSpec, RoutedNet, Router, RoutingError
from .rrg import RoutingGraph
from .techmap import TechmapError, absorb_fanin, check_mapped, gate_truth, technology_map
from .timing import TimingError, TimingReport, analyze_timing
from .verify import VerificationError, verify_bitstream

__all__ = [
    "PHASES",
    "Ble",
    "CadAnnealStep",
    "CadCacheLookup",
    "CadInstrumentation",
    "CadPhaseEnd",
    "CadPhaseStart",
    "CadRouteIteration",
    "CompileCache",
    "CompileError",
    "CompileProfile",
    "CompileResult",
    "NetSpec",
    "PackError",
    "PackedDesign",
    "PinCapacityError",
    "Placement",
    "PlacementError",
    "RoutedNet",
    "Router",
    "RoutingError",
    "RoutingGraph",
    "TechmapError",
    "TimingError",
    "TimingReport",
    "VerificationError",
    "absorb_fanin",
    "analyze_timing",
    "check_mapped",
    "compile_netlist",
    "gate_truth",
    "hpwl",
    "minimal_region",
    "netlist_digest",
    "nets_of",
    "pack",
    "place",
    "technology_map",
    "verify_bitstream",
    "virtual_pin_capacity",
]
