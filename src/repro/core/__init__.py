"""The VFPGA manager — the paper's contribution.

Every mechanism of Fornaciari & Piuri's Virtual FPGA is a drop-in
:class:`~repro.osim.syscalls.FpgaService`:

====================  =============================================
paper mechanism        implementation
====================  =============================================
trivial merged config  :class:`MergedResidentService`
dynamic loading (§3)   :class:`DynamicLoadingService`
non-preemptable use    :class:`DynamicLoadingService`, no fabric slice
partitioning (§4)      :class:`FixedPartitionService`,
                       :class:`VariablePartitionService`
overlaying (§2)        :class:`OverlayService`
segmentation (§2)      :class:`SegmentedVfpgaService` } one demand-
pagination (§2)        :class:`PagedVfpgaService`     } loading service
I/O multiplexing (§2)  :class:`PinMultiplexer` (used by all services)
state handling (§3)    :mod:`repro.core.preemption`
====================  =============================================

Use :class:`VirtualFpga` for the high-level API and
:func:`make_service` to instantiate policies by name.
"""

from .base import VfpgaServiceBase
from .bitcache import BitstreamCache, bitstream_digest
from .baselines import MergedResidentService, SoftwareOnlyService, shelf_pack
from .dispatch import (
    AffinityDispatch,
    BoardDispatchPolicy,
    DISPATCH_POLICIES,
    LeastBusyDispatch,
    LeastOccupancyDispatch,
    RoundRobinDispatch,
    make_dispatch,
)
from .dynamic_loading import DynamicLoadingService, FABRIC_SCHEDULERS
from .errors import (
    AdmissionError,
    CapacityError,
    StateAccessError,
    UnknownConfigError,
    VfpgaError,
)
from .iomux import MuxedTransfer, PinMultiplexer
from .metrics import ServiceMetrics
from .multidevice import MultiDeviceService
from .overlay import OverlayService
from .pagination import PagedCircuit, PagedVfpgaService, make_paged_circuit
from .partitioning import (
    ColumnAllocator,
    FixedPartitionService,
    VariablePartitionService,
)
from .placement import (
    BestFitPlacement,
    BottomLeftPlacement,
    ColumnBestFit,
    ColumnFirstFit,
    ColumnWorstFit,
    PLACEMENT_STRATEGIES,
    PlacementRequest,
    PlacementStrategy,
    Proposal,
    SkylinePlacement,
    make_placement,
)
from .policies import (
    ClockReplacement,
    FifoReplacement,
    LruReplacement,
    MruReplacement,
    RandomReplacement,
    ReplacementPolicy,
    access_trace,
    make_replacement,
)
from .preemption import (
    Adaptive,
    PreemptDecision,
    PreemptionPolicy,
    Rollback,
    RunToCompletion,
    SaveRestore,
)
from .rect_alloc import RectAllocator
from .scrubber import Scrubber, UpsetInjector, UpsetRecord
from .registry import ConfigEntry, ConfigRegistry, synthetic_bitstream
from .segmentation import (
    SegmentedCircuit,
    SegmentedVfpgaService,
    make_segmented_circuit,
    segment_netlist,
)
from .vfpga import VirtualFpga, make_preemption_policy, make_service

__all__ = [
    "Adaptive",
    "AdmissionError",
    "AffinityDispatch",
    "BestFitPlacement",
    "BitstreamCache",
    "BoardDispatchPolicy",
    "BottomLeftPlacement",
    "CapacityError",
    "ClockReplacement",
    "ColumnAllocator",
    "ColumnBestFit",
    "ColumnFirstFit",
    "ColumnWorstFit",
    "ConfigEntry",
    "ConfigRegistry",
    "DISPATCH_POLICIES",
    "DynamicLoadingService",
    "FABRIC_SCHEDULERS",
    "FifoReplacement",
    "FixedPartitionService",
    "LeastBusyDispatch",
    "LeastOccupancyDispatch",
    "LruReplacement",
    "MergedResidentService",
    "MruReplacement",
    "MultiDeviceService",
    "MuxedTransfer",
    "OverlayService",
    "PLACEMENT_STRATEGIES",
    "PagedCircuit",
    "PagedVfpgaService",
    "PinMultiplexer",
    "PlacementRequest",
    "PlacementStrategy",
    "PreemptDecision",
    "PreemptionPolicy",
    "Proposal",
    "RandomReplacement",
    "RectAllocator",
    "ReplacementPolicy",
    "Rollback",
    "RoundRobinDispatch",
    "RunToCompletion",
    "SaveRestore",
    "Scrubber",
    "SegmentedCircuit",
    "SegmentedVfpgaService",
    "ServiceMetrics",
    "SkylinePlacement",
    "SoftwareOnlyService",
    "StateAccessError",
    "UnknownConfigError",
    "UpsetInjector",
    "UpsetRecord",
    "VariablePartitionService",
    "VfpgaError",
    "VfpgaServiceBase",
    "VirtualFpga",
    "access_trace",
    "bitstream_digest",
    "make_dispatch",
    "make_paged_circuit",
    "make_placement",
    "make_preemption_policy",
    "make_replacement",
    "make_segmented_circuit",
    "make_service",
    "segment_netlist",
    "shelf_pack",
    "synthetic_bitstream",
]
