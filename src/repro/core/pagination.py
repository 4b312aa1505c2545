"""Pagination — the paper's fixed-size demand loading (§2).

"Pagination partitions the function to be downloaded into smaller portions
of fixed size."  A *paged circuit* is larger than the physical device (or
than the share a task is given): its configuration is cut into pages, the
device into equal page *frames*, and pages are downloaded on demand with a
replacement policy choosing victims — virtual memory verbatim, with frame
writes instead of disk I/O.

Paging is segmentation over a frame table: the demand-loading service of
:mod:`repro.core.segmentation`, placing pages in the first empty frame.

One FPGA operation on a paged circuit is a sequence of *page accesses*
(``op.cycles`` accesses; each access runs ``cycles_per_access`` clock
cycles on the touched page).  The access pattern comes from
:func:`repro.core.policies.access_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Union

from .errors import CapacityError
from ..telemetry import PageFault
from .placement import Anchor, Proposal
from .policies import ReplacementPolicy
from .registry import ConfigRegistry
from .segmentation import _DemandLoadingService

__all__ = ["PagedCircuit", "PagedVfpgaService", "make_paged_circuit"]


@dataclass(frozen=True)
class PagedCircuit:
    """A virtual circuit bigger than its physical allotment.

    Attributes
    ----------
    name:
        The name tasks use in :class:`~repro.osim.task.FpgaOp`.
    page_names:
        Registry entries, one per page, all with the same footprint.
    pattern / working_set / seed:
        Access-trace model (see :func:`repro.core.policies.access_trace`).
    """

    name: str
    page_names: tuple
    pattern: str = "looping"
    working_set: Optional[int] = None
    seed: int = 0

    @property
    def units(self) -> tuple:
        return self.page_names


def make_paged_circuit(
    registry: ConfigRegistry,
    name: str,
    n_pages: int,
    page_width: int,
    page_height: Optional[int] = None,
    state_bits_per_page: int = 0,
    critical_path: float = 20e-9,
    pattern: str = "looping",
    working_set: Optional[int] = None,
    seed: int = 0,
) -> PagedCircuit:
    """Register ``n_pages`` synthetic pages and describe the circuit."""
    page_height = registry.arch.height if page_height is None else page_height
    names = []
    for i in range(n_pages):
        entry = registry.register_synthetic(
            f"{name}.p{i}", page_width, page_height,
            n_state_bits=state_bits_per_page, critical_path=critical_path,
        )
        names.append(entry.name)
    return PagedCircuit(
        name=name, page_names=tuple(names), pattern=pattern,
        working_set=working_set, seed=seed,
    )


class _FrameTable:
    """``n_frames`` page frames of ``frame_width`` columns behind the
    column allocator's protocol: ``allocate`` claims the first empty
    frame whatever the page's width (no page is wider than its frame)."""

    #: The strategy ``Placement`` events name.
    placement = SimpleNamespace(name="fixed-frame")
    #: Frames never split: the waste is internal, never external.
    fragmentation = 0.0

    def __init__(self, n_frames: int, frame_width: int) -> None:
        self.frame_width = frame_width
        self.empty = [True] * n_frames
        self.last_proposal: Optional[Proposal] = None

    def allocate(self, w: int, h: int) -> Optional[Anchor]:
        empty = [i for i, e in enumerate(self.empty) if e]
        if not empty:
            return None
        self.empty[empty[0]] = False
        anchor = (empty[0] * self.frame_width, 0)
        self.last_proposal = Proposal(anchor, candidates=len(empty))
        return anchor

    def release(self, anchor: Anchor, w: int, h: int) -> None:
        self.empty[anchor[0] // self.frame_width] = True


class PagedVfpgaService(_DemandLoadingService):
    """Fixed page frames + demand paging.

    Parameters
    ----------
    registry:
        OS tables holding the page entries.
    circuits:
        The paged circuits tasks may invoke.
    frame_width:
        Columns per page frame; the device provides
        ``device_width // frame_width`` frames.
    replacement:
        Policy instance or name ("fifo", "lru", "mru", "clock", "random").
    replacement_seed:
        Seed for stochastic replacement policies (reproducible sweeps).
    cycles_per_access:
        Clock cycles of useful work per page access.
    """

    fault_event = PageFault

    def __init__(
        self,
        registry: ConfigRegistry,
        circuits: List[PagedCircuit],
        frame_width: int,
        replacement: Union[str, ReplacementPolicy] = "lru",
        replacement_seed: int = 0,
        cycles_per_access: int = 256,
        **kw,
    ) -> None:
        super().__init__(registry, circuits, replacement, replacement_seed,
                         cycles_per_access, **kw)
        arch = self.fpga.arch
        if frame_width < 1 or frame_width > arch.width:
            raise ValueError(f"frame_width {frame_width} out of range")
        for circ in circuits:
            for page in circ.page_names:
                r = registry.get(page).bitstream.region
                if r.w > frame_width:
                    raise CapacityError(
                        f"page {page!r} ({r.w}x{r.h}) exceeds the frame "
                        f"({frame_width}x{arch.height})"
                    )
        self.frame_width = frame_width
        self.n_frames = arch.width // frame_width
        self.allocator = _FrameTable(self.n_frames, frame_width)
