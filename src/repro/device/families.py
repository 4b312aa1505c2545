"""Architecture parameters and the device family catalog.

:class:`Architecture` captures everything about a symmetrical-array FPGA
that the CAD flow, the configuration codec and the VFPGA manager need:
array geometry, LUT size, routing channel width, I/O pad count, unit delays
and configuration-port characteristics.

The catalog (:data:`FAMILIES`) is sized after the mid-90s Xilinx XC4000
series the paper discusses: the paper's statement that a full serial
configuration takes "no more than 200 ms" (§2) calibrates the default
serial rate, and the pin/gate limits in §1 calibrate the geometry range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict

from .geometry import Rect

__all__ = ["Architecture", "FAMILIES", "get_family"]


@dataclass(frozen=True)
class Architecture:
    """All parameters of one device model.

    Geometry
    --------
    width, height:
        CLB array dimensions.
    k:
        LUT input count per CLB.
    channel_width:
        Wires per routing channel (single-length segments).
    io_per_edge:
        Bonded IOBs per perimeter CLB position; total pins =
        ``io_per_edge * (2*width + 2*height)``.

    Timing (seconds)
    ----------------
    lut_delay, wire_delay, switch_delay, clock_to_q, setup:
        Unit delays used by static timing analysis.

    Configuration port
    ------------------
    serial_rate:
        Full-configuration serial download rate, bits/second.
    supports_partial:
        Whether the device can write individual frames (paper §2 notes only
        some families can; this is experiment E12's ablation knob).
    frame_overhead:
        Fixed addressing/setup cost per partial frame write, seconds.
    delta_addr_bits:
        Extra bits serialised per frame in a delta (frame-diff) write: the
        explicit frame address + write-command header that a sequential
        partial reload amortises away.  This is what makes delta loads
        *lose* once nearly every frame changed — the fallback condition is
        ``changed * (frame_bits + delta_addr_bits) >= touched * frame_bits``.
    readback_rate:
        State readback (observe) and state write (control) rate, bits/s.
    """

    name: str
    width: int
    height: int
    k: int = 4
    channel_width: int = 8
    io_per_edge: int = 2
    #: Long-distance lines per channel (paper §2: "long-distance
    #: interconnection busses are available to reduce the propagation time
    #: in large devices").  Each spans its whole row/column and taps the
    #: same-index track at every switch box.  0 disables them.
    long_per_channel: int = 2
    # -- timing
    lut_delay: float = 2.0e-9
    wire_delay: float = 0.8e-9
    switch_delay: float = 0.5e-9
    #: One hop on a long line (higher RC than a segment, but crosses the
    #: whole device in a single hop).
    long_wire_delay: float = 2.4e-9
    clock_to_q: float = 1.5e-9
    setup: float = 0.5e-9
    # -- configuration port
    serial_rate: float = 1.0e6
    supports_partial: bool = True
    frame_overhead: float = 5.0e-6
    delta_addr_bits: int = 32
    readback_rate: float = 1.0e6

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("array must be at least 2x2")
        if not 2 <= self.k <= 6:
            raise ValueError(f"k={self.k} outside supported range [2, 6]")
        if self.channel_width < 2:
            raise ValueError("channel_width must be >= 2")
        if self.io_per_edge < 1:
            raise ValueError("io_per_edge must be >= 1")
        if not 0 <= self.long_per_channel <= self.channel_width:
            raise ValueError(
                "long_per_channel must be in [0, channel_width] (long line "
                "l taps regular track l at every switch box)"
            )
        if self.delta_addr_bits < 0:
            raise ValueError("delta_addr_bits must be >= 0")

    # -- derived geometry ----------------------------------------------------
    # Fields are frozen, so every derived value below is computed once per
    # instance; ``scaled()``/``replace()`` build fresh instances.
    @cached_property
    def n_clbs(self) -> int:
        return self.width * self.height

    @cached_property
    def n_pins(self) -> int:
        """Physical pin count — the paper's first physical barrier."""
        return self.io_per_edge * (2 * self.width + 2 * self.height)

    @cached_property
    def full_rect(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    #: Equivalent-gate marketing factor (gates per CLB) used only for the
    #: cost axis of experiment E10, calibrated so a 32x32 device lands in
    #: the paper's "up to 250 K gates" era at the top of the range.
    GATES_PER_CLB = 24

    @cached_property
    def equivalent_gates(self) -> int:
        return self.n_clbs * self.GATES_PER_CLB

    # -- configuration bit layout ---------------------------------------------
    @cached_property
    def input_sel_bits(self) -> int:
        """Bits for one CLB input-pin selector: 4*cw candidates + 'open'."""
        return math.ceil(math.log2(4 * self.channel_width + 1))

    @cached_property
    def iob_sel_bits(self) -> int:
        """Bits for one IOB track selector: cw candidates + 'open'."""
        return math.ceil(math.log2(self.channel_width + 1))

    @cached_property
    def clb_config_bits(self) -> int:
        """LUT truth + ff_enable + ff_init + out_registered + input
        selectors + output drive mask."""
        return (
            (1 << self.k)            # LUT truth table
            + 3                      # ff_enable, ff_init, out_registered
            + self.k * self.input_sel_bits
            + 4 * self.channel_width  # output drive mask, one bit per wire
        )

    @cached_property
    def switchbox_config_bits(self) -> int:
        """6 programmable pass switches per track, plus 2 long-line taps
        per long index (H-long↔H-right and V-long↔V-above)."""
        return 6 * self.channel_width + 2 * self.long_per_channel

    @cached_property
    def iob_config_bits(self) -> int:
        """enable + direction + track selector."""
        return 2 + self.iob_sel_bits

    @cached_property
    def n_frames(self) -> int:
        """Frames 0..width-1 hold CLB columns (plus their switchbox
        column); frame ``width`` holds the last switchbox column and all
        IOB configuration."""
        return self.width + 1

    @cached_property
    def clb_column_bits(self) -> int:
        return self.height * self.clb_config_bits

    @cached_property
    def switchbox_column_bits(self) -> int:
        return (self.height + 1) * self.switchbox_config_bits

    @cached_property
    def iob_total_bits(self) -> int:
        return self.n_pins * self.iob_config_bits

    @cached_property
    def frame_bits(self) -> int:
        """All frames share the worst-case length (hardware-style padding)."""
        clb_frame = self.clb_column_bits + self.switchbox_column_bits
        last_frame = self.switchbox_column_bits + self.iob_total_bits
        return max(clb_frame, last_frame)

    @cached_property
    def total_config_bits(self) -> int:
        return self.n_frames * self.frame_bits

    # -- derived timing ------------------------------------------------------------
    @property
    def full_config_time(self) -> float:
        """Serial download of the whole configuration RAM (paper §2)."""
        return self.total_config_bits / self.serial_rate

    def scaled(self, **overrides) -> "Architecture":
        """Copy with some fields replaced (sweep helper)."""
        return replace(self, **overrides)


def _family(name: str, side: int, **kw) -> Architecture:
    return Architecture(name=name, width=side, height=side, **kw)


#: Catalog of square devices spanning the paper's era, smallest to largest.
FAMILIES: Dict[str, Architecture] = {
    a.name: a
    for a in (
        _family("VF4", 4),
        _family("VF6", 6),
        _family("VF8", 8),
        _family("VF10", 10),
        _family("VF12", 12),
        _family("VF16", 16),
        _family("VF20", 20),
        _family("VF24", 24),
        _family("VF32", 32),
    )
}


def get_family(name: str) -> Architecture:
    """Look up a catalog device by name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; available: {sorted(FAMILIES)}"
        ) from None
