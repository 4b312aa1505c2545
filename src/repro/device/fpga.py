"""The physical FPGA device: configuration RAM + port + residency.

:class:`Fpga` is the object the VFPGA manager multiplexes.  It is purely
*physical*: it loads/unloads bitstreams by read-modify-writing their frames,
enforces non-overlap of resident regions, counts port traffic, and can
instantiate a :class:`~repro.device.funcsim.DeviceFunctionalSimulator` from
its (decoded) RAM content at any moment.  All *policy* — who gets the
device when — lives in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .bitstream import Bitstream, BitstreamError
from .config_ram import ConfigRam, FrameCodec
from .families import Architecture
from .funcsim import DeviceFunctionalSimulator, Node
from .geometry import Coord, Rect
from .timing_model import ConfigPort, ConfigTimingBreakdown

__all__ = ["Fpga", "DeviceView"]


class Fpga:
    """One physical device instance.

    Attributes
    ----------
    arch:
        The immutable architecture parameters.
    ram:
        The frame-organised configuration memory.
    resident:
        Currently loaded bitstreams, keyed by an instance handle chosen by
        the caller (the VFPGA manager uses task/config identifiers).
    """

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self.ram = ConfigRam(arch)
        self.codec = FrameCodec(arch)
        self.port = ConfigPort(arch)
        self.resident: Dict[str, Bitstream] = {}
        #: Cumulative seconds spent on the configuration port.
        self.port_busy_time = 0.0
        self.n_loads = 0
        self.n_unloads = 0
        #: Optional hook ``fn(op, handle, timing)`` called on every port
        #: operation — the telemetry layer's device-level tap (the service
        #: that owns this device installs it at attach time).
        self.telemetry = None

    # -- owned bits ---------------------------------------------------------------
    def _owned(
        self, bs: Bitstream
    ) -> Tuple[List[int], Union[slice, List[int]], List[Tuple[int, int]]]:
        """Where ``bs`` lives in the RAM: ``(frames, rows, ranges)``.

        ``frames`` lists the frames it writes, in order; ``rows`` indexes
        those frames in a frame array (a slice when they are contiguous,
        as a region's columns always are); ``ranges`` are the bit ranges
        it owns in each.  A relocatable region owns two contiguous runs of
        every one of its column frames: the CLB fields and the switch-box
        fields of rows ``y .. y2-1``.  Dedicated bitstreams target the
        whole device (incl. edge switch boxes and IOBs): they own their
        touched frames whole.
        """
        frames = sorted(bs.frames_touched(self.arch))
        first, end = frames[0], frames[-1] + 1
        rows = slice(first, end) if end - first == len(frames) else frames
        if not bs.relocatable:
            return frames, rows, [(0, self.arch.frame_bits)]
        y, y2, c = bs.region.y, bs.region.y2, self.codec
        return frames, rows, [
            (c.clb_offset(y), c.clb_offset(y2)),
            (c.switch_offset_in_clb_frame(y), c.switch_offset_in_clb_frame(y2)),
        ]

    # -- load / unload ----------------------------------------------------------
    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in ("full", "delta", "auto"):
            raise ValueError(
                f"load mode must be 'full', 'delta' or 'auto', got {mode!r}"
            )

    def _apply_frames(
        self, bitstream: Bitstream, new_bits: Optional[np.ndarray], mode: str,
        full_timing: ConfigTimingBreakdown,
    ) -> ConfigTimingBreakdown:
        """Merge ``new_bits`` (``None``: all zero) into the RAM over
        ``bitstream``'s owned bit ranges.

        ``full`` writes every touched frame and charges ``full_timing``.
        ``delta`` compares the merged frames with the resident ones and
        writes/charges only the differing frames (plus the per-frame
        address header).  ``auto`` prices both and falls back to the full
        reload when the delta would cost at least as much —
        ``changed * (frame_bits + delta_addr_bits) >= touched * frame_bits``.
        Either way the post-condition is identical RAM content.
        """
        frames, rows, ranges = self._owned(bitstream)
        merged = self.ram.frames[rows].copy()
        for lo, hi in ranges:
            merged[:, lo:hi] = 0 if new_bits is None else new_bits[rows, lo:hi]
        written: Iterable[int] = range(len(frames))
        timing = full_timing
        if mode != "full" and self.arch.supports_partial:
            changed = (merged != self.ram.frames[rows]).any(axis=1).nonzero()[0]
            delta = self.port.delta_load_time(bitstream, len(changed))
            if mode == "delta" or delta.seconds < full_timing.seconds:
                written, timing = changed, delta
        for i in written:
            self.ram.write_frame(frames[i], merged[i])
        return timing

    def load(
        self, handle: str, bitstream: Bitstream, mode: str = "full",
        image: Optional[np.ndarray] = None,
    ) -> ConfigTimingBreakdown:
        """Make ``bitstream`` resident under ``handle``.

        Overlapping an already-resident region is a physical-sanity error:
        the manager must unload the previous occupant first.

        ``mode`` selects the reconfiguration engine: ``full`` writes every
        touched frame, ``delta`` writes only frames whose content differs
        from the resident bits, ``auto`` prices both and picks the cheaper.
        ``image`` optionally supplies the pre-encoded frame array (from the
        content-addressed bitstream cache) so the encode path is skipped.
        """
        self._check_mode(mode)
        bitstream.validate(self.arch)
        if handle in self.resident:
            raise BitstreamError(f"handle {handle!r} already resident")
        for other_handle, other in self.resident.items():
            if other.region.overlaps(bitstream.region):
                raise BitstreamError(
                    f"region {bitstream.region} overlaps resident "
                    f"{other_handle!r} at {other.region}"
                )
        if image is not None:
            new_bits = image
        else:
            new_bits = self.codec.build_frames(
                bitstream.clbs, bitstream.switches, bitstream.iobs
            )
        timing = self._apply_frames(
            bitstream, new_bits, mode, self.port.load_time(bitstream)
        )
        self.resident[handle] = bitstream
        self.port_busy_time += timing.seconds
        self.n_loads += 1
        if self.telemetry is not None:
            self.telemetry("load", handle, timing)
        return timing

    def unload(self, handle: str, mode: str = "full") -> ConfigTimingBreakdown:
        """Clear ``handle``'s owned bits and forget it.

        Under ``delta``/``auto`` only the frames whose owned bits are
        actually non-zero need a write (clearing an already-clear frame is
        a no-op the frame-diff detects for free).
        """
        self._check_mode(mode)
        try:
            bitstream = self.resident.pop(handle)
        except KeyError:
            raise BitstreamError(f"handle {handle!r} is not resident") from None
        timing = self._apply_frames(
            bitstream, None, mode, self.port.unload_time(bitstream)
        )
        self.port_busy_time += timing.seconds
        self.n_unloads += 1
        if self.telemetry is not None:
            self.telemetry("unload", handle, timing)
        return timing

    def wipe(self) -> None:
        """Forget all residents and zero the RAM *without* port accounting.

        Used when a full-serial download is about to overwrite the whole
        configuration anyway: the overwrite is charged once by the caller,
        and the previous residents simply cease to exist.
        """
        self.ram.clear()
        self.resident.clear()

    def clear(self) -> ConfigTimingBreakdown:
        """Full wipe (the power-up / reboot path)."""
        self.ram.clear()
        self.resident.clear()
        timing = self.port.full_config()
        self.port_busy_time += timing.seconds
        if self.telemetry is not None:
            self.telemetry("clear", "", timing)
        return timing

    # -- inspection ----------------------------------------------------------------
    def free_area(self) -> int:
        """CLBs not covered by any resident region."""
        return self.arch.n_clbs - sum(
            b.region.area for b in self.resident.values()
        )

    def region_is_free(self, region: Rect) -> bool:
        return all(
            not b.region.overlaps(region) for b in self.resident.values()
        )

    def find_handle_at(self, coord: Coord) -> Optional[str]:
        for handle, b in self.resident.items():
            if b.region.contains(coord):
                return handle
        return None

    # -- integrity ---------------------------------------------------------------
    def scrub(self) -> List[str]:
        """Compare the RAM against every resident bitstream's expected
        bits; returns the handles whose owned bits diverge.

        This is the paper's §5 "periodic system testing and diagnosis"
        primitive: a scrubber task can call it to detect configuration
        upsets (and reload the offenders).  Reading the frames costs
        readback time — the caller charges it via
        ``port.state_save_time``-style accounting if simulating.
        """
        corrupted: List[str] = []
        for handle, bs in self.resident.items():
            expect = self.codec.build_frames(bs.clbs, bs.switches, bs.iobs)
            _frames, rows, ranges = self._owned(bs)
            if any(
                not np.array_equal(self.ram.frames[rows, lo:hi], expect[rows, lo:hi])
                for lo, hi in ranges
            ):
                corrupted.append(handle)
        return corrupted

    def scrub_time(self) -> float:
        """Seconds to read back every resident frame once."""
        frames = set()
        for bs in self.resident.values():
            frames |= bs.frames_touched(self.arch)
        a = self.arch
        return len(frames) * (a.frame_overhead + a.frame_bits / a.readback_rate)

    # -- simulation ----------------------------------------------------------------
    def functional_simulator(
        self, external_drivers: List[Node] = ()
    ) -> DeviceFunctionalSimulator:
        """Decode the RAM and build the whole-array simulator.

        ``external_drivers`` lists virtual-pin wires / input pads that will
        be driven from outside during simulation.
        """
        clbs, switches, iobs = self.codec.decode_frames(self.ram.frames)
        return DeviceFunctionalSimulator(
            self.arch, clbs, switches, iobs, external_drivers
        )

    def view(self, handle: str) -> "DeviceView":
        """Port-name-level simulation view of one resident circuit."""
        return DeviceView(self, handle)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Fpga {self.arch.name}: {len(self.resident)} resident, "
            f"{self.free_area()}/{self.arch.n_clbs} CLBs free>"
        )


class DeviceView:
    """Drive and observe one resident circuit by its port names.

    The view simulates the *entire* configured device (one clock domain —
    physically honest), but exposes only the named circuit's primary ports
    and state bits.  Other resident circuits' external inputs are held at 0.
    """

    def __init__(self, fpga: Fpga, handle: str) -> None:
        if handle not in fpga.resident:
            raise BitstreamError(f"handle {handle!r} is not resident")
        self.fpga = fpga
        self.handle = handle
        self.bitstream = fpga.resident[handle]
        drivers: List[Node] = []
        self._in_nodes: Dict[str, Node] = {}
        self._out_nodes: Dict[str, Node] = {}
        bs = self.bitstream
        if bs.relocatable:
            self._in_nodes = dict(bs.virtual_inputs)
            self._out_nodes = dict(bs.virtual_outputs)
        else:
            self._in_nodes = dict(bs.pad_inputs)
            self._out_nodes = dict(bs.pad_outputs)
        drivers.extend(self._in_nodes.values())
        # Other resident circuits' inputs must also be declared as external
        # drivers (held at 0) or their nets would be reported driverless.
        for other_handle, other in fpga.resident.items():
            if other_handle == handle:
                continue
            src = other.virtual_inputs if other.relocatable else other.pad_inputs
            drivers.extend(src.values())
        self.sim = fpga.functional_simulator(external_drivers=drivers)
        self._background = {
            node: 0
            for node in drivers
            if node not in self._in_nodes.values()
        }

    # -- port-level API mirroring repro.netlist.LogicSimulator ----------------
    def _stimulus(self, inputs) -> Dict[Node, int]:
        stim: Dict[Node, int] = dict(self._background)
        for port, node in self._in_nodes.items():
            try:
                stim[node] = inputs[port] & 1
            except KeyError:
                raise KeyError(f"missing stimulus for input {port!r}") from None
        return stim

    def _outputs(self, net_values) -> Dict[str, int]:
        return {
            port: self.sim.observe(node, net_values)
            for port, node in self._out_nodes.items()
        }

    def evaluate(self, inputs) -> Dict[str, int]:
        return self._outputs(self.sim.evaluate(self._stimulus(inputs)))

    def step(self, inputs) -> Dict[str, int]:
        return self._outputs(self.sim.step(self._stimulus(inputs)))

    def read_state(self) -> Dict[str, int]:
        """Named snapshot of this circuit's flip-flops (observability)."""
        raw = self.sim.read_state()
        return {name: raw[coord] for name, coord in self.bitstream.state_bits.items()}

    def write_state(self, state) -> None:
        """Restore a named snapshot (controllability)."""
        self.sim.write_state(
            {self.bitstream.state_bits[name]: v for name, v in state.items()}
        )

    def reset(self) -> None:
        self.sim.reset()
