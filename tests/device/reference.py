"""Reference device merge path: the oracle :class:`repro.device.Fpga` is
pinned to.

The production device merges a bitstream into the configuration RAM over
the contiguous bit ranges its region owns in each column frame, and finds
changed frames by comparing those frames with the RAM directly.  The
original implementation lives here, unchanged, so the parity tests can
check that production still writes the same frames, charges the same
port time and leaves the same RAM:

* :meth:`ReferenceFpga._region_mask` — a full-device ``uint8`` mask of
  everything a bitstream owns, filled per (column, row) of its region;
* :meth:`ReferenceFpga._apply_frames` — masked read-modify-write of every
  touched frame, diffing each merged frame's digest against the RAM's
  under ``delta``/``auto``;
* :meth:`ReferenceFpga.unload` — the same merge from an all-zero
  full-device image;
* :meth:`ReferenceFpga.scrub` — masked comparison of the RAM against a
  fresh encode of every resident bitstream.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.device import Bitstream, BitstreamError, Fpga
from repro.device.config_ram import digest_bits
from repro.device.timing_model import ConfigTimingBreakdown

__all__ = ["ReferenceFpga"]


class ReferenceFpga(Fpga):
    """:class:`Fpga` with the original full-device-mask merge path."""

    # -- masks ---------------------------------------------------------------
    def _region_mask(self, bs: Bitstream) -> np.ndarray:
        """Bit mask of everything ``bs`` owns (whole region, used or not).

        Owned CLB fields and switch-box fields of the region live entirely
        in the region's own column frames; dedicated bitstreams also own
        their IOB fields in the final frame.
        """
        a = self.arch
        mask = np.zeros((a.n_frames, a.frame_bits), dtype=np.uint8)
        if not bs.relocatable:
            # Dedicated bitstreams target the whole device (incl. edge
            # switch boxes and IOBs): they own every configuration bit.
            mask[:] = 1
            return mask
        r = bs.region
        for x in r.columns():
            for y in range(r.y, r.y2):
                off = self.codec.clb_offset(y)
                mask[x, off : off + a.clb_config_bits] = 1
                off = self.codec.switch_offset_in_clb_frame(y)
                mask[x, off : off + a.switchbox_config_bits] = 1
        for site in bs.iobs:
            off = self.codec.iob_offset(site)
            mask[a.width, off : off + a.iob_config_bits] = 1
        return mask

    # -- load / unload ----------------------------------------------------------
    def _apply_frames(
        self, bitstream: Bitstream, new_bits: np.ndarray, mode: str,
        full_timing: ConfigTimingBreakdown,
    ) -> ConfigTimingBreakdown:
        """Merge ``new_bits`` into the RAM over ``bitstream``'s owned bits.

        ``full`` writes every touched frame and charges ``full_timing``.
        ``delta`` diffs each merged frame against the resident content
        digest and writes/charges only the differing frames (plus the
        per-frame address header).  ``auto`` prices both and falls back to
        the full reload when the delta would cost at least as much —
        ``changed * (frame_bits + delta_addr_bits) >= touched * frame_bits``.
        Either way the post-condition is identical RAM content.
        """
        mask = self._region_mask(bitstream)
        touched = sorted(bitstream.frames_touched(self.arch))
        use_delta = mode != "full" and self.arch.supports_partial
        if not use_delta:
            for fx in touched:
                merged = (self.ram.frames[fx] & ~mask[fx]) | (new_bits[fx] & mask[fx])
                self.ram.write_frame(fx, merged)
            return full_timing
        pending = []
        for fx in touched:
            merged = (self.ram.frames[fx] & ~mask[fx]) | (new_bits[fx] & mask[fx])
            digest = digest_bits(merged)
            if digest != self.ram.frame_digest(fx):
                pending.append((fx, merged, digest))
        timing = self.port.delta_load_time(bitstream, len(pending))
        if mode == "auto" and timing.seconds >= full_timing.seconds:
            for fx in touched:
                merged = (self.ram.frames[fx] & ~mask[fx]) | (new_bits[fx] & mask[fx])
                self.ram.write_frame(fx, merged)
            return full_timing
        for fx, merged, digest in pending:
            self.ram.write_frame(fx, merged, digest=digest)
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
        zeros = np.zeros(
            (self.arch.n_frames, self.arch.frame_bits), dtype=np.uint8
        )
        timing = self._apply_frames(
            bitstream, zeros, mode, self.port.unload_time(bitstream)
        )
        self.port_busy_time += timing.seconds
        self.n_unloads += 1
        if self.telemetry is not None:
            self.telemetry("unload", handle, timing)
        return timing

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
            mask = self._region_mask(bs)
            for fx in sorted(bs.frames_touched(self.arch)):
                got = self.ram.frames[fx] & mask[fx]
                want = expect[fx] & mask[fx]
                if not (got == want).all():
                    corrupted.append(handle)
                    break
        return corrupted
