"""Frame-organised configuration RAM and its bit-level codec.

The configuration memory is a 2-D bit array: ``n_frames`` frames of
``frame_bits`` bits each (all frames padded to the worst-case length, as in
real devices).  Frame *x* for ``x < width`` holds CLB column *x* plus
switch-box column *x*; the final frame holds switch-box column ``width``
and every IOB's configuration.

The codec is *bijective*: :class:`FrameCodec` encodes structured tile
configurations into bits and decodes bits back into structures.  The
functional device simulator works exclusively from decoded bits, so a
bitstream is only "correct" if its raw bits are — there is no side channel
from the CAD flow into device simulation.

Field layouts (all little-endian within a field):

* CLB: ``lut_truth[2^k] | ff_enable | ff_init | out_registered |
  input_sel[k * input_sel_bits] | out_drives[4*channel_width]``
* switch box: bit ``t*6 + s`` enables switch ``s`` (see
  :data:`repro.device.interconnect.SWITCH_PAIRS`) on track ``t``; after the
  ``6*channel_width`` regular bits, two bits per long index ``l`` enable
  the long-line taps: key ``(l, 6)`` = H-long↔H-right, ``(l, 7)`` =
  V-long↔V-above
* IOB: ``enable | direction | track_sel[iob_sel_bits]``
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .clb import ClbConfig
from .families import Architecture
from .geometry import Coord
from .interconnect import IobSite, iob_sites
from .iob import IobConfig, IobDirection

__all__ = ["ConfigRam", "FrameCodec", "SwitchKey", "digest_bits"]

#: An enabled switch: (track, pair-index into SWITCH_PAIRS).
SwitchKey = Tuple[int, int]


def _int_to_bits(value: int, n: int) -> np.ndarray:
    """Little-endian bit expansion via ``np.unpackbits`` (no Python loop)."""
    if value < 0 or (n < value.bit_length()):
        raise ValueError(f"value {value} does not fit in {n} bits")
    raw = value.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), bitorder="little"
    )[:n]


def _bits_to_int(bits: np.ndarray) -> int:
    """Inverse of :func:`_int_to_bits` via ``np.packbits``."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def digest_bits(bits: np.ndarray) -> bytes:
    """Content digest of one frame row (packed bits, blake2b-128).

    The shared hashing primitive behind :meth:`ConfigRam.frame_digest`
    and the content-addressed bitstream cache (:mod:`repro.core.bitcache`).
    """
    packed = np.packbits(np.ascontiguousarray(bits, dtype=np.uint8))
    return hashlib.blake2b(packed.tobytes(), digest_size=16).digest()


class ConfigRam:
    """The device's static configuration memory.

    Tracks write statistics so the timing model can charge exactly what was
    touched, and a lazy per-frame content digest (:meth:`frame_digest`)
    so callers can price a reload against the resident bits by hash
    (e.g. the services' ``switch_reload_cost``).  All mutation must go
    through :meth:`write_frame`, :meth:`flip_bit` or :meth:`clear` so the
    digests stay coherent.
    """

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self.frames = np.zeros((arch.n_frames, arch.frame_bits), dtype=np.uint8)
        self.frame_writes = 0
        self.bits_written = 0
        #: Lazily computed per-frame content digests (``None`` = stale).
        self._digests: List[Optional[bytes]] = [None] * arch.n_frames
        #: Optional hook ``fn(frame_index)`` invoked after every frame
        #: write (telemetry tap for write-traffic studies; ``None`` = off).
        self.on_write = None

    def write_frame(
        self, index: int, bits: np.ndarray,
        digest: Optional[bytes] = None,
    ) -> None:
        """Overwrite frame ``index``.  Callers that already hashed ``bits``
        may pass ``digest`` to seed the digest cache."""
        if not 0 <= index < self.arch.n_frames:
            raise IndexError(f"frame {index} out of range")
        if bits.shape != (self.arch.frame_bits,):
            raise ValueError(
                f"frame bits shape {bits.shape} != ({self.arch.frame_bits},)"
            )
        self.frames[index] = bits
        self._digests[index] = digest
        self.frame_writes += 1
        self.bits_written += self.arch.frame_bits
        if self.on_write is not None:
            self.on_write(index)

    def read_frame(self, index: int) -> np.ndarray:
        if not 0 <= index < self.arch.n_frames:
            raise IndexError(f"frame {index} out of range")
        return self.frames[index].copy()

    def frame_digest(self, index: int) -> bytes:
        """Content digest of frame ``index`` (computed lazily, cached
        until the frame is next written)."""
        if not 0 <= index < self.arch.n_frames:
            raise IndexError(f"frame {index} out of range")
        d = self._digests[index]
        if d is None:
            d = digest_bits(self.frames[index])
            self._digests[index] = d
        return d

    def flip_bit(self, frame: int, bit: int) -> None:
        """Invert one configuration bit in place (upset-injection hook).

        Unlike poking ``frames`` directly, this keeps the digest cache
        coherent — essential or a later delta load would diff against a
        stale hash and skip a genuinely different frame.
        """
        if not 0 <= frame < self.arch.n_frames:
            raise IndexError(f"frame {frame} out of range")
        self.frames[frame, bit] ^= 1
        self._digests[frame] = None

    def clear(self) -> None:
        self.frames[:] = 0
        self._digests = [None] * self.arch.n_frames


class FrameCodec:
    """Encode/decode structured configurations ↔ frame bits."""

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self._iob_order: List[IobSite] = iob_sites(arch)
        self._iob_index = {site: i for i, site in enumerate(self._iob_order)}

    # -- field encoders ------------------------------------------------------
    def encode_clb(self, cfg: ClbConfig) -> np.ndarray:
        arch = self.arch
        cfg.validate(arch)
        bits = np.zeros(arch.clb_config_bits, dtype=np.uint8)
        pos = 1 << arch.k
        bits[:pos] = _int_to_bits(cfg.lut_truth, pos)
        bits[pos] = int(cfg.ff_enable)
        bits[pos + 1] = cfg.ff_init
        bits[pos + 2] = int(cfg.out_registered)
        pos += 3
        w = arch.input_sel_bits
        for sel in cfg.input_sel:
            bits[pos : pos + w] = _int_to_bits(sel, w)
            pos += w
        if cfg.out_drives:
            bits[pos + np.fromiter(cfg.out_drives, dtype=np.intp)] = 1
        return bits

    def decode_clb(self, bits: np.ndarray) -> ClbConfig:
        arch = self.arch
        if bits.size != arch.clb_config_bits:
            raise ValueError("wrong CLB field width")
        pos = 0
        truth = _bits_to_int(bits[pos : pos + (1 << arch.k)])
        pos += 1 << arch.k
        ff_enable, ff_init, out_reg = (int(b) for b in bits[pos : pos + 3])
        pos += 3
        sels = []
        for _ in range(arch.k):
            sels.append(_bits_to_int(bits[pos : pos + arch.input_sel_bits]))
            pos += arch.input_sel_bits
        drives = frozenset(
            int(i) for i in np.nonzero(bits[pos : pos + 4 * arch.channel_width])[0]
        )
        return ClbConfig(
            lut_truth=truth,
            ff_enable=bool(ff_enable),
            ff_init=ff_init,
            out_registered=bool(out_reg),
            input_sel=tuple(sels),
            out_drives=drives,
        )

    def encode_switchbox(self, enabled: FrozenSet[SwitchKey]) -> np.ndarray:
        arch = self.arch
        bits = np.zeros(arch.switchbox_config_bits, dtype=np.uint8)
        long_base = 6 * arch.channel_width
        for t, s in enabled:
            if 0 <= s < 6 and 0 <= t < arch.channel_width:
                bits[t * 6 + s] = 1
            elif s in (6, 7) and 0 <= t < arch.long_per_channel:
                bits[long_base + 2 * t + (s - 6)] = 1
            else:
                raise ValueError(f"bad switch key ({t}, {s})")
        return bits

    def decode_switchbox(self, bits: np.ndarray) -> FrozenSet[SwitchKey]:
        arch = self.arch
        if bits.size != arch.switchbox_config_bits:
            raise ValueError("wrong switch-box field width")
        long_base = 6 * arch.channel_width
        keys = set()
        for i in np.nonzero(bits)[0]:
            i = int(i)
            if i < long_base:
                keys.add((i // 6, i % 6))
            else:
                off = i - long_base
                keys.add((off // 2, 6 + off % 2))
        return frozenset(keys)

    def encode_iob(self, cfg: IobConfig) -> np.ndarray:
        cfg.validate(self.arch)
        bits = np.zeros(self.arch.iob_config_bits, dtype=np.uint8)
        bits[0] = int(cfg.enable)
        bits[1] = int(cfg.direction is IobDirection.OUTPUT)
        bits[2:] = _int_to_bits(cfg.track_sel, self.arch.iob_sel_bits)
        return bits

    def decode_iob(self, bits: np.ndarray) -> IobConfig:
        if bits.size != self.arch.iob_config_bits:
            raise ValueError("wrong IOB field width")
        return IobConfig(
            enable=bool(bits[0]),
            direction=IobDirection.OUTPUT if bits[1] else IobDirection.INPUT,
            track_sel=_bits_to_int(bits[2:]),
        )

    # -- frame layout ----------------------------------------------------------
    def clb_offset(self, y: int) -> int:
        return y * self.arch.clb_config_bits

    def switch_offset_in_clb_frame(self, y: int) -> int:
        return self.arch.clb_column_bits + y * self.arch.switchbox_config_bits

    def switch_offset_in_last_frame(self, y: int) -> int:
        return y * self.arch.switchbox_config_bits

    def iob_offset(self, site: IobSite) -> int:
        return (
            self.arch.switchbox_column_bits
            + self._iob_index[site] * self.arch.iob_config_bits
        )

    # -- whole-device encode/decode ------------------------------------------------
    def build_frames(
        self,
        clbs: Dict[Coord, ClbConfig],
        switches: Dict[Coord, FrozenSet[SwitchKey]],
        iobs: Dict[IobSite, IobConfig],
    ) -> np.ndarray:
        """Encode a full device configuration into an (n_frames, frame_bits)
        array.  Unmentioned tiles stay all-zero (= unconfigured)."""
        arch = self.arch
        frames = np.zeros((arch.n_frames, arch.frame_bits), dtype=np.uint8)
        for coord, cfg in clbs.items():
            if not arch.full_rect.contains(coord):
                raise ValueError(f"CLB {coord} outside device")
            off = self.clb_offset(coord.y)
            frames[coord.x, off : off + arch.clb_config_bits] = self.encode_clb(cfg)
        for coord, enabled in switches.items():
            x, y = coord
            if not (0 <= x <= arch.width and 0 <= y <= arch.height):
                raise ValueError(f"switch box ({x},{y}) outside device")
            bits = self.encode_switchbox(enabled)
            if x < arch.width:
                off = self.switch_offset_in_clb_frame(y)
                frames[x, off : off + arch.switchbox_config_bits] = bits
            else:
                off = self.switch_offset_in_last_frame(y)
                frames[arch.width, off : off + arch.switchbox_config_bits] = bits
        for site, cfg in iobs.items():
            off = self.iob_offset(site)
            frames[arch.width, off : off + arch.iob_config_bits] = self.encode_iob(cfg)
        return frames

    def decode_frames(
        self, frames: np.ndarray
    ) -> Tuple[
        Dict[Coord, ClbConfig],
        Dict[Coord, FrozenSet[SwitchKey]],
        Dict[IobSite, IobConfig],
    ]:
        """Decode a full configuration.  Only *used* tiles are returned
        (all-zero fields are skipped), so the result mirrors build_frames
        input."""
        arch = self.arch
        if frames.shape != (arch.n_frames, arch.frame_bits):
            raise ValueError(f"bad frame array shape {frames.shape}")
        clbs: Dict[Coord, ClbConfig] = {}
        switches: Dict[Coord, FrozenSet[SwitchKey]] = {}
        iobs: Dict[IobSite, IobConfig] = {}
        for x in range(arch.width):
            for y in range(arch.height):
                off = self.clb_offset(y)
                field = frames[x, off : off + arch.clb_config_bits]
                if field.any():
                    clbs[Coord(x, y)] = self.decode_clb(field)
            for y in range(arch.height + 1):
                off = self.switch_offset_in_clb_frame(y)
                field = frames[x, off : off + arch.switchbox_config_bits]
                if field.any():
                    switches[Coord(x, y)] = self.decode_switchbox(field)
        for y in range(arch.height + 1):
            off = self.switch_offset_in_last_frame(y)
            field = frames[arch.width, off : off + arch.switchbox_config_bits]
            if field.any():
                switches[Coord(arch.width, y)] = self.decode_switchbox(field)
        for site in self._iob_order:
            off = self.iob_offset(site)
            field = frames[arch.width, off : off + arch.iob_config_bits]
            if field.any():
                iobs[site] = self.decode_iob(field)
        return clbs, switches, iobs
