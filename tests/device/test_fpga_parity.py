"""Parity of the owned-range merge path with the full-device-mask oracle.

:class:`repro.device.Fpga` merges bitstreams over the bit ranges they own
and finds changed frames by comparing them with the RAM directly;
:class:`tests.device.reference.ReferenceFpga` keeps the original
mask-and-digest path.  Both devices are driven through the same random
sequence of loads (synthetic and compiled relocatable bitstreams at
random anchors, plus dedicated ones), unloads, bit upsets and scrubs, and
must agree on every observable after every step: RAM content, frame
digests, returned timing, write counters, port time, the order of frame
writes and the scrub verdict.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad import compile_netlist
from repro.device import (
    Architecture,
    Bitstream,
    BitstreamError,
    ClbConfig,
    Coord,
    Fpga,
    IobConfig,
    IobDirection,
    Rect,
    iob_sites,
)
from repro.netlist import counter, parity_tree, ripple_adder
from tests.device.reference import ReferenceFpga

DEVICES = {
    "partial": Architecture("par6", 6, 6, k=4, channel_width=6),
    "serial": Architecture("ser6", 6, 6, k=4, channel_width=6,
                           supports_partial=False),
}


def synthetic(arch, name, w, h, n_ffs, truth, switches=()):
    """A relocatable bitstream at the origin with real CLB and switch-box
    content (``switches``: ``(x, y, track, switch)`` in the region).  Each
    CLB drives its first and last output wire, so both ends of every CLB
    field are set."""
    region = Rect(0, 0, w, h)
    coords = list(region.coords())
    clbs, state = {}, {}
    for i in range(n_ffs):
        clbs[coords[i]] = ClbConfig(
            lut_truth=truth, ff_enable=True, out_registered=True,
            input_sel=(i % 3,) * arch.k,
            out_drives=frozenset({0, 4 * arch.channel_width - 1}),
        )
        state[f"{name}_ff{i}"] = coords[i]
    boxes = {}
    for x, y, t, s in switches:
        boxes.setdefault(Coord(x, y), set()).add((t, s))
    return Bitstream(
        name=name, arch_name=arch.name, region=region, clbs=clbs,
        switches={c: frozenset(k) for c, k in boxes.items()},
        relocatable=True, state_bits=state,
    )


@lru_cache(maxsize=None)
def pool(device):
    """(relocatable bitstreams at the origin, dedicated bitstreams)."""
    arch = DEVICES[device]
    relocatable = [
        synthetic(arch, "s23", 2, 3, 4, 0xBEEF, [(0, 0, 0, 0), (1, 2, 5, 5)]),
        synthetic(arch, "s16", 1, 6, 3, 0x1234, [(0, 5, 0, 1)]),
        synthetic(arch, "s32", 3, 2, 2, 0x00F0),
        compile_netlist(parity_tree(4), arch, effort="greedy").bitstream,
        compile_netlist(counter(3), arch, effort="greedy").bitstream,
    ]
    dedicated = [
        compile_netlist(ripple_adder(2), arch, mode="dedicated",
                        effort="greedy").bitstream,
        # Dedicated to part of the array: its touched frames (two
        # columns plus the IOB frame) are not contiguous.
        Bitstream(
            name="d_part", arch_name=arch.name, region=Rect(2, 0, 2, 6),
            clbs={Coord(2, 1): ClbConfig(lut_truth=0x6,
                                         input_sel=(1,) * arch.k)},
            switches={Coord(3, 4): frozenset({(2, 3)}),
                      Coord(6, 0): frozenset({(0, 1)})},
            iobs={iob_sites(arch)[0]: IobConfig(True, IobDirection.OUTPUT, 2)},
        ),
    ]
    return relocatable, dedicated


def draw_upset(data, fpga):
    """A ``(frame, bit)`` to flip: anywhere in the RAM, or (to make the
    scrub and the reloads that repair it work) a CLB or switch-box bit of
    a resident circuit."""
    arch, codec = fpga.arch, fpga.codec
    if not fpga.resident or data.draw(st.booleans()):
        return (data.draw(st.integers(0, arch.n_frames - 1)),
                data.draw(st.integers(0, arch.frame_bits - 1)))
    r = fpga.resident[data.draw(st.sampled_from(sorted(fpga.resident)))].region
    x = data.draw(st.integers(r.x, r.x2 - 1))
    y = data.draw(st.integers(r.y, r.y2 - 1))
    base, width = data.draw(st.sampled_from([
        (codec.clb_offset(y), arch.clb_config_bits),
        (codec.switch_offset_in_clb_frame(y), arch.switchbox_config_bits),
    ]))
    return x, base + data.draw(st.integers(0, width - 1))


def run_step(fpga, step, mode):
    """One step's result, or the error type it raised."""
    try:
        if step[0] == "load":
            return fpga.load(step[1], step[2], mode=mode)
        if step[0] == "unload":
            return fpga.unload(step[1], mode=mode)
        if step[0] == "flip":
            return fpga.ram.flip_bit(step[1], step[2])
        return fpga.scrub()
    except BitstreamError as exc:
        return type(exc)


def observe(fpga, writes):
    ram = fpga.ram
    return (
        ram.frames.tobytes(),
        [ram.frame_digest(fx) for fx in range(fpga.arch.n_frames)],
        ram.frame_writes,
        ram.bits_written,
        fpga.port_busy_time,
        list(writes),
        fpga.scrub(),
    )


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("mode", ["full", "delta", "auto"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_owned_range_merge_matches_mask_oracle(device, mode, data):
    arch = DEVICES[device]
    relocatable, dedicated = pool(device)
    prod, ref = Fpga(arch), ReferenceFpga(arch)
    prod_writes, ref_writes = [], []
    prod.ram.on_write = prod_writes.append
    ref.ram.on_write = ref_writes.append
    for n in range(data.draw(st.integers(1, 10), label="steps")):
        op = data.draw(st.sampled_from(
            ["load", "load", "load", "dedicated", "unload", "unload",
             "flip", "scrub"]
        ))
        if op == "load":
            bs = data.draw(st.sampled_from(relocatable))
            x = data.draw(st.integers(0, arch.width - bs.region.w))
            y = data.draw(st.integers(0, arch.height - bs.region.h))
            step = ("load", f"h{n}", bs.anchored_at(x, y))
        elif op == "dedicated":
            step = ("load", f"h{n}", data.draw(st.sampled_from(dedicated)))
        elif op == "unload":
            step = ("unload",
                    data.draw(st.sampled_from(sorted(prod.resident) or ["-"])))
        elif op == "flip":
            step = ("flip", *draw_upset(data, prod))
        else:
            step = ("scrub",)
        assert run_step(prod, step, mode) == run_step(ref, step, mode), step
        assert observe(prod, prod_writes) == observe(ref, ref_writes), step
