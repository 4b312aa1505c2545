"""The OS configuration tables (paper §3).

Tasks declare the configurations they intend to download; the operating
system stores them "in the operating system tables at the beginning of the
task life".  :class:`ConfigRegistry` is those tables: configuration name →
:class:`ConfigEntry` holding the compiled bitstream, its timing, footprint,
state-bit count and the observability/controllability flag that gates
save/restore preemption.

Entries come from three sources:

* :meth:`ConfigRegistry.register_compiled` — a CAD-flow result;
* :meth:`ConfigRegistry.compile_and_register` — compile a netlist here;
* :meth:`ConfigRegistry.register_synthetic` — a size/state/timing-accurate
  placeholder for scale experiments (no logic, real frames).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..cad import CompileCache, CompileResult, compile_netlist
from ..device import Architecture, Bitstream, ClbConfig, Coord, Rect
from ..netlist import Netlist
from .bitcache import BitstreamCache
from .errors import AdmissionError, UnknownConfigError

__all__ = ["ConfigEntry", "ConfigRegistry", "synthetic_bitstream"]


@dataclass(frozen=True)
class ConfigEntry:
    """One declared configuration.

    Attributes
    ----------
    name:
        Registry key (unique).
    bitstream:
        Relocatable compiled configuration (anchored wherever the manager
        decides at load time).
    critical_path:
        Clock period of the implemented circuit (seconds).
    io_pins:
        Virtual pins the circuit needs while executing (drives the pin
        multiplexer).
    state_accessible:
        Whether the circuit's memory elements are observable *and*
        controllable (paper §3) — save/restore preemption requires it.
    """

    name: str
    bitstream: Bitstream
    critical_path: float
    io_pins: int
    state_accessible: bool = True

    @property
    def region_shape(self) -> tuple:
        return (self.bitstream.region.w, self.bitstream.region.h)

    @property
    def area(self) -> int:
        return self.bitstream.region.area

    @property
    def n_state_bits(self) -> int:
        return self.bitstream.n_state_bits

    @property
    def is_sequential(self) -> bool:
        return self.n_state_bits > 0


def synthetic_bitstream(
    name: str,
    arch: Architecture,
    width: int,
    height: int,
    n_state_bits: int = 0,
) -> Bitstream:
    """A logic-free but physically real bitstream: correct footprint,
    correct frame count, real flip-flops for readback cost.  Used by scale
    benchmarks where compiling hundreds of circuits would dominate runtime
    without changing what is measured."""
    if width > arch.width or height > arch.height:
        raise AdmissionError(
            f"synthetic circuit {name!r} ({width}x{height}) exceeds device "
            f"{arch.width}x{arch.height}"
        )
    if n_state_bits > width * height:
        raise AdmissionError(
            f"{name!r}: {n_state_bits} state bits exceed {width * height} CLBs"
        )
    region = Rect(0, 0, width, height)
    clbs: Dict[Coord, ClbConfig] = {}
    state_bits: Dict[str, Coord] = {}
    coords = list(region.coords())
    for i in range(n_state_bits):
        c = coords[i]
        clbs[c] = ClbConfig(
            lut_truth=0,
            ff_enable=True,
            out_registered=True,
            input_sel=(0,) * arch.k,
        )
        state_bits[f"{name}_ff{i}"] = c
    return Bitstream(
        name=name,
        arch_name=arch.name,
        region=region,
        clbs=clbs,
        relocatable=True,
        state_bits=state_bits,
    )


class ConfigRegistry:
    """Name → :class:`ConfigEntry` tables shared by kernel-side services."""

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self._entries: Dict[str, ConfigEntry] = {}
        #: Anchored-bitstream memo: (name, x, y) → translated bitstream.
        #: Repeated activations of a config at the same anchor reuse the
        #: translation (and, via the instance-memoised content digest, the
        #: bitcache hashes it exactly once).
        self._translated: Dict[Tuple[str, int, int], Bitstream] = {}
        #: Shared content-addressed cache of encoded frame images,
        #: consulted by every service load through this registry.
        self.bitcache = BitstreamCache(arch)
        #: Shared content-addressed compile cache: repeat
        #: :meth:`compile_and_register` calls over the same netlist
        #: content are metadata hits, the way repeat loads already are.
        self.compile_cache = CompileCache()

    # -- registration --------------------------------------------------------
    def register(self, entry: ConfigEntry) -> ConfigEntry:
        if entry.name in self._entries:
            raise AdmissionError(f"configuration {entry.name!r} already declared")
        if not entry.bitstream.relocatable:
            raise AdmissionError(
                f"configuration {entry.name!r}: manager needs relocatable "
                "bitstreams (dedicated ones bind physical pads)"
            )
        entry.bitstream.validate(self.arch)
        self._entries[entry.name] = entry
        self._invalidate(entry.name)
        return entry

    def unregister(self, name: str) -> ConfigEntry:
        """Withdraw a configuration and drop its cached translations."""
        entry = self.get(name)
        del self._entries[name]
        self._invalidate(name)
        return entry

    def _invalidate(self, name: str) -> None:
        for key in [k for k in self._translated if k[0] == name]:
            del self._translated[key]

    def register_compiled(
        self, result: CompileResult, name: Optional[str] = None,
        state_accessible: bool = True,
    ) -> ConfigEntry:
        bs = result.bitstream
        ins, outs = bs.ports()
        return self.register(
            ConfigEntry(
                name=name or bs.name,
                bitstream=bs.anchored_at(0, 0),
                critical_path=result.critical_path,
                io_pins=len(ins) + len(outs),
                state_accessible=state_accessible,
            )
        )

    def compile_and_register(
        self,
        netlist: Netlist,
        name: Optional[str] = None,
        region: Optional[Rect] = None,
        seed: int = 0,
        effort: str = "sa",
        state_accessible: bool = True,
        shape: str = "square",
    ) -> ConfigEntry:
        result = compile_netlist(
            netlist, self.arch, region=region, seed=seed, effort=effort,
            shape=shape, cache=self.compile_cache,
        )
        return self.register_compiled(
            result, name=name, state_accessible=state_accessible
        )

    def register_synthetic(
        self,
        name: str,
        width: int,
        height: int,
        n_state_bits: int = 0,
        critical_path: float = 20e-9,
        io_pins: int = 8,
        state_accessible: bool = True,
    ) -> ConfigEntry:
        bs = synthetic_bitstream(name, self.arch, width, height, n_state_bits)
        return self.register(
            ConfigEntry(
                name=name,
                bitstream=bs,
                critical_path=critical_path,
                io_pins=io_pins,
                state_accessible=state_accessible,
            )
        )

    # -- lookup ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> ConfigEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownConfigError(name) from None

    def translated(self, name: str, anchor: Tuple[int, int]) -> Bitstream:
        """The named configuration's bitstream anchored at ``anchor``,
        memoised per (name, anchor) — the encode hot path consults this
        instead of re-translating on every demand fault."""
        key = (name, anchor[0], anchor[1])
        bs = self._translated.get(key)
        if bs is None:
            bs = self.get(name).bitstream.anchored_at(*anchor)
            self._translated[key] = bs
        return bs

    def names(self) -> List[str]:
        return list(self._entries)

    def entries(self) -> List[ConfigEntry]:
        return list(self._entries.values())

    def total_area(self, names: Optional[Iterable[str]] = None) -> int:
        chosen = self._entries.values() if names is None else [
            self.get(n) for n in names
        ]
        return sum(e.area for e in chosen)
