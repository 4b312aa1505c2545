"""Content-addressed compile cache over the whole CAD flow.

PR 5's :class:`~repro.core.bitcache.BitstreamCache` made repeat *loads*
content-addressed: the frame encoder runs once per distinct
configuration content and every later port of the same circuit is a
metadata hit.  This module applies the same discipline one layer up, to
the compile path itself: a :class:`CompileCache` memoises
:func:`~repro.cad.flow.compile_netlist` end-to-end, keyed on the
*netlist content digest* plus everything else that determines the
result — device family, region, seed, effort, router iteration cap —
so recompiling a circuit family is a dictionary lookup instead of a
map→pack→place→route→bitgen walk.  A compile consults it once before
any phase runs and stores once after bitgen; there are no per-stage
caches, since no caller recompiles a circuit with only a downstream
knob changed.

Every lookup is published as a typed
:class:`~repro.cad.instrument.CadCacheLookup` event when the flow runs
instrumented, so :class:`~repro.cad.instrument.CompileProfile`,
``repro compile-report`` and the benchmark artifacts all see cache
behavior.  Cached values are shared between hits — callers must treat
them as read-only (the BitstreamCache contract).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..device import Architecture
    from .flow import CompileResult
    from .instrument import CadInstrumentation

__all__ = ["CompileCache", "netlist_digest"]

#: Cache keys are plain tuples of hashables (digest + flow options).
CacheKey = Tuple


def netlist_digest(netlist: Netlist) -> str:
    """Content digest of a netlist: name plus every cell (name, kind,
    fanin, truth table, initial value) in insertion order.

    Insertion order is part of the content on purpose — downstream
    passes iterate cells in that order, so two netlists with the same
    cells in different order can compile differently.  Computed fresh on
    every call (no instance memo): netlists are mutable via ``add`` /
    ``replace`` and a stale digest would alias distinct designs.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(netlist.name.encode())
    for cell in netlist.cells.values():
        h.update(b"\x00")
        h.update(cell.name.encode())
        h.update(b"\x01")
        h.update(cell.kind.value.encode())
        for src in cell.fanin:
            h.update(b"\x02")
            h.update(src.encode())
        h.update(f"\x03{cell.truth}\x04{cell.init}".encode())
    return h.hexdigest()


class CompileCache:
    """Memoises compile results end-to-end.

    One instance is typically shared by everything compiling against one
    device (each :class:`~repro.core.registry.ConfigRegistry` owns one,
    next to its ``bitcache``); an instance is also safely shareable
    across families, since every key carries the family name.
    """

    def __init__(self) -> None:
        self._results: Dict[CacheKey, "CompileResult"] = {}
        self.hits = 0
        self.misses = 0
        #: Configuration bytes served from end-to-end hits (the frames a
        #: fresh compile would have had to regenerate).
        self.bytes_served = 0
        self._result_bytes: Dict[CacheKey, int] = {}

    # -- keys --------------------------------------------------------------
    def flow_key(
        self,
        digest: str,
        arch: "Architecture",
        *,
        mode: str,
        region_token: Tuple,
        seed: int,
        effort: str,
        max_route_iterations: int,
    ) -> CacheKey:
        """End-to-end key: everything :func:`compile_netlist` result
        content depends on."""
        return (digest, arch.name, mode, region_token, seed, effort,
                max_route_iterations)

    # -- end-to-end --------------------------------------------------------
    def lookup_result(
        self, key: CacheKey,
        instrument: Optional["CadInstrumentation"] = None,
    ) -> Optional["CompileResult"]:
        result = self._results.get(key)
        if result is not None:
            self.hits += 1
            served = self._result_bytes.get(key, 0)
            self.bytes_served += served
            if instrument is not None:
                instrument.cache_lookup("flow", "hit", key[0],
                                        bytes_served=served)
        else:
            self.misses += 1
            if instrument is not None:
                instrument.cache_lookup("flow", "miss", key[0])
        return result

    def store_result(self, key: CacheKey, result: "CompileResult",
                     arch: "Architecture") -> None:
        """Store one successful compile (failures are never cached — a
        raised flow leaves no entry).  The profile is stripped: it
        describes the *storing* run, and hits attach their own."""
        from dataclasses import replace

        bs = result.bitstream
        self._result_bytes[key] = (
            len(bs.frames_touched(arch)) * arch.frame_bits // 8
        )
        self._results[key] = replace(result, profile=None)

    # -- reporting ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def stats(self) -> Dict[str, object]:
        """Counter snapshot (the compile-path analogue of
        ``BitstreamCache.stats``)."""
        return {
            "entries": len(self._results),
            "hits": self.hits,
            "misses": self.misses,
            "bytes_served": self.bytes_served,
        }
