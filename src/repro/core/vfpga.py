"""The user-facing Virtual FPGA facade.

Two complementary views, matching the paper's two promises:

* **a virtual device of your own** — :meth:`VirtualFpga.evaluate` /
  :meth:`step` functionally execute any registered circuit as if it owned
  the whole device; the facade downloads configurations behind the scenes
  (counting every reconfiguration, so even interactive use shows the
  cost being hidden);
* **an OS-managed shared device** — :meth:`VirtualFpga.simulate` runs a
  task workload under any of the paper's management policies and returns
  the run statistics the experiments are built from.

The policy factory :func:`make_service` gives every benchmark a one-line
way to instantiate a management strategy by name.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Union

from ..device import Architecture, DeviceView, Fpga, get_family
from ..netlist import Netlist
from ..osim import Kernel, RoundRobin, RunStats, Scheduler, Task
from ..sim import Simulator
from ..telemetry import EventBus
from .baselines import MergedResidentService, SoftwareOnlyService
from .dynamic_loading import DynamicLoadingService
from .multidevice import MultiDeviceService
from .overlay import OverlayService
from .pagination import PagedVfpgaService
from .partitioning import FixedPartitionService, VariablePartitionService
from .preemption import Adaptive, PreemptionPolicy, Rollback, RunToCompletion, SaveRestore
from .registry import ConfigEntry, ConfigRegistry
from .segmentation import SegmentedVfpgaService

__all__ = ["VirtualFpga", "make_service", "make_preemption_policy"]

_PREEMPTION = {
    "run-to-completion": RunToCompletion,
    "rollback": Rollback,
    "save-restore": SaveRestore,
    "adaptive": Adaptive,
}


def make_preemption_policy(name: Union[str, PreemptionPolicy]) -> PreemptionPolicy:
    if isinstance(name, PreemptionPolicy):
        return name
    try:
        return _PREEMPTION[name]()
    except KeyError:
        raise ValueError(
            f"unknown preemption policy {name!r}; have {sorted(_PREEMPTION)}"
        ) from None


def make_service(policy: str, registry: ConfigRegistry, **kw):
    """Instantiate a management policy by name.

    Names: ``merged``, ``software``, ``dynamic`` (kw: ``preemption``,
    ``fpga_time_slice``, ``fabric_sched``, ``eager``), ``nonpreemptable``
    (the ``dynamic`` service with no fabric time slice, §4, so passing
    ``fpga_time_slice`` is a ``TypeError``),
    ``fixed`` (kw: ``partition_widths`` or ``n_partitions``,
    ``replacement``), ``variable`` (kw: ``gc``, ``hold_mode``, ``layout``,
    ``placement``, ``replacement``), ``overlay`` (kw: ``resident_names``,
    ``replacement``, ``overlay_slots``), ``paged`` (kw: ``circuits``,
    ``frame_width``, ``replacement``, ``replacement_seed``,
    ``cycles_per_access``), ``segmented`` (the same minus ``frame_width``,
    plus ``placement``), ``multi`` (kw: ``n_devices``,
    ``board_factory``, ``dispatch``).

    The pluggable engines are shared across policies: ``placement``
    accepts any :data:`~repro.core.placement.PLACEMENT_STRATEGIES` name,
    ``replacement`` any :func:`~repro.core.policies.make_replacement`
    name (plus ``replacement_seed`` for stochastic policies),
    ``dispatch`` any :data:`~repro.core.dispatch.DISPATCH_POLICIES` name,
    ``fabric_sched`` any
    :data:`~repro.core.dynamic_loading.FABRIC_SCHEDULERS` name (it rules
    only where ``dynamic`` has a fabric time slice), and ``load_mode``
    (``full``/``delta``/``auto``) selects the reconfiguration engine on
    every policy.  The CPU-side siblings live in
    :data:`~repro.osim.scheduler.CPU_SCHEDULERS` and are instantiated
    via :func:`~repro.osim.scheduler.make_cpu_scheduler` (the kernel's
    ``scheduler`` argument, not a service kwarg).
    """
    kw = dict(kw)  # never mutate the caller's kwargs
    if policy == "merged":
        return MergedResidentService(registry, **kw)
    if policy == "software":
        return SoftwareOnlyService(registry, **kw)
    if policy in ("dynamic", "nonpreemptable"):
        if "preemption" in kw:
            kw["preemption"] = make_preemption_policy(kw["preemption"])
        if policy == "nonpreemptable":
            return DynamicLoadingService(registry, fpga_time_slice=None, **kw)
        return DynamicLoadingService(registry, **kw)
    if policy == "fixed":
        if "n_partitions" in kw:
            n = kw.pop("n_partitions")
            return FixedPartitionService.equal(registry, n, **kw)
        return FixedPartitionService(registry, **kw)
    if policy == "variable":
        return VariablePartitionService(registry, **kw)
    if policy == "overlay":
        return OverlayService(registry, **kw)
    if policy == "paged":
        return PagedVfpgaService(registry, **kw)
    if policy == "segmented":
        return SegmentedVfpgaService(registry, **kw)
    if policy == "multi":
        return MultiDeviceService(registry, **kw)
    raise ValueError(f"unknown policy {policy!r}")


class VirtualFpga:
    """One virtual FPGA over one physical device.

    Parameters
    ----------
    family:
        Catalog device name (see :data:`repro.device.FAMILIES`) or an
        :class:`~repro.device.Architecture` instance.
    """

    def __init__(self, family: Union[str, Architecture] = "VF16") -> None:
        self.arch = get_family(family) if isinstance(family, str) else family
        self.registry = ConfigRegistry(self.arch)
        self.fpga = Fpga(self.arch)
        #: Interactive-mode reconfiguration counter ("the cost you didn't see").
        self.interactive_loads = 0
        self.interactive_load_time = 0.0
        self._views: Dict[str, DeviceView] = {}

    # -- circuit management ------------------------------------------------
    def add_circuit(
        self,
        netlist: Netlist,
        name: Optional[str] = None,
        seed: int = 0,
        effort: str = "sa",
        state_accessible: bool = True,
    ) -> ConfigEntry:
        """Compile ``netlist`` for this device and declare it."""
        return self.registry.compile_and_register(
            netlist, name=name, seed=seed, effort=effort,
            state_accessible=state_accessible,
        )

    @property
    def circuits(self) -> List[str]:
        return self.registry.names()

    # -- interactive (functional) use -----------------------------------------
    def _ensure_loaded(self, name: str) -> DeviceView:
        self.registry.get(name)  # raises UnknownConfigError if missing
        if name in self.fpga.resident:
            view = self._views.get(name)
            if view is not None:
                return view
        else:
            # The virtual view: this circuit sees the whole device, so
            # whatever else is resident silently makes way — the exact
            # multiplexing the paper hides behind the OS.
            for other in list(self.fpga.resident):
                self.fpga.unload(other)
                self._views.pop(other, None)
            bitstream = self.registry.translated(name, (0, 0))
            image, _cache = self.registry.bitcache.frames_for(bitstream)
            timing = self.fpga.load(name, bitstream, image=image)
            self.interactive_loads += 1
            self.interactive_load_time += timing.seconds
        view = self.fpga.view(name)
        self._views[name] = view
        return view

    def evaluate(self, name: str, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Combinational evaluation of circuit ``name`` on the device."""
        return self._ensure_loaded(name).evaluate(inputs)

    def step(self, name: str, inputs: Mapping[str, int]) -> Dict[str, int]:
        """One clock cycle of circuit ``name`` on the device."""
        return self._ensure_loaded(name).step(inputs)

    def read_state(self, name: str) -> Dict[str, int]:
        return self._ensure_loaded(name).read_state()

    def write_state(self, name: str, state: Mapping[str, int]) -> None:
        self._ensure_loaded(name).write_state(state)

    # -- managed (simulated OS) use ----------------------------------------------
    def simulate(
        self,
        tasks: Iterable[Task],
        policy: str = "dynamic",
        scheduler: Optional[Scheduler] = None,
        context_switch: float = 20e-6,
        bus: Optional[EventBus] = None,
        telemetry_steps: bool = False,
        op_deadline: Optional[float] = None,
        **policy_kw,
    ) -> RunStats:
        """Run ``tasks`` under ``policy`` on a fresh simulated system.

        Returns the :class:`~repro.osim.trace.RunStats`; the service used
        is available afterwards as :attr:`last_service` and the kernel as
        :attr:`last_kernel` for metric inspection.  The run records no
        events of its own: pass a telemetry ``bus`` with an
        :class:`~repro.telemetry.EventLog` (or other recorders and
        exporters) already subscribed to capture its event stream;
        ``telemetry_steps`` additionally publishes one event per
        simulator step.  An :class:`~repro.telemetry.Auditor` attaches
        the same way: subscribe it to ``bus`` before the call, so boot
        downloads are audited too, and run its end-of-stream
        :meth:`~repro.telemetry.Auditor.finish` afterwards.
        ``op_deadline`` arms the kernel's fail-fast watchdog (a
        :class:`~repro.osim.DeadlockError` at the deadline instant).
        """
        sim = Simulator()
        service = make_service(policy, self.registry, **policy_kw)
        kernel = Kernel(
            sim,
            scheduler if scheduler is not None else RoundRobin(),
            service,
            context_switch=context_switch,
            bus=bus,
            telemetry_steps=telemetry_steps,
            op_deadline=op_deadline,
        )
        kernel.spawn_all(list(tasks))
        # Expose before running so a DeadlockError still leaves the
        # service inspectable (starvation post-mortems need it).
        self.last_service = service
        self.last_kernel = kernel
        return kernel.run()
