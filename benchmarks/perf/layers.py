"""Outside-in layer timing for traced repetitions.

Every wrapper here is installed on one repetition's own instances (the
simulator, scheduler, service, device and bus it builds), from the
benchmark's side: nothing in ``repro`` knows it is being timed.  Spans
nest (a process resume runs the service, which loads the device, which
publishes on the bus, which calls the subscribers), so one stack of
child-time accumulators turns each span's duration into its self time:
the duration minus the time of the spans it contains.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.telemetry import EventBus


class LayerClock:
    """Calls and self seconds per layer for one traced repetition."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Child time accumulated by the innermost open span (the bottom
        #: entry collects the top-level spans).
        self._stack: List[float] = [0.0]

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call charged to ``layer``."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(layer, 0)
        self_s.setdefault(layer, 0.0)

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[layer] += 1

        return span

    @property
    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class TimedGenerator:
    """A generator whose every resume is one span.

    ``Process`` drives its body through ``send``/``throw`` and the kernel's
    ``yield from`` through the iterator protocol plus ``send``, ``throw``
    and ``close``; both only duck-type, so a proxy is enough.
    """

    __slots__ = ("send", "throw", "close")

    def __init__(self, clock: LayerClock, layer: str, generator) -> None:
        self.send = clock.timed(layer, generator.send)
        self.throw = clock.timed(layer, generator.throw)
        self.close = generator.close

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self):
        return self.send(None)


class TimedBus(EventBus):
    """An :class:`EventBus` that times ``publish`` and each subscriber, and
    counts published events per type.

    A subscriber is named by its class: the owner of a bound method (the
    kernel's ``trace.record``) or the callable object itself (``Auditor``).
    """

    def __init__(self, clock: LayerClock) -> None:
        super().__init__()
        self._clock = clock
        #: (callback as given, its timed wrapper), for ``unsubscribe``.
        self._wrappers: List[Tuple[Callable, Callable]] = []
        self.event_counts: Dict[str, int] = {}
        self.publish = clock.timed("telemetry.bus", self._count_and_publish)

    def _count_and_publish(self, event) -> None:
        name = type(event).__name__
        self.event_counts[name] = self.event_counts.get(name, 0) + 1
        EventBus.publish(self, event)

    def subscribe(self, callback, *event_types):
        owner = getattr(callback, "__self__", callback)
        wrapper = self._clock.timed(
            f"telemetry.sub.{type(owner).__name__}", callback
        )
        self._wrappers.append((callback, wrapper))
        return super().subscribe(wrapper, *event_types)

    def unsubscribe(self, callback) -> None:
        for given, wrapper in list(self._wrappers):
            if callback is given or callback is wrapper:
                self._wrappers.remove((given, wrapper))
                super().unsubscribe(wrapper)


def instrument_system(clock: LayerClock, sim, scheduler, service,
                      registry) -> Callable[[], None]:
    """Time one repetition's simulator, scheduler, service and device.

    Must run before ``Kernel(...)`` is built.  The registry outlives the
    repetition, so its wrapper is removed by the returned callable.
    """
    sim.step = clock.timed("sim.step", sim.step)
    make_process = sim.process
    sim.process = lambda generator, name=None: make_process(
        TimedGenerator(clock, "osim.process", generator), name=name
    )
    for name in ("pick", "enqueue", "quantum"):
        setattr(scheduler, name, clock.timed("osim.sched",
                                             getattr(scheduler, name)))
    execute = service.execute
    service.execute = lambda task, op: TimedGenerator(
        clock, "core.service", execute(task, op)
    )
    for name in ("register_task", "on_dispatch", "on_task_exit"):
        setattr(service, name, clock.timed("core.service",
                                           getattr(service, name)))
    service.fpga.load = clock.timed("device.fpga", service.fpga.load)
    service.fpga.unload = clock.timed("device.fpga", service.fpga.unload)
    bitcache = registry.bitcache
    bitcache.frames_for = clock.timed("core.bitcache", bitcache.frames_for)
    return lambda: delattr(bitcache, "frames_for")
