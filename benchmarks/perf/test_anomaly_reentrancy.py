"""A republishing ``AnomalyDetector`` re-enters itself.

Built with ``bus=``, the detector publishes each anomaly onto the bus it
listens to, so it receives its own ``AuditViolation`` while
``_check_starvation`` is still iterating the starving operations it
collected.  The inner call flags and deletes them first, and the outer
``del self._open[op_id]`` raises ``KeyError``.  The benchmark's
``sim-observed`` workload builds the detector without ``bus=`` for this
reason; this test starts passing when the detector is fixed.
"""

import pytest

from repro.core import ConfigRegistry, make_service
from repro.device import get_family
from repro.osim import Kernel, RoundRobin, uniform_workload
from repro.sim import Simulator
from repro.telemetry import AnomalyDetector, EventBus


@pytest.mark.xfail(strict=True, raises=KeyError,
                   reason="AnomalyDetector re-enters _check_starvation "
                          "on its own republished AuditViolation")
def test_republishing_detector_flags_starvation_without_crashing():
    arch = get_family("VF12")
    registry = ConfigRegistry(arch)
    for i, width in enumerate((3, 4, 5, 3, 4, 5)):
        registry.register_synthetic(f"w{width}-{i}", width, arch.height)
    bus = EventBus()
    detector = AnomalyDetector(bus=bus)
    kernel = Kernel(Simulator(), RoundRobin(time_slice=1e-3),
                    make_service("variable", registry, gc="merge"),
                    context_switch=20e-6, bus=bus)
    kernel.spawn_all(uniform_workload(registry.names(), 20, 3, 0.2e-3, 4000))
    kernel.run()
    assert any(a.invariant == "anomaly-starvation"
               for a in detector.anomalies)
