"""Shared fixtures for VFPGA-manager tests.

Service-behaviour tests run on *synthetic* configurations (real frames and
state bits, no logic) so they are fast and footprints are exact; the
end-to-end tests with compiled circuits live in test_vfpga.py.
"""

import pytest

from repro.core import ConfigRegistry
from repro.device import get_family
from repro.osim import Kernel, RoundRobin
from repro.sim import Simulator
from repro.telemetry import EventBus, EventLog


@pytest.fixture
def arch():
    """12x12 device, partial reconfiguration, known timing."""
    return get_family("VF12")


@pytest.fixture
def registry(arch):
    """Synthetic mix: three combinational widths + one sequential circuit."""
    reg = ConfigRegistry(arch)
    h = arch.height
    reg.register_synthetic("a3", 3, h, critical_path=20e-9)
    reg.register_synthetic("b3", 3, h, critical_path=20e-9)
    reg.register_synthetic("c4", 4, h, critical_path=20e-9)
    reg.register_synthetic("d6", 6, h, critical_path=20e-9)
    reg.register_synthetic("seq4", 4, h, n_state_bits=24, critical_path=20e-9)
    reg.register_synthetic(
        "hidden4", 4, h, n_state_bits=24, critical_path=20e-9,
        state_accessible=False,
    )
    return reg


class Harness:
    """One simulated system around a service, with its event stream
    recorded in :attr:`log`."""

    def __init__(self, service, scheduler=None, context_switch=0.0):
        self.sim = Simulator()
        self.service = service
        self.bus = EventBus()
        self.log = EventLog(self.bus)
        self.kernel = Kernel(
            self.sim,
            scheduler if scheduler is not None else RoundRobin(time_slice=1e-3),
            service,
            context_switch=context_switch,
            bus=self.bus,
        )

    def run(self, tasks):
        self.kernel.spawn_all(tasks)
        return self.kernel.run()


@pytest.fixture
def harness():
    return Harness
