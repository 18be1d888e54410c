"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator, Interrupt, Resource

    sim = Simulator()
    sim.process(my_generator(sim))
    sim.run(until=100.0)
"""

from repro.sim.errors import EmptySchedule, Interrupt, SimulationError
from repro.sim.events import (
    NORMAL,
    URGENT,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Process,
    Timeout,
)
from repro.sim.kernel import Simulator
from repro.sim.resources import GuardedChannelPool, Request, Resource
from repro.sim.rng import RandomStreams

__all__ = [
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Event",
    "GuardedChannelPool",
    "Interrupt",
    "NORMAL",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "Timeout",
    "URGENT",
]
