"""Tests for the Resource and GuardedChannelPool primitives."""

import pytest

from repro.sim import GuardedChannelPool, Resource, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    first = resource.request()
    second = resource.request()
    third = resource.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert resource.count == 2
    assert resource.queued == 1


def test_resource_release_grants_next_waiter():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def user(sim, resource, name, hold):
        request = resource.request()
        yield request
        log.append((sim.now, name, "acquire"))
        yield sim.timeout(hold)
        resource.release(request)
        log.append((sim.now, name, "release"))

    sim.process(user(sim, resource, "a", 3.0))
    sim.process(user(sim, resource, "b", 2.0))
    sim.run()
    assert log == [
        (0.0, "a", "acquire"),
        (3.0, "a", "release"),
        (3.0, "b", "acquire"),
        (5.0, "b", "release"),
    ]


def test_request_context_manager_releases():
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def user(sim, resource):
        with resource.request() as request:
            yield request
            yield sim.timeout(1.0)

    sim.process(user(sim, resource))
    sim.run()
    assert resource.count == 0
    assert resource.free == 1


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_cancel_queued_request():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    holder = resource.request()
    assert holder.triggered
    waiting = resource.request()
    assert not waiting.triggered
    resource.release(waiting)  # cancel while queued
    resource.release(holder)
    assert resource.count == 0
    assert not waiting.triggered


def test_guarded_pool_blocks_new_calls_before_handoffs():
    sim = Simulator()
    pool = GuardedChannelPool(sim, capacity=3, guard=1)
    # Two new calls fill the unguarded portion.
    assert pool.admit_new_call() is not None
    assert pool.admit_new_call() is not None
    # Third new call hits the guard band.
    assert pool.admit_new_call() is None
    # Handoff may still take the guarded channel.
    handoff = pool.admit_handoff()
    assert handoff is not None
    # Now everything is full, even for handoffs.
    assert pool.admit_handoff() is None


def test_guarded_pool_invalid_guard():
    sim = Simulator()
    with pytest.raises(ValueError):
        GuardedChannelPool(sim, capacity=2, guard=2)
