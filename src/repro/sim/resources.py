"""Shared-resource primitives: capacity-limited resources with FIFO
queueing.

These model radio channels, processing slots and any other contended
facility.  Usage follows the familiar request/release protocol::

    channel = Resource(sim, capacity=8)

    def caller(sim, channel):
        request = channel.request()
        yield request
        try:
            yield sim.timeout(call_duration)
        finally:
            channel.release(request)

Requests may also be used as context managers so that the release is
guaranteed::

    with channel.request() as request:
        yield request
        yield sim.timeout(call_duration)
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "time")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.time = resource.sim.now
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    # Sort key for the wait queue.
    def _key(self) -> tuple:
        return (self.time,)


class Resource:
    """A capacity-limited resource with FIFO queueing.

    ``capacity`` slots may be held simultaneously.  Waiting requests are
    served in arrival order (subclasses may re-key the queue through
    :meth:`Request._key`).
    """

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self._capacity = capacity
        self.users: list[Request] = []
        self._queue: list[tuple[tuple, int, Request]] = []
        self._tiebreak = count()

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def free(self) -> int:
        """Number of slots currently available."""
        return self._capacity - len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    # ------------------------------------------------------------------
    def request(self) -> Request:
        """Claim a slot; the returned event triggers once granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a slot (or cancel a waiting request)."""
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
            return
        # Cancelling a queued request: lazily mark it; it is skipped when
        # popped.  (Removal from the middle of a heap is O(n).)
        request.resource = None  # type: ignore[assignment]

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(request)
            return
        heappush(self._queue, (request._key(), next(self._tiebreak), request))

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.succeed(request)

    def _grant_next(self) -> None:
        while self._queue and len(self.users) < self._capacity:
            _key, _tb, request = heappop(self._queue)
            if request.resource is None or request.triggered:
                continue  # cancelled
            self._grant(request)


class GuardedChannelPool(Resource):
    """A channel pool with *guard channels* reserved for handoffs.

    A classic cellular admission policy: of ``capacity`` channels, the
    last ``guard`` may only be taken by handoff requests.  New calls are
    blocked once ``capacity - guard`` channels are busy; handoffs are
    blocked only when every channel is busy.  This is the "resources of
    BS" decision factor in the paper's handoff strategy (§3.2).
    """

    def __init__(self, sim: "Simulator", capacity: int, guard: int = 0) -> None:
        if guard < 0 or guard >= capacity:
            raise ValueError(f"guard must be in [0, capacity), got {guard}")
        super().__init__(sim, capacity=capacity)
        self.guard = guard

    def admit_new_call(self) -> Optional[Request]:
        """Try to admit a new call; returns a granted request or ``None``."""
        if len(self.users) >= self._capacity - self.guard:
            return None
        request = Request(self)
        return request if request.triggered else None

    def admit_handoff(self) -> Optional[Request]:
        """Try to admit a handoff; returns a granted request or ``None``."""
        if len(self.users) >= self._capacity:
            return None
        request = Request(self)
        return request if request.triggered else None
