"""In-memory spans, method wrappers and self-time arithmetic.

A :class:`Tracer` records one span per call of each wrapped function:
its name, start, end and the span that was open when it began (its
parent).  Spans live in flat typed arrays so a run of several million
spans stays compact; :meth:`Tracer.dump` writes them out once, at the
end.

Wrappers replace class or module attributes in place.  They must be
installed before the worlds they observe are built, because nodes and
links bind handler methods (``link.receiver = node.receive``) at build
time.  :meth:`Patches.restore` puts every original back.

A span name is ``"<layer>:<what>"``; :func:`layer_self_times` groups
self time by the part before the colon.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Patches:
    """Attribute replacements that can all be undone, last first."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Set ``owner.attr`` to ``make_wrapper(original)``.

        ``owner`` is a class or a module.  Only plain functions defined
        on ``owner`` itself are wrapped, so a subclass that inherits a
        method is never patched twice through its parent.
        """
        original = vars(owner)[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    """Span recorder over wrapped functions."""

    def __init__(self, clock=time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        #: Calls of functions wrapped by :meth:`count` (no span).
        self.counts: Counter[str] = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _opener(self, name: str):
        """Return ``open() -> index`` and ``close(index)`` for one name."""
        nid = self._name_id(name)
        stack, clock = self._stack, self.clock
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends

        def open_span() -> int:
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        return open_span, close_span

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call."""
        open_span, close_span = self._opener(name)

        def make(original):
            def traced(*args, **kwargs):
                index = open_span()
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(index)

            return traced

        self.replace(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count ``owner.attr`` calls under ``name``, without a span."""
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self.replace(owner, attr, make)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        open_span, close_span = self._opener(name)
        index = open_span()
        try:
            yield
        finally:
            close_span(index)

    def span_counts(self) -> Counter[str]:
        """Number of spans per name."""
        per_id = Counter(self.name_ids)
        return Counter({self.names[nid]: n for nid, n in per_id.items()})

    def dump(self, path: Path) -> None:
        """Write every span as columns of a ``.npz`` file."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )


def self_times(tracer: Tracer):
    """Self time of each span: its duration minus its children's.

    Spans nest (calls are synchronous), so the children of one span
    never overlap and their durations add up to the part of it they
    cover.  Returns a float array indexed like the spans.
    """
    import numpy as np

    parent = np.frombuffer(tracer.parents, dtype=np.int32)
    duration = np.frombuffer(tracer.ends, dtype=np.float64) - np.frombuffer(
        tracer.starts, dtype=np.float64
    )
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix before ``:``)."""
    import numpy as np

    per_name = np.bincount(
        np.frombuffer(tracer.name_ids, dtype=np.int32),
        weights=self_times(tracer),
        minlength=len(tracer.names),
    )
    layers: dict[str, float] = {}
    for nid, seconds in enumerate(per_name):
        layer = tracer.names[nid].split(":", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + float(seconds)
    return layers
