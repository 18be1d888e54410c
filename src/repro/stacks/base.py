"""The stack-adapter contract: one protocol stack behind one scenario.

A :class:`StackAdapter` turns a ``(ScenarioSpec, seed)`` pair into a
ready-to-run world under one mobility-management protocol stack —
the paper's multi-tier architecture, flat Cellular IP, or flat Mobile
IP — wiring the *same* :class:`~repro.stacks.population.Population` over
stack-specific machinery.  The returned :class:`BuiltRun` executes
warmup → traffic → drain and collects a metric dict.

Metric contract
---------------
* Every stack emits :data:`COMMON_METRICS` (plain, never-NaN floats) —
  the keys the cross-stack comparison table aligns on — through the
  one collector :meth:`BuiltRun.collect_metrics`.
* Stack-specific extras are namespaced ``<prefix>.<key>`` (e.g.
  ``cip.route_updates``, ``mip.tunneled``) per the adapter's
  :attr:`~StackAdapter.metric_namespace`.  The multi-tier adapter's
  historical extras (``blocked_attaches``, ``via_binding_fraction``)
  predate the namespace convention and are grandfathered un-prefixed:
  they are pinned byte-for-byte by the committed golden tables.
* Contention-mode runs additionally emit ``air_busiest_downlink`` /
  ``air_detach_drops`` (never in legacy mode — legacy tables must not
  grow keys).

Determinism: adapters draw all randomness from the run seed through
named :class:`~repro.sim.rng.RandomStreams`, so one
``(stack, spec, seed)`` triple returns byte-identical metrics in any
process, on any execution backend — the property the cross-stack
comparison table and CI parity gates rely on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.fluid.driver import FluidDriver
    from repro.net.topology import Network
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.kernel import Simulator
    from repro.stacks.population import FlowPlan, Population
    from repro.traffic import FlowSink, TrafficSource

#: Metric keys every stack adapter emits, in canonical order — the
#: rows of the cross-stack comparison table.
COMMON_METRICS: tuple[str, ...] = (
    "population",
    "flows",
    "sent",
    "received",
    "loss_rate",
    "mean_delay",
    "jitter",
    "max_gap",
    "handoffs",
    "handoff_latency",
    "attached",
    "elastic_goodput_bps",
    "hop_total",
)


def _mean(values: list[float]) -> float:
    return (sum(values) / len(values)) if values else 0.0


@dataclass(kw_only=True)
class BuiltRun:
    """One assembled (not yet run) world and its planned traffic.

    What :meth:`StackAdapter.build` returns.  The fields every stack
    shares live here; each stack's subclass adds only its own world
    handles and implements :meth:`collect`.  :meth:`execute` is the one
    run protocol of every stack, so no stack can drift onto a different
    measurement window and skew the side-by-side comparison.
    """

    spec: "ScenarioSpec"
    seed: int
    sim: "Simulator"
    network: "Network"
    population: "Population"
    mobiles: list
    controllers: list
    flow_plans: list["FlowPlan"]
    fluid_driver: Optional["FluidDriver"] = None
    sources: list["TrafficSource"] = field(default_factory=list)
    sinks: list["FlowSink"] = field(default_factory=list)

    def execute(self) -> dict[str, float]:
        """Run warmup → traffic window → drain; return :meth:`collect`.

        Simulates ``spec.warmup`` seconds, starts every planned flow
        (appending the started sources and their sinks to
        :attr:`sources` / :attr:`sinks`), then simulates the traffic
        window plus ``spec.drain``.  Deterministic: pure simulation
        drive.
        """
        spec = self.spec
        self.sim.run(until=spec.warmup)
        for plan in self.flow_plans:
            self.sources.append(plan.start(spec.duration))
            self.sinks.append(plan.sink)
        self.sim.run(until=spec.warmup + spec.duration + spec.drain)
        return self.collect()

    def collect(self) -> dict[str, float]:
        """The stack's metric dict, via :meth:`collect_metrics`."""
        raise NotImplementedError

    def collect_metrics(
        self,
        *,
        handoffs: int,
        handoff_latencies: list[float],
        attached: int,
        extras: dict[str, float],
        channels: list,
        policy: "dict[str, float] | None" = None,
        order: "tuple[str, ...] | None" = None,
    ) -> dict[str, float]:
        """One run's metric dict, read from its live sources and sinks.

        The single collection path of every stack.  Each stack's
        :meth:`collect` passes only its own mobility counters
        (``handoffs``, the per-handoff ``handoff_latencies`` in a fixed
        order, the ``attached`` count) and its ``extras``; this method
        computes the common slice with one set of formulas, so
        cross-stack columns are comparable.

        Key order is what tables render: the traffic keys
        ``population`` … ``max_gap`` and ``elastic_goodput_bps``, then
        ``handoffs``, ``handoff_latency``, ``attached``, ``hop_total``
        and the ``extras`` — unless ``order`` names those keys in
        another order (the multi-tier table's golden-pinned layout).
        Gated families follow, each only when the spec asks for it so
        default tables keep their shape: ``air_*`` over ``channels``
        (the busiest cell's downlink utilization and the airtime
        cancelled by claim detaches; ``None`` entries are cells without
        a channel) when shared channels are enabled, the adapter's
        ``policy`` counters, and the ``fluid.*`` family of
        :attr:`fluid_driver`.

        Deterministic: pure arithmetic over the run's counters; all
        values are plain floats and never NaN.
        """
        spec, sinks = self.spec, self.sinks
        sent = sum(source.packets_sent for source in self.sources)
        received = sum(sink.received for sink in sinks)
        goodput = [
            plan.sink.bytes_received * 8.0 / spec.duration
            for plan in self.flow_plans
            if plan.kind == "elastic-data"
        ]
        gaps = [sink.max_gap() for sink in sinks if sink.received > 1]
        metrics = {
            "population": float(spec.population),
            "flows": float(len(self.flow_plans)),
            "sent": float(sent),
            "received": float(received),
            "loss_rate": (1.0 - received / sent) if sent else 0.0,
            "mean_delay": _mean(
                [sink.mean_delay() for sink in sinks if sink.received > 0]
            ),
            "jitter": _mean([sink.jitter() for sink in sinks if sink.received > 1]),
            "max_gap": max(gaps) if gaps else 0.0,
            "elastic_goodput_bps": _mean(goodput),
            "handoffs": float(handoffs),
            "handoff_latency": _mean(handoff_latencies),
            "attached": float(attached),
            "hop_total": float(sum(self.network.protocol_hop_totals().values())),
            **extras,
        }
        if order is not None:
            metrics = {key: metrics[key] for key in order}
        if spec.channels_enabled():
            from repro.radio.channel import DOWNLINK, UPLINK

            live = [channel for channel in channels if channel is not None]
            window = spec.warmup + spec.duration + spec.drain
            busiest = max(
                (channel.stats.busy_seconds[DOWNLINK] for channel in live),
                default=0.0,
            )
            metrics["air_busiest_downlink"] = busiest / window
            metrics["air_detach_drops"] = float(
                sum(
                    channel.stats.dropped_on_detach[DOWNLINK]
                    + channel.stats.dropped_on_detach[UPLINK]
                    for channel in live
                )
            )
        if policy is not None:
            metrics.update(policy)
        if self.fluid_driver is not None:
            metrics.update(self.fluid_driver.metrics())
        return metrics


class StackAdapter(abc.ABC):
    """One pluggable protocol stack the scenario engine can drive.

    Subclasses implement :meth:`build`; everything else — the registry,
    the CLI ``--stack`` flag, :func:`repro.scenarios.compare` — works
    against this interface, so registering a fourth stack is one class
    plus one :func:`repro.stacks.registry.register_stack` call (see
    ``docs/STACKS.md``).
    """

    #: Registry key (the value of ``ScenarioSpec.stack``).
    name: str = ""
    #: One line shown by ``repro scenario describe``.
    description: str = ""
    #: Prefix of this stack's namespaced metric extras ("" = none).
    metric_namespace: str = ""

    @abc.abstractmethod
    def build(self, spec: "ScenarioSpec", seed: int) -> BuiltRun:
        """Assemble the (not yet run) world for one ``(spec, seed)``.

        Must build from :meth:`Population.plan(spec, seed)
        <repro.stacks.population.Population.plan>` so trajectories and
        offered traffic match the other stacks for the same seed.
        """

    def run(self, spec: "ScenarioSpec", seed: int) -> dict[str, float]:
        """Build and execute one run — the execution-backend job body."""
        return self.build(spec, seed).execute()

    def exercised(self, spec: "ScenarioSpec") -> list[str]:
        """The adapter features ``spec`` exercises, for ``describe``.

        The base implementation reports the stack-independent spec
        surface (population/traffic plan, hotspots, shared air
        interface); adapters append their stack-specific fields.
        """
        features = ["mobility+traffic mix (shared population plan)"]
        if spec.hotspot_fraction > 0:
            features.append(
                f"hotspot correspondent flows ({spec.hotspot_count()} x "
                f"{spec.hotspot_flows})"
            )
        if "elastic-data" in spec.traffic_mix:
            features.append("elastic ack uplink")
        if spec.channels_enabled():
            features.append("shared air-interface contention")
        return features


__all__ = [
    "COMMON_METRICS",
    "BuiltRun",
    "StackAdapter",
]
