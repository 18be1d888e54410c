"""Where the traced run records spans, and the per-layer metrics.

Each span wraps a public entry point of one layer of ``src/repro``.
Its self time (duration minus the spans it calls into) is charged to
that layer; time in code no span covers is charged to the enclosing
span, so ``sim`` self time is kernel dispatch plus any callback that
is not itself a layer entry point.
"""

from __future__ import annotations

import statistics

from repro.cellularip import CIPBaseStation, CIPMobileHost
from repro.experiments import runner
from repro.fluid.driver import FluidDriver
from repro.mobileip import ForeignAgent, HomeAgent, MobileIPNode
from repro.mobility import MobilityModel
from repro.multitier.architecture import MultiTierWorld
from repro.multitier.basestation import MultiTierBaseStation
from repro.multitier.correspondent import CorrespondentNode
from repro.multitier.mobile import MultiTierMobileNode
from repro.multitier.rsmc import RSMC
from repro.net.addressing import IPAddress
from repro.net.link import Link
from repro.net.node import Node
from repro.net.router import ForwardingTable, Router
from repro.net.topology import Network
from repro.radio.channel import SharedChannel
from repro.sim import Simulator
from repro.traffic import FlowSink
from repro.traffic.sources import TrafficSource

from spans import Tracer
from workloads import STACKS, run_pass

#: ``(layer, owner, attribute)`` of every span the traced run records.
SPANS = [
    ("setup", MultiTierWorld, "__init__"),
    ("sim", Simulator, "run"),
    ("net", Node, "send_via"),
    ("net", Node, "receive"),
    ("net", Link, "transmit"),
    ("net", Router, "forward"),
    ("net", ForwardingTable, "lookup"),
    ("net", Network, "install_routes"),
    ("multitier", MultiTierBaseStation, "receive"),
    ("multitier", RSMC, "receive"),
    ("multitier", CorrespondentNode, "originate"),
    ("multitier", MultiTierMobileNode, "originate"),
    ("multitier", MultiTierMobileNode, "deliver_local"),
    ("cellularip", CIPBaseStation, "receive"),
    ("cellularip", CIPBaseStation, "deliver_downlink"),
    ("cellularip", CIPMobileHost, "originate"),
    ("cellularip", CIPMobileHost, "deliver_local"),
    ("mobileip", HomeAgent, "forward"),
    ("mobileip", HomeAgent, "originate"),
    ("mobileip", ForeignAgent, "originate"),
    ("mobileip", MobileIPNode, "originate"),
    ("radio", SharedChannel, "submit"),
    ("radio", SharedChannel, "attach"),
    ("radio", SharedChannel, "admit"),
    ("radio", SharedChannel, "detach"),
    ("radio", SharedChannel, "set_background"),
    ("traffic", TrafficSource, "_emit"),
    ("traffic", FlowSink, "on_packet"),
    ("fluid", FluidDriver, "refresh"),
    ("experiments", runner, "_aggregate"),
    ("experiments", runner, "mean_confidence"),
]


def _mobility_models(cls=MobilityModel):
    for sub in cls.__subclasses__():
        yield sub
        yield from _mobility_models(sub)


def span_name(layer: str, owner, attr: str) -> str:
    return f"{layer}:{owner.__name__}.{attr}"


def install(tracer) -> None:
    """Wrap every layer entry point; call before any world is built."""
    for layer, owner, attr in SPANS:
        tracer.wrap(owner, attr, span_name(layer, owner, attr))
    for model in [MobilityModel, *_mobility_models()]:
        if "advance" in vars(model):
            tracer.wrap(model, "advance", span_name("mobility", model, "advance"))
    tracer.count(IPAddress, "__init__", "ipaddr")


def run_traced(workload: str, seed: int, counters):
    """One pass of ``workload`` under a fresh :class:`Tracer`."""
    tracer = Tracer()
    install(tracer)
    try:
        return run_pass(workload, seed, counters, tracer), tracer
    finally:
        tracer.restore()


def same_simulation(a, b) -> bool:
    """Whether two passes simulated the same thing: outputs and counters."""
    return a.outputs() == b.outputs() and (
        deterministic_counters(a) == deterministic_counters(b)
    )


#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "sim", "net", "multitier", "cellularip", "mobileip",
    "radio", "traffic", "mobility", "fluid", "experiments",
)


def _output_dicts(one_pass) -> list[dict]:
    """Every per-run metric dict of a pass (scenario or experiment)."""
    dicts = []
    for run in one_pass.runs:
        if isinstance(run.output, dict):
            dicts.append(run.output)
        dicts.extend(run.samples)
    return dicts


def deterministic_counters(one_pass) -> dict[str, float]:
    """Counters that repeat exactly for one ``(workload, seed)``."""
    counters = one_pass.counters
    dicts = _output_dicts(one_pass)
    return {
        "sim.worlds": counters["worlds"],
        "sim.events": counters["events"],
        "net.hops": counters["hops.data"] + counters["hops.signalling"],
        "net.hops.data": counters["hops.data"],
        "net.hops.signalling": counters["hops.signalling"],
        "net.packets": counters["packets"],
        "net.drops.queue": counters["drops.queue"],
        "net.drops.error": counters["drops.error"],
        "traffic.sent": sum(d.get("sent", 0.0) for d in dicts),
        "traffic.received": sum(d.get("received", 0.0) for d in dicts),
        "stack.handoffs": sum(d.get("handoffs", 0.0) for d in dicts),
        "radio.detach_drops": sum(d.get("air_detach_drops", 0.0) for d in dicts),
        "radio.busiest_downlink": max(
            (d.get("air_busiest_downlink", 0.0) for d in dicts), default=0.0
        ),
    }


def per_layer_metrics(untraced, traced, tracer, layer_seconds, import_s):
    """Every per-layer metric of one workload.

    ``untraced`` is a list of passes run with tracing off, ``traced``
    the pass run under ``tracer``, ``layer_seconds`` its self time per
    layer.  Counts come from ``traced`` (they equal the untraced ones);
    times that stand for the program's speed come from ``untraced``.
    """
    run_s = statistics.fmean(one_pass.run_s for one_pass in untraced)
    metrics = deterministic_counters(traced)
    spans = tracer.span_counts()

    metrics.update({
        "setup.import_s": import_s,
        "setup.build_s": layer_seconds.get("setup", 0.0),
        "sim.events_per_s": metrics["sim.events"] / run_s,
        "net.transmits": spans[span_name("net", Link, "transmit")],
        "net.ipaddr": tracer.counts["ipaddr"],
        "radio.submits": spans[span_name("radio", SharedChannel, "submit")],
        "mobility.advances": sum(
            n for name, n in spans.items() if name.startswith("mobility:")
        ),
        "fluid.refreshes": spans[span_name("fluid", FluidDriver, "refresh")],
        "trace.overhead": traced.run_s / run_s,
    })
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = layer_seconds.get(layer, 0.0)
    for stack in STACKS:
        metrics[f"stack.{stack}.run_s"] = statistics.fmean(
            sum(run.seconds for run in one_pass.runs if run.label == stack)
            for one_pass in untraced
        )
    return metrics


def layer_shares(layer_seconds: dict[str, float]) -> dict[str, float]:
    """Each layer's share of the traced pass's self time."""
    total = sum(layer_seconds.values())
    return {
        layer: round(seconds / total, 4)
        for layer, seconds in sorted(layer_seconds.items(), key=lambda kv: -kv[1])
    }
