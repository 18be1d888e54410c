"""The four comparable mobility schemes for the headline experiment
(E8, paper Fig 4.1) and reusable scenario pieces.

Each ``run_*`` function builds its own world, streams a downlink CBR
flow from a correspondent to one mobile while the mobile performs a
fixed schedule of handoffs, and returns the same metric dict:

``loss_rate, mean_delay, jitter, max_gap, duplicates, handoff_count``

* ``run_mobileip``   — plain Mobile IP, one FA per cell, every move is
  a full home registration (losses during the registration RTT).
* ``run_cip_hard``   — flat Cellular IP, hard handoff.
* ``run_cip_semisoft`` — flat Cellular IP, semisoft handoff.
* ``run_multitier_rsmc`` — the paper's scheme.
"""

from __future__ import annotations

from typing import Optional

from repro.cellularip import CIPBaseStation, CIPDomain, CIPGateway, CIPMobileHost
from repro.mobileip import ForeignAgent, HomeAgent, MobileIPNode, install_home_prefix_routes
from repro.multitier.architecture import MultiTierWorld
from repro.net import Network, Router, ip
from repro.sim import Simulator
from repro.traffic import CBRSource, FlowSink

#: Stream parameters shared by every scheme in E8.
DEFAULT_RATE_BPS = 200e3
DEFAULT_PACKET_SIZE = 500


def _stream_and_measure(
    sim: Simulator,
    send_fn,
    sink_node_hooks: list,
    src_address,
    dst_address,
    duration: float,
    rate_bps: float,
    packet_size: int,
) -> tuple[CBRSource, FlowSink]:
    """Start a CBR downlink stream and a sink attached via hooks."""
    sink = FlowSink()
    sink_node_hooks.append(sink.bind(sim))
    source = CBRSource(
        sim,
        send_fn,
        src=src_address,
        dst=dst_address,
        rate_bps=rate_bps,
        packet_size=packet_size,
        duration=duration,
    ).start()
    sink.flow_id = source.flow_id
    return source, sink


def _metrics(source: CBRSource, sink: FlowSink, handoffs: int) -> dict[str, float]:
    return {
        "loss_rate": sink.loss_rate(source.packets_sent),
        "lost": float(sink.lost(source.packets_sent)),
        "mean_delay": sink.mean_delay(),
        "jitter": sink.jitter(),
        "max_gap": sink.max_gap(),
        "duplicates": float(sink.duplicates),
        "received": float(sink.received),
        "sent": float(source.packets_sent),
        "handoff_count": float(handoffs),
    }


# ----------------------------------------------------------------------
# Scheme 1: pure Mobile IP
# ----------------------------------------------------------------------
def run_mobileip(
    seed: int = 0,
    handoffs: int = 6,
    handoff_interval: float = 2.0,
    duration: float = 16.0,
    home_delay: float = 0.025,
    rate_bps: float = DEFAULT_RATE_BPS,
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> dict[str, float]:
    """One FA per cell; every cell change re-registers with the HA."""
    sim = Simulator()
    network = Network(sim)
    core = network.router("core")
    cn = network.host("cn")
    ha = HomeAgent(sim, "ha", network.allocator.allocate(), "10.99.0.0/16")
    agents = []
    for index in range(4):
        agent = ForeignAgent(sim, f"fa{index}", network.allocator.allocate())
        network.add(agent)
        network.connect(agent, core, delay=0.005)
        agents.append(agent)
    network.add(ha)
    network.connect(cn, core, delay=0.005)
    network.connect(ha, core, delay=home_delay)
    network.install_routes()
    install_home_prefix_routes(network, ha)

    mn = MobileIPNode(
        sim, "mn", home_address="10.99.0.5", home_agent_address=ha.address
    )
    agents[0].attach_mobile(mn)
    sim.run(until=1.0)

    source, sink = _stream_and_measure(
        sim,
        lambda packet: core.receive(packet) or True,
        mn.on_data,
        cn.address,
        mn.home_address,
        duration,
        rate_bps,
        packet_size,
    )

    def mover():
        for index in range(handoffs):
            yield sim.timeout(handoff_interval)
            old = agents[index % len(agents)]
            new = agents[(index + 1) % len(agents)]
            old.detach_mobile(mn)
            new.attach_mobile(mn)

    sim.process(mover())
    sim.run(until=1.0 + duration + 4.0)
    return _metrics(source, sink, handoffs)


# ----------------------------------------------------------------------
# Schemes 2 & 3: flat Cellular IP (hard / semisoft)
# ----------------------------------------------------------------------
def build_cip_world(
    route_timeout: float = 5.0,
    semisoft_delay: float = 0.05,
    wired_delay: float = 0.005,
):
    """Gateway over two relays over four leaf base stations."""
    sim = Simulator()
    domain = CIPDomain(
        sim,
        route_timeout=route_timeout,
        semisoft_delay=semisoft_delay,
        wired_delay=wired_delay,
    )
    network = Network(sim)
    gw = CIPGateway(sim, "gw", network.allocator.allocate(), domain)
    relays = [
        CIPBaseStation(sim, f"m{index}", network.allocator.allocate(), domain)
        for index in range(2)
    ]
    leaves = [
        CIPBaseStation(sim, f"bs{index}", network.allocator.allocate(), domain)
        for index in range(4)
    ]
    for node in [gw, *relays, *leaves]:
        network.add(node)
    domain.link(gw, relays[0])
    domain.link(gw, relays[1])
    domain.link(relays[0], leaves[0])
    domain.link(relays[0], leaves[1])
    domain.link(relays[1], leaves[2])
    domain.link(relays[1], leaves[3])

    internet = Router(sim, "internet", network.allocator.allocate())
    cn = network.host("cn")
    network.add(internet)
    network.connect(cn, internet, delay=0.005)
    gw.connect_internet(internet, delay=0.005)
    internet.add_route("10.200.0.0/16", gw)
    internet.add_host_route(cn.address, cn)
    mn = CIPMobileHost(sim, "mn", ip("10.200.0.1"), domain)
    return sim, domain, gw, leaves, internet, cn, mn


def _run_cip(
    semisoft: bool,
    seed: int,
    handoffs: int,
    handoff_interval: float,
    duration: float,
    rate_bps: float,
    packet_size: int,
) -> dict[str, float]:
    sim, domain, gw, leaves, internet, cn, mn = build_cip_world()
    mn.attach_to(leaves[0])
    sim.run(until=1.0)

    source, sink = _stream_and_measure(
        sim,
        lambda packet: internet.receive(packet) or True,
        mn.on_data,
        cn.address,
        mn.address,
        duration,
        rate_bps,
        packet_size,
    )

    def mover():
        for index in range(handoffs):
            yield sim.timeout(handoff_interval)
            target = leaves[(index + 1) % len(leaves)]
            if semisoft:
                yield sim.process(mn.handoff_semisoft(target))
            else:
                mn.handoff_hard(target)

    sim.process(mover())
    sim.run(until=1.0 + duration + 4.0)
    return _metrics(source, sink, handoffs)


def run_cip_hard(
    seed: int = 0,
    handoffs: int = 6,
    handoff_interval: float = 2.0,
    duration: float = 16.0,
    rate_bps: float = DEFAULT_RATE_BPS,
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> dict[str, float]:
    return _run_cip(
        False, seed, handoffs, handoff_interval, duration, rate_bps, packet_size
    )


def run_cip_semisoft(
    seed: int = 0,
    handoffs: int = 6,
    handoff_interval: float = 2.0,
    duration: float = 16.0,
    rate_bps: float = DEFAULT_RATE_BPS,
    packet_size: int = DEFAULT_PACKET_SIZE,
) -> dict[str, float]:
    return _run_cip(
        True, seed, handoffs, handoff_interval, duration, rate_bps, packet_size
    )


# ----------------------------------------------------------------------
# Scheme 4: the paper's multi-tier + RSMC
# ----------------------------------------------------------------------
def run_multitier_rsmc(
    seed: int = 0,
    handoffs: int = 6,
    handoff_interval: float = 2.0,
    duration: float = 16.0,
    home_delay: float = 0.025,
    rate_bps: float = DEFAULT_RATE_BPS,
    packet_size: int = DEFAULT_PACKET_SIZE,
    domain_kwargs: Optional[dict] = None,
) -> dict[str, float]:
    world = MultiTierWorld(
        home_delay=home_delay, domain_kwargs=dict(domain_kwargs or {})
    )
    sim = world.sim
    d1 = world.domain1
    cells = [d1["B"], d1["C"], d1["E"], d1["F"]]
    mn = world.add_mobile("mn")
    assert mn.initial_attach(cells[0])
    sim.run(until=1.0)

    source_box = {}

    def send(packet):
        # Route-optimizable send: honour the CN's RSMC binding.
        return world.cn.send_to_mobile(
            mn.home_address,
            size=packet.size,
            flow_id=packet.flow_id,
            seq=packet.seq,
            created_at=packet.created_at,
        )

    source, sink = _stream_and_measure(
        sim,
        send,
        mn.on_data,
        world.cn.address,
        mn.home_address,
        duration,
        rate_bps,
        packet_size,
    )
    source_box["source"] = source

    def mover():
        for index in range(handoffs):
            yield sim.timeout(handoff_interval)
            target = cells[(index + 1) % len(cells)]
            yield from mn.perform_handoff(target)

    sim.process(mover())
    sim.run(until=1.0 + duration + 4.0)
    metrics = _metrics(source, sink, handoffs)
    metrics["buffered"] = float(d1.rsmc.buffered_packets)
    metrics["handoff_latency"] = (
        sum(mn.handoff_latencies) / len(mn.handoff_latencies)
        if mn.handoff_latencies
        else float("nan")
    )
    return metrics


#: Registry used by E8 and the examples.
SCHEMES = {
    "mobile-ip": run_mobileip,
    "cip-hard": run_cip_hard,
    "cip-semisoft": run_cip_semisoft,
    "multitier-rsmc": run_multitier_rsmc,
}


def run_scheme(name: str, seed: int = 0, **kwargs) -> dict[str, float]:
    """Run one named scheme — the execution-engine job entry point used
    by E8's scheme-comparison grid."""
    try:
        runner = SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; available: {', '.join(SCHEMES)}"
        ) from None
    return runner(seed, **kwargs)
