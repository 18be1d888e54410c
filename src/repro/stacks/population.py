"""Stack-independent population and traffic planning.

Every protocol-stack adapter (multi-tier, Cellular IP, Mobile IP)
builds from one :class:`Population`, planned once per
``(ScenarioSpec, seed)`` by :meth:`Population.plan`: the same
per-mobile mobility models, start positions, traffic-kind assignments
and hotspot selections, drawn from the same named
:class:`~repro.sim.rng.RandomStreams`.  That is what makes a
cross-stack comparison apples-to-apples — for one ``(spec, seed)``
pair, mobile ``mn3`` walks the identical trajectory and receives the
identical offered traffic under every stack; only the mobility
management underneath differs.

The stream names (``mn<i>.start.x``, ``assign.traffic``,
``<flow>.talkspurts``, ...) are part of the determinism contract and
must not change — the committed goldens depend on them.

Determinism: every function here is a pure function of
``(spec, streams, ...)`` inputs; all randomness flows through the named
streams, so the same ``(spec, seed)`` pair produces identical
populations and flow plans in any process, on any execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.mobility import (
    GaussMarkov,
    Highway,
    ManhattanGrid,
    MobilityModel,
    RandomDirection,
    RandomWaypoint,
    Stationary,
)
from repro.net.packet import Packet
from repro.radio.geometry import Point, Rectangle
from repro.sim.rng import RandomStreams
from repro.traffic import (
    CBRSource,
    ElasticSource,
    FlowSink,
    OnOffSource,
    PoissonSource,
    TrafficSource,
    VBRVideoSource,
    make_ack_hook,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.kernel import Simulator

#: Default roaming areas: stay just inside continuous radio coverage.
_ROAM_ONE_DOMAIN = (-4200.0, -1200.0, 4200.0, 1200.0)
_ROAM_TWO_DOMAINS = (-4200.0, -1200.0, 7000.0, 1200.0)

#: Nominal downlink demand (bit/s) per traffic kind — the bandwidth
#: factor of the paper's three-factor handoff decision (§3.2).
BANDWIDTH_DEMAND = {
    "idle": 0.0,
    "cbr-voice": 64e3,
    "onoff-voice": 64e3,
    "vbr-video": 128e3,
    "poisson-data": 80e3,
    "elastic-data": 256e3,
}

#: Mobility models slow enough to camp in a 60 m pico cell.
PICO_FRIENDLY_MODELS = {"stationary", "waypoint", "manhattan", "gauss-markov"}


def roam_rectangle(spec: "ScenarioSpec") -> Rectangle:
    """The area the spec's population roams.

    Returns the spec's explicit ``roam`` rectangle when set, otherwise
    a default strip just inside continuous radio coverage for the
    spec's domain count.  Deterministic: pure function of the spec.
    """
    if spec.roam is not None:
        return Rectangle(*spec.roam)
    bounds = _ROAM_TWO_DOMAINS if spec.domains == 2 else _ROAM_ONE_DOMAIN
    return Rectangle(*bounds)


def make_mobility(
    kind: str, index: int, streams: RandomStreams, roam: Rectangle, start: Point
) -> MobilityModel:
    """One mobility model instance, randomness scoped to this mobile."""
    rng = streams.stream(f"mn{index}.mobility")
    if kind == "stationary":
        return Stationary(start, roam)
    if kind == "waypoint":
        return RandomWaypoint(
            start, roam, rng, speed_range=(0.8, 2.0), pause_range=(0.0, 8.0)
        )
    if kind == "manhattan":
        block = min(200.0, roam.width / 4, roam.height / 2)
        return ManhattanGrid(start, roam, rng, block_size=block, speed=8.0)
    if kind == "highway":
        # Vehicles drive a lane across the middle of the roam area.
        lane = Point(start.x, roam.center.y)
        speed = streams.uniform(f"mn{index}.speed", 22.0, 33.0)
        return Highway(lane, roam, rng, speed=speed, wrap=True, speed_jitter=1.0)
    if kind == "gauss-markov":
        return GaussMarkov(start, roam, rng, mean_speed=5.0)
    if kind == "random-direction":
        return RandomDirection(start, roam, rng, speed=10.0)
    raise ValueError(f"unknown mobility model {kind!r}")


@dataclass(frozen=True)
class Population:
    """The shared population of one ``(spec, seed)``, planned once.

    Every stack builds from this record, so for one seed each mobile
    walks the same trajectory and receives the same offered traffic
    under every stack.  Fields: the run's named ``streams``, the
    ``roam`` rectangle, per-mobile ``mobility`` model names and
    ``traffic`` kinds, the sorted ``hotspots`` indices and the seeded
    ``starts``.  Deterministic: :meth:`plan` is a pure function of
    ``(spec, seed)``; later draws go through the same named streams.
    """

    spec: "ScenarioSpec"
    streams: RandomStreams
    roam: Rectangle
    mobility: list[str]
    traffic: list[str]
    hotspots: list[int]
    starts: list[Point]

    @classmethod
    def plan(cls, spec: "ScenarioSpec", seed: int) -> "Population":
        """Apportion and place the population of ``(spec, seed)``.

        Mobility and traffic counts come from the exact
        largest-remainder apportionment; the pairing between the two
        lists is decorrelated by a seeded shuffle (``assign.traffic``)
        so mixes cross instead of aligning block-by-block, and the
        hotspot mobiles are a seeded pick (``assign.hotspots``).  Start
        positions draw ``mn<i>.start.x`` / ``.y`` once per mobile.
        """
        streams = RandomStreams(int(seed))
        roam = roam_rectangle(spec)
        mobility = [
            name
            for name, count in spec.mobility_counts().items()
            for _ in range(count)
        ]
        traffic = [
            kind
            for kind, count in spec.traffic_counts().items()
            for _ in range(count)
        ]
        order = streams.stream("assign.traffic").permutation(spec.population)
        traffic = [traffic[position] for position in order]
        hotspots = sorted(
            int(i)
            for i in streams.stream("assign.hotspots").permutation(
                spec.population
            )[: spec.hotspot_count()]
        )
        starts = [
            Point(
                streams.uniform(f"mn{index}.start.x", roam.x_min, roam.x_max),
                streams.uniform(f"mn{index}.start.y", roam.y_min, roam.y_max),
            )
            for index in range(spec.population)
        ]
        return cls(spec, streams, roam, mobility, traffic, hotspots, starts)

    def model(self, index: int) -> MobilityModel:
        """Mobile ``index``'s mobility model (see :func:`make_mobility`)."""
        return make_mobility(
            self.mobility[index], index, self.streams, self.roam,
            self.starts[index],
        )

    def pico_placements(
        self, leaf_centers: dict[str, Point]
    ) -> list[tuple[str, Point]]:
        """Per-pico ``(parent leaf name, center)`` placements, every stack.

        The single source of truth for where the spec's pico cells go,
        shared by the multi-tier world builder and the baselines' flat
        cell layout so the cross-stack "same geometry" guarantee cannot
        drift:

        * legacy mode (contention off): the historic fixed offsets —
          pico ``i`` hangs under leaf ``i mod len(leaves)``, ±150 m
          alternating by deployment round;
        * contention mode: cells go where the load is.  The paper's
          in-building picos exist to absorb multimedia load the wide
          tiers cannot carry, so each pico sits at the start position
          of a slow, traffic-bearing mobile (wrapping over the
          candidates when picos outnumber them), parented to the
          nearest leaf (ties broken by ``leaf_centers`` insertion
          order).

        ``leaf_centers`` maps candidate parent leaves (the multi-tier
        micro leaves B/C/E/F) to their cell centers, in tie-break order.
        """
        spec = self.spec
        leaves = list(leaf_centers)
        if spec.channels_enabled():
            candidates = [
                index
                for index in range(spec.population)
                if self.mobility[index] in PICO_FRIENDLY_MODELS
                and self.traffic[index] != "idle"
            ] or list(range(spec.population))
            sites = [
                self.starts[candidates[pico % len(candidates)]]
                for pico in range(spec.pico_cells)
            ]
            return [
                (
                    min(
                        leaves,
                        key=lambda name: leaf_centers[name].distance_to(center),
                    ),
                    center,
                )
                for center in sites
            ]
        placements: list[tuple[str, Point]] = []
        for pico in range(spec.pico_cells):
            parent = leaves[pico % len(leaves)]
            side = 1 if (pico // len(leaves)) % 2 == 0 else -1
            placements.append((
                parent,
                Point(
                    leaf_centers[parent].x + side * 150.0,
                    leaf_centers[parent].y,
                ),
            ))
        return placements

    def plan_flows(
        self,
        sim: "Simulator",
        ack_dispatcher: "ElasticAckDispatcher",
        mobiles: list,
        downlink: Callable[[Packet], bool],
        cn_address,
        address: Callable[[object], object],
    ) -> list["FlowPlan"]:
        """Plan every flow of the run: one per mobile, then the hotspots.

        ``mobiles`` are the stack's mobile nodes in population order;
        each must carry an ``on_data`` hook list and an ``originate``
        uplink.  ``downlink`` is the CN-side injection callable,
        ``cn_address`` the flows' source and ``address(mobile)`` their
        destination.  Flash-crowd hotspot mobiles get
        ``spec.hotspot_flows`` extra Poisson correspondent flows each,
        planned after every mobile's own flow.  Planning schedules no
        event, so it may follow world assembly without reordering it.
        """
        spec = self.spec

        def plan(kind: str, index: int, flow_id: str) -> Optional[FlowPlan]:
            mobile = mobiles[index]
            return plan_flow(
                sim, kind, flow_id, self.streams, ack_dispatcher, downlink,
                mobile.on_data, mobile.originate, cn_address, address(mobile),
            )

        plans = [
            plan(kind, index, f"{spec.name}.mn{index}")
            for index, kind in enumerate(self.traffic)
        ]
        return [p for p in plans if p is not None] + [
            plan("poisson-data", index, f"{spec.name}.mn{index}.hot{flow}")
            for index in self.hotspots
            for flow in range(spec.hotspot_flows)
        ]


class ElasticAckDispatcher:
    """One CN-side 'ack' handler fanning out to every elastic source.

    :meth:`repro.net.node.Node.on_protocol` keeps a single handler per
    protocol, so scenarios with several elastic flows route all acks
    through this dispatcher, matched by flow id.  Shared by every stack
    adapter — the CN end of the elastic feedback loop is
    stack-independent.
    """

    def __init__(self) -> None:
        self.sources: dict[str, ElasticSource] = {}

    def register(self, source: ElasticSource) -> None:
        """Route acks carrying ``source.flow_id`` to ``source``."""
        self.sources[source.flow_id] = source

    def __call__(self, packet: Packet, link) -> None:
        """Dispatch one received ack to its flow's elastic source."""
        source = self.sources.get(packet.flow_id)
        if source is not None:
            source.acknowledge(packet.payload)


@dataclass
class FlowPlan:
    """A traffic flow scheduled to start after warmup."""

    flow_id: str
    kind: str
    start: Callable[[float], TrafficSource]  # duration -> started source
    sink: FlowSink


def plan_flow(
    sim: "Simulator",
    kind: str,
    flow_id: str,
    streams: RandomStreams,
    ack_dispatcher: ElasticAckDispatcher,
    send: Callable[[Packet], bool],
    data_hooks: list,
    ack_reply: Callable[[Packet], object],
    src_address,
    dst_address,
) -> Optional[FlowPlan]:
    """Plan one downlink flow of ``kind``, stack-independently.

    ``send`` is the CN-side downlink injection callable the stack
    provides (route-optimized tunnelling for multi-tier, plain Internet
    routing for the baselines); ``data_hooks`` is the mobile-side hook
    list fired per received data packet; ``ack_reply`` originates the
    elastic ack uplink from the mobile.  Stream names
    (``<flow>.talkspurts`` etc.) are shared across stacks, so the same
    ``(spec, seed)`` pair offers identical traffic under every stack.
    Returns ``None`` for ``"idle"``.
    """
    if kind == "idle":
        return None
    sink = FlowSink(flow_id=flow_id)
    data_hooks.append(sink.bind(sim))

    def start(duration: float) -> TrafficSource:
        if kind == "cbr-voice":
            source = CBRSource(
                sim, send, src_address, dst_address,
                rate_bps=64e3, packet_size=200,
                duration=duration, flow_id=flow_id,
            )
        elif kind == "onoff-voice":
            source = OnOffSource(
                sim, send, src_address, dst_address,
                rng=streams.stream(f"{flow_id}.talkspurts"),
                rate_bps=64e3, packet_size=200,
                duration=duration, flow_id=flow_id,
            )
        elif kind == "vbr-video":
            source = VBRVideoSource(
                sim, send, src_address, dst_address,
                rng=streams.stream(f"{flow_id}.frames"),
                mean_rate_bps=128e3, frame_rate=12.5, mtu=1000,
                duration=duration, flow_id=flow_id,
            )
        elif kind == "poisson-data":
            source = PoissonSource(
                sim, send, src_address, dst_address,
                rng=streams.stream(f"{flow_id}.arrivals"),
                mean_rate_pps=20.0, packet_size=500,
                duration=duration, flow_id=flow_id,
            )
        elif kind == "elastic-data":
            source = ElasticSource(
                sim, send, src_address, dst_address,
                packet_size=1000, duration=duration, flow_id=flow_id,
            )
            ack_dispatcher.register(source)
            data_hooks.append(make_ack_hook(sim, ack_reply, flow_id=flow_id))
        else:  # pragma: no cover - spec validation rejects this earlier
            raise ValueError(f"unknown traffic kind {kind!r}")
        return source.start()

    return FlowPlan(flow_id=flow_id, kind=kind, start=start, sink=sink)


__all__ = [
    "BANDWIDTH_DEMAND",
    "PICO_FRIENDLY_MODELS",
    "ElasticAckDispatcher",
    "FlowPlan",
    "Population",
    "make_mobility",
    "plan_flow",
    "roam_rectangle",
]
