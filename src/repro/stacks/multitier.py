"""The multi-tier stack adapter: the paper's architecture (default).

The multi-tier world assembly behind the
:class:`~repro.stacks.base.StackAdapter` interface: a
:class:`~repro.multitier.architecture.MultiTierWorld` (one or two
domains, optional pico cells, optional shared air interface), the
shared :class:`~repro.stacks.population.Population`, per-mobile
:class:`~repro.multitier.architecture.MobilityController`\\ s applying
the three-factor handoff decision, and RSMC route optimization at the
correspondent.

Byte-identity contract: for any spec with ``stack="multitier"`` (the
default) this adapter's build order, stream names and metric
collection are IDENTICAL to the pre-refactor builder — pinned by the
``results/scenarios_smoke/`` goldens and the 16 experiment tables.

Determinism: all randomness flows through named
:class:`~repro.sim.rng.RandomStreams` keyed by mobile index, so the
same ``(spec, seed)`` pair builds an identical world and returns
byte-identical metrics on any execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fluid.driver import fluid_channel_pairs, install_fluid_background
from repro.multitier.architecture import MobilityController, MultiTierWorld
from repro.multitier.mobile import MultiTierMobileNode
from repro.net.packet import Packet
from repro.policy.decider import TierDecider
from repro.radio.channel import ChannelPlan
from repro.stacks.base import BuiltRun, StackAdapter
from repro.stacks.population import (
    BANDWIDTH_DEMAND,
    ElasticAckDispatcher,
    Population,
)
from repro.stacks.registry import register_stack

if TYPE_CHECKING:  # pragma: no cover - annotations only (import cycle)
    from repro.scenarios.spec import ScenarioSpec

#: The multi-tier table's golden-pinned key order: the common keys with
#: the two grandfathered extras in their historical slots.
METRIC_ORDER = (
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
    "blocked_attaches",
    "attached",
    "via_binding_fraction",
    "elastic_goodput_bps",
    "hop_total",
)


@dataclass(kw_only=True)
class BuiltScenario(BuiltRun):
    """A fully assembled multi-tier world plus its planned traffic."""

    world: MultiTierWorld

    def collect(self) -> dict[str, float]:
        """The multi-tier metric dict (golden-pinned key order)."""
        world, spec = self.world, self.spec
        cn = world.cn
        routed = cn.sent_via_binding + cn.sent_via_home
        return self.collect_metrics(
            handoffs=sum(mobile.handoffs_completed for mobile in self.mobiles),
            handoff_latencies=[
                latency
                for mobile in self.mobiles
                for latency in mobile.handoff_latencies
            ],
            attached=sum(
                1 for mobile in self.mobiles if mobile.serving_bs is not None
            ),
            extras={
                "blocked_attaches": float(
                    sum(c.blocked_attach_attempts for c in self.controllers)
                ),
                "via_binding_fraction": (
                    cn.sent_via_binding / routed if routed else 0.0
                ),
            },
            channels=[bs.shared_channel for bs in world.all_radio_stations()],
            # Non-default policy block only, so default runs keep their
            # table shape byte-identical.
            policy=(
                None
                if spec.policy.is_default()
                else world.decision_trace.metric_counts()
            ),
            order=METRIC_ORDER,
        )


def build_multitier_scenario(spec: ScenarioSpec, seed: int) -> BuiltScenario:
    """Assemble the multi-tier world, population and traffic for one run.

    Builds the world, places the picos, then adds every mobile and its
    controller in population order and plans the flows after them —
    the construction order, stream names and pico placement the
    ``stack="multitier"`` goldens pin.  Returns the assembled (not yet
    run) world; call :meth:`BuiltScenario.execute` to run it.
    """
    population = Population.plan(spec, seed)
    channel_plan = None
    if spec.channels_enabled():
        # Contention mode: per-cell shared channels on every tier.  The
        # micro tier (and any unset field) runs at its TIER_DEFAULTS
        # budget; uplink budgets are half the downlink ones.
        channel_plan = ChannelPlan(
            macro_bandwidth=spec.macro_channel_bandwidth,
            pico_bandwidth=spec.pico_channel_bandwidth,
            admission_factor=spec.policy.admission_factor,
            weighted=spec.policy.weighted_airtime,
        )
    world = MultiTierWorld(
        second_domain=spec.domains == 2,
        domain_kwargs=dict(spec.domain_overrides),
        channel_plan=channel_plan,
    )
    # In-building picos (Fig 2.1's third hierarchy level), placed by the
    # rule shared with the baselines' flat layout so cross-stack cell
    # geometry cannot drift.
    leaf_centers = {
        name: world.domain1[name].cell.center for name in ("B", "C", "E", "F")
    }
    for pico, (parent_name, center) in enumerate(
        population.pico_placements(leaf_centers)
    ):
        world.add_pico(parent_name, f"p{pico}", center)

    ack_dispatcher = ElasticAckDispatcher()
    world.cn.on_protocol("ack", ack_dispatcher)

    # Under a shared air interface any slow, traffic-bearing mobile
    # benefits from a covering pico's fat shared budget, so the default
    # policy block resolves its demand threshold to 1 bit/s in
    # contention mode (200 kbit/s with per-user dedicated radios) —
    # the historical stack defaults, byte-identical.
    policy = TierDecider.from_config(
        spec.policy, contention=channel_plan is not None
    )
    mobiles: list[MultiTierMobileNode] = []
    controllers: list[MobilityController] = []
    for index, kind in enumerate(population.traffic):
        mobile = world.add_mobile(
            f"mn{index}",
            bandwidth_demand=BANDWIDTH_DEMAND[kind],
            airtime_key=index,
        )
        controllers.append(
            world.add_controller(
                mobile,
                population.model(index),
                sample_period=spec.sample_period,
                policy=policy,
            )
        )
        mobiles.append(mobile)

    def downlink(packet: Packet) -> bool:
        # CN -> mobile with route optimization (RSMC binding if known).
        return world.cn.send_to_mobile(
            packet.dst,
            size=packet.size,
            flow_id=packet.flow_id,
            seq=packet.seq,
            created_at=packet.created_at,
        )

    flow_plans = population.plan_flows(
        world.sim,
        ack_dispatcher,
        mobiles,
        downlink,
        world.cn.address,
        lambda mobile: mobile.home_address,
    )

    # Hybrid background (no-op returning None unless the spec carries a
    # non-empty fluid block): one analytic driver over every contended
    # cell, claiming airtime the discrete cohort then contends for.
    fluid_driver = install_fluid_background(
        world.sim,
        spec,
        fluid_channel_pairs(world.all_radio_stations()),
        population.roam,
    )

    return BuiltScenario(
        spec=spec,
        seed=int(seed),
        sim=world.sim,
        network=world.network,
        population=population,
        world=world,
        mobiles=mobiles,
        controllers=controllers,
        flow_plans=flow_plans,
        fluid_driver=fluid_driver,
    )


class MultiTierStack(StackAdapter):
    """The paper's multi-tier architecture with RSMC route optimization.

    Default stack: three-factor tier selection, make-before-break
    handoff, RSMC buffering and CN binding updates.  Extras
    (``blocked_attaches``, ``via_binding_fraction``) are grandfathered
    un-namespaced — pinned by the committed golden tables.
    """

    name = "multitier"
    description = (
        "the paper's multi-tier architecture: tier policy, "
        "make-before-break handoff, RSMC route optimization"
    )
    metric_namespace = ""  # grandfathered: predates the namespace rule

    def build(self, spec: ScenarioSpec, seed: int) -> BuiltScenario:
        """Assemble the multi-tier world (see
        :func:`build_multitier_scenario`)."""
        return build_multitier_scenario(spec, seed)

    def exercised(self, spec: ScenarioSpec) -> list[str]:
        """Adapter features ``spec`` exercises under the multi-tier stack."""
        features = super().exercised(spec)
        features.append("three-factor tier selection + RSMC route optimization")
        if spec.domains == 2:
            features.append("inter-domain handoff (two RSMCs)")
        if spec.pico_cells > 0:
            features.append(f"pico overlay ({spec.pico_cells} cells)")
        if spec.domain_overrides:
            features.append(
                "domain overrides: "
                + ", ".join(sorted(spec.domain_overrides))
            )
        if not spec.policy.is_default():
            features.append(
                f"non-default policy block (mode={spec.policy.mode}, "
                f"policy.* metrics + decision trace)"
            )
        if spec.policy.admission_factor is not None:
            features.append(
                "air-interface admission control "
                f"(factor {spec.policy.admission_factor:g})"
            )
        if spec.policy.weighted_airtime:
            features.append("weighted airtime shares (demand-proportional)")
        if spec.fluid is not None and spec.fluid.enabled:
            features.append(
                f"hybrid fluid background "
                f"({spec.fluid.population} analytic mobiles)"
            )
        return features


register_stack(MultiTierStack())

__all__ = [
    "BuiltScenario",
    "MultiTierStack",
    "build_multitier_scenario",
]
