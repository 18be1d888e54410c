"""Flat-deployment helpers shared by the baseline stack adapters.

The Cellular IP and Mobile IP baselines deploy cells at the *same*
geometry as the multi-tier world — macro umbrellas R1/R2(/R4), micro
street cells A–G, and the spec's pico cells — but manage them flat:
no tier policy, no hierarchy-aware handoff.  :func:`flat_cell_layout`
produces that site list from a spec, and
:class:`FlatMobilityController` drives one mobile across it with the
classic strongest-signal + hysteresis rule (the baseline the paper's
three-factor decision is compared against).

Determinism: the layout is a pure function of ``(spec, population)``;
the controller samples the (seeded) mobility model on a fixed period
and decides from :class:`~repro.radio.signal.SignalMeter`
surveys only — same ``(spec, seed)``, same handoff schedule, in any
process, on any execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.radio.cells import Cell, Tier
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.radio.signal import SignalMeter

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility import MobilityModel
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.kernel import Simulator
    from repro.stacks.population import Population


@dataclass(frozen=True)
class FlatSite:
    """One cell site of a flat deployment: name, geometry, tree parent."""

    name: str
    tier: Tier
    center: Point
    radius: float
    #: Name of the wired-tree parent site ("" = directly under the root).
    parent: str

    def cell(self) -> Cell:
        """This site's :class:`~repro.radio.cells.Cell` (tier defaults
        fill radio parameters)."""
        return Cell(
            name=f"cell-{self.name}",
            center=self.center,
            tier=self.tier,
            radius=self.radius,
        )


#: The multi-tier world's radio geometry (architecture.py docstring):
#: macro towers 800 m off the street axis, micro cells on it.
_MACRO_SITES = (
    ("R1", Point(-2000, 800)),
    ("R2", Point(2000, 800)),
)
_MACRO_SITES_D2 = (("R4", Point(6000, 800)),)
_MICRO_SITES = (
    ("A", Point(-2000, 0), "R1"),
    ("B", Point(-2700, 0), "R1"),
    ("C", Point(-1300, 0), "R1"),
    ("D", Point(2000, 0), "R2"),
    ("E", Point(1300, 0), "R2"),
    ("F", Point(2700, 0), "R2"),
)
_MICRO_SITES_D2 = (("G", Point(6000, 0), "R4"),)

#: Micro leaves eligible as pico parents (mirrors the multi-tier
#: builder's ``leaves`` tuple).
_PICO_LEAVES = ("B", "C", "E", "F")


def flat_cell_layout(
    spec: "ScenarioSpec", population: "Population"
) -> list[FlatSite]:
    """The baseline deployments' site list for ``spec``.

    Mirrors the multi-tier world cell-for-cell so coverage (and thus
    the mobility a roam rectangle induces) is identical across stacks:
    macro umbrellas (radius 2500 m), micro street cells (400 m), and
    ``spec.pico_cells`` picos (60 m) placed by the SAME shared rule the
    multi-tier builder uses
    (:meth:`~repro.stacks.population.Population.pico_placements`: fixed
    offsets under the micro leaves in legacy mode, the population's
    seeded concentration points when contention is enabled).
    Deterministic: pure function of its inputs.
    """
    sites: list[FlatSite] = []
    macro = list(_MACRO_SITES) + (
        list(_MACRO_SITES_D2) if spec.domains == 2 else []
    )
    micro = list(_MICRO_SITES) + (
        list(_MICRO_SITES_D2) if spec.domains == 2 else []
    )
    for name, center in macro:
        sites.append(FlatSite(name, Tier.MACRO, center, 2500.0, ""))
    for name, center, parent in micro:
        sites.append(FlatSite(name, Tier.MICRO, center, 400.0, parent))

    micro_by_name = {name: center for name, center, _ in micro}
    leaf_centers = {name: micro_by_name[name] for name in _PICO_LEAVES}
    for pico, (parent, center) in enumerate(
        population.pico_placements(leaf_centers)
    ):
        sites.append(FlatSite(f"p{pico}", Tier.PICO, center, 60.0, parent))
    return sites


class FlatMobilityController:
    """Strongest-signal mobility for one mobile over a flat deployment.

    Samples the mobility model every ``sample_period`` seconds, surveys
    all cells, and: attaches to the strongest covering cell when
    unattached; hands off when the serving cell no longer covers the
    position (forced) or a covering rival beats it by ``hysteresis_db``
    — the tier-blind baseline behaviour (no speed or bandwidth factor).

    Subclasses implement :meth:`_attach` / :meth:`_handoff` as
    generators executing the stack's actual attachment machinery; the
    controller records handoff counts and wall-clock latencies (the
    time the handoff generator occupied, e.g. the Cellular IP semisoft
    interval).  Deterministic: decisions read only the seeded model and
    the pure signal survey.
    """

    def __init__(
        self,
        sim: "Simulator",
        model: "MobilityModel",
        cells: list[Cell],
        sample_period: float = 0.5,
        hysteresis_db: float = 4.0,
        min_usable_dbm: float = -95.0,
        propagation: Optional[PropagationModel] = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.sample_period = sample_period
        self.hysteresis_db = hysteresis_db
        self.meter = SignalMeter(
            propagation if propagation is not None else PropagationModel(),
            cells,
            min_usable_dbm=min_usable_dbm,
        )
        self.serving_cell: Optional[Cell] = None
        self.handoffs = 0
        self.handoff_latencies: list[float] = []
        self.process = sim.process(self._run())

    # ------------------------------------------------------------------
    def _run(self):
        while True:
            yield self.sim.timeout(self.sample_period)
            position = self.model.advance(self.sample_period)
            covering = [
                m
                for m in self.meter.survey(position)
                if m.cell.covers(position)
            ]
            if not covering:
                continue
            best = covering[0]  # survey is sorted strongest-first
            if self.serving_cell is None:
                self.serving_cell = best.cell
                yield from self._attach(best.cell)
                continue
            serving = next(
                (m for m in covering if m.cell is self.serving_cell), None
            )
            if serving is None:
                target = best.cell  # forced: walked out of the serving cell
            elif (
                best.cell is not self.serving_cell
                and best.rss_dbm >= serving.rss_dbm + self.hysteresis_db
            ):
                target = best.cell
            else:
                continue
            old = self.serving_cell
            self.serving_cell = target
            started = self.sim.now
            yield from self._handoff(old, target)
            self.handoffs += 1
            self.handoff_latencies.append(self.sim.now - started)

    # ------------------------------------------------------------------
    def _attach(self, cell: Cell):
        """Stack hook: initial attachment to ``cell`` (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    def _handoff(self, old: Cell, new: Cell):
        """Stack hook: execute the move ``old`` -> ``new`` (generator)."""
        return
        yield  # pragma: no cover - makes this a generator


__all__ = [
    "FlatMobilityController",
    "FlatSite",
    "flat_cell_layout",
]
