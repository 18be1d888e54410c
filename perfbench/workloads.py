"""The benchmark's workloads, their work counters and correctness check.

Three workloads, each run on the benchmark's seed ``s``:

* ``mega`` — catalog ``mega`` on the ``multitier``, ``cellularip`` and
  ``mobileip`` stacks in turn, with the traffic window shortened to
  :data:`MEGA_DURATION` so one pass fits the run length;
* ``metro-100k`` — catalog ``metro-100k`` on the same three stacks, at
  full catalog size;
* ``paper-tables`` — every entry of ``ALL_EXPERIMENTS`` with each
  default seed list shifted by ``s - 1`` (T1 is analytic and takes no
  seeds), rendered as ``repro run -o`` writes it.

``NOTES.md`` beside this file says why each was chosen.
"""

from __future__ import annotations

import inspect
import math
import time
import traceback
import weakref
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import ALL_EXPERIMENTS, runner
from repro.multitier.architecture import MultiTierWorld
from repro.net import packet as packet_module
from repro.net.link import link_registry
from repro.scenarios import build_scenario, get_scenario
from repro.sim import Simulator

from spans import Patches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = ROOT / "results"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("mega", "metro-100k", "paper-tables")
STACKS = ("multitier", "cellularip", "mobileip")
#: Simulated traffic window of ``mega`` (the catalog's is 40 s).
#: Population, topology and mixes are the catalog's.
MEGA_DURATION = 10.0
#: Hop protocols that carry user traffic; every other one is signalling.
DATA_PROTOCOLS = frozenset({"data", "ipip", "ack"})


def scenario_spec(workload: str, stack: str):
    spec = get_scenario(workload).replace(stack=stack)
    if workload == "mega":
        spec = spec.replace(duration=MEGA_DURATION)
    return spec


def build_first_world(workload: str, seed: int) -> None:
    """Build the first world a workload runs (the set-up probe's target)."""
    if workload == "paper-tables":
        MultiTierWorld()
    else:
        build_scenario(scenario_spec(workload, STACKS[0]), seed)


def experiment_seeds(experiment, seed: int):
    """The experiment's default seed list shifted by ``seed - 1``.

    ``None`` for an experiment without a ``seeds`` parameter (T1).
    """
    parameter = inspect.signature(experiment).parameters.get("seeds")
    if parameter is None:
        return None
    return tuple(s + seed - 1 for s in parameter.default)


def render(result) -> str:
    """An experiment's table exactly as ``repro run -o`` writes it."""
    return result.text + (f"\n\nNotes: {result.notes}\n" if result.notes else "")


# ----------------------------------------------------------------------
# Work counters
# ----------------------------------------------------------------------
def world_counters(sim: Simulator) -> Counter:
    """One world's cumulative counters, read from its public state."""
    counters = Counter(events=sim.events_processed)
    for link in link_registry(sim):
        stats = link.stats
        counters["drops.queue"] += stats.dropped_queue
        counters["drops.error"] += stats.dropped_error
        for protocol, hops in stats.protocol_hops.items():
            kind = "data" if protocol in DATA_PROTOCOLS else "signalling"
            counters[f"hops.{kind}"] += hops
    return counters


def packets_created() -> int:
    """Packets made so far: the uid counter's position, not consumed."""
    return int(repr(packet_module._packet_ids)[len("count("):-1]) - 1


class Counters(Patches):
    """Work counters of every world built while installed.

    Wraps ``Simulator.__init__`` (worlds), ``Simulator.run`` (after each
    call, the world's new events, hops and link drops are added) and the
    experiment runner's per-seed aggregation (its input metric dicts are
    kept in :attr:`samples`).  Each wrapped call happens a few times per
    world, so installing them costs nothing measurable.
    """

    def __init__(self) -> None:
        super().__init__()
        self.totals: Counter = Counter()
        self.samples: list[dict] = []
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self) -> "Counters":
        totals, seen, samples = self.totals, self._seen, self.samples

        def harvest(sim):
            now = world_counters(sim)
            totals.update(now)
            totals.subtract(seen.get(sim, Counter()))
            seen[sim] = now

        def make_init(original):
            def init(sim, *args, **kwargs):
                original(sim, *args, **kwargs)
                totals["worlds"] += 1

            return init

        def make_run(original):
            def run(sim, *args, **kwargs):
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    harvest(sim)

            return run

        def make_aggregate(original):
            def aggregate(results, *args, **kwargs):
                results = list(results)
                samples.extend(results)
                return original(results, *args, **kwargs)

            return aggregate

        self.replace(Simulator, "__init__", make_init)
        self.replace(Simulator, "run", make_run)
        self.replace(runner, "_aggregate", make_aggregate)
        return self

    def snapshot(self) -> Counter:
        snap = Counter(self.totals)
        snap["packets"] = packets_created()
        return snap


# ----------------------------------------------------------------------
# Running one pass of a workload
# ----------------------------------------------------------------------
@dataclass
class Run:
    """One scenario run (one stack) or one experiment of a pass."""

    label: str
    seconds: float = 0.0
    #: The simulated output: a metric dict, or a rendered table.
    output: object = None
    #: Per-seed metric dicts the experiment aggregated.
    samples: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    error: str | None = None


@dataclass
class Pass:
    """One pass over every run of a workload."""

    runs: list[Run]
    counters: Counter

    @property
    def run_s(self) -> float:
        return sum(run.seconds for run in self.runs)

    def outputs(self) -> list:
        return [(run.label, run.output) for run in self.runs]


def run_pass(workload: str, seed: int, counters: Counters, tracer=None) -> Pass:
    """Run every scenario or experiment of ``workload`` once.

    Only simulation counts toward a run's ``seconds``: for the catalog
    workloads that is ``execute()`` (world building is set-up); for
    ``paper-tables`` it is the whole experiment call, builds included.
    A run that raises is recorded with its error and the pass goes on.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    start = counters.snapshot()
    runs = []
    with span(f"other:{workload}"):
        if workload == "paper-tables":
            for experiment_id, experiment in ALL_EXPERIMENTS.items():
                seeds = experiment_seeds(experiment, seed)
                args = {} if seeds is None else {"seeds": seeds}
                runs.append(_timed(
                    experiment_id, counters,
                    build=lambda: None,
                    simulate=lambda _: render(experiment(**args)),
                ))
        else:
            for stack in STACKS:
                spec = scenario_spec(workload, stack)

                def build():
                    with span("setup:build_scenario"):
                        return build_scenario(spec, seed)

                runs.append(_timed(
                    stack, counters, build=build, simulate=lambda built: built.execute()
                ))
    return Pass(runs, counters.snapshot() - start)


def _timed(label: str, counters: Counters, build, simulate) -> Run:
    """One run: ``simulate(build())``, timing only ``simulate``."""
    run = Run(label)
    before = counters.snapshot()
    first_sample = len(counters.samples)
    try:
        built = build()
        started = time.perf_counter()
        run.output = simulate(built)
        run.seconds = time.perf_counter() - started
    except Exception as error:  # one failed run must not stop the pass
        traceback.print_exc()
        run.error = f"{type(error).__name__}: {error}"
    run.samples = counters.samples[first_sample:]
    run.counters = counters.snapshot() - before
    return run


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_run(workload: str, seed: int, run: Run, reference: dict) -> str | None:
    """Why ``run`` is wrong, or ``None`` when it is correct.

    At seed 1 the output must equal the reference exactly: the
    committed golden table for an experiment, the recorded metric dict
    for a scenario run.  At any other seed the run must hold the
    invariants: finite metrics, ``received <= sent``, ``attached <=
    population``, and some events and hops.
    """
    if run.error is not None:
        return f"raised {run.error}"
    if seed == 1:
        if workload == "paper-tables":
            golden = run.label.replace("/", "_").lower()
            expected = (GOLDENS / f"{golden}.txt").read_text()
        else:
            expected = reference["workloads"][workload]["outputs"][run.label]
        return None if run.output == expected else "differs from the seed-1 reference"
    if run.counters["events"] <= 0:
        return "no events"
    if run.counters["hops.data"] + run.counters["hops.signalling"] <= 0:
        return "no hops"
    dicts = run.samples if workload == "paper-tables" else [run.output]
    for metrics in dicts:
        bad = [key for key, value in metrics.items() if not math.isfinite(value)]
        if bad:
            return f"non-finite {', '.join(sorted(bad))}"
        if metrics.get("received", 0.0) > metrics.get("sent", math.inf):
            return "received > sent"
        if metrics.get("attached", 0.0) > metrics.get("population", math.inf):
            return "attached > population"
    return None
