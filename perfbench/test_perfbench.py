"""Tests of the benchmark's own logic: spans, counters, the check."""

from __future__ import annotations

import math
from collections import Counter

import pytest

import layers
import workloads
from repro.net import Network, Packet
from repro.net.node import Node
from repro.sim import Simulator
from spans import Tracer, layer_self_times, self_times


def scripted_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_and_sibling_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and its sibling d [5, 7].
    tracer = Tracer(clock=scripted_clock(0, 1, 2, 3, 4, 5, 7, 10))
    with tracer.span("x:a"):
        with tracer.span("y:b"):
            with tracer.span("y:c"):
                pass
        with tracer.span("z:d"):
            pass
    assert list(tracer.parents) == [-1, 0, 1, 0]
    assert list(self_times(tracer)) == [5.0, 2.0, 1.0, 2.0]
    assert layer_self_times(tracer) == {"x": 5.0, "y": 3.0, "z": 2.0}


class Box:
    def __init__(self):
        self.made = True

    def twice(self, value):
        return self.once(value) * 2

    def once(self, value):
        return value


def test_wrapped_methods_nest_and_restore():
    originals = dict(vars(Box))
    tracer = Tracer()
    tracer.wrap(Box, "twice", "a:twice")
    tracer.wrap(Box, "once", "b:once")
    tracer.count(Box, "__init__", "boxes")
    try:
        assert Box().twice(3) == 6
    finally:
        tracer.restore()
    assert tracer.counts == Counter({"boxes": 1})
    assert [tracer.names[i] for i in tracer.name_ids] == ["a:twice", "b:once"]
    assert list(tracer.parents) == [-1, 0]
    assert tracer.span_counts() == Counter({"a:twice": 1, "b:once": 1})
    assert vars(Box)["twice"] is originals["twice"]
    assert vars(Box)["once"] is originals["once"]
    assert vars(Box)["__init__"] is originals["__init__"]


def test_layer_install_restores_every_original():
    before = [vars(owner)[attr] for _, owner, attr in layers.SPANS]
    tracer = Tracer()
    layers.install(tracer)
    try:
        receive = layers.SPANS.index(("net", Node, "receive"))
        assert vars(Node)["receive"] is not before[receive]
    finally:
        tracer.restore()
    assert [vars(owner)[attr] for _, owner, attr in layers.SPANS] == before


def test_counters_on_a_two_node_world():
    counters = workloads.Counters().install()
    try:
        start = counters.snapshot()
        sim = Simulator()
        network = Network(sim)
        a, b = network.host("a"), network.host("b")
        network.connect(a, b, delay=0.001)
        network.install_routes()
        for _ in range(3):
            a.send_via(b, Packet(src=a.address, dst=b.address, size=100))
        sim.run()
        b.send_via(a, Packet(src=b.address, dst=a.address, size=100, protocol="reg"))
        sim.run()
        done = counters.snapshot() - start
    finally:
        counters.restore()
    assert done["worlds"] == 1
    assert done["hops.data"] == 3
    assert done["hops.signalling"] == 1
    assert done["packets"] == 4
    assert done["events"] == sim.events_processed > 0
    assert vars(Simulator)["run"].__name__ == "run"
    assert not hasattr(vars(Simulator)["run"], "__wrapped__")


def scenario_run(**overrides):
    output = {"population": 4.0, "attached": 4.0, "sent": 10.0, "received": 9.0}
    output.update(overrides)
    return workloads.Run(
        "multitier", output=output,
        counters=Counter({"events": 5, "hops.data": 3}),
    )


REFERENCE = {"workloads": {"mega": {"outputs": {"multitier": scenario_run().output}}}}


def test_check_accepts_the_reference_and_flags_a_perturbed_metric():
    assert workloads.check_run("mega", 1, scenario_run(), REFERENCE) is None
    perturbed = scenario_run(received=9.000001)
    assert workloads.check_run("mega", 1, perturbed, REFERENCE) is not None


@pytest.mark.parametrize("overrides", [
    {"received": 11.0},
    {"attached": 5.0},
    {"sent": math.nan},
])
def test_check_flags_broken_invariants_at_other_seeds(overrides):
    assert workloads.check_run("mega", 7, scenario_run(), REFERENCE) is None
    assert workloads.check_run("mega", 7, scenario_run(**overrides), REFERENCE)


def test_a_raised_run_is_recorded_and_flagged():
    counters = workloads.Counters()

    def boom(_):
        raise ValueError("no route")

    run = workloads._timed("E1", counters, build=lambda: None, simulate=boom)
    assert run.error == "ValueError: no route"
    assert "no route" in workloads.check_run("paper-tables", 1, run, REFERENCE)


def test_experiment_seeds_shift_defaults_and_skip_t1():
    from repro.experiments import ALL_EXPERIMENTS

    assert workloads.experiment_seeds(ALL_EXPERIMENTS["E1"], 1) == (1, 2, 3)
    assert workloads.experiment_seeds(ALL_EXPERIMENTS["E1"], 5) == (5, 6, 7)
    assert workloads.experiment_seeds(ALL_EXPERIMENTS["T1"], 5) is None
