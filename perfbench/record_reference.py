"""Re-record ``reference.json``: the benchmark's seed-1 baseline.

Usage (from the repository root)::

    python3 perfbench/record_reference.py

For each workload it runs one untraced and one traced pass at seed 1
and records the scenario runs' metric dicts (which the correctness
check compares against), the deterministic counters and the traced
pass's self-time share per layer.  It also records the counters of
``mega`` at full catalog size, which the benchmark itself runs
shortened.  Run it only when a change is meant to alter simulated
behaviour, and say so in the change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from repro.scenarios import build_scenario, get_scenario  # noqa: E402
from spans import layer_self_times  # noqa: E402
from workloads import REFERENCE, STACKS, WORKLOADS, Counters, run_pass  # noqa: E402

SEED = 1


def full_size_mega(counters: Counters) -> dict:
    out = {}
    for stack in STACKS:
        before = counters.snapshot()
        metrics = build_scenario(get_scenario("mega").replace(stack=stack), SEED).execute()
        done = counters.snapshot() - before
        out[stack] = {
            "sim.events": done["events"],
            "net.hops": done["hops.data"] + done["hops.signalling"],
            "hop_total": metrics["hop_total"],
        }
    return out


def main() -> int:
    counters = Counters().install()
    reference = {"seed": SEED, "workloads": {}}
    try:
        for workload in WORKLOADS:
            untraced = run_pass(workload, SEED, counters)
            traced, tracer = layers.run_traced(workload, SEED, counters)
            errors = [run.error for run in untraced.runs + traced.runs if run.error]
            if errors or not layers.same_simulation(traced, untraced):
                raise SystemExit(f"{workload}: {errors or 'traced != untraced'}")
            entry = {
                "counters": layers.deterministic_counters(untraced),
                "layer_shares": layers.layer_shares(layer_self_times(tracer)),
            }
            if workload != "paper-tables":
                entry["outputs"] = dict(untraced.outputs())
            reference["workloads"][workload] = entry
            print(workload, json.dumps(entry["counters"]), flush=True)
        reference["mega_full_size"] = full_size_mega(counters)
    finally:
        counters.restore()
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
