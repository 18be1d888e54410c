"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mega --seed 1 --seconds 25 --trace 0

``--workload`` is ``mega``, ``metro-100k``, ``paper-tables`` or
``all`` (each in turn, in one process).  With ``--trace 0`` the
workload runs in passes, with tracing off, until ``--seconds`` have
gone by, and the end-to-end metrics of ``BENCHMARK.json`` are
reported, pass times as their mean over the passes.  With ``--trace 1``
the same untraced passes are followed by one traced pass, and the
per-layer metrics are reported; the spans are written to
``.perfbench/spans-<workload>.npz``.

Every run's simulated output is checked (see ``workloads.check_run``);
the last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark builds nothing: it imports ``repro`` from ``src/`` of the
checkout it sits in and exits with code 2 when there is none.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters started per run to time set-up (median reported).
SETUP_REPEATS = 3


def _import_repro() -> float:
    """Import the checkout's ``repro``; return the seconds it took."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro.experiments  # noqa: F401
    import repro.scenarios  # noqa: F401

    import_s = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: repro imported from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return import_s


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from a fresh interpreter to its first world."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed for {workload}")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, seed, seconds, counters, reference, failures):
    """Untraced passes of ``workload``, checked, until ``seconds`` pass."""
    from workloads import check_run, run_pass

    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass(workload, seed, counters))
    for one_pass in passes:
        for run in one_pass.runs:
            reason = check_run(workload, seed, run, reference)
            if reason is not None:
                failures.append(f"{workload}/{run.label}: {reason}")
    return passes


def end_to_end(workload, seed, seconds, counters, reference, failures):
    """End-to-end metrics of ``workload``.

    ``run_s`` is the mean pass time (measured time over passes run),
    not the median: the host's speed drifts in phases of seconds to
    minutes, and a mean blends the phases a run spans where a median
    picks one of them, which doubles the spread between runs.
    """
    setup_s = measure_setup(workload, seed)
    passes = run_passes(workload, seed, seconds, counters, reference, failures)
    run_s = statistics.fmean(one_pass.run_s for one_pass in passes)
    hops = passes[0].counters["hops.data"] + passes[0].counters["hops.signalling"]
    return passes, {
        "setup_s": setup_s,
        "run_s": run_s,
        "hops_per_s": hops / run_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, seed, seconds, counters, reference, failures, import_s):
    """Per-layer metrics of ``workload``: untraced passes, then a traced one.

    The traced pass's outputs and counters must equal the untraced
    ones; a difference is a failure.
    """
    import layers
    from spans import layer_self_times

    passes = run_passes(workload, seed, seconds, counters, reference, failures)
    traced, tracer = layers.run_traced(workload, seed, counters)
    if not layers.same_simulation(traced, passes[-1]):
        failures.append(f"{workload}: traced outputs differ from untraced")
    tracer.dump(ROOT / ".perfbench" / f"spans-{workload}.npz")
    layer_seconds = layer_self_times(tracer)
    shares = layers.layer_shares(layer_seconds)
    print(f"# {workload}: layer shares {json.dumps(shares)}")
    metrics = layers.per_layer_metrics(
        passes, traced, tracer, layer_seconds, import_s
    )
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["mega", "metro-100k", "paper-tables", "all"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    import_s = _import_repro()
    from workloads import REFERENCE, WORKLOADS, Counters

    reference = json.loads(REFERENCE.read_text())
    counters = Counters().install()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failures, values = 0, [], {}
    try:
        for workload in names:
            before = len(failures)
            if args.trace:
                passes, metrics = per_layer(
                    workload, args.seed, args.seconds, counters, reference,
                    failures, import_s,
                )
            else:
                passes, metrics = end_to_end(
                    workload, args.seed, args.seconds, counters, reference, failures
                )
            if set(metrics) != set(units):
                raise RuntimeError(
                    f"metrics {sorted(set(metrics) ^ set(units))} do not "
                    "match BENCHMARK.json"
                )
            runs = sum(len(one_pass.runs) for one_pass in passes)
            attempted += runs
            print(f"# {workload}: failed_frac={(len(failures) - before) / runs:.4g} ratio")
            for name, value in metrics.items():
                print(f"# {workload}: {name}={value:.6g} {units[name]}")
                key = name if len(names) == 1 else f"{workload}/{name}"
                values[key] = {"value": value, "unit": units[name]}
    finally:
        counters.restore()

    for failure in failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
