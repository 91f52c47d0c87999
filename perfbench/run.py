#!/usr/bin/env python3
"""The repository benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload flood_search --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer record of a traced run.  ``--workload all`` runs every
workload in a fresh process of its own.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The exit code is non-zero when
an output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("flood_search", "replicate_churn", "servent_app")
#: build-and-measure passes per untraced run; every wall-time metric is
#: the median over them
PASSES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "sim_msgs_per_s": "msgs/s",
    "op_wall_ms_p50": "ms",
    "op_wall_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "recall": "ratio",
    "msgs_per_op": "msgs/op",
    "sim_latency_ms_p50": "ms",
    "ok_ops_frac": "ratio",
}


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def pass_ops(workload, seconds: float) -> int:
    """Operations in one pass: the run's ``--seconds`` shared by the passes."""
    return workload.op_count(seconds / PASSES)


def cores_available() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BuildProbe:
    """Snapshots the bootstrap counters ``build_scenario`` is about to
    reset, so same-seed builds can be compared."""

    def __init__(self) -> None:
        from repro.network.stats import NetworkStats
        from workloads import fingerprint

        self.snapshots: list[tuple] = []
        self._cls = NetworkStats
        self._original = NetworkStats.reset
        probe = self

        def reset(stats) -> None:
            probe.snapshots.append(fingerprint(stats))
            probe._original(stats)

        NetworkStats.reset = reset

    def close(self) -> None:
        self._cls.reset = self._original


# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    """Untraced run: ``PASSES`` identical passes, each a scenario build
    followed by the measured phase on it.

    Every pass builds the same scenario and runs the same operations, so
    the passes differ only in the moment of the run they sample.  Every
    wall time is taken in reference seconds (see ``host.py``).  Setup and
    the rates are medians over the passes; the op percentiles are taken
    over each op's median wall across the passes.  The wall-clock twins
    are printed, not reported.  The simulated metrics come from the first
    pass; every later pass must repeat them exactly.
    """
    from repro.workloads.scenario import build_scenario
    from workloads import check, fingerprint, originals_of, recall

    ops = pass_ops(workload, seconds)
    config = workload.config(seed, ops)
    probe = BuildProbe()
    # per clock, one entry per pass: build wall, measured-phase wall, op walls
    clocks = ("reference", "wall clock")
    setups: dict[str, list[float]] = {clock: [] for clock in clocks}
    phases: dict[str, list[float]] = {clock: [] for clock in clocks}
    op_walls: dict[str, list[list[float]]] = {clock: [] for clock in clocks}
    violations: list[str] = []
    first = None
    for _ in range(PASSES):
        gc.collect()
        before = host.reference_seconds()
        began = time.perf_counter()
        scenario = build_scenario(config)
        build_s = time.perf_counter() - began
        after = host.reference_seconds()
        originals = originals_of(scenario)
        gc.collect()
        outcome = workload.run(scenario, ops)
        setups["reference"].append(host.to_reference(build_s, (before + after) / 2))
        setups["wall clock"].append(build_s)
        phases["reference"].append(outcome.reference_wall_s())
        phases["wall clock"].append(outcome.wall_s)
        op_walls["reference"].append(outcome.reference_op_walls())
        op_walls["wall clock"].append(outcome.op_wall_s)
        violations += check(scenario, outcome, originals)
        stats = scenario.network.stats
        simulated = (fingerprint(stats), outcome.searches, outcome.failed)
        if first is None:
            first, first_simulated, messages = outcome, simulated, stats.total_messages
        elif simulated != first_simulated:
            violations.append("same-seed passes disagree on their simulated counters")
        del scenario, originals, outcome, stats
    probe.close()
    if any(snapshot != probe.snapshots[0] for snapshot in probe.snapshots):
        violations.append("same-seed builds disagree on bootstrap counters")
    failed = first.failed + len(violations)

    def timed_metrics(clock: str) -> dict[str, float]:
        # the passes run the same ops: each op's wall is its median over them
        walls = [statistics.median(column) for column in zip(*op_walls[clock])]
        return {
            "setup_s": statistics.median(setups[clock]),
            "ops_per_s": statistics.median((ops - first.failed) / wall for wall in phases[clock]),
            "sim_msgs_per_s": statistics.median(messages / wall for wall in phases[clock]),
            "op_wall_ms_p50": percentile(walls, 50) * 1e3,
            "op_wall_ms_p99": percentile(walls, 99) * 1e3,
        }

    for name, value in timed_metrics("wall clock").items():
        print(f"wall clock: {name:30s} {value:>16.6g}")
    metrics = timed_metrics("reference")
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "recall": recall(first),
        "msgs_per_op": messages / ops,
        "sim_latency_ms_p50": statistics.median(
            search.latency_ms for search in first.searches),
        "ok_ops_frac": 1 - failed / ops,
    })
    return {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}, \
        violations, ops, failed


def trace(workload, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    """An untraced pass, then the same pass traced, for the layer record."""
    from micro import layer_microbenchmarks
    from repro.network.stats import CONTROL_TYPE_VALUES, DOWNLOAD_TYPE_VALUES
    from repro.workloads.scenario import build_scenario
    from tracer import SPANS, Tracer, install_layer_spans
    from workloads import check, descriptors, fingerprint, originals_of

    ops = pass_ops(workload, seconds)
    config = workload.config(seed, ops)

    scenario = build_scenario(config)
    gc.collect()
    events_before = scenario.network.simulator.events_processed
    plain = workload.run(scenario, ops)
    plain_events = scenario.network.simulator.events_processed - events_before
    plain_fingerprint = fingerprint(scenario.network.stats)
    plain_s = plain.reference_wall_s()
    del scenario
    gc.collect()

    tracer = Tracer()
    probe = BuildProbe()
    install_layer_spans(tracer)
    try:
        scenario = build_scenario(config)
        tracer.phase = "checks"
        originals = originals_of(scenario)
        gc.collect()
        tracer.phase = "measured"
        outcome = workload.run(scenario, ops)
        tracer.phase = "checks"
    finally:
        tracer.uninstall()
        probe.close()

    violations = check(scenario, outcome, originals)
    if fingerprint(scenario.network.stats) != plain_fingerprint:
        violations.append("the traced run's simulated counters differ from the untraced run's")

    stats = scenario.network.stats
    layer: dict[str, tuple[float, str]] = {}
    for phase, prefix in (("measured", ""), ("setup", "setup.")):
        for span in SPANS:
            layer[f"{prefix}{span}.calls"] = (tracer.get_calls(phase, span), "count")
            layer[f"{prefix}{span}.s"] = (tracer.get_self(phase, span), "s")
        layer[f"{prefix}xmlkit.parse.chars"] = (
            tracer.get_tally(phase, "xmlkit.parse.chars"), "chars")
        layer[f"{prefix}engine.step.self_s"] = (tracer.get_self(phase, "engine.step"), "s")
    evaluations = tracer.get_calls("measured", "storage.evaluate")
    layer["storage.evaluate.hit_ratio"] = (
        tracer.get_tally("measured", "storage.evaluate.hits") / max(1, evaluations), "ratio")

    query_messages = stats.messages_by_type.get("query", 0)
    layer.update({
        "network.msgs.query": (query_messages, "count"),
        "network.msgs.query_hit": (stats.messages_by_type.get("query-hit", 0), "count"),
        "network.msgs.download": (sum(count for kind, count in stats.messages_by_type.items()
                                      if kind in DOWNLOAD_TYPE_VALUES), "count"),
        "network.msgs.control": (sum(count for kind, count in stats.messages_by_type.items()
                                     if kind in CONTROL_TYPE_VALUES), "count"),
        "network.bytes": (stats.total_bytes, "bytes"),
        "network.probe_ratio": (sum(record.peers_probed for record in stats.queries)
                                / max(1, query_messages), "ratio"),
        "engine.events": (plain_events, "count"),
        "engine.us_per_event": (plain_s / max(1, plain_events) * 1e6, "us"),
        "engine.queue_depth_max": (tracer.get_tally("measured", "engine.queue_depth_max"),
                                   "count"),
        "engine.starved": (outcome.starved, "count"),
    })
    setup_messages = sum(count for _, count in probe.snapshots[-1][0])
    layer.update({
        "workloads.setup.servents_s": (tracer.get_inclusive("setup", "core.servent_init"), "s"),
        "workloads.setup.discover_join_s": (tracer.get_inclusive("setup", "core.discover")
                                            + tracer.get_inclusive("setup", "core.join"), "s"),
        "workloads.setup.discover_msgs": (tracer.get_tally("setup", "core.discover.delta")
                                          + tracer.get_tally("setup", "core.join.delta"),
                                          "count"),
        "workloads.setup.bootstrap_msgs": (setup_messages, "count"),
        "workloads.setup.overlay_s": (tracer.get_inclusive("setup", "network.overlay"), "s"),
        "workloads.setup.publish_s": (tracer.get_inclusive("setup", "core.create"), "s"),
        "workloads.setup.queries_s": (tracer.get_inclusive("setup", "workloads.queries"), "s"),
    })
    layer.update({name: (value, "ratio") for name, value in descriptors(outcome).items()})
    micro_units = {"engine.noop_events_per_s": "1/s", "storage.evaluate_us": "us",
                   "xmlkit.parse_us": "us", "xslt.transform_us": "us"}
    micro = layer_microbenchmarks(scenario, sorted(originals.values()))
    layer.update({name: (value, micro_units[name]) for name, value in micro.items()})
    layer["trace.overhead_frac"] = (outcome.reference_wall_s() / plain_s - 1, "ratio")
    layer["cores_available"] = (cores_available(), "count")
    return layer, violations, ops, outcome.failed + len(violations)


# ----------------------------------------------------------------------
def report(metrics: dict, violations: list[str], attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    for violation in violations:
        print(f"CHECK FAILED: {violation}")
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; the last line merges them."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"{name} exited with code {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; 7919 is held out for confirming a gain")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    metrics, violations, attempted, failed = run(workload, args.seed, args.seconds)
    report(metrics, violations, attempted, failed)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
