"""Isolated layer microbenchmarks, each driven through public calls only.

They run after the traced phase with tracing removed and are reported
next to the traced numbers.  Each repeats rounds until ``MIN_SECONDS``
have passed (at least ``MIN_ROUNDS``) and reports the median round.
The cyclic garbage collector is paused inside each timed round: a
collection there would scan the whole scenario still in memory, and
the number would measure the heap around the layer, not the layer.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

from repro.network.simulator import NetworkSimulator
from repro.storage.plan import compile_query
from repro.workloads.scenario import Scenario
from repro.xmlkit.parser import parse as parse_xml
from repro.xslt.engine import Transformer
from repro.xslt.parser import parse_stylesheet_text

MIN_SECONDS = 0.3
MIN_ROUNDS = 3
NOOP_EVENTS = 50_000
EVALUATED_QUERIES = 50


def _median_seconds(round_fn: Callable[[], None]) -> float:
    times = []
    clock = time.perf_counter
    began = clock()
    while len(times) < MIN_ROUNDS or clock() - began < MIN_SECONDS:
        gc.disable()
        try:
            start = clock()
            round_fn()
            times.append(clock() - start)
        finally:
            gc.enable()
        gc.collect()
    return statistics.median(times)


def _noop() -> None:
    return None


def _noop_round() -> None:
    simulator = NetworkSimulator(seed=0)
    for index in range(NOOP_EVENTS):
        simulator.post(float(index % 97), _noop)
    simulator.run(max_events=NOOP_EVENTS + 1)


def layer_microbenchmarks(scenario: Scenario, object_texts: list[str]) -> dict[str, float]:
    """Per-call costs of the kernel, plan evaluation, XML parse and XSLT."""
    indexes = [peer.repository.index for peer in scenario.network.peers.values()]
    plans = [compile_query(query) for query in scenario.workload.queries[:EVALUATED_QUERIES]]

    def evaluate_round() -> None:
        for plan in plans:
            for index in indexes:
                plan.evaluate(index)

    def parse_round() -> None:
        for text in object_texts:
            parse_xml(text, check_namespaces=False, keep_whitespace_text=False)

    view = Transformer(parse_stylesheet_text(scenario.definition.stylesheets.view_text))
    documents = [parse_xml(text, check_namespaces=False, keep_whitespace_text=False)
                 for text in object_texts]

    def transform_round() -> None:
        for document in documents:
            view.transform(document)

    micro_s = 1e6
    return {
        "engine.noop_events_per_s": NOOP_EVENTS / _median_seconds(_noop_round),
        "storage.evaluate_us":
            _median_seconds(evaluate_round) * micro_s / (len(plans) * len(indexes)),
        "xmlkit.parse_us": _median_seconds(parse_round) * micro_s / len(object_texts),
        "xslt.transform_us": _median_seconds(transform_round) * micro_s / len(documents),
    }
