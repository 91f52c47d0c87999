"""The three benchmark workloads and the output checks they share.

Each workload is a closed loop driven from one thread: the batched
workloads keep ``BATCH`` operations in flight inside one
``QueryDriver.run_mixed`` call and start the next batch when it
returns; ``servent_app`` issues one user operation at a time through
the generated application.  Op counts scale with ``--seconds`` through
``ops_per_second``, the rate measured at the commit that introduced
the benchmark on a 2-core x86 container, so one seed always runs the
same operations and the simulated metrics repeat exactly.
"""

from __future__ import annotations

import html
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import host
from repro.engine.driver import QueryDriver, RetrieveOp, SearchOp
from repro.network.base import SearchResponse
from repro.workloads.scenario import Scenario, ScenarioConfig

MAX_RESULTS = 100
#: operations in flight per driver call in the batched workloads
BATCH = 8


class SearchRecord(NamedTuple):
    """What the metrics need from one search response."""

    distinct: int
    expected: int
    results: int
    latency_ms: float
    #: the query's criteria, to find repeats
    key: tuple


@dataclass
class Outcome:
    """What one measured phase did, gathered for the checks and metrics.

    Responses and pages are checked as soon as the call that produced
    them returns, outside the timed region, and only compact records
    are kept, so the benchmark's own bookkeeping does not grow the heap
    the program's garbage collector scans.
    """

    ops: int = 0
    #: the sum of the timed calls: the measured phase's wall time
    wall_s: float = 0.0
    #: wall time each op waited for the call that carried it
    op_wall_s: list[float] = field(default_factory=list)
    searches: list[SearchRecord] = field(default_factory=list)
    #: ``(resource_id, stored object)`` of every completed download
    downloads: list = field(default_factory=list)
    #: refused searches, failed downloads and starved exchanges
    failed: int = 0
    starved: int = 0
    #: resources created during the phase, with their publisher's id
    created: list[tuple[str, str]] = field(default_factory=list)
    churn_transitions: int = 0
    violations: list[str] = field(default_factory=list)
    #: ``(ops, wall, reference sample)`` per block of about
    #: ``host.BLOCK_S`` of measured wall time
    host_blocks: list[tuple[int, float, float]] = field(default_factory=list)
    _block_s: float = 0.0
    _block_ops: int = 0

    def timed(self, seconds: float, ops: int) -> None:
        self.wall_s += seconds
        self.op_wall_s.extend([seconds] * ops)
        self._block_s += seconds
        self._block_ops += ops
        if self._block_s >= host.BLOCK_S:
            self.close_block()

    def close_block(self) -> None:
        """Sample the host for the ops timed since the last sample."""
        if self._block_ops:
            self.host_blocks.append(
                (self._block_ops, self._block_s, host.reference_seconds()))
        self._block_s, self._block_ops = 0.0, 0

    def reference_wall_s(self) -> float:
        """The measured phase's wall time in reference seconds."""
        return sum(host.to_reference(wall, sample)
                   for (_, wall, _), sample in zip(self.host_blocks, self._samples()))

    def reference_op_walls(self) -> list[float]:
        """Each op's wall time in reference seconds."""
        walls = iter(self.op_wall_s)
        return [host.to_reference(next(walls), sample)
                for (ops, _, _), sample in zip(self.host_blocks, self._samples())
                for _ in range(ops)]

    def _samples(self) -> list[float]:
        self.close_block()
        return host.smoothed([sample for _, _, sample in self.host_blocks])

    def note_search(self, response: SearchResponse, expected: int, network) -> None:
        index = len(self.searches)
        pairs = [(result.provider_id, result.resource_id) for result in response.results]
        if len(pairs) > MAX_RESULTS:
            self.violations.append(f"search {index}: {len(pairs)} results exceed {MAX_RESULTS}")
        if len(set(pairs)) != len(pairs):
            self.violations.append(f"search {index}: duplicate (provider, resource) pairs")
        for provider, resource_id in pairs:
            if network.replicas.provenance(resource_id, provider) is None:
                self.violations.append(f"search {index}: {provider} does not hold {resource_id}")
        query = response.query
        self.searches.append(SearchRecord(
            distinct=len(response.distinct_resources()), expected=expected,
            results=len(pairs), latency_ms=response.latency_ms,
            key=(query.community_id, tuple(query.criteria))))

    def note_page(self, page: str, needles) -> None:
        if not page or not all(needle in page for needle in needles):
            self.violations.append("a rendered page is empty or lacks its fields or title")


def fingerprint(stats) -> tuple:
    """The simulated counters two same-seed runs must agree on."""
    return (sorted(stats.messages_by_type.items()),
            sorted(stats.bytes_by_type.items()),
            tuple(record.results for record in stats.queries))


class Workload:
    name = ""
    ops_per_second = 1.0
    min_ops = BATCH * 4

    def op_count(self, seconds: float) -> int:
        wanted = max(self.min_ops, int(self.ops_per_second * seconds))
        return -(-wanted // BATCH) * BATCH

    def config(self, seed: int, ops: int) -> ScenarioConfig:
        raise NotImplementedError

    def run(self, scenario: Scenario, ops: int) -> Outcome:
        """The first ``ops`` operations of the seed's stream."""
        raise NotImplementedError


class BatchedWorkload(Workload):
    """Searches (and downloads) kept ``BATCH`` in flight on the kernel."""

    def operations(self, scenario: Scenario, ops: int) -> list:
        members = scenario.members()
        return [SearchOp(origin_id=members[position % len(members)].peer_id, query=query)
                for position, query in enumerate(scenario.workload.queries[:ops])]

    def run(self, scenario: Scenario, ops: int) -> Outcome:
        operations = self.operations(scenario, ops)
        expected = scenario.workload.expected_matches
        network = scenario.network
        driver = QueryDriver(network)
        interarrival = scenario.config.query_interarrival_ms
        churn_before = len(scenario.churn.events) if scenario.churn else 0
        outcome = Outcome(ops=ops)
        clock = time.perf_counter
        for first in range(0, ops, BATCH):
            batch = operations[first:first + BATCH]
            began = clock()
            result = driver.run_mixed(batch, max_results=MAX_RESULTS,
                                      interarrival_ms=interarrival)
            outcome.timed(clock() - began, len(batch))
            responses = iter(result.responses)
            retrieves = iter(result.retrieves)
            for position, op in enumerate(batch, start=first):
                if isinstance(op, SearchOp):
                    outcome.note_search(next(responses), expected[position], network)
                else:
                    retrieved = next(retrieves)
                    if retrieved is not None:
                        outcome.downloads.append((op.resource_id, retrieved.stored))
            outcome.failed += result.failed + result.retrieve_failures + result.starved
            outcome.starved += result.starved
        if scenario.churn:
            outcome.churn_transitions = len(scenario.churn.events) - churn_before
        return outcome


class FloodSearch(BatchedWorkload):
    name = "flood_search"
    ops_per_second = 70.0

    def config(self, seed: int, ops: int) -> ScenarioConfig:
        return ScenarioConfig(protocol="gnutella", peers=400, members=40, publishers=20,
                              corpus_size=200, ttl=6, queries=ops, concurrency=BATCH,
                              query_interarrival_ms=25.0, seed=seed)


class ReplicateChurn(BatchedWorkload):
    name = "replicate_churn"
    ops_per_second = 57.0

    def config(self, seed: int, ops: int) -> ScenarioConfig:
        return ScenarioConfig(protocol="super-peer", peers=300, members=60, publishers=20,
                              corpus_size=200, queries=ops, concurrency=BATCH,
                              query_interarrival_ms=25.0, live_membership=True,
                              churn_session_ms=3_000.0, retrieve_fraction=0.4,
                              popularity_skew=1.0, query_repeat_alpha=0.3, seed=seed)

    def operations(self, scenario: Scenario, ops: int) -> list:
        # Downloads come from members that publish nothing: a publisher
        # asking for its own original has no other provider to fetch
        # from, and that refusal would be the workload's fault, not the
        # network's.
        downloaders = scenario.members()[scenario.config.publishers:]
        operations = scenario.mixed_operations()[:ops]
        return [replace(op, requester_id=downloaders[position % len(downloaders)].peer_id)
                if isinstance(op, RetrieveOp) else op
                for position, op in enumerate(operations)]


class ServentApp(Workload):
    """The paper's user path, one operation at a time.

    Every fourth op is a Create: the Create page rendered from the
    schema, then ``Application.publish`` (form submit, schema validate,
    store, announce).  The rest are Searches; a hit is downloaded from
    another peer and its View page rendered.
    """

    name = "servent_app"
    ops_per_second = 265.0
    min_ops = 1_000  # at least ten samples beyond the p99

    CORPUS = 100

    @staticmethod
    def is_create(position: int) -> bool:
        return position % 4 == 3

    def searches(self, ops: int) -> int:
        return sum(1 for position in range(ops) if not self.is_create(position))

    def config(self, seed: int, ops: int) -> ScenarioConfig:
        # Many members: a search's simulated latency is the round trip to
        # the index server, so the median over members' links must not
        # hinge on a handful of seeded link latencies.
        return ScenarioConfig(protocol="centralized", peers=100, members=80, publishers=10,
                              corpus_size=self.CORPUS, queries=self.searches(ops), seed=seed)

    def run(self, scenario: Scenario, ops: int) -> Outcome:
        applications = scenario.applications
        queries = zip(scenario.workload.queries, scenario.workload.expected_matches)
        # Objects to create: the community's generator continues past
        # the published corpus, so every record is new.
        fresh = iter(scenario.definition.sample_corpus(
            self.CORPUS + ops - self.searches(ops), seed=scenario.config.seed)[self.CORPUS:])
        outcome = Outcome(ops=ops)
        clock = time.perf_counter
        for position in range(ops):
            application = applications[position % len(applications)]
            me = application.servent.peer_id
            if self.is_create(position):
                record = next(fresh)
                began = clock()
                page = application.create_page_html()
                resource = application.publish(record)
                outcome.timed(clock() - began, 1)
                outcome.created.append((me, resource.resource_id))
                outcome.note_page(page, [f'name="{path.split("/")[-1]}"' for path in record])
            else:
                query, expected = next(queries)
                began = clock()
                response = application.search(query, max_results=MAX_RESULTS)
                remote = next((result for result in response.results
                               if result.provider_id != me), None)
                if remote is not None:
                    downloaded = application.download(remote)
                    target = downloaded.resource_id
                    page = application.view(target)
                elif response.results:
                    target = response.results[0].resource_id
                    page = application.view(target)
                outcome.timed(clock() - began, 1)
                outcome.note_search(response, expected, scenario.network)
                if remote is not None:
                    outcome.downloads.append((target, downloaded.retrieve.stored))
                if response.results:
                    title = application.servent.repository.retrieve(target).title
                    outcome.note_page(page, [html.escape(title, quote=False)])
        return outcome


WORKLOADS = {workload.name: workload
             for workload in (FloodSearch(), ReplicateChurn(), ServentApp())}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def originals_of(scenario: Scenario) -> dict[str, str]:
    """The published text of every object held anywhere after the build."""
    texts: dict[str, str] = {}
    for servent in scenario.servents:
        for stored in servent.repository.documents:
            texts.setdefault(stored.resource_id, stored.to_xml_text())
    return texts


def check(scenario: Scenario, outcome: Outcome, originals: dict[str, str]) -> list[str]:
    """Every violation of the benchmark's output rules, as messages."""
    peers = scenario.network.peers
    originals = dict(originals)
    for publisher, resource_id in outcome.created:
        originals[resource_id] = peers[publisher].repository.retrieve(resource_id).to_xml_text()
    violations = list(outcome.violations)
    for resource_id, stored in outcome.downloads:
        if originals.get(resource_id) != stored.to_xml_text():
            violations.append(f"download of {resource_id} differs from the published object")
    return violations


# ----------------------------------------------------------------------
# Workload input properties
# ----------------------------------------------------------------------
def descriptors(outcome: Outcome) -> dict[str, float]:
    searches = outcome.searches
    seen: set[tuple] = set()
    repeats = 0
    for search in searches:
        repeats += search.key in seen
        seen.add(search.key)
    count = max(1, len(searches))
    return {
        "workloads.repeat_share": repeats / count,
        "workloads.saturated_share":
            sum(1 for search in searches if search.results >= MAX_RESULTS) / count,
        "workloads.miss_share": sum(1 for search in searches if search.expected == 0) / count,
        "workloads.download_share": len(outcome.downloads) / outcome.ops,
        "workloads.churn_transitions_per_op": outcome.churn_transitions / outcome.ops,
    }


def recall(outcome: Outcome) -> float:
    ratios = [min(search.distinct, search.expected) / search.expected
              for search in outcome.searches if search.expected > 0]
    return sum(ratios) / len(ratios)
