"""Spans around the public calls of each layer, recorded from outside.

``Tracer.install`` swaps a public function or method of the program for
a wrapper that times each call and puts it back on ``uninstall``.  A
span has a count, an inclusive time and a self time (inclusive minus
the traced calls nested inside it), summed per phase: ``setup`` (the
scenario build) or ``measured`` (the workload).  Spans stay in memory
and are read once the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: take the event-queue depth every this many simulator steps;
#: ``pending_events()`` scans the whole heap, so sampling every step
#: would swamp the engine's own cost
QUEUE_SAMPLE_EVERY = 64


class Tracer:
    """Per-phase call counts, inclusive and self times of named spans."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.inclusive: dict[tuple[str, str], float] = defaultdict(float)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        #: extra per-phase tallies (parsed characters, non-empty
        #: evaluations, messages sent inside a span, queue depth)
        self.tally: dict[tuple[str, str], float] = defaultdict(float)
        self._children: list[float] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
             around: Optional[Callable[[tuple], float]] = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``after(tracer, args, result)`` runs once the call returned;
        ``around(args)`` is read before and after the call and the
        difference is added to the ``<name>.delta`` tally.
        """
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = tracer._children
            before = around(args) if around is not None else 0.0
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                if children:
                    children[-1] += elapsed
                key = (tracer.phase, name)
                tracer.calls[key] += 1
                tracer.inclusive[key] += elapsed
                tracer.self_s[key] += elapsed - nested
            if around is not None:
                tracer.tally[(tracer.phase, name + ".delta")] += around(args) - before
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install_function(self, module: Any, attribute: str, name: str, **hooks) -> None:
        """Trace a module-level function everywhere it was imported.

        ``from x import f`` copies the function into the importing
        module, so every loaded ``repro`` module holding the same object
        gets the wrapper too.
        """
        original = getattr(module, attribute)
        wrapper = self.wrap(name, original, **hooks)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, key, value))
                    setattr(loaded, key, wrapper)

    def install_method(self, cls: type, attribute: str, name: str, **hooks) -> None:
        original = cls.__dict__[attribute]
        self._restore.append((cls, attribute, original))
        setattr(cls, attribute, self.wrap(name, original, **hooks))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def get_calls(self, phase: str, name: str) -> int:
        return self.calls.get((phase, name), 0)

    def get_self(self, phase: str, name: str) -> float:
        return self.self_s.get((phase, name), 0.0)

    def get_inclusive(self, phase: str, name: str) -> float:
        return self.inclusive.get((phase, name), 0.0)

    def get_tally(self, phase: str, name: str) -> float:
        return self.tally.get((phase, name), 0.0)


# ----------------------------------------------------------------------
# What is traced: one entry per layer boundary.
# ----------------------------------------------------------------------
def _count_chars(tracer: Tracer, args: tuple, result: Any) -> None:
    if args and isinstance(args[0], str):
        tracer.tally[(tracer.phase, "xmlkit.parse.chars")] += len(args[0])


def _count_hit(tracer: Tracer, args: tuple, result: Any) -> None:
    if result:
        tracer.tally[(tracer.phase, "storage.evaluate.hits")] += 1


def _sample_queue(tracer: Tracer, args: tuple, result: Any) -> None:
    key = (tracer.phase, "engine.step.samples")
    tracer.tally[key] += 1
    if tracer.tally[key] % QUEUE_SAMPLE_EVERY == 0:
        depth_key = (tracer.phase, "engine.queue_depth_max")
        depth = args[0].pending_events()
        if depth > tracer.tally[depth_key]:
            tracer.tally[depth_key] = depth


def _messages_of_servent(args: tuple) -> float:
    return args[0].network.stats.total_messages


#: the spans the per-layer record reports as ``.calls`` and ``.s``, in
#: report order (``engine.step`` is reported as the engine's own metrics)
SPANS = (
    "xslt.compile", "xslt.transform",
    "xmlkit.parse", "xmlkit.serialize",
    "schema.parse", "schema.validate",
    "core.servent_init", "core.create", "core.render", "core.join",
    "storage.compile", "storage.evaluate", "storage.publish",
    "storage.index_add", "storage.index_remove",
    "network.set_online",
)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the record names."""
    from repro.core.servent import Servent
    from repro.core.stylesheets import StylesheetSet
    from repro.network.base import PeerNetwork
    from repro.network.gnutella import GnutellaProtocol
    from repro.network.rendezvous import RendezvousProtocol
    from repro.network.simulator import NetworkSimulator
    from repro.network.superpeer import SuperPeerProtocol
    from repro.schema import parser as schema_parser
    from repro.schema import validator as schema_validator
    from repro.storage import plan as storage_plan
    from repro.storage.index import AttributeIndex
    from repro.storage.plan import CompiledQuery
    from repro.storage.repository import LocalRepository
    from repro.workloads import queries as workload_queries
    from repro.xmlkit import parser as xml_parser
    from repro.xmlkit import serializer as xml_serializer
    from repro.xslt import parser as xslt_parser
    from repro.xslt.engine import Transformer

    tracer.install_function(xslt_parser, "parse_stylesheet_text", "xslt.compile")
    tracer.install_method(Transformer, "transform", "xslt.transform")
    tracer.install_function(xml_parser, "parse", "xmlkit.parse", after=_count_chars)
    for attribute in ("serialize", "canonical"):
        tracer.install_function(xml_serializer, attribute, "xmlkit.serialize")
    tracer.install_function(schema_parser, "parse_schema_text", "schema.parse")
    tracer.install_function(schema_validator, "validate", "schema.validate")
    tracer.install_method(Servent, "__init__", "core.servent_init")
    tracer.install_method(Servent, "create_object", "core.create")
    for attribute in ("render_create_form", "render_search_form", "render_view"):
        tracer.install_method(StylesheetSet, attribute, "core.render")
    tracer.install_method(Servent, "search_communities", "core.discover",
                          around=_messages_of_servent)
    tracer.install_method(Servent, "join_community", "core.join",
                          around=_messages_of_servent)
    tracer.install_function(storage_plan, "compile_query", "storage.compile")
    tracer.install_method(CompiledQuery, "evaluate", "storage.evaluate", after=_count_hit)
    tracer.install_method(LocalRepository, "publish", "storage.publish")
    tracer.install_method(AttributeIndex, "add", "storage.index_add")
    tracer.install_method(AttributeIndex, "remove", "storage.index_remove")
    tracer.install_method(PeerNetwork, "set_online", "network.set_online")
    tracer.install_method(GnutellaProtocol, "build_overlay", "network.overlay")
    tracer.install_method(SuperPeerProtocol, "elect_super_peers", "network.overlay")
    tracer.install_method(RendezvousProtocol, "elect_rendezvous", "network.overlay")
    tracer.install_method(NetworkSimulator, "step", "engine.step", after=_sample_queue)
    tracer.install_function(workload_queries, "build_query_workload", "workloads.queries")
