"""Tracing propgraph's layers from the benchmark's own code.

The library is not instrumented. While a traced phase runs, the function
at each layer boundary is replaced by a wrapper that records a span
(name, start, end, parent, operation id) and counts. propgraph's modules
import each other by name (``from .traversal import ppr``), so a wrapper is
installed where the caller looks the name up: wrapping ``suggest.ppr``
times the subgraph walks that ``suggest`` runs, while the full-graph walk
inside ``extract_subgraph`` stays part of the carving span.
``uninstall`` puts every original back, so untraced phases run the
library exactly as shipped.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from propgraph import evaluation, global_mode, graph, indexing, local_mode, suggest, traversal
from propgraph.encoding import EmbedBackend
from propgraph.llm import ChatBackend, LLMGateway
from propgraph.prompts import PromptInstance, TemplateId

# (owner, attribute, span name): the calls that are timed, named
# <module>.<function> after the module that defines the function.
BOUNDARIES: list[tuple[object, str, str]] = [
    (evaluation, "answer_question", "evaluation.answer_question"),
    (indexing, "index_corpus", "indexing.index_corpus"),
    (indexing, "chunk", "indexing.chunk"),
    (graph, "save", "graph.save"),
    (graph, "load", "graph.load"),
    *[(graph.HeteroGraph, m, "graph.add") for m in ("add_passage", "add_entity", "add_entity_alias", "add_proposition")],
    (graph.HeteroGraph, "finalize", "graph.finalize"),
    (local_mode, "suggest_naive", "suggest.suggest_naive"),
    (local_mode, "suggest_local", "suggest.suggest_local"),
    (local_mode, "select", "suggest.select"),
    (global_mode, "suggest_naive", "suggest.suggest_naive"),
    (global_mode, "suggest_global", "suggest.suggest_global"),
    (global_mode, "select", "suggest.select"),
    (suggest, "top_k_similar", "encoding.top_k_similar"),
    (suggest, "extract_subgraph", "traversal.extract_subgraph"),
    (suggest, "query_aware_transition", "traversal.query_aware_transition"),
    (suggest, "build_structural_transition", "traversal.build_structural_transition"),
    (suggest, "ppr", "traversal.ppr"),
    (traversal, "build_structural_transition", "traversal.build_structural_transition"),
    (traversal, "build_semantic_transition", "traversal.build_semantic_transition"),
    (traversal, "blend", "traversal.blend"),
    *[
        (global_mode, f, f"global_mode.{f}")
        for f in ("collect_anchors", "compute_queries", "detect_communities", "select_communities", "build_reports")
    ],
    (global_mode, "leiden_levels", "community.leiden_levels"),
]

# Spans recorded elsewhere: by the wrapped registry, backend and embedder,
# and by the benchmark around its own operations.
OTHER_SPANS = ["indexing.resolve", "llm.complete", "encoding.embed", "bench.setup"]
SPAN_NAMES = sorted({name for _, _, name in BOUNDARIES} | set(OTHER_SPANS))

# Counts taken from the arguments or results of a traced call.
_COUNT_AFTER: dict[str, Callable] = {
    "suggest.suggest_global": lambda out, queries, *a, **k: {"suggest.walkers": len(queries)},
    "suggest.select": lambda out, text, candidates, *a, **k: {
        "suggest.select.candidates": len(candidates),
        "suggest.select.kept": len(out),
    },
    "traversal.extract_subgraph": lambda out, *a, **k: {"traversal.subgraph_node_total": out.node_count},
}

COUNTERS = [
    "encoding.embed.texts",
    "llm.ops",
    *[f"llm.complete.calls.{t.value}" for t in TemplateId],
    "suggest.walkers",
    "suggest.select.candidates",
    "suggest.select.kept",
    "traversal.subgraph_node_total",
]

_GATEWAY_OPS = (
    "extract_entities",
    "extract_propositions",
    "select_relevant",
    "evaluate_answerable",
    "next_questions",
    "decompose",
    "intermediary_answer",
    "final_answer",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    phase: str


class Tracer:
    """In-memory span recorder for one thread; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.phase = "op"
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op, self.phase))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index].start, self.spans[index].end = start, end

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.phase][name] += amount

    def install(self) -> None:
        """Wrap every layer boundary until ``uninstall``."""
        for owner, attr, name in BOUNDARIES:
            self._patch(owner, attr, self._wrapper(getattr(owner, attr), name))
        tracer = self

        class TracedRegistry(indexing.EntityRegistry):
            def resolve(self, surface, embedding):
                return tracer.call("indexing.resolve", super().resolve, surface, embedding)

        self._patch(indexing, "EntityRegistry", TracedRegistry)

    def watch(self, gateway: LLMGateway) -> None:
        """Count ``gateway``'s operations until ``uninstall``."""
        for op in _GATEWAY_OPS:
            self._patch(gateway, op, self._op_counter(getattr(gateway, op)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrapper(self, original: Callable, name: str) -> Callable:
        after = _COUNT_AFTER.get(name)

        def wrapper(*args, **kwargs):
            out = self.call(name, original, *args, **kwargs)
            if after is not None:
                for counter, amount in after(out, *args, **kwargs).items():
                    self.count(counter, amount)
            return out

        return wrapper

    def _op_counter(self, original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.count("llm.ops")
            return original(*args, **kwargs)

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class CountingBackend(ChatBackend):
    """Chat backend wrapper that counts completions.

    With a tracer it also counts them per template and records each one
    as an ``llm.complete`` span.
    """

    def __init__(self, inner: ChatBackend, tracer: Tracer | None = None):
        self.inner = inner
        self.tracer = tracer
        self.calls = 0

    def model_name(self) -> str:
        return self.inner.model_name()

    def complete(self, prompt: PromptInstance) -> str:
        self.calls += 1
        if self.tracer is None:
            return self.inner.complete(prompt)
        self.tracer.count(f"llm.complete.calls.{prompt.template_id.value}")
        return self.tracer.call("llm.complete", self.inner.complete, prompt)


class TracedEmbedder(EmbedBackend):
    """Embedder wrapper recording ``encoding.embed`` spans and text counts."""

    def __init__(self, inner: EmbedBackend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def dimension(self) -> int:
        return self.inner.dimension()

    def embed(self, texts):
        self.tracer.count("encoding.embed.texts", len(texts))
        return self.tracer.call("encoding.embed", self.inner.embed, texts)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every span and counter as a value per operation.

    Values of the "op" phase are divided by its number of root spans (one
    per question); those of the "setup" phase by the number
    of set-ups, and carry the prefix ``setup.``. ``<span>.s`` is self time
    and ``<span>.calls`` the number of spans. ``trace.root_s`` is the
    traced duration of an operation and ``trace.layers_self_s`` the self
    time of all spans below its root.
    """
    self_times = tracer.self_times()
    values: dict[str, float] = {}
    for phase, prefix in (("op", ""), ("setup", "setup.")):
        spans = [(s, t) for s, t in zip(tracer.spans, self_times) if s.phase == phase]
        roots = [s for s, _ in spans if s.parent is None]
        per = max(1, len(roots))
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for span, t in spans:
            self_s[span.name] += t
            calls[span.name] += 1
        for name in SPAN_NAMES:
            values[f"{prefix}{name}.s"] = self_s[name] / per
            values[f"{prefix}{name}.calls"] = calls[name] / per
        counts = tracer.counts[phase]
        for name in COUNTERS:
            values[prefix + name] = counts[name] / per
        completions = sum(counts[f"llm.complete.calls.{t.value}"] for t in TemplateId)
        values[prefix + "llm.retries"] = (completions - counts["llm.ops"]) / per
        candidates = counts["suggest.select.candidates"]
        values[prefix + "suggest.select.kept_ratio"] = counts["suggest.select.kept"] / candidates if candidates else 0.0
        carves = calls["traversal.extract_subgraph"]
        values[prefix + "traversal.subgraph_nodes"] = counts["traversal.subgraph_node_total"] / carves if carves else 0.0
        values[prefix + "trace.root_s"] = sum(s.end - s.start for s in roots) / per
        values[prefix + "trace.layers_self_s"] = sum(t for s, t in spans if s.parent is not None) / per
    return values
