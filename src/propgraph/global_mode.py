"""Community-grounded answering for abstract, multi-faceted questions.

Anchors are collected breadth-first: the question is decomposed into
facet sub-queries, each seeds the pool via similarity search plus
selection, and further rounds give every pooled proposition its own
relevance-feedback-refined query and its own walk. The anchors then pick
graph communities under a node budget; community content is chunked,
partially answered, and the ranked partial answers are arranged with the
strongest material at the edges of the final context before synthesis.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

import numpy as np
import scipy.sparse as sp

from .community import leiden_levels
from .config import RunConfig
from .encoding import EmbedBackend
from .graph import HeteroGraph
from .llm import LLMGateway
from .suggest import Result, select, select_wave, suggest_global, suggest_naive
from .tokens import WORDS_TO_TOKENS, estimate_tokens, truncate_to_tokens
from .trace import Trace
from .traversal import extract_subgraphs

T = TypeVar("T")


@dataclass
class WalkRecord:
    """What one walk's ``Select`` kept for later query refinement: a partition's walk in a round, or one facet's seeding.

    ``origins`` maps each kept proposition to the query of the walker most
    likely to have reached it; a seeding round's facet query stands for
    everything it kept. ``pruned`` is what its ``Select`` dropped.
    """

    origins: dict[int, np.ndarray]
    pruned: list[int]


@dataclass
class QueryState:
    """Per-anchor refined query and the feedback components that built it."""

    q_origin: np.ndarray
    q_positive: np.ndarray
    q_negative: np.ndarray
    q_raw: np.ndarray
    q: np.ndarray
    n_sources: int


@dataclass(frozen=True)
class Community:
    """A Leiden block; ``nodes`` are global indices, as in the graph's walk matrix."""

    id: int
    nodes: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.nodes)


def compute_queries(
    pool: Iterable[int],
    records: dict[int, list["WalkRecord"]],
    graph: HeteroGraph,
    cfg: RunConfig,
) -> dict[int, QueryState]:
    """Refine one query vector per pooled proposition from walk feedback.

    The origin component averages the proposition's origin query over
    every walk of that seeding or round that kept it (the pool holds one
    seeding's or one round's records); the positive component is the
    proposition's own embedding; the negative component averages the mean
    embeddings of what selection pruned in those walks. The combination
    alpha*origin + beta*positive - gamma*negative is renormalized to unit
    length for downstream cosine.
    """
    states: dict[int, QueryState] = {}
    embeddings = graph.proposition_embeddings
    dim = embeddings.shape[1]
    # one record is shared by every proposition its Select kept: its mean is taken once
    pruned_means: dict[int, np.ndarray] = {}
    for prop in pool:
        q_positive = embeddings[prop].astype(np.float64)
        origin_parts: list[np.ndarray] = []
        negative_parts: list[np.ndarray] = []
        for rec in records.get(prop, []):
            origin_parts.append(np.asarray(rec.origins[prop], dtype=np.float64))
            if id(rec) not in pruned_means:
                pruned_means[id(rec)] = (
                    embeddings[rec.pruned].astype(np.float64).mean(axis=0) if rec.pruned else np.zeros(dim)
                )
            negative_parts.append(pruned_means[id(rec)])
        if origin_parts:
            q_origin = np.mean(origin_parts, axis=0)
            q_negative = np.mean(negative_parts, axis=0)
        else:  # no recorded round: fall back to the proposition itself
            q_origin = q_positive.copy()
            q_negative = np.zeros(dim)
        q_raw = cfg.rocchio_alpha * q_origin + cfg.rocchio_beta * q_positive - cfg.rocchio_gamma * q_negative
        norm = float(np.linalg.norm(q_raw))
        q = q_raw / norm if norm > 0 else q_positive.copy()
        states[prop] = QueryState(q_origin, q_positive, q_negative, q_raw, q, len(origin_parts))
    return states


def partition_pool(pool: Iterable[int], m: int) -> list[list[int]]:
    """Round-robin split by insertion order into m parts (sizes differ by <= 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ids = list(pool)
    return [ids[j::m] for j in range(m)]


def _keep(pool: dict[int, list[WalkRecord]], suggested: list[int], origins: dict[int, np.ndarray]) -> None:
    """Add what a walk's ``Select`` kept to ``pool``: ``origins`` maps each kept id, in order, to its origin query."""
    rec = WalkRecord(origins, [c for c in suggested if c not in origins])
    for prop in origins:
        pool.setdefault(prop, []).append(rec)


def collect_anchors(
    q_start: str,
    graph: HeteroGraph,
    gateway: LLMGateway,
    embedder: EmbedBackend,
    cfg: RunConfig,
    trace: Trace | None = None,
) -> tuple[list[int], int]:
    """Iterative breadth-first anchor gathering: the anchors, in collection order, and the rounds run.

    The pool maps each proposition of the last seeding or round, in
    insertion order, to the records of the walks that kept it. Seeds it
    from decomposed facet queries. The distinct facets are embedded in one
    call, then searched and selected once each, in order of first
    appearance. A repeated facet (decomposition pads a short list with the
    question) reuses its first seeding, yet still logs its own ``seed``
    event and adds its own record, so the refined queries are those of
    seeding every facet.

    Then it loops - refine queries, partition the pool, walk each
    partition, select - until ``min_facts`` anchors are collected, the
    iteration budget is spent, or a round keeps nothing (an empty pool
    cannot seed further walks). A round's partitions are fixed before it
    starts, so their subgraphs are carved together in one block walk. A
    round then works in two phases: every partition suggests, against the
    anchors collected before the round, and then the round's suggestions
    are selected.

    The seeding and every round are each one wave of :func:`select_wave`,
    which shares one verdict map, kept for this call only: each proposition
    is judged once per question text, and a round's unjudged suggestions
    are packed into ``Select`` prompts of at most ``top_k`` candidates. A
    partition's kept list is its own suggestions, in order, whose verdict
    is keep. A facet equal to the question shares the rounds' verdicts.
    """
    trace = trace if trace is not None else Trace()
    subqueries = gateway.decompose(q_start, cfg.breadth_m)
    trace.log("decompose", questions=subqueries)

    verdicts: dict[tuple[str, int], bool] = {}
    distinct = list(dict.fromkeys(subqueries))
    q_vecs = embedder.embed(distinct)
    asks = [(question, suggest_naive(q_vec, graph, cfg)) for question, q_vec in zip(distinct, q_vecs)]
    kept_lists = select_wave(asks, verdicts, cfg.top_k, graph, gateway, select)
    pool: dict[int, list[WalkRecord]] = {}
    for q_index, question in enumerate(subqueries):
        first = distinct.index(question)
        (_, suggested), kept = asks[first], kept_lists[first]
        _keep(pool, suggested, dict.fromkeys(kept, q_vecs[first]))
        trace.log("seed", query_index=q_index, query=question, suggested=suggested, kept=kept)
    collected = dict.fromkeys(pool)

    iteration = 0
    while len(collected) < cfg.min_facts and iteration < cfg.max_iter and pool:
        iteration += 1
        states = compute_queries(pool, pool, graph, cfg)
        # a round-robin split leaves any empty parts at the end
        parts = [part for part in partition_pool(pool, cfg.breadth_m) if part]
        carved = extract_subgraphs(graph, parts, cfg.subgraph_max_size, cfg)
        # every walk of the round finishes before any of its Selects, so none sees the round's anchors
        walks = [
            suggest_global([(prop, states[prop].q) for prop in part], sub, cfg, exclude=collected)
            for part, sub in zip(parts, carved)
        ]
        kept_lists = select_wave(
            [(q_start, suggested) for suggested, _ in walks], verdicts, cfg.top_k, graph, gateway, select
        )
        pool = {}
        for part_index, (part, (suggested, nearest), kept) in enumerate(zip(parts, walks, kept_lists)):
            origin = dict(zip(suggested, nearest))
            _keep(pool, suggested, {prop: states[part[origin[prop]]].q for prop in kept})
            trace.log(
                "explore",
                iteration=iteration,
                partition=part_index,
                members=part,
                suggested=suggested,
                kept=kept,
            )
        collected.update(dict.fromkeys(pool))
        trace.log("collected", iteration=iteration, anchors=len(collected), pool=len(pool))
    return list(collected), iteration


def detect_communities(
    graph: HeteroGraph, min_size: int, max_size: int, seed: int, resolution: float
) -> tuple[Community, ...]:
    """Leiden communities over the whole graph, all levels, size-filtered.

    Leiden runs on the walk matrix's pattern with unit edge weights. Only
    blocks within ``[min_size, max_size]`` become node sets, and one found
    at several levels is reported once. Ids follow (level, lowest node)
    order, so they are stable for a fixed graph and seed.
    """
    walk = graph.uniform_transition
    adjacency = sp.csr_matrix((np.ones(walk.nnz), walk.indices, walk.indptr), shape=walk.shape)
    levels = leiden_levels(adjacency, resolution=resolution, seed=seed)
    node = list(range(walk.shape[0]))  # one int object per node, shared by every block
    blocks: dict[frozenset[int], None] = {}  # each distinct block once, in id order
    for labels in levels:
        members = sorted(node, key=labels.tolist().__getitem__)  # block by block, ascending within
        ends = np.cumsum(np.bincount(labels)).tolist()
        for lo, hi in sorted(zip([0, *ends], ends), key=lambda span: members[span[0]]):
            if min_size <= hi - lo <= max_size:
                blocks.setdefault(frozenset(set(members[lo:hi])))  # copied from a set, sized to fit
    return tuple(Community(i, block) for i, block in enumerate(blocks))


# Communities depend on the graph and the Leiden settings, never on the
# question: computed once per frozen graph and key, and dropped with the graph.
_COMMUNITIES: "weakref.WeakKeyDictionary[HeteroGraph, dict[tuple, tuple[Community, ...]]]" = (
    weakref.WeakKeyDictionary()
)
_COMMUNITIES_LOCK = threading.Lock()


def _candidate_communities(graph: HeteroGraph, cfg: RunConfig) -> tuple[Community, ...]:
    key = (cfg.min_community_size, cfg.max_community_size, cfg.leiden_seed, cfg.leiden_resolution)
    with _COMMUNITIES_LOCK:  # held through a miss, so concurrent callers run Leiden once
        per_graph = _COMMUNITIES.setdefault(graph, {})
        if key not in per_graph:
            per_graph[key] = detect_communities(graph, *key)
        return per_graph[key]


def select_communities(
    anchors: set[int], candidates: Sequence[Community], budget: int
) -> list[Community]:
    """Greedy budgeted cover of the anchors by communities.

    Each step picks the community with the highest count of still-uncovered
    anchors per node (ties: smaller community, then lower id), accruing its
    size against the budget. Stops once every coverable anchor is covered,
    the budget is spent, or candidates run out; the final pick may overshoot
    the budget by at most its own size.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    held = [c.nodes & anchors for c in candidates]  # no pick changes these
    coverable = set().union(*held)
    covered: set[int] = set()
    # Lazy greedy over negated keys, the best first: highest ratio, then
    # smaller community, lower id, earlier candidate. A pick only covers
    # more anchors, so a key can only fall: a popped key that is still
    # current beats every other stale key, and so every current one.
    heap = [(-len(nodes) / c.size, c.size, c.id, i) for i, (c, nodes) in enumerate(zip(candidates, held))]
    heapq.heapify(heap)
    chosen: list[Community] = []
    used = 0
    while covered != coverable and used < budget and heap:
        _, size, cid, i = top = heap[0]
        current = (-len(held[i] - covered) / size, size, cid, i)
        if current != top:
            heapq.heapreplace(heap, current)
            continue
        heapq.heappop(heap)
        chosen.append(candidates[i])
        covered |= held[i]
        used += size
    return chosen


def build_reports(
    chosen: Sequence[Community], graph: HeteroGraph, cfg: RunConfig
) -> list[str]:
    """Render chosen communities to text and split into token-bounded chunks.

    Per community: entity names, proposition texts, then passages
    truncated to the per-passage token limit. The concatenation is packed
    into chunks no larger than ``max_tokens_community_chunks``.
    """
    lines: list[str] = []
    rows = graph.proposition_rows
    for community in chosen:
        nodes = sorted(community.nodes)
        passages = [i for i in nodes if i < rows.start]
        props = [i - rows.start for i in nodes if rows.start <= i < rows.stop]
        entities = [i - rows.stop for i in nodes if i >= rows.stop]
        lines.append(f"## Community {community.id}")
        if entities:
            lines.append("Entities: " + "; ".join(graph.entities[i].canonical_name for i in entities))
        if props:
            lines.append("Facts:")
            lines.extend(f"- {graph.propositions[i].text}" for i in props)
        if passages:
            lines.append("Passages:")
            lines.extend(
                f"- {truncate_to_tokens(graph.passages[i].text, cfg.passage_token_limit)}"
                for i in passages
            )
    return _pack_lines(lines, cfg.max_tokens_community_chunks)


def _pack_lines(lines: Sequence[str], limit: int) -> list[str]:
    pieces: list[str] = []
    for line in lines:
        if estimate_tokens(line) <= limit:
            pieces.append(line)
            continue
        words = line.split()
        step = max(1, int(limit / WORDS_TO_TOKENS))
        pieces.extend(" ".join(words[i : i + step]) for i in range(0, len(words), step))
    chunks: list[str] = []
    current: list[str] = []
    current_tokens = 0
    for piece in pieces:
        t = estimate_tokens(piece)
        if current and current_tokens + t > limit:
            chunks.append("\n".join(current))
            current = []
            current_tokens = 0
        current.append(piece)
        current_tokens += t
    if current:
        chunks.append("\n".join(current))
    return chunks


def interleave_extremes(items: Sequence[T]) -> list[T]:
    """Arrange ranked items so the strongest sit at both edges.

    Rank 1 leads, rank 2 closes, and later ranks fill toward the middle:
    [1, 2, 3, 4, 5] becomes [1, 3, 5, 4, 2]. This counteracts the
    weakness of long-context models at attending to mid-context material.
    """
    front: list[T] = []
    back: list[T] = []
    for i, item in enumerate(items):
        (front if i % 2 == 0 else back).append(item)
    return front + back[::-1]


def _fit_to_budget(items: Sequence[str], limit: int) -> list[str]:
    kept: list[str] = []
    total = 0
    for item in items:
        t = estimate_tokens(item)
        if kept and total + t > limit:
            break
        kept.append(item)
        total += t
    return kept


def answer_global(
    q_start: str,
    graph: HeteroGraph,
    gateway: LLMGateway,
    embedder: EmbedBackend,
    cfg: RunConfig | None = None,
) -> Result:
    """End-to-end abstract-question answering.

    Collect anchors, select communities (detected once per graph and
    Leiden settings), generate one scored partial answer per community
    chunk, then synthesize the final answer from the ranked partial
    answers arranged best-at-the-edges. With no eligible community the
    anchors' own texts serve as the context.
    """
    cfg = cfg or RunConfig()
    trace = Trace()
    anchor_ids, iterations = collect_anchors(q_start, graph, gateway, embedder, cfg, trace)

    candidates = _candidate_communities(graph, cfg)
    anchor_nodes = {graph.proposition_rows.start + i for i in anchor_ids}
    chosen = select_communities(anchor_nodes, candidates, cfg.node_budget)
    trace.log(
        "communities",
        candidates=len(candidates),
        chosen=[c.id for c in chosen],
        sizes=[c.size for c in chosen],
    )

    if chosen:
        chunks = build_reports(chosen, graph, cfg)
        scored: list[tuple[int, int, str]] = []
        for chunk_index, chunk_text in enumerate(chunks):
            answer, score = gateway.intermediary_answer(q_start, chunk_text)
            scored.append((score, chunk_index, answer))
        ranked = sorted(scored, key=lambda item: (-item[0], item[1]))
        trace.log("intermediary", scores=[s for s, _, _ in ranked], chunks=len(chunks))
        answers = [answer for _, _, answer in ranked if answer.strip()]
        kept = _fit_to_budget(answers, cfg.max_tokens_report)
        context = interleave_extremes(kept)
        answer = gateway.final_answer(q_start, context, combine=True)
    else:
        texts = _fit_to_budget(graph.proposition_texts(anchor_ids), cfg.max_tokens_report)
        trace.log("anchor_fallback", facts=len(texts))
        answer = gateway.final_answer(q_start, texts, combine=False)

    trace.log("result", answer=answer, failed=False, anchors=len(anchor_ids), iterations=iterations)
    return Result(answer, False, trace, anchor_ids)
