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
from .graph import HeteroGraph, NodeId, NodeKind, proposition_id
from .llm import LLMGateway
from .suggest import PropositionPool, select, suggest_global, suggest_naive
from .tokens import estimate_tokens, truncate_to_tokens
from .trace import Trace
from .traversal import extract_subgraphs

T = TypeVar("T")


@dataclass
class WalkRecord:
    """What one suggestion round kept for later query refinement.

    ``walker_pis`` is None for seeding rounds, where the "walker" was a
    plain similarity search and its query stands in for the walk origin.
    """

    queries: list[np.ndarray]
    walker_pis: list[dict[int, float]] | None
    kept: list[int]
    pruned: list[int]


@dataclass
class QueryState:
    """Per-anchor refined query and the feedback components that built it."""

    anchor: int
    q_origin: np.ndarray
    q_positive: np.ndarray
    q_negative: np.ndarray
    q_raw: np.ndarray
    q: np.ndarray
    n_sources: int


@dataclass(frozen=True)
class Community:
    id: int
    nodes: frozenset[NodeId]

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass
class AnchorCollection:
    pool: PropositionPool
    iterations: int


@dataclass
class GlobalResult:
    answer: str
    failed: bool
    trace: Trace
    collected: PropositionPool


def compute_queries(
    pool: PropositionPool,
    records: dict[int, list["WalkRecord"]],
    graph: HeteroGraph,
    cfg: RunConfig,
) -> dict[int, QueryState]:
    """Refine one query vector per pooled proposition from walk feedback.

    The origin component averages, over every round that surfaced the
    proposition, the query of the walker most likely to have reached it;
    the positive component is the proposition's own embedding; the
    negative component averages the mean embeddings of what selection
    pruned in those rounds. The combination alpha*origin + beta*positive
    - gamma*negative is renormalized to unit length for downstream cosine.
    """
    states: dict[int, QueryState] = {}
    embeddings = graph.proposition_embeddings
    dim = embeddings.shape[1]
    for prop in pool:
        q_positive = embeddings[prop]
        origin_parts: list[np.ndarray] = []
        negative_parts: list[np.ndarray] = []
        for rec in records.get(prop, []):
            if rec.walker_pis is None:
                origin_parts.append(np.asarray(rec.queries[0], dtype=np.float64))
            else:
                visits = [pis.get(prop, 0.0) for pis in rec.walker_pis]
                best = int(np.argmax(visits))  # ties resolve to the lowest walker index
                origin_parts.append(np.asarray(rec.queries[best], dtype=np.float64))
            if rec.pruned:
                negative_parts.append(embeddings[rec.pruned].mean(axis=0))
            else:
                negative_parts.append(np.zeros(dim))
        if origin_parts:
            q_origin = np.mean(origin_parts, axis=0)
            q_negative = np.mean(negative_parts, axis=0)
        else:  # no recorded round: fall back to the proposition itself
            q_origin = q_positive.copy()
            q_negative = np.zeros(dim)
        q_raw = cfg.rocchio_alpha * q_origin + cfg.rocchio_beta * q_positive - cfg.rocchio_gamma * q_negative
        norm = float(np.linalg.norm(q_raw))
        q = q_raw / norm if norm > 0 else q_positive.copy()
        states[prop] = QueryState(prop, q_origin, q_positive, q_negative, q_raw, q, len(origin_parts))
    return states


def partition_pool(pool: Iterable[int], m: int) -> list[list[int]]:
    """Round-robin split by insertion order into m parts (sizes differ by <= 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ids = list(pool)
    return [ids[j::m] for j in range(m)]


def collect_anchors(
    q_start: str,
    graph: HeteroGraph,
    gateway: LLMGateway,
    embedder: EmbedBackend,
    cfg: RunConfig,
    trace: Trace | None = None,
) -> AnchorCollection:
    """Iterative breadth-first anchor gathering.

    Seeds the pool from decomposed facet queries, then loops - refine
    queries, partition the pool, walk each partition, select - until
    ``min_facts`` anchors are collected, the iteration budget is spent,
    or a round keeps nothing (an empty pool cannot seed further walks).
    A round's partitions are fixed before it starts, so their subgraphs
    are carved together in one block walk.
    """
    trace = trace if trace is not None else Trace()
    suggest_cfg = cfg.suggest_config()
    subqueries = gateway.decompose(q_start, cfg.breadth_m)
    trace.log("decompose", questions=subqueries)

    s_pool = PropositionPool()
    s_glb = PropositionPool()
    records: dict[int, list[WalkRecord]] = {}
    for q_index, question in enumerate(subqueries):
        q_vec = np.asarray(embedder.embed_one(question), dtype=np.float64)
        suggested = suggest_naive(q_vec, graph, suggest_cfg)
        kept = select(question, suggested, graph, gateway)
        kept_set = set(kept)
        rec = WalkRecord([q_vec], None, kept, [c for c in suggested if c not in kept_set])
        for prop in kept:
            s_pool.add(prop)
            s_glb.add(prop)
            records.setdefault(prop, []).append(rec)
        trace.log("seed", query_index=q_index, query=question, suggested=suggested, kept=kept)

    iteration = 0
    while len(s_glb) < cfg.min_facts and iteration < cfg.max_iter and len(s_pool) > 0:
        iteration += 1
        states = compute_queries(s_pool, records, graph, cfg)
        s_pool_new = PropositionPool()
        new_records: dict[int, list[WalkRecord]] = {}
        # a round-robin split leaves any empty parts at the end
        parts = [part for part in partition_pool(s_pool, cfg.breadth_m) if part]
        carved = extract_subgraphs(graph, parts, cfg.subgraph_max_size, suggest_cfg.walk)
        for part_index, (part, sub) in enumerate(zip(parts, carved)):
            walk_queries = [(prop, states[prop].q) for prop in part]
            suggested, walker_pis = suggest_global(walk_queries, sub, suggest_cfg, exclude=s_glb.ids())
            kept = select(q_start, suggested, graph, gateway) if suggested else []
            kept_set = set(kept)
            rec = WalkRecord(
                [states[prop].q for prop in part],
                walker_pis,
                kept,
                [c for c in suggested if c not in kept_set],
            )
            for prop in kept:
                s_pool_new.add(prop)
                new_records.setdefault(prop, []).append(rec)
            trace.log(
                "explore",
                iteration=iteration,
                partition=part_index,
                members=part,
                suggested=suggested,
                kept=kept,
            )
        for prop in s_pool_new:
            s_glb.add(prop)
        s_pool = s_pool_new
        records = new_records
        trace.log("collected", iteration=iteration, anchors=len(s_glb), pool=len(s_pool))
    return AnchorCollection(s_glb, iteration)


def detect_communities(
    graph: HeteroGraph,
    min_size: int = 10,
    max_size: int = 150,
    seed: int = 0,
    resolution: float = 1.0,
) -> tuple[Community, ...]:
    """Leiden communities over the whole graph, all levels, size-filtered.

    Leiden runs on the walk matrix's pattern with unit edge weights.
    Identical node sets appearing at several levels are reported once.
    Ids are assigned in (level, lowest-node) order so they are stable for
    a fixed graph and seed.
    """
    walk = graph.uniform_transition
    adjacency = sp.csr_matrix((np.ones(walk.nnz), walk.indices, walk.indptr), shape=walk.shape)
    order = graph.node_order
    communities: list[Community] = []
    seen: set[frozenset[int]] = set()
    for partition in leiden_levels(adjacency, resolution=resolution, seed=seed):
        for nodes in sorted(partition, key=min):
            block = frozenset(nodes)
            if block in seen:
                continue
            seen.add(block)
            if min_size <= len(block) <= max_size:
                communities.append(Community(len(communities), frozenset(order[i] for i in block)))
    return tuple(communities)


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
    anchors: set[NodeId], candidates: Sequence[Community], budget: int
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
    covered: set[NodeId] = set()
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
    for community in chosen:
        entities = sorted(n.index for n in community.nodes if n.kind is NodeKind.ENTITY)
        props = sorted(n.index for n in community.nodes if n.kind is NodeKind.PROPOSITION)
        passages = sorted(n.index for n in community.nodes if n.kind is NodeKind.PASSAGE)
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
        step = max(1, int(limit / 1.3))
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
) -> GlobalResult:
    """End-to-end abstract-question answering.

    Collect anchors, select communities (detected once per graph and
    Leiden settings), generate one scored partial answer per community
    chunk, then synthesize the final answer from the ranked partial
    answers arranged best-at-the-edges. With no eligible community the
    anchors' own texts serve as the context.
    """
    cfg = cfg or RunConfig()
    trace = Trace()
    collection = collect_anchors(q_start, graph, gateway, embedder, cfg, trace)
    anchor_ids = collection.pool.ids()

    candidates = _candidate_communities(graph, cfg)
    anchor_nodes = {proposition_id(i) for i in anchor_ids}
    chosen = select_communities(anchor_nodes, candidates, cfg.node_budget) if candidates else []
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

    trace.log("result", answer=answer, failed=False, anchors=len(anchor_ids), iterations=collection.iterations)
    return GlobalResult(answer, False, trace, collection.pool)
