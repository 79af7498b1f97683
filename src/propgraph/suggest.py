"""Candidate-proposition suggestion and LLM-feedback selection.

Three suggestion flavors share one contract: return at most ``k`` fresh
proposition ids, ranked, never re-proposing seeds or caller-excluded ids.
``suggest_naive`` is pure similarity search; ``suggest_local`` walks a
seed-anchored subgraph with one blended operator; ``suggest_global`` runs
one walk per pool member inside a subgraph carved around them all and
aggregates the stationary distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .encoding import top_k_similar
from .graph import HeteroGraph
from .llm import LLMGateway
from .traversal import (
    Subgraph,
    TransitionMatrix,
    WalkParams,
    build_structural_transition,
    extract_subgraph,
    ppr,
    query_aware_transition,
)


class PropositionPool:
    """Ordered, duplicate-free set of proposition ids, in insertion order."""

    def __init__(self, props: Iterable[int] = ()):
        self._ids: dict[int, None] = dict.fromkeys(props)

    def add(self, prop: int) -> bool:
        """Insert unless present. Returns True if added."""
        if prop in self._ids:
            return False
        self._ids[prop] = None
        return True

    def ids(self) -> list[int]:
        return list(self._ids)

    def copy(self) -> "PropositionPool":
        return PropositionPool(self._ids)

    def __contains__(self, prop: int) -> bool:
        return prop in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)


@dataclass
class SuggestConfig:
    k: int = 20
    subgraph_size: int = 500
    walk: WalkParams = field(default_factory=WalkParams)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.subgraph_size < 1:
            raise ValueError("subgraph_size must be >= 1")


def suggest_naive(query_vec: np.ndarray, graph: HeteroGraph, cfg: SuggestConfig) -> list[int]:
    """Top-k propositions by cosine, ignoring edges and any seed context."""
    matrix = graph.proposition_embeddings
    if matrix.shape[0] == 0:
        raise ValueError("graph has no propositions")
    return [idx for idx, _ in top_k_similar(query_vec, matrix, cfg.k)]


def _rank_new(
    probabilities: np.ndarray,
    row_props: Sequence[int],
    excluded: set[int],
    k: int,
) -> list[int]:
    """Positively-visited rows mapped to proposition ids, minus exclusions."""
    order = np.lexsort((np.arange(len(row_props)), -probabilities))
    out: list[int] = []
    for row in order:
        p = float(probabilities[row])
        if p <= 0.0:
            break  # unvisited rows are not reachable suggestions
        prop = row_props[int(row)]
        if prop in excluded:
            continue
        out.append(prop)
        if len(out) == k:
            break
    return out


def carve_local(
    graph: HeteroGraph, seeds: Iterable[int], cfg: SuggestConfig
) -> tuple[Subgraph, TransitionMatrix]:
    """The subgraph that :func:`suggest_local` carves around ``seeds``, and its structural transition.

    Neither depends on the query, so walks for several queries from the
    same seeds can share them.
    """
    seed_ids = sorted(set(seeds))
    if not seed_ids:
        raise ValueError("seed set must be non-empty")
    sub = extract_subgraph(graph, seed_ids, cfg.subgraph_size, cfg.walk)
    return sub, build_structural_transition(sub)


def suggest_local(
    query_vec: np.ndarray,
    graph: HeteroGraph,
    seeds: Iterable[int],
    cfg: SuggestConfig,
    carved: tuple[Subgraph, TransitionMatrix] | None = None,
) -> list[int]:
    """Walk a seed-anchored subgraph, biased toward the query.

    Extracts a bounded subgraph around the seeds, builds the blended
    transition operator there, runs PPR restarting at the seeds, and
    returns the top-k visited propositions outside the seed set.
    ``carved`` is :func:`carve_local` of the same seeds, when the caller
    has it already.
    """
    seed_ids = sorted(set(seeds))
    sub, structural = carved or carve_local(graph, seed_ids, cfg)
    row_props = sub.proposition_indices
    row_of = {p: r for r, p in enumerate(row_props)}
    blended = query_aware_transition(sub, query_vec, cfg.walk, structural=structural)
    pi = ppr(blended, [row_of[p] for p in seed_ids], cfg.walk)
    return _rank_new(pi, row_props, set(seed_ids), cfg.k)


def suggest_global(
    queries: Sequence[tuple[int, np.ndarray]],
    sub: Subgraph,
    cfg: SuggestConfig,
    exclude: Iterable[int] = (),
) -> tuple[list[int], list[dict[int, float]]]:
    """One walk per pool member over the members' carved subgraph, aggregated.

    ``queries`` pairs each partition member with its per-member query
    vector, and ``sub`` is the subgraph carved around all members. Each
    member restarts its own walk at itself under its own blended operator;
    the summed stationary distributions rank candidates. Returns the top-k
    fresh ids plus each walker's visit probabilities keyed by proposition
    id (needed for downstream query refinement).
    """
    if not queries:
        raise ValueError("partition must be non-empty")
    members = [prop for prop, _ in queries]
    row_props = sub.proposition_indices
    row_of = {p: r for r, p in enumerate(row_props)}
    structural = build_structural_transition(sub)

    aggregate = np.zeros(len(row_props), dtype=np.float64)
    walker_pis: list[dict[int, float]] = []
    for prop, q_vec in queries:
        blended = query_aware_transition(sub, q_vec, cfg.walk, structural=structural)
        pi = ppr(blended, [row_of[prop]], cfg.walk)
        aggregate += pi
        visited = np.flatnonzero(pi > 0.0)
        walker_pis.append(dict(zip([row_props[r] for r in visited.tolist()], pi[visited].tolist())))
    excluded = set(members) | set(exclude)
    return _rank_new(aggregate, row_props, excluded, cfg.k), walker_pis


def select(
    query_text: str,
    candidates: Sequence[int],
    graph: HeteroGraph,
    gateway: LLMGateway,
) -> list[int]:
    """LLM relevance pruning of candidate ids; order preserved, fail-open."""
    candidates = list(candidates)
    if not candidates:
        return []
    verdict = gateway.select_relevant(query_text, graph.proposition_texts(candidates))
    return [candidates[i] for i in verdict.kept]
