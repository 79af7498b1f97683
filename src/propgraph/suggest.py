"""Candidate-proposition suggestion and LLM-feedback selection.

Three suggestion flavors share one contract: return at most ``top_k`` fresh
proposition ids, ranked, never re-proposing seeds or caller-excluded ids.
``suggest_naive`` is pure similarity search; ``suggest_local`` walks a
seed-anchored subgraph with one blended operator; ``suggest_global`` runs
one walk per pool member inside a subgraph carved around them all and
aggregates the stationary distributions. ``select_wave`` prunes one wave
of suggestions with LLM feedback, judging each proposition once per
question text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import RunConfig
from .encoding import STORED_NORM_BOUND, top_k_similar, top_rows
from .errors import EmptyGraphError
from .graph import HeteroGraph
from .llm import LLMGateway
from .trace import Trace
from .traversal import (
    Subgraph,
    TransitionMatrix,
    build_structural_transition,
    extract_subgraph,
    ppr,
    query_aware_transition,
)


@dataclass
class Result:
    """What every answer mode returns; ``collected`` holds distinct proposition ids in collection order."""

    answer: str
    failed: bool
    trace: Trace
    collected: list[int]


def suggest_naive(query_vec: np.ndarray, graph: HeteroGraph, cfg: RunConfig) -> list[int]:
    """Top-k propositions by cosine, ignoring edges and any seed context.

    The store is a finalized graph's, whose row norms finalizing bounded,
    so the similarity scan takes that bound rather than a pass of its own.
    """
    matrix = graph.proposition_embeddings
    if matrix.shape[0] == 0:
        raise EmptyGraphError("graph has no propositions")
    return [idx for idx, _ in top_k_similar(query_vec, matrix, cfg.top_k, norm_bound=STORED_NORM_BOUND)]


def _rank_new(
    probabilities: np.ndarray,
    row_props: Sequence[int],
    excluded: set[int],
    k: int,
) -> list[int]:
    """Positively-visited rows mapped to proposition ids, minus exclusions.

    Rows are distinct propositions, so the first ``k`` kept are among the first ``k + len(excluded)`` ranked.
    """
    ranked = top_rows(probabilities, k + len(excluded))
    props = [row_props[row] for row in ranked[probabilities[ranked] > 0.0].tolist()]
    return [prop for prop in props if prop not in excluded][:k]


def carve_local(
    graph: HeteroGraph, seeds: Iterable[int], cfg: RunConfig
) -> tuple[Subgraph, TransitionMatrix]:
    """The subgraph that :func:`suggest_local` carves around ``seeds``, and its structural transition.

    Neither depends on the query, so walks for several queries from the
    same seeds can share them.
    """
    seed_ids = sorted(set(seeds))
    if not seed_ids:
        raise ValueError("seed set must be non-empty")
    sub = extract_subgraph(graph, seed_ids, cfg.subgraph_max_size, cfg)
    return sub, build_structural_transition(sub)


def suggest_local(
    query_vec: np.ndarray,
    graph: HeteroGraph,
    seeds: Iterable[int],
    cfg: RunConfig,
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
    blended = query_aware_transition(sub, query_vec, cfg, structural=structural)
    pi = ppr(blended, [row_of[p] for p in seed_ids], cfg)
    return _rank_new(pi, row_props, set(seed_ids), cfg.top_k)


def suggest_global(
    queries: Sequence[tuple[int, np.ndarray]],
    sub: Subgraph,
    cfg: RunConfig,
    exclude: Iterable[int] = (),
) -> tuple[list[int], list[int]]:
    """One walk per pool member over the members' carved subgraph, aggregated.

    ``queries`` pairs each partition member with its per-member query
    vector, and ``sub`` is the subgraph carved around all members. Each
    member restarts its own walk at itself under its own blended operator;
    the summed stationary distributions rank candidates. Returns the top-k
    fresh ids and, for each, the index in ``queries`` of the walker most
    likely to have reached it (the lowest index on a tie), whose query a
    kept suggestion's refinement starts from.
    """
    if not queries:
        raise ValueError("partition must be non-empty")
    members = [prop for prop, _ in queries]
    row_props = sub.proposition_indices
    row_of = {p: r for r, p in enumerate(row_props)}
    structural = build_structural_transition(sub)

    pis = np.array(
        [
            ppr(query_aware_transition(sub, q_vec, cfg, structural=structural), [row_of[prop]], cfg)
            for prop, q_vec in queries
        ]
    )
    # each member has its own row, so two walkers give two columns, and the sum over axis 0
    # then adds the walkers in order (numpy sums a lone column pairwise)
    suggested = _rank_new(pis.sum(axis=0), row_props, set(members) | set(exclude), cfg.top_k)
    visits = pis[:, [row_of[p] for p in suggested]]
    return suggested, np.argmax(visits, axis=0).tolist()  # ties resolve to the lowest walker index


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
    kept = gateway.select_relevant(query_text, graph.proposition_texts(candidates))
    return [candidates[i] for i in kept]


def select_wave(
    asks: Sequence[tuple[str, Sequence[int]]],
    verdicts: dict[tuple[str, int], bool],
    size: int,
    graph: HeteroGraph,
    gateway: LLMGateway,
    send: Callable[[str, Sequence[int], HeteroGraph, LLMGateway], list[int]],
) -> list[list[int]]:
    """Each ask's candidates, in order, that its question keeps; each judged once per question text.

    ``asks`` are one wave's (question text, candidates) pairs: what each
    carries depends on no verdict of another. ``verdicts``, keyed by
    (question text, proposition), holds every verdict of the answer so far
    and gains the new ones, a degraded keep-all as keep. The candidates with
    no verdict yet are grouped by question text, in first-seen order, and
    each group is sent in as few ``Select`` prompts as hold at most ``size``
    candidates each, so a group with none sends none. Which candidates each
    prompt carries is fixed before the first is sent. ``send`` is
    :func:`select` as the caller's module names it, so that a wrapper bound
    to that name sees each ``Select``.
    """
    fresh: dict[str, dict[int, None]] = {}
    for question, candidates in asks:
        group = fresh.setdefault(question, {})
        group.update((c, None) for c in candidates if (question, c) not in verdicts)
    for question, group in fresh.items():
        ids = list(group)
        for start in range(0, len(ids), size):
            batch = ids[start : start + size]
            kept = set(send(question, batch, graph, gateway))
            verdicts.update(((question, c), c in kept) for c in batch)
    return [[c for c in candidates if verdicts[question, c]] for question, candidates in asks]
