"""Iterative suggestion-selection answering for factoid and multi-hop queries.

The loop seeds a proposition pool from similarity search, then repeatedly
walks the graph from the pool, prunes suggestions with LLM feedback, and
checks whether the accumulated facts suffice to answer. Insufficient
rounds generate follow-up questions that steer the next round. Everything
is recorded on a trace so runs are auditable and reproducible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import RunConfig
from .encoding import EmbedBackend
from .graph import HeteroGraph
from .llm import LLMGateway
from .suggest import Result, carve_local, select, select_wave, suggest_local, suggest_naive
from .trace import Trace


def answer_naive(
    q_start: str,
    graph: HeteroGraph,
    gateway: LLMGateway,
    embedder: EmbedBackend,
    cfg: RunConfig | None = None,
) -> Result:
    """Answer from top-k similar propositions; no graph, no selection."""
    trace = Trace()
    suggested = suggest_naive(embedder.embed_one(q_start), graph, cfg or RunConfig())
    trace.log("seed", query=q_start, suggested=suggested, kept=suggested)
    answer = gateway.final_answer(q_start, graph.proposition_texts(suggested))
    trace.log("result", answer=answer, failed=False, exhausted=False, iterations=0)
    return Result(answer, False, trace, list(suggested))


def answer_local(
    q_start: str,
    graph: HeteroGraph,
    gateway: LLMGateway,
    embedder: EmbedBackend,
    cfg: RunConfig | None = None,
) -> Result:
    """Suggestion-selection cycles with sufficiency checks and follow-ups.

    Seeding: similarity search for the starting question, pruned by
    selection. Each pass of the loop then checks the collected facts for
    sufficiency, asks for follow-up questions that steer the next
    iteration, and runs that iteration: it carves one subgraph around the
    pool and walks it once per active question, prunes, and folds the
    survivors into the collected set. An iteration's next pool is what it
    kept, and the second iteration also walks from the seeds. An
    iteration that keeps nothing ends the loop (the next one stops with a
    ``pool_empty`` event). The first iteration walks the starting
    question, and follow-ups are asked only when another iteration walks
    them: not after the last iteration, nor after one that kept nothing.
    When the iteration budget runs out a best-effort answer is still
    produced from the collected facts, flagged as exhausted on the trace.

    An iteration offers each suggestion only to the first of its questions
    that suggests it (the ``candidates`` of its ``suggest`` event). The
    seeding and each iteration are one wave of :func:`select_wave`, with
    one verdict map for the answer: a candidate already judged against a
    question's text takes that verdict and is not sent again. Each
    question text is embedded once per answer.
    """
    cfg = cfg or RunConfig()
    trace = Trace()

    verdicts: dict[tuple[str, int], bool] = {}
    vectors: dict[str, np.ndarray] = {}
    [q_vec] = _embed_new([q_start], vectors, embedder)
    seeded = suggest_naive(q_vec, graph, cfg)
    [seed_kept] = select_wave([(q_start, seeded)], verdicts, cfg.top_k, graph, gateway, select)
    trace.log("seed", query=q_start, suggested=seeded, kept=seed_kept)

    s_pool = dict.fromkeys(seed_kept)
    s_loc = dict(s_pool)
    questions = [q_start]
    iteration = 0
    while True:
        verdict = gateway.evaluate_answerable(q_start, graph.proposition_texts(s_loc))
        trace.log("eval", after_iteration=iteration, sufficient=verdict.sufficient, answer=verdict.answer)
        if verdict.sufficient:
            trace.log("result", answer=verdict.answer, failed=False, exhausted=False, iterations=iteration)
            return Result(verdict.answer, False, trace, list(s_loc))
        if iteration == cfg.max_iter:
            break
        if iteration and s_pool:  # else no iteration walks the follow-ups
            questions = gateway.next_questions(q_start, graph.proposition_texts(s_loc), cfg.max_subquestions)
            trace.log("next_questions", iteration=iteration, questions=questions)
        iteration += 1
        if not s_pool:
            trace.log("pool_empty", iteration=iteration)
            break
        carved = carve_local(graph, s_pool, cfg)
        offered: set[int] = set()  # an iteration offers each suggestion to its first question only
        walks: list[tuple[str, list[int], list[int]]] = []
        for question, q_vec in zip(questions, _embed_new(questions, vectors, embedder)):
            suggested = suggest_local(q_vec, graph, s_pool, cfg, carved)
            candidates = [c for c in suggested if c not in offered]
            offered.update(candidates)
            walks.append((question, suggested, candidates))
        asks = [(question, candidates) for question, _, candidates in walks]
        kept_lists = select_wave(asks, verdicts, cfg.top_k, graph, gateway, select)
        for q_index, ((question, suggested, candidates), kept) in enumerate(zip(walks, kept_lists)):
            trace.log(
                "suggest",
                iteration=iteration,
                query_index=q_index,
                query=question,
                suggested=suggested,
                candidates=candidates,
                kept=kept,
            )
        kept_now = dict.fromkeys(c for kept in kept_lists for c in kept)
        s_loc.update(kept_now)
        s_pool = {**s_pool, **kept_now} if iteration == 1 and kept_now else kept_now

    answer = gateway.final_answer(q_start, graph.proposition_texts(s_loc))
    trace.log("result", answer=answer, failed=True, exhausted=True, iterations=iteration)
    return Result(answer, True, trace, list(s_loc))


def _embed_new(texts: Sequence[str], vectors: dict[str, np.ndarray], embedder: EmbedBackend) -> list[np.ndarray]:
    """The vectors of ``texts``, embedding in one call only the texts ``vectors`` lacks, and keeping them there."""
    new = [text for text in dict.fromkeys(texts) if text not in vectors]
    if new:
        vectors.update(zip(new, embedder.embed(new)))
    return [vectors[text] for text in texts]
