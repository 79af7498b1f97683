import sys
import threading
import time

import numpy as np
import pytest

from propgraph import global_mode
from propgraph.config import RunConfig
from propgraph.encoding import HashedNgramEmbedder, normalize
from propgraph.global_mode import (
    Community,
    WalkRecord,
    answer_global,
    build_reports,
    collect_anchors,
    compute_queries,
    detect_communities,
    interleave_extremes,
    partition_pool,
    select_communities,
)
from propgraph.graph import HeteroGraph, NodeKind, passage_id, proposition_id
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.suggest import PropositionPool
from propgraph.tokens import estimate_tokens
from propgraph.trace import Trace

from conftest import build_random_graph, random_unit
from test_traversal import graph_from_links


@pytest.fixture
def embedder8():
    from propgraph.encoding import HashedNgramEmbedder

    return HashedNgramEmbedder(dim=8)


def keep_all_rule():
    def respond(prompt):
        count = len(prompt.slots["candidates"].splitlines())
        return "KEEP: " + ", ".join(str(i + 1) for i in range(count))

    return MockRule(template="Select", respond=respond)


def small_cfg(**overrides):
    defaults = dict(
        breadth_m=4,
        min_facts=8,
        max_iter=3,
        node_budget=50,
        min_community_size=2,
        max_community_size=50,
        top_k=5,
        subgraph_max_size=200,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


# ----------------------------------------------------------------------
# query refinement
# ----------------------------------------------------------------------


def refinement_graph():
    rng = np.random.default_rng(21)
    embeddings = [random_unit(rng, 8) for _ in range(5)]
    return graph_from_links([["e"], ["e"], ["e"], ["e"], ["e"]], embeddings=embeddings)


def test_compute_queries_simple_feedback_degenerates_to_origin():
    graph = refinement_graph()
    pool = PropositionPool([2])
    origin = normalize(np.arange(1.0, 9.0))
    records = {2: [WalkRecord([np.asarray(origin, np.float64)], None, [2], [])]}
    cfg = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.0, rocchio_gamma=0.0)
    state = compute_queries(pool, records, graph, cfg)[2]
    assert np.array_equal(state.q_raw, np.asarray(origin, np.float64))
    assert np.allclose(state.q, origin, atol=1e-12)  # unit origin survives renormalization


def test_compute_queries_single_walker_arithmetic():
    graph = refinement_graph()
    pool = PropositionPool([1])
    origin = np.asarray(normalize(np.ones(8)), np.float64)
    records = {1: [WalkRecord([origin], [{1: 0.9}], [1], [])]}
    cfg = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.7, rocchio_gamma=0.15)
    state = compute_queries(pool, records, graph, cfg)[1]
    positive = graph.proposition_embeddings.astype(np.float64)[1]
    expected = 1.0 * origin + 0.7 * positive  # no pruned set: negative term is zero
    assert np.max(np.abs(state.q_raw - expected)) < 1e-12


def test_compute_queries_two_partitions_hand_computed():
    graph = refinement_graph()
    embeddings = graph.proposition_embeddings.astype(np.float64)
    pool = PropositionPool([2])
    qa = np.asarray(normalize(np.eye(8)[0] + 0.2 * np.eye(8)[3]), np.float64)
    qb = np.asarray(normalize(np.eye(8)[1]), np.float64)
    qc = np.asarray(normalize(np.eye(8)[2] - 0.5 * np.eye(8)[5]), np.float64)
    rec1 = WalkRecord([qa, qb], [{2: 0.3}, {2: 0.5}], [2], [3])
    rec2 = WalkRecord([qc], [{2: 0.2}], [2], [])
    cfg = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.7, rocchio_gamma=0.15)
    state = compute_queries(pool, {2: [rec1, rec2]}, graph, cfg)[2]

    q_origin = (qb + qc) / 2.0  # walker b wins the argmax inside partition 1
    q_negative = (embeddings[3] + np.zeros(8)) / 2.0
    expected = 1.0 * q_origin + 0.7 * embeddings[2] - 0.15 * q_negative
    assert np.max(np.abs(state.q_raw - expected)) < 1e-12
    assert state.n_sources == 2
    assert np.linalg.norm(state.q) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------


def test_partition_singletons():
    pool = PropositionPool(range(10))
    parts = partition_pool(pool, 10)
    assert parts == [[i] for i in range(10)]


def test_partition_balanced_sizes():
    parts = partition_pool(list(range(7)), 3)
    assert [len(p) for p in parts] == [3, 2, 2]
    assert sorted(x for p in parts for x in p) == list(range(7))


def test_partition_fewer_members_than_parts():
    parts = partition_pool([4, 9], 5)
    assert parts == [[4], [9], [], [], []]


# ----------------------------------------------------------------------
# anchor collection
# ----------------------------------------------------------------------


def collection_fixture(n_props=40):
    """Hub-connected graph plus a gateway that decomposes into 4 facets and keeps everything."""
    rng = np.random.default_rng(33)
    links = [["hub", f"side{i // 4}"] for i in range(n_props)]
    graph = graph_from_links(links, embeddings=[random_unit(rng, 8) for _ in range(n_props)])
    rules = [
        MockRule(template="Decompose", response="1. facet zero\n2. facet one\n3. facet two\n4. facet three"),
        keep_all_rule(),
    ]
    return graph, LLMGateway(MockChatBackend(rules))


def test_collect_anchors_no_iterations_when_seeds_suffice(embedder8):
    graph, gateway = collection_fixture()
    cfg = small_cfg(min_facts=1)
    result = collect_anchors("broad question", graph, gateway, embedder8, cfg)
    assert result.iterations == 0
    assert len(result.pool) >= 1


def test_collect_anchors_grows_monotonically_until_target(embedder8):
    graph, gateway = collection_fixture()
    cfg = small_cfg(min_facts=30, max_iter=5)
    trace = Trace()
    result = collect_anchors("broad question", graph, gateway, embedder8, cfg, trace)
    counts = [e["anchors"] for e in trace.of_kind("collected")]
    assert counts == sorted(counts)
    assert len(result.pool) >= 30 or result.iterations == 5
    assert result.iterations <= 5


def test_collect_anchors_empty_pool_breaks_loop(embedder8):
    graph, _ = collection_fixture()
    gateway = LLMGateway(MockChatBackend([MockRule(template="Select", response="KEEP: none")]))
    cfg = small_cfg(min_facts=30)
    result = collect_anchors("broad question", graph, gateway, embedder8, cfg)
    assert len(result.pool) == 0
    assert result.iterations == 0  # guard exits before any walk


def test_collect_anchors_excludes_already_collected(embedder8):
    graph, gateway = collection_fixture()
    cfg = small_cfg(min_facts=39, max_iter=6)
    trace = Trace()
    collect_anchors("broad question", graph, gateway, embedder8, cfg, trace)
    for event in trace.of_kind("explore"):
        kept = set(event["kept"])
        # nothing suggested in an iteration round was already an anchor
        prior = set()
        for before in trace.of_kind("seed") + trace.of_kind("explore"):
            if before is event:
                break
            if before.get("iteration", 0) < event["iteration"]:
                prior |= set(before["kept"])
        assert not kept & prior


# ----------------------------------------------------------------------
# community detection over the graph
# ----------------------------------------------------------------------


def two_blob_graph():
    """Two disconnected topic blobs of 10 nodes each (1 passage, 8 props, 1 entity)."""
    rng = np.random.default_rng(55)
    graph = HeteroGraph()
    for blob in range(2):
        passage = graph.add_passage(f"passage {blob}", f"doc{blob}", (0, 9))
        hub = graph.add_entity(f"hub {blob}", random_unit(rng, 8))
        for i in range(8):
            graph.add_proposition(f"blob {blob} fact {i}", passage, [hub], random_unit(rng, 8))
    return graph.finalize()


def test_detect_communities_recovers_blobs():
    graph = two_blob_graph()
    blob_of = {node: node.index // 8 if node.kind is NodeKind.PROPOSITION else node.index for node in graph.node_order}
    communities = detect_communities(graph, min_size=2, max_size=150)
    # the full blobs appear at some level; finer sub-splits may appear too
    full = [c for c in communities if c.size == 10]
    assert len(full) == 2
    assert {frozenset(blob_of[n] for n in c.nodes) for c in full} == {frozenset({0}), frozenset({1})}
    # the blobs are disconnected: no community may mix them
    for community in communities:
        assert len({blob_of[n] for n in community.nodes}) == 1


def test_detect_communities_size_filter_can_empty():
    graph = two_blob_graph()
    assert detect_communities(graph, min_size=11, max_size=12) == ()


def test_detect_communities_deterministic():
    graph = two_blob_graph()
    first = detect_communities(graph, 2, 150, seed=0)
    second = detect_communities(graph, 2, 150, seed=0)
    assert [(c.id, c.nodes) for c in first] == [(c.id, c.nodes) for c in second]


def counting_detect(monkeypatch, delay=0.0):
    """Replace ``global_mode.detect_communities`` by a wrapper that counts its calls."""
    calls = []
    original = global_mode.detect_communities

    def counted(*args, **kwargs):
        calls.append(args)
        time.sleep(delay)
        return original(*args, **kwargs)

    monkeypatch.setattr(global_mode, "detect_communities", counted)
    return calls


def test_cached_communities_equal_fresh_detection(monkeypatch):
    graph = build_random_graph(np.random.default_rng(5), 120)
    calls = counting_detect(monkeypatch)
    cfg = small_cfg(min_community_size=2, max_community_size=40)
    cached = global_mode._candidate_communities(graph, cfg)
    assert cached == detect_communities(graph, 2, 40, seed=0, resolution=1.0)
    assert global_mode._candidate_communities(graph, cfg) is cached
    assert len(calls) == 1


def test_community_cache_misses_on_other_settings(monkeypatch):
    graph = two_blob_graph()
    calls = counting_detect(monkeypatch)
    base = dict(min_community_size=2, max_community_size=50)
    variants = [
        small_cfg(**base),
        small_cfg(**base, leiden_seed=3),
        small_cfg(**base, leiden_resolution=0.5),
        small_cfg(min_community_size=3, max_community_size=50),
    ]
    for expected_calls, cfg in enumerate(variants, start=1):
        got = global_mode._candidate_communities(graph, cfg)
        assert len(calls) == expected_calls
        assert got == detect_communities(
            graph, cfg.min_community_size, cfg.max_community_size, seed=cfg.leiden_seed, resolution=cfg.leiden_resolution
        )
    for cfg in variants:
        global_mode._candidate_communities(graph, cfg)
    assert len(calls) == len(variants)
    # another graph with the same content is another key
    global_mode._candidate_communities(two_blob_graph(), variants[0])
    assert len(calls) == len(variants) + 1


def test_concurrent_global_answers_share_one_detection(monkeypatch):
    graph = two_blob_graph()
    # the delay holds the first caller inside detection while the others arrive
    calls = counting_detect(monkeypatch, delay=0.05)
    cfg = small_cfg(breadth_m=2, min_facts=6, max_iter=2, min_community_size=10, max_community_size=10)
    results: dict[int, object] = {}

    def ask(slot: int) -> None:
        results[slot] = answer_global(
            "what do the blobs say", graph, global_fixture_gateway(), HashedNgramEmbedder(dim=8), cfg
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    assert len(calls) == 1
    first = results[0]
    for result in results.values():
        assert result.answer == first.answer
        assert result.trace.events == first.trace.events


# ----------------------------------------------------------------------
# greedy budgeted selection
# ----------------------------------------------------------------------


def community_of(anchor_indices, filler_count, cid):
    nodes = {proposition_id(i) for i in anchor_indices}
    nodes |= {passage_id(1000 * cid + j) for j in range(filler_count)}
    return Community(cid, frozenset(nodes))


def test_select_single_covering_community():
    anchors = {proposition_id(0), proposition_id(1)}
    community = community_of([0, 1], 3, cid=0)
    assert select_communities(anchors, [community], budget=100) == [community]


def test_select_prefers_coverage_density():
    anchors = {proposition_id(0), proposition_id(1)}
    c1 = community_of([0], 9, cid=1)       # 1 anchor / size 10 = 0.1
    c2 = community_of([0, 1], 28, cid=2)   # 2 anchors / size 30 ~ 0.067
    chosen = select_communities(anchors, [c1, c2], budget=1000)
    assert [c.id for c in chosen] == [1, 2]


def test_select_budget_guard_single_pick():
    anchors = {proposition_id(0), proposition_id(1)}
    c1 = community_of([0], 9, cid=1)
    c2 = community_of([1], 9, cid=2)
    chosen = select_communities(anchors, [c1, c2], budget=5)
    assert len(chosen) == 1  # first pick already exhausts the budget


def test_select_tie_breaks_smaller_then_lower_id():
    anchors = {proposition_id(0), proposition_id(1)}
    big = community_of([0], 19, cid=1)    # 1/20
    small_a = community_of([1], 4, cid=3)  # 1/5
    small_b = community_of([0], 4, cid=2)  # 1/5, same size: lower id wins
    chosen = select_communities(anchors, [big, small_a, small_b], budget=1000)
    assert chosen[0].id == 2


def test_select_matches_stepwise_argmax_oracle():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n_anchors = int(rng.integers(1, 13))
        anchors = {proposition_id(i) for i in range(n_anchors)}
        candidates = []
        for cid in range(int(rng.integers(1, 7))):
            inside = [int(i) for i in rng.choice(n_anchors, size=int(rng.integers(0, n_anchors + 1)), replace=False)]
            candidates.append(community_of(inside, int(rng.integers(1, 20)), cid))
        budget = int(rng.integers(1, 80))
        chosen = select_communities(anchors, candidates, budget)

        # replay: exhaustive per-step argmax with the documented tie rules
        coverable = anchors & set().union(*(c.nodes for c in candidates))
        covered, used, remaining = set(), 0, list(candidates)
        for pick in chosen:
            assert covered != coverable and used < budget and remaining
            scores = {c.id: len((c.nodes & anchors) - covered) / c.size for c in remaining}
            best_score = max(scores.values())
            tied = [c for c in remaining if scores[c.id] == best_score]
            smallest = min(c.size for c in tied)
            expected = min((c for c in tied if c.size == smallest), key=lambda c: c.id)
            assert pick.id == expected.id
            covered |= pick.nodes & anchors
            used += pick.size
            remaining.remove(pick)
        assert covered == coverable or used >= budget or not remaining
        assert len({c.id for c in chosen}) == len(chosen)
        overshoot = used - budget
        assert overshoot <= (chosen[-1].size if chosen else 0)


def full_rescore_select(anchors, candidates, budget):
    """The greedy as it was before the lazy heap: every remaining candidate re-scored at every pick."""
    held = {c: c.nodes & anchors for c in candidates}
    coverable = set().union(*held.values())
    covered = set()
    remaining = list(candidates)
    chosen = []
    used = 0
    while covered != coverable and used < budget and remaining:
        best = max(remaining, key=lambda c: (len(held[c] - covered) / c.size, -c.size, -c.id))
        remaining.remove(best)
        chosen.append(best)
        covered |= held[best]
        used += best.size
    return chosen


def test_lazy_select_matches_full_rescore_with_ties():
    rng = np.random.default_rng(139)
    ties = 0
    for _ in range(400):
        n_anchors = int(rng.integers(1, 16))
        anchors = {proposition_id(i) for i in range(n_anchors)}
        candidates = []
        # few sizes, with anchor counts that repeat ratios (1/2 = 2/4 = 5/10) and sizes; ids out of list order
        for cid in rng.permutation(int(rng.integers(1, 12))).tolist():
            size = int(rng.choice([2, 4, 5, 10]))
            inside = [int(i) for i in rng.choice(n_anchors, size=int(rng.integers(0, min(size, n_anchors) + 1)), replace=False)]
            candidates.append(community_of(inside, size - len(inside), cid))
        ratios = [len(c.nodes & anchors) / c.size for c in candidates]
        ties += len(set(ratios)) < len(ratios)
        budget = int(rng.integers(1, 60))
        got = select_communities(anchors, candidates, budget)
        want = full_rescore_select(anchors, candidates, budget)
        assert [c.id for c in got] == [c.id for c in want]
    assert ties > 100


# ----------------------------------------------------------------------
# report building and interleaving
# ----------------------------------------------------------------------


def test_build_reports_single_community_sections():
    graph = two_blob_graph()
    community = Community(0, frozenset({passage_id(0), proposition_id(0), graph.entities[0].id}))
    cfg = small_cfg()
    chunks = build_reports([community], graph, cfg)
    assert len(chunks) == 1
    text = chunks[0]
    assert "Entities: hub 0" in text
    assert "blob 0 fact 0" in text
    assert "passage 0" in text


def test_build_reports_truncates_long_passages():
    graph = HeteroGraph()
    long_text = " ".join(f"w{i}" for i in range(400)) + "."
    passage = graph.add_passage(long_text, "d", (0, len(long_text)))
    hub = graph.add_entity("hub", normalize(np.ones(4)))
    prop = graph.add_proposition("a fact.", passage, [hub], normalize(np.eye(4)[0]))
    graph.finalize()
    cfg = small_cfg(passage_token_limit=26)
    chunks = build_reports([Community(0, frozenset({passage, prop, hub}))], graph, cfg)
    passage_line = [line for chunk in chunks for line in chunk.splitlines() if line.startswith("- w0")][0]
    assert estimate_tokens(passage_line) <= 26 + 2  # "- " prefix adds one word


def test_build_reports_splits_into_token_bounded_chunks():
    rng = np.random.default_rng(88)
    graph = HeteroGraph()
    passage = graph.add_passage("tiny", "d", (0, 4))
    props = [
        graph.add_proposition(
            " ".join(f"word{i}_{j}" for j in range(8)), passage, [], random_unit(rng, 4)
        )
        for i in range(25)
    ]
    graph.finalize()
    limit = 110
    cfg = small_cfg(max_tokens_community_chunks=limit, min_community_size=2)
    community = Community(0, frozenset({passage, *props}))
    chunks = build_reports([community], graph, cfg)
    total = sum(estimate_tokens(line) for chunk in chunks for line in chunk.splitlines())
    assert total > 2 * limit  # content genuinely exceeds two chunks
    assert len(chunks) == 3
    for chunk in chunks:
        assert sum(estimate_tokens(line) for line in chunk.splitlines()) <= limit


def test_interleave_places_best_at_both_edges():
    assert interleave_extremes([1]) == [1]
    assert interleave_extremes([1, 2]) == [1, 2]
    assert interleave_extremes([1, 2, 3]) == [1, 3, 2]
    assert interleave_extremes([1, 2, 3, 4, 5]) == [1, 3, 5, 4, 2]
    assert interleave_extremes([]) == []


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------


def global_fixture_gateway(extra_rules=()):
    rules = [
        MockRule(template="Decompose", response="1. facet zero\n2. facet one"),
        keep_all_rule(),
        *extra_rules,
    ]
    return LLMGateway(MockChatBackend(rules))


def test_answer_global_single_community_single_chunk(embedder8):
    graph = two_blob_graph()
    gateway = global_fixture_gateway(
        [MockRule(template="IntermediaryAnswer", response="SCORE: 80\nANSWER: partial insight")]
    )
    cfg = small_cfg(breadth_m=2, min_facts=1, min_community_size=10, max_community_size=10, node_budget=10)
    result = answer_global("what do the blobs say", graph, gateway, embedder8, cfg)
    assert result.answer == "partial insight"  # combine step echoes the one partial answer
    communities = result.trace.of_kind("communities")[0]
    assert len(communities["chosen"]) == 1
    assert result.trace.of_kind("intermediary")[0]["chunks"] == 1


def test_answer_global_zero_communities_falls_back_to_anchors(embedder8):
    graph = two_blob_graph()
    gateway = global_fixture_gateway()
    cfg = small_cfg(breadth_m=2, min_facts=1, min_community_size=11, max_community_size=12)
    result = answer_global("what do the blobs say", graph, gateway, embedder8, cfg)
    assert result.trace.of_kind("anchor_fallback")
    first_anchor = result.collected.ids()[0]
    assert result.answer == graph.propositions[first_anchor].text


def test_answer_global_deterministic(embedder8):
    graph = two_blob_graph()
    cfg = small_cfg(breadth_m=2, min_facts=6, max_iter=2, min_community_size=10, max_community_size=10)
    first = answer_global("what do the blobs say", graph, global_fixture_gateway(), embedder8, cfg)
    second = answer_global("what do the blobs say", graph, global_fixture_gateway(), embedder8, cfg)
    assert first.answer == second.answer
    assert first.trace.events == second.trace.events
