import sys
import threading
import time
from collections import Counter

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
from propgraph.graph import HeteroGraph, NodeKind, entity_id, passage_id, proposition_id
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.suggest import select, select_wave, suggest_global, suggest_naive
from propgraph.tokens import estimate_tokens
from propgraph.trace import Trace
from propgraph.traversal import extract_subgraphs

from conftest import build_random_graph, node_order, random_unit
from test_traversal import graph_from_links


@pytest.fixture
def embedder8():
    from propgraph.encoding import HashedNgramEmbedder

    return HashedNgramEmbedder(dim=8)


def keep_all_rule(asked=None):
    """A Select rule keeping every candidate; appends each prompt's question to ``asked``."""

    def respond(prompt):
        if asked is not None:
            asked.append(prompt.slots["question"])
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
    pool = [2]
    origin = normalize(np.arange(1.0, 9.0))
    records = {2: [WalkRecord({2: np.asarray(origin, np.float64)}, [])]}
    cfg = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.0, rocchio_gamma=0.0)
    state = compute_queries(pool, records, graph, cfg)[2]
    assert np.array_equal(state.q_raw, np.asarray(origin, np.float64))
    assert np.allclose(state.q, origin, atol=1e-12)  # unit origin survives renormalization


def test_compute_queries_single_walker_arithmetic():
    graph = refinement_graph()
    pool = [1]
    origin = np.asarray(normalize(np.ones(8)), np.float64)
    records = {1: [WalkRecord({1: origin}, [])]}
    cfg = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.7, rocchio_gamma=0.15)
    state = compute_queries(pool, records, graph, cfg)[1]
    positive = graph.proposition_embeddings.astype(np.float64)[1]
    expected = 1.0 * origin + 0.7 * positive  # no pruned set: negative term is zero
    assert np.max(np.abs(state.q_raw - expected)) < 1e-12


def test_compute_queries_two_partitions_hand_computed():
    graph = refinement_graph()
    embeddings = graph.proposition_embeddings.astype(np.float64)
    pool = [2]
    qa = np.asarray(normalize(np.eye(8)[0] + 0.2 * np.eye(8)[3]), np.float64)
    qb = np.asarray(normalize(np.eye(8)[1]), np.float64)
    qc = np.asarray(normalize(np.eye(8)[2] - 0.5 * np.eye(8)[5]), np.float64)
    rec1 = WalkRecord({2: qb}, [3])  # walker b, of walkers a and b, reached 2 most
    rec2 = WalkRecord({2: qc}, [])
    cfg = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.7, rocchio_gamma=0.15)
    state = compute_queries(pool, {2: [rec1, rec2]}, graph, cfg)[2]

    q_origin = (qb + qc) / 2.0
    q_negative = (embeddings[3] + np.zeros(8)) / 2.0
    expected = 1.0 * q_origin + 0.7 * embeddings[2] - 0.15 * q_negative
    assert np.max(np.abs(state.q_raw - expected)) < 1e-12
    assert state.n_sources == 2
    assert np.linalg.norm(state.q) == pytest.approx(1.0, abs=1e-12)


def compute_queries_per_proposition(pool, records, graph, cfg):
    """:func:`compute_queries` as it was, taking each record's pruned mean once per proposition it kept."""
    states = {}
    embeddings = graph.proposition_embeddings
    dim = embeddings.shape[1]
    for prop in pool:
        q_positive = embeddings[prop].astype(np.float64)
        origin_parts, negative_parts = [], []
        for rec in records.get(prop, []):
            origin_parts.append(np.asarray(rec.origins[prop], dtype=np.float64))
            if rec.pruned:
                negative_parts.append(embeddings[rec.pruned].astype(np.float64).mean(axis=0))
            else:
                negative_parts.append(np.zeros(dim))
        if origin_parts:
            q_origin = np.mean(origin_parts, axis=0)
            q_negative = np.mean(negative_parts, axis=0)
        else:
            q_origin = q_positive.copy()
            q_negative = np.zeros(dim)
        q_raw = cfg.rocchio_alpha * q_origin + cfg.rocchio_beta * q_positive - cfg.rocchio_gamma * q_negative
        norm = float(np.linalg.norm(q_raw))
        q = q_raw / norm if norm > 0 else q_positive.copy()
        states[prop] = (q_origin, q_positive, q_negative, q_raw, q, len(origin_parts))
    return states


def test_compute_queries_matches_a_pruned_mean_per_proposition_bitwise():
    rng = np.random.default_rng(71)
    graph = build_random_graph(rng, 60, dim=16)
    pool = rng.permutation(60)[:30].tolist()
    records = {}
    for _ in range(12):  # each record is shared by every proposition it kept
        walkers = [rng.normal(size=16) for _ in range(int(rng.integers(1, 4)))]
        kept = rng.choice(pool, size=int(rng.integers(1, 6)), replace=False).tolist()
        rec = WalkRecord(
            {prop: walkers[int(rng.integers(len(walkers)))] for prop in kept},
            rng.choice(60, size=int(rng.integers(0, 8)), replace=False).tolist(),
        )
        for prop in kept:
            records.setdefault(prop, []).append(rec)
    assert any(not rec.pruned for recs in records.values() for rec in recs)
    assert max(len(recs) for recs in records.values()) > 1
    cfg = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.7, rocchio_gamma=0.15)
    expected = compute_queries_per_proposition(pool, records, graph, cfg)
    states = compute_queries(pool, records, graph, cfg)
    assert list(states) == list(expected)
    for prop, state in states.items():
        got = (state.q_origin, state.q_positive, state.q_negative, state.q_raw, state.q, state.n_sources)
        assert [a.tobytes() for a in got[:5]] == [a.tobytes() for a in expected[prop][:5]]
        assert got[5] == expected[prop][5]


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------


def test_partition_singletons():
    pool = list(range(10))
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
    anchors, iterations = collect_anchors("broad question", graph, gateway, embedder8, cfg)
    assert iterations == 0
    assert len(anchors) >= 1


def test_collect_anchors_grows_monotonically_until_target(embedder8):
    graph, gateway = collection_fixture()
    cfg = small_cfg(min_facts=30, max_iter=5)
    trace = Trace()
    anchors, iterations = collect_anchors("broad question", graph, gateway, embedder8, cfg, trace)
    counts = [e["anchors"] for e in trace.of_kind("collected")]
    assert counts == sorted(counts)
    assert len(anchors) >= 30 or iterations == 5
    assert iterations <= 5


def test_collect_anchors_empty_pool_breaks_loop(embedder8):
    graph, _ = collection_fixture()
    gateway = LLMGateway(MockChatBackend([MockRule(template="Select", response="KEEP: none")]))
    cfg = small_cfg(min_facts=30)
    anchors, iterations = collect_anchors("broad question", graph, gateway, embedder8, cfg)
    assert len(anchors) == 0
    assert iterations == 0  # guard exits before any walk


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


class CountingEmbedder(HashedNgramEmbedder):
    def __init__(self, dim):
        super().__init__(dim=dim)
        self.batches = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return super().embed(texts)


def seeding_gateway(decomposition, asked):
    graph, _ = collection_fixture()
    rules = [MockRule(template="Decompose", response=decomposition), keep_all_rule(asked)]
    return graph, LLMGateway(MockChatBackend(rules))


def test_a_padded_decomposition_selects_each_distinct_facet_once(embedder8):
    asked = []
    graph, gateway = seeding_gateway("1. facet zero", asked)
    trace = Trace()
    _, iterations = collect_anchors("broad question", graph, gateway, embedder8, small_cfg(min_facts=1), trace)
    assert iterations == 0  # every Select was a seeding one
    assert asked == ["facet zero", "broad question"]
    seeds = trace.of_kind("seed")
    assert [e["query"] for e in seeds] == ["facet zero"] + ["broad question"] * 3
    assert [e["query_index"] for e in seeds] == [0, 1, 2, 3]
    for repeat in seeds[2:]:
        assert {**repeat, "query_index": 1} == seeds[1]


def test_a_garbled_decomposition_sends_one_seeding_select(embedder8):
    asked = []
    graph, gateway = seeding_gateway("no list here", asked)
    trace = Trace()
    _, iterations = collect_anchors("broad question", graph, gateway, embedder8, small_cfg(min_facts=1), trace)
    assert iterations == 0
    assert asked == ["broad question"]
    assert [e["query"] for e in trace.of_kind("seed")] == ["broad question"] * 4


def test_the_facets_are_embedded_in_one_call():
    graph, gateway = collection_fixture()
    embedder = CountingEmbedder(dim=8)
    collect_anchors("broad question", graph, gateway, embedder, small_cfg(min_facts=1))
    assert embedder.batches == [["facet zero", "facet one", "facet two", "facet three"]]


FOUR_FACETS = "1. facet zero\n2. facet one\n3. facet two\n4. facet three"


def keeps(prop):
    """The verdict of :func:`recording_select_rule` on a proposition of ``collection_fixture``."""
    return prop % 3 != 0


def recording_select_rule(prompts, garble=()):
    """A Select rule keeping the propositions that ``keeps``; appends (question, ids) per prompt to ``prompts``.

    The prompts whose positions in ``prompts`` are in ``garble`` get an unparseable completion.
    """

    def respond(prompt):
        ids = [int(line.rsplit(" ", 1)[1]) for line in prompt.slots["candidates"].splitlines()]  # "1. prop 18"
        prompts.append((prompt.slots["question"], ids))
        if len(prompts) - 1 in garble:
            return "no verdict here"
        return "KEEP: " + (", ".join(str(i + 1) for i, prop in enumerate(ids) if keeps(prop)) or "none")

    return MockRule(template="Select", respond=respond)


def recorded_collection(garble=()):
    """The trace of collecting anchors for "broad question", and the ids each Select for it carried."""
    graph, _ = collection_fixture()
    prompts = []
    gateway = LLMGateway(
        MockChatBackend([MockRule(template="Decompose", response=FOUR_FACETS), recording_select_rule(prompts, garble)])
    )
    trace = Trace()
    collect_anchors("broad question", graph, gateway, HashedNgramEmbedder(dim=8), small_cfg(min_facts=39, max_iter=6), trace)
    return trace, [ids for question, ids in prompts if question == "broad question"]


def test_a_suggestion_shared_by_partitions_of_a_round_is_selected_once():
    trace, sent = recorded_collection()
    shared = set()
    for iteration in {e["iteration"] for e in trace.of_kind("explore")}:
        events = [e for e in trace.of_kind("explore") if e["iteration"] == iteration]
        for prop, count in Counter(p for e in events for p in e["suggested"]).items():
            if count > 1:
                shared.add(prop)
                assert sum(prop in ids for ids in sent) == 1
                assert all((prop in e["kept"]) == keeps(prop) for e in events if prop in e["suggested"])
    assert {keeps(prop) for prop in shared} == {True, False}  # both verdicts are shared


def test_a_suggestion_pruned_in_one_round_is_not_sent_again():
    trace, sent = recorded_collection()
    explores = trace.of_kind("explore")
    pruned = {p for e in explores if e["iteration"] == 1 for p in e["suggested"] if p not in e["kept"]}
    again = pruned & {p for e in explores if e["iteration"] == 2 for p in e["suggested"]}
    assert again
    for prop in again:
        assert sum(prop in ids for ids in sent) == 1
        assert all(prop not in e["kept"] for e in explores)


def test_a_round_packs_its_unjudged_suggestions_in_first_seen_order():
    trace, sent = recorded_collection()
    explores = trace.of_kind("explore")
    judged = set()
    packed = []
    for iteration in sorted({e["iteration"] for e in explores}):
        fresh = []
        for event in explores:
            if event["iteration"] == iteration:
                fresh += [p for p in event["suggested"] if p not in judged and p not in fresh]
        judged.update(fresh)
        packed += [fresh[i : i + 5] for i in range(0, len(fresh), 5)]  # top_k is 5
    assert sent == packed
    assert max(map(len, sent)) == 5  # no Select holds more than top_k
    assert any(len(set(ids) & set(e["suggested"])) < len(ids) for ids in sent for e in explores)  # one spans partitions
    assert len(sent) < sum(1 for e in explores if e["suggested"])


def test_no_verdict_outlives_its_question():
    graph, _ = collection_fixture()
    prompts = []
    gateway = LLMGateway(
        MockChatBackend([MockRule(template="Decompose", response=FOUR_FACETS), recording_select_rule(prompts)])
    )
    cfg = small_cfg(min_facts=39, max_iter=6)
    collect_anchors("broad question", graph, gateway, HashedNgramEmbedder(dim=8), cfg)
    first = list(prompts)
    collect_anchors("broad question", graph, gateway, HashedNgramEmbedder(dim=8), cfg)
    assert prompts == first + first


def test_a_degraded_select_gives_its_candidates_a_keep_verdict():
    # four seeding Selects and round 1's first packed Select come first: prompts 5 and 6 are
    # round 1's second packed Select and its retry
    trace, sent = recorded_collection(garble={5, 6})
    explores = trace.of_kind("explore")
    round1 = [e for e in explores if e["iteration"] == 1]
    fresh = list(dict.fromkeys(p for e in round1 for p in e["suggested"]))
    assert sent[1:3] == [fresh[5:10]] * 2
    degraded = set(fresh[5:10])
    assert sum(bool(degraded & set(e["suggested"])) for e in round1) > 1  # the packed Select spans partitions
    shared = [p for p in degraded if sum(p in e["suggested"] for e in round1) > 1]
    assert any(not keeps(p) for p in shared)  # suggested twice, and the rule would prune it, had it been asked
    for event in explores:
        assert [p for p in event["suggested"] if p in degraded] == [p for p in event["kept"] if p in degraded]
    assert not degraded & {p for ids in sent[:1] + sent[3:] for p in ids}


def two_dict_collect_anchors(q_start, graph, gateway, embedder, cfg, trace):
    """:func:`collect_anchors` as it was, with the pool and its records kept in two parallel dicts."""
    subqueries = gateway.decompose(q_start, cfg.breadth_m)
    trace.log("decompose", questions=subqueries)

    verdicts = {}
    distinct = list(dict.fromkeys(subqueries))
    q_vecs = [np.asarray(vec, dtype=np.float64) for vec in embedder.embed(distinct)]
    asks = [(question, suggest_naive(q_vec, graph, cfg)) for question, q_vec in zip(distinct, q_vecs)]
    seeds = {}
    for (question, suggested), q_vec, kept in zip(
        asks, q_vecs, select_wave(asks, verdicts, cfg.top_k, graph, gateway, select)
    ):
        kept_set = set(kept)
        seeds[question] = suggested, WalkRecord(dict.fromkeys(kept, q_vec), [c for c in suggested if c not in kept_set])

    s_pool = {}
    records = {}
    for q_index, question in enumerate(subqueries):
        suggested, rec = seeds[question]
        for prop in rec.origins:
            s_pool[prop] = None
            records.setdefault(prop, []).append(rec)
        trace.log("seed", query_index=q_index, query=question, suggested=suggested, kept=list(rec.origins))
    s_glb = dict(s_pool)

    iteration = 0
    while len(s_glb) < cfg.min_facts and iteration < cfg.max_iter and s_pool:
        iteration += 1
        states = global_mode.compute_queries(s_pool, records, graph, cfg)
        s_pool_new = {}
        new_records = {}
        parts = [part for part in partition_pool(s_pool, cfg.breadth_m) if part]
        carved = extract_subgraphs(graph, parts, cfg.subgraph_max_size, cfg)
        collected = list(s_glb)
        walks = [
            suggest_global([(prop, states[prop].q) for prop in part], sub, cfg, exclude=collected)
            for part, sub in zip(parts, carved)
        ]
        kept_lists = select_wave(
            [(q_start, suggested) for suggested, _ in walks], verdicts, cfg.top_k, graph, gateway, select
        )
        for part_index, (part, (suggested, nearest), kept) in enumerate(zip(parts, walks, kept_lists)):
            origin = dict(zip(suggested, nearest))
            kept_set = set(kept)
            rec = WalkRecord(
                {prop: states[part[origin[prop]]].q for prop in kept},
                [c for c in suggested if c not in kept_set],
            )
            for prop in kept:
                s_pool_new[prop] = None
                new_records.setdefault(prop, []).append(rec)
            trace.log(
                "explore", iteration=iteration, partition=part_index, members=part, suggested=suggested, kept=kept
            )
        s_glb.update(s_pool_new)
        s_pool = s_pool_new
        records = new_records
        trace.log("collected", iteration=iteration, anchors=len(s_glb), pool=len(s_pool))
    return list(s_glb), iteration


def scripted_gateway(decomposition, keeps_of):
    """Decompose answers ``decomposition``; Select keeps a candidate when ``keeps_of(question, prop)``."""

    def respond(prompt):
        question = prompt.slots["question"]
        # "1. proposition number 4"
        ids = [int(line.rsplit(" ", 1)[1]) for line in prompt.slots["candidates"].splitlines()]
        return "KEEP: " + (", ".join(str(i + 1) for i, prop in enumerate(ids) if keeps_of(question, prop)) or "none")

    rules = [MockRule(template="Decompose", response=decomposition), MockRule(template="Select", respond=respond)]
    return LLMGateway(MockChatBackend(rules))


def test_collect_anchors_matches_the_two_dict_loop(monkeypatch):
    rounds = []

    def spy(pool, records, graph, cfg):
        # what a round refines from, copied before the loop moves on
        def copy(rec):
            return [(k, np.asarray(v, np.float64).tobytes()) for k, v in rec.origins.items()], list(rec.pruned)

        rounds.append([(prop, [copy(rec) for rec in records[prop]]) for prop in pool])
        return compute_queries(pool, records, graph, cfg)

    monkeypatch.setattr(global_mode, "compute_queries", spy)
    seen = Counter()
    for case in range(50):
        rng = np.random.default_rng(4100 + case)
        graph = build_random_graph(rng, int(rng.integers(8, 41)))
        m = int(rng.integers(2, 5))
        facets = rng.choice(["alpha facet", "beta facet", "gamma facet"], size=int(rng.integers(0, m + 1))).tolist()
        decomposition = "\n".join(f"{i + 1}. {facet}" for i, facet in enumerate(facets)) or "no list here"
        salt, stingy = int(rng.integers(1, 7)), case % 5 == 0  # a stingy case's rounds keep nothing

        def keeps_of(question, prop):
            return not (stingy and question == "broad question") and (prop * salt + len(question)) % 3 != 0

        cfg = small_cfg(
            breadth_m=m,
            min_facts=int(rng.integers(3, 31)),
            max_iter=int(rng.integers(1, 5)),
            top_k=int(rng.integers(2, 6)),
            subgraph_max_size=int(rng.integers(10, 61)),
        )
        runs = []
        for collect in (collect_anchors, two_dict_collect_anchors):
            trace = Trace()
            start = len(rounds)
            gateway = scripted_gateway(decomposition, keeps_of)
            out = collect("broad question", graph, gateway, HashedNgramEmbedder(dim=8), cfg, trace)
            runs.append((out, trace.events, rounds[start:]))
        assert runs[0] == runs[1], case
        (anchors, iterations), events, _ = runs[0]
        subqueries = events[0]["questions"]
        explores = [e for e in events if e["event"] == "explore"]
        collected = [e for e in events if e["event"] == "collected"]
        seen["repeated facet"] += len(set(subqueries)) < len(subqueries)
        seen["kept by two partitions"] += any(
            sum(prop in e["kept"] for e in explores if e["iteration"] == i) > 1
            for i in range(1, iterations + 1)
            for prop in anchors
        )
        seen["a round keeps nothing"] += any(e["pool"] == 0 for e in collected)
        seen["min_facts stop"] += iterations > 0 and len(anchors) >= cfg.min_facts
        seen["max_iter stop"] += (
            iterations == cfg.max_iter and len(anchors) < cfg.min_facts and collected[-1]["pool"] > 0
        )
    assert min(seen.values()) > 0 and len(seen) == 5, seen


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
    blob_of = {
        graph.global_index(node): node.index // 8 if node.kind is NodeKind.PROPOSITION else node.index
        for node in node_order(graph)
    }
    communities = detect_communities(graph, min_size=2, max_size=150, seed=0, resolution=1.0)
    # the full blobs appear at some level; finer sub-splits may appear too
    full = [c for c in communities if c.size == 10]
    assert len(full) == 2
    assert {frozenset(blob_of[n] for n in c.nodes) for c in full} == {frozenset({0}), frozenset({1})}
    # the blobs are disconnected: no community may mix them
    for community in communities:
        assert len({blob_of[n] for n in community.nodes}) == 1


def test_detect_communities_size_filter_can_empty():
    graph = two_blob_graph()
    assert detect_communities(graph, min_size=11, max_size=12, seed=0, resolution=1.0) == ()


def test_detect_communities_deterministic():
    graph = two_blob_graph()
    first = detect_communities(graph, 2, 150, seed=0, resolution=1.0)
    second = detect_communities(graph, 2, 150, seed=0, resolution=1.0)
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
    community = Community(0, frozenset(map(graph.global_index, (passage_id(0), proposition_id(0), entity_id(0)))))
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
    chunks = build_reports([Community(0, frozenset(map(graph.global_index, (passage, prop, hub))))], graph, cfg)
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
    community = Community(0, frozenset(map(graph.global_index, (passage, *props))))
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
    first_anchor = result.collected[0]
    assert result.answer == graph.propositions[first_anchor].text


def test_answer_global_deterministic(embedder8):
    graph = two_blob_graph()
    cfg = small_cfg(breadth_m=2, min_facts=6, max_iter=2, min_community_size=10, max_community_size=10)
    first = answer_global("what do the blobs say", graph, global_fixture_gateway(), embedder8, cfg)
    second = answer_global("what do the blobs say", graph, global_fixture_gateway(), embedder8, cfg)
    assert first.answer == second.answer
    assert first.trace.events == second.trace.events
