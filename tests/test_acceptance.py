"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints an explicit confirmation line with
``-s``. Everything runs against deterministic mock backends only.
"""

import json

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from propgraph import graph as graph_io
from propgraph.cli import main
from propgraph.config import RunConfig
from propgraph.encoding import HashedNgramEmbedder
from propgraph.global_mode import WalkRecord, compute_queries
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.local_mode import answer_local
from propgraph.metrics import exact_match, f1
from propgraph.suggest import suggest_local, suggest_naive
from propgraph.traversal import (
    TransitionMatrix,
    blend,
    build_semantic_transition,
    build_structural_transition,
    ppr,
)

from conftest import (
    TWO_HOP_GOLD,
    TWO_HOP_HOP2,
    TWO_HOP_QUESTION,
    build_random_graph,
    leiden_on_networkx,
    random_unit,
    two_hop_rules,
)
from test_global_mode import collection_fixture, small_cfg
from test_traversal import dense_ppr_oracle, dense_semantic_oracle, random_transition
from test_suggest import two_chain_graph


def _ok(n: int, message: str) -> None:
    print(f"criterion {n:02d} PASS: {message}")


def test_c01_matrix_properties():
    rng = np.random.default_rng(101)
    params = RunConfig(temperature=0.1, cosine_threshold=0.4, lambda_=0.5)
    checked = 0
    for _ in range(100):
        graph = build_random_graph(rng, int(rng.integers(2, 51)))
        ts = build_structural_transition(graph)
        sims = rng.uniform(-1, 1, size=ts.size)
        tn = build_semantic_transition(ts, sims, params)
        mixed = blend(ts, tn, params.lambda_)
        for matrix in (ts, tn, mixed):
            sums = np.asarray(matrix.matrix.sum(axis=1)).ravel()
            for value in sums:
                assert abs(value - 1.0) <= 1e-9 or value == 0.0
            assert np.all(matrix.matrix.diagonal() == 0.0)
        ts_dense = ts.matrix.toarray()
        tn_dense = tn.matrix.toarray()
        for i in range(ts.size):
            if i in tn.fallback_rows:
                assert np.array_equal(tn_dense[i], ts_dense[i])
            else:
                assert np.all(ts_dense[i][tn_dense[i] > 0] > 0)
        checked += 1
    assert checked == 100
    _ok(1, "row sums 1±1e-9, zero diagonals, sparsity containment on 100 random graphs")


def test_c02_ppr_oracle_equivalence():
    rng = np.random.default_rng(102)
    params = RunConfig()
    for _ in range(50):
        n = int(rng.integers(2, 51))
        matrix = random_transition(rng, n)
        seeds = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False).tolist())
        pi = ppr(matrix, seeds, params)
        oracle = dense_ppr_oracle(matrix.matrix.toarray(), seeds, params.damping)
        assert np.abs(pi - oracle).sum() < 1e-6

    d = 0.85
    swap = TransitionMatrix(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    pi = ppr(swap, [0], RunConfig(damping=d, ppr_epsilon=1e-14, ppr_max_iters=10000))
    closed0 = (1 - d) / (1 - d**2)
    assert abs(pi[0] - closed0) < 1e-9
    assert abs(pi[1] - d * closed0) < 1e-9
    _ok(2, "sparse walk matches dense oracle within 1e-6 L1 on 50 instances; 2-node closed form within 1e-9")


def test_c03_lambda_one_ranking_invariance():
    graph = two_chain_graph()
    n = len(graph.propositions)
    cfg = RunConfig(top_k=n, subgraph_max_size=100, lambda_=1.0)
    rng = np.random.default_rng(103)
    rankings = {tuple(suggest_local(random_unit(rng, 8), graph, [0], cfg)) for _ in range(10)}
    assert len(rankings) == 1
    _ok(3, "full walk ranking identical across 10 random query vectors at lambda=1")


def test_c04_semantic_transition_oracle():
    rng = np.random.default_rng(104)
    params = RunConfig(temperature=0.1, cosine_threshold=0.4)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        ts = random_transition(rng, n)
        sims = rng.uniform(-1, 1, size=n)
        tn = build_semantic_transition(ts, sims, params)
        expected, fallback = dense_semantic_oracle(ts.matrix.toarray(), sims, params.temperature, params.cosine_threshold)
        assert np.max(np.abs(tn.matrix.toarray() - expected)) < 1e-12
        assert tn.fallback_rows == frozenset(fallback)
        tn_dense = tn.matrix.toarray()
        below = np.flatnonzero(sims < params.cosine_threshold)
        for i in range(n):
            if i not in tn.fallback_rows:
                assert np.all(tn_dense[i, below] == 0.0)
    _ok(4, "query-aware transition matches dense oracle within 1e-12; floor zeroes exactly the sub-threshold entries")


def test_c05_greedy_budgeted_selection():
    from test_global_mode import community_of
    from propgraph.global_mode import select_communities
    from propgraph.graph import proposition_id

    rng = np.random.default_rng(105)
    for _ in range(300):
        n_anchors = int(rng.integers(1, 13))
        anchors = {proposition_id(i) for i in range(n_anchors)}
        candidates = []
        for cid in range(int(rng.integers(1, 7))):
            inside = [int(i) for i in rng.choice(n_anchors, size=int(rng.integers(0, n_anchors + 1)), replace=False)]
            candidates.append(community_of(inside, int(rng.integers(1, 25)), cid))
        budget = int(rng.integers(1, 100))
        chosen = select_communities(anchors, candidates, budget)

        coverable = anchors & set().union(*(c.nodes for c in candidates))
        covered, used, remaining = set(), 0, list(candidates)
        for pick in chosen:
            scores = {c.id: len((c.nodes & anchors) - covered) / c.size for c in remaining}
            best = max(scores.values())
            tied = [c for c in remaining if scores[c.id] == best]
            smallest = min(c.size for c in tied)
            expected = min((c for c in tied if c.size == smallest), key=lambda c: c.id)
            assert pick.id == expected.id  # step-wise argmax
            covered |= pick.nodes & anchors
            used += pick.size
            remaining.remove(pick)
        assert used - budget <= (chosen[-1].size if chosen else 0)
        assert covered == coverable or used >= budget or not remaining
    _ok(5, "greedy choice equals per-step argmax oracle on 300 instances; budget overshoot bounded by final pick")


def test_c06_feedback_identity():
    rng = np.random.default_rng(106)
    from test_traversal import graph_from_links

    embeddings = [random_unit(rng, 8) for _ in range(6)]
    graph = graph_from_links([["e"]] * 6, embeddings=embeddings)
    dense = graph.proposition_embeddings.astype(np.float64)
    pool = [4]
    qa, qb = np.asarray(random_unit(rng, 8), np.float64), np.asarray(random_unit(rng, 8), np.float64)
    records = {
        4: [
            WalkRecord({4: qb}, [1]),  # of walkers qa and qb, qb reached 4 most
            WalkRecord({4: qa}, [2, 3]),
        ]
    }
    cfg = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.7, rocchio_gamma=0.15)
    state = compute_queries(pool, records, graph, cfg)[4]
    q_origin = (qb + qa) / 2.0
    q_negative = (dense[1] + (dense[2] + dense[3]) / 2.0) / 2.0
    expected = 1.0 * q_origin + 0.7 * dense[4] - 0.15 * q_negative
    assert np.max(np.abs(state.q_raw - expected)) < 1e-12

    plain = small_cfg(rocchio_alpha=1.0, rocchio_beta=0.0, rocchio_gamma=0.0)
    state0 = compute_queries(pool, records, graph, plain)[4]
    assert np.array_equal(state0.q_raw, state0.q_origin)
    _ok(6, "feedback combination exact to 1e-12 at (1, 0.7, 0.15) and degenerates to the origin query at (1, 0, 0)")


def test_c07_two_hop_local_beats_naive(two_hop_graph, embedder):
    naive_top5 = suggest_naive(embedder.embed_one(TWO_HOP_QUESTION), two_hop_graph, RunConfig(top_k=5))
    assert TWO_HOP_HOP2 not in naive_top5

    gateway = LLMGateway(MockChatBackend(two_hop_rules()))
    cfg = RunConfig(max_iter=1, top_k=5, subgraph_max_size=500)
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, gateway, embedder, cfg)
    assert TWO_HOP_HOP2 in result.collected
    first_kept = next(e for e in result.trace.of_kind("suggest") if TWO_HOP_HOP2 in e["kept"])
    assert first_kept["iteration"] == 1
    assert result.answer == TWO_HOP_GOLD
    assert exact_match(result.answer, [TWO_HOP_GOLD]) == 1
    _ok(7, "similarity-only top-5 misses the bridging fact; one walk iteration collects it and answers correctly")


def test_c08_anchor_collection_liveness():
    embedder = HashedNgramEmbedder(dim=8)
    from propgraph.global_mode import collect_anchors
    from propgraph.trace import Trace

    # (a) target reached at seeding: zero iterations
    graph, gateway = collection_fixture()
    _, iterations = collect_anchors("broad question", graph, gateway, embedder, small_cfg(min_facts=1))
    assert iterations == 0

    # (b) iteration budget reached while growing monotonically
    graph, gateway = collection_fixture()
    trace = Trace()
    _, iterations = collect_anchors("broad question", graph, gateway, embedder, small_cfg(min_facts=10_000, max_iter=2), trace)
    counts = [e["anchors"] for e in trace.of_kind("collected")]
    assert iterations == 2 and counts == sorted(counts)

    # (c) selection prunes everything: pool empties, loop exits immediately
    graph, _ = collection_fixture()
    pruning = LLMGateway(MockChatBackend([MockRule(template="Select", response="KEEP: none")]))
    anchors, iterations = collect_anchors("broad question", graph, pruning, embedder, small_cfg(min_facts=10_000, max_iter=5))
    assert iterations == 0 and len(anchors) == 0
    _ok(8, "anchor collection terminates on target reached, budget spent, and pool emptied; growth is monotone")


def test_c09_leiden_two_clique_fixture():
    graph = nx.Graph()
    left = [f"L{i}" for i in range(20)]
    right = [f"R{i}" for i in range(20)]
    for block in (left, right):
        for i in range(20):
            for j in range(i + 1, 20):
                graph.add_edge(block[i], block[j])
    graph.add_edge(left[0], right[0])

    levels = leiden_on_networkx(graph, seed=0)
    planted = sorted([frozenset(left), frozenset(right)])
    assert any(sorted(map(frozenset, part)) == planted for part in levels)

    top = levels[-1]
    trivial = [set(graph.nodes())]
    assert nx.algorithms.community.modularity(graph, top) >= nx.algorithms.community.modularity(graph, trivial)
    _ok(9, "planted two-clique partition recovered exactly; modularity beats the trivial partition")


def test_c10_determinism_and_persistence(tmp_path):
    from test_cli import DATASET, EVAL_RULES, rules_as_json
    from conftest import TWO_HOP_PASSAGES

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, (text, _, _) in enumerate(TWO_HOP_PASSAGES):
        (corpus / f"{i:02d}.txt").write_text(text)
    rules = two_hop_rules()
    for question, answer in EVAL_RULES:
        rules.append(MockRule(template="FinalAnswer", slot_equals={"question": question}, response=answer))
    (tmp_path / "rules.json").write_text(json.dumps(rules_as_json(rules)))
    (tmp_path / "config.json").write_text(
        json.dumps(
            {
                "top_k": 5,
                "chat_backend": {"kind": "mock", "script": "rules.json"},
                "embed_backend": {"kind": "mock", "dimension": 256},
            }
        )
    )
    with open(tmp_path / "dataset.jsonl", "w") as fh:
        for row in DATASET:
            fh.write(json.dumps(row) + "\n")

    artifacts = {}
    for run in ("one", "two"):
        graph_dir = tmp_path / f"graph_{run}"
        out_dir = tmp_path / f"eval_{run}"
        trace = tmp_path / f"trace_{run}.jsonl"
        assert main(["index", "--config", str(tmp_path / "config.json"), "--corpus", str(corpus), "--out", str(graph_dir)]) == 0
        assert main([
            "query", "--config", str(tmp_path / "config.json"), "--graph", str(graph_dir),
            "--mode", "local", "--trace", str(trace), TWO_HOP_QUESTION,
        ]) == 0
        assert main([
            "eval", "--config", str(tmp_path / "config.json"), "--graph", str(graph_dir),
            "--dataset", str(tmp_path / "dataset.jsonl"), "--mode", "naive", "--out", str(out_dir),
        ]) == 0
        graph_bytes = {
            p.name: p.read_bytes() for p in sorted(graph_dir.iterdir())
        }
        artifacts[run] = (
            graph_bytes,
            trace.read_bytes(),
            (out_dir / "report.json").read_bytes(),
            (out_dir / "questions.jsonl").read_bytes(),
        )
    assert artifacts["one"] == artifacts["two"]

    loaded = graph_io.load(tmp_path / "graph_one")
    reloaded_dir = tmp_path / "resaved"
    graph_io.save(loaded, reloaded_dir)
    original = {p.name: p.read_bytes() for p in sorted((tmp_path / "graph_one").iterdir())}
    resaved = {p.name: p.read_bytes() for p in sorted(reloaded_dir.iterdir())}
    assert original == resaved
    _ok(10, "index, query and eval byte-identical across two runs; graph save/load round-trip exact")


def test_c11_metric_unit_vectors():
    assert exact_match("Paris", ["paris"]) == 1
    assert exact_match("the Eiffel Tower", ["Eiffel Tower"]) == 1
    assert exact_match("Paris, France", ["Paris"]) == 0
    assert f1("Paris France", ["Paris"]) == pytest.approx(2.0 / 3.0)
    _ok(11, "exact-match normalization cases and the 2/3 token-F1 case hold exactly")
