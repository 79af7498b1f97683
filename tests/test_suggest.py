import numpy as np
import pytest

from propgraph import suggest, traversal
from propgraph.encoding import normalize
from propgraph.graph import NodeKind, proposition_id
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.suggest import (
    PropositionPool,
    SuggestConfig,
    _rank_new,
    select,
    suggest_global,
    suggest_local,
    suggest_naive,
)
from propgraph.traversal import TransitionMatrix, WalkParams, blend, build_semantic_transition, extract_subgraph

from conftest import build_random_graph, neighbors, random_unit
from test_traversal import (
    coo_structural_reference,
    dense_ppr_oracle,
    dense_semantic_oracle,
    graph_from_links,
    transpose_copy_ppr_reference,
)


def basis(axis, dim=8):
    v = np.zeros(dim)
    v[axis] = 1.0
    return normalize(v)


# ----------------------------------------------------------------------
# naive
# ----------------------------------------------------------------------


def test_naive_planted_exact_match_first():
    planted = basis(2)
    graph = graph_from_links([[], [], []], embeddings=[basis(0), basis(1), planted])
    assert suggest_naive(planted, graph, SuggestConfig(k=1)) == [2]


def test_naive_is_edge_blind():
    rng = np.random.default_rng(3)
    embeddings = [random_unit(rng, 8) for _ in range(4)]
    sparse_links = graph_from_links([[], [], [], []], embeddings=embeddings)
    dense_links = graph_from_links([["e"], ["e"], ["e", "f"], ["f"]], embeddings=embeddings)
    query = random_unit(rng, 8)
    cfg = SuggestConfig(k=4)
    assert suggest_naive(query, sparse_links, cfg) == suggest_naive(query, dense_links, cfg)


def test_naive_matches_exhaustive_sort_oracle():
    rng = np.random.default_rng(5)
    embeddings = [random_unit(rng, 8) for _ in range(30)]
    graph = graph_from_links([[] for _ in range(30)], embeddings=embeddings)
    query = random_unit(rng, 8)
    got = suggest_naive(query, graph, SuggestConfig(k=20))
    scores = [
        (float(np.dot(e.astype(np.float64), query.astype(np.float64))), i)
        for i, e in enumerate(embeddings)
    ]
    expected = [i for _, i in sorted(scores, key=lambda t: (-t[0], t[1]))][:20]
    assert got == expected


# ----------------------------------------------------------------------
# local
# ----------------------------------------------------------------------


def two_chain_graph():
    """Seed 0; chain a (props 1-3) embedded near basis(0), chain b (4-6) orthogonal."""
    links = [
        ["a0", "b0"],  # 0 seed
        ["a0", "a1"],  # 1
        ["a1", "a2"],  # 2
        ["a2"],        # 3
        ["b0", "b1"],  # 4
        ["b1", "b2"],  # 5
        ["b2"],        # 6
    ]
    embeddings = [
        normalize(0.7 * np.eye(8)[0] + 0.3 * np.eye(8)[7]),
        normalize(0.9 * np.eye(8)[0] + np.sqrt(1 - 0.81) * np.eye(8)[1]),
        normalize(0.9 * np.eye(8)[0] + np.sqrt(1 - 0.81) * np.eye(8)[2]),
        normalize(0.9 * np.eye(8)[0] + np.sqrt(1 - 0.81) * np.eye(8)[3]),
        basis(4),
        basis(5),
        basis(6),
    ]
    return graph_from_links(links, embeddings=embeddings)


def dense_local_oracle(graph, query_vec, seeds, params, k):
    """Independent dense replication: structural product, semantic reweight,
    blend, power iteration, ranked non-seeds."""
    n = len(graph.propositions)
    others = [node for node in graph.node_order if node.kind is not NodeKind.PROPOSITION]
    other_col = {node: j for j, node in enumerate(others)}
    a = np.zeros((n, len(others)))
    for i in range(n):
        nbrs = neighbors(graph, proposition_id(i))
        for node in nbrs:
            a[i, other_col[node]] = 1.0 / len(nbrs)
    b = np.zeros((len(others), n))
    for node, j in other_col.items():
        nbrs = neighbors(graph, node)
        for p in nbrs:
            b[j, p.index] = 1.0 / len(nbrs)
    ts = a @ b
    np.fill_diagonal(ts, 0.0)
    sums = ts.sum(axis=1, keepdims=True)
    ts = np.divide(ts, sums, out=np.zeros_like(ts), where=sums > 0)
    sims = graph.proposition_embeddings.astype(np.float64) @ np.asarray(query_vec, np.float64)
    tn, _ = dense_semantic_oracle(ts, sims, params.tau, params.theta)
    blended = params.lambda_ * ts + (1 - params.lambda_) * tn
    pi = dense_ppr_oracle(blended, list(seeds), params.damping)
    ranked = sorted(range(n), key=lambda r: (-pi[r], r))
    return [r for r in ranked if pi[r] > 0 and r not in set(seeds)][:k]


def test_local_nothing_new_reachable():
    graph = graph_from_links([["e"], ["e"]])
    cfg = SuggestConfig(k=5, subgraph_size=50)
    out = suggest_local(basis(0), graph, [0, 1], cfg)
    assert out == []


def test_local_lambda_one_is_query_independent():
    graph = two_chain_graph()
    cfg = SuggestConfig(k=7, subgraph_size=100, walk=WalkParams(lambda_=1.0))
    rng = np.random.default_rng(9)
    rankings = {tuple(suggest_local(random_unit(rng, 8), graph, [0], cfg)) for _ in range(10)}
    assert len(rankings) == 1


def test_local_two_chain_fixture_matches_dense_oracle():
    graph = two_chain_graph()
    params = WalkParams(lambda_=0.5)
    cfg = SuggestConfig(k=6, subgraph_size=100, walk=params)
    query = basis(0)
    got = suggest_local(query, graph, [0], cfg)
    expected = dense_local_oracle(graph, query, [0], params, 6)
    assert got == expected
    # chain a (query-aligned) outranks chain b at every depth
    position = {p: i for i, p in enumerate(got)}
    for near, far in ((1, 4), (2, 5), (3, 6)):
        assert position[near] < position[far]


def test_local_never_returns_seeds_and_caps_k():
    rng = np.random.default_rng(11)
    for _ in range(10):
        graph = build_random_graph(rng, int(rng.integers(3, 15)))
        n = len(graph.propositions)
        seeds = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        k = int(rng.integers(1, 6))
        out = suggest_local(random_unit(rng, 8), graph, seeds, cfg=SuggestConfig(k=k, subgraph_size=200))
        assert len(out) <= k
        assert len(set(out)) == len(out)
        assert not set(out) & set(seeds)


def test_local_prefix_property():
    graph = two_chain_graph()
    walk = WalkParams()
    for k in range(1, 6):
        small = suggest_local(basis(0), graph, [0], SuggestConfig(k=k, subgraph_size=100, walk=walk))
        big = suggest_local(basis(0), graph, [0], SuggestConfig(k=k + 1, subgraph_size=100, walk=walk))
        assert big[: len(small)] == small


# ----------------------------------------------------------------------
# global
# ----------------------------------------------------------------------


def carved(graph, queries, cfg):
    """The subgraph a global round carves around a partition's members."""
    return extract_subgraph(graph, [prop for prop, _ in queries], cfg.subgraph_size, cfg.walk)


def test_global_singleton_partition_equals_local():
    graph = two_chain_graph()
    cfg = SuggestConfig(k=4, subgraph_size=100)
    query = basis(0)
    local = suggest_local(query, graph, [0], cfg)
    global_ids, walker_pis = suggest_global([(0, query)], carved(graph, [(0, query)], cfg), cfg)
    assert global_ids == local
    assert len(walker_pis) == 1 and walker_pis[0]


def test_global_symmetric_members_tie_break_by_index():
    # u0/u1 share a hub entity; c2 hangs off u0, c3 symmetrically off u1,
    # with identical embeddings: the aggregate ties and index order wins
    links = [["E", "F0"], ["E", "F1"], ["F0"], ["F1"]]
    shared = basis(0)
    tail = normalize(0.8 * np.eye(8)[0] + 0.6 * np.eye(8)[1])
    graph = graph_from_links(links, embeddings=[shared, shared, tail, tail])
    query = basis(0)
    cfg = SuggestConfig(k=2, subgraph_size=100)
    members = [(0, query), (1, query)]
    got, _ = suggest_global(members, carved(graph, members, cfg), cfg)
    assert got == [2, 3]


def test_global_fallback_rows_reduce_to_structural_walk():
    # queries orthogonal to every embedding with a high floor: every row of
    # the query-aware operator falls back, so the blend equals the
    # structural operator and the aggregate matches a pure-structural oracle
    graph = two_chain_graph()
    params = WalkParams(lambda_=0.5, theta=0.95)
    cfg = SuggestConfig(k=6, subgraph_size=100, walk=params)
    query = basis(7) * -1.0  # orthogonal-ish to all planted embeddings
    members = [(0, query)]
    got, _ = suggest_global(members, carved(graph, members, cfg), cfg, exclude=())
    expected = dense_local_oracle(graph, query, [0], params, 6)
    assert got == expected
    structural_only = dense_local_oracle(graph, query, [0], WalkParams(lambda_=1.0, theta=0.95), 6)
    assert got == structural_only


def test_global_excludes_members_and_caller_set():
    graph = two_chain_graph()
    cfg = SuggestConfig(k=7, subgraph_size=100)
    members = [(0, basis(0))]
    got, _ = suggest_global(members, carved(graph, members, cfg), cfg, exclude=[1, 4])
    assert 0 not in got and 1 not in got and 4 not in got


def reference_suggest_global(queries, sub, cfg, exclude=()):
    """The reference for ``suggest_global``: its walks over the COO structural build, ``blend`` of the semantic operator, and ``ppr`` by a CSR copy of M^T."""
    structural = TransitionMatrix(coo_structural_reference(sub))
    row_props = sub.proposition_indices
    row_of = {p: r for r, p in enumerate(row_props)}
    aggregate = np.zeros(len(row_props))
    walker_pis = []
    for prop, q_vec in queries:
        sims = sub.proposition_embeddings @ np.asarray(q_vec, dtype=np.float64)
        blended = blend(structural, build_semantic_transition(structural, sims, cfg.walk), cfg.walk.lambda_)
        pi = transpose_copy_ppr_reference(blended.matrix, [row_of[prop]], cfg.walk)
        aggregate += pi
        walker_pis.append({row_props[r]: float(p) for r, p in enumerate(pi) if p > 0.0})
    excluded = {prop for prop, _ in queries} | set(exclude)
    return _rank_new(aggregate, row_props, excluded, cfg.k), walker_pis


def test_global_matches_reference_pipeline_bitwise():
    rng = np.random.default_rng(13)
    for _ in range(12):
        graph = build_random_graph(rng, int(rng.integers(2, 50)))
        n = len(graph.propositions)
        walk = WalkParams(lambda_=float(rng.choice([0.0, 0.5, 1.0])), theta=float(rng.choice([-1.0, 0.4, 1.0])))
        cfg = SuggestConfig(k=int(rng.integers(1, 10)), subgraph_size=int(rng.integers(5, 40)), walk=walk)
        members = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist())
        queries = [(prop, random_unit(rng, 8)) for prop in members]
        if cfg.subgraph_size < len(members):
            continue
        sub = carved(graph, queries, cfg)
        exclude = rng.choice(n, size=2).tolist()
        got_ids, got_pis = suggest_global(queries, sub, cfg, exclude)
        want_ids, want_pis = reference_suggest_global(queries, sub, cfg, exclude)
        assert got_ids == want_ids
        assert [list(pis.items()) for pis in got_pis] == [list(pis.items()) for pis in want_pis]


def test_global_builds_structural_operator_and_length_groups_once(monkeypatch):
    builds, patterns = [], []
    build, pattern = suggest.build_structural_transition, traversal._Pattern
    monkeypatch.setattr(suggest, "build_structural_transition", lambda view: builds.append(view) or build(view))
    monkeypatch.setattr(traversal, "_Pattern", lambda matrix: patterns.append(matrix) or pattern(matrix))
    rng = np.random.default_rng(17)
    graph = build_random_graph(rng, 40)
    cfg = SuggestConfig(k=5, subgraph_size=30)
    queries = [(prop, random_unit(rng, 8)) for prop in (0, 7, 19, 33)]
    _, walker_pis = suggest_global(queries, carved(graph, queries, cfg), cfg)
    assert len(walker_pis) == 4
    assert len(builds) == 1
    assert len(patterns) == 1


def test_global_requires_nonempty_partition():
    graph = two_chain_graph()
    with pytest.raises(ValueError):
        suggest_global([], extract_subgraph(graph, [0], 100, WalkParams()), SuggestConfig())


# ----------------------------------------------------------------------
# select wrapper
# ----------------------------------------------------------------------


def test_select_empty_candidates(two_hop_graph):
    gateway = LLMGateway(MockChatBackend())
    assert select("q", [], two_hop_graph, gateway) == []


def test_select_keep_all(two_hop_graph):
    gateway = LLMGateway(MockChatBackend([MockRule(template="Select", response="KEEP: 1, 2, 3")]))
    assert select("q", [5, 2, 9], two_hop_graph, gateway) == [5, 2, 9]


def test_select_scripted_distractor_prune(two_hop_graph):
    gateway = LLMGateway(MockChatBackend([MockRule(template="Select", response="KEEP: 1")]))
    kept = select("where was einstein born", [0, 9], two_hop_graph, gateway)
    assert kept == [0]


def test_pool_preserves_order_and_dedupes():
    pool = PropositionPool()
    assert pool.add(3)
    assert not pool.add(3)
    pool.add(1)
    assert pool.ids() == [3, 1] == list(pool)
    assert 3 in pool and len(pool) == 2
    clone = pool.copy()
    clone.add(7)
    assert pool.ids() == [3, 1] and clone.ids() == [3, 1, 7]
    assert PropositionPool([5, 2, 5]).ids() == [5, 2]
