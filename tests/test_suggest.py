import numpy as np
import pytest

from propgraph import suggest, traversal
from propgraph.config import RunConfig
from propgraph.encoding import normalize
from propgraph.global_mode import answer_global
from propgraph.graph import NodeKind, proposition_id
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.local_mode import answer_local, answer_naive
from propgraph.suggest import (
    Result,
    _rank_new,
    select,
    select_wave,
    suggest_global,
    suggest_local,
    suggest_naive,
)
from propgraph.traversal import TransitionMatrix, blend, build_semantic_transition, extract_subgraph

from conftest import TWO_HOP_QUESTION, build_random_graph, neighbors, node_order, random_unit, two_hop_rules
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
    assert suggest_naive(planted, graph, RunConfig(top_k=1)) == [2]


def test_naive_is_edge_blind():
    rng = np.random.default_rng(3)
    embeddings = [random_unit(rng, 8) for _ in range(4)]
    sparse_links = graph_from_links([[], [], [], []], embeddings=embeddings)
    dense_links = graph_from_links([["e"], ["e"], ["e", "f"], ["f"]], embeddings=embeddings)
    query = random_unit(rng, 8)
    cfg = RunConfig(top_k=4)
    assert suggest_naive(query, sparse_links, cfg) == suggest_naive(query, dense_links, cfg)


def test_naive_matches_exhaustive_sort_oracle():
    rng = np.random.default_rng(5)
    embeddings = [random_unit(rng, 8) for _ in range(30)]
    graph = graph_from_links([[] for _ in range(30)], embeddings=embeddings)
    query = random_unit(rng, 8)
    got = suggest_naive(query, graph, RunConfig(top_k=20))
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
    others = [node for node in node_order(graph) if node.kind is not NodeKind.PROPOSITION]
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
    tn, _ = dense_semantic_oracle(ts, sims, params.temperature, params.cosine_threshold)
    blended = params.lambda_ * ts + (1 - params.lambda_) * tn
    pi = dense_ppr_oracle(blended, list(seeds), params.damping)
    ranked = sorted(range(n), key=lambda r: (-pi[r], r))
    return [r for r in ranked if pi[r] > 0 and r not in set(seeds)][:k]


def test_local_nothing_new_reachable():
    graph = graph_from_links([["e"], ["e"]])
    cfg = RunConfig(top_k=5, subgraph_max_size=50)
    out = suggest_local(basis(0), graph, [0, 1], cfg)
    assert out == []


def test_local_lambda_one_is_query_independent():
    graph = two_chain_graph()
    cfg = RunConfig(top_k=7, subgraph_max_size=100, lambda_=1.0)
    rng = np.random.default_rng(9)
    rankings = {tuple(suggest_local(random_unit(rng, 8), graph, [0], cfg)) for _ in range(10)}
    assert len(rankings) == 1


def test_local_two_chain_fixture_matches_dense_oracle():
    graph = two_chain_graph()
    cfg = RunConfig(top_k=6, subgraph_max_size=100, lambda_=0.5)
    query = basis(0)
    got = suggest_local(query, graph, [0], cfg)
    expected = dense_local_oracle(graph, query, [0], cfg, 6)
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
        out = suggest_local(random_unit(rng, 8), graph, seeds, cfg=RunConfig(top_k=k, subgraph_max_size=200))
        assert len(out) <= k
        assert len(set(out)) == len(out)
        assert not set(out) & set(seeds)


def test_local_prefix_property():
    graph = two_chain_graph()
    for k in range(1, 6):
        small = suggest_local(basis(0), graph, [0], RunConfig(top_k=k, subgraph_max_size=100))
        big = suggest_local(basis(0), graph, [0], RunConfig(top_k=k + 1, subgraph_max_size=100))
        assert big[: len(small)] == small


# ----------------------------------------------------------------------
# global
# ----------------------------------------------------------------------


def carved(graph, queries, cfg):
    """The subgraph a global round carves around a partition's members."""
    return extract_subgraph(graph, [prop for prop, _ in queries], cfg.subgraph_max_size, cfg)


def test_global_singleton_partition_equals_local():
    graph = two_chain_graph()
    cfg = RunConfig(top_k=4, subgraph_max_size=100)
    query = basis(0)
    local = suggest_local(query, graph, [0], cfg)
    global_ids, nearest = suggest_global([(0, query)], carved(graph, [(0, query)], cfg), cfg)
    assert global_ids == local
    assert nearest == [0] * len(local)


def test_global_symmetric_members_tie_break_by_index():
    # u0/u1 share a hub entity; c2 hangs off u0, c3 symmetrically off u1,
    # with identical embeddings: the aggregate ties and index order wins
    links = [["E", "F0"], ["E", "F1"], ["F0"], ["F1"]]
    shared = basis(0)
    tail = normalize(0.8 * np.eye(8)[0] + 0.6 * np.eye(8)[1])
    graph = graph_from_links(links, embeddings=[shared, shared, tail, tail])
    query = basis(0)
    cfg = RunConfig(top_k=2, subgraph_max_size=100)
    members = [(0, query), (1, query)]
    got, _ = suggest_global(members, carved(graph, members, cfg), cfg)
    assert got == [2, 3]


def test_global_nearest_walker_ties_resolve_to_the_lower_index():
    # as above, u0/u1 share a hub entity and an embedding, and c2 hangs off
    # the hub: the two walks mirror each other and reach c2 equally, so its
    # nearest walker is the lower index, whichever member comes first
    links = [["E"], ["E"], ["E"]]
    shared = basis(0)
    graph = graph_from_links(links, embeddings=[shared, shared, normalize(0.8 * np.eye(8)[0] + 0.6 * np.eye(8)[1])])
    query = basis(0)
    cfg = RunConfig(top_k=1, subgraph_max_size=100)
    sub = carved(graph, [(0, query), (1, query)], cfg)
    for members in ([(0, query), (1, query)], [(1, query), (0, query)]):
        got, nearest = suggest_global(members, sub, cfg)
        _, pis = reference_suggest_global(members, sub, cfg)
        assert got == [2]
        assert pis[0][2] == pis[1][2]
        assert nearest == [0]


def test_global_fallback_rows_reduce_to_structural_walk():
    # queries orthogonal to every embedding with a high floor: every row of
    # the query-aware operator falls back, so the blend equals the
    # structural operator and the aggregate matches a pure-structural oracle
    graph = two_chain_graph()
    cfg = RunConfig(top_k=6, subgraph_max_size=100, lambda_=0.5, cosine_threshold=0.95)
    query = basis(7) * -1.0  # orthogonal-ish to all planted embeddings
    members = [(0, query)]
    got, _ = suggest_global(members, carved(graph, members, cfg), cfg, exclude=())
    expected = dense_local_oracle(graph, query, [0], cfg, 6)
    assert got == expected
    structural_only = dense_local_oracle(graph, query, [0], RunConfig(lambda_=1.0, cosine_threshold=0.95), 6)
    assert got == structural_only


def test_global_excludes_members_and_caller_set():
    graph = two_chain_graph()
    cfg = RunConfig(top_k=7, subgraph_max_size=100)
    members = [(0, basis(0))]
    got, _ = suggest_global(members, carved(graph, members, cfg), cfg, exclude=[1, 4])
    assert 0 not in got and 1 not in got and 4 not in got


def loop_rank_new(probabilities, row_props, excluded, k):
    """The reference for ``_rank_new``: a full sort of every row, read until ``k`` are kept or a row is unvisited."""
    out = []
    for row in np.lexsort((np.arange(len(row_props)), -probabilities)):
        if probabilities[row] <= 0.0:
            break
        if row_props[row] not in excluded:
            out.append(row_props[row])
            if len(out) == k:
                break
    return out


def test_rank_new_matches_the_loop_over_a_full_sort():
    rng = np.random.default_rng(38)
    seen = {"zero": 0, "tie": 0, "excluded inside": 0, "excluded outside": 0, "k above positive rows": 0}
    for _ in range(200):
        n = int(rng.integers(1, 30))
        row_props = rng.permutation(60)[:n].tolist()  # distinct, as a subgraph's rows are
        probabilities = rng.choice([0.0, 0.0, 0.05, 0.1, 0.25, 0.5], size=n)
        excluded = set(rng.choice(row_props, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        excluded |= set(rng.integers(60, 80, size=int(rng.integers(0, 4))).tolist())
        k = int(rng.integers(1, n + 4))
        assert _rank_new(probabilities, row_props, excluded, k) == loop_rank_new(probabilities, row_props, excluded, k)
        positive = probabilities > 0.0
        seen["zero"] += not positive.all()
        seen["tie"] += len(np.unique(probabilities[positive])) < np.count_nonzero(positive)
        seen["excluded inside"] += bool(excluded & set(row_props))
        seen["excluded outside"] += bool(excluded - set(row_props))
        seen["k above positive rows"] += k > np.count_nonzero(positive)
    assert min(seen.values()) >= 40, seen


def reference_suggest_global(queries, sub, cfg, exclude=()):
    """The reference for ``suggest_global``: its walks over the COO structural build, ``blend`` of the semantic operator, and ``ppr`` by a CSR copy of M^T."""
    structural = TransitionMatrix(coo_structural_reference(sub))
    row_props = sub.proposition_indices
    row_of = {p: r for r, p in enumerate(row_props)}
    aggregate = np.zeros(len(row_props))
    walker_pis = []  # each walker's visit probabilities keyed by proposition id
    for prop, q_vec in queries:
        sims = sub.proposition_embeddings @ np.asarray(q_vec, dtype=np.float64)
        blended = blend(structural, build_semantic_transition(structural, sims, cfg), cfg.lambda_)
        pi = transpose_copy_ppr_reference(blended.matrix, [row_of[prop]], cfg)
        aggregate += pi
        walker_pis.append({row_props[r]: float(p) for r, p in enumerate(pi) if p > 0.0})
    excluded = {prop for prop, _ in queries} | set(exclude)
    return _rank_new(aggregate, row_props, excluded, cfg.top_k), walker_pis


def test_global_matches_reference_pipeline_bitwise():
    rng = np.random.default_rng(13)
    for _ in range(12):
        graph = build_random_graph(rng, int(rng.integers(2, 50)))
        n = len(graph.propositions)
        lambda_, cosine_threshold = float(rng.choice([0.0, 0.5, 1.0])), float(rng.choice([-1.0, 0.4, 1.0]))
        cfg = RunConfig(lambda_=lambda_, cosine_threshold=cosine_threshold, top_k=int(rng.integers(1, 10)))
        size = int(rng.integers(5, 40))  # may be below top_k: the carving is called with it directly
        members = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist())
        queries = [(prop, random_unit(rng, 8)) for prop in members]
        if size < len(members):
            continue
        sub = extract_subgraph(graph, members, size, cfg)
        exclude = rng.choice(n, size=2).tolist()
        got_ids, got_nearest = suggest_global(queries, sub, cfg, exclude)
        want_ids, want_pis = reference_suggest_global(queries, sub, cfg, exclude)
        assert got_ids == want_ids
        assert got_nearest == [int(np.argmax([pis.get(prop, 0.0) for pis in want_pis])) for prop in want_ids]


def test_global_builds_structural_operator_and_length_groups_once(monkeypatch):
    builds, patterns = [], []
    build, pattern = suggest.build_structural_transition, traversal._Pattern
    monkeypatch.setattr(suggest, "build_structural_transition", lambda view: builds.append(view) or build(view))
    monkeypatch.setattr(traversal, "_Pattern", lambda matrix: patterns.append(matrix) or pattern(matrix))
    rng = np.random.default_rng(17)
    graph = build_random_graph(rng, 40)
    cfg = RunConfig(top_k=5, subgraph_max_size=30)
    queries = [(prop, random_unit(rng, 8)) for prop in (0, 7, 19, 33)]
    suggested, nearest = suggest_global(queries, carved(graph, queries, cfg), cfg)
    assert len(suggested) == len(nearest) and set(nearest) <= set(range(4))
    assert len(builds) == 1
    assert len(patterns) == 1


def test_global_requires_nonempty_partition():
    graph = two_chain_graph()
    with pytest.raises(ValueError):
        suggest_global([], extract_subgraph(graph, [0], 100, RunConfig()), RunConfig())


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


def recording_send(sent, degrade=False):
    """A stand-in for ``select`` keeping even ids (every id if ``degrade``); appends (question, ids) per call to ``sent``."""

    def send(question, ids, graph, gateway):
        sent.append((question, list(ids)))
        return list(ids) if degrade else [c for c in ids if c % 2 == 0]

    return send


def test_a_wave_packs_each_question_texts_unjudged_candidates_in_first_seen_order():
    sent = []
    verdicts = {("a", 1): True, ("b", 3): False}
    asks = [("a", [1, 2, 3, 4]), ("b", [3, 2]), ("a", [4, 5, 6, 7, 8, 2])]
    kept = select_wave(asks, verdicts, 3, None, None, recording_send(sent))
    assert sent == [("a", [2, 3, 4]), ("a", [5, 6, 7]), ("a", [8]), ("b", [2])]
    assert kept == [[1, 2, 4], [2], [4, 6, 8, 2]]
    assert verdicts == {
        ("a", 1): True, ("a", 2): True, ("a", 3): False, ("a", 4): True, ("a", 5): False,
        ("a", 6): True, ("a", 7): False, ("a", 8): True, ("b", 2): True, ("b", 3): False,
    }


def test_a_wave_with_nothing_unjudged_sends_no_select():
    sent = []
    verdicts = {("a", 1): True, ("a", 2): False}
    assert select_wave([("a", [2, 1]), ("a", []), ("b", [])], verdicts, 3, None, None, recording_send(sent)) == [[1], [], []]
    assert sent == []


def test_a_degraded_packed_select_keeps_every_candidate_and_none_is_sent_again():
    sent = []
    verdicts = {}
    assert select_wave([("a", [1, 3]), ("a", [5, 3])], verdicts, 4, None, None, recording_send(sent, degrade=True)) == [
        [1, 3],
        [5, 3],
    ]
    assert select_wave([("a", [5, 7, 1])], verdicts, 4, None, None, recording_send(sent)) == [[5, 1]]
    assert sent == [("a", [1, 3, 5]), ("a", [7])]


@pytest.mark.parametrize("answer", [answer_naive, answer_local, answer_global])
def test_every_mode_returns_a_result_collecting_distinct_ids_in_order(answer, two_hop_graph, embedder):
    cfg = RunConfig(max_iter=2, top_k=5, subgraph_max_size=500)
    result = answer(TWO_HOP_QUESTION, two_hop_graph, LLMGateway(MockChatBackend(two_hop_rules())), embedder, cfg)
    assert type(result) is Result and type(result.collected) is list
    kept = [prop for e in result.trace.events if e["event"] in ("seed", "suggest", "explore") for prop in e["kept"]]
    assert result.collected == list(dict.fromkeys(kept)) != []
