import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from propgraph import traversal
from propgraph.encoding import top_k_similar
from propgraph.errors import UnknownNodeError
from propgraph.graph import HeteroGraph, NodeKind, proposition_id
from propgraph.traversal import (
    Subgraph,
    TransitionMatrix,
    WalkParams,
    _carving_walks,
    _column_sums,
    _first_testable_step,
    blend,
    build_semantic_transition,
    build_structural_transition,
    extract_subgraph,
    extract_subgraphs,
    ppr,
    query_aware_transition,
)

from conftest import build_random_graph, edges, neighbors, random_unit


def graph_from_links(links, rng=None, embeddings=None, dim=8):
    """One passage per proposition; links[i] names the entities of prop i."""
    rng = rng or np.random.default_rng(0)
    graph = HeteroGraph()
    entities = {}
    for i, names in enumerate(links):
        passage = graph.add_passage(f"passage {i}", "d", (0, 5))
        refs = []
        for name in names:
            if name not in entities:
                entities[name] = graph.add_entity(name, random_unit(rng, dim))
            refs.append(entities[name])
        emb = embeddings[i] if embeddings is not None else random_unit(rng, dim)
        graph.add_proposition(f"prop {i}", passage, refs, emb)
    return graph.finalize()


def random_transition(rng, n, density=0.4, dangling_frac=0.2) -> TransitionMatrix:
    """Random row-stochastic matrix with zero diagonal and some dangling rows."""
    dense = np.zeros((n, n))
    for i in range(n):
        if n > 1 and rng.random() >= dangling_frac:
            cols = [j for j in range(n) if j != i and rng.random() < density]
            if not cols:
                j = int(rng.integers(0, n - 1))
                cols = [j if j < i else j + 1]
            weights = rng.random(len(cols)) + 0.1
            dense[i, cols] = weights / weights.sum()
    return TransitionMatrix(sp.csr_matrix(dense))


# ----------------------------------------------------------------------
# structural transition
# ----------------------------------------------------------------------


def test_structural_two_props_shared_entity():
    graph = graph_from_links([["e"], ["e"]])
    ts = build_structural_transition(graph).matrix.toarray()
    assert np.allclose(ts, [[0.0, 1.0], [1.0, 0.0]])


def test_structural_single_prop_is_dangling():
    graph = graph_from_links([[]])
    ts = build_structural_transition(graph)
    assert ts.matrix.shape == (1, 1)
    assert ts.matrix.nnz == 0


def test_structural_entity_clique_uniform():
    # 4 propositions sharing one entity; in a subgraph without their
    # passages each off-diagonal entry must be 1/3
    graph = graph_from_links([["hub"], ["hub"], ["hub"], ["hub"]])
    hub = [e.id for e in graph.entities if e.canonical_name == "hub"][0]
    sub = Subgraph(graph, [graph.global_index(n) for n in [p.id for p in graph.propositions] + [hub]])
    ts = build_structural_transition(sub).matrix.toarray()
    expected = np.full((4, 4), 1.0 / 3.0)
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(ts, expected)


def test_structural_rows_stochastic_zero_diag_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(25):
        graph = build_random_graph(rng, int(rng.integers(2, 20)))
        ts = build_structural_transition(graph)
        sums = np.asarray(ts.matrix.sum(axis=1)).ravel()
        for i in range(ts.size):
            assert sums[i] == pytest.approx(1.0, abs=1e-9) or sums[i] == 0.0
        assert np.all(ts.matrix.diagonal() == 0.0)


def loop_structural_reference(graph, nodes) -> sp.csr_matrix:
    """The two-hop operator over the nodes ``nodes``, built edge by edge.

    Hubs take columns in order of first appearance (ascending proposition,
    then sorted neighbors), which fixes the summation order of the product.
    """
    kept = set(nodes)
    nbrs = {node: [m for m in neighbors(graph, node) if m in kept] for node in kept}
    props = sorted(node.index for node in kept if node.kind is NodeKind.PROPOSITION)
    row = {p: r for r, p in enumerate(props)}
    hub_col: dict = {}
    ra, ca, da = [], [], []
    for p in props:
        near = nbrs[proposition_id(p)]
        for hub in near:
            ra.append(row[p])
            ca.append(hub_col.setdefault(hub, len(hub_col)))
            da.append(1.0 / len(near))
    rb, cb, db = [], [], []
    for hub, col in hub_col.items():
        for other in nbrs[hub]:
            rb.append(col)
            cb.append(row[other.index])
            db.append(1.0 / len(nbrs[hub]))
    n, m = len(props), max(len(hub_col), 1)
    t = (sp.csr_matrix((da, (ra, ca)), shape=(n, m)) @ sp.csr_matrix((db, (rb, cb)), shape=(m, n))).tolil()
    t.setdiag(0.0)
    t = t.tocsr()
    t.eliminate_zeros()
    sums = np.asarray(t.sum(axis=1)).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 1e-15)
    return sp.diags(inv).dot(t).tocsr()


def test_structural_matches_loop_reference_bitwise():
    rng = np.random.default_rng(37)
    hub, lone = odd_views(np.random.default_rng(0))
    for graph, view in ((hub, hub), (lone, lone), (hub, one_proposition_view(hub))):
        nodes = [graph.node_order[i] for i in view.nodes] if isinstance(view, Subgraph) else graph.node_order
        got = build_structural_transition(view).matrix
        want = loop_structural_reference(graph, nodes)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    for _ in range(15):
        graph = build_random_graph(rng, int(rng.integers(2, 40)))
        views = [(graph, graph.node_order)]
        for limit in (4, 10, 25):
            seeds = sorted({int(i) for i in rng.integers(0, len(graph.propositions), size=2)})
            if limit >= len(seeds):
                sub = extract_subgraph(graph, seeds, limit, WalkParams())
                views.append((sub, [graph.node_order[i] for i in sub.nodes]))
        for view, nodes in views:
            got = build_structural_transition(view).matrix
            want = loop_structural_reference(graph, nodes)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def odd_views(rng) -> tuple[HeteroGraph, HeteroGraph]:
    """A hub whose 300 propositions each have a row of 299 entries, beyond the 128 at which numpy's pairwise sum recurses, next to two propositions that share no hub; and a graph of one proposition."""
    hub = graph_from_links([["hub"]] * 300 + [["alone"], []], rng=rng)
    return hub, graph_from_links([["e"]], rng=rng)


def one_proposition_view(graph: HeteroGraph) -> Subgraph:
    """The subgraph of ``graph``'s first proposition alone."""
    return Subgraph(graph, [graph.global_index(proposition_id(0))])


def walker_views(rng) -> list:
    """The views the walker path is checked on, bit for bit: the odd views, random graphs, and subgraphs carved from them."""
    hub, lone = odd_views(rng)
    views = [hub, lone, one_proposition_view(hub), one_proposition_view(lone)]
    for _ in range(8):
        graph = build_random_graph(rng, int(rng.integers(2, 60)))
        views.append(graph)
        for limit in (6, 15, 40):
            seeds = sorted({int(i) for i in rng.integers(0, len(graph.propositions), size=3)})
            if limit >= len(seeds):
                views.append(extract_subgraph(graph, seeds, limit, WalkParams()))
    return views


def coo_structural_reference(view) -> sp.csr_matrix:
    """The reference for ``build_structural_transition``: the diagonal dropped through SciPy's COO format, the rows scaled by a diagonal matrix."""
    rows = view.proposition_rows
    walk = view.uniform_transition
    out = walk[rows]
    n = out.shape[0]
    seen, first = np.unique(out.indices, return_index=True)
    hubs = seen[np.argsort(first)]
    column = np.zeros(walk.shape[0], dtype=np.int64)
    column[hubs] = np.arange(len(hubs))
    to_hub = sp.csr_matrix((out.data, column[out.indices], out.indptr), shape=(n, len(hubs)))
    to_hub.sort_indices()
    two_step = (to_hub @ walk[hubs][:, rows]).tocoo()
    off = two_step.row != two_step.col
    t = sp.csr_matrix((two_step.data[off], (two_step.row[off], two_step.col[off])), shape=(n, n))
    sums = np.asarray(t.sum(axis=1)).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 1e-15)
    return sp.diags(inv).dot(t).tocsr()


def transpose_copy_ppr_reference(matrix: sp.csr_matrix, seeds, params: WalkParams) -> np.ndarray:
    """The reference for ``ppr``: each step by a CSR copy of M^T, the dangling term always added."""
    n = matrix.shape[0]
    restart = np.zeros(n, dtype=np.float64)
    restart[sorted(set(seeds))] = 1.0 / len(set(seeds))
    dangling = np.asarray(matrix.sum(axis=1)).ravel() <= 1e-15
    mt = matrix.T.tocsr()
    d = params.damping
    pi = restart.copy()
    for _ in range(params.ppr_max_iters):
        dangling_mass = float(pi[dangling].sum()) if dangling.any() else 0.0
        nxt = d * (mt @ pi + dangling_mass * restart) + (1.0 - d) * restart
        err = float(np.abs(nxt - pi).sum())
        pi = nxt
        if err < params.ppr_epsilon:
            break
    return pi


def assert_same_arrays(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


def test_structural_matches_coo_reference_bitwise():
    for view in walker_views(np.random.default_rng(61)):
        got = build_structural_transition(view).matrix
        assert_same_arrays(got, coo_structural_reference(view))
        # every row stores its columns in descending order
        for row in range(got.shape[0]):
            assert (np.diff(got.indices[got.indptr[row] : got.indptr[row + 1]]) < 0).all()


def test_query_aware_transition_matches_blend_reference_bitwise():
    rng = np.random.default_rng(67)
    views = walker_views(rng)
    for lambda_ in (0.0, 0.5, 1.0):
        # theta 1.0 leaves every row below the floor, -1.0 masks nothing
        for theta in (-1.0, 0.4, 1.0):
            params = WalkParams(lambda_=lambda_, theta=theta)
            for view in views:
                structural = build_structural_transition(view)
                query = random_unit(rng, view.proposition_embeddings.shape[1])
                sims = view.proposition_embeddings @ query.astype(np.float64)
                want = blend(structural, build_semantic_transition(structural, sims, params), lambda_)
                for got in (query_aware_transition(view, query, params, structural), query_aware_transition(view, query, params)):
                    assert_same_arrays(got.matrix, want.matrix)
                    assert got.fallback_rows == want.fallback_rows
                n = structural.size
                for seeds in ([0], [n - 1], sorted({int(i) for i in rng.integers(0, n, size=3)})):
                    got_pi = ppr(query_aware_transition(view, query, params, structural), seeds, params)
                    assert got_pi.tobytes() == transpose_copy_ppr_reference(want.matrix, seeds, params).tobytes()
    # an operator that stores its rows in ascending column order, as one built from a dense array does
    for view in views:
        n = view.proposition_embeddings.shape[0]
        structural = random_transition(rng, n)
        query = random_unit(rng, view.proposition_embeddings.shape[1])
        sims = view.proposition_embeddings @ query.astype(np.float64)
        want = blend(structural, build_semantic_transition(structural, sims, WalkParams()), 0.5)
        assert_same_arrays(query_aware_transition(view, query, WalkParams(), structural).matrix, want.matrix)


def test_ppr_matches_transpose_copy_reference_bitwise():
    rng = np.random.default_rng(71)
    params = WalkParams()
    for dangling_frac in (0.0, 0.2, 1.0):
        for _ in range(10):
            n = int(rng.integers(1, 30))
            m = random_transition(rng, n, dangling_frac=dangling_frac).matrix
            seeds = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            assert ppr(m, seeds, params).tobytes() == transpose_copy_ppr_reference(m, seeds, params).tobytes()
    # the full graph's uniform walk, as the carving oracles walk it
    graph = build_random_graph(rng, 80)
    for seeds in ([0], [3, 17, 40]):
        rows = (np.add(seeds, graph.proposition_rows.start)).tolist()
        want = transpose_copy_ppr_reference(graph.uniform_transition, rows, params)
        assert ppr(graph.uniform_transition, rows, params).tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# semantic transition
# ----------------------------------------------------------------------


def dense_semantic_oracle(ts_dense, sims, tau, theta):
    """Direct dense evaluation of the mask/boost/normalize rule."""
    n = ts_dense.shape[0]
    boosted = np.where(sims >= theta, np.exp(sims / tau), 0.0)
    tn = np.zeros_like(ts_dense)
    fallback = set()
    for i in range(n):
        mask = ts_dense[i] > 0
        if not mask.any():
            continue
        denom = float((boosted * mask).sum())
        if denom > 0:
            tn[i] = boosted * mask / denom
        else:
            tn[i] = ts_dense[i]
            fallback.add(i)
    return tn, fallback


def test_semantic_threshold_kills_low_similarity():
    ts = TransitionMatrix(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    params = WalkParams(theta=0.4)
    tn = build_semantic_transition(ts, np.array([0.5, 0.3]), params)
    dense = tn.matrix.toarray()
    # node 1 falls below the floor: row 1 puts all mass on node 0, and
    # row 0 (whose only neighbor is node 1) falls back to the structural row
    assert dense[1, 0] == pytest.approx(1.0)
    assert tn.fallback_rows == frozenset({0})
    assert np.allclose(dense[0], [0.0, 1.0])


def test_semantic_equal_similarities_uniform():
    ts_dense = np.array(
        [
            [0.0, 0.5, 0.5, 0.0],
            [0.3, 0.0, 0.3, 0.4],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    ts = TransitionMatrix(sp.csr_matrix(ts_dense))
    tn = build_semantic_transition(ts, np.full(4, 0.8), WalkParams()).matrix.toarray()
    assert np.allclose(tn[0], [0.0, 0.5, 0.5, 0.0])
    assert np.allclose(tn[1], [1 / 3, 0.0, 1 / 3, 1 / 3])
    assert np.allclose(tn[2], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(tn[3], 0.0)


def test_semantic_matches_dense_oracle():
    rng = np.random.default_rng(31)
    params = WalkParams(tau=0.1, theta=0.4)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        ts = random_transition(rng, n)
        sims = rng.uniform(-1, 1, size=n)
        tn = build_semantic_transition(ts, sims, params)
        expected, fallback = dense_semantic_oracle(ts.matrix.toarray(), sims, params.tau, params.theta)
        assert np.max(np.abs(tn.matrix.toarray() - expected)) < 1e-12
        assert tn.fallback_rows == frozenset(fallback)


def loop_semantic_reference(structural, similarities, params) -> TransitionMatrix:
    """The query-aware operator built row by row in a ``lil_matrix``."""
    n = structural.size
    similarities = np.asarray(similarities, dtype=np.float64).ravel()
    boosted = np.where(similarities >= params.theta, np.exp(similarities / params.tau), 0.0)
    base = structural.matrix
    indptr = base.indptr
    indices = base.indices
    out = sp.lil_matrix((n, n), dtype=np.float64)
    fallback: set[int] = set()
    for i in range(n):
        cols = indices[indptr[i] : indptr[i + 1]]
        if cols.size == 0:
            continue
        weights = boosted[cols]
        total = weights.sum()
        if total > 0.0:
            out.rows[i] = [int(c) for c in cols]
            out.data[i] = list(weights / total)
        else:
            row = base.getrow(i)
            out.rows[i] = [int(c) for c in row.indices]
            out.data[i] = [float(v) for v in row.data]
            fallback.add(i)
    csr = out.tocsr()
    csr.eliminate_zeros()
    return TransitionMatrix(csr, frozenset(fallback))


def test_semantic_matches_loop_reference_bitwise():
    rng = np.random.default_rng(43)
    # rows of 299 entries take numpy's blocked pairwise summation path
    hub = graph_from_links([["hub"]] * 300, rng=rng)
    views = [hub, *odd_views(np.random.default_rng(0)), one_proposition_view(hub)]
    for _ in range(12):
        graph = build_random_graph(rng, int(rng.integers(2, 60)))
        views.append(graph)
        for limit in (6, 15, 40):
            seeds = sorted({int(i) for i in rng.integers(0, len(graph.propositions), size=2)})
            if limit >= len(seeds):
                views.append(extract_subgraph(graph, seeds, limit, WalkParams()))
    # theta 1.0 leaves every row below the floor; -1.0 masks nothing
    for theta in (-1.0, 0.0, 0.4, 0.9, 1.0):
        params = WalkParams(theta=theta, tau=float(rng.choice([0.05, 0.1, 1.0])))
        for view in views:
            structural = build_structural_transition(view)
            sims = view.proposition_embeddings.astype(np.float64) @ random_unit(rng, view.proposition_embeddings.shape[1])
            got = build_semantic_transition(structural, sims, params)
            want = loop_semantic_reference(structural, sims, params)
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(got.matrix, attr), getattr(want.matrix, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
            assert got.fallback_rows == want.fallback_rows


def test_semantic_rejects_bad_inputs():
    ts = TransitionMatrix(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    with pytest.raises(ValueError):
        build_semantic_transition(ts, np.array([0.1]), WalkParams())
    with pytest.raises(ValueError):
        WalkParams(tau=0.0)


def test_sparsity_containment_except_fallback():
    rng = np.random.default_rng(37)
    params = WalkParams()
    for _ in range(20):
        n = int(rng.integers(2, 10))
        ts = random_transition(rng, n)
        sims = rng.uniform(-1, 1, size=n)
        tn = build_semantic_transition(ts, sims, params)
        ts_dense = ts.matrix.toarray()
        tn_dense = tn.matrix.toarray()
        for i in range(n):
            if i in tn.fallback_rows:
                assert np.array_equal(tn_dense[i], ts_dense[i])
            else:
                assert np.all(ts_dense[i][tn_dense[i] > 0] > 0)


# ----------------------------------------------------------------------
# blend
# ----------------------------------------------------------------------


def test_blend_extremes_and_idempotence():
    rng = np.random.default_rng(41)
    ts = random_transition(rng, 5, dangling_frac=0.0)
    tn = build_semantic_transition(ts, rng.uniform(0.5, 1.0, size=5), WalkParams())
    assert np.allclose(blend(ts, tn, 1.0).matrix.toarray(), ts.matrix.toarray())
    assert np.allclose(blend(ts, tn, 0.0).matrix.toarray(), tn.matrix.toarray())
    swap = TransitionMatrix(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(blend(swap, swap, 0.5).matrix.toarray(), swap.matrix.toarray())


def test_blend_rows_remain_stochastic():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        ts = random_transition(rng, n)
        tn = build_semantic_transition(ts, rng.uniform(-1, 1, size=n), WalkParams())
        mixed = blend(ts, tn, 0.5)
        for i, total in enumerate(np.asarray(mixed.matrix.sum(axis=1)).ravel()):
            assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0
        assert np.all(mixed.matrix.diagonal() == 0.0)


def test_blend_validates_lambda():
    ts = random_transition(np.random.default_rng(0), 3)
    with pytest.raises(ValueError):
        blend(ts, ts, 1.5)


# ----------------------------------------------------------------------
# personalized pagerank
# ----------------------------------------------------------------------


def dense_ppr_oracle(m_dense, seeds, damping, iters=5000, tol=1e-13):
    n = m_dense.shape[0]
    restart = np.zeros(n)
    restart[sorted(set(seeds))] = 1.0 / len(set(seeds))
    dangling = m_dense.sum(axis=1) <= 1e-15
    pi = restart.copy()
    for _ in range(iters):
        nxt = damping * (m_dense.T @ pi + pi[dangling].sum() * restart) + (1 - damping) * restart
        if np.abs(nxt - pi).sum() < tol:
            return nxt
        pi = nxt
    return pi


def test_ppr_single_node():
    m = TransitionMatrix(sp.csr_matrix((1, 1)))
    dist = ppr(m, [0], WalkParams())
    assert dist[0] == pytest.approx(1.0, abs=1e-12)


def test_ppr_two_node_closed_form():
    # swap matrix, seed {0}: pi0 = (1-d)/(1-d^2), pi1 = d * pi0
    d = 0.85
    m = TransitionMatrix(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    dist = ppr(m, [0], WalkParams(damping=d, ppr_epsilon=1e-14, ppr_max_iters=10000))
    pi0 = (1 - d) / (1 - d**2)
    assert dist[0] == pytest.approx(pi0, abs=1e-9)
    assert dist[1] == pytest.approx(d * pi0, abs=1e-9)


def test_ppr_matches_dense_oracle():
    rng = np.random.default_rng(47)
    params = WalkParams()
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = random_transition(rng, n)
        seeds = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        dist = ppr(m, seeds, params)
        oracle = dense_ppr_oracle(m.matrix.toarray(), seeds, params.damping)
        assert np.abs(dist - oracle).sum() < 1e-6


def test_ppr_is_distribution():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        m = random_transition(rng, n)
        dist = ppr(m, [0], WalkParams())
        assert dist.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(dist >= 0.0)


def test_ppr_rejects_empty_or_out_of_range_seeds():
    m = random_transition(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        ppr(m, [], WalkParams())
    with pytest.raises(IndexError):
        ppr(m, [7], WalkParams())


def test_ppr_permutation_invariance():
    # relabeled matrix M'[i, j] = M[perm[i], perm[j]] must walk to
    # pi'[i] = pi[perm[i]], within twice the convergence epsilon
    rng = np.random.default_rng(59)
    params = WalkParams()
    for _ in range(5):
        n = 8
        m = random_transition(rng, n)
        seeds = [1, 4]
        base = ppr(m, seeds, params)
        perm = rng.permutation(n)
        dense = m.matrix.toarray()[np.ix_(perm, perm)]
        new_seeds = [int(np.flatnonzero(perm == s)[0]) for s in seeds]
        permuted = ppr(TransitionMatrix(sp.csr_matrix(dense)), new_seeds, params)
        assert np.abs(permuted - base[perm]).sum() < 2 * params.ppr_epsilon


# ----------------------------------------------------------------------
# subgraph extraction
# ----------------------------------------------------------------------


def test_extract_whole_graph_when_limit_large():
    graph = graph_from_links([["e1"], ["e1", "e2"], ["e2"]])
    sub = extract_subgraph(graph, [0], graph.node_count, WalkParams())
    assert [graph.node_order[i] for i in sub.nodes] == graph.node_order
    assert (sub.uniform_transition != graph.uniform_transition).nnz == 0


def test_extract_minimal_closure():
    graph = graph_from_links([["e1"], ["e1"], ["e2"], ["e2"]])
    sub = extract_subgraph(graph, [0, 1], 4, WalkParams())
    expected = {
        proposition_id(0),
        proposition_id(1),
        graph.propositions[0].passage,
        graph.propositions[1].passage,
    }
    assert {graph.node_order[i] for i in sub.nodes} == expected


def test_extract_includes_passage_of_every_chosen_proposition():
    rng = np.random.default_rng(61)
    graph = build_random_graph(rng, 12)
    sub = extract_subgraph(graph, [0], 9, WalkParams())
    for idx in sub.proposition_indices:
        assert graph.propositions[idx].passage in {graph.node_order[i] for i in sub.nodes}


def _chain_clique_graph():
    """Seed with two 3-prop chains attached directly and a 6-prop clique
    behind a bridge proposition; all propositions carry their own passage."""
    links = [
        ["a0", "b0", "x0"],  # 0 seed
        ["a0", "a1"],        # 1 chain a
        ["a1", "a2"],        # 2
        ["a2"],              # 3
        ["b0", "b1"],        # 4 chain b
        ["b1", "b2"],        # 5
        ["b2"],              # 6
        ["x0", "H1"],        # 7 bridge
        ["H1", "H2"],        # 8 clique
        ["H1", "H2"],        # 9
        ["H1", "H2"],        # 10
        ["H1", "H2"],        # 11
        ["H1", "H2"],        # 12
        ["H1", "H2"],        # 13
    ]
    return graph_from_links(links)


def test_extract_chain_outranks_distant_clique():
    graph = _chain_clique_graph()
    params = WalkParams()
    # dense RWR oracle over the full heterogeneous graph
    order = graph.node_order
    gi = {node: i for i, node in enumerate(order)}
    n = len(order)
    adj = np.zeros((n, n))
    for a, b in edges(graph):
        adj[gi[a], gi[b]] = 1.0
        adj[gi[b], gi[a]] = 1.0
    deg = adj.sum(axis=1)
    m = np.divide(adj, deg[:, None], out=np.zeros_like(adj), where=deg[:, None] > 0)
    pi = dense_ppr_oracle(m, [gi[proposition_id(0)]], params.damping)
    score = np.divide(pi, deg, out=np.zeros_like(pi), where=deg > 0)

    chain = [score[gi[proposition_id(i)]] for i in (1, 2, 3, 4, 5, 6)]
    clique = [score[gi[proposition_id(i)]] for i in range(8, 14)]
    assert min(chain) > max(clique)

    # extraction admits nodes in oracle order: with room for the chains but
    # not the clique, every chain proposition is in and every clique one out
    sub = extract_subgraph(graph, [0], 24, params)
    for i in (1, 2, 3, 4, 5, 6):
        assert i in sub.proposition_indices
    assert not any(i in sub.proposition_indices for i in range(8, 14))


def test_extract_validates_inputs():
    graph = graph_from_links([["e"]])
    with pytest.raises(ValueError):
        extract_subgraph(graph, [], 5, WalkParams())
    with pytest.raises(ValueError):
        extract_subgraph(graph, [0], 0, WalkParams())


# ----------------------------------------------------------------------
# carving walks as one block
# ----------------------------------------------------------------------


def graph_with_lonely_passages(rng, n_props, dim=8):
    """A random graph whose last two passages hold no proposition: dangling walk rows."""
    graph = HeteroGraph()
    passages = [graph.add_passage(f"passage {i}", "d", (0, 5)) for i in range(n_props // 3 + 3)]
    entities = [graph.add_entity(f"entity {i}", random_unit(rng, dim)) for i in range(n_props // 2 + 1)]
    for i in range(n_props):
        refs = rng.choice(len(entities), size=int(rng.integers(0, 3)), replace=False)
        passage = passages[int(rng.integers(0, len(passages) - 2))]
        graph.add_proposition(f"prop {i}", passage, [entities[int(j)] for j in refs], random_unit(rng, dim))
    graph.finalize()
    assert (graph.global_degrees == 0).sum() >= 2
    return graph


def random_seed_sets(rng, graph, count):
    """``count`` seed sets of one to three propositions each."""
    n = len(graph.propositions)
    return [rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False).tolist() for _ in range(count)]


def seed_rows(graph, seed_sets):
    return [np.add(sorted(set(seeds)), graph.proposition_rows.start) for seeds in seed_sets]


def random_rows(rng, graph, count):
    """``count`` sets of one to three rows of any kind, dangling ones included.

    Carving seeds only propositions, and from propositions alone every walk
    on the bipartite graph converges at the same rate; mixed kinds make
    walks stop at different steps and put mass on dangling rows.
    """
    return [np.unique(rng.integers(0, graph.node_count, size=int(rng.integers(1, 4)))) for _ in range(count)]


def single_extract_subgraph(graph, seed_props, size_limit, params) -> Subgraph:
    """The carving as it was before carvings shared a walk: one full-graph ``ppr`` per seed set."""
    seeds = sorted(set(seed_props))
    seed_rows = np.add(seeds, graph.proposition_rows.start)
    dist = ppr(graph.uniform_transition, seed_rows.tolist(), params)
    brings = np.arange(graph.node_count)
    brings[graph.proposition_rows] = graph.proposition_passages
    included = np.zeros(graph.node_count, dtype=bool)
    included[seed_rows] = included[brings[seed_rows]] = True
    count = int(included.sum())
    degrees = graph.global_degrees
    scores = np.divide(dist, degrees, out=np.zeros_like(dist), where=degrees > 0)
    for gi in np.lexsort((np.arange(graph.node_count), -scores)).tolist():
        if count >= size_limit:
            break
        if included[gi]:
            continue
        extra = brings[gi]
        count += 1 + (extra != gi and not included[extra])
        included[gi] = included[extra] = True
    return Subgraph(graph, np.flatnonzero(included))


def ppr_steps(graph, rows, params) -> int:
    """The step at which ``ppr`` from ``rows`` stops: the least budget giving its full result."""
    full = ppr(graph.uniform_transition, rows, params)
    lo, hi = 1, params.ppr_max_iters
    while lo < hi:
        mid = (lo + hi) // 2
        if np.array_equal(ppr(graph.uniform_transition, rows, replace(params, ppr_max_iters=mid)), full):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_column_sums_add_like_a_1d_sum():
    # a walk's L1 change and dangling mass are 1-d sums (pairwise); summing
    # a block along axis 0 adds row by row and gives other last bits
    block = np.random.default_rng(67).random((1000, 6))
    got = _column_sums(block)
    assert all(got[j] == np.ascontiguousarray(block[:, j]).sum() for j in range(6))
    assert not np.array_equal(got, block.sum(axis=0))


def assert_columns_are_ppr(graph, rows, params):
    block = _carving_walks(graph, rows, params)
    assert block.shape == (graph.node_count, len(rows))
    for column, seeds in enumerate(rows):
        want = ppr(graph.uniform_transition, seeds.tolist(), params)
        assert block[:, column].tobytes() == want.tobytes(), column


def test_block_walk_columns_are_ppr_bitwise():
    rng = np.random.default_rng(71)
    params = [WalkParams(), WalkParams(damping=0.5, ppr_epsilon=1e-12), WalkParams(damping=0.95, ppr_max_iters=7)]
    for trial in range(16):
        n_props = int(rng.integers(2, 40))
        graph = graph_with_lonely_passages(rng, n_props) if trial % 2 else build_random_graph(rng, n_props)
        count = int(rng.integers(1, 7))
        for rows in (seed_rows(graph, random_seed_sets(rng, graph, count)), random_rows(rng, graph, count)):
            for p in params:
                assert_columns_are_ppr(graph, rows, p)


def test_block_walk_columns_stop_at_their_own_step():
    rng = np.random.default_rng(73)
    graph = graph_with_lonely_passages(rng, 60)
    params = WalkParams(damping=0.9)
    lonely = np.flatnonzero(graph.global_degrees == 0)
    rows = random_rows(rng, graph, 8) + [lonely[:1], np.array([lonely[1], graph.proposition_rows.start])]
    steps = [ppr_steps(graph, r.tolist(), params) for r in rows]
    assert len(set(steps)) > 2
    assert_columns_are_ppr(graph, rows, params)
    # a budget that some columns run out of while others have stopped
    budget = sorted(set(steps))[1]
    assert min(steps) < budget < max(steps)
    assert_columns_are_ppr(graph, rows, replace(params, ppr_max_iters=budget))
    assert_columns_are_ppr(graph, rows, replace(params, ppr_max_iters=1))


def test_extract_subgraphs_equal_single_carvings():
    rng = np.random.default_rng(79)
    for trial in range(14):
        n_props = int(rng.integers(2, 80))
        graph = graph_with_lonely_passages(rng, n_props) if trial % 2 else build_random_graph(rng, n_props)
        seed_sets = random_seed_sets(rng, graph, int(rng.integers(1, 6)))
        for limit in (3, 8, 25, graph.node_count):
            params = WalkParams(damping=float(rng.choice([0.5, 0.85])))
            carved = extract_subgraphs(graph, seed_sets, limit, params)
            assert len(carved) == len(seed_sets)
            for seeds, got in zip(seed_sets, carved):
                want = single_extract_subgraph(graph, seeds, limit, params)
                assert np.array_equal(got.nodes, want.nodes)
                assert got.proposition_indices == want.proposition_indices
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got.uniform_transition, attr), getattr(want.uniform_transition, attr))
                assert extract_subgraph(graph, seeds, limit, params).nodes.tobytes() == got.nodes.tobytes()


def test_extract_subgraphs_on_a_graph_many_times_the_limit():
    rng = np.random.default_rng(83)
    graph = build_random_graph(rng, 300)
    seed_sets = random_seed_sets(rng, graph, 10)
    carved = extract_subgraphs(graph, seed_sets, 30, WalkParams())
    for seeds, got in zip(seed_sets, carved):
        assert got.node_count <= 31  # the last proposition admitted may bring its passage
        assert np.array_equal(got.nodes, single_extract_subgraph(graph, seeds, 30, WalkParams()).nodes)


def test_extract_subgraphs_validates_every_set():
    graph = graph_from_links([["e"], ["e"]])
    assert extract_subgraphs(graph, [], 5, WalkParams()) == []
    with pytest.raises(ValueError, match="non-empty"):
        extract_subgraphs(graph, [[0], []], 5, WalkParams())
    with pytest.raises(ValueError, match="below seed count"):
        extract_subgraphs(graph, [[0], [0, 1]], 1, WalkParams())
    with pytest.raises(UnknownNodeError):
        extract_subgraphs(graph, [[0], [2]], 5, WalkParams())


def two_slice_induced_walk(parent, nodes) -> sp.csr_matrix:
    """The induced walk as a row slice and then a column slice of the parent's walk, degrees renormalized."""
    adjacency = parent.uniform_transition[nodes][:, nodes]
    degrees = np.diff(adjacency.indptr)
    adjacency.data = 1.0 / np.repeat(degrees, degrees)
    return adjacency


def test_subgraph_walk_equals_two_slices_bitwise():
    rng = np.random.default_rng(109)
    for trial in range(12):
        n_props = int(rng.integers(1, 60))
        graph = graph_with_lonely_passages(rng, n_props) if trial % 2 else build_random_graph(rng, n_props)
        n = graph.node_count
        props = np.arange(graph.proposition_rows.start, graph.proposition_rows.stop)
        lonely = np.flatnonzero(graph.global_degrees == 0)
        node_sets = [
            np.array([int(rng.integers(0, n))]),
            np.arange(n),
            # propositions are never adjacent, and a lonely passage has no neighbour
            np.sort(rng.choice(props, size=min(len(props), 4), replace=False)),
            np.sort(np.concatenate([props[:1], lonely])),
            np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)),
        ]
        for nodes in node_sets:
            got = Subgraph(graph, nodes).uniform_transition
            want = two_slice_induced_walk(graph, nodes)
            assert got.shape == want.shape
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        # unsorted input with repeats is taken as its sorted set
        shuffled = rng.permutation(np.concatenate([node_sets[-1], node_sets[-1][:2]]))
        sub = Subgraph(graph, shuffled.tolist())
        assert np.array_equal(sub.nodes, node_sets[-1])
        assert sub.uniform_transition.data.tobytes() == two_slice_induced_walk(graph, node_sets[-1]).data.tobytes()


# ----------------------------------------------------------------------
# conversions done once per frozen graph
# ----------------------------------------------------------------------


def test_transposed_transition_is_the_transpose_bitwise():
    rng = np.random.default_rng(89)
    for trial in range(10):
        n_props = int(rng.integers(1, 40))
        graph = graph_with_lonely_passages(rng, n_props) if trial % 2 else build_random_graph(rng, n_props)
        want = graph.uniform_transition.T.tocsr()
        got = graph.transposed_transition
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_embeddings_are_exact_float64_values_and_scores_unchanged():
    rng = np.random.default_rng(97)
    links = [[f"e{int(j)}" for j in rng.choice(20, size=int(rng.integers(0, 4)), replace=False)] for _ in range(50)]
    added = [random_unit(rng, 16) for _ in links]
    graph = graph_from_links(links, rng, added, dim=16)
    stored = np.stack(added)
    assert stored.dtype == np.float32
    assert graph.proposition_embeddings.dtype == np.float64
    assert np.array_equal(graph.proposition_embeddings, stored.astype(np.float64))
    for _ in range(5):
        query = random_unit(rng, 16)
        got = top_k_similar(query, graph.proposition_embeddings, 50)
        # the float32 vectors converted on every call, as before
        scores = stored.astype(np.float64) @ query.astype(np.float64)
        want = [(int(i), float(scores[i])) for i in np.lexsort((np.arange(50), -scores))]
        assert got == want
        assert top_k_similar(query, stored, 50) == want
    sub = extract_subgraph(graph, [0, 1], 20, WalkParams())
    assert np.array_equal(sub.proposition_embeddings, stored[sub.proposition_indices].astype(np.float64))


# ----------------------------------------------------------------------
# certified early stop of the carving walk
# ----------------------------------------------------------------------


def graph_with_twins(rng, n_props, dim=8):
    """A random graph with planted twins.

    About a third of the propositions copy the passage and entities of an
    earlier one, and some entities are cited wherever another one is, so
    both kinds have nodes with equal neighbor lists.
    """
    graph = HeteroGraph()
    passages = [graph.add_passage(f"passage {i}", "d", (0, 5)) for i in range(n_props // 3 + 1)]
    n_entities = n_props // 2 + 2
    entities = [graph.add_entity(f"entity {i}", random_unit(rng, dim)) for i in range(n_entities)]
    shadow = {int(e): int(e) + 1 for e in rng.choice(np.arange(0, n_entities - 1, 2), size=n_entities // 6, replace=False)}
    links = []
    for i in range(n_props):
        if links and rng.random() < 0.35:
            passage, refs = links[int(rng.integers(0, len(links)))]
        else:
            passage = int(rng.integers(0, len(passages)))
            refs = sorted({int(e) for e in rng.choice(np.arange(0, n_entities, 2), size=int(rng.integers(0, 3)), replace=False)})
            refs = sorted(refs + [shadow[e] for e in refs if e in shadow])
        links.append((passage, refs))
        graph.add_proposition(f"prop {i}", passages[passage], [entities[e] for e in refs], random_unit(rng, dim))
    return graph.finalize()


def graph_with_components(rng, n_props, dim=8):
    """A random graph in two components: each proposition keeps to its half of the passages and entities."""
    graph = HeteroGraph()
    halves = []
    for half in range(2):
        passages = [graph.add_passage(f"passage {half}.{i}", "d", (0, 5)) for i in range(n_props // 6 + 1)]
        entities = [graph.add_entity(f"entity {half}.{i}", random_unit(rng, dim)) for i in range(n_props // 4 + 1)]
        halves.append((passages, entities))
    for i in range(n_props):
        passages, entities = halves[int(rng.integers(0, 2))]
        refs = rng.choice(len(entities), size=min(len(entities), int(rng.integers(0, 3))), replace=False)
        graph.add_proposition(
            f"prop {i}", passages[int(rng.integers(0, len(passages)))], [entities[int(j)] for j in refs], random_unit(rng, dim)
        )
    return graph.finalize()


def graph_with_hub(rng, n_props, dim=8):
    """A random graph where most propositions also cite one hub entity: a long row, so a wide rounding margin."""
    graph = HeteroGraph()
    passages = [graph.add_passage(f"passage {i}", "d", (0, 5)) for i in range(n_props // 3 + 1)]
    entities = [graph.add_entity(f"entity {i}", random_unit(rng, dim)) for i in range(n_props // 2 + 2)]
    for i in range(n_props):
        refs = {int(e) for e in rng.choice(np.arange(1, len(entities)), size=int(rng.integers(0, 3)), replace=False)}
        if rng.random() < 0.8:
            refs.add(0)
        graph.add_proposition(
            f"prop {i}", passages[int(rng.integers(0, len(passages)))], [entities[e] for e in sorted(refs)], random_unit(rng, dim)
        )
    return graph.finalize()


CASE_FAMILIES = (build_random_graph, graph_with_lonely_passages, graph_with_twins, graph_with_components, graph_with_hub)


def certificate_case(seed):
    """A seeded block of carvings: a graph of one family, walk parameters, seed sets and a size limit."""
    rng = np.random.default_rng(seed)
    graph = CASE_FAMILIES[seed % len(CASE_FAMILIES)](rng, int(rng.integers(20, 300)))
    params = WalkParams(
        damping=float(rng.choice([0.5, 0.85, 0.95, 0.99])),
        ppr_epsilon=float(rng.choice([1e-8, 1e-12, 1e-15])),
        ppr_max_iters=3000,
    )
    seed_sets = random_seed_sets(rng, graph, int(rng.integers(1, 4)))
    limit = int(rng.integers(max(len(set(s)) for s in seed_sets), graph.node_count + 2))
    return graph, seed_sets, limit, params


def certificate_holds(graph, seed_props, size_limit, params, step) -> bool:
    """Whether the walk at an even ``step`` proves the carving: the certificate, node by node.

    Takes pi_(t-1) and pi_t from ``ppr``, runs the admission loop of
    ``single_extract_subgraph`` on pi_t, finds the last admitted node's
    twins by comparing neighbor lists, and requires every admitted node
    before that unit to stay above it, and every node that could still be
    read before it and change the count to stay below it, by more than
    the bracket width plus the rounding margin.
    """
    rows = np.add(sorted(set(seed_props)), graph.proposition_rows.start).tolist()
    walk = graph.uniform_transition
    earlier = ppr(walk, rows, replace(params, ppr_max_iters=step - 1))
    now = ppr(walk, rows, replace(params, ppr_max_iters=step))
    n = graph.node_count
    degree = graph.global_degrees
    score = [now[i] / degree[i] if degree[i] else 0.0 for i in range(n)]
    low = [min(earlier[i], now[i]) / degree[i] if degree[i] else 0.0 for i in range(n)]
    props = range(graph.proposition_rows.start, graph.proposition_rows.stop)
    width = max(abs(now[i] - earlier[i]) / degree[i] for i in props)
    margin = 8.0 * (degree.max() + 4) * 2.0**-53 / (1.0 - params.damping)

    brings = list(range(n))
    for p, passage in zip(props, graph.proposition_passages.tolist()):
        brings[p] = passage
    initial = set(rows) | {brings[r] for r in rows}
    included = set(initial)
    admitted = []
    for gi in sorted(range(n), key=lambda i: (-score[i], i)):
        if len(included) >= size_limit:
            break
        if gi not in included:
            included |= {gi, brings[gi]}
            admitted.append(gi)
    if not admitted or size_limit >= n:
        return True
    last = admitted[-1]

    def neighbors(i):
        return walk.indices[walk.indptr[i] : walk.indptr[i + 1]].tolist()

    unit = {i for i in range(n) if neighbors(i) == neighbors(last)}
    above = [v for v in admitted[:-1] if v not in unit]
    below = set(range(n)) - initial - set(above) - {brings[v] for v in above} - unit
    gap = min([low[v] - low[last] for v in above] + [low[last] - low[v] for v in below], default=np.inf)
    return gap > width + margin


def assert_walk_record(graph, seed_props, size_limit, params, carved, exact=None):
    """A carving's recorded walk: a certificate holds, and stops before ``ppr`` would, or with it on the budget's last step; any other stop is ``ppr``'s.

    ``exact`` is the step at which ``ppr`` stops, when already known.
    """
    rows = np.add(sorted(set(seed_props)), graph.proposition_rows.start).tolist()
    exact = exact or ppr_steps(graph, rows, params)
    if carved.walk_stop == "certificate":
        assert carved.walk_steps % 2 == 0
        assert carved.walk_steps < exact or carved.walk_steps == exact == params.ppr_max_iters
        assert certificate_holds(graph, seed_props, size_limit, params, carved.walk_steps)
        return
    assert carved.walk_steps == exact
    last = ppr(graph.uniform_transition, rows, replace(params, ppr_max_iters=exact))
    if exact > 1:
        before = ppr(graph.uniform_transition, rows, replace(params, ppr_max_iters=exact - 1))
    else:
        before = np.zeros(graph.node_count)
        before[rows] = 1.0 / len(rows)
    converged = float(np.abs(last - before).sum()) < params.ppr_epsilon
    assert carved.walk_stop == ("convergence" if converged else "budget")
    assert converged or exact == params.ppr_max_iters


def test_certified_carvings_equal_single_carvings():
    rng = np.random.default_rng(103)
    params = [WalkParams(), WalkParams(damping=0.5), WalkParams(damping=0.95), WalkParams(ppr_max_iters=7)]
    stops = set()
    for trial in range(10):
        graph = CASE_FAMILIES[trial % len(CASE_FAMILIES)](rng, int(rng.integers(2, 90)))
        seed_sets = random_seed_sets(rng, graph, int(rng.integers(1, 5)))
        least = max(len(set(seeds)) for seeds in seed_sets)
        middle = int(rng.integers(least, graph.node_count + 1))
        for p in params:
            # where ppr stops does not depend on the limit
            exact = [ppr_steps(graph, seed_rows(graph, [seeds])[0].tolist(), p) for seeds in seed_sets]
            for limit in sorted({least, middle, graph.node_count, graph.node_count + 1}):
                carved = extract_subgraphs(graph, seed_sets, limit, p)
                for seeds, got, steps in zip(seed_sets, carved, exact):
                    assert np.array_equal(got.nodes, single_extract_subgraph(graph, seeds, limit, p).nodes)
                    assert_walk_record(graph, seeds, limit, p, got, steps)
                    stops.add(got.walk_stop)
    assert stops == {"certificate", "convergence", "budget"}


# Seeds of certificate_case found by searches that ran the carvings with
# one rule of the certificate dropped: seeds 0-399 for every rule, and
# seeds 400-2399 with damping 0.95 or 0.99 for the margin. Without the
# rounding margin, a carving of seeds 324, 759 and 1534 (damping 0.99,
# where the margin is widest) is certified where its gap does not clear
# the margin. Without the order condition on the last unit, seeds 4 and 5
# are certified where the certificate does not hold, and seeds 42, 212
# and 323 carve the wrong node set. Without twin units, the named
# carvings of seeds 4, 7 and 36 never certify and run the exact walk.
CERTIFICATE_SEEDS = [4, 5, 42, 212, 323, 324, 759, 1534]
TWIN_UNIT_CARVINGS = {4: 1, 7: 1, 36: 0}


@pytest.mark.parametrize("seed", CERTIFICATE_SEEDS)
def test_carvings_stop_only_on_a_certificate(seed):
    graph, seed_sets, limit, params = certificate_case(seed)
    carved = extract_subgraphs(graph, seed_sets, limit, params)
    for seeds, got in zip(seed_sets, carved):
        assert np.array_equal(got.nodes, single_extract_subgraph(graph, seeds, limit, params).nodes)
        if got.walk_stop == "certificate":
            assert certificate_holds(graph, seeds, limit, params, got.walk_steps)


@pytest.mark.parametrize("seed", sorted(TWIN_UNIT_CARVINGS))
def test_twin_units_let_carvings_stop_early(seed):
    graph, seed_sets, limit, params = certificate_case(seed)
    column = TWIN_UNIT_CARVINGS[seed]
    got = extract_subgraphs(graph, seed_sets, limit, params)[column]
    assert got.walk_stop == "certificate"
    assert np.array_equal(got.nodes, single_extract_subgraph(graph, seed_sets[column], limit, params).nodes)
    # the last unit admitted is a twin class, part in and part left out or all in
    twins = graph.twin_classes
    assert np.bincount(twins[got.nodes], minlength=graph.node_count).max() > 1


def test_carvings_record_their_walks():
    graph = build_random_graph(np.random.default_rng(107), 60)
    params = WalkParams()
    carved = extract_subgraphs(graph, [[0], [1, 2]], 12, params)
    for seeds, got in zip([[0], [1, 2]], carved):
        assert isinstance(got.walk_steps, int) and isinstance(got.walk_stop, str)
        assert_walk_record(graph, seeds, 12, params, got)
    budget = extract_subgraph(graph, [0], 12, WalkParams(ppr_max_iters=3))
    assert (budget.walk_steps, budget.walk_stop) == (3, "budget")
    plain = Subgraph(graph, carved[0].nodes)
    assert (plain.walk_steps, plain.walk_stop) == (None, None)


# ----------------------------------------------------------------------
# the convergence test of a walk from propositions
# ----------------------------------------------------------------------


def ppr_changes(graph, rows, params) -> list[float]:
    """The L1 change that ``ppr`` from ``rows`` tests at each step it runs, from a copy of its loop."""
    walk = graph.uniform_transition
    restart = np.zeros(graph.node_count)
    restart[rows] = 1.0 / len(rows)
    dangling = np.asarray(walk.sum(axis=1)).ravel() <= 1e-15
    mt = walk.T.tocsr()
    d = params.damping
    pi, changes = restart.copy(), []
    for _ in range(params.ppr_max_iters):
        nxt = d * (mt @ pi + float(pi[dangling].sum()) * restart) + (1.0 - d) * restart
        changes.append(float(np.abs(nxt - pi).sum()))
        pi = nxt
        if changes[-1] < params.ppr_epsilon:
            break
    assert pi.tobytes() == ppr(walk, rows, params).tobytes()
    return changes


def test_convergence_test_is_skipped_only_where_it_cannot_pass():
    rng = np.random.default_rng(113)
    tight = 0
    for trial in range(10):
        n_props = int(rng.integers(2, 40))
        graph = graph_with_lonely_passages(rng, n_props) if trial % 2 else build_random_graph(rng, n_props)
        rows = seed_rows(graph, random_seed_sets(rng, graph, int(rng.integers(1, 5))))
        for damping in (0.5, 0.85, 0.95):
            for epsilon in (1e-8, 1e-12):
                for budget in (1, 7, 40, 3000):
                    params = WalkParams(damping=damping, ppr_epsilon=epsilon, ppr_max_iters=budget)
                    first = _first_testable_step(graph, params)
                    for seeds in rows:
                        changes = ppr_changes(graph, seeds.tolist(), params)
                        assert all(change >= epsilon for change in changes[: first - 1])
                        tight += len(changes) == first
                    # without a certificate, the block's columns stay ppr's
                    assert_columns_are_ppr(graph, rows, params)
    # the floor is tight: in some walks the first step tested is the one at which ppr stops
    assert tight > 0


def test_carvings_certified_early_sum_no_columns(monkeypatch):
    calls = []
    monkeypatch.setattr(traversal, "_column_sums", lambda block: calls.append(block.shape) or _column_sums(block))
    graph = build_random_graph(np.random.default_rng(127), 200)
    params = WalkParams()
    seed_sets = random_seed_sets(np.random.default_rng(131), graph, 6)
    carved = extract_subgraphs(graph, seed_sets, 40, params)
    assert all(sub.walk_stop == "certificate" for sub in carved)
    assert max(sub.walk_steps for sub in carved) < _first_testable_step(graph, params)
    assert calls == []
    # a walk from any rows still takes the exact test from the first step
    _carving_walks(graph, random_rows(np.random.default_rng(137), graph, 2), params)
    assert calls


def test_threads_carving_one_fresh_graph_match_a_serial_run():
    # each thread carves the seed sets of one case on a graph no carving has touched yet
    def carve(case):
        graph, seed_sets, limit, params = case
        return [sub.nodes.tobytes() for sub in extract_subgraphs(graph, seed_sets, limit, params)]

    serial = carve(certificate_case(4))
    graph, seed_sets, limit, params = certificate_case(4)
    jobs = [(graph, [seeds], limit, params) for seeds in seed_sets] * 4
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(carve, job) for job in jobs]
            threaded = [future.result(timeout=120)[0] for future in futures]
    finally:
        sys.setswitchinterval(previous)
    assert threaded == serial * 4


# ----------------------------------------------------------------------
# the one-sided walk: the newest term stepped alone
# ----------------------------------------------------------------------


def test_side_transitions_are_the_blocks_of_the_transpose():
    rng = np.random.default_rng(149)
    for trial in range(10):
        n_props = int(rng.integers(1, 40))
        graph = graph_with_lonely_passages(rng, n_props) if trial % 2 else build_random_graph(rng, n_props)
        props = graph.proposition_rows
        hubs = np.r_[0 : props.start, props.stop : graph.node_count]
        transposed = graph.transposed_transition
        to_hubs, to_props = graph.side_transitions
        # every entry of the transpose is in one of the blocks, with its very float
        assert to_hubs.nnz + to_props.nnz == transposed.nnz
        for block, rows, columns in ((to_hubs, hubs, props), (to_props, props, hubs)):
            want = transposed[rows][:, columns].tocoo()
            got = block.tocoo()
            assert block.shape == want.shape
            assert sorted(zip(got.row.tolist(), got.col.tolist(), got.data.tolist())) == sorted(
                zip(want.row.tolist(), want.col.tolist(), want.data.tolist())
            )
            for array in (block.data, block.indices, block.indptr):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[:1] = 0


def test_one_sided_carvings_pass_the_oracle_on_certificate_cases():
    # seeds 0-199 of certificate_case: every node set is the single carving's,
    # and every certified step passes the certificate on ppr's own floats
    fallbacks, certified, mixed = 0, 0, 0
    for seed in range(200):
        graph, seed_sets, limit, params = certificate_case(seed)
        carved = extract_subgraphs(graph, seed_sets, limit, params)
        stops = set()
        for seeds, got in zip(seed_sets, carved):
            assert np.array_equal(got.nodes, single_extract_subgraph(graph, seeds, limit, params).nodes), seed
            stops.add(got.walk_stop == "certificate")
            if got.walk_stop == "certificate":
                certified += 1
                assert certificate_holds(graph, seeds, limit, params, got.walk_steps), seed
            else:
                fallbacks += 1
        mixed += len(stops) == 2
    assert certified > 300 and fallbacks > 50 and mixed > 0


def test_uncertified_columns_fall_back_to_the_exact_walk(monkeypatch):
    graph = build_random_graph(np.random.default_rng(151), 120)
    seed_sets = random_seed_sets(np.random.default_rng(157), graph, 4)
    walked = []
    exact_walks = traversal._carving_walks
    monkeypatch.setattr(
        traversal, "_carving_walks", lambda graph, rows, params, *rest: walked.append(len(rows)) or exact_walks(graph, rows, params, *rest)
    )
    cases = [
        # the budget ends before the first check, at step 4
        WalkParams(ppr_max_iters=3),
        # the convergence test can pass from step 9, before the bracket has narrowed enough to check
        WalkParams(ppr_epsilon=0.5),
    ]
    for params in cases:
        assert _first_testable_step(graph, params) <= 9 or params.ppr_max_iters < 4
        walked.clear()
        carved = extract_subgraphs(graph, seed_sets, 30, params)
        assert walked == [len(seed_sets)]
        for seeds, got in zip(seed_sets, carved):
            assert got.walk_stop != "certificate"
            assert np.array_equal(got.nodes, single_extract_subgraph(graph, seeds, 30, params).nodes)
            # the steps and stop of ppr itself
            assert_walk_record(graph, seeds, 30, params, got)
    assert [sub.walk_stop for sub in carved] == ["convergence"] * len(seed_sets)


def test_one_sided_brackets_are_within_their_spread_of_exact(monkeypatch):
    # b and w of every check of the one-sided walk against the walk in exact rationals
    u = Fraction(1, 2**53)
    certify = traversal._Admission.certify
    checks = []

    def spy(self, columns, widths, candidates, bracket, spread=0.0):
        if spread:
            step = int(self.steps[columns[0]])
            checks.append((step, columns.tolist(), widths.tolist(), [bracket(k)[1] for k in range(len(columns))], spread, self.one_sided_margin))
        return certify(self, columns, widths, candidates, bracket, spread)

    monkeypatch.setattr(traversal._Admission, "certify", spy)
    rng = np.random.default_rng(163)
    compared = 0
    for family in (build_random_graph, graph_with_hub, graph_with_lonely_passages):
        graph = family(rng, 24)
        params = WalkParams(damping=0.9)
        seed_sets = random_seed_sets(rng, graph, 2)
        checks.clear()
        extract_subgraphs(graph, seed_sets, 10, params)
        walk = graph.uniform_transition
        degree = [int(k) for k in graph.global_degrees]
        props = range(graph.proposition_rows.start, graph.proposition_rows.stop)
        d = Fraction(params.damping)
        for column, rows in enumerate(seed_rows(graph, seed_sets)):
            mine = [check for check in checks if column in check[1]]
            if not mine:
                continue
            x = [Fraction(0)] * graph.node_count
            for r in rows.tolist():
                x[r] = Fraction(1, len(rows))
            b = [Fraction(0)] * graph.node_count
            for step in range(1, mine[-1][0] + 1):
                b = [bi + (1 - d) * d ** (step - 1) * xi for bi, xi in zip(b, x)]
                x = [sum((x[j] / degree[j] for j in walk.indices[walk.indptr[i] : walk.indptr[i + 1]].tolist()), Fraction(0)) for i in range(graph.node_count)]
                for at, columns, widths, lows, spread, margin in mine:
                    if at != step:
                        continue
                    k = columns.index(column)
                    low = lows[k]
                    assert all(abs(Fraction(low[i]) - b[i]) <= Fraction(spread) * b[i] for i in range(graph.node_count))
                    w = d**step * max(x[i] / degree[i] for i in props)
                    assert Fraction(widths[k]) >= (w + Fraction(margin)) * (1 - 2 * u)
                    compared += 1
    assert compared >= 6
