import gc
import random
import tracemalloc
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Hashable

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from propgraph import community
from propgraph.community import leiden_levels
from propgraph.global_mode import Community, detect_communities

from propgraph.graph import HeteroGraph

from conftest import build_random_graph, edges, leiden_on_networkx, node_at, node_order, partition, random_unit


def two_cliques(size=20):
    graph = nx.Graph()
    left = [f"L{i}" for i in range(size)]
    right = [f"R{i}" for i in range(size)]
    for block in (left, right):
        for i in range(size):
            for j in range(i + 1, size):
                graph.add_edge(block[i], block[j])
    graph.add_edge(left[0], right[0])
    return graph, set(left), set(right)


def test_two_cliques_recovered_exactly_at_some_level():
    graph, left, right = two_cliques()
    levels = leiden_on_networkx(graph, seed=0)
    assert any(sorted(map(frozenset, part)) == sorted([frozenset(left), frozenset(right)]) for part in levels)


def test_every_level_partitions_the_graph():
    graph, _, _ = two_cliques(8)
    for partition in leiden_on_networkx(graph, seed=0):
        nodes = [n for block in partition for n in block]
        assert sorted(nodes) == sorted(graph.nodes())
        assert len(nodes) == len(set(nodes))


def test_partition_beats_trivial_modularity():
    graph, _, _ = two_cliques()
    top = leiden_on_networkx(graph, seed=0)[-1]
    trivial = [set(graph.nodes())]
    assert nx.algorithms.community.modularity(graph, top) >= nx.algorithms.community.modularity(graph, trivial)
    # independent oracle: networkx's own modularity agrees the split is strong
    assert nx.algorithms.community.modularity(graph, top) > 0.4


def test_ring_of_cliques_sane():
    graph = nx.ring_of_cliques(6, 5)
    levels = leiden_on_networkx(graph, seed=0)
    finest = levels[0]
    assert 2 <= len(finest) <= 12
    assert nx.algorithms.community.modularity(graph, finest) > 0.5


def test_deterministic_for_fixed_seed():
    graph = nx.gnp_random_graph(60, 0.08, seed=42)
    first = leiden_on_networkx(graph, seed=0)
    second = leiden_on_networkx(graph, seed=0)
    assert [sorted(map(frozenset, p)) for p in first] == [sorted(map(frozenset, p)) for p in second]


def test_empty_and_edgeless_graphs():
    assert leiden_on_networkx(nx.Graph()) == []
    lonely = nx.Graph()
    lonely.add_nodes_from([1, 2, 3])
    levels = leiden_on_networkx(lonely)
    assert levels == [[{1}, {2}, {3}]]


def test_communities_are_internally_connected():
    # the refinement step must prevent internally disconnected communities
    graph = nx.gnp_random_graph(80, 0.06, seed=7)
    for partition in leiden_on_networkx(graph, seed=0):
        for block in partition:
            if len(block) > 1:
                assert nx.is_connected(graph.subgraph(block))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_edges_respected(seed):
    graph = nx.Graph()
    # two triangles tied by a heavy edge; heavy weights pull nodes together
    graph.add_weighted_edges_from(
        [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 5.0), (3, 4, 5.0), (4, 5, 5.0), (3, 5, 5.0), (2, 3, 0.1)]
    )
    finest = leiden_on_networkx(graph, seed=seed)[0]
    assert sorted(map(frozenset, finest)) == sorted([frozenset({0, 1, 2}), frozenset({3, 4, 5})])


# ----------------------------------------------------------------------
# oracle: the dict-based Leiden that the flat arrays replaced, fed from CSR
# or from networkx; every level of ``leiden_levels`` must equal its levels
# ----------------------------------------------------------------------

_GAIN_TOL = 1e-12


@dataclass
class _WorkGraph:
    n: int
    adj: list[dict[int, float]]
    self_loop: list[float]
    deg: list[float]
    two_m: float


def _from_csr(adjacency: sp.spmatrix) -> _WorkGraph:
    csr = sp.csr_matrix(adjacency, dtype=np.float64, copy=True)
    csr.sum_duplicates()
    indptr, indices, data = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    n = csr.shape[0]
    adj: list[dict[int, float]] = []
    self_loop = [0.0] * n
    for v in range(n):
        row = dict(zip(indices[indptr[v] : indptr[v + 1]], data[indptr[v] : indptr[v + 1]]))
        self_loop[v] = row.pop(v, 0.0)
        adj.append(row)
    deg = [sum(adj[v].values()) + 2.0 * self_loop[v] for v in range(n)]
    return _WorkGraph(n, adj, self_loop, deg, sum(deg))


def _from_networkx(graph: nx.Graph) -> tuple[_WorkGraph, list[Hashable]]:
    nodes = sorted(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    self_loop = [0.0] * n
    for u, v, data in graph.edges(data=True):
        w = float(data.get("weight", 1.0))
        iu, iv = index[u], index[v]
        if iu == iv:
            self_loop[iu] += w
        else:
            adj[iu][iv] = adj[iu].get(iv, 0.0) + w
            adj[iv][iu] = adj[iv].get(iu, 0.0) + w
    deg = [sum(adj[v].values()) + 2.0 * self_loop[v] for v in range(n)]
    return _WorkGraph(n, adj, self_loop, deg, sum(deg)), nodes


def _local_move(work: _WorkGraph, init: list[int], resolution: float, rng: random.Random) -> list[int]:
    membership = list(init)
    comm_tot: dict[int, float] = defaultdict(float)
    for v in range(work.n):
        comm_tot[membership[v]] += work.deg[v]
    order = list(range(work.n))
    rng.shuffle(order)
    queue = deque(order)
    queued = [True] * work.n
    while queue:
        v = queue.popleft()
        queued[v] = False
        current = membership[v]
        weight_to: dict[int, float] = defaultdict(float)
        for u, w in work.adj[v].items():
            weight_to[membership[u]] += w
        comm_tot[current] -= work.deg[v]
        best = current
        best_gain = weight_to.get(current, 0.0) - resolution * work.deg[v] * comm_tot[current] / work.two_m
        for comm in sorted(weight_to):
            if comm == current:
                continue
            gain = weight_to[comm] - resolution * work.deg[v] * comm_tot[comm] / work.two_m
            if gain > best_gain + _GAIN_TOL:
                best_gain = gain
                best = comm
        comm_tot[best] += work.deg[v]
        if best != current:
            membership[v] = best
            for u in work.adj[v]:
                if membership[u] != best and not queued[u]:
                    queue.append(u)
                    queued[u] = True
    return membership


def _refine(work: _WorkGraph, membership: list[int], resolution: float, rng: random.Random) -> list[int]:
    refined = list(range(work.n))
    ref_tot = list(work.deg)
    ref_size = [1] * work.n
    groups: dict[int, list[int]] = defaultdict(list)
    for v in range(work.n):
        groups[membership[v]].append(v)
    for comm in sorted(groups):
        nodes = groups[comm]
        if len(nodes) < 2:
            continue
        sub_tot = sum(work.deg[v] for v in nodes)
        order = nodes[:]
        rng.shuffle(order)
        for v in order:
            if ref_size[refined[v]] > 1:
                continue
            weight_in = sum(w for u, w in work.adj[v].items() if membership[u] == comm)
            if weight_in < resolution * work.deg[v] * (sub_tot - work.deg[v]) / work.two_m:
                continue
            weight_to: dict[int, float] = defaultdict(float)
            for u, w in work.adj[v].items():
                if membership[u] == comm:
                    weight_to[refined[u]] += w
            best = refined[v]
            best_gain = 0.0
            for target in sorted(weight_to):
                if target == refined[v]:
                    continue
                gain = weight_to[target] - resolution * work.deg[v] * ref_tot[target] / work.two_m
                if gain > best_gain + _GAIN_TOL:
                    best_gain = gain
                    best = target
            if best != refined[v]:
                ref_tot[best] += work.deg[v]
                ref_tot[refined[v]] -= work.deg[v]
                ref_size[best] += 1
                ref_size[refined[v]] -= 1
                refined[v] = best
    return refined


def _aggregate(
    work: _WorkGraph, refined: list[int], membership: list[int], node_sets: list[set]
) -> tuple[_WorkGraph, list[set], list[int]]:
    comm_ids = sorted(set(refined))
    dense = {c: i for i, c in enumerate(comm_ids)}
    n = len(comm_ids)
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    self_loop = [0.0] * n
    new_sets: list[set] = [set() for _ in range(n)]
    parent = [0] * n
    parent_ids = sorted(set(membership))
    parent_dense = {c: i for i, c in enumerate(parent_ids)}
    for v in range(work.n):
        c = dense[refined[v]]
        new_sets[c] |= node_sets[v]
        self_loop[c] += work.self_loop[v]
        parent[c] = parent_dense[membership[v]]
    for v in range(work.n):
        cv = dense[refined[v]]
        for u, w in work.adj[v].items():
            if u < v:
                continue
            cu = dense[refined[u]]
            if cu == cv:
                self_loop[cv] += w
            else:
                adj[cv][cu] = adj[cv].get(cu, 0.0) + w
                adj[cu][cv] = adj[cu].get(cv, 0.0) + w
    deg = [sum(adj[v].values()) + 2.0 * self_loop[v] for v in range(n)]
    return _WorkGraph(n, adj, self_loop, deg, work.two_m), new_sets, parent


def _reference_levels(work: _WorkGraph, nodes: list, resolution: float, seed: int, max_levels=64) -> list[list[set]]:
    if work.n == 0:
        return []
    node_sets = [{node} for node in nodes]
    if work.two_m == 0.0:
        return [[set(s) for s in node_sets]]
    rng = random.Random(seed)
    init = list(range(work.n))
    levels: list[list[set]] = []
    for _ in range(max_levels):
        membership = _local_move(work, init, resolution, rng)
        part: dict[int, set] = defaultdict(set)
        for v in range(work.n):
            part[membership[v]] |= node_sets[v]
        levels.append([part[c] for c in sorted(part)])
        if len(part) == work.n:
            break
        refined = _refine(work, membership, resolution, rng)
        if len(set(refined)) == work.n:
            break
        work, node_sets, init = _aggregate(work, refined, membership, node_sets)
    return levels


def reference_leiden_levels(graph: nx.Graph, resolution=1.0, seed=0) -> list[list[set]]:
    work, nodes = _from_networkx(graph)
    return _reference_levels(work, nodes, resolution, seed)


def reference_csr_levels(adjacency: sp.spmatrix, resolution=1.0, seed=0) -> list[list[set[int]]]:
    return _reference_levels(_from_csr(adjacency), list(range(adjacency.shape[0])), resolution, seed)


def reference_detect_communities(graph, min_size, max_size, seed, resolution) -> list[Community]:
    """The size-filtered blocks of the reference over the walk matrix's pattern, as global indices."""
    walk = graph.uniform_transition
    adjacency = sp.csr_matrix((np.ones(walk.nnz), walk.indices, walk.indptr), shape=walk.shape)
    communities: list[Community] = []
    seen: set = set()
    for part in reference_csr_levels(adjacency, resolution=resolution, seed=seed):
        for nodes in sorted(part, key=min):
            block = frozenset(nodes)
            if block in seen:
                continue
            seen.add(block)
            if min_size <= len(block) <= max_size:
                communities.append(Community(len(communities), block))
    return communities


def assert_matches_reference(graph, seed=0, resolution=1.0):
    nxg = nx.Graph()
    nxg.add_nodes_from(node_order(graph))
    nxg.add_edges_from(edges(graph))
    walk = graph.uniform_transition
    unit = walk.copy()
    unit.data = np.ones(walk.nnz)
    got = [
        [{node_at(graph, i) for i in block} for block in partition(labels)]
        for labels in leiden_levels(unit, resolution=resolution, seed=seed)
    ]
    assert got == reference_leiden_levels(nxg, resolution=resolution, seed=seed)
    for min_size, max_size in ((1, 10**6), (3, 12)):
        assert list(detect_communities(graph, min_size, max_size, seed, resolution)) == reference_detect_communities(
            graph, min_size, max_size, seed, resolution
        )


def test_csr_leiden_matches_networkx_reference_on_c10_graph(two_hop_graph):
    for seed in (0, 1, 2):
        assert_matches_reference(two_hop_graph, seed=seed)


def test_csr_leiden_matches_networkx_reference_on_random_graphs():
    rng = np.random.default_rng(61)
    for _ in range(12):
        graph = build_random_graph(rng, int(rng.integers(2, 200)))
        assert_matches_reference(graph, seed=int(rng.integers(0, 100)), resolution=float(rng.choice([0.5, 1.0, 2.0])))


def random_symmetric(rng: np.random.Generator, n: int) -> sp.csr_matrix:
    """A symmetric CSR matrix as a caller may pass it: random float weights, self loops, explicit
    zeros, and duplicate entries in unsorted rows. No entry repeats more than twice, so each pair
    of mirrored entries sums to the same float."""
    ends = np.unique(np.sort(rng.integers(0, n, size=(int(rng.integers(0, 4 * n + 1)), 2)), axis=1), axis=0)
    weights = rng.random(len(ends)) * 3
    weights[rng.random(len(ends)) < 0.1] = 0.0
    again = rng.random(len(ends)) < 0.2  # listed a second time, with a weight of its own
    ends, weights = np.concatenate((ends, ends[again])), np.concatenate((weights, rng.random(again.sum())))
    mirrored = ends[:, 0] != ends[:, 1]
    rows = np.concatenate((ends[:, 0], ends[mirrored, 1]))
    cols = np.concatenate((ends[:, 1], ends[mirrored, 0]))
    data = np.concatenate((weights, weights[mirrored]))
    order = rng.permutation(len(rows))
    order = order[np.argsort(rows[order], kind="stable")]  # rows in turn, columns shuffled
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))


@pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
def test_every_level_matches_the_dict_reference_on_weighted_matrices(resolution):
    rng = np.random.default_rng(int(resolution * 100))
    for trial in range(30):
        adjacency = random_symmetric(rng, int(rng.integers(1, 120)))
        assert (adjacency != adjacency.T).nnz == 0
        for seed in (0, trial + 1):
            got = [partition(labels) for labels in leiden_levels(adjacency, resolution=resolution, seed=seed)]
            assert got == reference_csr_levels(adjacency, resolution=resolution, seed=seed), (trial, seed)


def _rows(level) -> list[list[tuple[int, float]]]:
    spans = [slice(level.indptr[v], level.indptr[v + 1]) for v in range(len(level.deg))]
    return [list(zip(level.indices[span], level.weights[span])) for span in spans]


@pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
def test_each_step_matches_the_dict_reference_float_for_float(resolution):
    # the partitions rarely show a sum taken in another order; the level
    # graphs (row order, weights, self loops, degrees) show every one
    rng = np.random.default_rng(int(resolution * 100) + 1)
    for trial in range(30):
        adjacency = random_symmetric(rng, int(rng.integers(1, 120)))
        level, work = community._from_csr(adjacency), _from_csr(adjacency)
        init, node_sets = list(range(work.n)), [{v} for v in range(work.n)]
        draws, reference_draws = random.Random(trial), random.Random(trial)
        while True:
            assert _rows(level) == [list(row.items()) for row in work.adj]
            assert (list(level.self_loop), list(level.deg), level.two_m) == (work.self_loop, work.deg, work.two_m)
            if work.two_m == 0.0:
                break
            membership = community._local_move(level, init, resolution, draws)
            assert membership == _local_move(work, init, resolution, reference_draws)
            refined = community._refine(level, membership, resolution, draws)
            assert refined == _refine(work, membership, resolution, reference_draws)
            if len(set(membership)) == work.n or len(set(refined)) == work.n:
                break
            dense, label = (np.unique(ids, return_inverse=True)[1] for ids in (refined, membership))
            level, init = community._aggregate(level, dense, label)
            work, node_sets, reference_init = _aggregate(work, refined, membership, node_sets)
            assert init == reference_init


def test_leiden_sums_and_sorts_a_copy_of_a_non_canonical_matrix():
    rng = np.random.default_rng(13)
    canonical = random_symmetric(rng, 60)
    # every row reversed and every entry split into two halves, which add up exactly
    spans = [slice(lo, hi) for lo, hi in zip(canonical.indptr[:-1], canonical.indptr[1:])]
    indices = np.concatenate([np.repeat(canonical.indices[span][::-1], 2) for span in spans])
    data = np.concatenate([np.repeat(canonical.data[span][::-1] / 2, 2) for span in spans])
    messy = sp.csr_matrix((data, indices, 2 * canonical.indptr), shape=canonical.shape)
    assert not messy.has_canonical_format
    before = [array.tobytes() for array in (messy.data, messy.indices, messy.indptr)]
    for seed in (0, 5):
        got = leiden_levels(messy, seed=seed)
        assert [array.tobytes() for array in (messy.data, messy.indices, messy.indptr)] == before
        assert [labels.tolist() for labels in got] == [labels.tolist() for labels in leiden_levels(canonical, seed=seed)]


def test_levels_are_one_label_per_node_ranked_by_community():
    assert leiden_levels(sp.csr_matrix((0, 0))) == []
    zero = sp.csr_matrix((np.zeros(2), [1, 0], [0, 1, 2, 2]), shape=(3, 3))  # explicit zeros only: no edge weight
    (only,) = leiden_levels(zero)
    assert only.tolist() == [0, 1, 2]
    graph, _, _ = two_cliques(6)
    for labels in leiden_levels(nx.to_scipy_sparse_array(graph, nodelist=sorted(graph))):
        assert labels.shape == (graph.number_of_nodes(),)
        assert sorted(set(labels.tolist())) == list(range(int(labels.max()) + 1))


def test_detect_communities_matches_the_reference_on_the_bench_graph(bench_graph):
    assert bench_graph.node_count == 12532
    got = detect_communities(bench_graph, 10, 150, 0, 1.0)
    assert len(got) > 400
    assert list(got) == reference_detect_communities(bench_graph, 10, 150, 0, 1.0)


def _traced_peak_over_retained(run) -> tuple[int, int]:
    """``run()``'s traced peak above what its result retains, and that retained size."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()  # held until the measurement below
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result
    return peak - retained, retained


def test_detection_peak_is_what_the_communities_keep_plus_a_slack():
    # Flat levels hold an int64 column and a float64 weight per entry of the
    # walk matrix, and aggregation a few int64 temporaries per entry: under
    # 100 bytes per entry at the peak. A dict per node with a float object per
    # entry, a set per node and every level's sets take over 300.
    rng = np.random.default_rng(3)
    graph = HeteroGraph()
    passages = [graph.add_passage(f"passage {i}", "d", (0, 1)) for i in range(1300)]
    entities = [graph.add_entity(f"entity {i}", random_unit(rng, 4)) for i in range(1300)]
    for i in range(2600):
        refs = [entities[int(j)] for j in rng.choice(1300, size=int(rng.integers(1, 3)), replace=False)]
        graph.add_proposition(f"fact {i}", passages[int(rng.integers(1300))], refs, random_unit(rng, 4))
    graph.finalize()
    assert graph.node_count >= 5000
    slack = 150 * graph.uniform_transition.nnz
    detect_communities(graph, 10, 150, 0, 1.0)  # first-call caches are not the detection's
    over, _ = _traced_peak_over_retained(lambda: detect_communities(graph, 10, 150, 0, 1.0))
    assert over < slack, (over, slack)
    reference, _ = _traced_peak_over_retained(lambda: reference_detect_communities(graph, 10, 150, 0, 1.0))
    assert reference > slack, (reference, slack)
