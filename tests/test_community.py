import random
from collections import defaultdict
from typing import Hashable

import networkx as nx
import numpy as np
import pytest

from propgraph.community import _aggregate, _local_move, _refine, _WorkGraph, leiden_levels
from propgraph.global_mode import Community, detect_communities

from conftest import build_random_graph, edges, leiden_on_networkx, node_at, node_order


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
# oracle: the networkx-fed input path that the CSR input replaced
# ----------------------------------------------------------------------


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


def reference_leiden_levels(graph: nx.Graph, resolution=1.0, seed=0, max_levels=64) -> list[list[set]]:
    if graph.number_of_nodes() == 0:
        return []
    work, nodes = _from_networkx(graph)
    node_sets = [{node} for node in nodes]
    if work.two_m == 0.0:
        return [[set(s) for s in node_sets]]
    rng = random.Random(seed)
    init = list(range(work.n))
    levels: list[list[set]] = []
    for _ in range(max_levels):
        membership = _local_move(work, init, resolution, rng)
        partition: dict[int, set] = defaultdict(set)
        for v in range(work.n):
            partition[membership[v]] |= node_sets[v]
        levels.append([partition[c] for c in sorted(partition)])
        if len(partition) == work.n:
            break
        refined = _refine(work, membership, resolution, rng)
        if len(set(refined)) == work.n:
            break
        work, node_sets, init = _aggregate(work, refined, membership, node_sets)
    return levels


def reference_detect_communities(graph, min_size, max_size, seed, resolution) -> list[Community]:
    """The size-filtered blocks of the networkx reference, as global indices."""
    nxg = nx.Graph()
    nxg.add_nodes_from(node_order(graph))
    nxg.add_edges_from(edges(graph))
    communities: list[Community] = []
    seen: set = set()
    for partition in reference_leiden_levels(nxg, resolution=resolution, seed=seed):
        for nodes in sorted(partition, key=min):
            block = frozenset(nodes)
            if block in seen:
                continue
            seen.add(block)
            if min_size <= len(block) <= max_size:
                communities.append(Community(len(communities), frozenset(map(graph.global_index, block))))
    return communities


def assert_matches_reference(graph, seed=0, resolution=1.0):
    nxg = nx.Graph()
    nxg.add_nodes_from(node_order(graph))
    nxg.add_edges_from(edges(graph))
    walk = graph.uniform_transition
    unit = walk.copy()
    unit.data = np.ones(walk.nnz)
    got = [
        [{node_at(graph, i) for i in block} for block in part]
        for part in leiden_levels(unit, resolution=resolution, seed=seed)
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
