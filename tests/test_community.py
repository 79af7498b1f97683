import networkx as nx
import pytest

from propgraph.community import leiden_levels


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
    levels = leiden_levels(graph, seed=0)
    assert any(sorted(map(frozenset, part)) == sorted([frozenset(left), frozenset(right)]) for part in levels)


def test_every_level_partitions_the_graph():
    graph, _, _ = two_cliques(8)
    for partition in leiden_levels(graph, seed=0):
        nodes = [n for block in partition for n in block]
        assert sorted(nodes) == sorted(graph.nodes())
        assert len(nodes) == len(set(nodes))


def test_partition_beats_trivial_modularity():
    graph, _, _ = two_cliques()
    top = leiden_levels(graph, seed=0)[-1]
    trivial = [set(graph.nodes())]
    assert nx.algorithms.community.modularity(graph, top) >= nx.algorithms.community.modularity(graph, trivial)
    # independent oracle: networkx's own modularity agrees the split is strong
    assert nx.algorithms.community.modularity(graph, top) > 0.4


def test_ring_of_cliques_sane():
    graph = nx.ring_of_cliques(6, 5)
    levels = leiden_levels(graph, seed=0)
    finest = levels[0]
    assert 2 <= len(finest) <= 12
    assert nx.algorithms.community.modularity(graph, finest) > 0.5


def test_deterministic_for_fixed_seed():
    graph = nx.gnp_random_graph(60, 0.08, seed=42)
    first = leiden_levels(graph, seed=0)
    second = leiden_levels(graph, seed=0)
    assert [sorted(map(frozenset, p)) for p in first] == [sorted(map(frozenset, p)) for p in second]


def test_empty_and_edgeless_graphs():
    assert leiden_levels(nx.Graph()) == []
    lonely = nx.Graph()
    lonely.add_nodes_from([1, 2, 3])
    levels = leiden_levels(lonely)
    assert levels == [[{1}, {2}, {3}]]


def test_communities_are_internally_connected():
    # the refinement step must prevent internally disconnected communities
    graph = nx.gnp_random_graph(80, 0.06, seed=7)
    for partition in leiden_levels(graph, seed=0):
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
    finest = leiden_levels(graph, seed=seed)[0]
    assert sorted(map(frozenset, finest)) == sorted([frozenset({0, 1, 2}), frozenset({3, 4, 5})])
