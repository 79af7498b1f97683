"""Shared fixtures: deterministic backends, random graphs, planted corpora."""

from __future__ import annotations

from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from propgraph.community import leiden_levels
from propgraph.encoding import NORM_TOL, HashedNgramEmbedder, normalize
from propgraph.graph import HeteroGraph, NodeId, NodeKind
from propgraph.indexing import CorpusDocument, index_corpus
from propgraph.llm import LLMGateway, MockChatBackend, MockRule

BENCH = Path(__file__).resolve().parent.parent / "bench"


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalize(rng.normal(size=dim))


def assert_graph_invariants(graph: HeteroGraph) -> None:
    """The invariants ``finalize`` checks: every ref resolves, none repeats, one unit vector per node."""
    for i, prop in enumerate(graph.propositions):
        refs = prop.entity_refs
        assert 0 <= prop.passage < len(graph.passages), i
        assert all(0 <= e < len(graph.entities) for e in refs), i
        assert len(set(refs)) == len(refs), i
    for matrix, records in ((graph.proposition_embeddings, graph.propositions), (graph.entity_embeddings, graph.entities)):
        assert matrix.shape == (len(records), graph.embedding_dim)
        assert (np.abs(np.linalg.norm(matrix.astype(np.float64), axis=1) - 1.0) <= NORM_TOL).all()


def partition(labels: np.ndarray) -> list[set[int]]:
    """One level of ``leiden_levels`` as its blocks: the nodes of each label, in label order."""
    blocks: list[set[int]] = [set() for _ in range(int(labels.max()) + 1)]
    for node, label in enumerate(labels.tolist()):
        blocks[label].add(node)
    return blocks


def leiden_on_networkx(graph: nx.Graph, **kwargs) -> list[list[set]]:
    """``leiden_levels`` over a networkx graph, as each level's blocks of node labels.

    Nodes take indices in sorted order; edge weights default to 1.
    """
    nodes = sorted(graph)
    adjacency = nx.to_scipy_sparse_array(graph, nodelist=nodes) if nodes else sp.csr_matrix((0, 0))
    return [[{nodes[i] for i in block} for block in partition(labels)] for labels in leiden_levels(adjacency, **kwargs)]


def node_at(graph: HeteroGraph, i: int) -> NodeId:
    """The node at global index ``i``: passages, then propositions, then entities."""
    for kind, records in ((NodeKind.PASSAGE, graph.passages), (NodeKind.PROPOSITION, graph.propositions)):
        if i < len(records):
            return NodeId(kind, i)
        i -= len(records)
    return NodeId(NodeKind.ENTITY, i)


def node_order(graph: HeteroGraph) -> list[NodeId]:
    """Every node of ``graph``, in the global order."""
    return [node_at(graph, i) for i in range(graph.node_count)]


def neighbors(graph: HeteroGraph, node: NodeId) -> list[NodeId]:
    """``node``'s neighbours in a finalized graph, in global order, read from its walk matrix."""
    walk, i = graph.uniform_transition, graph.global_index(node)
    return [node_at(graph, j) for j in walk.indices[walk.indptr[i] : walk.indptr[i + 1]].tolist()]


def degree(graph: HeteroGraph, node: NodeId) -> int:
    return len(neighbors(graph, node))


def edges(graph: HeteroGraph) -> list[tuple[NodeId, NodeId]]:
    """Each edge of a finalized graph once, as (a, b) with a before b in the global order, ascending."""
    return [(a, b) for a in node_order(graph) for b in neighbors(graph, a) if a < b]


def build_random_graph(rng: np.random.Generator, n_props: int, dim: int = 8) -> HeteroGraph:
    """Random API-built graph: each proposition links one passage and 0-3 entities."""
    graph = HeteroGraph()
    n_passages = int(rng.integers(1, max(2, n_props // 2 + 2)))
    passages = [
        graph.add_passage(f"passage number {i}", f"doc{i}", (0, 10)) for i in range(n_passages)
    ]
    n_entities = int(rng.integers(1, n_props + 2))
    entities = [
        graph.add_entity(f"entity number {i}", random_unit(rng, dim)) for i in range(n_entities)
    ]
    for i in range(n_props):
        n_refs = int(rng.integers(0, min(3, n_entities) + 1))
        refs = [entities[int(j)] for j in rng.choice(n_entities, size=n_refs, replace=False)]
        graph.add_proposition(
            f"proposition number {i}",
            passages[int(rng.integers(0, n_passages))],
            refs,
            random_unit(rng, dim),
        )
    return graph.finalize()


def extraction_rules(passages: list[tuple[str, list[str], list[tuple[str, list[str]]]]]) -> list[MockRule]:
    """Scripted NER/extraction responses keyed on the full passage text."""
    rules: list[MockRule] = []
    for text, entities, props in passages:
        ner = "\n".join(f"{i + 1}. {e}" for i, e in enumerate(entities)) or "NONE"
        rules.append(MockRule(template="NER", contains=text, response=ner))
        lines = []
        for i, (ptext, refs) in enumerate(props):
            tail = f" | {'; '.join(refs)}" if refs else ""
            lines.append(f"{i + 1}. {ptext}{tail}")
        rules.append(MockRule(template="Propositions", contains=text, response="\n".join(lines) or "NONE"))
    return rules


@pytest.fixture
def embedder() -> HashedNgramEmbedder:
    return HashedNgramEmbedder()


@pytest.fixture(scope="session")
def bench_graph() -> HeteroGraph:
    """The benchmark's seed-7 graph (12,532 nodes), indexed as ``bench/run.py`` indexes it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        from corpus import generate, scripted_backend
        from workloads import CORPUS

    corpus = generate(CORPUS, 7)
    docs = [CorpusDocument(f"doc{i}", text) for i, text in enumerate(corpus.texts())]
    return index_corpus(docs, LLMGateway(scripted_backend(corpus.chains)), HashedNgramEmbedder(CORPUS.dim))


# ----------------------------------------------------------------------
# three-passage corpus with hand-counted structure: 3 passages,
# 5 propositions, 4 entities, 14 edges (5 passage + 9 entity edges)
# ----------------------------------------------------------------------

NILE_PASSAGES = [
    (
        "The Nile flows through Egypt. The Nile ends in a delta.",
        ["Nile", "Egypt"],
        [
            ("The Nile flows through Egypt.", ["Nile", "Egypt"]),
            ("The Nile ends in a delta.", ["Nile"]),
        ],
    ),
    (
        "Cairo is the capital of Egypt.",
        ["Cairo", "Egypt"],
        [("Cairo is the capital of Egypt.", ["Cairo", "Egypt"])],
    ),
    (
        "The Aswan Dam sits on the Nile. Egypt built the Aswan Dam.",
        ["Aswan Dam", "Nile", "Egypt"],
        [
            ("The Aswan Dam sits on the Nile.", ["Aswan Dam", "Nile"]),
            ("Egypt built the Aswan Dam.", ["Egypt", "Aswan Dam"]),
        ],
    ),
]

NILE_COUNTS = {"passages": 3, "propositions": 5, "entities": 4, "edges": 14}


@pytest.fixture
def nile_corpus() -> list[CorpusDocument]:
    return [CorpusDocument(f"doc{i}", text) for i, (text, _, _) in enumerate(NILE_PASSAGES)]


@pytest.fixture
def nile_gateway() -> LLMGateway:
    return LLMGateway(MockChatBackend(extraction_rules(NILE_PASSAGES)))


@pytest.fixture
def nile_graph(nile_corpus, nile_gateway, embedder) -> HeteroGraph:
    return index_corpus(nile_corpus, nile_gateway, embedder)


# ----------------------------------------------------------------------
# two-hop corpus: the answer needs a bridge entity (Ulm) connecting a
# heavily-retrieved fact cluster to a lexically distant fact
# ----------------------------------------------------------------------

TWO_HOP_QUESTION = "In which country is the city where Albert Einstein was born?"
TWO_HOP_GOLD = "Germany"
TWO_HOP_HOP1 = 0  # proposition id of the birth fact
TWO_HOP_HOP2 = 1  # proposition id of the bridging country fact

TWO_HOP_PASSAGES = [
    (
        "Albert Einstein was born in the city of Ulm.",
        ["Albert Einstein", "Ulm"],
        [("Albert Einstein was born in the city of Ulm.", ["Albert Einstein", "Ulm"])],
    ),
    (
        "Ulm is a city in Germany.",
        ["Ulm", "Germany"],
        [("Ulm is a city in Germany.", ["Ulm", "Germany"])],
    ),
    (
        "Albert Einstein developed the theory of relativity.",
        ["Albert Einstein"],
        [("Albert Einstein developed the theory of relativity.", ["Albert Einstein"])],
    ),
    (
        "Albert Einstein received the Nobel Prize in Physics.",
        ["Albert Einstein", "Nobel Prize"],
        [("Albert Einstein received the Nobel Prize in Physics.", ["Albert Einstein", "Nobel Prize"])],
    ),
    (
        "Albert Einstein worked at the patent office in Bern.",
        ["Albert Einstein", "Bern"],
        [("Albert Einstein worked at the patent office in Bern.", ["Albert Einstein", "Bern"])],
    ),
    (
        "Albert Einstein joined the Institute for Advanced Study.",
        ["Albert Einstein", "Institute for Advanced Study"],
        [("Albert Einstein joined the Institute for Advanced Study.", ["Albert Einstein", "Institute for Advanced Study"])],
    ),
    (
        "Albert Einstein played the violin in his spare time.",
        ["Albert Einstein"],
        [("Albert Einstein played the violin in his spare time.", ["Albert Einstein"])],
    ),
    (
        "Marie Curie discovered radium in Paris.",
        ["Marie Curie", "Paris"],
        [("Marie Curie discovered radium in Paris.", ["Marie Curie", "Paris"])],
    ),
    (
        "The Amazon River flows through Brazil.",
        ["Amazon River", "Brazil"],
        [("The Amazon River flows through Brazil.", ["Amazon River", "Brazil"])],
    ),
    (
        "Honey bees communicate by dancing.",
        [],
        [("Honey bees communicate by dancing.", [])],
    ),
    (
        "The Pacific Ocean is the largest ocean on Earth.",
        ["Pacific Ocean", "Earth"],
        [("The Pacific Ocean is the largest ocean on Earth.", ["Pacific Ocean", "Earth"])],
    ),
    (
        "Mount Everest is the highest mountain in the world.",
        ["Mount Everest"],
        [("Mount Everest is the highest mountain in the world.", ["Mount Everest"])],
    ),
]


def two_hop_rules() -> list[MockRule]:
    rules = extraction_rules(TWO_HOP_PASSAGES)
    rules.append(
        MockRule(
            template="Eval",
            contains="Ulm is a city in Germany.",
            response=f"SUFFICIENT: {TWO_HOP_GOLD}",
        )
    )
    return rules


@pytest.fixture
def two_hop_gateway() -> LLMGateway:
    return LLMGateway(MockChatBackend(two_hop_rules()))


@pytest.fixture
def two_hop_graph(two_hop_gateway, embedder) -> HeteroGraph:
    docs = [CorpusDocument(f"doc{i}", text) for i, (text, _, _) in enumerate(TWO_HOP_PASSAGES)]
    graph = index_corpus(docs, two_hop_gateway, embedder)
    assert len(graph.propositions) == len(TWO_HOP_PASSAGES)
    return graph
