import hashlib
import sys

import numpy as np
import pytest

from propgraph.config import RunConfig
from propgraph.encoding import HashedNgramEmbedder, cosine, normalize
from propgraph.errors import BackendUnavailable, ConfigError, DimensionMismatchError, EmptyTextError
from propgraph.indexing import (
    CorpusDocument,
    EntityRegistry,
    chunk,
    graph_stats,
    index_corpus,
    load_corpus,
)
from propgraph.graph import entity_id, passage_id, save
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.tokens import estimate_tokens

from conftest import (
    NILE_COUNTS,
    assert_graph_invariants,
    build_random_graph,
    degree,
    edges,
    extraction_rules,
    random_unit,
)


def test_chunk_short_document_single_passage():
    doc = CorpusDocument("d", "A tiny document. Just two sentences.")
    pieces = chunk(doc, RunConfig(chunk_target_tokens=300))
    assert len(pieces) == 1
    assert pieces[0].span == (0, len(doc.text))
    assert pieces[0].text == doc.text


def test_chunk_two_passages_disjoint_covering_spans():
    sentence = "This sentence has exactly eight words in it. "
    text = (sentence * 12).strip()
    per_sentence = estimate_tokens(sentence.strip())
    doc = CorpusDocument("d", text)
    pieces = chunk(doc, RunConfig(chunk_target_tokens=6 * per_sentence))
    assert len(pieces) == 2
    assert pieces[0].span[0] == 0
    assert pieces[0].span[1] == pieces[1].span[0]
    assert pieces[1].span[1] == len(text)


def test_chunk_spans_monotone_and_in_range():
    words = " ".join(f"word{i}." for i in range(400))
    doc = CorpusDocument("d", words)
    pieces = chunk(doc, RunConfig(chunk_target_tokens=40))
    last_start = -1
    for piece in pieces:
        a, b = piece.span
        assert 0 <= a < b <= len(words)
        assert a > last_start
        last_start = a
    assert pieces[-1].span[1] == len(words)


def test_chunk_overlap_replays_trailing_sentences():
    sentence = "Seven words are in this exact sentence. "
    text = (sentence * 10).strip()
    per_sentence = estimate_tokens(sentence.strip())
    doc = CorpusDocument("d", text)
    pieces = chunk(doc, RunConfig(chunk_target_tokens=4 * per_sentence, chunk_overlap_tokens=per_sentence))
    assert len(pieces) >= 2
    assert pieces[1].span[0] < pieces[0].span[1]  # overlapping spans


def test_chunk_rejects_empty_document():
    with pytest.raises(EmptyTextError):
        chunk(CorpusDocument("d", ""), RunConfig())


def test_chunk_policy_validation():
    with pytest.raises(ConfigError, match="chunk_overlap_tokens"):
        RunConfig(chunk_target_tokens=10, chunk_overlap_tokens=10)


def basis(axis, dim=8):
    v = np.zeros(dim)
    v[axis] = 1.0
    return normalize(v)


def test_reconcile_exact_duplicate_surfaces():
    registry = EntityRegistry()
    assert registry.resolve("Paris", basis(0)) == (0, True)
    assert registry.resolve("Paris", basis(1)) == (0, False)


def test_reconcile_merges_above_threshold():
    # vectors constructed to have cosine exactly 0.95
    e1, e2 = np.zeros(8), np.zeros(8)
    e1[0] = 1.0
    e2[1] = 1.0
    v1 = normalize(e1)
    v2 = normalize(0.95 * e1 + np.sqrt(1 - 0.95**2) * e2)
    assert float(np.dot(v1.astype(np.float64), v2.astype(np.float64))) == pytest.approx(0.95, abs=1e-6)
    registry = EntityRegistry(RunConfig(synonym_threshold=0.9))
    assert registry.resolve("NYC", v1) == (0, True)
    assert registry.resolve("New York City", v2) == (0, False)


def test_reconcile_orthogonal_stay_separate():
    registry = EntityRegistry()
    assert registry.resolve("Paris", basis(0)) == (0, True)
    assert registry.resolve("Tokyo", basis(1)) == (1, True)


def test_reconcile_case_insensitive_exact_match_short_circuits():
    # same lowercase surface joins its entity even with an orthogonal vector
    registry = EntityRegistry()
    assert registry.resolve("Paris", basis(0)) == (0, True)
    assert registry.resolve("PARIS", basis(1)) == (0, False)


def test_new_surfaces_are_the_first_of_each_key_not_met_yet():
    registry = EntityRegistry()
    registry.resolve("Paris", basis(0))
    assert registry.new_surfaces(["PARIS", "Tokyo", "tokyo", "Lima", "paris"]) == ["Tokyo", "Lima"]
    assert registry.new_surfaces([]) == []


class LoopEntityRegistry:
    """Reference reconciliation: ``cosine`` against every founder, in id order."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._names = []
        self._embeddings = []
        self._surface_to_id = {}

    def resolve(self, surface, embedding):
        key = surface.lower()
        if key in self._surface_to_id:
            return self._surface_to_id[key], False
        for idx, emb in enumerate(self._embeddings):
            if cosine(embedding, emb) >= self.cfg.synonym_threshold:
                self._surface_to_id[key] = idx
                return idx, False
        idx = len(self._names)
        self._names.append(surface)
        self._embeddings.append(np.asarray(embedding))
        self._surface_to_id[key] = idx
        return idx, True


def resolve_all(registry, stream):
    return [registry.resolve(surface, emb) for surface, emb in stream]


def paraphrase_stream(rng, threshold, dim, size=2000, clusters=40):
    """Surfaces of planted clusters whose pairwise cosines straddle ``threshold``.

    Two members normalize(c + s*g) of one cluster have a cosine near
    1/(1 + s^2), so s is drawn around the value that puts it at the
    threshold; a tenth are exact copies of the centre. A third of the
    surfaces repeat an earlier one, with its case varied, under an
    unrelated vector that the name match must win over.
    """
    target = np.sqrt(1.0 / threshold - 1.0) if threshold > 0 else 4.0
    centres = [rng.normal(size=dim) for _ in range(clusters)]
    stream = []
    for k in range(size):
        if stream and rng.random() < 1 / 3:
            surface = stream[int(rng.integers(len(stream)))][0]
            stream.append((rng.choice([surface.upper(), surface.lower(), surface.swapcase()]), random_unit(rng, dim)))
            continue
        c = int(rng.integers(clusters))
        s = 0.0 if rng.random() < 0.1 else max(target, 1e-7) * float(np.exp(rng.normal(0.0, 0.3)))
        g = rng.normal(size=dim)
        vec = centres[c] / np.linalg.norm(centres[c]) + s * g / np.linalg.norm(g)
        stream.append((f"Cluster{c} Form{k}", normalize(vec)))
    return stream


@pytest.mark.parametrize("dim", [256, 37])
@pytest.mark.parametrize("threshold", [0.0, 0.5, 0.9, 1.0])
def test_registry_matches_loop_reference_on_paraphrase_streams(threshold, dim):
    stream = paraphrase_stream(np.random.default_rng(int(threshold * 10) + dim), threshold, dim)
    cfg = RunConfig(synonym_threshold=threshold)
    expected = resolve_all(LoopEntityRegistry(cfg), stream)
    assert resolve_all(EntityRegistry(cfg), stream) == expected
    keys_seen, similarity_joins = set(), 0
    for (surface, _), (_, founded) in zip(stream, expected):
        similarity_joins += not founded and surface.lower() not in keys_seen
        keys_seen.add(surface.lower())
    founders = sum(founded for _, founded in expected)
    assert similarity_joins > 0 and founders > 1  # both outcomes occur


def test_registry_matches_loop_reference_on_unnormalized_vectors():
    rng = np.random.default_rng(3)
    stream = [(s, emb.astype(np.float64) * 10.0 ** rng.uniform(-3, 3)) for s, emb in paraphrase_stream(rng, 0.5, 64, size=1000)]
    for threshold in (0.0, 0.5, 1.0):
        cfg = RunConfig(synonym_threshold=threshold)
        assert resolve_all(EntityRegistry(cfg), stream) == resolve_all(LoopEntityRegistry(cfg), stream)


def near_threshold_cases(scale, dim=256, n=16, seed=0):
    """Founders and queries whose mat-vec score and ``cosine`` differ.

    The founders are orthogonal and of norm ``scale``; each query meets
    founder i at a dot product in [0.5, 0.95] and is orthogonal to the
    rest, however large the vectors. Yields (founders, query, i, dot,
    mat-vec score) for each query where the two scores differ.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        basis, _ = np.linalg.qr(rng.normal(size=(dim, n + 1)))
        founders = np.ascontiguousarray(scale * basis[:, :n].T)
        i = int(rng.integers(n))
        query = scale * basis[:, n] + rng.uniform(0.5, 0.95) / scale * basis[:, i]
        dot = cosine(query, founders[i])
        score = float((founders @ query)[i])
        if dot != score:
            yield founders, query, i, dot, score


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
def test_registry_takes_cosines_decision_at_the_threshold(scale):
    # With the threshold set to one of the two scores, the mat-vec and
    # cosine disagree on the decisive founder; cosine's decision must win.
    below = above = 0
    for founders, query, i, dot, score in near_threshold_cases(scale):
        threshold = max(dot, score)
        registry = EntityRegistry(RunConfig(synonym_threshold=threshold))
        for k, founder in enumerate(founders):
            assert registry.resolve(f"founder {k}", founder) == (k, True)
        expected = (i, False) if dot >= threshold else (len(founders), True)
        assert registry.resolve("query", query) == expected
        below += score < dot
        above += score > dot
    assert below >= 5 and above >= 5


def test_registry_dimension_mismatch_raises_like_the_loop():
    for registry in (EntityRegistry(), LoopEntityRegistry(RunConfig())):
        assert registry.resolve("Paris", basis(0, dim=8)) == (0, True)
        with pytest.raises(DimensionMismatchError):
            registry.resolve("Tokyo", basis(0, dim=4))
        assert registry.resolve("PARIS", basis(0, dim=4)) == (0, False)  # the name match never compares


def test_a_held_dimension_mismatch_does_not_stop_the_founders_growing():
    # the founder matrix grows in place without numpy's reference check, so a view of it
    # that outlived a growth would read a freed buffer; the registry checks the dimension
    # before it takes any view of the founders, so the held error's frames hold none
    registry = EntityRegistry()
    registry.resolve("first", basis(0, dim=128))
    with pytest.raises(DimensionMismatchError) as held:
        registry.resolve("short", basis(0, dim=4))
    for i in range(1, 128):  # past two growths of the founder matrix
        assert registry.resolve(f"e{i}", basis(i, dim=128)) == (i, True)
    assert held.traceback  # the error and its frames lived through every growth


def test_registry_rejects_embeddings_that_are_not_vectors():
    with pytest.raises(DimensionMismatchError):
        EntityRegistry().resolve("Paris", np.ones((2, 4)))


def test_registry_first_surface_never_compares():
    for emb in (np.full(8, np.nan), np.zeros(0), np.zeros(3), np.full(5, np.inf)):
        assert EntityRegistry().resolve("first", emb) == (0, True)


def test_registry_nan_embeddings_match_the_loop():
    nan = np.full(8, np.nan)
    stream = [("nan founder", nan), ("a", basis(0)), ("nan again", nan), ("b", basis(0)), ("c", -basis(1))]
    for threshold in (0.0, 0.9):
        cfg = RunConfig(synonym_threshold=threshold)
        results = resolve_all(EntityRegistry(cfg), stream)
        assert results == resolve_all(LoopEntityRegistry(cfg), stream)
        assert results[:4] == [(0, True), (1, True), (2, True), (1, False)]  # never joined, never joining


def test_registry_extreme_vectors_match_the_loop():
    rng = np.random.default_rng(9)
    specials = [np.nan, np.inf, -np.inf, 0.0, 1e-200, 1e200, 1e-320]
    stream = []
    for k in range(300):
        vec = rng.normal(size=6) * 10.0 ** rng.integers(-200, 200)
        if rng.random() < 0.3:
            vec[int(rng.integers(6))] = specials[int(rng.integers(len(specials)))]
        stream.append((f"s{k}", vec))
    for threshold in (0.0, 0.5, 1.0):
        cfg = RunConfig(synonym_threshold=threshold)
        with np.errstate(all="ignore"):
            assert resolve_all(EntityRegistry(cfg), stream) == resolve_all(LoopEntityRegistry(cfg), stream)


def test_index_empty_corpus():
    gateway = LLMGateway(MockChatBackend())
    from propgraph.encoding import HashedNgramEmbedder

    graph = index_corpus([], gateway, HashedNgramEmbedder())
    stats = graph_stats(graph)
    assert stats.as_dict() == {"passages": 0, "propositions": 0, "entities": 0, "edges": 0}


def test_index_fixture_counts(nile_graph):
    stats = graph_stats(nile_graph)
    assert stats.as_dict() == NILE_COUNTS
    assert stats.passages == len(nile_graph.passages)
    assert stats.propositions == len(nile_graph.propositions)
    assert stats.entities == len(nile_graph.entities)
    assert stats.edges == nile_graph.edge_count


def test_index_is_deterministic(nile_corpus, embedder):
    from conftest import NILE_PASSAGES

    first = index_corpus(nile_corpus, LLMGateway(MockChatBackend(extraction_rules(NILE_PASSAGES))), embedder)
    second = index_corpus(nile_corpus, LLMGateway(MockChatBackend(extraction_rules(NILE_PASSAGES))), embedder)
    assert [p.text for p in first.propositions] == [p.text for p in second.propositions]
    assert edges(first) == edges(second)
    assert first.proposition_embeddings.tobytes() == second.proposition_embeddings.tobytes()


def test_index_entity_reconciliation_shares_nodes(nile_graph):
    names = sorted(e.canonical_name for e in nile_graph.entities)
    assert names == ["Aswan Dam", "Cairo", "Egypt", "Nile"]
    # "Egypt" appears in all three passages but is a single node
    egypt = [i for i, e in enumerate(nile_graph.entities) if e.canonical_name == "Egypt"][0]
    assert degree(nile_graph, entity_id(egypt)) == 3


def test_index_extraction_failure_keeps_bare_passage(embedder):
    rules = [
        MockRule(template="NER", contains="good passage", response="1. Alpha"),
        MockRule(template="Propositions", contains="good passage", response="1. Alpha exists. | Alpha"),
        MockRule(template="NER", contains="bad passage", response="garbled"),
    ]
    docs = [CorpusDocument("d0", "bad passage here."), CorpusDocument("d1", "good passage here.")]
    graph = index_corpus(docs, LLMGateway(MockChatBackend(rules)), embedder)
    assert len(graph.passages) == 2  # failed passage retained, bare
    assert len(graph.propositions) == 1
    assert degree(graph, passage_id(0)) == 0


def test_index_fails_fast_on_a_backend_outage_naming_the_passage(embedder):
    def outage(prompt):
        raise BackendUnavailable("chat endpoint failed after 3 attempts")

    rules = [
        MockRule(template="NER", contains="bad passage", respond=outage),
        MockRule(template="NER", response="1. Alpha"),
        MockRule(template="Propositions", response="1. Alpha exists. | Alpha"),
    ]
    docs = [CorpusDocument("d0", "good passage here."), CorpusDocument("d1", "First. Then a bad passage here.")]
    with pytest.raises(BackendUnavailable, match=r"while indexing d1 \(0, 31\): chat endpoint failed") as info:
        index_corpus(docs, LLMGateway(MockChatBackend(rules)), embedder)
    assert str(info.value.__cause__) == "chat endpoint failed after 3 attempts"


def test_index_validates_graph_invariants(two_hop_graph):
    assert_graph_invariants(two_hop_graph)
    for i in range(len(two_hop_graph.entities)):
        assert degree(two_hop_graph, entity_id(i)) > 0


class CountingEmbedder(HashedNgramEmbedder):
    def __init__(self):
        super().__init__()
        self.requests = []

    def embed(self, texts):
        self.requests.append(list(texts))
        return super().embed(texts)


# The same three entities under other cases: only "Nile", "Egypt" and "Cairo" are new.
CASED_PASSAGES = [
    ("The Nile flows through Egypt.", ["Nile", "Egypt"], [("The Nile flows through Egypt.", ["Nile", "Egypt"])]),
    ("The NILE floods EGYPT.", ["NILE", "EGYPT"], [("The NILE floods EGYPT.", ["NILE", "EGYPT"])]),
    ("Cairo lies on the nile.", ["Cairo", "nile"], [("Cairo lies on the nile.", ["Cairo", "nile"])]),
]
# The graph directory as written when indexing embedded every surface of every passage.
CASED_GRAPH_DIGEST = "3c35b4e732f2c8706be6a402057c675f6e18a31737d6a8a5b052ae60025d3425"


def test_index_embeds_each_new_entity_surface_once(tmp_path):
    embedder = CountingEmbedder()
    docs = [CorpusDocument(f"doc{i}", text) for i, (text, _, _) in enumerate(CASED_PASSAGES)]
    graph = index_corpus(docs, LLMGateway(MockChatBackend(extraction_rules(CASED_PASSAGES))), embedder)
    facts = [[text for text, _ in props] for _, _, props in CASED_PASSAGES]
    # one request per passage: its new surfaces, then its propositions
    assert embedder.requests == [["Nile", "Egypt", *facts[0]], facts[1], ["Cairo", *facts[2]]]
    assert [(e.canonical_name, e.aliases) for e in graph.entities] == [
        ("Nile", ("NILE", "nile")), ("Egypt", ("EGYPT",)), ("Cairo", ())
    ]
    save(graph, tmp_path / "g")
    digest = hashlib.sha256()
    for f in sorted((tmp_path / "g").iterdir()):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    assert digest.hexdigest() == CASED_GRAPH_DIGEST


def _index_and_build():
    # 100 propositions and 101 unrelated names: the vector stores and the founders grow past 64 rows
    rng = np.random.default_rng(5)
    names = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), 10)).title() for _ in range(101)]
    facts = [(f"{a} borders {b}.", [a, b]) for a, b in zip(names, names[1:])]
    passages = [(text, refs, [(text, refs)]) for text, refs in facts]
    docs = [CorpusDocument(f"doc{k}", text) for k, (text, _, _) in enumerate(passages)]
    indexed = index_corpus(docs, LLMGateway(MockChatBackend(extraction_rules(passages))), HashedNgramEmbedder())
    return indexed, build_random_graph(rng, 200)


@pytest.mark.parametrize("hook", [sys.setprofile, sys.settrace])
def test_graphs_build_under_a_profile_or_trace_hook(hook):
    # a hook holds a reference to an array while its method runs, which numpy's resize check counts
    expected = _index_and_build()
    previous = sys.getprofile() if hook is sys.setprofile else sys.gettrace()
    hook(lambda *args: None)
    try:
        built = _index_and_build()
    finally:
        hook(previous)
    for graph, want in zip(built, expected):
        assert edges(graph) == edges(want)
        assert graph.proposition_embeddings.tobytes() == want.proposition_embeddings.tobytes()
        assert graph.entity_embeddings.tobytes() == want.entity_embeddings.tobytes()


def test_load_corpus_directory_and_jsonl(tmp_path):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "b.txt").write_text("Second doc.")
    (tmp_path / "corpus" / "a.txt").write_text("First doc.")
    docs = load_corpus(tmp_path / "corpus")
    assert [d.doc_id for d in docs] == ["a.txt", "b.txt"]

    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text('{"doc_id": "x", "text": "Hello."}\n{"doc_id": "y", "text": "World."}\n')
    docs = load_corpus(jsonl)
    assert [(d.doc_id, d.text) for d in docs] == [("x", "Hello."), ("y", "World.")]
