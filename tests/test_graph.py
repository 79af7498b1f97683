import dataclasses
import functools
import gc
import json
import re
import tracemalloc

import numpy as np
import pytest

from propgraph import graph as g
from propgraph.encoding import NORM_TOL, is_normalized
from propgraph.errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyTextError,
    FrozenGraphError,
    GraphNotFinalizedError,
    NotNormalizedError,
    UnknownNodeError,
    VersionMismatchError,
)
from propgraph.graph import HeteroGraph, NodeId, NodeKind
from propgraph.indexing import index_corpus

from conftest import build_random_graph, degree, edges, neighbors, random_unit


FROZEN_ARRAYS = (
    "proposition_embeddings",
    "entity_embeddings",
    "uniform_transition",
    "side_transitions",
    "global_degrees",
    "proposition_passages",
    "twin_classes",
)


def unit(dim=4, axis=0):
    v = np.zeros(dim, dtype=np.float32)
    v[axis] = 1.0
    return v


def test_add_passage_dense_ids():
    graph = HeteroGraph()
    assert graph.add_passage("Sun is a star.", "doc0", (0, 14)) == g.passage_id(0)
    assert graph.add_passage("Second passage.", "doc0", (14, 30)) == g.passage_id(1)


def test_add_passage_rejects_empty_text():
    graph = HeteroGraph()
    with pytest.raises(EmptyTextError):
        graph.add_passage("", "doc0", (0, 0))


def test_proposition_degree_counts_edges():
    graph = HeteroGraph()
    p = graph.add_passage("text here", "d", (0, 9))
    e1 = graph.add_entity("Alpha", unit(axis=0))
    e2 = graph.add_entity("Beta", unit(axis=1))
    two = graph.add_proposition("two entities", p, [e1, e2], unit(axis=2))
    none = graph.add_proposition("no entities", p, [], unit(axis=3))
    graph.finalize()
    assert degree(graph, two) == 3
    assert degree(graph, none) == 1


def test_duplicate_entity_ref_collapses_to_one_edge():
    graph = HeteroGraph()
    p = graph.add_passage("text", "d", (0, 4))
    e = graph.add_entity("Alpha", unit(axis=0))
    prop = graph.add_proposition("dup entity", p, [e, e], unit(axis=1))
    graph.finalize()
    assert degree(graph, prop) == 2  # passage + single entity edge
    assert graph.propositions[prop.index].entity_refs == (e.index,)


def test_add_proposition_validates_inputs():
    graph = HeteroGraph()
    p = graph.add_passage("text", "d", (0, 4))
    with pytest.raises(UnknownNodeError):
        graph.add_proposition("x", g.passage_id(9), [], unit())
    with pytest.raises(UnknownNodeError):
        graph.add_proposition("x", p, [g.entity_id(0)], unit())
    with pytest.raises(DimensionMismatchError, match=r"shape \(1, 4\)"):
        graph.add_proposition("x", p, [], unit()[None, :])
    with pytest.raises(EmptyTextError):
        graph.add_proposition("", p, [], unit())
    # a vector's norm is checked once, by finalize, for a built graph as for a loaded one
    graph.add_proposition("x", p, [], np.array([1.0, 1.0, 0.0, 0.0], dtype=np.float32))
    with pytest.raises(NotNormalizedError, match=r"PROPOSITION.*index=0\) embedding is not unit length"):
        graph.finalize()


def test_neighbors_sorted_and_validated():
    graph = HeteroGraph()
    p = graph.add_passage("text", "d", (0, 4))
    e = graph.add_entity("Alpha", unit(axis=0))
    prop = graph.add_proposition("fact", p, [e], unit(axis=1))
    graph.finalize()
    assert neighbors(graph, prop) == [p, e]  # passages sort before entities
    assert neighbors(graph, p) == [prop]
    with pytest.raises(UnknownNodeError):
        graph.global_index(g.proposition_id(5))


def test_passage_with_three_propositions():
    graph = HeteroGraph()
    p = graph.add_passage("text", "d", (0, 4))
    props = [graph.add_proposition(f"fact {i}", p, [], unit(axis=i)) for i in range(3)]
    graph.finalize()
    assert neighbors(graph, p) == props


def test_edge_kind_invariant_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        graph = build_random_graph(rng, int(rng.integers(1, 12)))
        assert graph.edge_count == len(edges(graph))
        for a, b in edges(graph):
            kinds = {a.kind, b.kind}
            assert kinds in (
                {NodeKind.PROPOSITION, NodeKind.ENTITY},
                {NodeKind.PROPOSITION, NodeKind.PASSAGE},
            )
            assert a != b
        for i in range(len(graph.propositions)):
            passage_nbrs = [n for n in neighbors(graph, g.proposition_id(i)) if n.kind is NodeKind.PASSAGE]
            assert len(passage_nbrs) == 1
        for i in range(len(graph.entities)):
            assert degree(graph, g.entity_id(i)) > 0  # orphans removed at finalize


def test_orphan_entity_removed_and_reindexed():
    graph = HeteroGraph()
    p = graph.add_passage("text", "d", (0, 4))
    graph.add_entity("Orphan", unit(axis=0))
    kept = graph.add_entity("Kept", unit(axis=1))
    graph.add_proposition("fact", p, [kept], unit(axis=2))
    assert graph.edge_count == 2
    graph.finalize()
    assert graph.edge_count == 2  # orphan removal drops no edge
    assert len(graph.entities) == 1
    assert graph.entities[0].canonical_name == "Kept"
    assert graph.propositions[0].entity_refs == (0,)  # dense reindex
    assert neighbors(graph, g.entity_id(0)) == [g.proposition_id(0)]
    assert graph.entity_embeddings.shape[0] == 1


def _three_facts(dim=8):
    """An unfinalized graph of two passages, six entities (three uncited) and three propositions."""
    graph = HeteroGraph()
    passages = [graph.add_passage(f"passage {i}", "d", (0, 9)) for i in range(2)]
    entities = [graph.add_entity(f"e{i}", unit(dim, i)) for i in range(6)]
    for i, refs in enumerate([[1, 3], [3], [5, 1]]):
        graph.add_proposition(f"fact {i}", passages[i % 2], [entities[j] for j in refs], unit(dim, i))
    return graph


def test_finalize_and_load_derive_the_incidence_once(tmp_path, monkeypatch):
    calls = []
    incidence = g._incidence
    monkeypatch.setattr(g, "_incidence", lambda graph: calls.append(graph) or incidence(graph))
    graph = _three_facts().finalize()
    assert len(calls) == 1
    assert [rec.canonical_name for rec in graph.entities] == ["e1", "e3", "e5"]
    # the walk built from the renumbered incidence is the walk of the renumbered records
    rebuilt = g._uniform_walk(graph, incidence(graph))
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(graph.uniform_transition, attr), getattr(rebuilt, attr))
    g.save(graph, tmp_path / "g")
    calls.clear()
    g.load(tmp_path / "g")
    assert len(calls) == 1


def test_finalize_rejects_a_bad_vector_store_and_stays_mutable():
    # the stores are edited behind the API: add_* appends one vector per record, so a count mismatch cannot arise through it
    graph = _three_facts()
    props, ents = graph._prop_store, graph._entity_store
    props.matrix[1] = props.matrix[1] * 2
    with pytest.raises(NotNormalizedError, match=r"PROPOSITION.*index=1\) embedding is not unit length"):
        graph.finalize()
    for name in FROZEN_ARRAYS:
        with pytest.raises(GraphNotFinalizedError, match=f"^{name} "):
            getattr(graph, name)
    graph.add_passage("still mutable", "d", (0, 13))
    ents.count -= 1  # as if the last entity vector had never been added
    with pytest.raises(NotNormalizedError):  # propositions are checked before entities
        graph.finalize()
    props.matrix[1] = unit(8, 1)
    props.count -= 1
    # the count check comes before the trim, which would drop the third row
    with pytest.raises(ValueError, match="^2 proposition embeddings for 3 records$"):
        graph.finalize()
    props.append(unit(8, 7))
    with pytest.raises(ValueError, match="^5 entity embeddings for 6 records$"):
        graph.finalize()
    ents.append(unit(8, 7))
    ents.matrix[0] = ents.matrix[0] * 0.5
    with pytest.raises(NotNormalizedError, match=r"ENTITY.*index=0\) embedding"):
        graph.finalize()
    ents.matrix[0] = unit(8, 0)
    assert len(graph.finalize().entities) == 3


def test_a_held_finalize_error_does_not_stop_the_stores_growing():
    # a store grows in place, which numpy refuses while anything else holds its matrix
    graph = _three_facts()
    graph._prop_store.matrix[1] *= 2
    with pytest.raises(NotNormalizedError) as held:
        graph.finalize()  # trims the proposition store to its three rows
    graph._prop_store.matrix[1] = unit(8, 1)
    graph.add_proposition("fact 3", g.passage_id(0), [], unit(8, 3))
    assert len(graph.finalize().propositions) == 4
    assert held.traceback  # the error and its frames lived through the growth


def test_finalize_accepts_exactly_the_vectors_is_normalized_accepts():
    rng = np.random.default_rng(31)
    outcomes = set()
    near = NORM_TOL * np.linspace(0.9, 1.1, 41)
    for scale in [*(1.0 + near), *(1.0 - near), np.nan]:
        graph = HeteroGraph()
        passage = graph.add_passage("text", "d", (0, 4))
        graph.add_proposition("fact", passage, [graph.add_entity("E", unit(8))], unit(8))
        direction = rng.normal(size=8)
        row = (direction / np.linalg.norm(direction) * scale).astype(np.float32)
        graph._prop_store.matrix[0] = row
        try:
            graph.finalize()
            accepted = True
        except NotNormalizedError:
            accepted = False
        assert accepted == is_normalized(row), scale
        outcomes.add(accepted)
    assert outcomes == {True, False}


def test_frozen_arrays_are_unset_until_finalize(tmp_path):
    graph = _three_facts()
    for name in FROZEN_ARRAYS:
        with pytest.raises(GraphNotFinalizedError, match=f"^{name} is set by finalize"):
            getattr(graph, name)
    with pytest.raises(GraphNotFinalizedError):
        g.save(graph, tmp_path / "g")
    assert not (tmp_path / "g").exists()
    assert not hasattr(graph, "no_such_name")
    graph.finalize()
    assert not hasattr(graph, "no_such_name")
    assert not hasattr(graph, "_prop_store") and not hasattr(graph, "_entity_store")
    for name in FROZEN_ARRAYS:
        assert name in vars(graph)


def test_finalized_graph_is_frozen():
    graph = HeteroGraph()
    graph.add_passage("text", "d", (0, 4))
    graph.finalize()
    with pytest.raises(FrozenGraphError):
        graph.add_passage("more", "d", (0, 4))


def _structurally_equal(a: HeteroGraph, b: HeteroGraph) -> bool:
    """Independent equality oracle: sorted edge lists, record fields, raw bytes."""
    if sorted(edges(a)) != sorted(edges(b)):
        return False
    if [(p.text, p.source_doc, p.char_span) for p in a.passages] != [
        (p.text, p.source_doc, p.char_span) for p in b.passages
    ]:
        return False
    if [(p.text, p.passage, p.entity_refs) for p in a.propositions] != [
        (p.text, p.passage, p.entity_refs) for p in b.propositions
    ]:
        return False
    if [(e.canonical_name, sorted(e.aliases)) for e in a.entities] != [
        (e.canonical_name, sorted(e.aliases)) for e in b.entities
    ]:
        return False
    return (
        a.proposition_embeddings.tobytes() == b.proposition_embeddings.tobytes()
        and a.entity_embeddings.tobytes() == b.entity_embeddings.tobytes()
    )


def test_save_load_round_trip_empty(tmp_path):
    graph = HeteroGraph().finalize()
    g.save(graph, tmp_path / "empty")
    loaded = g.load(tmp_path / "empty")
    assert loaded.node_count == 0 and loaded.edge_count == 0


def test_save_load_round_trip_random(tmp_path):
    rng = np.random.default_rng(13)
    graph = build_random_graph(rng, 10)
    g.save(graph, tmp_path / "g")
    loaded = g.load(tmp_path / "g")
    assert _structurally_equal(graph, loaded)


def test_load_truncated_embeddings_is_corrupt(tmp_path):
    rng = np.random.default_rng(17)
    graph = build_random_graph(rng, 6)
    g.save(graph, tmp_path / "g")
    target = tmp_path / "g" / "proposition_embeddings.bin"
    target.write_bytes(target.read_bytes()[:-5])
    with pytest.raises(CorruptFileError):
        g.load(tmp_path / "g")


GRAPH_MEMBERS = [
    "manifest.json",
    "passages.jsonl",
    "propositions.jsonl",
    "entities.jsonl",
    "edges.txt",
    "proposition_embeddings.bin",
    "entity_embeddings.bin",
]


@pytest.mark.parametrize("as_directory", [False, True], ids=["missing", "directory"])
@pytest.mark.parametrize("name", GRAPH_MEMBERS)
def test_load_without_a_member_file_is_corrupt(tmp_path, name, as_directory):
    root = tmp_path / "g"
    g.save(build_random_graph(np.random.default_rng(23), 4), root)
    (root / name).unlink()
    if as_directory:
        (root / name).mkdir()
    with pytest.raises(CorruptFileError, match=f"^{re.escape(f'{root}: no {name}')}$"):
        g.load(root)


@pytest.mark.parametrize("root", ["missing", "a file"])
def test_load_of_a_root_that_is_no_directory_is_corrupt(tmp_path, root):
    path = tmp_path / "g"
    if root == "a file":
        path.write_text("{}")
    with pytest.raises(CorruptFileError, match=f"^{re.escape(f'{path}: no manifest.json')}$"):
        g.load(path)


@pytest.mark.parametrize("kind", ["passages", "propositions", "entities"])
def test_the_record_table_stores_every_record_field(tmp_path, kind):
    # a record field without a table entry would be dropped by save, and a stale entry would break load
    cls, fields = g._RECORD_FILES[kind]
    assert [attr for _, attr, _ in fields] == [f.name for f in dataclasses.fields(cls)]
    graph = build_random_graph(np.random.default_rng(13), 10)
    g.save(graph, tmp_path / "g")
    lines = (tmp_path / "g" / f"{kind}.jsonl").read_text().splitlines()
    assert len(lines) == len(getattr(graph, kind)) > 0
    assert all(set(json.loads(line)) == {"id", *(key for key, _, _ in fields)} for line in lines)


def test_load_version_mismatch(tmp_path):
    graph = HeteroGraph().finalize()
    g.save(graph, tmp_path / "g")
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(VersionMismatchError):
        g.load(tmp_path / "g")


def test_load_count_mismatch_is_corrupt(tmp_path):
    rng = np.random.default_rng(19)
    graph = build_random_graph(rng, 4)
    g.save(graph, tmp_path / "g")
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    manifest["counts"]["propositions"] += 1
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptFileError):
        g.load(tmp_path / "g")


@pytest.mark.parametrize("manifest", [[], None, 3, "x"])
def test_load_manifest_not_an_object_is_corrupt(tmp_path, manifest):
    g.save(build_random_graph(np.random.default_rng(19), 4), tmp_path / "g")
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptFileError):
        g.load(tmp_path / "g")


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(format_version=1.0),
        lambda m: m.update(format_version=True),
        lambda m: m.update(embedding_dim=float(m["embedding_dim"])),
        lambda m: m["counts"].update(edges=float(m["counts"]["edges"])),
        lambda m: m["counts"].update({key: float(n) for key, n in m["counts"].items()}),
        lambda m: m.update(counts=[m["counts"]]),
    ],
    ids=["format_version 1.0", "format_version true", "embedding_dim float", "edges float", "all counts float", "counts a list"],
)
def test_load_manifest_numbers_of_another_type_are_corrupt(tmp_path, edit):
    # each edited number equals the saved one, so only its type is wrong
    g.save(build_random_graph(np.random.default_rng(19), 4), tmp_path / "g")
    path = tmp_path / "g" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptFileError, match="manifest"):
        g.load(tmp_path / "g")


@pytest.mark.parametrize("value", [np.nan, 2.0])
@pytest.mark.parametrize("name", ["proposition_embeddings.bin", "entity_embeddings.bin"])
def test_load_stored_vector_not_unit_length_is_corrupt(tmp_path, name, value):
    g.save(build_random_graph(np.random.default_rng(19), 4), tmp_path / "g")
    path = tmp_path / "g" / name
    raw = bytearray(path.read_bytes())
    raw[g._EMBEDDING_HEADER.size : g._EMBEDDING_HEADER.size + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="embedding is not unit length"):
        g.load(tmp_path / "g")


def _retarget_entity_edge(root, orphan: bool) -> None:
    """Point one proposition-entity line of edges.txt at another entity.

    With ``orphan`` the line chosen is its entity's only edge, so the edit
    leaves that entity without edges; otherwise the entity keeps others.
    """
    path = root / "edges.txt"
    pairs = [line.split("\t") for line in path.read_text().splitlines()]
    degree = {}
    for a, b in pairs:
        for tag in (a, b):
            degree[tag] = degree.get(tag, 0) + 1
    entities = sorted({b for _, b in pairs if b.startswith("entity:")})
    for i, (prop, ent) in enumerate(pairs):
        if not ent.startswith("entity:") or (degree[ent] == 1) != orphan:
            continue
        others = [e for e in entities if e != ent and [prop, e] not in pairs]
        if others:
            pairs[i] = [prop, others[0]]
            path.write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
            return
    raise AssertionError("no proposition-entity edge to retarget")


@pytest.mark.parametrize("orphan", [False, True])
def test_load_edges_disagreeing_with_records_is_corrupt(tmp_path, orphan):
    graph = build_random_graph(np.random.default_rng(13), 10)
    g.save(graph, tmp_path / "g")
    _retarget_entity_edge(tmp_path / "g", orphan)
    with pytest.raises(CorruptFileError):
        g.load(tmp_path / "g")


@pytest.mark.parametrize(
    "field, value",
    [
        ("passage", 99),
        ("passage", -1),
        ("entities", [99]),
        ("entities", [-1]),
        ("passages.id", -1),
        ("propositions.id", -1),
        ("entities.id", -1),
        ("propositions.id", 1),
    ],
)
def test_load_out_of_range_record_ids_are_corrupt(tmp_path, field, value):
    # "<file>.<key>" edits the first record of that file; a bare key edits the first proposition
    graph = build_random_graph(np.random.default_rng(13), 10)
    g.save(graph, tmp_path / "g")
    name, _, key = field.rpartition(".")
    path = tmp_path / "g" / f"{name or 'propositions'}.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0][key] = value
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    with pytest.raises(CorruptFileError):
        g.load(tmp_path / "g")


def test_load_swapped_record_lines_are_corrupt(tmp_path):
    # twins share a passage and entities, so swapping their lines leaves every edge as it was
    graph = build_random_graph(np.random.default_rng(5), 30)
    twins = [(p.passage, sorted(p.entity_refs)) for p in graph.propositions[1:5:3]]
    assert twins[0] == twins[1]
    g.save(graph, tmp_path / "g")
    path = tmp_path / "g" / "propositions.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1], lines[4] = lines[4], lines[1]
    path.write_text("".join(lines))
    with pytest.raises(CorruptFileError):
        g.load(tmp_path / "g")


@pytest.mark.parametrize(
    "name, key, edit",
    [
        ("propositions", "text", lambda old: 5),
        ("propositions", "text", None),
        ("propositions", "id", lambda old: True),
        ("propositions", "id", lambda old: float(old)),
        ("propositions", "passage", lambda old: float(old)),
        ("propositions", "entities", lambda old: [float(e) for e in old]),
        ("propositions", "entities", lambda old: old[0]),
        ("passages", "text", lambda old: [old]),
        ("passages", "source_doc", lambda old: 7),
        ("passages", "char_span", lambda old: "ab"),
        ("passages", "char_span", lambda old: old + [0]),
        ("passages", "char_span", lambda old: [old[0], float(old[1])]),
        ("entities", "name", lambda old: 7),
        ("entities", "aliases", lambda old: "xy"),
        ("entities", "aliases", lambda old: [*old, 1]),
        ("propositions", "text", lambda old: ""),
        ("passages", "text", lambda old: ""),
        ("entities", "name", lambda old: ""),
        ("passages", "char_span", lambda old: [5, 2]),
        ("passages", "char_span", lambda old: [-3, 2]),
    ],
    ids=[
        "text 5", "no text", "id true", "id 1.0", "passage float", "entity refs float", "entity refs an int",
        "passage text a list", "source_doc 7", "char_span a string", "char_span three ints", "char_span float end",
        "name 7", "aliases a string", "aliases with an int",
        "text empty", "passage text empty", "name empty", "char_span end before start", "char_span negative start",
    ],
)
def test_load_mistyped_record_fields_are_corrupt(tmp_path, name, key, edit):
    # the second record (with entity refs, for those): an id true or 1.0 there equals its position 1
    graph = build_random_graph(np.random.default_rng(13), 10)
    g.save(graph, tmp_path / "g")
    path = tmp_path / "g" / f"{name}.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    line = [i for i, r in enumerate(records) if key != "entities" or r[key]][1]
    if edit is None:
        del records[line][key]
    else:
        records[line][key] = edit(records[line][key])
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    with pytest.raises(CorruptFileError, match=rf"{name}\.jsonl: line {line + 1} "):
        g.load(tmp_path / "g")


@pytest.mark.parametrize("name", ["passages", "propositions", "entities"])
def test_load_record_line_that_is_not_json_names_its_file_and_line(tmp_path, name):
    graph = build_random_graph(np.random.default_rng(13), 10)
    g.save(graph, tmp_path / "g")
    path = tmp_path / "g" / f"{name}.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) >= 4
    lines[3] = '{"id": 3, oops'
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(CorruptFileError, match=rf"^{name}\.jsonl: line 4 is not JSON: Expecting"):
        g.load(tmp_path / "g")


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines + ["proposition:9999\tentity:0"],
        lambda lines: lines[:-1] + [lines[-1].split("\t")[0]],
        lambda lines: [lines[0].replace(":", ":0", 1)] + lines[1:],
        lambda lines: [lines[0].replace(":", " ", 1)] + lines[1:],
    ],
    ids=["unknown node", "odd tag count", "padded index", "no colon"],
)
def test_load_malformed_edge_file_is_corrupt(tmp_path, edit):
    g.save(build_random_graph(np.random.default_rng(13), 10), tmp_path / "g")
    path = tmp_path / "g" / "edges.txt"
    path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
    with pytest.raises(CorruptFileError, match="edges.txt"):
        g.load(tmp_path / "g")


def test_load_reads_edges_in_any_order(tmp_path):
    graph = build_random_graph(np.random.default_rng(13), 10)
    g.save(graph, tmp_path / "g")
    path = tmp_path / "g" / "edges.txt"
    lines = path.read_text().splitlines()
    swapped = ["\t".join(reversed(line.split("\t"))) for line in lines[::-1]]
    path.write_text("".join(line + "\n" for line in swapped))
    assert _structurally_equal(graph, g.load(tmp_path / "g"))


@pytest.mark.parametrize("mismatch", ["manifest", "entity_embeddings.bin"])
def test_load_embedding_dimension_mismatch_is_corrupt(tmp_path, mismatch):
    graph = build_random_graph(np.random.default_rng(13), 10, dim=8)
    g.save(graph, tmp_path / "g")
    if mismatch == "manifest":
        manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
        manifest["embedding_dim"] = 5
        (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    else:  # still unit vectors, one column wider
        g._write_embeddings(tmp_path / "g" / mismatch, np.pad(graph.entity_embeddings, ((0, 0), (0, 1))))
    with pytest.raises(CorruptFileError):
        g.load(tmp_path / "g")


def test_load_orphan_entity_is_corrupt(tmp_path):
    # save never writes an entity no proposition cites; finalize would drop it silently
    graph = build_random_graph(np.random.default_rng(5), 30)
    root = tmp_path / "g"
    g.save(graph, root)
    with open(root / "entities.jsonl", "a") as fh:
        fh.write(json.dumps({"aliases": [], "id": len(graph.entities), "name": "Orphan"}, sort_keys=True) + "\n")
    g._write_embeddings(root / "entity_embeddings.bin", np.vstack([graph.entity_embeddings, unit(8)]))
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["counts"]["entities"] += 1
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptFileError, match="cited by no proposition"):
        g.load(root)


def _graph_of_dim(dim: int, orphans: int = 0) -> HeteroGraph:
    """2,000 propositions over 50 passages and 200 entities, wired the same way for every ``dim``.

    ``orphans`` more entities, which no proposition cites, are added first and dropped at finalize.
    """
    graph = HeteroGraph()
    passages = [graph.add_passage(f"passage {i}", "d", (0, 9)) for i in range(50)]
    for i in range(orphans):
        graph.add_entity(f"orphan {i}", unit(dim, i % dim))
    entities = [graph.add_entity(f"entity {i}", unit(dim, i % dim)) for i in range(200)]
    for i in range(2000):
        graph.add_proposition(f"fact {i}", passages[i % 50], [entities[i % 200]], unit(dim, i % dim))
    return graph.finalize()


def _retained_bytes(make) -> int:
    """Bytes allocated by ``make()`` that are still held while its result lives."""
    make()  # first-call caches are not the result's
    gc.collect()
    tracemalloc.start()
    try:
        result = make()  # held until the measurement below
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_frozen_graph_retains_one_copy_of_the_vectors(tmp_path):
    # the two graphs differ only in dimension, so everything else cancels
    small, large = 16, 144
    for dim in (small, large):
        g.save(_graph_of_dim(dim), tmp_path / str(dim))
    extra = large - small
    one_copy = extra * (2000 * 4 + 200 * 4)  # float32 propositions and entities
    float32_props = extra * 2000 * 4
    # with orphans, finalize copies the entity matrix: the 2,000 orphans' vectors, which a store
    # kept past finalize would hold with the old matrix, exceed the tolerance
    orphaned = functools.partial(_graph_of_dim, orphans=2000)
    for make in (_graph_of_dim, orphaned, lambda dim: g.load(tmp_path / str(dim))):
        grown = _retained_bytes(lambda: make(large)) - _retained_bytes(lambda: make(small))
        assert abs(grown - one_copy) < float32_props / 2, (grown, one_copy)


@pytest.mark.parametrize("count", [1, 64, 65, 1000])
def test_a_frozen_store_is_the_vectors_added_and_nothing_more(count):
    # the stores start at 64 rows and grow by half: 1 fits, 64 fills, 65 grows once, 1,000 seven times
    rng = np.random.default_rng(count)
    dim = 16
    vectors = [random_unit(rng, dim) for _ in range(count)]
    graph = HeteroGraph()
    passage = graph.add_passage("text", "d", (0, 4))
    for i, vector in enumerate(vectors):
        graph.add_proposition(f"fact {i}", passage, [graph.add_entity(f"e{i}", vector[::-1])], vector)
    graph.finalize()
    for store, rows in ((graph.proposition_embeddings, vectors), (graph.entity_embeddings, [v[::-1] for v in vectors])):
        expected = np.stack(rows)
        assert store.dtype == expected.dtype == np.float32
        assert store.shape == expected.shape and store.tobytes() == expected.tobytes()
        assert store.nbytes == count * dim * 4
        assert not store.flags.writeable


def test_build_peak_is_what_the_graph_keeps_plus_a_slack():
    # At 64 dimensions the 2,200 vectors take 0.56 MB. A second copy of them
    # (a list of one array per vector beside the matrix finalize would stack
    # from it, 0.8 MB with the arrays' headers) exceeds the slack; the spare
    # rows of a store that grows by half (117 KB here) do not.
    dim = 64
    _graph_of_dim(dim)  # first-call caches are not the build's
    gc.collect()
    tracemalloc.start()
    try:
        graph = _graph_of_dim(dim)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()  # retained: records, vector stores, frozen caches
    finally:
        tracemalloc.stop()
    assert graph.proposition_embeddings.nbytes + graph.entity_embeddings.nbytes == (2000 + 200) * dim * 4
    slack = 2**19 + g._NORM_CHUNK * dim * 8  # 512 KB and the float64 rows of one norm-check chunk
    assert peak - retained < slack, (peak, retained)


def test_load_peak_is_what_the_graph_keeps_plus_a_slack(tmp_path):
    # At 64 dimensions a float64 copy of the proposition store (1 MB), and a
    # numpy array of the 16,000 halves of edges.txt's tags (0.7 MB, besides
    # the strings it is made from), each exceed the slack.
    dim = 64
    g.save(_graph_of_dim(dim), tmp_path / "g")
    g.load(tmp_path / "g")  # first-call caches are not the load's
    gc.collect()
    tracemalloc.start()
    try:
        graph = g.load(tmp_path / "g")
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()  # retained: records, vector stores, frozen caches
    finally:
        tracemalloc.stop()
    assert graph.proposition_embeddings.nbytes + graph.entity_embeddings.nbytes == (2000 + 200) * dim * 4
    slack = 2**19 + g._NORM_CHUNK * dim * 8  # 512 KB and the float64 rows of one norm-check chunk
    assert peak - retained < slack, (peak, retained)


def test_finalized_arrays_are_read_only():
    graph = build_random_graph(np.random.default_rng(29), 8)
    walk, (to_hubs, to_props) = graph.uniform_transition, graph.side_transitions
    arrays = [
        walk.data,
        walk.indices,
        walk.indptr,
        *(block.data for block in (to_hubs, to_props)),
        *(block.indices for block in (to_hubs, to_props)),
        *(block.indptr for block in (to_hubs, to_props)),
        graph.global_degrees,
        graph.proposition_passages,
        graph.proposition_embeddings,
        graph.entity_embeddings,
    ]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = array[0]


_RECORD_MUTATIONS = [
    lambda graph: graph.propositions[0].entity_refs.append(1),
    lambda graph: setattr(graph.propositions[1], "passage", 0),
    lambda graph: graph.entities[0].aliases.append("zz"),
    lambda graph: setattr(graph.passages[0], "text", "zz"),
    lambda graph: graph.propositions.append(graph.propositions[0]),
    lambda graph: graph.entities.__setitem__(0, graph.entities[-1]),
    lambda graph: graph.passages.pop(),
]


def test_finalized_records_are_immutable(tmp_path, nile_corpus, nile_gateway, embedder):
    built = index_corpus(nile_corpus, nile_gateway, embedder)
    g.save(built, tmp_path / "before")
    loaded = g.load(tmp_path / "before")
    for graph in (built, loaded):
        for mutate in _RECORD_MUTATIONS:
            with pytest.raises((AttributeError, TypeError)):
                mutate(graph)
    g.save(loaded, tmp_path / "after")
    for name in sorted(p.name for p in (tmp_path / "before").iterdir()):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes(), name


def test_a_frozen_graph_refuses_rebinding(tmp_path, nile_corpus, nile_gateway, embedder):
    built = index_corpus(nile_corpus, nile_gateway, embedder)
    g.save(built, tmp_path / "before")
    loaded = g.load(tmp_path / "before")
    for graph in (built, loaded):
        for name in ("passages", "propositions", "entities", *FROZEN_ARRAYS):
            with pytest.raises(FrozenGraphError):
                setattr(graph, name, ())
            with pytest.raises(FrozenGraphError):
                delattr(graph, name)
        g.save(graph, tmp_path / "after")
        for path in (tmp_path / "before").iterdir():
            assert (tmp_path / "after" / path.name).read_bytes() == path.read_bytes(), path.name


def _live_node_ids() -> int:
    gc.collect()
    return sum(type(obj) is NodeId for obj in gc.get_objects())


def test_a_frozen_graph_holds_no_node_ids(tmp_path, nile_corpus, nile_gateway, embedder):
    before = _live_node_ids()
    graph = index_corpus(nile_corpus, nile_gateway, embedder)
    assert _live_node_ids() == before
    g.save(graph, tmp_path / "g")
    loaded = g.load(tmp_path / "g")
    assert _live_node_ids() == before
    assert loaded.propositions == graph.propositions


def test_node_id_ordering_and_tags():
    a = NodeId(NodeKind.PASSAGE, 3)
    b = NodeId(NodeKind.PROPOSITION, 0)
    assert a < b
    assert g._tag(a.kind, a.index) == "passage:3" and g._tag(b.kind, b.index) == "proposition:0"


def loop_twin_classes(graph):
    """Each node's twin class, by comparing neighbor lists one node at a time."""
    walk = graph.uniform_transition
    first: dict[tuple, int] = {}
    return np.array(
        [first.setdefault(tuple(walk.indices[walk.indptr[i] : walk.indptr[i + 1]].tolist()), i) for i in range(graph.node_count)],
        dtype=np.int64,
    )


def test_twin_classes_match_neighbor_lists(tmp_path):
    rng = np.random.default_rng(109)
    planted = HeteroGraph()
    passage = planted.add_passage("passage", "d", (0, 5))
    other = planted.add_passage("other passage", "d", (0, 5))
    hubs = [planted.add_entity(f"entity {i}", random_unit(rng, 8)) for i in range(3)]
    # two propositions with one passage and one entity set, entities 0 and
    # 1 cited by the same propositions, and entity 2 cited only where the
    # other passage is: twins of every kind, across kinds too
    for text, where, refs in [("a", passage, hubs[:2]), ("b", passage, hubs[:2]), ("c", other, hubs)]:
        planted.add_proposition(text, where, refs, random_unit(rng, 8))
    planted.finalize()
    assert planted.twin_classes.tolist() == [0, 1, 2, 2, 4, 5, 5, 1]
    graphs = [planted] + [build_random_graph(rng, int(rng.integers(1, 80))) for _ in range(30)]
    for graph in graphs:
        want = loop_twin_classes(graph)
        assert graph.twin_classes.dtype == np.int64 and np.array_equal(graph.twin_classes, want)
        assert not graph.twin_classes.flags.writeable
    g.save(graphs[1], tmp_path / "g")
    assert np.array_equal(g.load(tmp_path / "g").twin_classes, graphs[1].twin_classes)


def test_twin_classes_match_neighbor_lists_on_the_bench_graph(bench_graph):
    # hub rows of thousands of entries, which the random graphs above never reach
    assert np.diff(bench_graph.uniform_transition.indptr).max() > 1000
    want = loop_twin_classes(bench_graph)
    assert (want != np.arange(bench_graph.node_count)).any()
    assert np.array_equal(bench_graph.twin_classes, want)
