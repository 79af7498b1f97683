"""Heterogeneous graph of passages, propositions and entities.

The graph holds three disjoint node kinds with dense per-kind integer ids,
and undirected edges of exactly two families: proposition-to-entity and
proposition-to-passage. It is mutable while an index is being built and
becomes immutable (and safely shareable across threads) after
:meth:`HeteroGraph.finalize`.
"""

from __future__ import annotations

import enum
import functools
import json
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .encoding import NORM_TOL, GrowingRows
from .errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyTextError,
    FrozenGraphError,
    GraphNotFinalizedError,
    NotNormalizedError,
    UnknownNodeError,
    VersionMismatchError,
)

GRAPH_FORMAT = "propgraph-graph"
GRAPH_FORMAT_VERSION = 1

_EMBEDDING_HEADER = struct.Struct("<QQ")

# rows whose norms are checked in float64 at a time: 512 KB at 256 dimensions
_NORM_CHUNK = 256


class NodeKind(enum.Enum):
    PASSAGE = "passage"
    PROPOSITION = "proposition"
    ENTITY = "entity"


_KIND_RANK = {NodeKind.PASSAGE: 0, NodeKind.PROPOSITION: 1, NodeKind.ENTITY: 2}

# the attributes HeteroGraph.finalize sets
_FROZEN_ARRAYS = (
    "proposition_embeddings", "entity_embeddings", "uniform_transition", "side_transitions",
    "global_degrees", "proposition_passages", "twin_classes",
)


@functools.total_ordering
@dataclass(frozen=True)
class NodeId:
    kind: NodeKind
    index: int

    def __lt__(self, other: "NodeId") -> bool:
        return (_KIND_RANK[self.kind], self.index) < (_KIND_RANK[other.kind], other.index)


def _tag(kind: NodeKind, index: int) -> str:
    """A node as ``edges.txt`` names it: ``kind:index``."""
    return f"{kind.value}:{index}"


def passage_id(index: int) -> NodeId:
    return NodeId(NodeKind.PASSAGE, index)


def proposition_id(index: int) -> NodeId:
    return NodeId(NodeKind.PROPOSITION, index)


def entity_id(index: int) -> NodeId:
    return NodeId(NodeKind.ENTITY, index)


@dataclass(frozen=True, slots=True)
class PassageRecord:
    text: str
    source_doc: str
    char_span: tuple[int, int]


@dataclass(frozen=True, slots=True)
class PropositionRecord:
    """A proposition's text and edges: the indices of its passage and of its entities."""

    text: str
    passage: int
    entity_refs: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class EntityRecord:
    """An entity's names."""

    canonical_name: str
    aliases: tuple[str, ...] = ()


class HeteroGraph:
    """Mutable-then-frozen container for the three-kind node universe.

    The proposition records (``passage``, ``entity_refs``) determine every
    edge. Finalizing builds the frozen structure from them in one global
    integer space, passages then propositions then entities, which is also
    the ``NodeId`` order: the uniform walk matrix, whose pattern is the
    adjacency, the two blocks of its transpose between the sides of the
    bipartite graph, each node's degree, each proposition's passage and
    each node's twin class. Work that depends only on the frozen graph is
    done there once.

    A record's index is its position in the sequence of its kind: a list
    while the graph is mutable, then a tuple. Records are frozen and carry
    no vectors. While the graph is mutable it holds one float32 vector store
    per embedded kind, row i for the record with index i, a matrix that
    grows in place (:class:`~propgraph.encoding.GrowingRows`). Finalizing
    trims each to its rows and drops the store, keeping only the matrix:
    the vectors as the embedder gave them and as the files hold them. A
    computation that needs float64 converts the rows it reads.

    :meth:`finalize` sets these read-only attributes; reading one earlier
    raises :class:`~propgraph.errors.GraphNotFinalizedError`.

    - ``proposition_embeddings``, ``entity_embeddings``: one float32 row
      per proposition and per entity.
    - ``uniform_transition``: the row-stochastic uniform-over-neighbors walk
      matrix over all nodes, rows and columns in the global order of
      :meth:`global_index`, each row's column indices sorted; its pattern
      is the adjacency.
    - ``side_transitions``: the two blocks of ``uniform_transition``
      transposed that a walk's step uses, propositions to hubs and hubs to
      propositions. The graph is bipartite, propositions on one side and
      the hubs, passages then entities in node order, on the other, so
      every other block is empty, and a distribution on one side steps to
      the other by one block. The second is column-major: a product then
      runs over the few hubs rather than the many short proposition rows,
      in about half the time.
    - ``global_degrees``: each node's degree, as float64.
    - ``proposition_passages``: the global index of each proposition's
      passage.
    - ``twin_classes``: each node's twin class, the least index of the
      nodes whose neighbor list equals its own.
    """

    def __init__(self) -> None:
        self.passages: list[PassageRecord] | tuple[PassageRecord, ...] = []
        self.propositions: list[PropositionRecord] | tuple[PropositionRecord, ...] = []
        self.entities: list[EntityRecord] | tuple[EntityRecord, ...] = []
        self._finalized = False
        self._embedding_dim: int | None = None
        self._prop_store = GrowingRows(np.empty((0, 0), dtype=np.float32))
        self._entity_store = GrowingRows(np.empty((0, 0), dtype=np.float32))

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set, as a frozen array is not before finalize
        if name in _FROZEN_ARRAYS:
            raise GraphNotFinalizedError(f"{name} is set by finalize(); call it first")
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __setattr__(self, name: str, value) -> None:
        # finalize sets _finalized last, so it can still rebind everything before
        if getattr(self, "_finalized", False):
            raise FrozenGraphError(f"graph is finalized; cannot rebind {name}")
        super().__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        if getattr(self, "_finalized", False):
            raise FrozenGraphError(f"graph is finalized; cannot delete {name}")
        super().__delattr__(name)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._finalized:
            raise FrozenGraphError("graph is finalized; create a new graph to re-index")

    def _check_embedding(self, embedding: np.ndarray) -> np.ndarray:
        embedding = np.asarray(embedding, dtype=np.float32)
        if embedding.ndim != 1:
            raise DimensionMismatchError(f"expected a 1-d embedding, got shape {embedding.shape}")
        if self._embedding_dim is None:
            self._embedding_dim = int(embedding.shape[0])
        elif embedding.shape[0] != self._embedding_dim:
            raise DimensionMismatchError(
                f"embedding dimension {embedding.shape[0]} != graph dimension {self._embedding_dim}"
            )
        return embedding

    def add_passage(self, text: str, source_doc: str, span: tuple[int, int]) -> NodeId:
        self._check_mutable()
        if not text:
            raise EmptyTextError("passage text must be non-empty")
        a, b = int(span[0]), int(span[1])
        if a < 0 or b < a:
            raise ValueError(f"invalid char span ({a}, {b})")
        self.passages.append(PassageRecord(text, source_doc, (a, b)))
        return passage_id(len(self.passages) - 1)

    def add_entity(self, canonical_name: str, embedding: np.ndarray) -> NodeId:
        self._check_mutable()
        if not canonical_name:
            raise EmptyTextError("entity name must be non-empty")
        self._entity_store.append(self._check_embedding(embedding))
        self.entities.append(EntityRecord(canonical_name))
        return entity_id(len(self.entities) - 1)

    def add_entity_alias(self, entity: NodeId, surface: str) -> None:
        self._check_mutable()
        index = self._check_node(entity, NodeKind.ENTITY)
        record = self.entities[index]
        if surface != record.canonical_name and surface not in record.aliases:
            self.entities[index] = replace(record, aliases=(*record.aliases, surface))

    def add_proposition(
        self,
        text: str,
        passage: NodeId,
        entities: list[NodeId],
        embedding: np.ndarray,
    ) -> NodeId:
        self._check_mutable()
        if not text:
            raise EmptyTextError("proposition text must be non-empty")
        passage_index = self._check_node(passage, NodeKind.PASSAGE)
        refs = tuple(dict.fromkeys(self._check_node(ent, NodeKind.ENTITY) for ent in entities))
        self._prop_store.append(self._check_embedding(embedding))
        self.propositions.append(PropositionRecord(text, passage_index, refs))
        return proposition_id(len(self.propositions) - 1)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _records(self, kind: NodeKind) -> list | tuple:
        if kind is NodeKind.PASSAGE:
            return self.passages
        return self.propositions if kind is NodeKind.PROPOSITION else self.entities

    def has_node(self, node: NodeId) -> bool:
        return 0 <= node.index < len(self._records(node.kind))

    def _check_node(self, node: NodeId, kind: NodeKind) -> int:
        """``node``'s index; raises unless it is a node of ``kind`` in this graph."""
        if node.kind is not kind or not self.has_node(node):
            raise UnknownNodeError(f"unknown {kind.value} {node}")
        return node.index

    def global_index(self, node: NodeId) -> int:
        """Position of ``node`` in the global order: passages, propositions, entities."""
        if not self.has_node(node):
            raise UnknownNodeError(f"unknown node {node}")
        if node.kind is NodeKind.PASSAGE:
            return node.index
        if node.kind is NodeKind.PROPOSITION:
            return len(self.passages) + node.index
        return len(self.passages) + len(self.propositions) + node.index

    @property
    def edge_count(self) -> int:
        # one passage edge per proposition, one edge per entity ref; orphan removal drops no edge
        return len(self.propositions) + sum(len(p.entity_refs) for p in self.propositions)

    @property
    def node_count(self) -> int:
        return len(self.passages) + len(self.propositions) + len(self.entities)

    @property
    def embedding_dim(self) -> int:
        return self._embedding_dim or 0

    @property
    def proposition_rows(self) -> slice:
        """The propositions' rows of :attr:`uniform_transition`."""
        return slice(len(self.passages), len(self.passages) + len(self.propositions))

    def proposition_texts(self, indices) -> list[str]:
        return [self.propositions[i].text for i in indices]

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------

    def finalize(self) -> "HeteroGraph":
        """Validate all invariants, drop orphan entities and freeze the graph."""
        if self._finalized:
            return self
        incidence = _incidence(self)
        self._check_structure(incidence)
        # a kept store would hold the entity matrix that orphan removal replaces by a copy
        self.proposition_embeddings, self.entity_embeddings = self._vector_matrices()
        del self._prop_store, self._entity_store
        incidence = self._remove_orphan_entities(incidence)
        self.passages, self.propositions, self.entities = map(tuple, (self.passages, self.propositions, self.entities))
        walk = _uniform_walk(self, incidence)
        self.global_degrees = np.diff(walk.indptr).astype(np.float64)
        # each proposition's first neighbor is its passage, as passages come first
        self.proposition_passages = walk.indices[walk.indptr[self.proposition_rows]]
        self.twin_classes = _twin_classes(walk)
        self.side_transitions = _side_blocks(walk, self.global_degrees, self.proposition_rows)
        self.uniform_transition = walk
        for matrix in (walk, *self.side_transitions):
            for array in (matrix.data, matrix.indices, matrix.indptr):
                array.flags.writeable = False
        for array in (
            self.global_degrees, self.proposition_passages, self.twin_classes, self.proposition_embeddings, self.entity_embeddings
        ):
            array.flags.writeable = False
        self._finalized = True
        return self

    def _remove_orphan_entities(self, incidence: tuple) -> tuple:
        """Drop the entities no proposition cites; returns ``incidence`` with its refs renumbered."""
        passage, counts, refs = incidence
        used = np.zeros(len(self.entities), dtype=bool)
        used[refs] = True
        if used.all():
            return incidence
        remap = np.cumsum(used) - 1
        self.entities = [rec for rec, keep in zip(self.entities, used.tolist()) if keep]
        self.entity_embeddings = self.entity_embeddings[used]
        renumbered = remap.tolist()
        self.propositions = [
            replace(prop, entity_refs=tuple(renumbered[e] for e in prop.entity_refs)) for prop in self.propositions
        ]
        return passage, counts, remap[refs]

    def _check_structure(self, incidence: tuple) -> None:
        """Raise unless every passage and entity ref of ``incidence`` exists and no ref repeats."""
        passage, counts, refs = incidence
        props = np.repeat(np.arange(len(self.propositions)), counts)
        bad = np.flatnonzero((passage < 0) | (passage >= len(self.passages)))
        if bad.size:
            raise ValueError(f"{proposition_id(int(bad[0]))} has unknown passage {passage[bad[0]]}")
        bad = np.flatnonzero((refs < 0) | (refs >= len(self.entities)))
        if bad.size:
            raise ValueError(f"{proposition_id(int(props[bad[0]]))} has unknown entity {refs[bad[0]]}")
        width = max(1, len(self.entities))
        pairs = np.sort(props * width + refs)
        dup = np.flatnonzero(np.diff(pairs) == 0)
        if dup.size:
            raise ValueError(f"{proposition_id(int(pairs[dup[0]] // width))} has duplicate entity refs")

    def _vector_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The two vector stores' matrices, trimmed in place; raises unless each row is a unit vector."""
        stores = self._prop_store, self._entity_store
        for kind, store in zip((NodeKind.PROPOSITION, NodeKind.ENTITY), stores):
            count = len(self._records(kind))
            if store.count != count:
                raise ValueError(f"{store.count} {kind.value} embeddings for {count} records")
            store.trim(self.embedding_dim)
            # no name holds a view of the matrix, so a traceback of this frame holds none at a later resize
            for start in range(0, count, _NORM_CHUNK):
                rows = store.matrix[start : start + _NORM_CHUNK].astype(np.float64)
                # one dot product per row, as is_normalized takes a vector's norm; a NaN norm is bad too.
                # encoding.STORED_NORM_BOUND, which the similarity scan takes, rests on this check.
                norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).ravel())
                bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
                if bad.size:
                    raise NotNormalizedError(f"{NodeId(kind, start + int(bad[0]))} embedding is not unit length")
        return stores[0].matrix, stores[1].matrix


def _incidence(graph: HeteroGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each proposition's passage index and entity-ref count, and all refs in order."""
    props = graph.propositions
    passage = np.fromiter((p.passage for p in props), dtype=np.int64, count=len(props))
    counts = np.fromiter((len(p.entity_refs) for p in props), dtype=np.int64, count=len(props))
    refs = np.fromiter((e for p in props for e in p.entity_refs), dtype=np.int64, count=int(counts.sum()))
    return passage, counts, refs


def _uniform_walk(graph: HeteroGraph, incidence: tuple) -> sp.csr_matrix:
    """Uniform walk matrix over the global order, with sorted column indices, from ``graph``'s :func:`_incidence`."""
    passage, counts, refs = incidence
    n_pass, n_prop = len(graph.passages), len(graph.propositions)
    props = n_pass + np.arange(n_prop)
    side_a = np.concatenate([props, np.repeat(props, counts)])
    side_b = np.concatenate([passage, n_pass + n_prop + refs])
    rows = np.concatenate([side_a, side_b])
    cols = np.concatenate([side_b, side_a])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    n = graph.node_count
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    degrees = np.diff(indptr).astype(np.float64)
    return sp.csr_matrix((1.0 / degrees[rows], cols, indptr), shape=(n, n))


def _side_blocks(walk: sp.csr_matrix, degrees: np.ndarray, props: slice) -> tuple[sp.csr_matrix, sp.csc_matrix]:
    """:attr:`HeteroGraph.side_transitions` from the uniform ``walk``, its row ``degrees`` and the propositions' rows.

    Both blocks have the pattern of the hub rows of ``walk``: entry (h, p)
    of the walk is 1/deg(h), and entry (h, p) of its transpose 1/deg(p).
    """
    hubs = np.r_[0 : props.start, props.stop : walk.shape[0]]
    rows = walk[hubs]
    # hub rows hold proposition columns only, so renumbering them keeps them sorted
    columns = rows.indices - props.start
    shape = (len(hubs), props.stop - props.start)
    to_hubs = sp.csr_matrix((1.0 / degrees[rows.indices], columns, rows.indptr), shape=shape)
    return to_hubs, sp.csr_matrix((rows.data, columns, rows.indptr), shape=shape).T


def _twin_classes(walk: sp.csr_matrix) -> np.ndarray:
    """Each row's twin class under :attr:`HeteroGraph.twin_classes`, from ``walk``'s pattern.

    Rows are grouped exactly, by the bytes of their column indices; a
    group's first row is its class.
    """
    raw, bounds = walk.indices.tobytes(), (walk.indptr * walk.indices.itemsize).tolist()
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(raw[a:b], row) for row, (a, b) in enumerate(zip(bounds, bounds[1:]))], dtype=np.int64)


def _edge_pairs(walk: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Global indices (a, b), a < b, of every edge of ``walk``'s pattern, in ascending order."""
    rows = np.repeat(np.arange(walk.shape[0]), np.diff(walk.indptr))
    upper = rows < walk.indices
    return rows[upper], walk.indices[upper]


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def _write_embeddings(path: Path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_EMBEDDING_HEADER.pack(*matrix.shape))
        fh.write(matrix)  # the array's own buffer, not a bytes copy of it


def _read_embeddings(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < _EMBEDDING_HEADER.size:
        raise CorruptFileError(f"{path.name}: missing embedding header")
    rows, dim = _EMBEDDING_HEADER.unpack_from(raw)
    expected = _EMBEDDING_HEADER.size + rows * dim * 4
    if len(raw) != expected:
        raise CorruptFileError(f"{path.name}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype="<f4", offset=_EMBEDDING_HEADER.size).reshape(int(rows), int(dim))


@dataclass
class GraphStats:
    """A graph's node and edge counts; the manifest's ``counts`` are :meth:`as_dict`."""

    passages: int
    propositions: int
    entities: int
    edges: int

    def as_dict(self) -> dict:
        return asdict(self)


def graph_stats(graph: HeteroGraph) -> GraphStats:
    return GraphStats(len(graph.passages), len(graph.propositions), len(graph.entities), graph.edge_count)


def _node_tags(graph: HeteroGraph) -> list[str]:
    """Each node's :func:`_tag`, in the global order."""
    return [_tag(kind, i) for kind in NodeKind for i in range(len(graph._records(kind)))]


def _write_records(path: Path, records, fields) -> None:
    """One JSON object per line, keys sorted: record i's ``fields`` under their file keys, and i as ``id``."""
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps(row, sort_keys=True) builds per call
    with open(path, "w") as fh:
        fh.writelines(
            encode({"id": i, **{key: getattr(rec, attr) for key, attr, _ in fields}}) + "\n" for i, rec in enumerate(records)
        )


def save(graph: HeteroGraph, path: str | Path) -> None:
    """Write ``graph`` to a directory; see :func:`load` for the inverse."""
    if not graph._finalized:
        raise GraphNotFinalizedError("call finalize() before save")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": GRAPH_FORMAT,
        "format_version": GRAPH_FORMAT_VERSION,
        "counts": graph_stats(graph).as_dict(),
        "embedding_dim": graph.embedding_dim,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for kind, (_, fields) in _RECORD_FILES.items():
        _write_records(root / f"{kind}.jsonl", getattr(graph, kind), fields)
    tags = _node_tags(graph)
    with open(root / "edges.txt", "w") as fh:
        fh.writelines(f"{tags[a]}\t{tags[b]}\n" for a, b in zip(*(x.tolist() for x in _edge_pairs(graph.uniform_transition))))
    _write_embeddings(root / "proposition_embeddings.bin", graph.proposition_embeddings)
    _write_embeddings(root / "entity_embeddings.bin", graph.entity_embeddings)


def _parse_edge_file(path: Path, graph: HeteroGraph) -> tuple[np.ndarray, np.ndarray]:
    """The edges in ``edges.txt`` as global index pairs (a, b), a < b, in ascending order."""
    index = {tag: i for i, tag in enumerate(_node_tags(graph))}
    with open(path) as fh:
        try:
            nodes = np.fromiter((index[tag] for line in fh for tag in line.split()), dtype=np.int64)
        except KeyError as err:
            raise CorruptFileError(f"{path.name}: edge references unknown node {err}") from None
    if len(nodes) % 2:
        raise CorruptFileError(f"{path.name}: odd number of node tags")
    pairs = nodes.reshape(-1, 2)
    a, b = pairs.min(axis=1), pairs.max(axis=1)
    order = np.lexsort((b, a))
    return a[order], b[order]


def _is_int(value) -> bool:
    return type(value) is int  # a JSON true or false decodes to a bool, which is an int subclass


def _is_str(value) -> bool:
    return type(value) is str


def _is_int_list(value) -> bool:
    return type(value) is list and all(map(_is_int, value))


def _is_str_list(value) -> bool:
    return type(value) is list and all(map(_is_str, value))


def _is_text(value) -> bool:
    return _is_str(value) and value != ""


def _is_span(value) -> bool:
    return _is_int_list(value) and len(value) == 2 and 0 <= value[0] <= value[1]


_MISSING = object()  # a field a record line lacks; no check accepts it

# what a stored value must be, and its check: what add_* accepts
_INT, _STR, _TEXT = ("an int", _is_int), ("a string", _is_str), ("a non-empty string", _is_text)
_SPAN = ("two ints with 0 <= start <= end", _is_span)

# The record files: ``<kind>.jsonl`` holds the graph's ``<kind>``, one record of
# the class given per line, with its index as ``id``. Each of the class's
# fields, in order, is stored under its file key and checked on load; a tuple
# is stored as a JSON array and loaded back as a tuple.
_RECORD_FILES = {
    "passages": (PassageRecord, (("text", "text", _TEXT), ("source_doc", "source_doc", _STR), ("char_span", "char_span", _SPAN))),
    "propositions": (
        PropositionRecord,
        (("text", "text", _TEXT), ("passage", "passage", _INT), ("entities", "entity_refs", ("a list of ints", _is_int_list))),
    ),
    "entities": (EntityRecord, (("name", "canonical_name", _TEXT), ("aliases", "aliases", ("a list of strings", _is_str_list)))),
}


def _read_records(path: Path, cls: type, fields) -> list:
    """The ``cls`` records of a JSONL record file, each built from its line's ``fields``.

    Each line must be an object whose ``id`` is its position and that holds
    every file key of ``fields`` with a value its check accepts; other keys
    are ignored.
    """
    checks = [("id", *_INT), *((key, *check) for key, _, check in fields)]
    records = []
    with open(path) as fh:
        for position, line in enumerate(fh):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise CorruptFileError(f"{path.name}: line {position + 1} is not JSON: {err}") from err
            if type(obj) is not dict:
                raise CorruptFileError(f"{path.name}: line {position + 1} is not a JSON object")
            for key, expected, valid in checks:
                value = obj.get(key, _MISSING)
                if not valid(value):
                    found = "no " + repr(key) if value is _MISSING else f"{key} {value!r}, not {expected}"
                    raise CorruptFileError(f"{path.name}: line {position + 1} has {found}")
            if obj["id"] != position:
                raise CorruptFileError(f"{path.name}: line {position + 1} has id {obj['id']!r}")
            values = (obj[key] for key, _, _ in fields)
            records.append(cls(*(tuple(v) if type(v) is list else v for v in values)))
    return records


def _read_manifest(root: Path) -> dict:
    """The checked ``manifest.json`` of the graph directory ``root``."""
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CorruptFileError(f"{root}: unreadable manifest: {err}") from err
    if not isinstance(manifest, dict) or manifest.get("format") != GRAPH_FORMAT:
        raise CorruptFileError(f"{root}: not a graph directory")
    if manifest.get("format_version") != GRAPH_FORMAT_VERSION:
        raise VersionMismatchError(
            f"{root}: format version {manifest.get('format_version')} unsupported "
            f"(expected {GRAPH_FORMAT_VERSION})"
        )
    counts = manifest.get("counts", {})
    numbers = [manifest["format_version"], manifest.get("embedding_dim", 0)]
    if type(counts) is not dict or not all(map(_is_int, [*numbers, *counts.values()])):
        raise CorruptFileError(f"{root}: manifest format_version, embedding_dim and counts must be ints")
    return manifest


def load(path: str | Path) -> HeteroGraph:
    """Load and finalize a graph directory written by :func:`save`; any inconsistency is a ``CorruptFileError``."""
    root = Path(path)
    graph = HeteroGraph()
    try:
        manifest = _read_manifest(root)
        props = _read_embeddings(root / "proposition_embeddings.bin")
        ents = _read_embeddings(root / "entity_embeddings.bin")
        graph._prop_store, graph._entity_store = GrowingRows(props), GrowingRows(ents)
        dims = [props.shape[1], ents.shape[1], manifest.get("embedding_dim", props.shape[1])]
        if dims.count(dims[0]) != 3:
            raise CorruptFileError(f"{root}: proposition, entity and manifest embedding dimensions {dims} differ")
        graph._embedding_dim = props.shape[1]
        for kind, (cls, fields) in _RECORD_FILES.items():
            setattr(graph, kind, _read_records(root / f"{kind}.jsonl", cls, fields))
        cited = len(graph.entities)
        graph.finalize()
        if len(graph.entities) != cited:
            raise CorruptFileError(f"{root}: {cited - len(graph.entities)} entities are cited by no proposition")
        edges = _parse_edge_file(root / "edges.txt", graph)
    except (KeyError, ValueError, IndexError, TypeError, NotNormalizedError) as err:
        raise CorruptFileError(f"{root}: corrupt graph file: {err}") from err
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as err:
        # a root that is a file, not a directory, has no manifest.json either
        raise CorruptFileError(f"{root}: no {Path(err.filename).name}") from err

    if (counts := manifest.get("counts", {})) != (stats := graph_stats(graph).as_dict()):
        raise CorruptFileError(f"{root}: manifest counts {counts} != graph {stats}")
    if not all(np.array_equal(x, y) for x, y in zip(edges, _edge_pairs(graph.uniform_transition))):
        raise CorruptFileError(f"{root}: edges.txt does not match the propositions' passages and entities")
    return graph
