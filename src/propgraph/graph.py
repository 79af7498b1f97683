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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .encoding import NORM_TOL, is_normalized
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


class NodeKind(enum.Enum):
    PASSAGE = "passage"
    PROPOSITION = "proposition"
    ENTITY = "entity"


_KIND_RANK = {NodeKind.PASSAGE: 0, NodeKind.PROPOSITION: 1, NodeKind.ENTITY: 2}


@functools.total_ordering
@dataclass(frozen=True)
class NodeId:
    kind: NodeKind
    index: int

    def __lt__(self, other: "NodeId") -> bool:
        return (_KIND_RANK[self.kind], self.index) < (_KIND_RANK[other.kind], other.index)

    def tag(self) -> str:
        return f"{self.kind.value}:{self.index}"


def passage_id(index: int) -> NodeId:
    return NodeId(NodeKind.PASSAGE, index)


def proposition_id(index: int) -> NodeId:
    return NodeId(NodeKind.PROPOSITION, index)


def entity_id(index: int) -> NodeId:
    return NodeId(NodeKind.ENTITY, index)


@dataclass
class PassageRecord:
    id: NodeId
    text: str
    source_doc: str
    char_span: tuple[int, int]


@dataclass
class PropositionRecord:
    """A proposition's text and edges; its vector is row ``id.index`` of the graph's store."""

    id: NodeId
    text: str
    passage: NodeId
    entity_refs: list[NodeId]


@dataclass
class EntityRecord:
    """An entity's names; its vector is row ``id.index`` of the graph's store."""

    id: NodeId
    canonical_name: str
    aliases: list[str] = field(default_factory=list)


class HeteroGraph:
    """Mutable-then-frozen container for the three-kind node universe.

    The proposition records (``passage``, ``entity_refs``) determine every
    edge. Finalizing builds the frozen structure from them in one global
    integer space, passages then propositions then entities, which is also
    the ``NodeId`` order: the uniform walk matrix, whose pattern is the
    adjacency, its transpose and the transpose's two blocks between the
    sides of the bipartite graph, each node's degree, each proposition's
    passage and each node's twin class. Work that depends only on the
    frozen graph is done there once.

    Records carry no vectors. The graph holds one vector store per embedded
    kind, row i for the record with index i: a list while the graph is
    mutable, then one read-only matrix, float64 for propositions and
    float32 for entities.
    """

    def __init__(self) -> None:
        self.passages: list[PassageRecord] = []
        self.propositions: list[PropositionRecord] = []
        self.entities: list[EntityRecord] = []
        self._finalized = False
        self._embedding_dim: int | None = None
        self._prop_embeddings: list[np.ndarray] | np.ndarray = []
        self._entity_embeddings: list[np.ndarray] | np.ndarray = []
        # caches built at finalize
        self._node_order: list[NodeId] | None = None
        self._uniform_csr: sp.csr_matrix | None = None
        self._transposed_csr: sp.csr_matrix | None = None
        self._sides: tuple[sp.csr_matrix, sp.csc_matrix] | None = None
        self._degrees: np.ndarray | None = None
        self._prop_passage: np.ndarray | None = None
        self._twins: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._finalized:
            raise FrozenGraphError("graph is finalized; create a new graph to re-index")

    def _check_embedding(self, embedding: np.ndarray) -> np.ndarray:
        embedding = np.asarray(embedding, dtype=np.float32)
        if embedding.ndim != 1:
            raise NotNormalizedError("embedding must be a 1-d vector")
        if self._embedding_dim is None:
            self._embedding_dim = int(embedding.shape[0])
        elif embedding.shape[0] != self._embedding_dim:
            raise DimensionMismatchError(
                f"embedding dimension {embedding.shape[0]} != graph dimension {self._embedding_dim}"
            )
        if not is_normalized(embedding, NORM_TOL):
            raise NotNormalizedError("embedding is not unit length within 1e-6")
        return embedding

    def add_passage(self, text: str, source_doc: str, span: tuple[int, int]) -> NodeId:
        self._check_mutable()
        if not text:
            raise EmptyTextError("passage text must be non-empty")
        a, b = int(span[0]), int(span[1])
        if a < 0 or b < a:
            raise ValueError(f"invalid char span ({a}, {b})")
        node = passage_id(len(self.passages))
        self.passages.append(PassageRecord(node, text, source_doc, (a, b)))
        return node

    def add_entity(self, canonical_name: str, embedding: np.ndarray, aliases: tuple[str, ...] = ()) -> NodeId:
        self._check_mutable()
        if not canonical_name:
            raise EmptyTextError("entity name must be non-empty")
        self._entity_embeddings.append(self._check_embedding(embedding))
        node = entity_id(len(self.entities))
        self.entities.append(EntityRecord(node, canonical_name, list(aliases)))
        return node

    def add_entity_alias(self, entity: NodeId, surface: str) -> None:
        self._check_mutable()
        record = self._entity_record(entity)
        if surface != record.canonical_name and surface not in record.aliases:
            record.aliases.append(surface)

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
        if passage.kind is not NodeKind.PASSAGE or not self.has_node(passage):
            raise UnknownNodeError(f"unknown passage {passage}")
        deduped: list[NodeId] = []
        for ent in entities:
            if ent.kind is not NodeKind.ENTITY or not self.has_node(ent):
                raise UnknownNodeError(f"unknown entity {ent}")
            if ent not in deduped:
                deduped.append(ent)
        self._prop_embeddings.append(self._check_embedding(embedding))
        node = proposition_id(len(self.propositions))
        self.propositions.append(PropositionRecord(node, text, passage, deduped))
        return node

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _records(self, kind: NodeKind) -> list:
        return {NodeKind.PASSAGE: self.passages, NodeKind.PROPOSITION: self.propositions}.get(kind, self.entities)

    def has_node(self, node: NodeId) -> bool:
        return 0 <= node.index < len(self._records(node.kind))

    def global_index(self, node: NodeId) -> int:
        """Position of ``node`` in the global order: passages, propositions, entities."""
        if not self.has_node(node):
            raise UnknownNodeError(f"unknown node {node}")
        n_pass, n_prop = len(self.passages), len(self.propositions)
        offset = {NodeKind.PASSAGE: 0, NodeKind.PROPOSITION: n_pass, NodeKind.ENTITY: n_pass + n_prop}[node.kind]
        return offset + node.index

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

    def _entity_record(self, node: NodeId) -> EntityRecord:
        if node.kind is not NodeKind.ENTITY or not self.has_node(node):
            raise UnknownNodeError(f"unknown entity {node}")
        return self.entities[node.index]

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
        # the build-time lists, or the matrices load read, become one matrix each
        self._prop_embeddings, self._entity_embeddings = self._vector_matrices()
        incidence = self._remove_orphan_entities(incidence)
        self._build_caches(incidence)
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
        self._entity_embeddings = self._entity_embeddings[used]
        for new_index, rec in enumerate(self.entities):
            rec.id = entity_id(new_index)
        renumbered = remap.tolist()
        for prop in self.propositions:
            prop.entity_refs = [entity_id(renumbered[e.index]) for e in prop.entity_refs]
        return passage, counts, remap[refs]

    def validate(self) -> None:
        """Raise if any structural invariant is violated."""
        self._check_structure(_incidence(self))
        self._vector_matrices()

    def _check_structure(self, incidence: tuple) -> None:
        """Raise unless every passage and entity ref of ``incidence`` exists and no ref repeats."""
        passage, counts, refs = incidence
        props = np.repeat(np.arange(len(self.propositions)), counts)
        bad = np.flatnonzero((passage < 0) | (passage >= len(self.passages)))
        if bad.size:
            raise ValueError(f"{self.propositions[bad[0]].id} has unknown passage {passage[bad[0]]}")
        bad = np.flatnonzero((refs < 0) | (refs >= len(self.entities)))
        if bad.size:
            raise ValueError(f"{self.propositions[props[bad[0]]].id} has unknown entity {refs[bad[0]]}")
        width = max(1, len(self.entities))
        pairs = np.sort(props * width + refs)
        dup = np.flatnonzero(np.diff(pairs) == 0)
        if dup.size:
            raise ValueError(f"{self.propositions[pairs[dup[0]] // width].id} has duplicate entity refs")

    def _vector_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The two vector stores as float64 and float32 matrices; raises unless each row is a unit vector."""
        matrices = []
        for kind, vectors, dtype in (
            (NodeKind.PROPOSITION, self._prop_embeddings, np.float64),
            (NodeKind.ENTITY, self._entity_embeddings, np.float32),
        ):
            records = self._records(kind)
            if len(vectors) != len(records):
                raise ValueError(f"{len(vectors)} {kind.value} embeddings for {len(records)} records")
            matrix = np.asarray(vectors, dtype=dtype).reshape(len(records), self.embedding_dim)
            rows = matrix.astype(np.float64, copy=False)
            # one dot product per row, as is_normalized takes a vector's norm, with no temporary matrix
            norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).ravel())
            bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
            if bad.size:
                raise NotNormalizedError(f"{records[bad[0]].id} embedding is not unit length")
            matrices.append(matrix)
        return matrices[0], matrices[1]

    def _build_caches(self, incidence: tuple) -> None:
        walk = _uniform_walk(self, incidence)
        self._node_order = [rec.id for rec in (*self.passages, *self.propositions, *self.entities)]
        self._degrees = np.diff(walk.indptr).astype(np.float64)
        # each proposition's first neighbor is its passage, as passages come first
        self._prop_passage = walk.indices[walk.indptr[self.proposition_rows]]
        self._twins = _twin_classes(walk)
        # The adjacency is symmetric, so the transpose has the walk's pattern,
        # and entry (i, j) is 1/deg(j): the same floats a transpose would give.
        transposed = sp.csr_matrix((1.0 / self._degrees[walk.indices], walk.indices, walk.indptr), shape=walk.shape)
        self._sides = _side_blocks(walk, self._degrees, self.proposition_rows)
        for matrix in (walk, transposed, *self._sides):
            for array in (matrix.data, matrix.indices, matrix.indptr):
                array.flags.writeable = False
        for array in (self._degrees, self._prop_passage, self._twins, self._prop_embeddings, self._entity_embeddings):
            array.flags.writeable = False
        self._uniform_csr, self._transposed_csr = walk, transposed

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise GraphNotFinalizedError("call finalize() first")

    @property
    def proposition_embeddings(self) -> np.ndarray:
        """One row per proposition: the exact float64 values of its float32 vector."""
        self._require_finalized()
        return self._prop_embeddings

    @property
    def entity_embeddings(self) -> np.ndarray:
        self._require_finalized()
        return self._entity_embeddings

    @property
    def node_order(self) -> list[NodeId]:
        self._require_finalized()
        return self._node_order

    @property
    def uniform_transition(self) -> sp.csr_matrix:
        """Row-stochastic uniform-over-neighbors walk matrix over all nodes.

        Rows and columns follow :attr:`node_order`; each row's column
        indices are sorted. Its pattern is the graph's adjacency.
        """
        self._require_finalized()
        return self._uniform_csr

    @property
    def transposed_transition(self) -> sp.csr_matrix:
        """:attr:`uniform_transition` transposed, the operator a walk's distribution steps by."""
        self._require_finalized()
        return self._transposed_csr

    @property
    def side_transitions(self) -> tuple[sp.csr_matrix, sp.csc_matrix]:
        """The two blocks of :attr:`transposed_transition` that a step uses: propositions to hubs, hubs to propositions.

        The graph is bipartite, propositions on one side and the hubs,
        passages then entities in node order, on the other, so every other
        block is empty, and a distribution on one side steps to the other
        by one block. The second is column-major: a product then runs over
        the few hubs rather than the many short proposition rows, in about
        half the time.
        """
        self._require_finalized()
        return self._sides

    @property
    def global_degrees(self) -> np.ndarray:
        self._require_finalized()
        return self._degrees

    @property
    def proposition_passages(self) -> np.ndarray:
        """Global index of each proposition's passage."""
        self._require_finalized()
        return self._prop_passage

    @property
    def twin_classes(self) -> np.ndarray:
        """Each node's twin class: the least index of the nodes whose neighbor list equals its own."""
        self._require_finalized()
        return self._twins


def _incidence(graph: HeteroGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each proposition's passage index and entity-ref count, and all refs in order."""
    props = graph.propositions
    passage = np.fromiter((p.passage.index for p in props), dtype=np.int64, count=len(props))
    counts = np.fromiter((len(p.entity_refs) for p in props), dtype=np.int64, count=len(props))
    refs = np.fromiter((e.index for p in props for e in p.entity_refs), dtype=np.int64, count=int(counts.sum()))
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


def _twin_classes(walk: sp.csr_matrix, keys: np.ndarray | None = None) -> np.ndarray:
    """Each row's twin class under :attr:`HeteroGraph.twin_classes`, from ``walk``'s pattern.

    A neighbor list is hashed as the wrapping sum of one 64-bit key per
    neighbor (``keys``, seeded random by default). Rows of equal degree
    and hash are then compared entry by entry, and a group whose rows
    differ is split exactly, so a collision never joins two classes.
    """
    n = walk.shape[0]
    indptr, indices = walk.indptr, walk.indices
    degrees = np.diff(indptr)
    if keys is None:
        keys = np.random.default_rng(0).integers(0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True)
    hashes = np.zeros(n, dtype=np.uint64)
    filled = np.flatnonzero(degrees)
    if filled.size:
        hashes[filled] = np.add.reduceat(keys[indices], indptr[filled])
    order = np.lexsort((np.arange(n), hashes, degrees))
    starts = np.ones(n, dtype=bool)
    starts[1:] = (degrees[order[1:]] != degrees[order[:-1]]) | (hashes[order[1:]] != hashes[order[:-1]])
    group = np.cumsum(starts) - 1
    classes = np.empty(n, dtype=np.int64)
    classes[order] = order[starts][group]
    # every row against the first row of its group, entry by entry
    rows = np.flatnonzero(classes != np.arange(n))
    lengths = degrees[rows]
    step = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    differ = indices[np.repeat(indptr[rows], lengths) + step] != indices[np.repeat(indptr[classes[rows]], lengths) + step]
    for leader in np.unique(classes[rows[np.repeat(np.arange(len(rows)), lengths)[differ]]]).tolist():
        first: dict[tuple, int] = {}
        for row in np.flatnonzero(classes == leader).tolist():
            classes[row] = first.setdefault(tuple(indices[indptr[row] : indptr[row + 1]].tolist()), row)
    return classes


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
        fh.write(matrix.tobytes())


def _read_embeddings(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < _EMBEDDING_HEADER.size:
        raise CorruptFileError(f"{path.name}: missing embedding header")
    rows, dim = _EMBEDDING_HEADER.unpack_from(raw)
    expected = _EMBEDDING_HEADER.size + rows * dim * 4
    if len(raw) != expected:
        raise CorruptFileError(f"{path.name}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype="<f4", offset=_EMBEDDING_HEADER.size).reshape(int(rows), int(dim))


def _counts(graph: HeteroGraph) -> dict[str, int]:
    """The manifest's ``counts`` of a finalized graph."""
    return {
        "passages": len(graph.passages),
        "propositions": len(graph.propositions),
        "entities": len(graph.entities),
        "edges": graph.edge_count,
    }


def _write_records(path: Path, rows) -> None:
    """One JSON object per line, keys sorted; line i holds the record whose id is i."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def save(graph: HeteroGraph, path: str | Path) -> None:
    """Write ``graph`` to a directory; see :func:`load` for the inverse."""
    graph._require_finalized()
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": GRAPH_FORMAT,
        "format_version": GRAPH_FORMAT_VERSION,
        "counts": _counts(graph),
        "embedding_dim": graph.embedding_dim,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _write_records(
        root / "passages.jsonl",
        (
            {"id": rec.id.index, "text": rec.text, "source_doc": rec.source_doc, "char_span": list(rec.char_span)}
            for rec in graph.passages
        ),
    )
    _write_records(
        root / "propositions.jsonl",
        (
            {
                "id": rec.id.index,
                "text": rec.text,
                "passage": rec.passage.index,
                "entities": [e.index for e in rec.entity_refs],
            }
            for rec in graph.propositions
        ),
    )
    _write_records(
        root / "entities.jsonl",
        ({"id": rec.id.index, "name": rec.canonical_name, "aliases": rec.aliases} for rec in graph.entities),
    )
    tags = [node.tag() for node in graph.node_order]
    with open(root / "edges.txt", "w") as fh:
        fh.writelines(f"{tags[a]}\t{tags[b]}\n" for a, b in zip(*(x.tolist() for x in _edge_pairs(graph.uniform_transition))))
    _write_embeddings(root / "proposition_embeddings.bin", graph.proposition_embeddings)
    _write_embeddings(root / "entity_embeddings.bin", graph.entity_embeddings)


def _parse_edge_file(path: Path, graph: HeteroGraph) -> tuple[np.ndarray, np.ndarray]:
    """The edges in ``edges.txt`` as global index pairs (a, b), a < b, in ascending order."""
    # one row per line, one (kind, index) pair per tag
    fields = np.array(path.read_text().replace(":", " ").split(), dtype=str).reshape(-1, 2, 2)
    names, index = fields[..., 0], fields[..., 1].astype(np.int64)
    nodes = np.full(index.shape, -1, dtype=np.int64)
    offset = 0
    for kind in NodeKind:  # declared in global order
        count = len(graph._records(kind))
        known = (names == kind.value) & (index >= 0) & (index < count)
        nodes[known] = offset + index[known]
        offset += count
    if (nodes < 0).any():
        raise CorruptFileError(f"{path.name}: edge references unknown node")
    a, b = nodes.min(axis=1), nodes.max(axis=1)
    order = np.lexsort((b, a))
    return a[order], b[order]


def _read_records(path: Path):
    """Each (line position, object) of a JSONL record file whose ``id`` is its line position."""
    with open(path) as fh:
        for position, line in enumerate(fh):
            obj = json.loads(line)
            if obj["id"] != position:
                raise CorruptFileError(f"{path.name}: line {position + 1} has id {obj['id']!r}")
            yield position, obj


def load(path: str | Path) -> HeteroGraph:
    """Load and finalize a graph directory written by :func:`save`; any inconsistency is a ``CorruptFileError``."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorruptFileError(f"{root}: no manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise CorruptFileError(f"{root}: unreadable manifest: {err}") from err
    if manifest.get("format") != GRAPH_FORMAT:
        raise CorruptFileError(f"{root}: not a graph directory")
    if manifest.get("format_version") != GRAPH_FORMAT_VERSION:
        raise VersionMismatchError(
            f"{root}: format version {manifest.get('format_version')} unsupported "
            f"(expected {GRAPH_FORMAT_VERSION})"
        )
    counts = manifest.get("counts", {})

    graph = HeteroGraph()
    try:
        graph._prop_embeddings = props = _read_embeddings(root / "proposition_embeddings.bin")
        graph._entity_embeddings = ents = _read_embeddings(root / "entity_embeddings.bin")
        dims = [props.shape[1], ents.shape[1], manifest.get("embedding_dim", props.shape[1])]
        if dims.count(dims[0]) != 3:
            raise CorruptFileError(f"{root}: proposition, entity and manifest embedding dimensions {dims} differ")
        graph._embedding_dim = props.shape[1]
        graph.passages = [
            PassageRecord(passage_id(i), obj["text"], obj["source_doc"], tuple(obj["char_span"]))
            for i, obj in _read_records(root / "passages.jsonl")
        ]
        graph.propositions = [
            PropositionRecord(
                proposition_id(i), obj["text"], passage_id(obj["passage"]), [entity_id(e) for e in obj["entities"]]
            )
            for i, obj in _read_records(root / "propositions.jsonl")
        ]
        graph.entities = [
            EntityRecord(entity_id(i), obj["name"], list(obj["aliases"]))
            for i, obj in _read_records(root / "entities.jsonl")
        ]
        cited = len(graph.entities)
        graph.finalize()
        if len(graph.entities) != cited:
            raise CorruptFileError(f"{root}: {cited - len(graph.entities)} entities are cited by no proposition")
        edges = _parse_edge_file(root / "edges.txt", graph)
    except (KeyError, ValueError, IndexError, TypeError, json.JSONDecodeError) as err:
        raise CorruptFileError(f"{root}: corrupt graph file: {err}") from err

    if counts != _counts(graph):
        raise CorruptFileError(f"{root}: manifest counts {counts} != graph {_counts(graph)}")
    if not all(np.array_equal(x, y) for x, y in zip(edges, _edge_pairs(graph.uniform_transition))):
        raise CorruptFileError(f"{root}: edges.txt does not match the propositions' passages and entities")
    return graph
