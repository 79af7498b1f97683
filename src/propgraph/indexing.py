"""Corpus-to-graph pipeline: chunking, extraction, reconciliation, stats.

Indexing is deterministic for a fixed document order and deterministic
backends: chunks are processed in order and entity reconciliation is a
greedy streaming merge, so re-running on the same corpus reproduces the
same graph node for node.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .encoding import EmbedBackend, cosine
from .errors import EmptyTextError, ExtractionFailed, InputFileError
from .graph import HeteroGraph, NodeId, entity_id
from .llm import LLMGateway
from .tokens import estimate_tokens

log = logging.getLogger(__name__)

_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")


@dataclass
class CorpusDocument:
    doc_id: str
    text: str


@dataclass
class ChunkingPolicy:
    target_tokens: int = 300
    overlap_tokens: int = 0

    def __post_init__(self) -> None:
        if self.target_tokens < 1:
            raise ValueError("target_tokens must be >= 1")
        if not 0 <= self.overlap_tokens < self.target_tokens:
            raise ValueError("overlap_tokens must be in [0, target_tokens)")


@dataclass
class ReconciliationPolicy:
    synonym_threshold: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.synonym_threshold <= 1.0:
            raise ValueError("synonym_threshold must be in [0, 1]")


@dataclass
class Chunk:
    text: str
    span: tuple[int, int]


@dataclass
class GraphStats:
    passages: int
    propositions: int
    entities: int
    edges: int

    def as_dict(self) -> dict:
        return {
            "passages": self.passages,
            "propositions": self.propositions,
            "entities": self.entities,
            "edges": self.edges,
        }


def _sentence_spans(text: str) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    start = 0
    for match in _SENTENCE_END.finditer(text):
        spans.append((start, match.start()))
        start = match.end()
    if start < len(text):
        spans.append((start, len(text)))
    return [s for s in spans if text[s[0] : s[1]].strip()]


def chunk(doc: CorpusDocument, policy: ChunkingPolicy = ChunkingPolicy()) -> list[Chunk]:
    """Split a document into sentence-respecting passages.

    Sentences are packed greedily up to the token target; an oversized
    single sentence becomes its own passage. Chunk spans are contiguous
    (each ends where the next begins) so they cover the document; with a
    nonzero overlap, trailing sentences of one chunk are replayed at the
    start of the next.
    """
    if not doc.text:
        raise EmptyTextError(f"document {doc.doc_id} is empty")
    sentences = _sentence_spans(doc.text)
    if not sentences:
        return [Chunk(doc.text, (0, len(doc.text)))]

    groups: list[list[int]] = []
    current: list[int] = []
    current_tokens = 0
    for idx, (a, b) in enumerate(sentences):
        t = estimate_tokens(doc.text[a:b])
        if current and current_tokens + t > policy.target_tokens:
            groups.append(current)
            current = []
            current_tokens = 0
            if policy.overlap_tokens > 0:
                carried: list[int] = []
                carried_tokens = 0
                for j in reversed(groups[-1]):
                    st = estimate_tokens(doc.text[sentences[j][0] : sentences[j][1]])
                    if carried_tokens + st > policy.overlap_tokens:
                        break
                    carried.insert(0, j)
                    carried_tokens += st
                current = carried
                current_tokens = carried_tokens
        current.append(idx)
        current_tokens += t
    if current:
        groups.append(current)

    chunks: list[Chunk] = []
    for gi, group in enumerate(groups):
        if gi == 0:
            start = 0
        elif policy.overlap_tokens == 0:
            start = chunks[-1].span[1]  # contiguous, covering spans
        else:
            start = sentences[group[0]][0]
        if gi + 1 == len(groups):
            end = len(doc.text)
        elif policy.overlap_tokens == 0:
            fresh_next = [i for i in groups[gi + 1] if i not in group]
            end = sentences[fresh_next[0]][0]
        else:
            end = sentences[group[-1]][1]
        chunks.append(Chunk(doc.text[start:end], (start, end)))
    return chunks


class EntityRegistry:
    """Greedy streaming entity reconciliation.

    A new surface joins the first canonical entity whose name matches
    case-insensitively (checked against every recorded surface form) or
    whose founder embedding clears the synonym threshold; otherwise it
    founds a new canonical entity.
    """

    def __init__(self, policy: ReconciliationPolicy = ReconciliationPolicy()):
        self.policy = policy
        self._names: list[str] = []
        self._embeddings: list[np.ndarray] = []
        self._surface_to_id: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._names)

    def resolve(self, surface: str, embedding: np.ndarray) -> tuple[int, bool]:
        """Return (canonical id, founded) for a surface form."""
        key = surface.lower()
        if key in self._surface_to_id:
            return self._surface_to_id[key], False
        for idx, emb in enumerate(self._embeddings):
            if cosine(embedding, emb) >= self.policy.synonym_threshold:
                self._surface_to_id[key] = idx
                return idx, False
        idx = len(self._names)
        self._names.append(surface)
        self._embeddings.append(np.asarray(embedding))
        self._surface_to_id[key] = idx
        return idx, True


def reconcile_entities(
    entities: list[tuple[str, np.ndarray]], policy: ReconciliationPolicy = ReconciliationPolicy()
) -> dict[str, int]:
    """Map each surface form to a canonical entity id via streaming merge."""
    registry = EntityRegistry(policy)
    mapping: dict[str, int] = {}
    for surface, embedding in entities:
        idx, _ = registry.resolve(surface, embedding)
        mapping.setdefault(surface, idx)
    return mapping


def index_corpus(
    docs: list[CorpusDocument],
    gateway: LLMGateway,
    embedder: EmbedBackend,
    chunking: ChunkingPolicy = ChunkingPolicy(),
    reconciliation: ReconciliationPolicy = ReconciliationPolicy(),
) -> HeteroGraph:
    """Build and finalize a graph from a corpus.

    Per chunk: extract entities, extract propositions, embed both, merge
    entities into the global registry, then wire nodes and edges. A chunk
    whose extraction fails twice is kept as a bare passage and skipped.
    """
    graph = HeteroGraph()
    registry = EntityRegistry(reconciliation)
    for doc in docs:
        for piece in chunk(doc, chunking):
            pid = graph.add_passage(piece.text, doc.doc_id, piece.span)
            try:
                surfaces = gateway.extract_entities(piece.text)
                extracted = gateway.extract_propositions(piece.text, surfaces)
            except ExtractionFailed as err:
                log.warning("extraction failed for %s %s: %s", doc.doc_id, piece.span, err)
                continue
            surface_ids: dict[str, NodeId] = {}
            if surfaces:
                for surface, emb in zip(surfaces, embedder.embed(surfaces)):
                    idx, founded = registry.resolve(surface, emb)
                    if founded:
                        graph.add_entity(surface, emb)
                    else:
                        graph.add_entity_alias(entity_id(idx), surface)
                    surface_ids[surface] = entity_id(idx)
            if extracted:
                texts = [text for text, _ in extracted]
                for (text, refs), emb in zip(extracted, embedder.embed(texts)):
                    graph.add_proposition(text, pid, [surface_ids[r] for r in refs], emb)
    return graph.finalize()


def graph_stats(graph: HeteroGraph) -> GraphStats:
    return GraphStats(
        passages=len(graph.passages),
        propositions=len(graph.propositions),
        entities=len(graph.entities),
        edges=graph.edge_count,
    )


def read_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """The objects of a JSONL file, each with its ``path:line``; blank lines are skipped."""
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{number}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise InputFileError(f"{where}: {err}") from err
            if not isinstance(obj, dict):
                raise InputFileError(f"{where}: expected a JSON object")
            yield where, obj


def load_corpus(path: str | Path) -> list[CorpusDocument]:
    """Read a corpus from a directory of .txt files or a JSONL file.

    Directory mode uses the file name as doc_id and sorts for determinism;
    JSONL mode expects one object per line with ``doc_id`` and ``text``.
    """
    p = Path(path)
    if p.is_dir():
        docs = []
        for f in sorted(p.glob("*.txt")):
            docs.append(CorpusDocument(f.name, f.read_text()))
        return docs
    docs = []
    for where, obj in read_jsonl(p):
        if "doc_id" not in obj or not isinstance(obj.get("text"), str):
            raise InputFileError(f"{where}: a corpus row needs a doc_id and a text string")
        docs.append(CorpusDocument(str(obj["doc_id"]), obj["text"]))
    return docs
