"""Corpus-to-graph pipeline: chunking, extraction, reconciliation.

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
from typing import Iterable, Iterator

import numpy as np

from .config import RunConfig
from .encoding import EmbedBackend, GrowingRows, cosine
from .errors import BackendUnavailable, DimensionMismatchError, EmptyTextError, ExtractionFailed, InputFileError
# GraphStats and graph_stats are re-exported: the counts of an indexed graph
from .graph import GraphStats, HeteroGraph, NodeId, entity_id, graph_stats
from .llm import LLMGateway
from .tokens import estimate_tokens

log = logging.getLogger(__name__)

_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")


@dataclass
class CorpusDocument:
    doc_id: str
    text: str


@dataclass
class Chunk:
    text: str
    span: tuple[int, int]


def _sentence_spans(text: str) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    start = 0
    for match in _SENTENCE_END.finditer(text):
        spans.append((start, match.start()))
        start = match.end()
    if start < len(text):
        spans.append((start, len(text)))
    return [s for s in spans if text[s[0] : s[1]].strip()]


def chunk(doc: CorpusDocument, cfg: RunConfig) -> list[Chunk]:
    """Split a document into sentence-respecting passages.

    Sentences are packed greedily up to ``chunk_target_tokens``; an
    oversized single sentence becomes its own passage. Chunk spans are
    contiguous (each ends where the next begins) so they cover the
    document; with a nonzero ``chunk_overlap_tokens``, trailing sentences
    of one chunk are replayed at the start of the next.
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
        if current and current_tokens + t > cfg.chunk_target_tokens:
            groups.append(current)
            current = []
            current_tokens = 0
            if cfg.chunk_overlap_tokens > 0:
                carried: list[int] = []
                carried_tokens = 0
                for j in reversed(groups[-1]):
                    st = estimate_tokens(doc.text[sentences[j][0] : sentences[j][1]])
                    if carried_tokens + st > cfg.chunk_overlap_tokens:
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
        start = sentences[group[0]][0] if gi else 0
        if gi + 1 == len(groups):
            end = len(doc.text)
        elif cfg.chunk_overlap_tokens == 0:
            end = sentences[groups[gi + 1][0]][0]  # contiguous, covering spans
        else:
            end = sentences[group[-1]][1]
        chunks.append(Chunk(doc.text[start:end], (start, end)))
    return chunks


class EntityRegistry:
    """Greedy streaming entity reconciliation.

    A new surface joins the first canonical entity whose name matches
    case-insensitively (checked against every recorded surface form) or
    whose founder embedding clears ``synonym_threshold`` by ``cosine``;
    otherwise it founds a new canonical entity.

    The founders' vectors are the rows of one float64 matrix that grows in
    place (:class:`~propgraph.encoding.GrowingRows`), so a new surface is
    scored against all of them with one mat-vec. That score only rules
    founders out: a founder is skipped when its score is below the threshold
    by more than the rounding gap between the mat-vec and ``cosine``, and
    every other founder is decided by ``cosine`` itself, in ascending id
    order. So each decision is the one a loop of ``cosine`` over all
    founders would make, with the founders' vectors held as contiguous
    float64 arrays (the embedders return contiguous vectors).
    """

    def __init__(self, cfg: RunConfig | None = None):
        self.cfg = cfg or RunConfig()
        self._founders = GrowingRows(np.empty((0, 0)))
        self._founder_max_abs = 0.0  # max |entry| of the founders without a NaN (those score NaN)
        # Reused by every resolve: a fresh mask of a new length per call
        # fragments the heap, which showed as +1.3 MB peak RSS on the bench.
        self._candidate = np.empty(0, dtype=bool)
        self._surface_to_id: dict[str, int] = {}

    def new_surfaces(self, surfaces: Iterable[str]) -> list[str]:
        """The surfaces whose embeddings :meth:`resolve` would read, in order.

        These are the first surface of each lower-cased key that no
        ``resolve`` has met yet; any other surface resolves by its name.
        """
        new: dict[str, str] = {}
        for surface in surfaces:
            key = surface.lower()
            if key not in self._surface_to_id:
                new.setdefault(key, surface)
        return list(new.values())

    def resolve(self, surface: str, embedding: np.ndarray | None) -> tuple[int, bool]:
        """Return (canonical id, founded) for a surface form.

        ``embedding`` is read only for a surface of :meth:`new_surfaces`.
        Raises ``DimensionMismatchError`` for an embedding that is not 1-d,
        or, once an entity exists, not of the founders' dimension.
        """
        key = surface.lower()
        if key in self._surface_to_id:
            return self._surface_to_id[key], False
        vec = np.asarray(embedding, dtype=np.float64)
        if vec.ndim != 1:
            raise DimensionMismatchError(f"expected a 1-d embedding, got shape {vec.shape}")
        n = self._founders.count
        idx = self._first_synonym(vec, n) if n else None
        founded = idx is None
        if founded:
            idx = n
            self._found(vec)
        self._surface_to_id[key] = idx
        return idx, founded

    def _first_synonym(self, vec: np.ndarray, n: int) -> int | None:
        # checked before any view of the founders exists, so the error's traceback holds none
        if vec.shape[0] != self._founders.matrix.shape[1]:
            raise DimensionMismatchError(f"dimension mismatch: {vec.shape} vs {self._founders.matrix.shape[1:]}")
        founders = self._founders.matrix[:n]
        threshold = self.cfg.synonym_threshold
        # The mat-vec and np.dot sum the same products in different orders,
        # so they differ by at most 2*dim*u*sum|a_j*b_j| (u = 2**-53), and
        # sum|a_j*b_j| <= bound; 1e-9*bound covers that up to dim 4e6.
        # `tiny` covers products that underflow, whose error is absolute.
        # A NaN or infinite bound rules nothing out.
        bound = vec.shape[0] * float(np.abs(vec).max(initial=0.0)) * self._founder_max_abs
        margin = 1e-9 * bound + np.finfo(np.float64).tiny
        candidate = np.less(founders @ vec, threshold - margin, out=self._candidate[:n])
        np.logical_not(candidate, out=candidate)  # so NaN scores stay candidates
        for idx in np.flatnonzero(candidate):
            if cosine(vec, founders[idx]) >= threshold:
                return int(idx)
        return None

    def _found(self, vec: np.ndarray) -> None:
        self._founders.append(vec)
        if len(self._candidate) != len(self._founders.matrix):
            self._candidate = np.empty(len(self._founders.matrix), dtype=bool)
        largest = float(np.abs(vec).max(initial=0.0))
        if largest > self._founder_max_abs:
            self._founder_max_abs = largest


def index_corpus(
    docs: list[CorpusDocument],
    gateway: LLMGateway,
    embedder: EmbedBackend,
    cfg: RunConfig | None = None,
) -> HeteroGraph:
    """Build and finalize a graph from a corpus, chunked and reconciled as ``cfg`` says.

    Per chunk: extract entities and propositions, embed in one request the
    entity surfaces new to the global registry and the propositions, merge
    the entities into the registry, then wire nodes and edges. A chunk
    whose extraction fails twice is kept as a bare passage and skipped. A
    backend that is unavailable fails the whole index at once, with a
    ``BackendUnavailable`` naming the document and the chunk's span.
    """
    cfg = cfg or RunConfig()
    graph = HeteroGraph()
    registry = EntityRegistry(cfg)
    for doc in docs:
        for piece in chunk(doc, cfg):
            pid = graph.add_passage(piece.text, doc.doc_id, piece.span)
            try:
                surfaces = gateway.extract_entities(piece.text)
                extracted = gateway.extract_propositions(piece.text, surfaces)
                new = registry.new_surfaces(surfaces)
                texts = [text for text, _ in extracted]
                vecs = embedder.embed(new + texts) if new or texts else []
            except ExtractionFailed as err:
                log.warning("extraction failed for %s %s: %s", doc.doc_id, piece.span, err)
                continue
            except BackendUnavailable as err:
                raise BackendUnavailable(f"while indexing {doc.doc_id} {piece.span}: {err}") from err
            new_vecs, text_vecs = dict(zip(new, vecs)), vecs[len(new) :]  # zip stops at the surfaces
            surface_ids: dict[str, NodeId] = {}
            for surface in surfaces:
                idx, founded = registry.resolve(surface, new_vecs.get(surface))
                if founded:
                    graph.add_entity(surface, new_vecs[surface])
                else:
                    graph.add_entity_alias(entity_id(idx), surface)
                surface_ids[surface] = entity_id(idx)
            for (text, refs), emb in zip(extracted, text_vecs):
                graph.add_proposition(text, pid, [surface_ids[r] for r in refs], emb)
    del registry  # frees the founder matrix before finalize's memory peak
    return graph.finalize()


def _read_text(path: Path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise InputFileError(f"{path}: not valid UTF-8: {err}") from err


def read_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """The objects of a JSONL file, each with its ``path:line``; blank lines are skipped."""
    # read_text turns every line ending into "\n", so these are the lines that iterating the file gives
    for number, line in enumerate(_read_text(Path(path)).split("\n"), start=1):
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
            docs.append(CorpusDocument(f.name, _read_text(f)))
        return docs
    docs = []
    for where, obj in read_jsonl(p):
        if "doc_id" not in obj or not isinstance(obj.get("text"), str):
            raise InputFileError(f"{where}: a corpus row needs a doc_id and a text string")
        docs.append(CorpusDocument(str(obj["doc_id"]), obj["text"]))
    return docs
