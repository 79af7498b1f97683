"""Embedding backends, cosine similarity and exact top-k search.

All stored vectors are unit-normalized float32 so cosine similarity reduces
to a dot product. Exact search is used throughout: the corpora this engine
targets stay well below the scale where approximate indexes pay off.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

from .errors import BackendUnavailable, DimensionMismatchError
from .http_json import OpenAICompatClient

NORM_TOL = 1e-6

DEFAULT_MOCK_DIM = 256

_GRAM_CACHE_SIZE = 1 << 16


def normalize(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Return ``values`` as a unit-length float32 vector.

    A zero vector cannot be normalized; it maps to the first basis vector so
    downstream code never sees NaNs.
    """
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {vec.shape}")
    # np.linalg.norm of a real 1-d vector is this square root of its dot
    # product with itself; taking it directly skips the dispatch
    norm = math.sqrt(vec.dot(vec))
    if norm == 0.0:
        out = np.zeros(vec.shape[0], dtype=np.float32)
        out[0] = 1.0
        return out
    return (vec / norm).astype(np.float32)


def is_normalized(vec: np.ndarray, tol: float = NORM_TOL) -> bool:
    return abs(float(np.linalg.norm(np.asarray(vec, dtype=np.float64))) - 1.0) <= tol


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit vectors (their dot product)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def top_k_similar(query: np.ndarray, candidates: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Exact top-k rows of ``candidates`` by cosine against ``query``.

    Ties are broken by ascending row index so rankings are reproducible.
    Returns fewer than ``k`` pairs when there are fewer candidates.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    candidates = np.asarray(candidates)
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise ValueError("candidate matrix must be non-empty and 2-d")
    query = np.asarray(query, dtype=np.float64)
    if candidates.shape[1] != query.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: query {query.shape[0]} vs candidates {candidates.shape[1]}"
        )
    scores = np.asarray(candidates, dtype=np.float64) @ query
    negated = -scores
    kth = min(k, len(scores)) - 1
    # Only rows scoring at least the k-th highest score can rank in the
    # first k. A NaN there (fewer than k scores are numbers) keeps every row.
    head = np.flatnonzero(~(negated > np.partition(negated, kth)[kth]))
    order = head[np.lexsort((head, negated[head]))]
    return [(int(i), float(scores[i])) for i in order[:k]]


class EmbedBackend:
    """Interface every embedding backend implements."""

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        raise NotImplementedError

    def dimension(self) -> int:
        raise NotImplementedError

    def embed_one(self, text: str) -> np.ndarray:
        return self.embed([text])[0]


class _GramCodes(dict):
    """Each gram's hashed bucket and sign in ``dim`` dimensions, hashed on first lookup.

    A gram's code is its bucket, plus ``dim`` when its sign is negative. At
    most ``_GRAM_CACHE_SIZE`` grams are held: when full, the map is emptied
    and refills from the grams that come next. Threads may share one map:
    every writer stores the same code for a gram, and a lookup returns the
    code it found or computed, so a race costs at most one more hash.
    """

    def __init__(self, dim: int):
        super().__init__()
        self._dim = dim

    def __missing__(self, gram: str) -> int:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=9).digest()
        code = int.from_bytes(digest[:8], "little") % self._dim + digest[8] % 2 * self._dim
        if len(self) >= _GRAM_CACHE_SIZE:
            self.clear()
        self[gram] = code
        return code


class HashedNgramEmbedder(EmbedBackend):
    """Deterministic offline encoder hashing character 3-grams.

    Each 3-gram of the lowercased text is hashed (blake2b, so results are
    stable across processes) to a bucket and a sign; lexically overlapping
    texts therefore land close in cosine while unrelated texts stay near
    orthogonal. Byte-identical inputs produce byte-identical vectors.

    Each instance hashes a gram once and keeps its bucket and sign in a map
    of at most 2**16 grams, emptied when full: about 10 MB at worst (grams of
    three non-BMP characters), 0.23 MB for the 2,684 distinct grams of the
    benchmark's index. A vector is a sum of +1.0 and -1.0 terms, exact
    integers in float64 whatever the order of addition, so it has the same
    bits as when every gram was hashed on every call.
    """

    def __init__(self, dim: int = DEFAULT_MOCK_DIM, ngram: int = 3):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self._dim = dim
        self._n = ngram
        self._codes = _GramCodes(dim)

    def dimension(self) -> int:
        return self._dim

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self._encode(t) for t in texts]

    def _encode(self, text: str) -> np.ndarray:
        lowered = text.lower()
        if len(lowered) < self._n:
            grams = [lowered]
        else:
            grams = [lowered[i : i + self._n] for i in range(len(lowered) - self._n + 1)]
        counts = np.bincount([self._codes[gram] for gram in grams], minlength=2 * self._dim)
        return normalize((counts[: self._dim] - counts[self._dim :]).astype(np.float64))


class OpenAICompatEmbedder(EmbedBackend):
    """Client for an OpenAI-compatible ``/embeddings`` endpoint.

    Sends batched inputs and returns one vector per input, in order.
    Responses are re-normalized locally since not every served model
    guarantees unit vectors; a served vector that does not normalize to unit
    length (non-finite entries, or a norm that overflows) is a malformed
    body and is retried. A served vector of another length than ``dim``
    (given, or once probed) raises ``DimensionMismatchError``, not retried.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        api_key_env: str = "OPENAI_API_KEY",
        dim: int | None = None,
        batch_size: int = 64,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
    ):
        self.client = OpenAICompatClient(base_url, model, api_key, api_key_env, timeout, max_retries, backoff)
        self._dim = dim
        self.batch_size = batch_size

    def dimension(self) -> int:
        if self._dim is None:
            self._dim = self.embed(["dimension probe"])[0].shape[0]
        return self._dim

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            batch = list(texts[start : start + self.batch_size])
            out.extend(self.client.post("embeddings", {"input": batch}, lambda body: self._parse(body, len(batch))))
        return out

    def _parse(self, body, n_inputs: int) -> list[np.ndarray]:
        # a served vector whose norm overflows, or that holds a NaN, is
        # rejected below; it need not warn on the way
        with np.errstate(over="ignore", invalid="ignore"):
            vectors = [normalize(item["embedding"]) for item in sorted(body["data"], key=lambda d: d["index"])]
        if len(vectors) != n_inputs:
            raise BackendUnavailable(f"embeddings endpoint returned {len(vectors)} vectors for {n_inputs} inputs")
        for vec in vectors:
            if not is_normalized(vec):
                raise ValueError("embeddings endpoint served a vector that does not normalize to unit length")
            if self._dim is not None and vec.shape[0] != self._dim:
                raise DimensionMismatchError(f"embeddings endpoint served a {vec.shape[0]}-d vector, expected {self._dim}-d")
        return vectors
