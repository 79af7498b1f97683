"""Embedding backends, cosine similarity and exact top-k search.

All stored vectors are unit-normalized float32 so cosine similarity reduces
to a dot product. They stay float32 from the embedder to the graph's stores
and files; similarity scores are float64. Exact search is used throughout:
the corpora this engine targets stay well below the scale where approximate
indexes pay off. :func:`top_k_similar` scans a float32 matrix in float32 and
scores in float64 only the rows a rounding-error bound cannot rule out, so
it ranks as a float64 scan of every row does.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

from .errors import BackendUnavailable, DimensionMismatchError
from .http_json import OpenAICompatClient

NORM_TOL = 1e-6

# Above the exact norm of every row of a finalized graph's vector stores.
# Finalizing rejects a row whose float64 norm, one dot product and a square
# root, is off 1 by more than NORM_TOL; that norm is within a relative
# (d + 1) 2^-53 of the exact one, far below NORM_TOL for any dimension d
# under 10^9, so the exact norm is below 1 + NORM_TOL + NORM_TOL.
STORED_NORM_BOUND = 1.0 + 2.0 * NORM_TOL

DEFAULT_MOCK_DIM = 256

_GRAM_CACHE_SIZE = 1 << 16

_NGRAM = 3  # HashedNgramEmbedder's gram length, in characters


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


class GrowingRows:
    """Vectors written row by row into one matrix that grows in place.

    Rows below ``count`` are written and the rest of ``matrix`` is spare
    capacity: 64 rows at first, then half again the rows written each time
    it fills. ``matrix`` grows and is trimmed with ``ndarray.resize``, which
    reallocates its buffer rather than copying it into a new array.

    The resize skips numpy's reference check (``refcheck=False``). That
    check counts references to the array, and a profile or trace hook
    (cProfile, coverage, a debugger) holds one more while a method of the
    array runs, so under a hook it refuses every resize. What the check
    guards against is a view of ``matrix`` alive at an append or a trim,
    which would go on reading the freed buffer. None can be: a graph gives
    out its vector stores only once it is frozen and they no longer grow,
    and the entity registry makes its views of the founders only within
    one ``resolve``, after the one check that raises.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix
        self.count = len(matrix)

    def append(self, row: np.ndarray) -> None:
        if self.count == len(self.matrix):
            self.matrix.resize((max(64, self.count + self.count // 2), len(row)), refcheck=False)
        self.matrix[self.count] = row
        self.count += 1

    def trim(self, width: int) -> None:
        """Drop the spare capacity; ``width`` sets the columns of a matrix no row was appended to."""
        if self.matrix.shape != (self.count, width):
            self.matrix.resize((self.count, width), refcheck=False)


def top_k_similar(
    query: np.ndarray, candidates: np.ndarray, k: int, norm_bound: float | None = None
) -> list[tuple[int, float]]:
    """Exact top-k rows of ``candidates`` by cosine against ``query``.

    Rows are ranked by their float64 scores, the dot products of the
    float64 values of each row and of ``query``; ties are broken by
    ascending row index so rankings are reproducible. Returns fewer than
    ``k`` pairs when there are fewer candidates.

    Each scored row gets its own float64 dot product with ``query``, so a
    row's score does not depend on where it sits in the matrix and equal
    rows score equally. (A float64 mat-vec of the whole matrix rounds
    rows differently by position, and may differ from these scores in
    the last bits.) A float32 matrix is scanned in float32 first, and
    only the rows that :func:`_float32_candidates` proves can rank in the
    first ``k`` are scored. Any other matrix, and a float32 one whose
    scan cannot decide, has every row scored. ``norm_bound``, when given,
    must be at least the exact norm of every row, as
    :data:`STORED_NORM_BOUND` is for a finalized graph's stores; the scan
    then takes it rather than a pass over the matrix. The ranking is the
    same either way.
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
    rows = _float32_candidates(query, candidates, k, norm_bound) if candidates.dtype == np.float32 else None
    if rows is None:
        rows = np.arange(candidates.shape[0])
        picked = np.asarray(candidates, dtype=np.float64)
    else:
        picked = candidates[rows].astype(np.float64)
    scores = np.matmul(picked[:, None, :], query[:, None]).ravel()
    # rows ascend, so a tie is broken by the row index
    return [(int(rows[i]), float(scores[i])) for i in top_rows(scores, k)]


def top_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """The positions of the first ``k`` scores by descending score, ties to the lower position.

    Only the entries scoring at least the k-th highest score are sorted. A
    NaN there (fewer than k scores are numbers) keeps every entry; NaNs rank last.
    """
    negated = -np.asarray(scores)
    kth = min(k, len(negated)) - 1
    head = np.flatnonzero(~(negated > np.partition(negated, kth)[kth]))
    return head[np.lexsort((head, negated[head]))][:k]


def _float32_candidates(query: np.ndarray, matrix: np.ndarray, k: int, norm_bound: float | None = None) -> np.ndarray | None:
    """The rows of the float32 ``matrix`` that can rank in the first ``k`` of its float64 scores against ``query``.

    Returns the ascending row indices, or ``None`` when the float32 scan
    cannot narrow the rows: a score or the bound below is not finite, or
    every row is kept.

    Let u = 2^-24 be float32's unit roundoff, eta = 2^-150 the largest
    error of rounding into its subnormal range, d the dimension and
    gamma_m = m u / (1 - m u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002, ch. 3). A row e holds float32
    values, exact in float64; q is the float64 query.

    * Its float32 copy q32 has |q32_j - q_j| <= u |q_j| + eta, when finite.
    * A float32 dot product of d terms, summed in any order, with or
      without fused multiply-adds, errs by at most gamma_d sum_j |e_j
      q32_j|, plus d eta (1 + gamma_d) <= 2 d eta for products that
      underflow. With the line above, (1 + gamma_d)(1 + u) <= 1 +
      gamma_(d+1) and Cauchy-Schwarz, the float32 score s32 lies within
      gamma_(d+1) |e| |q| + 2 sqrt(d) eta |e| + 2 d eta of e . q.
    * The float64 score s64 lies within gamma'_d |e| |q| + 2 d 2^-1075 of
      e . q, where gamma'_d, float64's, is below 2^-28 gamma_d.

    So |s32 - s64| <= D = gamma_(d+2) N |q| + 2 sqrt(d) eta N + 4 d eta
    for every row, where N bounds the row norms. The step from
    gamma_(d+1) to gamma_(d+2), over u N |q|, and the doubled underflow
    term cover gamma'_d and the float64 rounding of D and of t - 2 D
    below. N is ``norm_bound`` when the caller has one. For a finalized
    graph's store that is :data:`STORED_NORM_BOUND`, 1 + 2e-6, which
    finalizing proved of every row, so the scan reads the matrix once.
    Otherwise N comes from a second pass, the largest squared row norm
    taken in float32, n32, which is at least (1 - gamma_d) |e|^2 - 2 d eta
    by the same bound: N = sqrt((n32 + 2 d eta) / (1 - gamma_d)), about
    1 + gamma_d / 2 for unit rows (1 + 7.6e-6 at d = 256), looser than the
    proven bound once d exceeds about 70. Any N that bounds every row's
    exact norm gives the float64 ranking; a tighter one keeps fewer rows.

    If t is the k-th largest float32 score, each of the k rows scoring
    at least t has s64 >= t - D, so the k-th largest s64 is at least
    t - D, and a row that ranks in the first k by s64 (ties included)
    has s32 >= t - 2 D. Those rows are kept.
    """
    n, d = matrix.shape
    u, eta = 2.0**-24, 2.0**-150
    if k >= n or (d + 2) * u >= 0.5:
        return None
    # an overflow or a NaN leaves a score or the bound non-finite, which is checked
    with np.errstate(over="ignore", invalid="ignore"):
        scores = matrix @ query.astype(np.float32)
        if norm_bound is None:
            squared = float(np.matmul(matrix[:, None, :], matrix[:, :, None]).max())
            norm_bound = math.sqrt((squared + 2 * d * eta) / (1 - d * u / (1 - d * u)))
    gamma = (d + 2) * u / (1 - (d + 2) * u)
    bound = gamma * norm_bound * math.hypot(*query.tolist()) + 2 * math.sqrt(d) * eta * norm_bound + 4 * d * eta
    if not (math.isfinite(bound) and np.isfinite(scores).all()):
        return None
    t = float(np.partition(scores, n - k)[n - k])
    # compared in float64, so that the threshold is not rounded to float32
    rows = np.flatnonzero(scores.astype(np.float64) >= t - 2 * bound)
    return None if len(rows) == n else rows


class EmbedBackend:
    """Interface every embedding backend implements."""

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
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

    Each 3-gram of the lowercased text (the whole text, if it is shorter) is
    hashed (blake2b, so results are stable across processes) to a bucket and
    a sign; lexically overlapping texts therefore land close in cosine while
    unrelated texts stay near orthogonal. Byte-identical inputs produce
    byte-identical vectors. Only the dimension is set per instance; the
    gram length is fixed at three.

    Each instance hashes a gram once and keeps its bucket and sign in a map
    of at most 2**16 grams, emptied when full: about 10 MB at worst (grams of
    three non-BMP characters), 0.23 MB for the 2,684 distinct grams of the
    benchmark's index. A vector is a sum of +1.0 and -1.0 terms, exact
    integers in float64 whatever the order of addition, so it has the same
    bits as when every gram was hashed on every call.
    """

    def __init__(self, dim: int = DEFAULT_MOCK_DIM):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self._dim = dim
        self._codes = _GramCodes(dim)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self._encode(t) for t in texts]

    def _encode(self, text: str) -> np.ndarray:
        lowered = text.lower()
        if len(lowered) < _NGRAM:
            grams = [lowered]
        else:
            grams = [lowered[i : i + _NGRAM] for i in range(len(lowered) - _NGRAM + 1)]
        counts = np.bincount([self._codes[gram] for gram in grams], minlength=2 * self._dim)
        return normalize((counts[: self._dim] - counts[self._dim :]).astype(np.float64))


class OpenAICompatEmbedder(EmbedBackend):
    """Client for an OpenAI-compatible ``/embeddings`` endpoint.

    Sends batched inputs and returns one vector per input, in order.
    Responses are re-normalized locally since not every served model
    guarantees unit vectors; a served vector that does not normalize to unit
    length (non-finite entries, or a norm that overflows) is a malformed
    body and is retried. When ``dim`` is given, a served vector of another
    length raises ``DimensionMismatchError``, not retried.
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
