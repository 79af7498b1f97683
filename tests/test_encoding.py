import hashlib
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from propgraph import encoding, suggest
from propgraph.config import RunConfig
from propgraph.encoding import (
    NORM_TOL,
    STORED_NORM_BOUND,
    HashedNgramEmbedder,
    cosine,
    is_normalized,
    normalize,
    top_k_similar,
    top_rows,
)
from propgraph.errors import DimensionMismatchError
from propgraph.graph import HeteroGraph, load, save
from propgraph.suggest import suggest_naive

from conftest import random_unit


def test_cosine_identity_antipodal_orthogonal():
    v = normalize([0.3, -0.4, 0.5, 0.2])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-6)
    assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-6)
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = random_unit(rng, 16), random_unit(rng, 16)
        assert cosine(a, b) == cosine(b, a)


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cosine(np.ones(3), np.ones(4))


def test_top_k_exact_row():
    rng = np.random.default_rng(1)
    matrix = np.stack([random_unit(rng, 8) for _ in range(10)])
    hits = top_k_similar(matrix[3], matrix, 1)
    assert hits[0][0] == 3
    assert hits[0][1] == pytest.approx(1.0, abs=1e-6)


def test_top_k_truncates_to_candidate_count():
    rng = np.random.default_rng(2)
    matrix = np.stack([random_unit(rng, 4) for _ in range(3)])
    hits = top_k_similar(random_unit(rng, 4), matrix, 10)
    assert len(hits) == 3
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_top_k_matches_full_sort_oracle():
    rng = np.random.default_rng(3)
    matrix = np.stack([random_unit(rng, 8) for _ in range(20)])
    query = random_unit(rng, 8)
    got = top_k_similar(query, matrix, 5)
    # independent oracle: score every row, full sort with index tie-break
    scores = [(float(np.dot(matrix[i].astype(np.float64), query.astype(np.float64))), i) for i in range(20)]
    expected = sorted(scores, key=lambda t: (-t[0], t[1]))[:5]
    assert [(i, pytest.approx(s, abs=1e-12)) for s, i in expected] == [
        (i, pytest.approx(s, abs=1e-12)) for i, s in got
    ]
    # heavily tied scores: rows drawn from a few distinct vectors, so ties
    # straddle the k-th score and only the index tie-break orders them
    for trial in range(40):
        distinct = np.stack([random_unit(rng, 4) for _ in range(int(rng.integers(1, 5)))])
        tied = distinct[rng.integers(0, len(distinct), size=int(rng.integers(1, 60)))]
        query = distinct[0] if trial % 2 else random_unit(rng, 4)
        scores = float64_scores(tied, query)
        for k in (1, 3, 20, 80):
            expected = sorted(range(len(tied)), key=lambda i: (-scores[i], i))[:k]
            assert [i for i, _ in top_k_similar(query, tied, k)] == expected


def test_top_k_prefix_property():
    rng = np.random.default_rng(4)
    matrix = np.stack([random_unit(rng, 8) for _ in range(15)])
    query = random_unit(rng, 8)
    for k in range(1, 14):
        small = [i for i, _ in top_k_similar(query, matrix, k)]
        big = [i for i, _ in top_k_similar(query, matrix, k + 1)]
        assert big[:k] == small


def test_top_k_tie_break_ascending_index():
    row = normalize([1.0, 0.0, 0.0])
    matrix = np.stack([row, row, row])
    hits = top_k_similar(row, matrix, 3)
    assert [i for i, _ in hits] == [0, 1, 2]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [37, 1000])
@pytest.mark.parametrize("dim", [37, 256])
def test_top_k_equal_rows_score_equally_and_rank_by_index(dim, n, dtype):
    # a whole-matrix mat-vec rounds a row by its position, which splits such ties
    rng = np.random.default_rng(dim + n)
    stored = np.tile(random_unit(rng, dim), (n, 1)).astype(dtype)
    for k in (5, n, n + 3):
        for _ in range(5):
            hits = top_k_similar(rng.normal(size=dim), stored, k)
            assert [i for i, _ in hits] == list(range(min(k, n)))
            assert len({score for _, score in hits}) == 1


def test_top_rows_ranks_as_a_full_sort_by_descending_score_ties_to_the_lower_position():
    # scores drawn from a few values, so ties straddle the k-th score
    values = np.array([0.0, -0.0, 0.5, -0.5, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(38)
    cases = [np.array([np.nan, 1.0, np.nan, -0.0, np.nan, 0.0])]  # fewer numbers than k = 5
    cases += [rng.choice(values, size=int(rng.integers(1, 40))) for _ in range(300)]
    few_numbers = 0
    for scores in cases:
        n = len(scores)
        full = np.lexsort((np.arange(n), -scores))
        for k in {1, 2, n - 1, n, n + 3} - {0}:
            assert top_rows(scores, k).tolist() == full[:k].tolist(), (scores, k)
            few_numbers += np.count_nonzero(~np.isnan(scores)) < k <= n
    assert few_numbers > 100


def test_top_k_rejects_bad_input():
    with pytest.raises(ValueError):
        top_k_similar(np.ones(3), np.zeros((0, 3)), 1)
    with pytest.raises(ValueError):
        top_k_similar(np.ones(3), np.ones((2, 3)), 0)


# ----------------------------------------------------------------------
# the float32 scan of a float32 matrix
# ----------------------------------------------------------------------


def float64_scores(stored: np.ndarray, query: np.ndarray) -> list[float]:
    """Each row's score as ``top_k_similar`` defines it: the row's own float64 dot product with ``query``.

    Not one mat-vec of the whole matrix: a BLAS gemv rounds a row by its
    position, and each OpenBLAS kernel rounds it its own way.
    """
    query = np.asarray(query, dtype=np.float64)
    return [float(row @ query) for row in stored.astype(np.float64)]


def float64_ranking(stored: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """The first ``k`` rows of the float64 scan: descending ``float64_scores``, ties by index."""
    scores = np.array(float64_scores(stored, query))
    return np.lexsort((np.arange(len(scores)), -scores))[:k].tolist()


def assert_ranks_as_float64_scan(stored: np.ndarray, query: np.ndarray, ks) -> None:
    for k in ks:
        assert [i for i, _ in top_k_similar(query, stored, k)] == float64_ranking(stored, query, k), k


def test_float32_scan_ranks_unit_rows_as_float64_from_few_candidates():
    rng = np.random.default_rng(37)
    stored = np.stack([random_unit(rng, 64) for _ in range(3000)])
    for _ in range(20):
        query = random_unit(rng, 64).astype(np.float64)
        rows = encoding._float32_candidates(query, stored, 20)
        assert rows is not None and 20 <= len(rows) < 100
        assert_ranks_as_float64_scan(stored, query, (1, 20))


def ulp_copies(rng: np.random.Generator, dim: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """200 copies of one random unit row, each coordinate moved by at most one float32 ulp either way, among 40 other rows.

    The copies' float64 scores against a query near that row differ by
    less than a float32 scan's rounding, so float32 scores alone misrank
    them around any k. Returns the shuffled rows and the query.
    """
    base = random_unit(rng, dim)
    steps = rng.integers(-1, 2, size=(200, dim))
    up, down = np.nextafter(base, np.float32(np.inf)), np.nextafter(base, np.float32(-np.inf))
    near = np.where(steps > 0, up, np.where(steps < 0, down, base))
    stored = np.vstack([near, np.stack([random_unit(rng, dim) for _ in range(40)])])
    return stored[rng.permutation(len(stored))], base.astype(np.float64) + rng.normal(scale=0.01, size=dim)


def test_float32_scan_ranks_rows_one_ulp_apart_as_float64():
    stored, query = ulp_copies(np.random.default_rng(41))
    ks = (1, 5, 20, 100, 199)
    for k in ks:
        assert len(encoding._float32_candidates(query, stored, k)) < len(stored)
    scores32 = stored @ query.astype(np.float32)
    assert np.lexsort((np.arange(len(stored)), -scores32))[:20].tolist() != float64_ranking(stored, query, 20)
    assert_ranks_as_float64_scan(stored, query, ks)


def test_float32_scan_ranks_duplicated_rows_by_index():
    rng = np.random.default_rng(43)
    # Entries are multiples of 1/16 and the query's of 1/8, so every score is
    # exact in float32 and in float64: each copy of a row scores the same
    # wherever it sits in the matrix, and the float64 scan ranks copies by index.
    distinct = rng.integers(-8, 9, size=(6, 16)).astype(np.float32) / 16
    stored = distinct[rng.integers(0, 6, size=90)]
    query = rng.integers(-4, 5, size=16) / 8
    ks = range(1, 91)
    assert sum(encoding._float32_candidates(query, stored, k) is not None for k in ks) > 40
    assert_ranks_as_float64_scan(stored, query, ks)


@pytest.mark.parametrize("scale", ["1e3", "1e-3", "mixed"])
def test_float32_scan_ranks_scaled_rows_as_float64(scale):
    rng = np.random.default_rng(47)
    for _ in range(5):
        unit_rows, query = ulp_copies(rng)
        factors = {"1e3": 1e3, "1e-3": 1e-3, "mixed": np.where(np.arange(len(unit_rows)) % 2, 1e3, 1e-3)[:, None]}[scale]
        stored = (unit_rows * factors).astype(np.float32)
        assert len(encoding._float32_candidates(query, stored, 20)) < len(stored)
        assert_ranks_as_float64_scan(stored, query, (1, 20, 100))


def test_float32_scan_with_a_nan_in_the_query_ranks_as_float64():
    rng = np.random.default_rng(53)
    stored = np.stack([random_unit(rng, 16) for _ in range(40)])
    query = random_unit(rng, 16).astype(np.float64)
    query[3] = np.nan
    assert encoding._float32_candidates(query, stored, 5) is None
    assert_ranks_as_float64_scan(stored, query, (1, 5, 40))


def test_float32_scan_with_k_at_least_n_scores_every_row_as_float64():
    rng = np.random.default_rng(59)
    stored = np.stack([random_unit(rng, 16) for _ in range(25)])
    query = random_unit(rng, 16).astype(np.float64)
    scores = float64_scores(stored, query)
    for k in (25, 26, 100):
        assert encoding._float32_candidates(query, stored, k) is None
        assert top_k_similar(query, stored, k) == [(i, scores[i]) for i in float64_ranking(stored, query, k)]


def proven_norm_store(rng: np.random.Generator, dim: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Unit float32 rows with duplicates, ulp-close near-ties and norms 1 +/- 0.9 NORM_TOL, and a query near the ties.

    Every row passes the graph's unit-length check.
    """
    base = random_unit(rng, dim)
    up, down = np.nextafter(base, np.float32(np.inf)), np.nextafter(base, np.float32(-np.inf))
    steps = rng.integers(-1, 2, size=(60, dim))
    near = np.where(steps > 0, up, np.where(steps < 0, down, base))
    scaled = [(base.astype(np.float64) * (1.0 + sign * 0.9 * NORM_TOL)).astype(np.float32) for sign in (1, -1) for _ in range(3)]
    others = np.stack([random_unit(rng, dim) for _ in range(80)])
    stored = np.vstack([near, scaled, others, others[:10], near[:10]])
    stored = stored[rng.permutation(len(stored))]
    assert all(is_normalized(row) for row in stored)
    norms = np.linalg.norm(stored.astype(np.float64), axis=1)
    assert norms.max() > 1.0 + 0.8 * NORM_TOL and norms.min() < 1.0 - 0.8 * NORM_TOL
    return stored, base.astype(np.float64) + rng.normal(scale=0.01, size=dim)


def graph_of_store(stored: np.ndarray) -> HeteroGraph:
    graph = HeteroGraph()
    passage = graph.add_passage("passage", "d", (0, 8))
    for i, row in enumerate(stored):
        graph.add_proposition(f"prop {i}", passage, [], row)
    return graph.finalize()


def test_graph_scan_takes_the_proven_norm_bound_and_ranks_as_float64(monkeypatch, tmp_path):
    # suggest_naive calls the scan by the name suggest imports, with the bound
    # finalizing proved, and the scan reads no norms of its own
    seen = []
    scan, candidates = suggest.top_k_similar, encoding._float32_candidates

    def forward(*args, **kwargs):
        seen.append(kwargs.get("norm_bound"))
        return scan(*args, **kwargs)

    def spy(query, matrix, k, norm_bound=None):
        rows = candidates(query, matrix, k, norm_bound)
        seen.append(rows is not None and len(rows) < len(matrix))
        return rows

    monkeypatch.setattr(suggest, "top_k_similar", forward)
    monkeypatch.setattr(encoding, "_float32_candidates", spy)
    rng = np.random.default_rng(61)
    narrowed = 0
    for trial in range(4):
        stored, query = proven_norm_store(rng)
        finalized = graph_of_store(stored)
        save(finalized, tmp_path / str(trial))
        for graph in (finalized, load(tmp_path / str(trial))):
            assert graph.proposition_embeddings.tobytes() == stored.tobytes()
            for k in (1, 5, 20, len(stored) - 1):
                seen.clear()
                assert suggest_naive(query, graph, RunConfig(top_k=k)) == float64_ranking(stored, query, k), k
                assert seen[0] == STORED_NORM_BOUND
                narrowed += seen[1]
    assert narrowed > 0
    # the bound is above every row's exact norm, taken in exact rationals
    bound = Fraction(STORED_NORM_BOUND) ** 2
    for row in stored:
        assert sum(Fraction(float(x)) ** 2 for x in row) < bound


def test_mock_embed_deterministic():
    embedder = HashedNgramEmbedder()
    a = embedder.embed_one("abc")
    b = embedder.embed_one("abc")
    assert a.tobytes() == b.tobytes()


def test_mock_embed_lexical_similarity():
    embedder = HashedNgramEmbedder()
    plant = embedder.embed_one("solar power plant")
    station = embedder.embed_one("solar power station")
    marine = embedder.embed_one("marine biology")
    assert cosine(plant, station) > cosine(plant, marine)


def test_mock_embed_unit_norm_on_random_strings():
    embedder = HashedNgramEmbedder()
    rng = np.random.default_rng(5)
    alphabet = list("abcdefghijklmnopqrstuvwxyz .,")
    for _ in range(100):
        n = int(rng.integers(0, 60))
        text = "".join(rng.choice(alphabet, size=n))
        vec = embedder.embed_one(text)
        assert is_normalized(vec, 1e-6)
        assert vec.dtype == np.float32
        assert vec.shape == (256,)


def test_normalize_zero_vector_is_deterministic_basis():
    vec = normalize(np.zeros(5))
    assert vec[0] == 1.0 and is_normalized(vec)


def reference_normalize(values):
    """``normalize`` as it was with ``np.linalg.norm``."""
    vec = np.asarray(values, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        out = np.zeros(vec.shape[0], dtype=np.float32)
        out[0] = 1.0
        return out
    return (vec / norm).astype(np.float32)


def test_normalize_matches_linalg_norm_reference_bitwise():
    rng = np.random.default_rng(101)
    vectors = [rng.normal(size=int(rng.integers(1, 300))) * 10.0 ** int(rng.integers(-30, 31)) for _ in range(2000)]
    vectors += [rng.integers(-3, 4, size=256).astype(np.float64) for _ in range(200)]  # embedder counts
    vectors += [np.zeros(1), np.zeros(256), np.array([-0.0, 0.0]), np.array([5e-324, 0.0]), np.array([1e-200, -3e-190])]
    vectors += [np.array([1e200, -2e200]), np.array([1.7e308, 1.7e308]), np.array([np.inf, 1.0]), np.array([np.nan, 1.0])]
    vectors += [[3, 4], (0.0, 0.0, 2.5)]
    with np.errstate(invalid="ignore", over="ignore"):
        for values in vectors:
            assert normalize(values).tobytes() == reference_normalize(values).tobytes(), values


def reference_counts(text, dim, n=3):
    """The embedder's unnormalized vector, hashing every gram with its own blake2b call."""
    lowered = text.lower()
    grams = [lowered] if len(lowered) < n else [lowered[i : i + n] for i in range(len(lowered) - n + 1)]
    vec = np.zeros(dim, dtype=np.float64)
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=9).digest()
        bucket = int.from_bytes(digest[:8], "little") % dim
        sign = 1.0 if digest[8] % 2 == 0 else -1.0
        vec[bucket] += sign
    return vec


def assert_matches_reference(embedder, dim, texts):
    vectors = embedder.embed(texts)
    assert len(vectors) == len(texts)
    for text, vec in zip(texts, vectors):
        assert vec.dtype == np.float32 and vec.shape == (dim,)
        assert vec.tobytes() == normalize(reference_counts(text, dim)).tobytes(), text


def random_texts(rng, count, alphabet="abcdefghijklmnopqrstuvwxyzABCZ .,'-0123456789éß"):
    return ["".join(rng.choice(list(alphabet), size=int(rng.integers(0, 80)))) for _ in range(count)]


EDGE_TEXTS = [
    "",
    "a",
    "Ab",
    "abc",
    "İ",  # lowercases to two code points
    "İİ",
    "İstanbul",
    "ẞtraße",
    "東京都の人口",
    "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 🙂🙃",
    "x" * 5000,
    "Wien " * 1000,
]


@pytest.mark.parametrize("dim", [2, 8, 16, 256])
def test_mock_embed_matches_per_gram_reference(dim):
    embedder = HashedNgramEmbedder(dim=dim)
    texts = random_texts(np.random.default_rng(dim), 300) + EDGE_TEXTS
    assert_matches_reference(embedder, dim, texts)
    assert_matches_reference(embedder, dim, texts[::-1])  # again, with every gram known


def test_mock_embed_cancelling_signs_map_to_first_basis_vector():
    candidates = ("".join(chars) for chars in itertools.product("abcdefgh", repeat=4))
    text = next(t for t in candidates if not reference_counts(t, 2).any())
    vec = HashedNgramEmbedder(dim=2).embed_one(text)
    assert vec.tobytes() == np.array([1.0, 0.0], dtype=np.float32).tobytes()


def test_mock_embedders_of_different_dims_do_not_share_buckets():
    small, large = HashedNgramEmbedder(dim=7), HashedNgramEmbedder(dim=16)
    texts = random_texts(np.random.default_rng(11), 50) + EDGE_TEXTS
    for text in texts:
        assert_matches_reference(small, 7, [text])
        assert_matches_reference(large, 16, [text])


def test_mock_embed_of_no_texts_is_empty():
    assert HashedNgramEmbedder().embed([]) == []


def test_mock_embed_matches_reference_when_gram_map_overflows(monkeypatch):
    monkeypatch.setattr(encoding, "_GRAM_CACHE_SIZE", 8)
    embedder = HashedNgramEmbedder(dim=16)
    texts = random_texts(np.random.default_rng(13), 40)
    assert_matches_reference(embedder, 16, texts)
    assert_matches_reference(embedder, 16, texts)
    assert 0 < len(embedder._codes) <= 8


def test_mock_embed_shared_across_threads_matches_serial_run():
    texts = random_texts(np.random.default_rng(17), 200) + EDGE_TEXTS
    serial = HashedNgramEmbedder().embed(texts)
    shared = HashedNgramEmbedder()  # cold: the threads fill its gram map together
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            orders = [texts, texts[::-1], texts[1::2] + texts[::2], texts]
            futures = [pool.submit(lambda order=order: dict(zip(order, shared.embed(order)))) for order in orders]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert all(result[text].tobytes() == vec.tobytes() for text, vec in zip(texts, serial))
