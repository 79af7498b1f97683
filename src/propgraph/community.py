"""Hierarchical Leiden community detection.

The Leiden cycle: queue-based local moving to optimize modularity, a
refinement phase that only merges well-connected nodes inside each
community, and aggregation over the refined partition (with the
un-refined partition carried over as the starting point of the next
level, which is what keeps communities internally connected).
Deterministic for a fixed seed: node visit order is the only randomized
choice, and all argmax steps break ties toward the lowest community id.

Each level's graph is flat CSR in typed arrays, and one integer array
takes the original nodes to the current level's.
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict, deque
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

_GAIN_TOL = 1e-12
_MAX_LEVELS = 64


class _Level(NamedTuple):
    """Row v, its self loop left out, is ``indices`` and ``weights`` in ``indptr[v]:indptr[v + 1]``, ascending
    at level 0 and in order of first appearance after ``_aggregate``. Every float sum over a row adds in that order."""

    indptr: array
    indices: array
    weights: array
    self_loop: array
    deg: array
    two_m: float


def _level(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, self_loop: np.ndarray, two_m=None) -> _Level:
    """A level from its entries in row-major order; ``two_m`` defaults to the sum of the degrees."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(self_loop)))))
    columns = zip("qqdd", (indptr, cols, weights, self_loop))
    indptr, cols, weights, self_loop = (array(code, np.asarray(x, dtype=code).tobytes()) for code, x in columns)
    deg = array("d", [sum(weights[indptr[v] : indptr[v + 1]]) + 2.0 * self_loop[v] for v in range(len(self_loop))])
    return _Level(indptr, cols, weights, self_loop, deg, sum(deg) if two_m is None else two_m)


def _from_csr(adjacency: sp.spmatrix) -> _Level:
    # duplicates summed and each row's columns sorted, in a copy if they are
    # not yet: the order of visits and queueing
    csr = sp.csr_matrix(adjacency, dtype=np.float64)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    off = rows != csr.indices
    return _level(rows[off], csr.indices[off], csr.data[off], csr.diagonal())


def _local_move(level: _Level, init: list[int], resolution: float, rng: random.Random) -> list[int]:
    indptr, indices, weights, _, deg, two_m = level
    n = len(deg)
    membership = list(init)
    comm_tot = [0.0] * n
    for v in range(n):
        comm_tot[membership[v]] += deg[v]
    order = list(range(n))
    rng.shuffle(order)
    queue = deque(order)
    queued = [True] * n
    while queue:
        v = queue.popleft()
        queued[v] = False
        current, dv, lo, hi = membership[v], deg[v], indptr[v], indptr[v + 1]
        neighbours = indices[lo:hi]
        weight_to: dict[int, float] = defaultdict(float)
        for u, w in zip(neighbours, weights[lo:hi]):
            weight_to[membership[u]] += w
        comm_tot[current] -= dv
        best = current
        best_gain = weight_to.get(current, 0.0) - resolution * dv * comm_tot[current] / two_m
        for comm in sorted(weight_to):
            if comm == current:
                continue
            gain = weight_to[comm] - resolution * dv * comm_tot[comm] / two_m
            if gain > best_gain + _GAIN_TOL:
                best_gain = gain
                best = comm
        comm_tot[best] += dv
        if best != current:
            membership[v] = best
            for u in neighbours:
                if membership[u] != best and not queued[u]:
                    queue.append(u)
                    queued[u] = True
    return membership


def _refine(level: _Level, membership: list[int], resolution: float, rng: random.Random) -> list[int]:
    indptr, indices, weights, _, deg, two_m = level
    refined = list(range(len(deg)))
    ref_tot = list(deg)
    ref_size = [1] * len(deg)
    members = np.argsort(membership, kind="stable").tolist()  # community by community, ascending within
    ends = np.cumsum(np.bincount(membership)).tolist()
    for comm, (start, end) in enumerate(zip([0, *ends], ends)):
        if end - start < 2:
            continue
        nodes = members[start:end]
        sub_tot = sum(deg[v] for v in nodes)
        order = nodes[:]
        rng.shuffle(order)
        for v in order:
            if ref_size[refined[v]] > 1:
                continue  # nodes that already merged stay put
            dv, lo, hi = deg[v], indptr[v], indptr[v + 1]
            inside = [(u, w) for u, w in zip(indices[lo:hi], weights[lo:hi]) if membership[u] == comm]
            if sum(w for _, w in inside) < resolution * dv * (sub_tot - dv) / two_m:
                continue  # poorly connected within its community
            weight_to: dict[int, float] = defaultdict(float)
            for u, w in inside:
                weight_to[refined[u]] += w
            best = refined[v]
            best_gain = 0.0
            for target in sorted(weight_to):
                if target == refined[v]:
                    continue
                gain = weight_to[target] - resolution * dv * ref_tot[target] / two_m
                if gain > best_gain + _GAIN_TOL:
                    best_gain = gain
                    best = target
            if best != refined[v]:
                ref_tot[best] += dv
                ref_tot[refined[v]] -= dv
                ref_size[best] += 1
                ref_size[refined[v]] -= 1
                refined[v] = best
    return refined


def _aggregate(level: _Level, dense: np.ndarray, label: np.ndarray) -> tuple[_Level, list[int]]:
    """The graph of the refined communities (v's is ``dense[v]``) and each one's community (``label`` of its nodes)."""
    n = int(dense.max()) + 1
    # each edge once, from its lower end, in row order; every sum below adds
    # in that order, as ``bincount`` does
    rows = np.repeat(np.arange(len(level.deg)), np.diff(np.frombuffer(level.indptr, dtype=np.int64)))
    cols = np.frombuffer(level.indices, dtype=np.int64)
    upper = cols > rows
    rows, cols, w = dense[rows[upper]], dense[cols[upper]], np.frombuffer(level.weights)[upper]
    inside = rows == cols
    loops = np.concatenate((np.frombuffer(level.self_loop), w[inside]))
    self_loop = np.bincount(np.concatenate((dense, rows[inside])), weights=loops, minlength=n)
    # an edge between communities adds to both of their rows; a row lists its
    # neighbours in the order they first appear
    rows, cols, w = rows[~inside], cols[~inside], np.repeat(w[~inside], 2)
    keys = np.stack((rows * n + cols, cols * n + rows), axis=1).ravel()  # row * n + column
    keys, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    weights = np.bincount(slot, weights=w, minlength=len(keys))
    order = np.lexsort((first, keys // n))
    parent = label[np.unique(dense, return_index=True)[1]].tolist()
    return _level(keys[order] // n, keys[order] % n, weights[order], self_loop, level.two_m), parent


def leiden_levels(adjacency: sp.spmatrix, resolution: float = 1.0, seed: int = 0) -> list[np.ndarray]:
    """Run the full Leiden cycle and report the partition at every level.

    ``adjacency`` is a symmetric sparse matrix of edge weights over nodes
    ``0..n-1``; a diagonal entry ``w`` is a self loop of weight ``w``.
    Level 0 is the finest partition (first local-moving pass); deeper
    levels are coarser. Each level is an integer label per node, the rank
    of its community's id among the level's.
    """
    if adjacency.shape[0] == 0:
        return []
    level = _from_csr(adjacency)
    node_of = np.arange(adjacency.shape[0])  # each original node's node at the current level
    if level.two_m == 0.0:
        return [node_of]
    rng = random.Random(seed)
    init = list(range(adjacency.shape[0]))
    levels: list[np.ndarray] = []
    for _ in range(_MAX_LEVELS):
        membership = _local_move(level, init, resolution, rng)
        ids, label = np.unique(membership, return_inverse=True)
        levels.append(label[node_of])
        if len(ids) == len(level.deg):
            break  # every community is a single aggregated node: converged
        refined = _refine(level, membership, resolution, rng)
        dense = np.unique(refined, return_inverse=True)[1]
        if dense.max() + 1 == len(level.deg):
            break  # refinement kept all singletons: aggregation would not shrink
        level, init = _aggregate(level, dense, label)
        node_of = dense[node_of]
    return levels
