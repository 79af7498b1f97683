"""Hierarchical Leiden community detection.

Pure-Python implementation of the Leiden cycle: queue-based local moving
to optimize modularity, a refinement phase that only merges
well-connected nodes inside each community, and aggregation over the
refined partition (with the un-refined partition carried over as the
starting point of the next level, which is what keeps communities
internally connected). Deterministic for a fixed seed: node visit order
is the only randomized choice, and all argmax steps break ties toward the
lowest community id.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

_GAIN_TOL = 1e-12


@dataclass
class _WorkGraph:
    n: int
    adj: list[dict[int, float]]
    self_loop: list[float]
    deg: list[float]
    two_m: float


def _from_csr(adjacency: sp.spmatrix) -> _WorkGraph:
    # canonical form: duplicates summed and each row's columns sorted, which
    # fixes the order in which neighbours are visited and queued
    csr = sp.csr_matrix(adjacency, dtype=np.float64, copy=True)
    csr.sum_duplicates()
    indptr, indices, data = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    n = csr.shape[0]
    adj: list[dict[int, float]] = []
    self_loop = [0.0] * n
    for v in range(n):
        row = dict(zip(indices[indptr[v] : indptr[v + 1]], data[indptr[v] : indptr[v + 1]]))
        self_loop[v] = row.pop(v, 0.0)
        adj.append(row)
    deg = [sum(adj[v].values()) + 2.0 * self_loop[v] for v in range(n)]
    return _WorkGraph(n, adj, self_loop, deg, sum(deg))


def _local_move(work: _WorkGraph, init: list[int], resolution: float, rng: random.Random) -> list[int]:
    membership = list(init)
    comm_tot: dict[int, float] = defaultdict(float)
    for v in range(work.n):
        comm_tot[membership[v]] += work.deg[v]
    order = list(range(work.n))
    rng.shuffle(order)
    queue = deque(order)
    queued = [True] * work.n
    while queue:
        v = queue.popleft()
        queued[v] = False
        current = membership[v]
        weight_to: dict[int, float] = defaultdict(float)
        for u, w in work.adj[v].items():
            weight_to[membership[u]] += w
        comm_tot[current] -= work.deg[v]
        best = current
        best_gain = weight_to.get(current, 0.0) - resolution * work.deg[v] * comm_tot[current] / work.two_m
        for comm in sorted(weight_to):
            if comm == current:
                continue
            gain = weight_to[comm] - resolution * work.deg[v] * comm_tot[comm] / work.two_m
            if gain > best_gain + _GAIN_TOL:
                best_gain = gain
                best = comm
        comm_tot[best] += work.deg[v]
        if best != current:
            membership[v] = best
            for u in work.adj[v]:
                if membership[u] != best and not queued[u]:
                    queue.append(u)
                    queued[u] = True
    return membership


def _refine(work: _WorkGraph, membership: list[int], resolution: float, rng: random.Random) -> list[int]:
    refined = list(range(work.n))
    ref_tot = list(work.deg)
    ref_size = [1] * work.n
    groups: dict[int, list[int]] = defaultdict(list)
    for v in range(work.n):
        groups[membership[v]].append(v)
    for comm in sorted(groups):
        nodes = groups[comm]
        if len(nodes) < 2:
            continue
        sub_tot = sum(work.deg[v] for v in nodes)
        order = nodes[:]
        rng.shuffle(order)
        for v in order:
            if ref_size[refined[v]] > 1:
                continue  # nodes that already merged stay put
            weight_in = sum(w for u, w in work.adj[v].items() if membership[u] == comm)
            if weight_in < resolution * work.deg[v] * (sub_tot - work.deg[v]) / work.two_m:
                continue  # poorly connected within its community
            weight_to: dict[int, float] = defaultdict(float)
            for u, w in work.adj[v].items():
                if membership[u] == comm:
                    weight_to[refined[u]] += w
            best = refined[v]
            best_gain = 0.0
            for target in sorted(weight_to):
                if target == refined[v]:
                    continue
                gain = weight_to[target] - resolution * work.deg[v] * ref_tot[target] / work.two_m
                if gain > best_gain + _GAIN_TOL:
                    best_gain = gain
                    best = target
            if best != refined[v]:
                ref_tot[best] += work.deg[v]
                ref_tot[refined[v]] -= work.deg[v]
                ref_size[best] += 1
                ref_size[refined[v]] -= 1
                refined[v] = best
    return refined


def _aggregate(
    work: _WorkGraph, refined: list[int], membership: list[int], node_sets: list[set]
) -> tuple[_WorkGraph, list[set], list[int]]:
    comm_ids = sorted(set(refined))
    dense = {c: i for i, c in enumerate(comm_ids)}
    n = len(comm_ids)
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    self_loop = [0.0] * n
    new_sets: list[set] = [set() for _ in range(n)]
    parent = [0] * n
    parent_ids = sorted(set(membership))
    parent_dense = {c: i for i, c in enumerate(parent_ids)}
    for v in range(work.n):
        c = dense[refined[v]]
        new_sets[c] |= node_sets[v]
        self_loop[c] += work.self_loop[v]
        parent[c] = parent_dense[membership[v]]
    for v in range(work.n):
        cv = dense[refined[v]]
        for u, w in work.adj[v].items():
            if u < v:
                continue
            cu = dense[refined[u]]
            if cu == cv:
                self_loop[cv] += w
            else:
                adj[cv][cu] = adj[cv].get(cu, 0.0) + w
                adj[cu][cv] = adj[cu].get(cv, 0.0) + w
    deg = [sum(adj[v].values()) + 2.0 * self_loop[v] for v in range(n)]
    return _WorkGraph(n, adj, self_loop, deg, work.two_m), new_sets, parent


def leiden_levels(
    adjacency: sp.spmatrix, resolution: float = 1.0, seed: int = 0, max_levels: int = 64
) -> list[list[set[int]]]:
    """Run the full Leiden cycle and report the partition at every level.

    ``adjacency`` is a symmetric sparse matrix of edge weights over nodes
    ``0..n-1``; a diagonal entry ``w`` is a self loop of weight ``w``.
    Level 0 is the finest partition (first local-moving pass); deeper
    levels are coarser. Each partition is a list of sets of node indices
    and covers the graph exactly.
    """
    if adjacency.shape[0] == 0:
        return []
    work = _from_csr(adjacency)
    node_sets = [{v} for v in range(work.n)]
    if work.two_m == 0.0:
        return [[set(s) for s in node_sets]]

    rng = random.Random(seed)
    init = list(range(work.n))
    levels: list[list[set[int]]] = []
    for _ in range(max_levels):
        membership = _local_move(work, init, resolution, rng)
        partition: dict[int, set[int]] = defaultdict(set)
        for v in range(work.n):
            partition[membership[v]] |= node_sets[v]
        levels.append([partition[c] for c in sorted(partition)])
        if len(partition) == work.n:
            break  # every community is a single aggregated node: converged
        refined = _refine(work, membership, resolution, rng)
        if len(set(refined)) == work.n:
            break  # refinement kept all singletons: aggregation would not shrink
        work, node_sets, init = _aggregate(work, refined, membership, node_sets)
    return levels
