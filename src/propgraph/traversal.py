"""Walk machinery over the proposition graph.

Builds the proposition-to-proposition transition operators (a structural
one from graph connectivity, a query-aware one from embedding similarity,
and their convex blend), runs personalized PageRank over them, and carves
bounded subgraphs around seed sets with a degree-corrected random walk
with restart, one walk for several seed sets at once.

Conventions used throughout:

* transition matrices are row-stochastic where a row has any outgoing
  mass; rows without candidates are left all-zero ("dangling") and their
  mass is redirected to the restart vector during iteration;
* diagonals are always zero — a node never transitions to itself;
* all rankings break ties by ascending index so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .encoding import NORM_TOL
from .errors import UnknownNodeError
from .graph import HeteroGraph

_DANGLING_EPS = 1e-15
# How far a carving walk's bracket must narrow, from step 4 or from a check
# that found no positive gap, before a certificate check runs (see
# _Admission). On the seed-7 and seed-31 bench graphs the bracket narrows
# about 0.79-fold per step, so 256-fold takes about 23 steps, and a
# carving's gap first turned positive at step 30 in the median (quartiles
# 26 and 36).
_NARROWING = 256.0


@dataclass
class WalkParams:
    """Knobs of the blended walk.

    ``lambda_`` balances structure against query similarity (1.0 means the
    walk ignores the query entirely), ``damping`` is the continue-walk
    probability, ``tau`` the similarity temperature, ``theta`` the cosine
    floor below which a neighbor attracts no semantic mass.
    """

    lambda_: float = 0.5
    damping: float = 0.85
    tau: float = 0.1
    theta: float = 0.4
    ppr_epsilon: float = 1e-8
    ppr_max_iters: int = 200

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lambda_}")
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {self.damping}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        # the largest cosine of two unit vectors, normalized within NORM_TOL
        with np.errstate(over="ignore"):
            if not np.isfinite(np.exp(np.array([(1.0 + NORM_TOL) / self.tau]))).all():
                raise ValueError(f"tau {self.tau} is too small: exp(similarity / tau) overflows")
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [-1, 1], got {self.theta}")
        if self.ppr_epsilon <= 0.0:
            raise ValueError("ppr_epsilon must be positive")
        if self.ppr_max_iters < 1:
            raise ValueError("ppr_max_iters must be >= 1")


@dataclass
class TransitionMatrix:
    """Sparse row-stochastic operator over ``size`` propositions.

    ``fallback_rows`` marks rows whose query-aware weights all fell below
    the cosine floor and therefore carry the structural row unchanged.
    """

    matrix: sp.csr_matrix
    fallback_rows: frozenset[int] = frozenset()

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _pattern(self) -> _Pattern:
        """What every walk over this operator reuses of its pattern, built on first use.

        The matrix must not change after that.
        """
        return _Pattern(self.matrix)


class _Pattern:
    """The per-row layout of a sparse matrix that each walker over it would otherwise recompute.

    ``lengths`` is each row's entry count. ``gather`` lists the entries of
    the nonempty rows grouped by length, ascending, row after row; ``rows``
    names those rows in the same order, and ``blocks`` each group's start in
    ``gather``, row count and length. ``ascending`` orders the entries by
    row, then by column.
    """

    def __init__(self, matrix: sp.csr_matrix):
        indptr = matrix.indptr
        self.lengths = np.diff(indptr)
        rows = np.argsort(self.lengths, kind="stable")
        self.rows = rows[self.lengths[rows] > 0]
        self.gather, _ = _row_entries(indptr, self.rows)
        sizes, counts = np.unique(self.lengths[self.rows], return_counts=True)
        starts = np.concatenate(([0], np.cumsum(sizes * counts)[:-1]))
        self.blocks = list(zip(starts.tolist(), counts.tolist(), sizes.tolist()))
        # Each row reversed puts the descending rows that
        # build_structural_transition stores in ascending order; other rows
        # are sorted.
        indices = matrix.indices
        self.ascending = np.repeat(indptr[:-1] + indptr[1:] - 1, self.lengths) - np.arange(len(indices))
        reversed_indices = indices[self.ascending]
        rises = reversed_indices[1:] > reversed_indices[:-1]
        # a row's first entry need not rise above the previous row's last
        rises[indptr[1:-1][(indptr[1:-1] > 0) & (indptr[1:-1] < len(indices))] - 1] = True
        if not rises.all():
            row_starts = np.repeat(np.arange(len(self.lengths), dtype=np.int64) * matrix.shape[1], self.lengths)
            self.ascending = np.argsort(row_starts + indices, kind="stable")

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Each row's sum of ``values``, one per entry, as numpy sums that row's values alone.

        numpy sums a contiguous run pairwise, and a (rows, length) block
        reduced along its last axis sums each row the same way, so rows are
        summed a block of one length at a time (``np.add.reduceat`` sums a
        run another way).
        """
        totals = np.zeros(len(self.lengths))
        if self.blocks:
            grouped = values[self.gather]
            sums = [grouped[start : start + count * length].reshape(count, length).sum(axis=1) for start, count, length in self.blocks]
            totals[self.rows] = np.concatenate(sums)
        return totals


class Subgraph:
    """Induced subgraph over a node subset of a parent graph.

    ``nodes`` holds the retained nodes' global indices in ascending order.
    The subgraph exposes the same view interface as the parent graph:
    ``uniform_transition`` is the uniform walk over the induced adjacency,
    with rows and columns in ``nodes`` order, ``proposition_rows`` its
    proposition block and ``proposition_embeddings`` their vectors.

    A carved subgraph records the walk that chose its nodes: ``walk_steps``,
    the steps it ran, and ``walk_stop``, why it stopped: ``"certificate"``
    (its node set was proven), ``"convergence"`` or ``"budget"``
    (``ppr_max_iters`` ran out). Both are ``None`` for any other subgraph.
    """

    def __init__(
        self,
        parent: HeteroGraph,
        nodes: Sequence[int] | np.ndarray,
        walk_steps: int | None = None,
        walk_stop: str | None = None,
    ):
        self.parent = parent
        self.walk_steps = walk_steps
        self.walk_stop = walk_stop
        self.nodes = np.array(nodes, dtype=np.int64)
        if not (self.nodes[1:] > self.nodes[:-1]).all():
            self.nodes = np.unique(self.nodes)
        self.uniform_transition = _induced_walk(parent.uniform_transition, self.nodes)
        first = parent.proposition_rows
        lo, hi = np.searchsorted(self.nodes, [first.start, first.stop])
        self.proposition_rows = slice(int(lo), int(hi))
        indices = self.nodes[lo:hi] - first.start
        self.proposition_indices: list[int] = indices.tolist()
        self.proposition_embeddings = parent.proposition_embeddings[indices]

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def _induced_walk(walk: sp.csr_matrix, nodes: np.ndarray) -> sp.csr_matrix:
    """The uniform walk over the subgraph of ``walk``'s graph induced by the ascending ``nodes``.

    One gather takes each node's row entries whose column is a node, in
    row order, which keeps the columns ascending, as a row slice and then
    a column slice would.
    """
    entries, bounds = _row_entries(walk.indptr, nodes)
    local = np.full(walk.shape[0], -1, dtype=walk.indices.dtype)
    local[nodes] = np.arange(len(nodes))
    columns = local[walk.indices[entries]]
    kept = columns >= 0
    kept_before = np.zeros(len(kept) + 1, dtype=walk.indptr.dtype)
    np.cumsum(kept, out=kept_before[1:])
    indptr = kept_before[bounds]
    degrees = np.diff(indptr)
    return sp.csr_matrix((1.0 / np.repeat(degrees, degrees), columns[kept], indptr), shape=(len(nodes), len(nodes)))


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the entries of ``rows`` of a CSR matrix, row after row, and the bounds of each row's run among them."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    bounds = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], lengths), bounds


def build_structural_transition(view: HeteroGraph | Subgraph) -> TransitionMatrix:
    """Two-step proposition-to-proposition transition through shared hubs.

    A walk step goes proposition -> incident entity/passage -> proposition,
    both hops uniform over the view-restricted neighbors: the product of
    the view's walk from its propositions to their hubs and back. The
    diagonal is then dropped and surviving rows renormalized so the
    operator stays stochastic. Each row stores its columns in descending
    order, the order in which a walker sums the row's query weights.
    """
    rows = view.proposition_rows
    walk = view.uniform_transition
    n = rows.stop - rows.start
    if n == 0:
        raise ValueError("view contains no propositions")
    first, last = walk.indptr[rows.start], walk.indptr[rows.stop]
    near = walk.indices[first:last]
    # Hubs are numbered by first appearance (by proposition, then in node
    # order). This fixes the order in which the product sums the terms of
    # each entry, and with it the operator's last bits.
    seen, first_seen = np.unique(near, return_index=True)
    hubs = seen[np.argsort(first_seen)]
    column = np.zeros(walk.shape[0], dtype=np.int64)
    column[hubs] = np.arange(len(hubs))
    # sorted in place below: a copy, as a frozen graph's walk is read-only
    to_hub = sp.csr_matrix((walk.data[first:last].copy(), column[near], walk.indptr[rows.start : rows.stop + 1] - first), shape=(n, len(hubs)))
    to_hub.sort_indices()
    # The graph is bipartite, so a hub's row of the walk holds propositions alone.
    entries, bounds = _row_entries(walk.indptr, hubs)
    back = sp.csr_matrix((walk.data[entries], walk.indices[entries] - rows.start, bounds), shape=(len(hubs), n))
    two_step = to_hub @ back
    two_step.sort_indices()
    off = two_step.indices != np.repeat(np.arange(n, dtype=two_step.indices.dtype), np.diff(two_step.indptr))
    columns, data = two_step.indices[off], two_step.data[off]
    indptr = _kept_indptr(two_step.indptr, off)
    # each row's sum is np.add.reduceat of its entries in ascending column
    # order, as scipy's sum(axis=1) takes it
    lengths = np.diff(indptr)
    filled = np.flatnonzero(lengths)
    sums = np.zeros(n)
    if len(filled):
        sums[filled] = np.add.reduceat(data, indptr[filled])
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > _DANGLING_EPS)
    data = np.repeat(inv, lengths) * data
    nonzero = data != 0.0
    kept = np.flatnonzero(nonzero)
    indptr = _kept_indptr(indptr, nonzero)
    # each row reversed, from its last entry to its first
    order = kept[np.repeat(indptr[:-1] + indptr[1:] - 1, np.diff(indptr)) - np.arange(len(kept))]
    return TransitionMatrix(sp.csr_matrix((data[order], columns[order], indptr), shape=(n, n)))


def _kept_indptr(indptr: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The row pointers of a CSR matrix after only its entries where ``kept`` is true remain."""
    return indptr - np.searchsorted(np.flatnonzero(~kept), indptr)


def build_semantic_transition(
    structural: TransitionMatrix, similarities: np.ndarray, params: WalkParams
) -> TransitionMatrix:
    """Query-aware reweighting of the structural adjacency pattern.

    Each neighbor j attracts mass proportional to exp(c_j / tau), with
    neighbors below the cosine floor ``theta`` masked out entirely. Rows
    whose entire neighborhood falls below the floor keep their structural
    row so the walk never strands in a semantically dark region.
    """
    data, fallback = _semantic_weights(structural, similarities, params)
    base = structural.matrix
    # eliminate_zeros compacts the index arrays in place: give it copies
    csr = sp.csr_matrix((data, base.indices.copy(), base.indptr.copy()), shape=base.shape)
    csr.eliminate_zeros()
    return TransitionMatrix(csr, fallback)


def _semantic_weights(
    structural: TransitionMatrix, similarities: np.ndarray, params: WalkParams
) -> tuple[np.ndarray, frozenset[int]]:
    """The data of :func:`build_semantic_transition` on the structural pattern, a masked neighbor's 0.0 kept, and its fallback rows."""
    if params.tau <= 0:
        raise ValueError("tau must be positive")
    n = structural.size
    similarities = np.asarray(similarities, dtype=np.float64).ravel()
    if similarities.shape[0] != n:
        raise ValueError(f"similarity vector has {similarities.shape[0]} entries for {n} propositions")

    boosted = np.where(similarities >= params.theta, np.exp(similarities / params.tau), 0.0)
    base = structural.matrix
    pattern = structural._pattern
    weights = boosted[base.indices]
    # each row's total is the very float that summing the row alone gives
    totals = pattern.row_sums(weights)
    fallback = np.flatnonzero((pattern.lengths > 0) & ~(totals > 0.0))
    row_totals = np.repeat(totals, pattern.lengths)
    data = np.divide(weights, row_totals, out=base.data.astype(np.float64), where=row_totals > 0.0)
    return data, frozenset(fallback.tolist())


def blend(structural: TransitionMatrix, semantic: TransitionMatrix, lambda_: float) -> TransitionMatrix:
    """Convex combination lambda * structural + (1 - lambda) * semantic."""
    if not 0.0 <= lambda_ <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lambda_}")
    if structural.size != semantic.size:
        raise ValueError("matrices have different sizes")
    mixed = (lambda_ * structural.matrix + (1.0 - lambda_) * semantic.matrix).tocsr()
    mixed.eliminate_zeros()
    return TransitionMatrix(mixed, semantic.fallback_rows)


def ppr(
    transition: TransitionMatrix | sp.csr_matrix,
    seeds: Sequence[int],
    params: WalkParams,
) -> np.ndarray:
    """Personalized PageRank with restarts uniform over ``seeds``: one probability per row.

    Power iteration on ``pi <- d * (M^T pi + dangling_mass * r) + (1-d) * r``
    until the L1 change drops below ``ppr_epsilon`` or the iteration budget
    runs out. Mass sitting on dangling rows is redirected to the restart
    vector each step, so the output always sums to one.
    """
    matrix = transition.matrix if isinstance(transition, TransitionMatrix) else transition
    n = matrix.shape[0]
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed set must be non-empty")
    for s in seeds:
        if not 0 <= s < n:
            raise IndexError(f"seed {s} out of range for {n} rows")
    restart = np.zeros(n, dtype=np.float64)
    restart[sorted(set(seeds))] = 1.0 / len(set(seeds))

    dangling = np.flatnonzero(np.asarray(matrix.sum(axis=1)).ravel() <= _DANGLING_EPS)
    # M^T pi by the CSC view of M^T: each entry adds its terms in ascending row order
    mt = matrix.T
    d = params.damping
    teleport = (1.0 - d) * restart

    pi = restart.copy()
    for _ in range(params.ppr_max_iters):
        nxt = mt @ pi
        if len(dangling):
            nxt += float(pi[dangling].sum()) * restart
        nxt *= d
        nxt += teleport
        change = nxt - pi
        err = float(np.abs(change, out=change).sum())
        pi = nxt
        if err < params.ppr_epsilon:
            break
    return pi


def _column_sums(block: np.ndarray) -> np.ndarray:
    """Each column's sum, added pairwise as for a 1-d array (``sum(axis=0)`` adds row by row)."""
    return np.array([block[:, column].sum() for column in range(block.shape[1])])


def _admit(scores: np.ndarray, included: np.ndarray, brings: np.ndarray, size_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes the admission loop reads, in order, and how many nodes each read adds.

    The loop reads nodes by descending score, ties by ascending index, and
    admits each one not yet in along with what it brings, until at least
    ``size_limit`` nodes are in; ``included`` marks the nodes in from the
    start. A read adds the members of its (node, brought) pair that are
    neither in from the start nor in an earlier pair, so the gains are
    first appearances in the list of pairs, and the loop reads up to the
    first read at which the running count reaches the limit.
    """
    count = np.count_nonzero(included)
    if count >= size_limit:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # The loop reads an entry only while fewer than size_limit nodes are
    # in, and every entry ranked above it is in: it reads at most the
    # first size_limit entries, which rank among the nodes scoring at
    # least the size_limit-th highest score.
    kth = len(scores) - min(size_limit, len(scores))
    head = np.flatnonzero(scores >= np.partition(scores, kth)[kth])
    ranking = head[np.lexsort((head, -scores[head]))]
    pairs = np.column_stack((ranking, brings[ranking])).ravel()
    # each node's first position in the pairs
    appears = np.full(len(scores), len(pairs))
    np.minimum.at(appears, pairs, np.arange(len(pairs)))
    fresh = (appears[pairs] == np.arange(len(pairs))) & ~included[pairs]
    gains = np.add(fresh[0::2], fresh[1::2], dtype=np.int64)
    full = np.flatnonzero(count + np.cumsum(gains) >= size_limit)
    end = int(full[0]) + 1 if full.size else len(ranking)
    return ranking[:end], gains[:end]


class _Admission:
    """The admission rule of a block of carvings, and the certificate that stops their walks early.

    The walk of a carving from propositions can stop before it converges,
    once its node set is proven. The graph is bipartite, with propositions
    on one side, so x_t = (M^T)^t r lies on the propositions at even steps
    t and on the other side at odd ones, and pi_t = (1 - d) sum_(s<t) d^s
    x_s + d^t x_t. At an even step, with y = pi / deg:

    * b, the truncated series (1 - d) sum_(s<t) d^s x_s / deg, is min(pi_(t-1),
      pi_t) / deg, since pi_t - pi_(t-1) = d^t (x_t - x_(t-1)) is d^t x_t
      >= 0 on the propositions and -d^t x_(t-1) <= 0 elsewhere;
    * w = d^t max x_t / deg over the propositions is max (pi_t - pi_(t-1))
      / deg there;
    * every later score pi_T / deg, the converged one included, lies in
      [b, b + w], because a uniform walk step cannot raise max x / deg
      (each entry is the mean of its neighbours' x / deg), so the rest of
      the series adds at most w.

    The admission loop run on y_t then takes the converged walk's node set
    when, for its last admitted node's twin class U (nodes with one
    neighbour list, whose scores are equal floats at every step and are
    read in index order, :attr:`HeteroGraph.twin_classes`), every node it
    admitted before U has b above U's b + w, and U's b is above b + w of
    every node that could still be read before U and change the count:
    each one not in from the start, not admitted before U, not brought in
    by such a node, and not in U. The gap is the smallest of those
    separations, and it must exceed w plus a rounding margin (see
    :meth:`__init__`). A seed in U is in from the start, so it never
    counts. A walk that steps the whole distribution (:func:`_carving_walks`)
    reads b and w from pi_(t-1) and pi_t as above; the one-sided walk
    (:func:`_one_sided_walks`) keeps b and x_t themselves, with a wider
    margin and a relative spread for its own rounding.

    w is read off the propositions' slice at every fourth step: over a
    block of six columns a read costs about a third of a full step, and w
    narrows about 2.6-fold in four steps. A full check ranks the nodes and
    costs about two steps of one column, so it runs only once the bracket
    could be narrow enough: the first when w has fallen ``_NARROWING``-fold
    since step 4, each later one when w is below the gap the last check
    measured, as gaps change little once positive, or has fallen
    ``_NARROWING``-fold again after a check that found no positive gap.
    """

    def __init__(self, graph: HeteroGraph, seed_rows: list[np.ndarray], size_limit: int, damping: float):
        self.graph = graph
        self.size_limit = size_limit
        # admitting a node admits what it brings: a proposition its passage,
        # any other node only itself
        self.brings = np.arange(graph.node_count)
        self.brings[graph.proposition_rows] = graph.proposition_passages
        # a walk from propositions leaves degree-0 rows at exactly 0, which
        # dividing by 1 keeps: a score is a plain division
        self.degrees = np.maximum(graph.global_degrees, 1.0)
        self.initial = []
        for rows in seed_rows:
            included = np.zeros(graph.node_count, dtype=bool)
            included[rows] = included[self.brings[rows]] = True
            self.initial.append(included)
        # Rounding margin. Let u = 2^-53 and K the longest row. A step sums
        # at most K nonnegative products per entry, scales by d and may add
        # a teleport term, so each computed entry is the exact step of the
        # computed previous vector off by a relative (K + 3)u at most. The
        # exact step contracts L1 differences by d and the walk holds mass
        # 1, so every computed pi_t is within E = (K + 3)u / (1 - d) of the
        # exact one in L1, hence in every entry; dividing by a degree (at
        # least 1) adds u. So b is within E + u, w within 2E + 2u (a
        # difference of two steps) and the converged score the admission
        # reads within E + u of exact, and the float restart weight scales
        # the tail by at most 1 + 2u: a gap above w + 6E + 8u, plus 2u for
        # rounding the gap and the sum, is a certificate. 6(K + 3) + 10 is
        # below 8(K + 4), which also leaves room for second order terms.
        u = np.finfo(np.float64).eps / 2
        self.longest = float(graph.global_degrees.max())
        self.margin = 8.0 * (self.longest + 4.0) * u / (1.0 - damping)
        # The one-sided walk (see _one_sided_walks) proves a column from its
        # own floats, and the proof must hold for the floats above too, the
        # ones a walk stepping the whole distribution computes. Its b and w
        # are within a relative error of the exact ones (see
        # one_sided_spread), which its gap allows for; and where the exact
        # gap exceeds the exact w by 4E + 4u more than the margin above,
        # the gap of those floats, two b's each within E + u, exceeds their
        # w, within 2E + 2u, by that margin.
        self.one_sided_margin = self.margin + 4.0 * (self.longest + 3.0) * u / (1.0 - damping) + 4.0 * u
        self.steps = np.zeros(len(seed_rows), dtype=np.int64)
        self.stops = np.full(len(seed_rows), "budget", dtype=object)
        self.check_below = np.full(len(seed_rows), np.nan)
        # the nodes the admission loop read at the step that proved a column
        self.proven_reads: dict[int, np.ndarray] = {}

    def one_sided_spread(self, step: int) -> float:
        """A bound on the relative error of each b and w entry that the one-sided walk computes at ``step``.

        Every quantity of that walk is a sum of nonnegative terms, so its
        rounding error is relative to each entry. A block step sums at most
        K products of an entry rounded from 1/deg, each within a relative
        (K + 1)u of exact, so x_t is within t(K + 1)u of (M^T)^t r. The
        factor (1 - d) d^s, a running product, adds s + 2 roundings, the
        scaled term one more, and b_t sums t terms, which adds t - 1: b_t
        is within t(K + 3)u + 4u, and b_t / deg within t(K + 3)u + 5u. w
        is d^t max x_t / deg, within t(K + 2)u + 3u. (t + 1)(K + 4)u covers
        both, and doubling it covers second order terms and rounding the
        gap, whose lower ends are scaled by 1 - spread and upper ends by 1
        + spread.
        """
        return 2.0 * (step + 1) * (self.longest + 4.0) * np.finfo(np.float64).eps / 2

    def nodes(self, column: int, visits: np.ndarray | None) -> np.ndarray:
        """The carving of ``column`` from its walk's ``visits``: the nodes the admission loop takes.

        A proven column's walk stopped at the step its proof read, so the
        loop is not run again, and ``visits`` is not read.
        """
        included = self.initial[column].copy()
        read = self.proven_reads.get(column)
        if read is None:
            read, _ = _admit(self._scores(visits), included, self.brings, self.size_limit)
        included[read] = included[self.brings[read]] = True
        return np.flatnonzero(included)

    def _scores(self, visits: np.ndarray) -> np.ndarray:
        return visits / self.degrees

    def certify(self, columns: np.ndarray, widths: np.ndarray, candidates: np.ndarray, bracket, spread: float = 0.0) -> np.ndarray:
        """Which block columns are proven at an even step whose bracket widths, margins included, are ``widths``.

        ``columns`` names the carving of each block column, and only the
        ``candidates`` are checked. ``bracket(k)`` gives block column k's
        visits at this step and the lower end of their bracket, b, and the
        gap scales b by ``1 -/+ spread`` (see :meth:`_gap`). Records the
        stop of each proven one.
        """
        fresh = np.isnan(self.check_below[columns])
        self.check_below[columns[fresh]] = widths[fresh] / _NARROWING
        proven = np.zeros(len(columns), dtype=bool)
        for k in np.flatnonzero(candidates & (widths < self.check_below[columns])).tolist():
            column, width = columns[k], widths[k]
            visits, low = bracket(k)
            read, gains = _admit(self._scores(visits), self.initial[column], self.brings, self.size_limit)
            gap = self._gap(column, read, gains, self._scores(low), spread)
            proven[k] = gap > width
            if proven[k]:
                self.proven_reads[column] = read
            self.check_below[column] = gap if gap > 0 else width / _NARROWING
        self.stops[columns[proven]] = "certificate"
        return proven

    def _gap(self, column: int, read: np.ndarray, gains: np.ndarray, base: np.ndarray, spread: float) -> float:
        """The smallest separation in ``base`` between the last unit of the admission loop's ``read`` and the nodes that must stay on either side of it.

        Each separation takes the lower of its two entries down by a
        relative ``spread`` and the higher one up by it.
        """
        if not len(read) or self.size_limit >= self.graph.node_count:
            # the seeds fill the limit, or every node is taken: order does not matter
            return np.inf
        last = read[-1]
        twins = self.graph.twin_classes
        unit = twins == twins[last]
        before = read[:-1][gains[:-1] > 0]
        before = before[~unit[before]]
        out = ~self.initial[column]
        out[before] = out[self.brings[before]] = False
        out[unit] = False
        low, high = 1.0 - spread, 1.0 + spread
        above = float(base[before].min()) * low - base[last] * high if before.size else np.inf
        below = base[last] * low - float(np.max(base, where=out, initial=-np.inf)) * high
        return min(above, below)


def _first_testable_step(graph: HeteroGraph, params: WalkParams) -> int:
    """The first step at which a walk from propositions can pass the convergence test of :func:`ppr`.

    The graph is bipartite with propositions on one side, so the walk's
    change pi_t - pi_(t-1) = d^t (x_t - x_(t-1)) is two terms on disjoint
    supports, and its exact L1 norm is 2 d^t: no mass reaches a degree-0
    row, as these have no in-edges. Each computed pi_t lies within E =
    (K + 3)u / (1 - d) of the exact one in L1, for u = 2^-53 and K the
    longest row (see :class:`_Admission`), and the computed differences
    and their sum lose at most a factor 1 - gamma_n, for n rows. So the
    test reads at least (2 d^t - 2E)(1 - gamma_n), and cannot pass while
    that is at least ``ppr_epsilon``. E is doubled below, for second order
    terms and for evaluating the bound itself in floats.
    """
    u = np.finfo(np.float64).eps / 2
    d = params.damping
    error = 2.0 * (float(graph.global_degrees.max(initial=0.0)) + 3.0) * u / (1.0 - d)
    shrink = 1.0 - (graph.node_count + 1) * u / (1.0 - (graph.node_count + 1) * u)
    step = 1
    while step <= params.ppr_max_iters and (2.0 * d**step - 2.0 * error) * shrink >= params.ppr_epsilon:
        step += 1
    return step


def _carving_walks(
    graph: HeteroGraph,
    seed_rows: list[np.ndarray],
    params: WalkParams,
    admission: _Admission | None = None,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """The uniform walk's PPR restarting at each of ``seed_rows``, one column each.

    All walks run as one block: a step is one sparse product over the
    columns still running. Each column does what :func:`ppr` does for it
    alone, with the same floats, and stops at its own step, so it is bit
    for bit ``ppr``'s result. A block seeded at propositions alone leaves
    out what cannot change a float or a stop: the dangling mass, an exact
    zero, and the convergence test before :func:`_first_testable_step`.
    Given the ``admission`` of proposition seed sets, a column also stops
    once its carving is proven, at a step before convergence;
    ``admission`` records each column's steps and stop, under the carving
    ``columns`` names (by default, its position).
    """
    transposed = graph.transposed_transition
    dangling = np.flatnonzero(graph.global_degrees == 0)
    d = params.damping
    carvings = np.arange(len(seed_rows)) if columns is None else columns
    # Away from every seed the restart terms are exact zeros, and a step
    # is d * (M^T pi) alone; the full update runs on the seed rows only.
    seeds = np.unique(np.concatenate(seed_rows))
    restart = np.zeros((len(seeds), len(seed_rows)))
    for column, rows in enumerate(seed_rows):
        restart[np.searchsorted(seeds, rows), column] = 1.0 / len(rows)
    teleport = (1.0 - d) * restart
    props = graph.proposition_rows
    # A walk from propositions puts no mass on degree-0 rows, as these have
    # no in-edges: its dangling term is an exact 0, and d * (x + 0.0) is d * x.
    from_props = props.start <= seeds[0] and seeds[-1] < props.stop
    first_test = _first_testable_step(graph, params) if from_props else 1
    pi = np.zeros((graph.node_count, len(seed_rows)))
    pi[seeds] = restart
    done = np.empty_like(pi)
    running = np.arange(len(seed_rows))
    for step in range(1, params.ppr_max_iters + 1):
        nxt = transposed @ pi
        if from_props:
            at_seeds = d * nxt[seeds] + teleport
        else:
            at_seeds = d * (nxt[seeds] + _column_sums(pi[dangling]) * restart) + teleport
        nxt *= d
        nxt[seeds] = at_seeds
        if step >= first_test:
            moved = nxt - pi
            np.abs(moved, out=moved)
            stopped = _column_sums(moved) < params.ppr_epsilon
        else:
            stopped = np.zeros(len(running), dtype=bool)
        if admission is not None:
            admission.steps[carvings[running]] = step
            admission.stops[carvings[running[stopped]]] = "convergence"
            if from_props and step % 4 == 0:
                # w is read from the step change on the propositions alone,
                # as |nxt - pi| there: the change itself, but for rounding,
                # which its absolute value only widens; column-major, as a
                # max along the rows of a narrow row-major block is slow
                moved = np.subtract(nxt[props], pi[props], order="F")
                np.abs(moved, out=moved)
                np.divide(moved, graph.global_degrees[props, None], out=moved)
                widths = moved.max(axis=0) + admission.margin
                stopped |= admission.certify(
                    carvings[running], widths, ~stopped, lambda k: (nxt[:, k], np.minimum(pi[:, k], nxt[:, k]))
                )
        pi = nxt
        if stopped.any():
            done[:, running[stopped]] = pi[:, stopped]
            running, pi = running[~stopped], pi[:, ~stopped]
            restart, teleport = restart[:, ~stopped], teleport[:, ~stopped]
            if not len(running):
                break
    done[:, running] = pi
    return done


def _one_sided_walks(graph: HeteroGraph, seed_rows: list[np.ndarray], params: WalkParams, admission: _Admission) -> np.ndarray:
    """Prove the carvings of proposition ``seed_rows`` that it can by stepping the newest term alone; returns the rest.

    The graph is bipartite, so pi_t = (1 - d) sum_(s<t) d^s x_s + d^t x_t
    with x_t = (M^T)^t r on one side only: the propositions at even t, the
    hubs at odd t. The walk keeps x_t, one side long, and the truncated
    series b = (1 - d) sum_(s<t) d^s x_s: a step adds (1 - d) d^(t-1)
    x_(t-1) to b and multiplies x by one block of
    :attr:`HeteroGraph.side_transitions`, half the entries of
    :attr:`HeteroGraph.transposed_transition`. At a check, b / deg is the
    bracket's lower end, w = d^t max x_t / deg over the propositions its
    width, read straight from x_t, and b + d^t x_t the visits the
    admission loop reads: the quantities of :class:`_Admission`, with the
    one-sided margin and spread.

    The walk runs while the convergence test of :func:`ppr` cannot pass,
    up to the step before :func:`_first_testable_step` or to
    ``ppr_max_iters``, so a proven column's step is one at which ``ppr``
    has not stopped. It stops where every column is proven. The columns it
    returns are not; their check schedule starts afresh.
    """
    to_hubs, to_props = graph.side_transitions
    props = graph.proposition_rows
    d = params.damping
    term = np.zeros((to_props.shape[0], len(seed_rows)))
    for column, rows in enumerate(seed_rows):
        term[rows - props.start, column] = 1.0 / len(rows)
    # b on the propositions, then on the hubs: passages before and entities after the propositions' rows
    series = [np.zeros_like(term), np.zeros((to_hubs.shape[0], len(seed_rows)))]
    degrees = graph.global_degrees[props, None]
    running = np.arange(len(seed_rows))
    scale = 1.0  # d^(step - 1)
    for step in range(1, min(_first_testable_step(graph, params) - 1, params.ppr_max_iters) + 1):
        series[(step - 1) % 2] += ((1.0 - d) * scale) * term
        term = (to_hubs if step % 2 else to_props) @ term
        scale *= d
        admission.steps[running] = step
        if step % 4:
            continue
        spread = admission.one_sided_spread(step)
        widths = scale * np.divide(term, degrees, order="F").max(axis=0) * (1.0 + spread) + admission.one_sided_margin

        def bracket(k: int) -> tuple[np.ndarray, np.ndarray]:
            hubs = series[1][:, k]
            low = np.concatenate((hubs[: props.start], series[0][:, k], hubs[props.start :]))
            visits = low.copy()
            visits[props] += scale * term[:, k]
            return visits, low

        proven = admission.certify(running, widths, np.ones(len(running), dtype=bool), bracket, spread)
        if proven.any():
            running, term = running[~proven], term[:, ~proven]
            series = [block[:, ~proven] for block in series]
            if not len(running):
                break
    admission.check_below[running] = np.nan
    return running


def extract_subgraphs(
    graph: HeteroGraph,
    seed_sets: Sequence[Sequence[int]],
    size_limit: int,
    params: WalkParams,
) -> list[Subgraph]:
    """Carve a bounded neighborhood around each set of seed propositions.

    For each set, runs a random walk with restart over the full graph
    (uniform neighbor transitions, restart to the seeds with probability
    1 - damping), then ranks non-seed nodes by visit probability divided
    by degree. Dividing by degree keeps high-degree hubs from crowding out
    genuinely close nodes. Nodes are admitted in rank order until
    ``size_limit`` is reached; every admitted proposition drags its
    passage along, and seeds with their passages are always present no
    matter how small the limit. The walks of all sets run as one block,
    stepping the newest term alone, and each stops as soon as its node set
    is proven (see :func:`_one_sided_walks`); a set not proven by the step
    at which the walk could first converge is walked again in full, as
    :func:`ppr` would. Each carving records its walk's steps and stop.
    """
    seed_rows: list[np.ndarray] = []
    for seed_props in seed_sets:
        seeds = sorted(set(seed_props))
        if not seeds:
            raise ValueError("seed set must be non-empty")
        if size_limit < len(seeds):
            raise ValueError(f"size limit {size_limit} below seed count {len(seeds)}")
        if seeds[0] < 0 or seeds[-1] >= len(graph.propositions):
            raise UnknownNodeError(f"unknown proposition among seeds {seeds}")
        seed_rows.append(np.add(seeds, graph.proposition_rows.start))
    if not seed_rows:
        return []
    admission = _Admission(graph, seed_rows, size_limit, params.damping)
    pending = _one_sided_walks(graph, seed_rows, params, admission)
    visits = {}
    if len(pending):
        walked = _carving_walks(graph, [seed_rows[c] for c in pending.tolist()], params, admission, pending)
        visits = dict(zip(pending.tolist(), walked.T))
    return [
        Subgraph(graph, admission.nodes(column, visits.get(column)), int(admission.steps[column]), admission.stops[column])
        for column in range(len(seed_rows))
    ]


def extract_subgraph(
    graph: HeteroGraph,
    seed_props: Sequence[int],
    size_limit: int,
    params: WalkParams,
) -> Subgraph:
    """The carving of :func:`extract_subgraphs` for one seed set."""
    return extract_subgraphs(graph, [seed_props], size_limit, params)[0]


def query_aware_transition(
    view: HeteroGraph | Subgraph,
    query_vec: np.ndarray,
    params: WalkParams,
    structural: TransitionMatrix | None = None,
) -> TransitionMatrix:
    """Build the blended walk operator for one query over ``view``.

    ``structural`` can be passed in when several queries share one view so
    the two-hop product and its row layout are computed only once. The
    result is ``blend(structural, build_semantic_transition(...))``, array
    for array, computed on the structural pattern: a masked neighbor adds
    (1 - lambda) * 0.0 to its blended entry, so it needs no removing first.
    """
    if structural is None:
        structural = build_structural_transition(view)
    sims = view.proposition_embeddings @ np.asarray(query_vec, dtype=np.float64)
    semantic, fallback = _semantic_weights(structural, sims, params)
    base = structural.matrix
    mixed = params.lambda_ * base.data + (1.0 - params.lambda_) * semantic
    # blend's sum stores each row in ascending column order, without zeros
    ascending = structural._pattern.ascending
    data, indices, indptr = mixed[ascending], base.indices[ascending], base.indptr.copy()
    if not data.all():
        nonzero = data != 0.0
        data, indices, indptr = data[nonzero], indices[nonzero], _kept_indptr(indptr, nonzero)
    return TransitionMatrix(sp.csr_matrix((data, indices, indptr), shape=base.shape), fallback)
