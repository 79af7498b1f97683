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
* all rankings go through :func:`propgraph.encoding.top_rows`: descending
  score, ties to the lower index, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .config import RunConfig
from .encoding import top_rows
from .errors import UnknownNodeError
from .graph import HeteroGraph

_DANGLING_EPS = 1e-15
# How far a carving walk's bracket must narrow before a certificate check
# runs (see _Admission): _FIRST_NARROWING from step 4 before a column's
# first check, _NARROWING after a check that found no positive gap. On the
# 217 carvings of the seed-7 and seed-31 bench questions the bracket
# narrows about 0.75-fold per step. A gap first turned positive at step 32
# in the median (quartiles 28 and 36), and the earliest check that could
# prove a carving was at step 60 (quartiles 56 and 68). So a first check
# at 256-fold, near step 20, almost always failed; at 65536-fold it runs
# near step 48. Counting a full check as three single-column steps, 16384-
# to 65536-fold cost least of 256- to 1048576-fold on both graphs. Against
# 256-fold for every check, full checks went 597 -> 423 and walk steps
# 13,850 -> 13,866; on seed 911, held out, 307 -> 219 and 7,104 -> 7,030.
_FIRST_NARROWING = 65536.0
_NARROWING = 256.0


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
    ``gather``, row count and length.
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
    proposition block and ``proposition_embeddings`` their vectors, as the
    float64 values of the parent's float32 rows.

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
        self.proposition_embeddings = parent.proposition_embeddings[indices].astype(np.float64)

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
    matrix = sp.csr_matrix((data[order], columns[order], indptr), shape=(n, n))
    # every walker's operator shares this pattern
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return TransitionMatrix(matrix)


def _kept_indptr(indptr: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The row pointers of a CSR matrix after only its entries where ``kept`` is true remain."""
    return indptr - np.searchsorted(np.flatnonzero(~kept), indptr)


def build_semantic_transition(
    structural: TransitionMatrix, similarities: np.ndarray, cfg: RunConfig
) -> TransitionMatrix:
    """Query-aware reweighting of the structural adjacency pattern.

    Each neighbor j attracts mass proportional to exp(c_j / temperature),
    with neighbors below ``cosine_threshold`` masked out entirely. Rows
    whose entire neighborhood falls below the floor keep their structural
    row so the walk never strands in a semantically dark region.
    """
    data, fallback = _semantic_weights(structural, similarities, cfg)
    base = structural.matrix
    # eliminate_zeros compacts the index arrays in place: give it copies
    csr = sp.csr_matrix((data, base.indices.copy(), base.indptr.copy()), shape=base.shape)
    csr.eliminate_zeros()
    return TransitionMatrix(csr, fallback)


def _semantic_weights(
    structural: TransitionMatrix, similarities: np.ndarray, cfg: RunConfig
) -> tuple[np.ndarray, frozenset[int]]:
    """The data of :func:`build_semantic_transition` on the structural pattern, a masked neighbor's 0.0 kept, and its fallback rows."""
    n = structural.size
    similarities = np.asarray(similarities, dtype=np.float64).ravel()
    if similarities.shape[0] != n:
        raise ValueError(f"similarity vector has {similarities.shape[0]} entries for {n} propositions")

    boosted = np.where(similarities >= cfg.cosine_threshold, np.exp(similarities / cfg.temperature), 0.0)
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
    cfg: RunConfig,
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
    return _power_iteration(_matrix_step(matrix, restart), restart, cfg)[0]


def _matrix_step(matrix: sp.csr_matrix, restart: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The step of :func:`ppr` over ``matrix`` before damping: pi to M^T pi, the mass on dangling rows put back on ``restart``."""
    dangling = np.flatnonzero(np.asarray(matrix.sum(axis=1)).ravel() <= _DANGLING_EPS)
    # M^T pi by the CSC view of M^T: each entry adds its terms in ascending row order
    mt = matrix.T

    def step(pi: np.ndarray) -> np.ndarray:
        nxt = mt @ pi
        if len(dangling):
            nxt += float(pi[dangling].sum()) * restart
        return nxt

    return step


def _side_step(graph: HeteroGraph) -> Callable[[np.ndarray], np.ndarray]:
    """:func:`_matrix_step` of ``graph.uniform_transition`` for a walk from propositions, by the two blocks of :attr:`HeteroGraph.side_transitions`.

    Each entry of M^T pi sums the same products as the CSC view of M^T
    does, in the same ascending order of source rows (the hubs' columns
    keep node order), so the result has the same bits, in about three
    fifths of the time. No mass reaches a dangling row, a degree-0 node
    without in-edges, so none is put back.
    """
    to_hubs, to_props = graph.side_transitions
    props = graph.proposition_rows

    def step(pi: np.ndarray) -> np.ndarray:
        reached = to_hubs @ pi[props]
        nxt = np.empty_like(pi)
        nxt[: props.start] = reached[: props.start]
        nxt[props] = to_props @ np.concatenate((pi[: props.start], pi[props.stop :]))
        nxt[props.stop :] = reached[props.start :]
        return nxt

    return step


def _power_iteration(step: Callable[[np.ndarray], np.ndarray], restart: np.ndarray, cfg: RunConfig) -> tuple[np.ndarray, int, str]:
    """The loop of :func:`ppr` by ``step`` from the ``restart`` distribution: its result, the steps it ran and why it stopped, ``"convergence"`` or ``"budget"``."""
    d = cfg.damping
    teleport = (1.0 - d) * restart

    pi = restart.copy()
    for step_count in range(1, cfg.ppr_max_iters + 1):
        nxt = step(pi)
        nxt *= d
        nxt += teleport
        change = nxt - pi
        err = float(np.abs(change, out=change).sum())
        pi = nxt
        if err < cfg.ppr_epsilon:
            return pi, step_count, "convergence"
    return pi, cfg.ppr_max_iters, "budget"


def _admit(scores: np.ndarray, included: np.ndarray, count: int, brings: np.ndarray, size_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes the admission loop reads, in order, and how many nodes each read adds.

    The loop reads nodes by descending score, ties by ascending index, and
    admits each one not yet in along with what it brings, until at least
    ``size_limit`` nodes are in; ``included`` marks the ``count`` nodes in
    from the start. A read adds the members of its (node, brought) pair
    that are neither in from the start nor in an earlier pair, so the gains
    are first appearances in the list of pairs, and the loop reads up to
    the first read at which the running count reaches the limit.
    """
    if count >= size_limit:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # Every entry read is in, so the loop reads at most size_limit entries.
    ranking = top_rows(scores, size_limit)
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
    counts. The walk that checks the certificate (:func:`_one_sided_walks`)
    keeps b and x_t themselves rather than pi_(t-1) and pi_t, with a
    relative spread for its own rounding.

    w is read off the propositions' slice at every fourth step: over a
    block of six columns a read costs about a third of a full step, and w
    narrows about 2.6-fold in four steps. A full check ranks the nodes and
    costs about three steps of one column, so it runs only once a proof
    could close: a column's first check once w has fallen
    ``_FIRST_NARROWING``-fold since step 4, by when most gaps are
    positive; each later one when w is below the gap the last check
    measured, as gaps change little once positive, or has fallen
    ``_NARROWING``-fold again after a check that found no positive gap.
    Every column not yet proven is checked at the walk's last check step,
    the last multiple of 4 up to ``last_step``: a gap that once exceeded w
    stays above the gap minus w, while w keeps narrowing, so a column that
    an earlier check would have proven is most likely proven there, and
    a check costs far less than the exact walk it would spare.
    """

    def __init__(self, graph: HeteroGraph, seed_rows: list[np.ndarray], size_limit: int, cfg: RunConfig):
        self.graph = graph
        self.size_limit = size_limit
        # the one-sided walk runs while the convergence test of ppr cannot pass
        self.last_step = min(_first_testable_step(graph, cfg) - 1, cfg.ppr_max_iters)
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
        self.counts = [np.count_nonzero(included) for included in self.initial]
        # Rounding margin. Let u = 2^-53 and K the longest row. A step of
        # ppr sums at most K nonnegative products per entry, scales by d
        # and may add a teleport term, so each computed entry is the exact
        # step of the computed previous vector off by a relative (K + 3)u
        # at most. The exact step contracts L1 differences by d and the
        # walk holds mass 1, so every computed pi_t is within E = (K + 3)u
        # / (1 - d) of the exact one in L1, hence in every entry; dividing
        # by a degree (at least 1) adds u. So b is within E + u, w within
        # 2E + 2u (a difference of two steps) and the converged score the
        # admission reads within E + u of exact, and the float restart
        # weight scales the tail by at most 1 + 2u: a gap above w + 6E +
        # 8u, plus 2u for rounding the gap and the sum, is a certificate of
        # ppr's floats. 6(K + 3) + 10 is below 8(K + 4), which also leaves
        # room for second order terms.
        # The one-sided walk (see _one_sided_walks) proves a column from its
        # own floats, and the proof must hold for ppr's floats above too.
        # Its b and w are within a relative error of the exact ones (see
        # one_sided_spread), which its gap allows for; and where the exact
        # gap exceeds the exact w by 4E + 4u more than the margin above,
        # the gap of ppr's floats, two b's each within E + u, exceeds their
        # w, within 2E + 2u, by that margin.
        u = np.finfo(np.float64).eps / 2
        d = cfg.damping
        self.longest = float(graph.global_degrees.max())
        self.one_sided_margin = 8.0 * (self.longest + 4.0) * u / (1.0 - d) + 4.0 * (self.longest + 3.0) * u / (1.0 - d) + 4.0 * u
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
            read, _ = _admit(self._scores(visits), included, self.counts[column], self.brings, self.size_limit)
        included[read] = included[self.brings[read]] = True
        return np.flatnonzero(included)

    def _scores(self, visits: np.ndarray) -> np.ndarray:
        return visits / self.degrees

    def certify(self, columns: np.ndarray, widths: np.ndarray, bracket, spread: float) -> np.ndarray:
        """Which block columns are proven at an even step whose bracket widths, margins included, are ``widths``.

        ``columns`` names the carving of each block column. ``bracket(k)``
        gives block column k's visits at this step and the lower end of
        their bracket, b, and the gap scales b by ``1 -/+ spread`` (see
        :meth:`_gap`). Records the stop of each proven one. Checks only the
        columns the schedule (see the class docstring) says are due.
        """
        fresh = np.isnan(self.check_below[columns])
        self.check_below[columns[fresh]] = widths[fresh] / _FIRST_NARROWING
        due = widths < self.check_below[columns]
        # every running column is at the walk's step; at its last check step every one is due
        if self.steps[columns[0]] + 4 > self.last_step:
            due[:] = True
        proven = np.zeros(len(columns), dtype=bool)
        for k in np.flatnonzero(due).tolist():
            column, width = columns[k], widths[k]
            visits, low = bracket(k)
            read, gains = _admit(self._scores(visits), self.initial[column], self.counts[column], self.brings, self.size_limit)
            gap = self._gap(column, read, gains, self._scores(low), spread)
            proven[k] = gap > width
            if proven[k]:
                self.proven_reads[column] = read
            self.check_below[column] = gap if gap > 0 else width / _NARROWING
        self.stops[columns[proven]] = "certificate"
        return proven

    def _twins_of(self, node: int) -> np.ndarray:
        """The twin class of ``node``, found among the neighbours of its first neighbour, which every twin shares."""
        walk, twins = self.graph.uniform_transition, self.graph.twin_classes
        start, stop = walk.indptr[node : node + 2]
        if start == stop:
            return np.flatnonzero(twins == twins[node])
        hub = walk.indices[start]
        near = walk.indices[walk.indptr[hub] : walk.indptr[hub + 1]]
        return near[twins[near] == twins[node]]

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
        before = read[:-1][gains[:-1] > 0]
        before = before[twins[before] != twins[last]]
        out = ~self.initial[column]
        out[before] = out[self.brings[before]] = False
        out[self._twins_of(last)] = False
        low, high = 1.0 - spread, 1.0 + spread
        above = float(base[before].min()) * low - base[last] * high if before.size else np.inf
        below = base[last] * low - float(np.max(base, where=out, initial=-np.inf)) * high
        return min(above, below)


def _first_testable_step(graph: HeteroGraph, cfg: RunConfig) -> int:
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
    d = cfg.damping
    error = 2.0 * (float(graph.global_degrees.max(initial=0.0)) + 3.0) * u / (1.0 - d)
    shrink = 1.0 - (graph.node_count + 1) * u / (1.0 - (graph.node_count + 1) * u)
    step = 1
    while step <= cfg.ppr_max_iters and (2.0 * d**step - 2.0 * error) * shrink >= cfg.ppr_epsilon:
        step += 1
    return step


def _one_sided_walks(graph: HeteroGraph, seed_rows: list[np.ndarray], cfg: RunConfig, admission: _Admission) -> np.ndarray:
    """Prove the carvings of proposition ``seed_rows`` that it can by stepping the newest term alone; returns the rest.

    The graph is bipartite, so pi_t = (1 - d) sum_(s<t) d^s x_s + d^t x_t
    with x_t = (M^T)^t r on one side only: the propositions at even t, the
    hubs at odd t. The walk keeps x_t, one side long, and the truncated
    series b = (1 - d) sum_(s<t) d^s x_s: a step adds (1 - d) d^(t-1)
    x_(t-1) to b and multiplies x by one block of
    :attr:`HeteroGraph.side_transitions`, half the entries of a step of
    the whole distribution. At a check, b / deg is the bracket's lower
    end, w = d^t max x_t / deg over the propositions its width, read
    straight from x_t, and b + d^t x_t the visits the admission loop
    reads: the quantities of :class:`_Admission`, with the one-sided
    margin and spread.

    The walk runs while the convergence test of :func:`ppr` cannot pass,
    to ``admission.last_step``: the step before :func:`_first_testable_step`
    or ``ppr_max_iters``, so a proven column's step is one at which ``ppr``
    has not stopped. It stops where every column is proven. The columns it
    returns are not.
    """
    to_hubs, to_props = graph.side_transitions
    props = graph.proposition_rows
    d = cfg.damping
    term = np.zeros((to_props.shape[0], len(seed_rows)))
    for column, rows in enumerate(seed_rows):
        term[rows - props.start, column] = 1.0 / len(rows)
    # b on the propositions, then on the hubs: passages before and entities after the propositions' rows
    series = [np.zeros_like(term), np.zeros((to_hubs.shape[0], len(seed_rows)))]
    degrees = graph.global_degrees[props, None]
    running = np.arange(len(seed_rows))
    scale = 1.0  # d^(step - 1)
    for step in range(1, admission.last_step + 1):
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

        proven = admission.certify(running, widths, bracket, spread)
        if proven.any():
            running, term = running[~proven], term[:, ~proven]
            series = [block[:, ~proven] for block in series]
            if not len(running):
                break
    return running


def extract_subgraphs(
    graph: HeteroGraph,
    seed_sets: Sequence[Sequence[int]],
    size_limit: int,
    cfg: RunConfig,
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
    at which the walk could first converge is walked again from the start
    by the loop of :func:`ppr`. Each carving records its walk's steps and
    stop.
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
    admission = _Admission(graph, seed_rows, size_limit, cfg)
    visits = {}
    unproven = _one_sided_walks(graph, seed_rows, cfg, admission).tolist()
    step = _side_step(graph)
    for column in unproven:
        restart = np.zeros(graph.node_count)
        restart[seed_rows[column]] = 1.0 / len(seed_rows[column])
        visits[column], admission.steps[column], admission.stops[column] = _power_iteration(step, restart, cfg)
    return [
        Subgraph(graph, admission.nodes(column, visits.get(column)), int(admission.steps[column]), admission.stops[column])
        for column in range(len(seed_rows))
    ]


def extract_subgraph(
    graph: HeteroGraph,
    seed_props: Sequence[int],
    size_limit: int,
    cfg: RunConfig,
) -> Subgraph:
    """The carving of :func:`extract_subgraphs` for one seed set."""
    return extract_subgraphs(graph, [seed_props], size_limit, cfg)[0]


def query_aware_transition(
    view: HeteroGraph | Subgraph,
    query_vec: np.ndarray,
    cfg: RunConfig,
    structural: TransitionMatrix,
) -> TransitionMatrix:
    """Build the blended walk operator for one query over ``view``.

    ``structural`` is ``build_structural_transition(view)``, which every
    query over one view shares, so its two-hop product and row layout are
    computed once. The result equals
    ``blend(structural, build_semantic_transition(...))`` entry for entry,
    on the structural pattern, whose read-only ``indices`` and ``indptr``
    it shares: a masked neighbor keeps its entry, lambda times its
    structural weight, 0.0 when lambda is 0. Its walk is the blend's bit
    for bit, as :func:`ppr` sums each entry of M^T pi in ascending source
    row order, whatever the order of a row's entries, and an explicit zero
    adds +0.0.
    """
    sims = view.proposition_embeddings @ np.asarray(query_vec, dtype=np.float64)
    semantic, fallback = _semantic_weights(structural, sims, cfg)
    base = structural.matrix
    mixed = cfg.lambda_ * base.data + (1.0 - cfg.lambda_) * semantic
    return TransitionMatrix(sp.csr_matrix((mixed, base.indices, base.indptr), shape=base.shape), fallback)
