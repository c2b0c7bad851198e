"""k-means extraction baseline: cluster the hidden states visited on a
training set, treat clusters as DFA states, and vote on acceptance and
transitions."""

from __future__ import annotations

import functools

import numpy as np

from .automata import Dfa, minimize
from .extraction import PrefixTree

MAX_LLOYD_ITERATIONS = 100
N_INIT = 10


def kmeans(features: np.ndarray, visits: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k-means of the points features[visits], one per position: Lloyd's
    algorithm, restarted N_INIT times from fresh seed points with the
    lowest-distortion run kept (the first of equals).  A single run
    converges to an init-dependent local minimum; on near-saturated hidden
    states a bad draw leaves two natural clusters sharing a centroid, and the
    restarts make the read-off automaton stable across sampling seeds.  Each
    run seeds from k distinct positions, drawn for all runs first, in
    restart order, and reseeds an empty cluster to the point farthest from
    its assigned centroid.  The runs iterate in lockstep until each converges.

    The result is bit for bit that of ranking every point against every
    centroid by the exact sum of (x - c)**2 over the d coordinates, with
    ties to the lowest centroid id, at the cost of one table of expansions
    per call over the rows of features:

    - Each row is ranked by the expansion ||x||^2 - 2 x.c + ||c||^2, read
      from a table with one entry per (restart, centroid, row).  The first
      iteration fills it with one GEMM; each later one recomputes, in one
      GEMM, only the entries of the centroids whose values the last step
      changed (a recomputed mean or a reseed).  The expansion and the exact
      sum each round by about d * eps * (||x||^2 + ||c||^2), in any
      summation order, far below tol = 1e-9 (||x||^2 + max ||c||^2) (plus
      1e-300, which keeps tol positive when the norms underflow).  So
      batching the products changes no result, and an entry from an earlier
      iteration, the expansion of a centroid unchanged since, is within tol.
    - So a centroid whose exact sum is no larger than that of the
      expansion's winner lies within 2 tol of the row minimum.  Every row
      with a second centroid that close is re-ranked by the exact sum.
    - The re-ranking repeats the exact ranking's per-row arithmetic (a
      pairwise sum over a contiguous axis of length d) and its argmin, so it
      gives the same bits and the same tie-break.

    The re-ranking cannot be dropped.  Saturated hidden states give
    duplicate and near-duplicate points, so a point can sit exactly on one
    centroid with another a few ulps away, or on two identical centroids.
    The exact sums rank those by the last bits, which the expansion's
    rounding can reverse.

    The ranking, and the exact distance to the winner, is thus a function of
    a row's values alone: equal rows rank equally, wherever they sit.  So
    each row of features is ranked once and the result reaches the points
    through visits; on a saturated recognizer most points are repeat visits
    of a few prefix-tree states.  The centroid means, the reseeds and the
    convergence check stay over positions, as in the all-points run: a
    reseed moves one position of a row into an empty cluster, so two copies
    of one row can sit in different clusters until the next ranking.

    Only stale means are recomputed, each as the sum of its members in
    position order over their count (the bits of .mean(axis=0)).  A cluster
    is stale when it gained or lost a position in the ranking or a reseed.
    The clusters are walked in order with the mask read live, so a cluster
    robbed by an earlier one's reseed is recomputed at once, as in a full
    recomputation, and one robbed by a later one's in the next iteration.

    The best restart is read from the table where it decides.  A restart
    that converged with no centroid changed by its last step estimates its
    distortion D = ((points - c[a])**2).sum() by the sum E of its entries at
    (assignment, row) over the positions.  E and D differ by the entries'
    rounding, under tol per position, plus that of the two pairwise sums,
    each far under 1e-13 of its size: D lies in E +- (sum of tol + 1e-12
    |E|).  Any other restart's interval is its D.  A restart whose interval
    starts above the lowest upper end cannot be best; of the rest, the first
    with the smallest D is, and D is computed only if more than one is left."""
    n = len(visits)
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    points = features[visits]
    centroids = points[[rng.choice(n, size=k, replace=False) for _ in range(N_INIT)]]
    assignments = np.full((N_INIT, n), -1)
    stale = np.ones((N_INIT, k), dtype=bool)
    moved = np.ones((N_INIT, k), dtype=bool)  # table slices to recompute
    fresh = np.zeros(N_INIT, dtype=bool)  # converged, its table slices current
    sq_norms = np.einsum("ij,ij->i", features, features)
    table = np.empty((N_INIT, k, len(features)))
    c_sq = np.empty((N_INIT, k))
    active = list(range(N_INIT))

    def tolerance(runs):  # per (restart, row)
        return 1e-9 * (sq_norms + c_sq[runs].max(axis=1)[:, None]) + 1e-300

    for _ in range(MAX_LLOYD_ITERATIONS):
        if not active:
            break
        runs, ids = np.nonzero(moved)
        rewritten = centroids[runs, ids]
        c_sq[runs, ids] = np.einsum("pd,pd->p", rewritten, rewritten)
        table[runs, ids] = sq_norms - 2 * (rewritten @ features.T) + c_sq[runs, ids, None]
        ranked = table[active]
        within = ranked <= (ranked.min(axis=1) + 2 * tolerance(active))[:, None, :]
        winners = within.argmax(axis=1)
        near = np.count_nonzero(within, axis=1) > 1
        for j, run in enumerate(list(active)):
            before = centroids[run].copy()
            converged = _update(features, visits, points, winners[j], np.flatnonzero(near[j]),
                                centroids[run], assignments[run], stale[run])
            moved[run] = (centroids[run] != before).any(axis=1)
            if converged:
                active.remove(run)
                fresh[run], moved[run] = not moved[run].any(), False

    @functools.cache
    def distortion(run: int) -> float:
        return float(((points - centroids[run][assignments[run]]) ** 2).sum())

    read = np.flatnonzero(fresh)
    estimate = table[read[:, None], assignments[read], visits].sum(axis=1)
    margin = tolerance(read)[:, visits].sum(axis=1) + 1e-12 * abs(estimate)
    low = np.array([0.0 if fresh[run] else distortion(run) for run in range(N_INIT)])
    high = low.copy()
    low[read], high[read] = estimate - margin, estimate + margin
    candidates = np.flatnonzero(low <= high.min())
    best = candidates[0] if len(candidates) == 1 else min(candidates, key=distortion)
    return assignments[best], centroids[best]


def _update(features: np.ndarray, visits: np.ndarray, points: np.ndarray,
            row_assign: np.ndarray, rows: np.ndarray, centroids: np.ndarray,
            assignments: np.ndarray, stale: np.ndarray) -> bool:
    """One Lloyd step of one run, in place; True when its assignments held."""
    row_assign[rows] = (((features[rows, None, :] - centroids[None, :, :]) ** 2)
                        .sum(axis=2).argmin(axis=1))
    new_assignments = row_assign[visits]
    moved = new_assignments != assignments  # assignments are -1 in the first step,
    stale[new_assignments[moved]] = stale[assignments[moved]] = True  # when all are stale
    counts = np.bincount(new_assignments, minlength=len(centroids))
    if counts.min() == 0:  # the only case that reseeds
        point_dists = ((features - centroids[row_assign]) ** 2).sum(axis=1)[visits]
    for c in range(len(centroids)):
        if counts[c]:
            if stale[c]:
                centroids[c] = np.add.reduce(points[new_assignments == c], axis=0) / counts[c]
                stale[c] = False
        else:
            farthest = int(point_dists.argmax())
            loser = new_assignments[farthest]
            centroids[c] = points[farthest]
            new_assignments[farthest] = c
            point_dists[farthest] = 0.0
            counts[[c, loser]] += [1, -1]
            stale[[c, loser]] = True
    converged = np.array_equal(new_assignments, assignments)
    assignments[:] = new_assignments
    return converged


def kmeans_extract(tree: PrefixTree, k: int, rng: np.random.Generator) -> Dfa:
    """Cluster the hidden states the tree's strings visit and read off a DFA:
    the bos cluster is initial, acceptance by majority label vote (ties
    reject), transitions by majority successor-cluster vote weighted by
    occurrence (ties to the lowest cluster id).  Unreachable clusters are
    pruned and the result minimized."""
    # One record per position of tree.visits, a string's positions in order,
    # so position i + 1 is position i's successor unless it is a string's
    # start, the root.  Position 0 is the empty prefix of the first string.
    # A record's point, label and incoming token are those of the state it
    # reaches.
    visits = tree.visits
    sigma = len(tree.alphabet)
    assignments, _ = kmeans(tree.features, visits, k, rng)
    accept_votes = np.bincount(assignments, weights=tree.labels[visits], minlength=k)
    accepting = np.flatnonzero(2 * accept_votes > np.bincount(assignments, minlength=k))
    links = np.flatnonzero(visits[1:] != 0)
    codes = ((assignments[links] * sigma + tree.tokens[visits[links + 1]]) * k
             + assignments[links + 1])
    votes = np.bincount(codes, minlength=k * sigma * k).reshape(k * sigma, k)
    voted = np.flatnonzero(votes.any(axis=1))
    transitions = {(int(row) // sigma, tree.alphabet[row % sigma]): int(dst)
                   for row, dst in zip(voted, votes[voted].argmax(axis=1))}
    initial = int(assignments[0])
    raw = Dfa(tree.alphabet, set(range(k)), initial, transitions, set(accepting.tolist()))
    return minimize(raw)
