"""k-means extraction baseline: cluster the hidden states visited on a
training set, treat clusters as DFA states, and vote on acceptance and
transitions."""

from __future__ import annotations

import numpy as np

from .automata import Dfa, minimize
from .extraction import PrefixTree

MAX_LLOYD_ITERATIONS = 100
N_INIT = 10


def kmeans(features: np.ndarray, visits: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k-means of the points features[visits], one per position: Lloyd's
    algorithm, restarted N_INIT times from fresh seed points with the
    lowest-distortion run kept.  A single run converges to an init-dependent
    local minimum; on near-saturated hidden states a bad draw leaves two
    natural clusters sharing a centroid, and the restarts make the read-off
    automaton stable across sampling seeds."""
    points = features[visits]
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(N_INIT):
        assignments, centroids = _lloyd(features, visits, k, rng)
        dist = float(((points - centroids[assignments]) ** 2).sum())
        if best is None or dist < best[0]:
            best = (dist, assignments, centroids)
    return best[1], best[2]


def _lloyd(features: np.ndarray, visits: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One Lloyd run over the points features[visits]; centroids seeded from
    k distinct positions, empty clusters reseeded to the point farthest from
    its assigned centroid.

    The result is bit for bit that of ranking every point against every
    centroid by the exact sum of (x - c)**2 over the d coordinates, with
    ties to the lowest centroid id, at the cost of one GEMM per iteration
    over the rows of features:

    - Each row is ranked by the expansion ||x||^2 - 2 x.c + ||c||^2.  The
      expansion and the exact sum each round by about d * eps *
      (||x||^2 + ||c||^2), far below tol = 1e-9 (||x||^2 + max ||c||^2)
      (plus 1e-300, which keeps tol positive when the norms underflow).
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
    of a few prefix-tree states.  The seed draw, the centroid means, the
    reseeds and the convergence check stay over positions, as in the
    all-points run: a reseed moves one position of a row into an empty
    cluster, so two copies of one row can sit in different clusters until
    the next ranking."""
    n = len(visits)
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    points = features[visits]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1)
    sq_norms = np.einsum("ij,ij->i", features, features)
    for _ in range(MAX_LLOYD_ITERATIONS):
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        dists = sq_norms[:, None] - 2 * (features @ centroids.T) + c_sq
        row_assign = dists.argmin(axis=1)
        tol = 1e-9 * (sq_norms + c_sq.max()) + 1e-300
        cutoff = dists[np.arange(len(features)), row_assign] + 2 * tol
        rows = np.flatnonzero(np.count_nonzero(dists <= cutoff[:, None], axis=1) > 1)
        row_assign[rows] = (((features[rows, None, :] - centroids[None, :, :]) ** 2)
                            .sum(axis=2).argmin(axis=1))
        new_assignments = row_assign[visits]
        if np.bincount(new_assignments, minlength=k).min() == 0:  # the only case that reseeds
            row_dists = ((features - centroids[row_assign]) ** 2).sum(axis=1)
            point_dists = row_dists[visits]
        for c in range(k):
            members = new_assignments == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                farthest = int(point_dists.argmax())
                centroids[c] = points[farthest]
                new_assignments[farthest] = c
                point_dists[farthest] = 0.0
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return assignments, centroids


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
