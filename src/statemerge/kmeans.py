"""k-means extraction baseline: cluster the hidden states visited on a
training set, treat clusters as DFA states, and vote on acceptance and
transitions."""

from __future__ import annotations

import numpy as np

from .automata import Dfa, minimize
from .extraction import build_prefix_tree
from .rnn import RnnModel

MAX_LLOYD_ITERATIONS = 100
N_INIT = 10


def kmeans(points: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm, restarted N_INIT times from fresh seed points with
    the lowest-distortion run kept.  A single run converges to an
    init-dependent local minimum; on near-saturated hidden states a bad draw
    leaves two natural clusters sharing a centroid, and the restarts make the
    read-off automaton stable across sampling seeds."""
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(N_INIT):
        assignments, centroids = _lloyd(points, k, rng)
        dist = float(((points - centroids[assignments]) ** 2).sum())
        if best is None or dist < best[0]:
            best = (dist, assignments, centroids)
    return best[1], best[2]


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One Lloyd run; centroids seeded from k distinct points, empty
    clusters reseeded to the point farthest from its assigned centroid.

    The result is bit for bit that of ranking every point against every
    centroid by the exact sum of (x - c)**2 over the d coordinates, with
    ties to the lowest centroid id, at the cost of one GEMM per iteration:

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
    rounding can reverse."""
    n = len(points)
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1)
    sq_norms = np.einsum("ij,ij->i", points, points)
    for _ in range(MAX_LLOYD_ITERATIONS):
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        dists = sq_norms[:, None] - 2 * (points @ centroids.T) + c_sq
        new_assignments = dists.argmin(axis=1)
        tol = 1e-9 * (sq_norms + c_sq.max()) + 1e-300
        cutoff = dists[np.arange(n), new_assignments] + 2 * tol
        rows = np.flatnonzero(np.count_nonzero(dists <= cutoff[:, None], axis=1) > 1)
        new_assignments[rows] = (((points[rows, None, :] - centroids[None, :, :]) ** 2)
                                 .sum(axis=2).argmin(axis=1))
        if len(np.unique(new_assignments)) < k:  # the only case that reseeds
            point_dists = ((points - centroids[new_assignments]) ** 2).sum(axis=1)
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


def kmeans_extract(model: RnnModel, strings: list[str], k: int,
                   rng: np.random.Generator) -> Dfa:
    """Cluster hidden states and read off a DFA: the bos cluster is initial,
    acceptance by majority label vote (ties reject), transitions by majority
    successor-cluster vote weighted by occurrence (ties to the lowest cluster
    id).  Unreachable clusters are pruned and the result minimized."""
    # One record per visited prefix position, the records of a string in
    # order, so record i + 1 is record i's successor unless next_token[i] is
    # -1 (a string's end).  Record 0 is the empty prefix of the first string.
    # A record's point and label are those of the prefix-tree state it reaches.
    tree = build_prefix_tree(model, strings)
    points = tree.features[tree.visits]
    labels = np.array(tree.labels)[tree.visits]
    next_token = np.concatenate([model.token_ids(w) + [-1] for w in strings])
    assignments, _ = kmeans(points, k, rng)
    accept_votes = np.bincount(assignments, weights=labels, minlength=k)
    accepting = np.flatnonzero(2 * accept_votes > np.bincount(assignments, minlength=k))
    sigma = len(model.alphabet)
    links = np.flatnonzero(next_token >= 0)
    codes = (assignments[links] * sigma + next_token[links]) * k + assignments[links + 1]
    votes = np.bincount(codes, minlength=k * sigma * k).reshape(k * sigma, k)
    voted = np.flatnonzero(votes.any(axis=1))
    transitions = {(int(row) // sigma, model.alphabet[row % sigma]): int(dst)
                   for row, dst in zip(voted, votes[voted].argmax(axis=1))}
    initial = int(assignments[0])
    raw = Dfa(model.alphabet, set(range(k)), initial, transitions, set(accepting.tolist()))
    return minimize(raw)
