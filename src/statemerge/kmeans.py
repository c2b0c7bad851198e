"""k-means extraction baseline: cluster the hidden states visited on a
training set, treat clusters as DFA states, and vote on acceptance and
transitions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, minimize
from .rnn import RnnModel, forward_many

MAX_LLOYD_ITERATIONS = 100


@dataclass
class HiddenStateDataset:
    """One record per visited prefix position, with the successor link needed
    to vote on transitions.  Record 0 is the empty prefix of the first string."""
    points: np.ndarray          # (N, d) hidden states
    labels: np.ndarray          # (N,) bool, model decision on the prefix
    successor: list[tuple[int, str, int] | None]  # (index, token, next index)


def collect_hidden_states(model: RnnModel, strings: list[str]) -> HiddenStateDataset:
    if not strings:
        raise ValueError("need at least one string")
    results = forward_many(model, strings)
    successor: list[tuple[int, str, int] | None] = []
    for w in strings:
        base = len(successor)
        successor.extend((base + i, token, base + i + 1) for i, token in enumerate(w))
        successor.append(None)
    return HiddenStateDataset(np.concatenate([r.hidden for r in results]),
                              np.concatenate([r.yhat > 0.5 for r in results]), successor)


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           n_init: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm, restarted n_init times from fresh seed points with
    the lowest-distortion run kept.  A single run converges to an
    init-dependent local minimum; on near-saturated hidden states a bad draw
    leaves two natural clusters sharing a centroid, and the restarts make the
    read-off automaton stable across sampling seeds."""
    if n_init < 1:
        raise ValueError("n_init must be positive")
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(n_init):
        assignments, centroids = _lloyd(points, k, rng)
        dist = float(((points - centroids[assignments]) ** 2).sum())
        if best is None or dist < best[0]:
            best = (dist, assignments, centroids)
    return best[1], best[2]


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One Lloyd run; centroids seeded from k distinct points, empty
    clusters reseeded to the point farthest from its assigned centroid."""
    n = len(points)
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1)
    for _ in range(MAX_LLOYD_ITERATIONS):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignments = dists.argmin(axis=1)
        point_dists = dists[np.arange(n), new_assignments]
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
    data = collect_hidden_states(model, strings)
    assignments, _ = kmeans(data.points, k, rng)
    accept_votes: dict[int, Counter] = {c: Counter() for c in range(k)}
    for idx, label in enumerate(data.labels):
        accept_votes[int(assignments[idx])][bool(label)] += 1
    accepting = {c for c, votes in accept_votes.items()
                 if votes[True] > votes[False]}
    transition_votes: dict[tuple[int, str], Counter] = {}
    for link in data.successor:
        if link is None:
            continue
        src, token, dst = link
        key = (int(assignments[src]), token)
        transition_votes.setdefault(key, Counter())[int(assignments[dst])] += 1
    transitions = {key: min(c for c, n in votes.items() if n == max(votes.values()))
                   for key, votes in transition_votes.items()}
    initial = int(assignments[0])
    raw = Dfa(model.alphabet, set(range(k)), initial, transitions, accepting)
    return minimize(raw)
