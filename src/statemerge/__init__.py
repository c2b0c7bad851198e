"""Extraction of deterministic finite automata from Elman RNN recognizers by
state merging over a prefix tree, with a k-means clustering baseline."""

from .automata import Dfa, Nfa, determinize, equivalent, minimize, prefix_decisions, to_dot
from .extraction import MergePolicy, build_prefix_tree, extract, merge_all
from .kmeans import kmeans, kmeans_extract
from .languages import LabeledSample, gold_dfa, membership
from .rnn import RnnModel, decisions, forward, init_model, kappa_bound, train

__all__ = [
    "Dfa", "Nfa", "determinize", "equivalent", "minimize", "prefix_decisions", "to_dot",
    "MergePolicy", "build_prefix_tree", "extract", "merge_all",
    "kmeans", "kmeans_extract",
    "LabeledSample", "gold_dfa", "membership",
    "RnnModel", "decisions", "forward", "init_model", "kappa_bound", "train",
]
