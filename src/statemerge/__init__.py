"""Extraction of deterministic finite automata from Elman RNN recognizers by
state merging over a prefix tree, with a k-means clustering baseline."""
