"""Test inputs shared by the loss, classifier and acceptance tests: label
embeddings with unit rows, and label targets with every weight positive,
for tests of the oracle path.

A one-hot target has one transport plan, whose loss is a closed form with
no Frank-Wolfe loop or oracle call; a test that exercises the oracle, or
that compares against a formula taking the log of every plan entry, mixes
in a little of the uniform target first.
"""

import numpy as np


def spread_target(raw, alpha=1e-3):
    """``(1 - alpha) raw / sum(raw) + alpha / L`` for a nonnegative label
    vector ``raw`` of length ``L``."""
    raw = np.asarray(raw, dtype=np.float64)
    return (1.0 - alpha) * raw / raw.sum() + alpha / raw.shape[0]


def unit_rows(rng, n, d):
    """``n`` standard normal draws in R^d from ``rng``, each scaled to unit
    norm: the rows of a label embedding."""
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)
