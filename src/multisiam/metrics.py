"""Partition-agreement and curve-summary metrics."""

from __future__ import annotations

import numpy as np

from .tensor import unit_normalize

__all__ = ["adjusted_rand_index", "embedding_spread", "smoothed_endpoints"]


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-adjusted pairwise agreement between two labelings of the same
    items; 1.0 for identical partitions (up to label permutation), around 0
    for independent ones. Degenerate cases where the expected and maximum
    index coincide count as perfect agreement."""
    a = np.asarray(labels_a).reshape(-1)
    b = np.asarray(labels_b).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"label arrays differ in length: {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        return 1.0
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def embedding_spread(rows) -> float:
    """Collapse detector: mean per-dimension standard deviation across a batch
    of unit-normalized, batch-centered embedding vectors.

    A healthy encoder spreads directions and scores near 1/sqrt(dim); an
    encoder collapsing to a point drives this to 0 because the centered
    residuals vanish before normalization.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        return 0.0
    centered = rows - rows.mean(axis=0, keepdims=True)
    return float(unit_normalize(centered, -1).std(axis=0).mean())


def smoothed_endpoints(series, window: int = 25) -> tuple[float, float]:
    """Means of the first and last ``window`` entries of a series."""
    values = np.asarray(list(series), dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty series")
    w = min(window, values.size)
    return float(values[:w].mean()), float(values[-w:].mean())
