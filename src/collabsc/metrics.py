"""Clustering agreement metrics: optimal-assignment accuracy, NMI, ARI.

All three are invariant to relabeling either partition. Accuracy maximizes
the matched count over one-to-one cluster-to-label mappings, found with the
Hungarian algorithm on the negated contingency table.
"""

from __future__ import annotations

import math

import numpy as np


def _as_labels(y, name: str) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name}: expected a non-empty 1-d label vector, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise ValueError(f"{name}: labels must be integers")
        arr = cast
    if (arr < 0).any():
        raise ValueError(f"{name}: labels must be non-negative")
    return arr.astype(np.int64)


def contingency_table(y_true, y_pred) -> np.ndarray:
    """Counts[i, j] = |{points with true label i and predicted label j}|;
    the one place the metrics check a pair of label vectors."""
    t = _as_labels(y_true, "y_true")
    p = _as_labels(y_pred, "y_pred")
    if t.shape != p.shape:
        raise ValueError(f"label vectors differ in length: {t.size} vs {p.size}")
    kt, kp = int(t.max()) + 1, int(p.max()) + 1
    table = np.zeros((kt, kp), dtype=np.int64)
    np.add.at(table, (t, p), 1)
    return table


def hungarian(cost) -> np.ndarray:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns ``assign`` with ``assign[i]`` the column matched to row i.
    O(n^3) shortest-augmenting-path formulation with row/column potentials.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"hungarian: cost matrix must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("hungarian: cost matrix contains NaN or inf")
    n = c.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_col = np.zeros(n + 1, dtype=np.int64)  # row matched to each column (0 = free)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = c[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assign = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        assign[match_col[j] - 1] = j - 1
    return assign


def accuracy(y_true, y_pred) -> float:
    """Fraction correct under the best one-to-one cluster-to-label mapping."""
    table = contingency_table(y_true, y_pred)
    side = max(table.shape)
    padded = np.zeros((side, side), dtype=np.float64)
    padded[:table.shape[0], :table.shape[1]] = table
    assign = hungarian(-padded)
    matched = sum(padded[i, assign[i]] for i in range(side))
    return float(matched) / int(table.sum())


def nmi(y_true, y_pred) -> float:
    """Mutual information normalized by the geometric mean of entropies.

    Natural logs; a degenerate single-cluster partition has zero entropy and
    the result is defined as 0.
    """
    table = contingency_table(y_true, y_pred)
    n = int(table.sum())
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = int(table[i, j])
            if nij == 0:
                continue
            # integer products keep the log argument exact
            mi += (nij / n) * math.log((nij * n) / (int(row[i]) * int(col[j])))
    h_true = -sum((int(a) / n) * math.log(int(a) / n) for a in row if a > 0)
    h_pred = -sum((int(b) / n) * math.log(int(b) / n) for b in col if b > 0)
    if h_true <= 0.0 or h_pred <= 0.0:
        return 0.0
    value = mi / math.sqrt(h_true * h_pred)
    return min(1.0, max(0.0, value))


def _pairs(x: int) -> int:
    return x * (x - 1) // 2


def ari(y_true, y_pred) -> float:
    """Adjusted Rand index via pair counting with expected-index correction."""
    table = contingency_table(y_true, y_pred)
    n = int(table.sum())
    if n < 2:
        raise ValueError("ari needs at least 2 points")
    index = sum(_pairs(int(nij)) for nij in table.reshape(-1))
    a = sum(_pairs(int(x)) for x in table.sum(axis=1))
    b = sum(_pairs(int(x)) for x in table.sum(axis=0))
    total = _pairs(n)
    expected = a * b / total
    max_index = (a + b) / 2.0
    denom = max_index - expected
    if denom == 0.0:
        return 1.0  # both partitions degenerate and identical up to relabel
    return (index - expected) / denom


def infer_labels(predictions) -> np.ndarray:
    """Row argmax of a prediction matrix; ties break to the lowest index."""
    arr = np.asarray(predictions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(f"infer_labels: expected (n, k) predictions, got shape {arr.shape}")
    return np.argmax(arr, axis=1).astype(np.int64)


def cluster_sizes(labels, k: int) -> np.ndarray:
    arr = _as_labels(labels, "labels")
    if int(arr.max()) >= k:
        raise ValueError(f"label {int(arr.max())} out of range for k={k}")
    return np.bincount(arr, minlength=k).astype(np.int64)
