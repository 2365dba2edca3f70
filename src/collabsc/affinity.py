"""The two affinities that drive training, the warm start's k-means, and the PGM export.

The classifier affinity is the Gram matrix of l2-normalized prediction rows.
The subspace affinity is the symmetrized absolute coefficients,
row-normalized by each row's largest off-diagonal entry, with a 0 diagonal.
Each has one formula, an autodiff tensor: ``class_affinity_tensor`` and
``subspace_affinity_tensor``, the latter one ``subspace-affinity`` node
that keeps none of its n x n intermediates. Training and
``export-affinity`` both read these; the export clips the class values with
``clip_overshoot`` and sets both diagonals to 1 for display. ``kmeans``
finds the prototypes that warm-start the classifier. No spectral step runs
anywhere: cluster labels come from the classifier.

Both k-means and the warm start's readout take cluster means from one sorted
pass, ``cluster_means``: a stable argsort of the labels, one gather of the
rows in that order, and one ``np.add.reduce`` over each cluster's contiguous
slice. That sums each cluster's rows in the order ``x[labels == c]`` holds
them, so every centroid equals ``x[labels == c].mean(axis=0)`` bit for bit.
``np.add.reduceat`` and ``np.add.at`` may not replace the slices.
``reduceat`` sums in another order and changes centroid bits. ``add.at``
adds one row at a time where ``add.reduce`` sums a one-column slice
pairwise, so even started from -0.0 it changes the bits of one-column
points (started from +0.0 it also turns a -0.0 sum into +0.0), and it is
slower than the per-cluster masks.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .rng import Xorshift64Star


def class_affinity_tensor(nu: ad.Tensor) -> ad.Tensor:
    """Differentiable class affinity nu nu^T of checked prediction rows.

    Rows must be l2-normalized within 1e-9 with non-negative entries
    (softmax output after row normalization), or ``ValueError`` says which
    check failed. Entries may round a little above 1; see ``clip_overshoot``.
    """
    p = nu.values
    if p.ndim != 2:
        raise ValueError(f"predictions must be 2-d (n, k), got shape {p.shape}")
    # each check is stated positively, so NaN (unordered) fails it
    if not (p >= 0).all():
        raise ValueError("predictions must be non-negative (and not NaN)")
    worst = float(np.abs(np.sqrt((p * p).sum(axis=1)) - 1.0).max())
    if not worst <= 1e-9:
        raise ValueError(f"prediction rows are not l2-normalized (max deviation {worst:.3e})")
    return ad.matmul(nu, ad.transpose(nu))


def clip_overshoot(class_aff: np.ndarray) -> np.ndarray:
    """A clipped copy of class affinity values in [0, 1]; rounding overshoot
    beyond 1 is clipped only within 1e-12, more raises ``ValueError``."""
    overshoot = float(class_aff.max()) - 1.0
    if not overshoot <= 1e-12:
        raise ValueError(f"affinity exceeds 1 by {overshoot:.3e}, beyond rounding tolerance")
    return np.clip(class_aff, 0.0, 1.0)


DUST_TOLERANCE = 1e-15


def subspace_affinity_tensor(coeff_tensor: ad.Tensor) -> ad.Tensor:
    """Differentiable subspace affinity, 0 on the diagonal.

    (|C| + |C^T|)/2 with each row divided by its largest entry (the
    off-diagonal maximum, as the diagonal of C is zero). Rows whose entries
    are all below 1e-15 scale to zero rather than amplifying numerical dust.
    The result is scale-invariant in C but not symmetric in general: rows
    own their normalizers. Those are recomputed each forward pass but treated
    as constants during differentiation, so gradients keep the direction of
    the unnormalized entries. One ``subspace-affinity`` autodiff node, which
    keeps only the row scales for backward.
    """
    return ad.subspace_affinity(coeff_tensor, _row_scales)


def _row_scales(sym: np.ndarray) -> np.ndarray:
    """1 / each row's largest entry, or 0 for a row under ``DUST_TOLERANCE``."""
    row_max = sym.max(axis=1)
    return np.where(row_max > DUST_TOLERANCE, 1.0 / np.where(row_max > 0, row_max, 1.0), 0.0)


# ---------------------------------------------------------------------------
# k-means (the classifier warm start's prototypes)
# ---------------------------------------------------------------------------

KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 10


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means with k-means++ initialization; the lowest-inertia
    result of KMEANS_RESTARTS restarts.

    Each Lloyd iteration assigns every point to its nearest center, then
    moves all k centers in one ``cluster_means`` pass; every empty cluster
    is re-seeded at the point farthest from its nearest center. The labels
    equal, bit for bit, those of a loop that takes
    ``x[labels == c].mean(axis=0)`` once per cluster (a test oracle keeps
    it). Non-finite points, and points whose squared distances overflow,
    raise ``ValueError``.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"kmeans needs 1 <= k <= n, got k={k}, n={n}")
    if not np.isfinite(x).all():
        raise ValueError("kmeans needs finite points, got NaN or inf")
    rng = Xorshift64Star(seed)
    sq_norms = (x * x).sum(axis=1)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp_init(x, k, rng, sq_norms)
        labels = None
        for _ in range(KMEANS_MAX_ITER):
            d2 = _sq_distances(x, sq_norms, centers)
            new_labels = d2.argmin(axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            centers, counts = cluster_means(x, labels, k)
            empty = counts == 0
            if empty.any():  # re-seed empty clusters at the farthest point
                centers[empty] = x[d2.min(axis=1).argmax()]
        else:  # the centers moved after the last d2
            d2 = _sq_distances(x, sq_norms, centers)
        inertia = float(np.maximum(d2.min(axis=1), 0.0).sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    if best_labels is None:
        raise ValueError("kmeans found no finite inertia: squared distances overflow float64")
    return best_labels.astype(np.int64)


def cluster_means(x: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's mean row of ``x`` and its size, in one sorted pass
    (see the module docstring); row c equals ``x[labels == c].mean(axis=0)``
    bit for bit, and is zero for an empty cluster."""
    counts = np.bincount(labels, minlength=k)
    xs = x[np.argsort(labels, kind="stable")]
    means = np.zeros((k, x.shape[1]))
    start = 0
    for c, end in enumerate(np.cumsum(counts).tolist()):
        if end > start:
            np.add.reduce(xs[start:end], axis=0, out=means[c])
        start = end
    means /= np.maximum(counts, 1)[:, None]
    return means, counts


def _sq_distances(x, sq_norms, centers):
    """(n, k) squared distances ``|x|^2 - 2 x.c + |c|^2``, built in place;
    each entry is rounded as in that left-to-right expression."""
    d2 = x @ centers.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += (centers * centers).sum(axis=1)
    return d2


def _kmeans_pp_init(x, k, rng, sq_norms):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.below(n)]
    d2, near, cumulative = np.empty(n), np.empty(n), np.empty(n)
    _center_sq_distances(x, sq_norms, centers[0], d2)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = x[rng.below(n)]
        else:
            r = rng.uniform() * total
            np.cumsum(d2, out=cumulative)
            centers[c] = x[min(int(np.searchsorted(cumulative, r, side="right")), n - 1)]
        _center_sq_distances(x, sq_norms, centers[c], near)
        np.minimum(d2, near, out=d2)
    return centers


def _center_sq_distances(x, sq_norms, center, out):
    """Squared distances to one center, ``max(|x|^2 - 2 x.c + |c|^2, 0)``,
    built in ``out``; each entry is rounded as in that expression."""
    np.matmul(x, center, out=out)
    out *= -2.0
    out += sq_norms
    out += (center * center).sum()
    np.maximum(out, 0.0, out=out)


# ---------------------------------------------------------------------------
# PGM export
# ---------------------------------------------------------------------------

def affinity_to_pgm(a: np.ndarray, path) -> None:
    """8-bit binary PGM heatmap, pixel = round(255 * value)."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"affinity must be 2-d, got shape {arr.shape}")
    pixels = np.clip(np.rint(255.0 * arr), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
