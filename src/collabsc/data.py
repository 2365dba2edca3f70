"""Datasets: synthetic union-of-subspaces generation and IDX image loading.

Ground-truth labels ride along for evaluation only; the training path reads
features exclusively and the label accessor is named to make any other use
conspicuous in review.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .rng import Xorshift64Star

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

NONLINEARITIES = ("none", "tanh-warp", "square-warp")


@dataclass(frozen=True)
class SyntheticSpec:
    """Union-of-subspaces sampler configuration.

    k clusters, each an orthonormal d-dimensional subspace of R^D with
    n_per Gaussian-coefficient points, optional isotropic noise, optional
    monotone elementwise warp applied after sampling.

    Coefficients are concentrated: drawn around a per-cluster mean direction
    of length ``concentration`` inside the subspace (unit variance around
    it). Every point still lies exactly in its subspace; concentration only
    keeps cluster means distinct, the way real image clusters are, instead
    of the degenerate symmetric case where every cluster's mean coincides at
    the origin and no classifier could tell blobs apart.
    """

    k: int
    d: int
    D: int
    n_per: int
    noise_sigma: float = 0.0
    nonlinearity: str = "none"
    seed: int = 0
    concentration: float = 2.0

    def __post_init__(self):
        if self.k < 1 or self.d < 1 or self.D < 1 or self.n_per < 1:
            raise ValueError("k, d, D, n_per must all be positive")
        if self.D < self.d * self.k:
            raise ValueError(
                f"infeasible spec: D >= d*k required, got D={self.D} < d*k={self.d * self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_per < self.d + 1:
            raise ValueError(
                f"infeasible spec: n_per >= d+1 required, got n_per={self.n_per} < {self.d + 1}")
        # isfinite rejects the NaN and +-inf that a bare range check lets through
        for name, value in (("noise_sigma", self.noise_sigma),
                            ("concentration", self.concentration)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(
                f"unknown nonlinearity {self.nonlinearity!r}, choose from {NONLINEARITIES}")


class Dataset:
    """Feature matrix in [0, 1] plus evaluation-only labels and provenance."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, feature_shape: tuple,
                 provenance: dict):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-d (n, D), got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"labels length {labels.shape} does not match {features.shape[0]} points")
        if any(int(s) < 1 for s in feature_shape):
            raise ValueError(f"feature_shape {feature_shape} needs every dimension >= 1")
        if int(np.prod(feature_shape)) != features.shape[1]:
            raise ValueError(
                f"feature_shape {feature_shape} does not flatten to {features.shape[1]}")
        self.features = features
        self.feature_shape = tuple(int(s) for s in feature_shape)
        self.provenance = provenance
        self._labels = labels

    def __len__(self) -> int:
        return self.features.shape[0]

    def labels_for_evaluation(self) -> np.ndarray:
        """Ground truth; metrics only. Training code must never call this."""
        return self._labels.copy()


def _warp(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "none":
        return x
    if kind == "tanh-warp":
        return np.tanh(3.0 * x)
    if kind == "square-warp":
        return x * np.abs(x)  # signed square, monotone
    raise ValueError(f"unknown nonlinearity {kind!r}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample k seeded subspaces and min-max scale the union to [0, 1]."""
    rng = Xorshift64Star(spec.seed)
    bases = []
    blocks = []
    for _ in range(spec.k):
        raw = rng.normals((spec.D, spec.d))
        q, r = np.linalg.qr(raw)
        q = q * np.sign(np.diag(r))[None, :]  # canonical sign choice
        bases.append(q)
        mean = rng.normals((spec.d,))
        norm = float(np.sqrt((mean * mean).sum()))
        mean = spec.concentration * mean / norm if norm > 0 else mean
        coeffs = mean[None, :] + rng.normals((spec.n_per, spec.d))
        pts = coeffs @ q.T
        if spec.noise_sigma > 0:
            pts = pts + spec.noise_sigma * rng.normals((spec.n_per, spec.D))
        blocks.append(pts)
    x = np.concatenate(blocks, axis=0)
    x = _warp(x, spec.nonlinearity)
    lo, hi = float(x.min()), float(x.max())
    x = (x - lo) / (hi - lo)
    labels = np.repeat(np.arange(spec.k, dtype=np.int64), spec.n_per)
    provenance = {
        "source": "synthetic",
        "spec": spec,
        "bases": np.stack(bases),
        "scale_min": lo,
        "scale_max": hi,
    }
    return Dataset(x, labels, (spec.D,), provenance)


# ---------------------------------------------------------------------------
# IDX binary format
# ---------------------------------------------------------------------------

def _read_be_u32(data: bytes, off: int, path, what: str) -> int:
    if off + 4 > len(data):
        raise ValueError(f"{path}: truncated {what} at offset {off}")
    return struct.unpack_from(">I", data, off)[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an images/labels IDX pair; pixels are scaled by 1/255."""
    with open(images_path, "rb") as f:
        img_data = f.read()
    magic = _read_be_u32(img_data, 0, images_path, "magic")
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(
            f"{images_path}: bad magic 0x{magic:08x} at offset 0, "
            f"expected 0x{IDX_IMAGES_MAGIC:08x} (images)")
    n = _read_be_u32(img_data, 4, images_path, "count")
    rows = _read_be_u32(img_data, 8, images_path, "rows")
    cols = _read_be_u32(img_data, 12, images_path, "cols")
    expected = 16 + n * rows * cols
    if len(img_data) != expected:
        raise ValueError(
            f"{images_path}: payload ends at offset {len(img_data)}, expected {expected}")
    pixels = np.frombuffer(img_data, dtype=np.uint8, count=n * rows * cols, offset=16)

    with open(labels_path, "rb") as f:
        lab_data = f.read()
    magic = _read_be_u32(lab_data, 0, labels_path, "magic")
    if magic != IDX_LABELS_MAGIC:
        raise ValueError(
            f"{labels_path}: bad magic 0x{magic:08x} at offset 0, "
            f"expected 0x{IDX_LABELS_MAGIC:08x} (labels)")
    n_lab = _read_be_u32(lab_data, 4, labels_path, "count")
    if len(lab_data) != 8 + n_lab:
        raise ValueError(
            f"{labels_path}: payload ends at offset {len(lab_data)}, expected {8 + n_lab}")
    if n_lab != n:
        raise ValueError(
            f"count mismatch: {images_path} has {n} images but {labels_path} has {n_lab} labels")
    labels = np.frombuffer(lab_data, dtype=np.uint8, count=n_lab, offset=8).astype(np.int64)

    features = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    provenance = {"source": "idx", "images_path": str(images_path),
                  "labels_path": str(labels_path)}
    return Dataset(features, labels, (1, rows, cols), provenance)


def write_idx_images(path, images: np.ndarray) -> None:
    """images is (n, rows, cols) uint8."""
    arr = np.asarray(images)
    if arr.ndim != 3 or arr.dtype != np.uint8:
        raise ValueError(f"expected (n, rows, cols) uint8 images, got {arr.shape} {arr.dtype}")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, arr.shape[0], arr.shape[1], arr.shape[2]))
        f.write(arr.tobytes())


def write_idx_labels(path, labels) -> None:
    arr = np.asarray(labels)
    if arr.ndim != 1 or (arr < 0).any() or (arr > 255).any():
        raise ValueError("labels must be 1-d integers in [0, 255]")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, arr.size))
        f.write(arr.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def save_dataset_csv(dataset: Dataset, features_path, labels_path) -> None:
    """One row per point, features only; labels go to a separate CSV."""
    with open(features_path, "w") as f:
        for row in dataset.features:
            f.write(",".join(repr(float(v)) for v in row))
            f.write("\n")
    with open(labels_path, "w") as f:
        for v in dataset._labels:
            f.write(f"{int(v)}\n")


def load_dataset_csv(features_path, labels_path, feature_shape=None) -> Dataset:
    """Features CSV (one point per row) plus its labels CSV (one integer per line)."""
    features = np.loadtxt(features_path, delimiter=",", dtype=np.float64, ndmin=2)
    labels = np.loadtxt(labels_path, dtype=np.int64, ndmin=1)
    if feature_shape is None:
        feature_shape = (features.shape[1],)
    provenance = {"source": "csv", "features_path": str(features_path),
                  "labels_path": str(labels_path)}
    return Dataset(features, labels, feature_shape, provenance)
