"""Datasets: synthetic union-of-subspaces generation, IDX images and CSV files.

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
    """Feature matrix plus evaluation-only labels and provenance. Features lie
    in [0, 1] as ``generate_synthetic`` and ``load_idx`` build them; those of
    ``load_dataset_csv`` are any finite values."""

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

def _read_idx(path, magic: int, kind: str, fields: tuple[str, ...]):
    """The sizes and uint8 payload of IDX file ``path``: ``magic``, one
    big-endian u32 per name in ``fields``, then their product of bytes. A
    wrong magic, a header cut short (named by field and offset) or a payload
    of another length raises ``ValueError`` naming the path."""
    with open(path, "rb") as f:
        data = f.read()
    names = ("magic", *fields)
    header = struct.unpack_from(f">{min(len(data) // 4, len(names))}I", data)
    if header and header[0] != magic:
        raise ValueError(f"{path}: bad magic 0x{header[0]:08x} at offset 0, "
                         f"expected 0x{magic:08x} ({kind})")
    if len(header) < len(names):
        raise ValueError(f"{path}: truncated {names[len(header)]} at offset {4 * len(header)}")
    sizes, start = header[1:], 4 * len(names)
    expected = start + math.prod(sizes)
    if len(data) != expected:
        raise ValueError(f"{path}: payload ends at offset {len(data)}, expected {expected}")
    return sizes, np.frombuffer(data, dtype=np.uint8, offset=start)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an images/labels IDX pair; pixels are scaled by 1/255."""
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, "images",
                                        ("count", "rows", "cols"))
    (n_lab,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels", ("count",))
    if n_lab != n:
        raise ValueError(
            f"count mismatch: {images_path} has {n} images but {labels_path} has {n_lab} labels")
    features = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    provenance = {"source": "idx", "images_path": str(images_path),
                  "labels_path": str(labels_path)}
    return Dataset(features, labels.astype(np.int64), (1, rows, cols), provenance)


def _write_idx(path, magic: int, payload: np.ndarray) -> None:
    """``magic``, each dimension of the uint8 array ``payload``, its bytes."""
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + payload.ndim}I", magic, *payload.shape))
        f.write(payload.tobytes())


def write_idx_images(path, images: np.ndarray) -> None:
    """images is (n, rows, cols) uint8."""
    arr = np.asarray(images)
    if arr.ndim != 3 or arr.dtype != np.uint8:
        raise ValueError(f"expected (n, rows, cols) uint8 images, got {arr.shape} {arr.dtype}")
    _write_idx(path, IDX_IMAGES_MAGIC, arr)


def write_idx_labels(path, labels) -> None:
    arr = np.asarray(labels)
    # stated positively, so NaN fails it
    if arr.ndim != 1 or not ((arr >= 0) & (arr <= 255) & (arr == np.round(arr))).all():
        raise ValueError("labels must be 1-d integers in [0, 255]")
    _write_idx(path, IDX_LABELS_MAGIC, arr.astype(np.uint8))


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def write_matrix_csv(matrix: np.ndarray, path) -> None:
    """One line per row of a float matrix: each value's ``repr``, comma-separated."""
    with open(path, "w") as f:
        for row in np.asarray(matrix, dtype=np.float64):
            f.write(",".join(repr(float(v)) for v in row))
            f.write("\n")


def save_dataset_csv(dataset: Dataset, features_path, labels_path) -> None:
    """One row per point, features only; labels go to a separate CSV."""
    write_matrix_csv(dataset.features, features_path)
    with open(labels_path, "w") as f:
        for v in dataset._labels:
            f.write(f"{int(v)}\n")


def _load_csv(path, what: str, dtype, ndmin: int, delimiter=None) -> np.ndarray:
    """``np.loadtxt`` of the ``what`` file ``path``. A file with only blanks or
    ``#`` comments (on which ``np.loadtxt`` would warn), bytes that do not
    decode, or a line it cannot parse raises ``ValueError`` naming the path."""
    try:
        with open(path) as f:
            if not any(line.partition("#")[0].strip() for line in f):
                raise ValueError(f"the {what} file holds no data")
        return np.loadtxt(path, delimiter=delimiter, dtype=dtype, ndmin=ndmin)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_labels_csv(path) -> np.ndarray:
    """Labels CSV, one integer per line. An empty or unparsable file, a line
    with more than one value or a negative label raises ``ValueError``
    naming the path (and its row)."""
    labels = _load_csv(path, "labels", np.int64, ndmin=2)
    if labels.shape[1] != 1:
        raise ValueError(f"{path}: expected one label per line, got {labels.shape[1]} values "
                         f"on a line")
    labels = labels[:, 0]
    bad_rows = np.flatnonzero(labels < 0)
    if bad_rows.size:
        raise ValueError(f"{path}: row {bad_rows[0] + 1} holds negative label "
                         f"{labels[bad_rows[0]]}")
    return labels


def load_dataset_csv(features_path, labels_path, feature_shape=None) -> Dataset:
    """Features CSV (one point per row) plus its labels CSV (read by
    ``load_labels_csv``). An empty or unparsable features file, or a NaN or
    infinite feature, raises ``ValueError`` naming the path (and the first bad row);
    so does a labels file whose line count is not the features' row count,
    naming both paths and both counts."""
    features = _load_csv(features_path, "features", np.float64, ndmin=2, delimiter=",")
    bad_rows = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"{features_path}: row {bad_rows[0] + 1} holds a NaN or infinite "
                         f"feature")
    labels = load_labels_csv(labels_path)
    if labels.size != features.shape[0]:
        raise ValueError(f"{features_path} has {features.shape[0]} rows but {labels_path} "
                         f"has {labels.size} labels")
    if feature_shape is None:
        feature_shape = (features.shape[1],)
    provenance = {"source": "csv", "features_path": str(features_path),
                  "labels_path": str(labels_path)}
    return Dataset(features, labels, feature_shape, provenance)
