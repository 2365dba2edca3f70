"""Byte-stability guard: optimisations must not move the train log by one bit.

Each case trains a tiny configuration and compares the sha256 of its
train-log CSV with a constant. The conv and dense constants were captured
before the strided-conv rework (one-view im2col, reused patch matrices,
one-copy col2im, no gradients for constants); the collab constants before
stage 2 dropped its negative term and stage 3 built its subspace affinity
once. None may change with a later refactor of the numerics; a change that
reorders a float sum shows up here first.

The collab cases run k = 3, three classifier steps per batch and two epochs
(so the u schedule switches), with confident positive and negative pairs in
every row, once with soft and once with hard masks.

Captured with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH,
Haswell kernels), Python 3.11. Another BLAS build may pick other kernels and
produce other bytes; recapture there on the unchanged code first.
"""

import hashlib

import numpy as np
import pytest

from collabsc.config import ExperimentConfig
from collabsc.data import Dataset, SyntheticSpec, generate_synthetic
from collabsc.network import LayerSpec, NetworkConfig
from collabsc.trainer import CollaborativeTrainer, train_log_csv


def conv_case():
    synthetic = generate_synthetic(SyntheticSpec(k=2, d=3, D=64, n_per=10, noise_sigma=0.02,
                                                 seed=3, concentration=4.0))
    dataset = Dataset(synthetic.features, synthetic.labels_for_evaluation(), (1, 8, 8),
                      synthetic.provenance)
    network = NetworkConfig(
        encoder=(LayerSpec("conv", 3, kernel_size=3, stride=2),
                 LayerSpec("conv", 4, kernel_size=3, stride=2, activation="none")),
        classifier_head=(LayerSpec("dense", 6),), num_clusters=2, intrinsic_dim_guess=2)
    config = ExperimentConfig(network=network, batch_size=10, epochs=1, pretrain_epochs=3,
                              inner_se_steps=2, seed=5)
    return config, dataset


def dense_case():
    dataset = generate_synthetic(SyntheticSpec(k=2, d=2, D=12, n_per=10, seed=4,
                                               nonlinearity="tanh-warp"))
    network = NetworkConfig(
        encoder=(LayerSpec("dense", 16), LayerSpec("dense", 8, activation="none")),
        classifier_head=(), num_clusters=2, intrinsic_dim_guess=2)
    config = ExperimentConfig(network=network, batch_size=10, epochs=1, pretrain_epochs=1,
                              inner_se_steps=2, seed=5)
    return config, dataset


def collab_case(soft_mask=True):
    dataset = generate_synthetic(SyntheticSpec(k=3, d=2, D=12, n_per=10, seed=8,
                                               nonlinearity="tanh-warp"))
    network = NetworkConfig(
        encoder=(LayerSpec("dense", 16), LayerSpec("dense", 9, activation="none")),
        classifier_head=(LayerSpec("dense", 6),), num_clusters=3, intrinsic_dim_guess=3)
    config = ExperimentConfig(network=network, batch_size=15, epochs=2, pretrain_epochs=2,
                              inner_se_steps=2, classifier_steps=3, soft_mask=soft_mask,
                              seed=5)
    return config, dataset


CASES = {
    "conv": conv_case,
    "dense": dense_case,
    "collab": collab_case,
    "collab-hard": lambda: collab_case(soft_mask=False),
}

TRAIN_LOG_SHA256 = {
    "conv": "5823b06b86059295e8254928a2d8eee2555f5ddc9b1971087706be6a9fcbf4e0",
    "dense": "ef5ed0f1b04d63bb6a841ef82c59822c3172d5a8c3b09db7bc39b5f7e37b0a3e",
    "collab": "fb2f430e9b5f4ce17b56ec9681d701dfe1931ee66d19ce50e3381666922c8dfd",
    "collab-hard": "2f0875aed821af0c944f2303fa70487a5611d32da689e23cea7378431e528e6d",
}


@pytest.mark.parametrize("case", sorted(TRAIN_LOG_SHA256))
def test_train_log_bytes_are_unchanged(case):
    config, dataset = CASES[case]()
    result = CollaborativeTrainer(config, dataset).fit()
    assert len(result.train_log) == 2 * config.epochs  # two batches per epoch
    assert all(np.isfinite(b.total) for b in result.train_log)
    if case.startswith("collab"):
        assert all(b.count_pos > 0 and b.count_neg > 0 for b in result.train_log)
    digest = hashlib.sha256(train_log_csv(result).encode()).hexdigest()
    assert digest == TRAIN_LOG_SHA256[case], (
        f"{case} train-log sha256 {digest} differs from the constant captured with numpy 2.4.6 "
        f"on OpenBLAS 0.3.31 (Haswell kernels); on numpy {np.__version__} or another BLAS "
        f"build or CPU, recapture on the unchanged parent commit before reading this as a "
        f"numerics regression")
