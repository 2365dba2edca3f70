"""Collaborative subspace clustering.

A self-expressive affinity learner and a classifier head supervise each
other through confidence-masked losses, trained batch by batch; cluster
labels come straight from the classifier at inference time, with no
spectral step.
"""

from . import autodiff
from .affinity import class_affinity, kmeans, subspace_affinity
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, parse_config_file, parse_config_text, config_to_text
from .data import Dataset, SyntheticSpec, generate_synthetic, load_idx
from .losses import (LossBreakdown, clamped_count, collaboration_rate, collaborative_loss,
                     negative_teacher, positive_teacher, subspace_loss, total_loss)
from .metrics import accuracy, ari, hungarian, infer_labels, nmi
from .network import ConfigError, LayerSpec, Network, NetworkConfig
from .optim import Adam, AdamState
from .trainer import CollaborativeTrainer, TrainingDivergedError, evaluate

__all__ = [
    "Adam", "AdamState", "CollaborativeTrainer", "ConfigError", "Dataset", "ExperimentConfig",
    "LayerSpec", "LossBreakdown", "Network", "NetworkConfig", "SyntheticSpec",
    "TrainingDivergedError", "accuracy", "ari", "autodiff", "clamped_count",
    "class_affinity", "collaboration_rate", "collaborative_loss", "config_to_text", "evaluate",
    "generate_synthetic", "hungarian", "infer_labels", "kmeans", "load_checkpoint",
    "load_idx", "negative_teacher", "nmi", "parse_config_file", "parse_config_text",
    "positive_teacher", "save_checkpoint", "subspace_affinity", "subspace_loss",
    "total_loss",
]
