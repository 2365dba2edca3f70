"""The benchmark's workloads: seeded input files plus a training config.

Each workload writes its input sets into a work directory from sub-seeds of
the benchmark seed; the program then sees only those files. Sizes, epochs
and learning rates are fixed so that a round on one input set is
deterministic and its accuracy lands clearly above chance (see README.md).
The configs turn ``fit``'s own classifier warm start off: the benchmark
calls ``warm_start_classifier`` itself, before ``fit``, to time it.
A workload has as many input sets as leave a few rounds to spare in a run, so
every run visits each set and repeats some.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from collabsc import data
from collabsc.config import ExperimentConfig, config_to_text
from collabsc.network import LayerSpec, NetworkConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict            # SyntheticSpec fields except seed
    network: NetworkConfig
    train: dict           # ExperimentConfig fields
    input_sets: int       # data sets per run, each from its own sub-seed
    image_side: int = 0   # > 0: inputs are IDX images of this side length

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(network=self.network, seed=seed, **self.train)

    def sub_seeds(self, seed: int) -> list[int]:
        """Seeds of the run's input sets; distinct for distinct run seeds."""
        return [seed * self.input_sets + i for i in range(self.input_sets)]

    def write_inputs(self, seed: int, workdir: Path) -> dict[str, Path]:
        """Generate the dataset from the seed and write it as the program's input files."""
        dataset = data.generate_synthetic(data.SyntheticSpec(seed=seed, **self.spec))
        paths = {"config": workdir / "config.txt", "checkpoint": workdir / "model.ckpt"}
        paths["config"].write_text(config_to_text(self.config(seed)))
        if self.image_side:
            side = self.image_side
            pixels = np.rint(dataset.features * 255.0).astype(np.uint8)
            paths["images"] = workdir / "images.idx"
            paths["labels"] = workdir / "labels.idx"
            data.write_idx_images(paths["images"], pixels.reshape(-1, side, side))
            data.write_idx_labels(paths["labels"], dataset.labels_for_evaluation())
        else:
            paths["features"] = workdir / "features.csv"
            paths["labels"] = workdir / "labels.csv"
            data.save_dataset_csv(dataset, paths["features"], paths["labels"])
        return paths

    def load(self, paths: dict[str, Path]) -> data.Dataset:
        # looked up on the module at call time so the traced run sees its wrappers
        if self.image_side:
            return data.load_idx(paths["images"], paths["labels"])
        return data.load_dataset_csv(paths["features"], paths["labels"])


def _dense(units: int) -> LayerSpec:
    return LayerSpec("dense", units)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense-k5",
        why="small dense arrays at the paper's 20 inner steps, so per-op autodiff "
            "dispatch, the graph walk and Adam dominate; no conv code",
        spec=dict(k=5, d=5, D=64, n_per=150, noise_sigma=0.05, nonlinearity="tanh-warp",
                  concentration=8.0),
        network=NetworkConfig(encoder=(_dense(32),), classifier_head=(_dense(16),),
                              num_clusters=5, intrinsic_dim_guess=6),
        train=dict(batch_size=150, epochs=4, pretrain_epochs=20, inner_se_steps=20,
                   classifier_steps=1, lr_other=1e-4, warm_start_classifier=False),
        input_sets=20,
    ),
    Workload(
        name="conv-28",
        why="1x28x28 IDX images through strided conv and conv-transpose layers, so "
            "im2col/col2im copies dominate training and forward-only predict",
        spec=dict(k=4, d=6, D=784, n_per=75, noise_sigma=0.02, concentration=8.0),
        network=NetworkConfig(
            encoder=(LayerSpec("conv", 4, kernel_size=3, stride=2),
                     LayerSpec("conv", 8, kernel_size=3, stride=2)),
            classifier_head=(_dense(16),), num_clusters=4),
        train=dict(batch_size=150, epochs=1, pretrain_epochs=10, inner_se_steps=20,
                   classifier_steps=1, lr_other=1e-5, warm_start_classifier=False),
        input_sets=8,
        image_side=28,
    ),
    Workload(
        name="collab-k20",
        why="k=20 with batches of 500 and few inner steps, so the n^2 affinity, mask "
            "and collaborative-loss work of stages 2 and 3 dominates; no conv code",
        spec=dict(k=20, d=4, D=96, n_per=50, noise_sigma=0.02, concentration=15.0),
        network=NetworkConfig(encoder=(_dense(64),), classifier_head=(_dense(32),),
                              num_clusters=20, intrinsic_dim_guess=3),
        train=dict(batch_size=500, epochs=3, pretrain_epochs=20, inner_se_steps=2,
                   classifier_steps=5, lr_other=3e-5, warm_start_classifier=False),
        input_sets=9,
    ),
)}
