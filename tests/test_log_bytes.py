"""Byte-stability guard: optimisations must not move the train log by one bit.

Each case trains a tiny configuration and compares the sha256 of its
train-log CSV with a constant. The same four logs are committed under
``golden/``, and ``compare_logs`` reports how far a fresh log is from one,
value by value. A refactor of the numerics must keep every pin; a change
that reorders a float sum shows up here first.

Pin history. The conv and dense logs held from before the strided-conv
rework (one-view im2col, reused patch matrices, one-copy col2im, no
gradients for constants) and the collab logs from before stage 2 dropped
its negative term and stage 3 built its subspace affinity once, up to the
C^T Z share. That change builds the product once per subspace pass for the
decoder and the self-expression term, so backward sums their gradients
before one matmul backward instead of summing two matmul backwards into C
and Z; it moved all four logs. The logs from before it are kept under
``golden/before_ct_z_share/``. Against them, ``step``, ``count_pos``,
``count_neg`` and every column the share did not move must stay exactly
equal, and each moved column within 4x the largest relative deviation
measured when the share landed (``CT_Z_SHARE_DEVIATION``). The pins and
``golden/`` hold the logs from after it, so exact-byte guarding continues
from there. The class-affinity share that followed moved no pin: each round
builds its subspace affinity tensor once for stages 2 and 3, and stage 3's
negative teacher reads the clipped values of the class affinity tensor it
differentiates, where it had built a separate numpy Gram.

The collab cases run k = 3, three classifier steps per batch and two epochs
(so the u schedule switches), with confident positive and negative pairs in
every row, once with soft and once with hard masks.

Captured with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH,
Haswell kernels), Python 3.11. Another BLAS build may pick other kernels and
produce other bytes; recapture there on the unchanged code first.
"""

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

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
    "conv": "4f3f572263b61b704150733d4860b5e238c28dcf17effe946e919030c00c4f12",
    "dense": "b0e05eba4e1d3f0da21a7e64a98de1d1cf9cc108c236d7f6c4d726c5288f848e",
    "collab": "4b7aba4abf27420ea7ca349e8fbbbb08923ce240ed674f115d303fa6face67bc",
    "collab-hard": "881d13578136657e1e322f0fe01dcfb4bbfdd490002fad6adef05f08ff278c05",
}

# Largest relative deviation of each column the C^T Z share moved, from the
# logs under golden/before_ct_z_share/, as measured when the share landed.
CT_Z_SHARE_DEVIATION = {
    "collab": {"coeff_norm_sq": 1.29e-16, "l_pos": 4.23e-16, "l_neg": 7.75e-13,
               "omega": 7.45e-13, "total": 5.86e-14},
    "collab-hard": {"coeff_norm_sq": 1.29e-16, "l_neg": 7.55e-13, "omega": 7.27e-13,
                    "total": 5.89e-14},
    "conv": {"coeff_norm_sq": 3.03e-16, "l_neg": 8.32e-16, "omega": 8.76e-16,
             "total": 4.32e-16},
    "dense": {"coeff_norm_sq": 1.51e-16, "l_pos": 1.97e-16, "l_neg": 9.90e-14,
              "omega": 9.25e-14, "total": 1.53e-14},
}
TOLERANCE_FACTOR = 4.0


@functools.cache
def trained(case) -> CollaborativeTrainer:
    config, dataset = CASES[case]()
    return CollaborativeTrainer(config, dataset).fit()


@pytest.mark.parametrize("case", sorted(TRAIN_LOG_SHA256))
def test_train_log_bytes_are_unchanged(case):
    result = trained(case)
    assert len(result.train_log) == 2 * result.config.epochs  # two batches per epoch
    assert all(np.isfinite(b.total) for b in result.train_log)
    if case.startswith("collab"):
        assert all(b.count_pos > 0 and b.count_neg > 0 for b in result.train_log)
    digest = hashlib.sha256(train_log_csv(result).encode()).hexdigest()
    assert digest == TRAIN_LOG_SHA256[case], (
        f"{case} train-log sha256 {digest} differs from the constant captured with numpy 2.4.6 "
        f"on OpenBLAS 0.3.31 (Haswell kernels); on numpy {np.__version__} or another BLAS "
        f"build or CPU, recapture on the unchanged parent commit before reading this as a "
        f"numerics regression")


GOLDEN = Path(__file__).parent / "golden"


def golden_log(case, directory=GOLDEN) -> str:
    return (directory / f"train_log_{case}.csv").read_bytes().decode()


@dataclass(frozen=True)
class Deviation:
    """One column's largest absolute and relative deviation of a log from
    its golden log, and the first data row (from 1) where they differ."""

    max_abs: float
    max_rel: float
    first_row: int | None  # None: every value is equal


def compare_logs(golden: str, fresh: str) -> dict[str, Deviation]:
    """Deviation of ``fresh`` from ``golden`` for each column of two CSV
    logs with one header line. Logs whose headers or row counts differ are
    refused."""
    golden_lines, fresh_lines = golden.splitlines(), fresh.splitlines()
    if golden_lines[0] != fresh_lines[0]:
        raise ValueError(f"headers differ: {golden_lines[0]!r} against {fresh_lines[0]!r}")
    if len(golden_lines) != len(fresh_lines):
        raise ValueError(f"row counts differ: {len(golden_lines) - 1} golden against "
                         f"{len(fresh_lines) - 1} fresh")
    columns = golden_lines[0].split(",")
    want, got = (np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
                 .reshape(-1, len(columns)) for lines in (golden_lines, fresh_lines))
    dev = np.abs(got - want)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(dev == 0, 0.0, dev / np.abs(want))
    return {column: Deviation(float(dev[:, j].max(initial=0.0)), float(rel[:, j].max(initial=0.0)),
                              int(np.argmax(dev[:, j] > 0)) + 1 if dev[:, j].any() else None)
            for j, column in enumerate(columns)}


@pytest.mark.parametrize("case", sorted(TRAIN_LOG_SHA256))
def test_golden_log_bytes_match_the_pin(case):
    assert hashlib.sha256(golden_log(case).encode()).hexdigest() == TRAIN_LOG_SHA256[case]


@pytest.mark.parametrize("case", sorted(TRAIN_LOG_SHA256))
def test_fresh_log_has_no_deviation_from_golden(case):
    report = compare_logs(golden_log(case), train_log_csv(trained(case)))
    assert set(report.values()) == {Deviation(0.0, 0.0, None)}


@pytest.mark.parametrize("case", sorted(TRAIN_LOG_SHA256))
def test_fresh_log_within_stated_tolerance_of_pre_share_log(case):
    moved = CT_Z_SHARE_DEVIATION[case]
    assert not moved.keys() & {"step", "count_pos", "count_neg"}
    report = compare_logs(golden_log(case, GOLDEN / "before_ct_z_share"),
                          train_log_csv(trained(case)))
    assert moved.keys() <= report.keys()
    for column, deviation in report.items():
        if column in moved:
            assert deviation.max_rel <= TOLERANCE_FACTOR * moved[column], column
        else:
            assert deviation == Deviation(0.0, 0.0, None), column


def test_one_ulp_is_reported_at_its_column_and_row():
    golden = golden_log("collab")
    lines = golden.splitlines()
    column = lines[0].split(",").index("l_pos")
    row = lines[3].split(",")  # data row 3
    value = float(row[column])
    moved = float(np.nextafter(value, np.inf))
    row[column] = repr(moved)
    report = compare_logs(golden, "\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
    ulp = moved - value
    assert ulp > 0
    assert report["l_pos"] == Deviation(ulp, ulp / abs(value), 3)
    assert {name: d for name, d in report.items() if name != "l_pos"} == {
        name: Deviation(0.0, 0.0, None) for name in report if name != "l_pos"}


def test_header_or_row_count_mismatch_refused():
    golden = golden_log("dense")
    with pytest.raises(ValueError, match="headers differ"):
        compare_logs(golden, golden.replace("step,", "stage,", 1))
    with pytest.raises(ValueError, match="row counts differ: 2 golden against 3 fresh"):
        compare_logs(golden, golden + golden.splitlines()[-1] + "\n")
