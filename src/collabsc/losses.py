"""Confidence masks, collaborative losses, and the joint training objective.

The two affinity matrices teach each other: confident positives from the
subspace affinity supervise the classifier affinity (cross-entropy pulls
selected class-affinity entries toward 1), and confident negatives from the
classifier affinity supervise the subspace affinity (pulls selected entries
toward 0). The teacher side of each term (selection, count and mask
weights) is a constant: no gradient flows into it.

The entropy in the source formulation is written without a sign, but
minimizing +sum(p log q) is ill-posed (it drives q to 0); the standard
cross-entropy -sum(p log q) is the only reading consistent with the
teacher/student roles, and is what is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .affinity import subspace_row_scales

LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class ConfidenceMasks:
    """Binary pair selections: positives from A_s > u, negatives from A_c < l.

    Diagonal pairs are excluded from both masks; the affinity diagonals are
    pinned to 1 by construction and carry no training signal.
    """

    positive: np.ndarray
    negative: np.ndarray
    u: float
    l: float

    @property
    def count_positive(self) -> int:
        return int(self.positive.sum())

    @property
    def count_negative(self) -> int:
        return int(self.negative.sum())


def _check_unit_range(name: str, a: np.ndarray) -> None:
    if not (float(a.min()) >= 0.0 and float(a.max()) <= 1.0):  # False for NaN
        raise ValueError(f"{name} affinity entries must lie in [0, 1]")


def build_masks(subspace_aff: np.ndarray, class_aff: np.ndarray, u: float, l: float,
                ) -> ConfidenceMasks:
    a_s = np.asarray(subspace_aff, dtype=np.float64)
    a_c = np.asarray(class_aff, dtype=np.float64)
    if a_s.shape != a_c.shape or a_s.ndim != 2 or a_s.shape[0] != a_s.shape[1]:
        raise ValueError(f"affinities must be square and same shape, got {a_s.shape} vs {a_c.shape}")
    if u <= l:
        raise ValueError(f"selection bands overlap: need l < u, got l={l}, u={u}")
    if not (0.0 < l and u < 1.0):
        raise ValueError(f"thresholds must satisfy 0 < l < u < 1, got l={l}, u={u}")
    _check_unit_range("subspace", a_s)
    _check_unit_range("class", a_c)
    off = ~np.eye(a_s.shape[0], dtype=bool)
    return ConfidenceMasks(positive=(a_s > u) & off, negative=(a_c < l) & off, u=u, l=l)


def _as_tensor(a) -> ad.Tensor:
    return a if isinstance(a, ad.Tensor) else ad.constant(np.asarray(a, dtype=np.float64))


def _cross_entropy(weights: np.ndarray, count: int, student: ad.Tensor) -> ad.Tensor:
    """-sum(weights * log(max(student, 1e-12))) / count, for count > 0."""
    log_student = ad.log(student, LOG_CLAMP)
    return ad.scale(ad.tensor_sum(ad.multiply(ad.constant(weights), log_student)), -1.0 / count)


def _clamped_count(selected: np.ndarray, student: ad.Tensor) -> int:
    """Selected pairs whose student entry sits at or below the log floor."""
    return int((selected & ~(student.values > LOG_CLAMP)).sum())


@dataclass(frozen=True)
class PositiveTeacher:
    """The subspace side of the positive term on one batch.

    ``selected`` marks the confident pairs (A_s > u, off the diagonal) and
    ``weights`` their mask weights (A_s with soft masks, else 1; 0 elsewhere).
    Both depend only on A_s and u, so stage 2 builds them once for all its
    classifier steps.
    """

    selected: np.ndarray
    weights: np.ndarray
    count: int


def positive_teacher(subspace_aff: np.ndarray, u: float, soft_mask: bool = True,
                     selected: np.ndarray | None = None) -> PositiveTeacher:
    """Selection, weights and count of the positive term.

    ``selected`` is the positive mask of ``build_masks``, which has checked
    the affinity already; without it the affinity is checked to lie in
    [0, 1] and the selection is built here.
    """
    a_s = np.asarray(subspace_aff, dtype=np.float64)
    if selected is None:
        _check_unit_range("subspace", a_s)
        selected = (a_s > u) & ~np.eye(a_s.shape[0], dtype=bool)
    weights = selected.astype(np.float64) * (a_s if soft_mask else 1.0)
    return PositiveTeacher(selected=selected, weights=weights, count=int(selected.sum()))


def positive_term(teacher: PositiveTeacher, class_aff) -> ad.Tensor:
    """Mean over the teacher's selected pairs of -w * log(class affinity)."""
    if teacher.count == 0:
        return ad.constant(np.asarray(0.0))
    return _cross_entropy(teacher.weights, teacher.count, _as_tensor(class_aff))


def positive_loss(subspace_aff: np.ndarray, class_aff, u: float, soft_mask: bool = True,
                  masks: ConfidenceMasks | None = None):
    """Mean over selected pairs of -w * log(class affinity).

    The teacher is the subspace affinity (see ``positive_teacher``). Returns
    (loss tensor, selected count, clamped count).
    """
    teacher = positive_teacher(subspace_aff, u, soft_mask,
                               None if masks is None else masks.positive)
    student = _as_tensor(class_aff)
    return (positive_term(teacher, student), teacher.count,
            _clamped_count(teacher.selected, student))


def negative_loss(class_aff: np.ndarray, subspace_aff, l: float, soft_mask: bool = True,
                  masks: ConfidenceMasks | None = None):
    """Mean over selected pairs of -w * log(1 - subspace affinity).

    The teacher is the classifier affinity: selection is A_c < l
    off-diagonal, and in soft-mask mode w = 1 - A_c on selected pairs.
    """
    a_c = np.asarray(class_aff, dtype=np.float64)
    if masks is None:
        selected = (a_c < l) & ~np.eye(a_c.shape[0], dtype=bool)
    else:
        selected = masks.negative
    count = int(selected.sum())
    if count == 0:
        return ad.constant(np.asarray(0.0)), 0, 0
    subspace = _as_tensor(subspace_aff)
    student = ad.subtract(ad.constant(np.ones(subspace.shape)), subspace)
    weights = selected.astype(np.float64) * ((1.0 - a_c) if soft_mask else 1.0)
    return _cross_entropy(weights, count, student), count, _clamped_count(selected, student)


def collaboration_rate(masks: ConfidenceMasks) -> float:
    """Ratio of confident positive to confident negative pair counts."""
    return max(masks.count_positive, 1) / max(masks.count_negative, 1)


def subspace_affinity_tensor(coeff_tensor: ad.Tensor) -> ad.Tensor:
    """Differentiable subspace affinity (off-diagonal entries).

    Symmetrized absolute coefficients scaled by the per-row normalizers. The
    normalizers are recomputed each forward pass but treated as constants
    during differentiation, so gradients keep the direction of the
    unnormalized entries. The diagonal is 0 here, not 1; every consumer
    masks the diagonal out.
    """
    sym = ad.scale(ad.add(ad.absolute(coeff_tensor), ad.transpose(ad.absolute(coeff_tensor))), 0.5)
    scales = subspace_row_scales(coeff_tensor.values)
    scale_matrix = np.repeat(scales[:, None], coeff_tensor.shape[0], axis=1)
    return ad.multiply(sym, ad.constant(scale_matrix))


@dataclass(frozen=True)
class LossBreakdown:
    """Every term of one training step, plus the selection diagnostics."""

    coeff_norm_sq: float
    self_expression: float
    reconstruction: float
    l_sub: float
    l_pos: float
    l_neg: float
    alpha: float
    omega: float
    lambda_cl: float
    total: float
    count_pos: int
    count_neg: int
    clamped_pos: int = 0
    clamped_neg: int = 0


def subspace_loss(latent: ad.Tensor, coeffs: ad.Tensor, inputs: ad.Tensor,
                  reconstruction: ad.Tensor, lambda1: float):
    """||C||_F^2 + (lambda1/2) ||Z - C^T Z||_F^2 + (1/2) ||X - Xhat||_F^2.

    Batches are rows here, so the coefficient matrix acts transposed:
    output row i mixes latent rows j with weights C[j, i]. Returns the
    scalar tensor and the three term tensors.
    """
    n = latent.shape[0]
    if coeffs.shape != (n, n):
        raise ad.ShapeError(
            f"coefficients {coeffs.shape} do not match batch of {n} latent rows")
    if inputs.shape != reconstruction.shape:
        raise ad.ShapeError(
            f"reconstruction shape {reconstruction.shape} != input shape {inputs.shape}")
    if np.count_nonzero(np.diag(coeffs.values)):
        raise ValueError("coefficient diagonal is not zero; project before the loss")
    coeff_norm = ad.frobenius_sq(coeffs)
    mixed = ad.matmul(ad.transpose(coeffs), latent)
    self_expr = ad.scale(ad.frobenius_sq(ad.subtract(latent, mixed)), lambda1 / 2.0)
    recon = ad.scale(ad.frobenius_sq(ad.subtract(inputs, reconstruction)), 0.5)
    total = ad.add(ad.add(coeff_norm, self_expr), recon)
    return total, coeff_norm, self_expr, recon


def total_loss(l_sub: ad.Tensor, omega: ad.Tensor, lambda_cl: float) -> ad.Tensor:
    return ad.add(l_sub, ad.scale(omega, lambda_cl))
