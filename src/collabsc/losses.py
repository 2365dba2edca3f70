"""Collaborative losses and the joint training objective.

The two affinity matrices teach each other: confident positives from the
subspace affinity (A_s > u) supervise the classifier affinity (cross-entropy
pulls selected class-affinity entries toward 1), and confident negatives
from the classifier affinity (A_c < l) supervise the subspace affinity
(pulls selected entries toward 0). Each term builds its own teacher from
its teacher affinity: the selected pairs (off the diagonal, where both
affinities are pinned to 1 and carry no signal), their count and their mask
weights. A teacher is a constant: no gradient flows into it.

The entropy in the source formulation is written without a sign, but
minimizing +sum(p log q) is ill-posed (it drives q to 0); the standard
cross-entropy -sum(p log q) is the only reading consistent with the
teacher/student roles, and is what is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class Teacher:
    """The constant side of one collaborative term on one batch.

    ``selected`` marks the confident pairs and ``weights`` their mask
    weights (0 elsewhere). Both depend only on the teacher affinity and its
    threshold, so the trainer builds its positive teacher once per batch
    for stage 2's classifier steps and stage 3's joint step.
    """

    selected: np.ndarray
    weights: np.ndarray
    count: int


def _checked_affinity(name: str, affinity: np.ndarray) -> np.ndarray:
    a = np.asarray(affinity, dtype=np.float64)
    if not (float(a.min()) >= 0.0 and float(a.max()) <= 1.0):  # False for NaN
        raise ValueError(f"{name} affinity entries must lie in [0, 1]")
    return a


def _teacher(confident: np.ndarray, weight) -> Teacher:
    selected = confident & ~np.eye(confident.shape[0], dtype=bool)
    return Teacher(selected=selected, weights=selected.astype(np.float64) * weight,
                   count=int(selected.sum()))


def positive_teacher(subspace_aff: np.ndarray, u: float, soft_mask: bool = True) -> Teacher:
    """Pairs with A_s > u; weight A_s with soft masks, else 1."""
    a_s = _checked_affinity("subspace", subspace_aff)
    return _teacher(a_s > u, a_s if soft_mask else 1.0)


def negative_teacher(class_aff: np.ndarray, l: float, soft_mask: bool = True) -> Teacher:
    """Pairs with A_c < l; weight 1 - A_c with soft masks, else 1."""
    a_c = _checked_affinity("class", class_aff)
    return _teacher(a_c < l, (1.0 - a_c) if soft_mask else 1.0)


def collaboration_rate(count_pos: int, count_neg: int) -> float:
    """Ratio of confident positive to confident negative pair counts."""
    return max(count_pos, 1) / max(count_neg, 1)


def _as_tensor(a) -> ad.Tensor:
    return a if isinstance(a, ad.Tensor) else ad.constant(np.asarray(a, dtype=np.float64))


def _cross_entropy(weights: np.ndarray, count: int, student: ad.Tensor) -> ad.Tensor:
    """-sum(weights * log(max(student, 1e-12))) / count, for count > 0."""
    log_student = ad.log(student, LOG_CLAMP)
    return ad.scale(ad.tensor_sum(ad.multiply(ad.constant(weights), log_student)), -1.0 / count)


def _clamped_count(selected: np.ndarray, student: ad.Tensor) -> int:
    """Selected pairs whose student entry sits at or below the log floor."""
    return int((selected & ~(student.values > LOG_CLAMP)).sum())


def positive_term(teacher: Teacher, class_aff) -> ad.Tensor:
    """Mean over the teacher's selected pairs of -w * log(class affinity)."""
    if teacher.count == 0:
        return ad.constant(np.asarray(0.0))
    return _cross_entropy(teacher.weights, teacher.count, _as_tensor(class_aff))


def positive_loss(teacher: Teacher, class_aff):
    """``positive_term`` with the counts: (loss tensor, selected count,
    clamped count).

    ``teacher`` is ``positive_teacher`` of the subspace affinity. The
    trainer builds it once per batch: stage 2 steps only the classifier, so
    the coefficients, and with them the teacher, do not move before stage 3.
    """
    student = _as_tensor(class_aff)
    return (positive_term(teacher, student), teacher.count,
            _clamped_count(teacher.selected, student))


def negative_loss(class_aff: np.ndarray, subspace_aff, l: float, soft_mask: bool = True):
    """Mean over selected pairs of -w * log(1 - subspace affinity).

    The teacher is the classifier affinity (see ``negative_teacher``).
    Returns (loss tensor, selected count, clamped count).
    """
    teacher = negative_teacher(class_aff, l, soft_mask)
    if teacher.count == 0:
        return ad.constant(np.asarray(0.0)), 0, 0
    subspace = _as_tensor(subspace_aff)
    student = ad.subtract(ad.constant(np.ones(subspace.shape)), subspace)
    return (_cross_entropy(teacher.weights, teacher.count, student), teacher.count,
            _clamped_count(teacher.selected, student))


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
