"""Collaborative losses and the joint training objective.

The two affinity matrices teach each other: confident positives from the
subspace affinity (A_s > u) supervise the classifier affinity (pulling the
selected class-affinity entries toward 1), and confident negatives from the
classifier affinity (A_c < l) supervise the subspace affinity (pulling the
selected entries toward 0). Each direction is the same term,
``collaborative_loss``: a confidence-masked cross-entropy from a teacher onto
a student. Stage 2 uses it for the positive term (student A_c); stage 3 for
both terms (students A_c and 1 - A_s). The caller builds each teacher from
its teacher affinity (``positive_teacher``, ``negative_teacher``): the
selected pairs, their count and their mask weights. Only pairs off the
diagonal are selected: a point paired with itself carries no signal (there
the class affinity is 1 within rounding and the subspace affinity is 0). A
teacher is a constant: no gradient flows into it.

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


def collaborative_loss(teacher: Teacher, student: ad.Tensor) -> ad.Tensor:
    """-sum(w * log(max(student, 1e-12))) / count over the teacher's
    selected pairs, with w its mask weights; a constant 0 when it selects
    none."""
    if teacher.count == 0:
        return ad.constant(np.asarray(0.0))
    log_student = ad.log(student, LOG_CLAMP)
    return ad.scale(ad.tensor_sum(ad.multiply(ad.constant(teacher.weights), log_student)),
                    -1.0 / teacher.count)


def clamped_count(teacher: Teacher, student: ad.Tensor) -> int:
    """Selected pairs whose student entry sits at or below the log floor."""
    return int((teacher.selected & ~(student.values > LOG_CLAMP)).sum())


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
    total: float
    count_pos: int
    count_neg: int
    clamped_pos: int = 0
    clamped_neg: int = 0


def subspace_loss(latent: ad.Tensor, coeffs: ad.Tensor, mixed: ad.Tensor,
                  inputs: ad.Tensor, reconstruction: ad.Tensor, lambda1: float):
    """||C||_F^2 + (lambda1/2) ||Z - C^T Z||_F^2 + (1/2) ||X - Xhat||_F^2.

    Batches are rows here, so the coefficient matrix acts transposed:
    output row i mixes latent rows j with weights C[j, i]. ``mixed`` is the
    caller's C^T Z tensor, the one the decoder turned into ``reconstruction``,
    so the product is built once per pass. Returns the scalar tensor and the
    three term tensors.
    """
    n = latent.shape[0]
    if coeffs.shape != (n, n):
        raise ad.ShapeError(
            f"coefficients {coeffs.shape} do not match batch of {n} latent rows")
    if mixed.shape != latent.shape:
        raise ad.ShapeError(f"mixed latent shape {mixed.shape} != latent shape {latent.shape}")
    if inputs.shape != reconstruction.shape:
        raise ad.ShapeError(
            f"reconstruction shape {reconstruction.shape} != input shape {inputs.shape}")
    if np.count_nonzero(np.diag(coeffs.values)):
        raise ValueError("coefficient diagonal is not zero; project before the loss")
    coeff_norm = ad.frobenius_sq(coeffs)
    self_expr = ad.scale(ad.frobenius_sq(ad.subtract(latent, mixed)), lambda1 / 2.0)
    recon = ad.scale(ad.frobenius_sq(ad.subtract(inputs, reconstruction)), 0.5)
    total = ad.add(ad.add(coeff_norm, self_expr), recon)
    return total, coeff_norm, self_expr, recon


def total_loss(l_sub: ad.Tensor, omega: ad.Tensor, lambda_cl: float) -> ad.Tensor:
    return ad.add(l_sub, ad.scale(omega, lambda_cl))
