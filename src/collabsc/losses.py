"""Confidence masks, collaborative losses, and the joint training objective.

The two affinity matrices teach each other: confident positives from the
subspace affinity supervise the classifier affinity (cross-entropy pulls
selected class-affinity entries toward 1), and confident negatives from the
classifier affinity supervise the subspace affinity (pulls selected entries
toward 0). Mask weights are teacher signal and receive no gradient by
default; ``teacher_grad=True`` lets gradients flow through them.

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
    for name, a in (("subspace", a_s), ("class", a_c)):
        if not (float(a.min()) >= 0.0 and float(a.max()) <= 1.0):  # False for NaN
            raise ValueError(f"{name} affinity entries must lie in [0, 1]")
    off = ~np.eye(a_s.shape[0], dtype=bool)
    return ConfidenceMasks(positive=(a_s > u) & off, negative=(a_c < l) & off, u=u, l=l)


def _as_tensor(a) -> ad.Tensor:
    return a if isinstance(a, ad.Tensor) else ad.constant(np.asarray(a, dtype=np.float64))


def _clamped_log(student: ad.Tensor) -> tuple[ad.Tensor, np.ndarray]:
    """log(max(student, 1e-12)) built from tape ops.

    The clamp is an indicator rewrite: entries above the floor pass through
    (and keep their gradient), entries at or below it become the constant
    floor (zero gradient, the subgradient of the max).
    """
    keep = (student.values > LOG_CLAMP).astype(np.float64)
    floor = ad.constant(LOG_CLAMP * (1.0 - keep))
    clamped = ad.add(ad.multiply(student, ad.constant(keep)), floor)
    return ad.log(clamped), keep


def positive_loss(subspace_aff: np.ndarray, class_aff, u: float, soft_mask: bool = True,
                  masks: ConfidenceMasks | None = None, teacher_grad: bool = False,
                  subspace_aff_tensor: ad.Tensor | None = None):
    """Mean over selected pairs of -w * log(class affinity).

    The teacher is the subspace affinity: selection is A_s > u off-diagonal,
    and in soft-mask mode w = A_s on selected pairs (constant unless
    ``teacher_grad``). Returns (loss tensor, selected count, clamped count).
    """
    a_s = np.asarray(subspace_aff, dtype=np.float64)
    student = _as_tensor(class_aff)
    if masks is None:
        off = ~np.eye(a_s.shape[0], dtype=bool)
        selected = (a_s > u) & off
    else:
        selected = masks.positive
    count = int(selected.sum())
    if count == 0:
        return ad.constant(np.asarray(0.0)), 0, 0
    log_student, keep = _clamped_log(student)
    sel = selected.astype(np.float64)
    clamped = int((selected & (keep == 0.0)).sum())
    if soft_mask and teacher_grad and subspace_aff_tensor is not None:
        weighted = ad.multiply(ad.multiply(ad.constant(sel), subspace_aff_tensor), log_student)
    else:
        w = sel * (a_s if soft_mask else 1.0)
        weighted = ad.multiply(ad.constant(w), log_student)
    return ad.scale(ad.tensor_sum(weighted), -1.0 / count), count, clamped


def negative_loss(class_aff: np.ndarray, subspace_aff, l: float, soft_mask: bool = True,
                  masks: ConfidenceMasks | None = None, teacher_grad: bool = False,
                  class_aff_tensor: ad.Tensor | None = None):
    """Mean over selected pairs of -w * log(1 - subspace affinity).

    The teacher is the classifier affinity: selection is A_c < l
    off-diagonal, and in soft-mask mode w = 1 - A_c on selected pairs.
    """
    a_c = np.asarray(class_aff, dtype=np.float64)
    student = _as_tensor(subspace_aff)
    if masks is None:
        off = ~np.eye(a_c.shape[0], dtype=bool)
        selected = (a_c < l) & off
    else:
        selected = masks.negative
    count = int(selected.sum())
    if count == 0:
        return ad.constant(np.asarray(0.0)), 0, 0
    ones = ad.constant(np.ones(student.shape))
    log_student, keep = _clamped_log(ad.subtract(ones, student))
    sel = selected.astype(np.float64)
    clamped = int((selected & (keep == 0.0)).sum())
    if soft_mask and teacher_grad and class_aff_tensor is not None:
        one_minus_teacher = ad.subtract(ad.constant(np.ones(a_c.shape)), class_aff_tensor)
        weighted = ad.multiply(ad.multiply(ad.constant(sel), one_minus_teacher), log_student)
    else:
        w = sel * ((1.0 - a_c) if soft_mask else 1.0)
        weighted = ad.multiply(ad.constant(w), log_student)
    return ad.scale(ad.tensor_sum(weighted), -1.0 / count), count, clamped


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
