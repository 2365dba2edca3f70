"""Teachers (confidence masks) and collaborative losses: examples and properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import collabsc.autodiff as ad
from collabsc.affinity import subspace_affinity_tensor
from collabsc.losses import (clamped_count, collaboration_rate, collaborative_loss,
                             negative_teacher, positive_teacher, subspace_loss, total_loss)
from collabsc.rng import Xorshift64Star

from oracles import central_difference_gradient


def affinity_pair(n=4, seed=0):
    """A random valid (subspace, class) affinity pair with unit diagonals."""
    rng = Xorshift64Star(seed)
    a_s = np.abs(rng.normals((n, n)))
    a_s = np.minimum((a_s + a_s.T) / (2 * a_s.max()), 1.0)
    np.fill_diagonal(a_s, 1.0)
    logits = rng.normals((n, 3)) * 2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    nu = e / e.sum(axis=1, keepdims=True)
    nu = nu / np.sqrt((nu * nu).sum(axis=1, keepdims=True))
    a_c = np.clip(nu @ nu.T, 0, 1)
    np.fill_diagonal(a_c, 1.0)
    return a_s, a_c


class TestBuildMasks:
    """The confidence masks: the selections of the positive and negative teachers."""

    def test_high_subspace_affinity_selected(self):
        a_s = np.array([[1.0, 0.9], [0.9, 1.0]])
        teacher = positive_teacher(a_s, u=0.7)
        assert teacher.selected.tolist() == [[False, True], [True, False]]
        assert teacher.count == 2

    def test_low_class_affinity_selected(self):
        a_c = np.array([[1.0, 0.05], [0.05, 1.0]])
        teacher = negative_teacher(a_c, l=0.1)
        assert teacher.selected.tolist() == [[False, True], [True, False]]
        assert teacher.count == 2

    def test_boundary_is_strict(self):
        a_s = np.full((2, 2), 0.7)
        np.fill_diagonal(a_s, 1.0)
        assert positive_teacher(a_s, u=0.7).count == 0
        a_c = np.full((2, 2), 0.1)
        np.fill_diagonal(a_c, 1.0)
        assert negative_teacher(a_c, l=0.1).count == 0

    def test_diagonal_always_excluded(self):
        assert not positive_teacher(np.ones((3, 3)), u=0.5).selected.diagonal().any()
        assert not negative_teacher(np.zeros((3, 3)), l=0.4).selected.diagonal().any()

    @pytest.mark.parametrize("which", ["subspace", "class"])
    def test_rejects_nan_affinity(self, which):
        bad = np.eye(3)
        bad[0, 1] = bad[1, 0] = np.nan
        teacher = positive_teacher if which == "subspace" else negative_teacher
        with pytest.raises(ValueError, match=f"{which} affinity entries"):
            teacher(bad, 0.5)

    def test_mask_monotonicity_in_thresholds(self):
        a_s, a_c = affinity_pair(n=6, seed=2)
        low = positive_teacher(a_s, u=0.5).selected
        high = positive_teacher(a_s, u=0.8).selected
        assert (high <= low).all()  # raising u never adds pairs
        wide = negative_teacher(a_c, l=0.2).selected
        narrow = negative_teacher(a_c, l=0.05).selected
        assert (narrow <= wide).all()  # lowering l never adds pairs

    def test_symmetric_sources_give_symmetric_masks(self):
        a_s, a_c = affinity_pair(n=5, seed=3)
        positive = positive_teacher(a_s, u=0.6).selected
        negative = negative_teacher(a_c, l=0.3).selected
        assert (positive == positive.T).all()
        assert (negative == negative.T).all()


def dissimilarity(subspace_aff) -> ad.Tensor:
    """Stage 3's negative-term student 1 - A_s, built as the trainer builds it."""
    a_s = subspace_aff if isinstance(subspace_aff, ad.Tensor) else ad.constant(subspace_aff)
    return ad.subtract(ad.constant(np.ones(a_s.shape)), a_s)


class TestPositiveLoss:
    """``collaborative_loss`` with the positive teacher onto the class affinity."""

    def test_single_pair_hard_mask(self):
        a_s = np.array([[1.0, 0.9], [0.0, 1.0]])
        a_c = ad.constant(np.array([[1.0, 0.5], [0.5, 1.0]]))
        teacher = positive_teacher(a_s, u=0.7, soft_mask=False)
        loss = collaborative_loss(teacher, a_c)
        assert teacher.count == 1 and clamped_count(teacher, a_c) == 0
        assert loss.item() == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_single_pair_soft_mask(self):
        a_s = np.array([[1.0, 0.9], [0.0, 1.0]])
        a_c = ad.constant(np.array([[1.0, 0.5], [0.5, 1.0]]))
        loss = collaborative_loss(positive_teacher(a_s, u=0.7, soft_mask=True), a_c)
        assert loss.item() == pytest.approx(0.9 * -np.log(0.5), abs=1e-12)

    def test_perfect_agreement_is_zero(self):
        a_s = np.ones((3, 3))
        a_c = ad.constant(np.ones((3, 3)))
        teacher = positive_teacher(a_s, u=0.7)
        assert teacher.count == 6
        assert collaborative_loss(teacher, a_c).item() == 0.0

    def test_no_selection_returns_zero(self):
        teacher = positive_teacher(np.eye(3), u=0.7)
        loss = collaborative_loss(teacher, ad.constant(np.eye(3)))
        assert teacher.count == 0 and loss.item() == 0.0

    def test_zero_entry_clamped_and_counted(self):
        a_s = np.array([[1.0, 0.9], [0.9, 1.0]])
        a_c = ad.constant(np.zeros((2, 2)) + np.eye(2))
        teacher = positive_teacher(a_s, u=0.7, soft_mask=False)
        loss = collaborative_loss(teacher, a_c)
        assert clamped_count(teacher, a_c) == 2
        assert loss.item() == pytest.approx(-np.log(1e-12), abs=1e-9)
        assert np.isfinite(loss.item())

    def test_gradient_direction_on_selected_pairs(self):
        # hard mask: d l_pos / d A_c < 0 exactly on selected pairs
        a_s, a_c = affinity_pair(n=5, seed=4)
        teacher = positive_teacher(a_s, u=0.6, soft_mask=False)
        selected = teacher.selected
        target = ad.parameter(a_c.copy())
        loss = collaborative_loss(teacher, target)
        if teacher.count:
            ad.backward(loss)
            grad = target.grad
            assert (grad[selected] < 0).all()
            assert (grad[~selected] == 0).all()
            numeric = central_difference_gradient(
                lambda: collaborative_loss(teacher, ad.constant(target.values)).item(),
                target.values)
            np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_monotone_in_class_affinity(self):
        a_s, a_c = affinity_pair(n=5, seed=5)
        teacher = positive_teacher(a_s, u=0.6)
        if teacher.count == 0:
            pytest.skip("no selected pair in this draw")
        base = collaborative_loss(teacher, ad.constant(a_c))
        i, j = np.argwhere(teacher.selected)[0]
        bumped = a_c.copy()
        bumped[i, j] = min(bumped[i, j] + 0.05, 1.0)
        higher = collaborative_loss(teacher, ad.constant(bumped))
        assert higher.item() < base.item()

    def test_teacher_rejects_nan_affinity(self):
        bad = np.eye(3)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="subspace affinity entries"):
            positive_teacher(bad, u=0.7)


class TestNegativeLoss:
    """``collaborative_loss`` with the negative teacher onto 1 - subspace affinity."""

    def test_single_pair_hard_mask(self):
        a_c = np.array([[1.0, 0.05], [0.05, 1.0]])
        a_s = np.array([[1.0, 0.5], [0.5, 1.0]])
        teacher = negative_teacher(a_c, l=0.1, soft_mask=False)
        assert teacher.count == 2
        loss = collaborative_loss(teacher, dissimilarity(a_s))
        assert loss.item() == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_single_pair_soft_mask(self):
        a_c = np.array([[1.0, 0.2], [0.9, 1.0]])
        a_s = np.array([[1.0, 0.5], [0.5, 1.0]])
        teacher = negative_teacher(a_c, l=0.3, soft_mask=True)
        assert teacher.count == 1
        loss = collaborative_loss(teacher, dissimilarity(a_s))
        assert loss.item() == pytest.approx(0.8 * -np.log(0.5), abs=1e-12)

    def test_zero_subspace_affinity_is_zero_loss(self):
        a_c = np.zeros((2, 2)) + np.eye(2)
        a_s = np.eye(2)
        teacher = negative_teacher(a_c, l=0.1)
        assert teacher.count == 2
        assert collaborative_loss(teacher, dissimilarity(a_s)).item() == 0.0

    def test_saturated_subspace_affinity_clamped(self):
        a_c = np.zeros((2, 2)) + np.eye(2)
        a_s = np.ones((2, 2))
        teacher = negative_teacher(a_c, l=0.1, soft_mask=False)
        student = dissimilarity(a_s)
        assert clamped_count(teacher, student) == 2
        assert np.isfinite(collaborative_loss(teacher, student).item())

    def test_monotone_in_subspace_affinity(self):
        a_s, a_c = affinity_pair(n=5, seed=6)
        teacher = negative_teacher(a_c, l=0.35)
        if teacher.count == 0:
            pytest.skip("no selected pair in this draw")
        base = collaborative_loss(teacher, dissimilarity(a_s))
        i, j = np.argwhere(teacher.selected)[0]
        bumped = a_s.copy()
        bumped[i, j] = min(bumped[i, j] + 0.05, 0.999)
        higher = collaborative_loss(teacher, dissimilarity(bumped))
        assert higher.item() > base.item()


class TestCollaborationRate:
    def test_ratio(self):
        count_pos = positive_teacher(np.ones((21, 21)), u=0.5).count
        count_neg = negative_teacher(np.eye(21), l=0.4).count
        assert count_pos == count_neg == 21 * 20
        assert collaboration_rate(count_pos, count_neg) == 1.0

    def test_zero_negative_clamps(self):
        count_pos = positive_teacher(np.ones((11, 11)), u=0.5).count
        count_neg = negative_teacher(np.ones((11, 11)), l=0.4).count
        assert count_neg == 0
        assert collaboration_rate(count_pos, count_neg) == count_pos

    def test_duplication_scales_counts_together(self):
        # dense selections so the duplicate-copy pairs (affinity 1, selected as
        # positives) are a negligible perturbation of the 4x count scaling
        rng = Xorshift64Star(7)
        n = 20
        a_s = np.clip(0.8 + 0.2 * np.abs(rng.normals((n, n))), 0, 1)
        a_s = (a_s + a_s.T) / 2
        np.fill_diagonal(a_s, 1.0)
        a_c = np.clip(0.05 * np.abs(rng.normals((n, n))), 0, 1)
        a_c = (a_c + a_c.T) / 2
        np.fill_diagonal(a_c, 1.0)
        def rate(a_s, a_c):
            return collaboration_rate(positive_teacher(a_s, u=0.6).count,
                                      negative_teacher(a_c, l=0.3).count)

        doubled = rate(np.kron(np.ones((2, 2)), a_s), np.kron(np.ones((2, 2)), a_c))
        assert doubled == pytest.approx(rate(a_s, a_c), rel=0.1)


class TestSubspaceLoss:
    @staticmethod
    def _tensors(z, c, x, xhat):
        """subspace_loss's tensor arguments, with the caller's C^T Z built
        from ``c`` and ``z``."""
        latent, coeffs = ad.constant(z), ad.parameter(c)
        mixed = ad.matmul(ad.transpose(coeffs), latent)
        return (latent, coeffs, mixed, ad.constant(x), ad.constant(xhat))

    def test_all_zero_case(self):
        z = np.zeros((2, 2))
        total, *_ = subspace_loss(*self._tensors(z, np.zeros((2, 2)), z, z), 10.0)
        assert total.item() == 0.0

    def test_perfect_self_expression_leaves_coeff_norm(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.ones((2, 3))
        total, coeff_norm, self_expr, recon = subspace_loss(
            *self._tensors(z, c, x, x), 10.0)
        assert total.item() == pytest.approx(2.0, abs=1e-12)
        assert coeff_norm.item() == 2.0
        assert self_expr.item() == 0.0
        assert recon.item() == 0.0

    def test_row_convention_hand_case(self):
        # batches are rows, so row i is expressed as sum_j C[j, i] z_j (C^T Z);
        # C Z would give rows (4, 0) and (0.5, 0)
        z = np.array([[1.0, 0.0], [2.0, 0.0]])
        c = np.array([[0.0, 2.0], [0.5, 0.0]])
        _, _, self_expr, _ = subspace_loss(*self._tensors(z, c, z, z), 10.0)
        assert self_expr.item() == 0.0

    def test_mutual_expression_of_duplicates(self):
        z = np.array([[2.0, 5.0], [2.0, 5.0]])
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, _, self_expr, _ = subspace_loss(*self._tensors(z, c, z, z), 10.0)
        assert self_expr.item() == 0.0

    def test_zero_coeffs_leave_latent_energy(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = np.zeros((2, 2))
        total, _, self_expr, _ = subspace_loss(*self._tensors(z, np.zeros((2, 2)), x, x), 10.0)
        assert self_expr.item() == pytest.approx(5.0 * (z * z).sum(), abs=1e-9)
        assert total.item() == self_expr.item()

    def test_rejects_nonzero_diagonal(self):
        z = np.ones((2, 2))
        with pytest.raises(ValueError, match="diagonal"):
            subspace_loss(*self._tensors(z, np.eye(2), z, z), 1.0)

    def test_rejects_shape_mismatch(self):
        z = np.ones((2, 2))
        with pytest.raises(ad.ShapeError):
            subspace_loss(ad.constant(z), ad.parameter(np.zeros((3, 3))), ad.constant(z),
                          ad.constant(z), ad.constant(z), 1.0)

    def test_rejects_mixed_latent_of_another_shape(self):
        z = np.ones((2, 2))
        with pytest.raises(ad.ShapeError, match="mixed latent"):
            subspace_loss(ad.constant(z), ad.parameter(np.zeros((2, 2))),
                          ad.constant(np.ones((2, 3))), ad.constant(z), ad.constant(z), 1.0)


class TestTotalLoss:
    def test_zero_omega(self):
        total = total_loss(ad.constant(np.asarray(2.0)), ad.constant(np.asarray(0.0)), 4.0)
        assert total.item() == 2.0

    def test_weighted_sum(self):
        total = total_loss(ad.constant(np.asarray(2.0)), ad.constant(np.asarray(0.5)), 4.0)
        assert total.item() == 4.0

    def test_lambda_zero_degenerates(self):
        total = total_loss(ad.constant(np.asarray(3.0)), ad.constant(np.asarray(9.9)), 0.0)
        assert total.item() == 3.0


def numpy_subspace_affinity(c):
    """The subspace affinity written out in numpy: row-normalized
    (|C| + |C^T|)/2, dust rows zero, diagonal 1."""
    s = (np.abs(c) + np.abs(c.T)) / 2.0
    row_max = s.max(axis=1)
    a = s * np.where(row_max > 1e-15, 1.0 / np.where(row_max > 0, row_max, 1.0), 0.0)[:, None]
    np.fill_diagonal(a, 1.0)
    return a


class TestSubspaceAffinityTensor:
    def test_values_match_numpy_construction_off_diagonal(self):
        rng = Xorshift64Star(8)
        coeffs = rng.normals((6, 6))
        np.fill_diagonal(coeffs, 0.0)
        tensor = subspace_affinity_tensor(ad.parameter(coeffs))
        expected = numpy_subspace_affinity(coeffs)
        off = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(tensor.values[off], expected[off], atol=1e-15)

    def test_unit_diagonal_copy_equals_numpy_construction_bitwise(self):
        # the trainer's positive teacher reads the tensor's values, and
        # export-affinity writes them with the diagonal set to 1; that copy
        # equals the numpy construction bit for bit
        rng = Xorshift64Star(12)
        for trial in range(5):
            coeffs = rng.normals((7, 7)) * 10.0 ** (trial - 2)
            coeffs[3] = 0.0
            coeffs[:, 3] = 0.0  # an all-zero row scales to zero
            np.fill_diagonal(coeffs, 0.0)
            values = subspace_affinity_tensor(ad.parameter(coeffs)).values.copy()
            np.fill_diagonal(values, 1.0)
            np.testing.assert_array_equal(values, numpy_subspace_affinity(coeffs))

    def test_gradient_flows_into_coefficients(self):
        rng = Xorshift64Star(9)
        coeffs_values = rng.normals((4, 4))
        np.fill_diagonal(coeffs_values, 0.0)
        coeffs = ad.parameter(coeffs_values)
        a_c = np.zeros((4, 4)) + np.eye(4)  # everything off-diagonal is a negative pair
        teacher = negative_teacher(a_c, l=0.1, soft_mask=False)
        assert teacher.count == 12
        ad.backward(collaborative_loss(teacher, dissimilarity(subspace_affinity_tensor(coeffs))))
        assert coeffs.grad is not None
        assert float(np.abs(coeffs.grad).max()) > 0


def test_losses_always_finite_property():
    rng = Xorshift64Star(10)
    for trial in range(30):
        n = 3 + rng.below(5)
        a_s, a_c = affinity_pair(n=n, seed=100 + trial)
        pos, neg = positive_teacher(a_s, u=0.6), negative_teacher(a_c, l=0.3)
        lp = collaborative_loss(pos, ad.constant(a_c))
        ln = collaborative_loss(neg, dissimilarity(a_s))
        omega = ad.add(lp, ad.scale(ln, collaboration_rate(pos.count, neg.count)))
        assert np.isfinite(omega.item())
        assert lp.item() >= 0.0 and ln.item() >= 0.0
