"""Affinity construction, k-means, exports, and the reference ridge/spectral pipeline."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import collabsc.autodiff as ad
from collabsc.affinity import (affinity_to_pgm, class_affinity_tensor, clip_overshoot,
                               cluster_means, kmeans, subspace_affinity_tensor)
from collabsc.data import SyntheticSpec, generate_synthetic, write_matrix_csv
from collabsc.gradcheck import weighted_sum
from collabsc.metrics import accuracy
from collabsc.rng import Xorshift64Star

from oracles import loop_kmeans, ridge_self_expression, spectral_cluster, unscale


def random_predictions(n, k, seed):
    rng = Xorshift64Star(seed)
    logits = rng.normals((n, k)) * 2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    return s / np.sqrt((s * s).sum(axis=1, keepdims=True))


def class_values(predictions):
    """``class_affinity_tensor``'s values on constant prediction rows."""
    return class_affinity_tensor(ad.constant(predictions)).values


def subspace_values(coeffs):
    """``subspace_affinity_tensor``'s values on a constant C."""
    return subspace_affinity_tensor(ad.constant(coeffs)).values


class TestClassAffinity:
    def test_distinct_one_hots(self):
        np.testing.assert_array_equal(class_values(np.eye(3)), np.eye(3))

    def test_identical_uniform_rows(self):
        a = class_values(np.full((2, 4), 0.5))
        assert a[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_known_dot_product(self):
        nu = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        a = class_values(nu)
        assert a[0, 1] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="normalized"):
            class_values(np.array([[0.5, 0.5], [1.0, 0.0]]))

    def test_rejects_nan_predictions(self):
        nu = np.eye(3)
        nu[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            class_values(nu)

    def test_gram_is_positive_semidefinite_with_unit_diagonal(self):
        # the diagonal is 1 up to rounding, which clip_overshoot tolerates
        a = clip_overshoot(class_values(random_predictions(12, 5, seed=3)))
        np.testing.assert_allclose(np.diag(a), 1.0, rtol=0, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh((a + a.T) / 2)
        assert eigenvalues.min() > -1e-10
        assert a.min() >= 0.0 and a.max() <= 1.0


class TestClassAffinityTensor:
    def test_clipped_unit_diagonal_copy_equals_numpy_form_bitwise(self):
        # the trainer's negative teacher reads the clipped parameter values;
        # with the diagonal set to 1 they are bit for bit the numpy form the
        # export writes: clip_overshoot of the constant build, unit diagonal
        for trial, (n, k) in enumerate([(6, 3), (12, 5), (9, 2), (20, 7), (3, 1)]):
            p = random_predictions(n, k, seed=30 + trial)
            p[1] = p[0]  # a repeated row rounds its Gram entry near 1
            values = np.clip(class_affinity_tensor(ad.parameter(p)).values, 0.0, 1.0)
            np.fill_diagonal(values, 1.0)
            exported = clip_overshoot(class_values(p))
            np.fill_diagonal(exported, 1.0)
            np.testing.assert_array_equal(values, exported)

    def test_values_are_the_gram_of_the_rows(self):
        p = random_predictions(8, 4, seed=5)
        np.testing.assert_allclose(class_values(p), p @ p.T, atol=1e-15)

    def test_gradient_flows_into_predictions(self):
        p = ad.parameter(random_predictions(5, 3, seed=6))
        ad.backward(weighted_sum(class_affinity_tensor(p), np.ones((5, 5))))
        # d sum(P P^T) / dP = 2 * (column sums of P) in every row
        np.testing.assert_allclose(p.grad, np.tile(2.0 * p.values.sum(axis=0), (5, 1)),
                                   rtol=1e-14)

    @pytest.mark.parametrize("rows, message", [
        (np.array([[0.5, 0.5], [1.0, 0.0]]), "normalized"),
        (np.array([[np.nan, 1.0], [1.0, 0.0]]), "NaN"),
        (np.array([[-0.6, 0.8], [1.0, 0.0]]), "non-negative"),
        (np.array([[np.inf, 0.0], [1.0, 0.0]]), "normalized"),
        (np.ones(3), "2-d")])
    def test_refuses_what_class_affinity_refuses(self, rows, message):
        # constant and parameter rows are checked alike
        for make in (ad.constant, ad.parameter):
            with pytest.raises(ValueError, match=message):
                class_affinity_tensor(make(rows))


class TestClipOvershoot:
    def test_clips_rounding_overshoot_into_a_copy(self):
        a = np.array([[1.0 + 1e-13, 0.25], [0.25, 1.0]])
        kept = a.copy()
        clipped = clip_overshoot(a)
        np.testing.assert_array_equal(clipped, [[1.0, 0.25], [0.25, 1.0]])
        np.testing.assert_array_equal(a, kept)  # stage 3 differentiates the input

    def test_refuses_overshoot_beyond_rounding(self):
        with pytest.raises(ValueError, match="exceeds 1 by"):
            clip_overshoot(np.array([[1.0 + 1e-11]]))

    def test_refuses_nan(self):
        with pytest.raises(ValueError, match="exceeds 1 by nan"):
            clip_overshoot(np.array([[np.nan, 0.5]]))


class TestSubspaceAffinity:
    def test_zero_coefficients_give_zeros(self):
        np.testing.assert_array_equal(subspace_values(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_two_by_two_hand_case(self):
        coeffs = np.array([[0.0, 0.5], [-0.25, 0.0]])
        np.testing.assert_allclose(subspace_values(coeffs), [[0.0, 1.0], [1.0, 0.0]])

    def test_row_normalization_hand_case(self):
        coeffs = np.array([[0.0, 0.4, 0.2],
                           [0.4, 0.0, 0.0],
                           [0.2, 0.0, 0.0]])
        a = subspace_values(coeffs)
        np.testing.assert_allclose(a[0], [0.0, 1.0, 0.5])
        # rows own their normalizers: row 2's largest entry is its only one
        np.testing.assert_allclose(a[:, 0], [0.0, 1.0, 1.0])

    def test_scale_invariance(self):
        rng = Xorshift64Star(5)
        coeffs = rng.normals((6, 6))
        np.fill_diagonal(coeffs, 0.0)
        a = subspace_values(coeffs)
        b = subspace_values(coeffs * 37.5)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_transpose_invariance(self):
        rng = Xorshift64Star(6)
        coeffs = rng.normals((5, 5))
        np.fill_diagonal(coeffs, 0.0)
        np.testing.assert_allclose(subspace_values(coeffs), subspace_values(coeffs.T),
                                   atol=1e-15)

    def test_dust_rows_stay_zero(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 1] = coeffs[1, 0] = 1e-20  # below the dust tolerance
        np.testing.assert_array_equal(subspace_values(coeffs), np.zeros((3, 3)))

    def test_a_row_just_above_the_dust_tolerance_is_normalized(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 1] = coeffs[1, 0] = 1e-14
        np.testing.assert_array_equal(subspace_values(coeffs),
                                      [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


class TestRidgeSelfExpression:
    def test_two_identical_unit_rows(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        coeffs = ridge_self_expression(z, 10.0, project_diagonal=False)
        np.testing.assert_allclose(coeffs, np.full((2, 2), 1 / 2.2), atol=1e-12)

    def test_orthogonal_rows_large_lambda(self):
        z = np.eye(3)
        pre = ridge_self_expression(z, 1e12, project_diagonal=False)
        np.testing.assert_allclose(pre, np.eye(3), atol=1e-9)
        post = ridge_self_expression(z, 1e12)
        np.testing.assert_allclose(post, np.zeros((3, 3)), atol=1e-9)

    def test_small_lambda_shrinks_to_zero(self):
        rng = Xorshift64Star(7)
        z = rng.normals((4, 3))
        coeffs = ridge_self_expression(z, 1e-9, project_diagonal=False)
        assert float(np.abs(coeffs).max()) < 1e-8

    def test_stationarity_condition(self):
        # 2C + lambda (C G - G) = 0 before the diagonal projection
        rng = Xorshift64Star(8)
        z = rng.normals((10, 4))
        lam = 10.0
        coeffs = ridge_self_expression(z, lam, project_diagonal=False)
        gram = z @ z.T
        residual = 2 * coeffs + lam * (coeffs @ gram - gram)
        assert float(np.linalg.norm(residual)) < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="lambda1"):
            ridge_self_expression(np.eye(3), 0.0)
        with pytest.raises(ValueError, match=r"n >= 2"):
            ridge_self_expression(np.ones((1, 3)), 1.0)
        with pytest.raises(ValueError, match="5000"):
            ridge_self_expression(np.zeros((5001, 2)), 1.0)


class TestSpectralCluster:
    def test_two_perfect_blocks(self):
        a = np.zeros((6, 6))
        a[:3, :3] = 1.0
        a[3:, 3:] = 1.0
        labels = spectral_cluster(a, 2, seed=0)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_identity_affinity_k_equals_n(self):
        labels = spectral_cluster(np.eye(4), 4, seed=0)
        assert sorted(labels) == [0, 1, 2, 3]

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError, match="k=5"):
            spectral_cluster(np.eye(4), 5)

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_cluster(a, 2)

    def test_zero_degree_node_is_assigned(self):
        a = np.zeros((5, 5))
        a[:2, :2] = 1.0
        a[2:4, 2:4] = 1.0
        labels = spectral_cluster(a, 2, seed=0)
        assert labels.shape == (5,)
        assert set(labels.tolist()) <= {0, 1}


class TestOraclePipeline:
    def test_noiseless_subspaces_recovered_exactly(self):
        spec = SyntheticSpec(k=3, d=3, D=30, n_per=100, noise_sigma=0.0,
                             nonlinearity="none", seed=0)
        ds = generate_synthetic(spec)
        raw = unscale(ds)  # the union-of-subspaces model lives in unscaled coordinates
        coeffs = ridge_self_expression(raw, 10.0)
        affinity = subspace_values(coeffs)
        labels = spectral_cluster((affinity + affinity.T) / 2, 3, seed=0)
        assert accuracy(ds.labels_for_evaluation(), labels) == 1.0

    def test_off_block_mass_small_for_independent_subspaces(self):
        rng = Xorshift64Star(200)
        n_per, k, d, D = 40, 3, 3, 30
        blocks = []
        for _ in range(k):
            basis, r = np.linalg.qr(rng.normals((D, d)))
            blocks.append(rng.normals((n_per, d)) @ basis.T)
        points = np.concatenate(blocks)
        coeffs = ridge_self_expression(points, 10.0)
        affinity = subspace_values(coeffs)
        mask = np.zeros_like(affinity, dtype=bool)
        for c in range(k):
            mask[c * n_per:(c + 1) * n_per, c * n_per:(c + 1) * n_per] = True
        off_block = affinity[~mask].sum() / affinity.sum()
        assert off_block < 0.05


class TestKmeans:
    def test_separated_blobs(self):
        rng = Xorshift64Star(9)
        pts = np.concatenate([rng.normals((20, 2)) + offset
                              for offset in (np.array([0, 0]), np.array([20, 0]),
                                             np.array([0, 20]))])
        labels = kmeans(pts, 3, seed=0)
        truth = np.repeat([0, 1, 2], 20)
        assert accuracy(truth, labels) == 1.0

    def test_deterministic(self):
        rng = Xorshift64Star(10)
        pts = rng.normals((30, 4))
        a = kmeans(pts, 3, seed=5)
        b = kmeans(pts, 3, seed=5)
        assert (a == b).all()

    # the ci profile widens this fuzz: every centroid must be summed in the
    # loop oracle's order, or a label can flip on a tie
    @settings(max_examples=1000 if settings.get_current_profile_name() == "ci" else 40,
              deadline=None)
    @given(n=st.integers(1, 40), dim=st.integers(1, 6), distinct=st.integers(1, 40),
           k=st.integers(1, 40), exponents=st.lists(st.integers(-100, 100), min_size=6,
                                                    max_size=6),
           zero_share=st.sampled_from([0.0, 0.25, 1.0]), zero_column=st.booleans(),
           seed=st.integers(0, 2**32))
    @example(n=12, dim=1, distinct=12, k=3, exponents=[0] * 6, zero_share=0.0,
             zero_column=False, seed=1)  # D = 1
    @example(n=9, dim=3, distinct=4, k=1, exponents=[0] * 6, zero_share=0.25,
             zero_column=False, seed=2)  # k = 1
    @example(n=9, dim=3, distinct=9, k=9, exponents=[0] * 6, zero_share=0.25,
             zero_column=True, seed=3)  # k = n
    @example(n=20, dim=2, distinct=3, k=8, exponents=[0] * 6, zero_share=0.0,
             zero_column=False, seed=4)  # duplicate rows: clusters go empty
    def test_labels_match_the_loop_oracle(self, n, dim, distinct, k, exponents, zero_share,
                                          zero_column, seed):
        rng = Xorshift64Star(seed)
        distinct, k = min(distinct, n), min(k, n)
        rows = rng.normals((distinct, dim)) * 10.0 ** np.array(exponents[:dim], dtype=np.float64)
        pts = rows[[rng.below(distinct) for _ in range(n)]]
        pts[np.array([rng.uniform() < zero_share for _ in range(n * dim)]).reshape(n, dim)] = -0.0
        if zero_column:
            pts[:, 0] = -0.0
        got = kmeans(pts, k, seed=seed)
        expected = loop_kmeans(pts, k, seed=seed)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_warm_start_shape_matches_the_loop_oracle(self):
        # collab-k20's warm start: 1000 head features of width 32, k = 20
        rng = Xorshift64Star(20)
        pts = (rng.normals((20, 32)) * 3.0)[np.arange(1000) % 20] + rng.normals((1000, 32))
        assert kmeans(pts, 20, seed=7).tobytes() == loop_kmeans(pts, 20, seed=7).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, value):
        pts = Xorshift64Star(11).normals((10, 3))
        pts[4, 1] = value
        with pytest.raises(ValueError, match="kmeans needs finite points"):
            kmeans(pts, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_distances_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            kmeans(np.full((4, 2), 1e200), 2)


class TestClusterMeans:
    def test_each_mean_is_the_masked_mean(self):
        pts = Xorshift64Star(12).normals((9, 3))
        pts[:, 1] = -0.0
        labels = np.array([2, 0, 2, 0, 0, 2, 3, 3, 0])
        means, counts = cluster_means(pts, labels, 5)
        assert counts.tolist() == [4, 0, 3, 2, 0]
        for c in (0, 2, 3):
            assert means[c].tobytes() == pts[labels == c].mean(axis=0).tobytes()
        assert means[[1, 4]].tobytes() == np.zeros((2, 3)).tobytes()  # empty clusters


class TestExports:
    def test_csv_round_trip(self, tmp_path):
        a = np.array([[1.0, 0.25], [0.25, 1.0]])
        path = tmp_path / "a.csv"
        write_matrix_csv(a, path)
        loaded = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(loaded, a)

    def test_pgm_header_and_pixels(self, tmp_path):
        a = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "a.pgm"
        affinity_to_pgm(a, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[-4:]) == [0, 128, 255, 64]
