"""Affinity construction, k-means, exports, and the reference ridge/spectral pipeline."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collabsc.affinity import (affinity_to_csv, affinity_to_pgm, class_affinity, cluster_means,
                               kmeans, subspace_affinity)
from collabsc.data import SyntheticSpec, generate_synthetic
from collabsc.metrics import accuracy
from collabsc.rng import Xorshift64Star

from oracles import loop_kmeans, ridge_self_expression, spectral_cluster, unscale


def random_predictions(n, k, seed):
    rng = Xorshift64Star(seed)
    logits = rng.normals((n, k)) * 2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    return s / np.sqrt((s * s).sum(axis=1, keepdims=True))


class TestClassAffinity:
    def test_distinct_one_hots(self):
        nu = np.eye(3)
        a = class_affinity(nu)
        np.testing.assert_array_equal(a, np.eye(3))

    def test_identical_uniform_rows(self):
        nu = np.full((2, 4), 0.5)
        a = class_affinity(nu)
        assert a[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_known_dot_product(self):
        nu = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        a = class_affinity(nu)
        assert a[0, 1] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="normalized"):
            class_affinity(np.array([[0.5, 0.5], [1.0, 0.0]]))

    def test_rejects_nan_predictions(self):
        nu = np.eye(3)
        nu[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            class_affinity(nu)

    def test_gram_is_positive_semidefinite_with_unit_diagonal(self):
        a = class_affinity(random_predictions(12, 5, seed=3))
        assert (np.diag(a) == 1.0).all()
        eigenvalues = np.linalg.eigvalsh((a + a.T) / 2)
        assert eigenvalues.min() > -1e-10
        assert a.min() >= 0.0 and a.max() <= 1.0


class TestSubspaceAffinity:
    def test_zero_coefficients_give_identity(self):
        np.testing.assert_array_equal(subspace_affinity(np.zeros((3, 3))), np.eye(3))

    def test_two_by_two_hand_case(self):
        coeffs = np.array([[0.0, 0.5], [-0.25, 0.0]])
        a = subspace_affinity(coeffs)
        np.testing.assert_allclose(a, np.ones((2, 2)))

    def test_row_normalization_hand_case(self):
        coeffs = np.array([[0.0, 0.4, 0.2],
                           [0.4, 0.0, 0.0],
                           [0.2, 0.0, 0.0]])
        a = subspace_affinity(coeffs)
        np.testing.assert_allclose(a[0], [1.0, 1.0, 0.5])

    def test_scale_invariance(self):
        rng = Xorshift64Star(5)
        coeffs = rng.normals((6, 6))
        np.fill_diagonal(coeffs, 0.0)
        a = subspace_affinity(coeffs)
        b = subspace_affinity(coeffs * 37.5)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_transpose_invariance(self):
        rng = Xorshift64Star(6)
        coeffs = rng.normals((5, 5))
        np.fill_diagonal(coeffs, 0.0)
        np.testing.assert_allclose(subspace_affinity(coeffs),
                                   subspace_affinity(coeffs.T), atol=1e-15)

    def test_dust_rows_stay_zero(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 1] = coeffs[1, 0] = 1e-20  # below the dust tolerance
        a = subspace_affinity(coeffs)
        np.testing.assert_array_equal(a, np.eye(3))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            subspace_affinity(np.eye(2))


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
        affinity = subspace_affinity(coeffs)
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
        affinity = subspace_affinity(coeffs)
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
        affinity_to_csv(a, path)
        loaded = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(loaded, a)

    def test_pgm_header_and_pixels(self, tmp_path):
        a = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "a.pgm"
        affinity_to_pgm(a, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[-4:]) == [0, 128, 255, 64]
