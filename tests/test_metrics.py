"""Metrics against brute-force oracles and relabeling invariances."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collabsc import metrics
from collabsc.metrics import accuracy, ari, cluster_sizes, contingency_table, hungarian, \
    infer_labels, nmi
from collabsc.trainer import metrics_row
from collabsc.rng import Xorshift64Star

from oracles import brute_force_accuracy, brute_force_ari, brute_force_assignment, \
    brute_force_nmi, pair_counts

labels_strategy = st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=8)


class TestHungarian:
    def test_diagonal_preference(self):
        assign = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert list(assign) == [0, 1]

    def test_zero_diagonal(self):
        cost = np.ones((4, 4)) - np.eye(4)
        assign = hungarian(cost)
        assert list(assign) == [0, 1, 2, 3]

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            hungarian(np.array([[np.nan, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("cost", [[[np.inf, np.inf], [np.inf, np.inf]],
                                      [[-np.inf, 1.0], [1.0, 0.0]],
                                      [[0.0, 1.0], [np.inf, 0.0]]],
                             ids=["all-inf", "minus-inf", "one-inf"])
    def test_rejects_infinite_costs(self, cost):
        # an all-inf matrix never finished the augmenting-path search
        with pytest.raises(ValueError, match="NaN or inf"):
            hungarian(np.array(cost))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hungarian(np.ones((2, 3)))

    def test_matches_brute_force_on_random_instances(self):
        rng = Xorshift64Star(11)
        for _ in range(100):
            n = 2 + rng.below(6)  # up to 7
            cost = rng.normals((n, n))
            assign = hungarian(cost)
            assert sorted(assign) == list(range(n))
            total = sum(cost[i, assign[i]] for i in range(n))
            assert total == pytest.approx(brute_force_assignment(cost), abs=1e-9)


class TestAccuracy:
    def test_identity(self):
        y = np.array([0, 1, 2, 1, 0])
        assert accuracy(y, y) == 1.0

    def test_permutation_invariance_example(self):
        assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_half_right(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            accuracy([0, 1], [0, 1, 2])

    def test_matches_brute_force_on_random_instances(self):
        rng = Xorshift64Star(7)
        for _ in range(200):
            n = 2 + rng.below(7)  # up to 8
            y_true = np.array([rng.below(3) for _ in range(n)])
            y_pred = np.array([rng.below(3) for _ in range(n)])
            assert accuracy(y_true, y_pred) == brute_force_accuracy(y_true, y_pred)


class TestNmi:
    def test_identical_partitions(self):
        y = np.array([0, 0, 1, 1, 2])
        assert nmi(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_prediction(self):
        assert nmi([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    def test_matches_brute_force(self):
        rng = Xorshift64Star(13)
        for _ in range(200):
            n = 2 + rng.below(7)
            y_true = np.array([rng.below(3) for _ in range(n)])
            y_pred = np.array([rng.below(3) for _ in range(n)])
            assert nmi(y_true, y_pred) == pytest.approx(
                min(1.0, max(0.0, brute_force_nmi(y_true, y_pred))), abs=1e-12)


class TestAri:
    def test_identical_partitions(self):
        y = np.array([0, 1, 1, 2, 2])
        assert ari(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlated_example(self):
        # pair counts: index 0, expected 2/3, max 2 -> (0 - 2/3)/(2 - 2/3) = -1/2,
        # confirmed by the pair-counting oracle
        value = ari([0, 0, 1, 1], [0, 1, 0, 1])
        assert value == pytest.approx(brute_force_ari([0, 0, 1, 1], [0, 1, 0, 1]), abs=1e-12)
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_single_cluster_prediction_is_zero(self):
        assert ari([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = Xorshift64Star(17)
        for _ in range(200):
            n = 2 + rng.below(7)
            y_true = np.array([rng.below(3) for _ in range(n)])
            y_pred = np.array([rng.below(3) for _ in range(n)])
            # integer sufficient statistics must agree exactly
            s11, s10, s01, _ = pair_counts(y_true, y_pred)
            table = contingency_table(y_true, y_pred)
            index = sum(int(v) * (int(v) - 1) // 2 for v in table.reshape(-1))
            a = sum(int(v) * (int(v) - 1) // 2 for v in table.sum(axis=1))
            b = sum(int(v) * (int(v) - 1) // 2 for v in table.sum(axis=0))
            assert (index, a, b) == (s11, s11 + s10, s11 + s01)
            assert ari(y_true, y_pred) == pytest.approx(
                brute_force_ari(y_true, y_pred), abs=1e-12)


class TestRelabelingInvariance:
    @given(labels_strategy, labels_strategy, st.permutations([0, 1, 2]))
    def test_metrics_invariant_to_prediction_relabeling(self, y_true, y_pred, perm):
        if len(y_true) != len(y_pred):
            y_pred = (y_pred * len(y_true))[:len(y_true)]
        y_true = np.array(y_true)
        y_pred = np.array(y_pred)
        relabeled = np.array([perm[v] for v in y_pred])
        assert accuracy(y_true, y_pred) == pytest.approx(accuracy(y_true, relabeled))
        assert nmi(y_true, y_pred) == pytest.approx(nmi(y_true, relabeled), abs=1e-12)
        if len(y_true) >= 2:
            assert ari(y_true, y_pred) == pytest.approx(ari(y_true, relabeled), abs=1e-12)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=10))
    def test_self_agreement(self, y):
        y = np.array(y)
        assert accuracy(y, y) == 1.0
        if len(set(y.tolist())) >= 2:
            assert nmi(y, y) == pytest.approx(1.0, abs=1e-12)
            assert ari(y, y) == pytest.approx(1.0, abs=1e-12)


class TestInferLabels:
    def test_one_hot_rows(self):
        nu = np.eye(4)[[2, 0, 3]]
        assert list(infer_labels(nu)) == [2, 0, 3]

    def test_plain_argmax(self):
        assert list(infer_labels([[0.1, 0.7, 0.2]])) == [1]

    def test_tie_breaks_low_index(self):
        assert list(infer_labels([[0.5, 0.5]])) == [0]


def test_contingency_table_counts():
    table = contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
    assert table.tolist() == [[1, 1], [0, 2]]
    assert table.sum() == 4


def test_contingency_table_spans_the_labels_that_occur():
    # sized by the largest id, the table made accuracy's matching cubic in it
    table = contingency_table([0, 1000], [1000, 0])
    assert table.shape == (2, 2) and table.tolist() == [[0, 1], [1, 0]]
    sparse, dense = ([0, 0, 5, 5, 9], [3, 3, 3, 70, 70]), ([0, 0, 1, 1, 2], [0, 0, 0, 1, 1])
    for metric in (accuracy, nmi, ari):
        assert metric(*sparse) == metric(*dense)


def test_metrics_row_builds_one_contingency_table(monkeypatch):
    built = []
    table = metrics.contingency_table

    def counting(y_true, y_pred):
        built.append(1)
        return table(y_true, y_pred)

    monkeypatch.setattr(metrics, "contingency_table", counting)
    y_true, y_pred = [0, 0, 3, 3, 9], [7, 7, 0, 0, 0]  # sparse ids
    row = metrics_row(3, np.array(y_true), np.array(y_pred), k=8)
    assert len(built) == 1
    assert (row.acc, row.sizes) == (0.8, (3, 0, 0, 0, 0, 0, 0, 2))
    assert (row.nmi, row.ari) == (nmi(y_true, y_pred), ari(y_true, y_pred))
    assert row.nmi != row.ari


def test_cluster_sizes():
    assert list(cluster_sizes([0, 2, 2, 1], 4)) == [1, 1, 2, 0]
    with pytest.raises(ValueError, match="out of range"):
        cluster_sizes([5], 3)
