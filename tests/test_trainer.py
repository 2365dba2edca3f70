"""Trainer orchestration: determinism, stage semantics, inference isolation."""

import re

import numpy as np
import pytest

import collabsc.affinity as affinity_module
import collabsc.autodiff as ad
import collabsc.trainer as trainer_module
from collabsc.checkpoint import CheckpointError
from collabsc.config import ExperimentConfig
from collabsc.data import SyntheticSpec, generate_synthetic
from collabsc.network import LayerSpec, NetworkConfig
from collabsc.optim import Adam
from collabsc.rng import Xorshift64Star
from collabsc.trainer import (CollaborativeTrainer, TrainingDivergedError, eval_chunks,
                              make_batches, metrics_csv, predict_dataset, train_log_csv)

from oracles import loop_kmeans

# tier-1 turns RuntimeWarning into an error; these tests drive values past
# float64's range on purpose, so numpy's overflow and invalid-value warnings
# are expected there
OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                       "ignore:invalid value encountered:RuntimeWarning")


def exactly(message):
    """A ``pytest.raises`` pattern that matches ``message`` and nothing more."""
    return f"^{re.escape(message)}$"


def tiny_dataset(seed=0, n_per=20):
    return generate_synthetic(SyntheticSpec(k=2, d=2, D=12, n_per=n_per, seed=seed,
                                            nonlinearity="tanh-warp"))


def tiny_config(**overrides):
    network = NetworkConfig(
        encoder=(LayerSpec("dense", 16), LayerSpec("dense", 8, activation="none")),
        classifier_head=(),
        num_clusters=2, intrinsic_dim_guess=2)
    defaults = dict(network=network, batch_size=20, epochs=2, pretrain_epochs=3,
                    inner_se_steps=3, seed=0)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def coefficients(trainer):
    """Batch index -> that batch's C, the one parameter of its optimizer."""
    found = {}
    for i, adam in trainer.coeff_adams.items():
        (found[i],) = adam.params.values()
    return found


def poison_last_step(monkeypatch, steps):
    """Make the ``steps``-th ``Adam.step`` of any optimizer write NaN into
    ``decoder.0.b`` after stepping."""
    step, calls = Adam.step, []

    def poisoned_step(adam):
        step(adam)
        calls.append(None)
        if len(calls) == steps:
            adam.params["decoder.0.b"].values[0] = np.nan

    monkeypatch.setattr(Adam, "step", poisoned_step)


class TestBatching:
    def test_partition_covers_everything_once(self):
        batches = make_batches(53, 10, Xorshift64Star(1))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(53))

    def test_lone_trailing_point_folds_into_previous(self):
        batches = make_batches(21, 10, Xorshift64Star(2))
        assert [len(b) for b in batches] == [10, 11]

    def test_partition_is_seed_deterministic(self):
        a = make_batches(30, 7, Xorshift64Star(5))
        b = make_batches(30, 7, Xorshift64Star(5))
        assert all((x == y).all() for x, y in zip(a, b))

    def test_batch_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            make_batches(1, 10, Xorshift64Star(1))

    def test_eval_chunks_sequential(self):
        chunks = eval_chunks(25, 10)
        assert [len(c) for c in chunks] == [10, 10, 5]
        assert (np.concatenate(chunks) == np.arange(25)).all()

    def test_eval_chunks_fold_a_lone_trailing_point(self):
        chunks = eval_chunks(21, 10)
        assert [len(c) for c in chunks] == [10, 11]
        assert (np.concatenate(chunks) == np.arange(21)).all()


class TestPretrain:
    def test_zero_epochs_leave_parameters_unchanged(self):
        dataset = tiny_dataset()
        trainer = CollaborativeTrainer(tiny_config(pretrain_epochs=0), dataset)
        before = trainer.checkpoint_params()
        history = trainer.pretrain()
        assert history == []
        for name, p in trainer.network.params.items():
            np.testing.assert_array_equal(p.values, before[name])

    def test_reconstruction_loss_decreases(self):
        dataset = tiny_dataset()
        trainer = CollaborativeTrainer(tiny_config(pretrain_epochs=20), dataset)
        history = trainer.pretrain()
        assert history[-1] < history[0]

    def test_divergence_aborts_with_last_finite_state(self):
        dataset = tiny_dataset()
        trainer = CollaborativeTrainer(
            tiny_config(pretrain_epochs=50, lr_pretrain=1e9), dataset)
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            trainer.pretrain()
        for p in trainer.network.params.values():
            assert np.isfinite(p.values).all()

    @OVERFLOWS
    def test_non_finite_loss_restores_initial_parameters(self):
        # at this rate the second batch's loss overflows to inf
        dataset = tiny_dataset()
        trainer = CollaborativeTrainer(
            tiny_config(pretrain_epochs=5, lr_pretrain=1e300), dataset)
        before = trainer.checkpoint_params()
        with pytest.raises(TrainingDivergedError, match="inf per point at epoch 1, batch 2"):
            trainer.pretrain()
        for name, p in trainer.network.params.items():
            np.testing.assert_array_equal(p.values, before[name])

    def test_failed_value_check_restores_epoch_start(self):
        # the first decode of epoch 2's second batch fails a value check
        config = tiny_config(pretrain_epochs=2, batch_size=10)
        trainer = CollaborativeTrainer(config, tiny_dataset())
        decode, calls = trainer.network.decode, []

        def failing_decode(latent):
            calls.append(None)
            if len(calls) == len(trainer.batches) + 2:
                raise ad.AutodiffError("log: NaN input")
            return decode(latent)

        trainer.network.decode = failing_decode
        with pytest.raises(TrainingDivergedError,
                           match="pretraining epoch 2 failed a value check: log") as info:
            trainer.pretrain()
        assert isinstance(info.value.__cause__, ad.AutodiffError)
        reference = CollaborativeTrainer(tiny_config(pretrain_epochs=1, batch_size=10),
                                         tiny_dataset())
        reference.pretrain()
        for name, p in trainer.network.params.items():
            np.testing.assert_array_equal(p.values, reference.network.params[name].values)

    def test_non_finite_parameter_after_the_last_step_restores_epoch_start(self, monkeypatch):
        # the loss each step sees stays finite, so only the epoch-end check
        # of the stepped group can catch the NaN the last step leaves
        trainer = CollaborativeTrainer(tiny_config(pretrain_epochs=2, batch_size=10),
                                       tiny_dataset())
        poison_last_step(monkeypatch, 2 * len(trainer.batches))
        with pytest.raises(TrainingDivergedError,
                           match=exactly("pretraining epoch 2: parameter decoder.0.b "
                                         "went non-finite")):
            trainer.pretrain()
        reference = CollaborativeTrainer(tiny_config(pretrain_epochs=1, batch_size=10),
                                         tiny_dataset())
        reference.pretrain()
        for name, p in trainer.network.params.items():
            np.testing.assert_array_equal(p.values, reference.network.params[name].values,
                                          err_msg=name)

    def test_recovering_high_learning_rate_is_not_divergence(self):
        # lr 1.0 overshoots to about 8e5 times the initial per-point loss,
        # then recovers; that stays below the divergence factor
        dataset = tiny_dataset()
        trainer = CollaborativeTrainer(
            tiny_config(pretrain_epochs=50, lr_pretrain=1.0), dataset)
        history = trainer.pretrain()
        assert len(history) == 50
        assert max(history) > 1e4 * history[-1]


class TestTrainBatchDivergence:
    @staticmethod
    def trainer_after_one_good_round(**overrides):
        trainer = CollaborativeTrainer(tiny_config(batch_size=10, **overrides), tiny_dataset())
        trainer.pretrain()
        for i in range(len(trainer.batches)):
            trainer.train_batch(i, u=0.7)
        return trainer

    @staticmethod
    def state(trainer):
        """Parameters, coefficients, and every optimizer's step count and
        moments, all copied (so in-place moment updates would show)."""
        values = trainer.checkpoint_params()
        adams = {"ae": trainer.ae_adam, "cls": trainer.cls_adam}
        adams.update({f"C{i}": adam for i, adam in trainer.coeff_adams.items()})
        for group, adam in adams.items():
            values[f"{group}.adam.step"] = np.asarray(adam.state.step)
            for moment in ("m", "v"):
                values[f"{group}.adam.{moment}"] = getattr(adam.state, moment).copy()
        return values

    def assert_state_equals(self, trainer, before):
        after = self.state(trainer)
        assert after.keys() == before.keys()
        for name in before:
            np.testing.assert_array_equal(after[name], before[name], err_msg=name)

    @OVERFLOWS
    @pytest.mark.parametrize("group", ["autoencoder", "coeffs"])
    def test_runaway_learning_rate_restores_batch_start(self, group):
        trainer = self.trainer_after_one_good_round()
        adam = trainer.ae_adam if group == "autoencoder" else trainer.coeff_adams[1]
        adam.state.lr = 1e300
        before = self.state(trainer)
        assert np.abs(before["selfexpr.batch_1.C"]).max() > 0
        with pytest.raises(TrainingDivergedError,
                           match=exactly("batch 1 at step 0: stage-1 subspace loss went "
                                         "non-finite")):
            trainer.train_batch(1, u=0.7)
        self.assert_state_equals(trainer, before)

    @OVERFLOWS
    def test_non_finite_predictions_restore_batch_start(self):
        # one stage-1 step at this rate leaves a finite loss behind but an
        # encoder whose output is not finite, so the classifier predicts NaN
        trainer = self.trainer_after_one_good_round(inner_se_steps=1)
        trainer.ae_adam.state.lr = 1e300
        before = self.state(trainer)
        with pytest.raises(TrainingDivergedError,
                           match="failed a value check: predictions must be non-negative"):
            trainer.train_batch(1, u=0.7)
        self.assert_state_equals(trainer, before)

    def test_non_unit_prediction_rows_are_refused_before_any_classifier_step(self):
        # finite rows of norm 1.5: stage 2's class affinity refuses them
        # before its first step, and the round is undone
        trainer = self.trainer_after_one_good_round()
        classify, classifier_step, steps = trainer.network.classify, trainer.cls_adam.step, []

        def counted_step():
            steps.append(None)
            classifier_step()

        trainer.network.classify = lambda latent, params=None: ad.scale(
            classify(latent, params=params), 1.5)
        trainer.cls_adam.step = counted_step
        before = self.state(trainer)
        with pytest.raises(TrainingDivergedError, match="not l2-normalized") as info:
            trainer.train_batch(1, u=0.7)
        assert isinstance(info.value.__cause__, ValueError)
        assert steps == []
        self.assert_state_equals(trainer, before)

    @OVERFLOWS
    def test_non_finite_coefficients_restore_batch_start(self):
        # one stage-1 step at this rate leaves the loss it checked finite but
        # the coefficients it stepped not, before the teacher reads them
        trainer = CollaborativeTrainer(tiny_config(batch_size=10, inner_se_steps=1),
                                       tiny_dataset())
        trainer.train_batch(0, u=0.7)
        trainer.coeff_adams[0].state.lr = 1e308
        before = self.state(trainer)
        with pytest.raises(TrainingDivergedError,
                           match=exactly("batch 0 at step 0: stage-1 coefficients went "
                                         "non-finite")):
            trainer.train_batch(0, u=0.7)
        self.assert_state_equals(trainer, before)

    def test_failed_value_check_restores_batch_start(self, monkeypatch):
        # stages 1 and 2 have stepped every optimizer when stage 3's check fails
        trainer = self.trainer_after_one_good_round()

        def failing_negative_teacher(*args, **kwargs):
            raise ValueError("class affinity entries must lie in [0, 1]")

        monkeypatch.setattr(trainer_module, "negative_teacher", failing_negative_teacher)
        before = self.state(trainer)
        with pytest.raises(TrainingDivergedError,
                           match="batch 1 at step 0 failed a value check: class") as info:
            trainer.train_batch(1, u=0.7)
        assert isinstance(info.value.__cause__, ValueError)
        self.assert_state_equals(trainer, before)

    @pytest.mark.parametrize("name", ["classifier.out.b", "selfexpr.batch_0.C"])
    def test_non_finite_joint_step_restores_batch_start(self, name):
        # stage 3 is the last step of either optimizer; it leaves a NaN off
        # C's diagonal, where the zero-diagonal projection keeps it
        trainer = self.trainer_after_one_good_round()
        config = trainer.config
        adam, steps = ((trainer.cls_adam, config.classifier_steps + 1) if name.startswith("cl")
                       else (trainer.coeff_adams[0], config.inner_se_steps + 1))
        step, calls = adam.step, []

        def poisoned_step():
            step()
            calls.append(None)
            if len(calls) == steps:
                adam.params[name].values.flat[1] = np.nan

        adam.step = poisoned_step
        before = self.state(trainer)
        with pytest.raises(TrainingDivergedError,
                           match=exactly(f"batch 0 at step 0: parameter {name} went "
                                         f"non-finite")):
            trainer.train_batch(0, u=0.7)
        assert len(calls) == steps
        self.assert_state_equals(trainer, before)


class TestParameterViews:
    """Every site that sets parameter values writes into the arrays the
    optimizers step: a rebound array would train a detached copy."""

    @staticmethod
    def assert_views_are_live(trainer):
        network = trainer.network.params
        for group, adam in (("autoencoder", trainer.ae_adam), ("classifier", trainer.cls_adam)):
            assert adam.buffer is trainer.network.groups[group][0]
            for name, p in adam.params.items():
                assert p is network[name]
                assert np.shares_memory(p.values, adam.buffer), name
        assert trainer.ae_adam.params.keys() | trainer.cls_adam.params.keys() == network.keys()
        for i, adam in trainer.coeff_adams.items():
            assert list(adam.params) == [f"selfexpr.batch_{i}.C"]
            assert np.shares_memory(adam.params[f"selfexpr.batch_{i}.C"].values,
                                    adam.buffer), i
        # one more step on every optimizer moves every live parameter
        live = {**network, **{f"C{i}": c for i, c in coefficients(trainer).items()}}
        before = {name: p.values.copy() for name, p in live.items()}
        for p in live.values():
            p.grad = np.ones(p.shape)
        for adam in (trainer.ae_adam, trainer.cls_adam, *trainer.coeff_adams.values()):
            adam.step()
        for name, p in live.items():
            assert (p.values != before[name]).all(), name

    @staticmethod
    def trainer_with_coefficients():
        trainer = CollaborativeTrainer(tiny_config(batch_size=10), tiny_dataset())
        for i in range(len(trainer.batches)):
            trainer.train_batch(i, u=0.7)
        return trainer

    def test_warm_start(self):
        trainer = self.trainer_with_coefficients()
        trainer.warm_start_classifier()
        self.assert_views_are_live(trainer)

    @staticmethod
    def shifted_params(trainer):
        """Every checkpoint value plus 0.5, each C's diagonal kept zero."""
        params = {name: values + 0.5 for name, values in trainer.checkpoint_params().items()}
        for i in trainer.coeff_adams:
            np.fill_diagonal(params[f"selfexpr.batch_{i}.C"], 0.0)
        return params

    def test_load_checkpoint_params(self):
        trainer = self.trainer_with_coefficients()
        params = self.shifted_params(trainer)
        assert "selfexpr.batch_0.C" in params
        trainer.load_checkpoint_params(params)
        for name, values in trainer.checkpoint_params().items():
            np.testing.assert_array_equal(values, params[name], err_msg=name)
        self.assert_views_are_live(trainer)

    def test_load_checkpoint_params_refuses_an_unknown_key_and_loads_nothing(self):
        trainer = self.trainer_with_coefficients()
        before = trainer.checkpoint_params()
        params = self.shifted_params(trainer)
        params["encoder.0.W_typo"] = np.zeros(2)
        with pytest.raises(CheckpointError, match="'encoder.0.W_typo' names no network"):
            trainer.load_checkpoint_params(params)
        for name, values in trainer.checkpoint_params().items():
            np.testing.assert_array_equal(values, before[name], err_msg=name)

    @pytest.mark.parametrize("value", [1e-300, -0.5])
    def test_load_checkpoint_params_refuses_a_non_zero_diagonal_and_loads_nothing(self, value):
        # the last C is bad: a check made while loading would have written the
        # network and every other C first
        trainer = self.trainer_with_coefficients()
        before = trainer.checkpoint_params()
        params = self.shifted_params(trainer)
        key = f"selfexpr.batch_{max(trainer.coeff_adams)}.C"
        params[key][2, 2] = value
        with pytest.raises(CheckpointError, match=f"{key!r} has a non-zero diagonal"):
            trainer.load_checkpoint_params(params)
        for name, values in trainer.checkpoint_params().items():
            np.testing.assert_array_equal(values, before[name], err_msg=name)

    @pytest.mark.parametrize("key, value, message", [
        ("classifier.out.b", None, "checkpoint is missing parameter 'classifier.out.b'"),
        ("classifier.out.b", np.ones(3),
         "checkpoint key 'classifier.out.b' has shape (3,), expected (2,)"),
        ("decoder.9.W", np.ones(3), "checkpoint key 'decoder.9.W' names no network parameter"),
        ("selfexpr.batch_4.C", np.zeros((10, 10)),
         "checkpoint key 'selfexpr.batch_4.C' names no batch of this partition of 4 batches"),
        ("selfexpr.batch_3.C", np.zeros((3, 3)),
         "checkpoint key 'selfexpr.batch_3.C' has shape (3, 3), expected (10, 10)"),
        ("selfexpr.batch_3.C", np.where(np.eye(10), 0.0, np.nan),
         "checkpoint key 'selfexpr.batch_3.C' holds NaN or inf values")],
        ids=["missing", "mis-shaped", "unknown", "C-of-no-batch", "C-mis-shaped",
             "C-non-finite"])
    def test_refused_load_writes_nothing(self, key, value, message):
        # the bad key comes last, so every other one would be written first
        trainer = self.trainer_with_coefficients()
        before = trainer.checkpoint_params()
        params = self.shifted_params(trainer)
        params.pop(key, None)
        if value is not None:
            params[key] = value
        with pytest.raises(CheckpointError, match=exactly(message)):
            trainer.load_checkpoint_params(params)
        after = trainer.checkpoint_params()
        assert after.keys() == before.keys()
        for name, values in after.items():
            np.testing.assert_array_equal(values, before[name], err_msg=name)

    def test_train_batch_divergence_restore(self, monkeypatch):
        trainer = self.trainer_with_coefficients()

        def failing_negative_teacher(*args, **kwargs):
            raise ValueError("class affinity entries must lie in [0, 1]")

        monkeypatch.setattr(trainer_module, "negative_teacher", failing_negative_teacher)
        with pytest.raises(TrainingDivergedError, match="failed a value check"):
            trainer.train_batch(0, u=0.7)
        self.assert_views_are_live(trainer)

    def test_pretraining_divergence_restore(self):
        trainer = self.trainer_with_coefficients()
        decode, calls = trainer.network.decode, []

        def failing_decode(latent):
            calls.append(None)
            if len(calls) == 2:
                raise ad.AutodiffError("log: NaN input")
            return decode(latent)

        trainer.network.decode = failing_decode
        with pytest.raises(TrainingDivergedError, match="pretraining epoch 1 failed"):
            trainer.pretrain()
        del trainer.network.decode
        self.assert_views_are_live(trainer)


class TestTrainBatch:
    def test_loss_breakdown_identities(self):
        dataset = tiny_dataset()
        trainer = CollaborativeTrainer(tiny_config(), dataset)
        trainer.pretrain()
        breakdown = trainer.train_batch(0, u=0.7)
        assert breakdown.omega == pytest.approx(
            breakdown.l_pos + breakdown.alpha * breakdown.l_neg, abs=1e-12)
        assert breakdown.total == pytest.approx(
            breakdown.l_sub + trainer.config.lambda_cl * breakdown.omega, abs=1e-12)
        assert breakdown.l_sub == pytest.approx(
            breakdown.coeff_norm_sq + breakdown.self_expression + breakdown.reconstruction,
            rel=1e-12)
        assert np.isfinite(breakdown.total)

    def test_empty_negative_teacher_adds_nothing(self):
        # the warm-started head's softmax rows keep every class affinity far
        # above this l, so no pair is a negative; l_neg is the constant-0 branch
        trainer = CollaborativeTrainer(tiny_config(l=1e-300), tiny_dataset())
        trainer.pretrain()
        trainer.warm_start_classifier()
        for batch_index in range(len(trainer.batches)):
            b = trainer.train_batch(batch_index, u=0.7)
            assert (b.count_neg, b.l_neg, b.clamped_neg) == (0, 0.0, 0)
            assert b.alpha == max(b.count_pos, 1)
            assert b.total == b.l_sub + trainer.config.lambda_cl * b.l_pos
            for name, p in trainer.network.params.items():
                assert np.isfinite(p.values).all(), name
            assert np.isfinite(coefficients(trainer)[batch_index].values).all()
        assert b.count_pos > 0  # the positive term still trains

    def test_coeff_diagonal_zero_after_training(self):
        dataset = tiny_dataset()
        trainer = CollaborativeTrainer(tiny_config(), dataset)
        trainer.pretrain()
        trainer.train_batch(0, u=0.7)
        coeffs = coefficients(trainer)[0].values
        assert (np.diag(coeffs) == 0.0).all()
        assert float(np.abs(coeffs).max()) > 0  # something was learned

    def test_lambda_zero_joint_gradient_equals_subspace_gradient(self):
        # with lambda_cl = 0 the joint objective is exactly the subspace loss
        dataset = tiny_dataset()
        trainer = CollaborativeTrainer(tiny_config(lambda_cl=0.0), dataset)
        trainer.pretrain()
        trainer.train_batch(0, u=0.7)
        x = ad.constant(dataset.features[trainer.batches[0]])

        def joint_grads():
            l_sub = trainer._subspace_pass(x, coefficients(trainer)[0])[1]
            total = ad.scale(l_sub, 1.0)  # lambda_cl = 0 adds nothing
            trainer._zero_grads()
            ad.backward(total)
            return {n: None if p.grad is None else p.grad.copy()
                    for n, p in trainer.network.params.items()}

        a = joint_grads()
        b = joint_grads()
        for name in a:
            if a[name] is None:
                assert b[name] is None
            else:
                np.testing.assert_array_equal(a[name], b[name])


class TestOneAffinityPerRound:
    @pytest.mark.parametrize("classifier_steps", [1, 3])
    def test_each_affinity_comes_from_its_tensor_formula(self, monkeypatch, classifier_steps):
        # stage 1 builds the subspace tensor once for stages 2 and 3; every
        # classifier prediction gets one class tensor
        calls = dict.fromkeys(("subspace_affinity_tensor", "class_affinity_tensor"), 0)

        def counting(name):
            fn = getattr(affinity_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(trainer_module, name, counting(name))
        trainer = CollaborativeTrainer(
            tiny_config(batch_size=10, classifier_steps=classifier_steps), tiny_dataset())
        trainer.pretrain()
        trainer.train_batch(0, u=0.7)
        assert calls == {"subspace_affinity_tensor": 1,
                         "class_affinity_tensor": classifier_steps + 1}


class TestFit:
    def test_epochs_zero_returns_pretrained_model_with_one_evaluation(self):
        result = CollaborativeTrainer(tiny_config(epochs=0), tiny_dataset()).fit()
        assert len(result.metrics_history) == 1
        assert result.train_log == []

    def test_fixed_seed_reproduces_metrics_history(self):
        a = CollaborativeTrainer(tiny_config(), tiny_dataset()).fit()
        b = CollaborativeTrainer(tiny_config(), tiny_dataset()).fit()
        assert metrics_csv(a) == metrics_csv(b)
        assert train_log_csv(a) == train_log_csv(b)

    def test_different_seed_changes_run(self):
        a = CollaborativeTrainer(tiny_config(), tiny_dataset()).fit()
        b = CollaborativeTrainer(tiny_config(seed=1), tiny_dataset()).fit()
        assert train_log_csv(a) != train_log_csv(b)

    def test_all_losses_finite_and_logged_per_step(self):
        result = CollaborativeTrainer(tiny_config(epochs=3), tiny_dataset()).fit()
        assert len(result.train_log) == 3 * len(result.batches)
        for row in result.train_log:
            assert np.isfinite(row.total)
            assert row.l_pos >= 0 and row.l_neg >= 0

    def test_coeff_matrices_persist_per_batch(self):
        result = CollaborativeTrainer(tiny_config(epochs=2, batch_size=10), tiny_dataset()).fit()
        assert set(result.coeff_adams) == set(range(len(result.batches)))
        for i, coeffs in coefficients(result).items():
            assert coeffs.shape == (len(result.batches[i]),) * 2

    def test_checkpoint_params_include_coefficients(self):
        result = CollaborativeTrainer(tiny_config(epochs=1, batch_size=10), tiny_dataset()).fit()
        params = result.checkpoint_params()
        assert "selfexpr.batch_0.C" in params
        assert "encoder.0.W" in params

    def test_init_params_skip_pretraining(self):
        base = CollaborativeTrainer(tiny_config(epochs=0), tiny_dataset()).fit()
        warm = CollaborativeTrainer(tiny_config(epochs=1), tiny_dataset())
        warm.load_checkpoint_params(base.checkpoint_params())
        warm.fit(skip_pretrain=True)
        assert warm.pretrain_log == []


class TestPredict:
    def test_labels_in_range_and_deterministic(self):
        dataset = tiny_dataset()
        result = CollaborativeTrainer(tiny_config(), dataset).fit()
        labels = predict_dataset(result.network, dataset.features, result.config.batch_size)
        assert labels.shape == (len(dataset),)
        assert set(labels.tolist()) <= {0, 1}
        again = predict_dataset(result.network, dataset.features, result.config.batch_size)
        assert (labels == again).all()

    def test_duplicated_rows_get_identical_labels(self):
        dataset = tiny_dataset()
        result = CollaborativeTrainer(tiny_config(), dataset).fit()
        x = np.repeat(dataset.features[:3], 2, axis=0)
        labels = predict_dataset(result.network, x, result.config.batch_size)
        assert labels[0] == labels[1] and labels[2] == labels[3] and labels[4] == labels[5]

    def test_inference_never_touches_decoder_or_coefficients(self):
        dataset = tiny_dataset()
        result = CollaborativeTrainer(tiny_config(), dataset).fit()
        network = result.network

        def boom(*args, **kwargs):
            raise AssertionError("inference touched a training-only component")

        network.decode = boom
        # decoder parameter and coefficient values must also be irrelevant
        for name, p in network.params.items():
            if name.startswith("decoder."):
                p.values = np.full(p.shape, np.nan)
        for coeffs in coefficients(result).values():
            coeffs.values = np.full(coeffs.shape, np.nan)
        labels = predict_dataset(network, dataset.features, result.config.batch_size)
        assert np.isfinite(labels).all()

    def test_predict_matches_epoch_end_evaluation(self):
        dataset = tiny_dataset()
        result = CollaborativeTrainer(tiny_config(epochs=1), dataset).fit()
        labels = predict_dataset(result.network, dataset.features, result.config.batch_size)
        sizes = np.bincount(labels, minlength=2)
        assert tuple(sizes) == result.metrics_history[-1].sizes


class TestSchedulesAndSwitches:
    def test_u_schedule_switches_after_first_epoch(self):
        dataset = tiny_dataset()
        config = tiny_config(epochs=2, u_schedule=(0.5, 0.9))
        trainer = CollaborativeTrainer(config, dataset)
        seen = []
        original = trainer.train_batch

        def spy(batch_index, u):
            seen.append(u)
            return original(batch_index, u)

        trainer.train_batch = spy
        trainer.fit()
        per_epoch = len(trainer.batches)
        assert set(seen[:per_epoch]) == {0.5}
        assert set(seen[per_epoch:]) == {0.9}

    def test_fit_warm_starts_a_pretrained_head(self):
        pretrained = CollaborativeTrainer(tiny_config(), tiny_dataset())
        pretrained.pretrain()
        trainer = CollaborativeTrainer(tiny_config(epochs=1), tiny_dataset())
        trainer.load_checkpoint_params(pretrained.checkpoint_params())
        calls = []
        trainer.warm_start_classifier = lambda: calls.append(None)
        trainer.fit(skip_pretrain=True)
        assert calls == [None]

    def test_fit_keeps_a_trained_head(self):
        config = tiny_config(epochs=1, batch_size=10)
        trained = CollaborativeTrainer(config, tiny_dataset()).fit()
        trainer = CollaborativeTrainer(config, tiny_dataset())
        trainer.load_checkpoint_params(trained.checkpoint_params())
        heads = []
        original = trainer.train_batch

        def spy(batch_index, u):
            heads.append(trainer.network.params["classifier.out.W"].values.copy())
            return original(batch_index, u)

        trainer.train_batch = spy
        trainer.fit(skip_pretrain=True)
        np.testing.assert_array_equal(heads[0],
                                      trained.network.params["classifier.out.W"].values)

    def test_warm_start_head_is_the_loop_oracle_readout(self, monkeypatch):
        trainer = CollaborativeTrainer(tiny_config(), tiny_dataset())
        trainer.pretrain()
        seen = []
        kmeans = trainer_module.kmeans

        def spy(feats, k, seed):
            seen.append((feats, k, seed))
            return kmeans(feats, k, seed=seed)

        monkeypatch.setattr(trainer_module, "kmeans", spy)
        trainer.warm_start_classifier()
        (feats, k, seed), = seen
        # the head as the mask-and-mean readout built it from the loop oracle's labels
        labels = loop_kmeans(feats, k, seed=seed)
        centroids = np.stack([
            feats[labels == c].mean(axis=0) if (labels == c).any() else feats.mean(axis=0)
            for c in range(k)])
        w = centroids.T
        b = -0.5 * (centroids * centroids).sum(axis=1)
        logits = feats @ w + b
        gain = 4.0 / max(float((logits - logits.mean(axis=0, keepdims=True)).std()), 1e-12)
        params = trainer.network.params
        assert params["classifier.out.W"].values.tobytes() == (gain * w).tobytes()
        assert params["classifier.out.b"].values.tobytes() == (gain * b).tobytes()

    def test_warm_start_can_be_disabled(self):
        dataset = tiny_dataset()
        a = CollaborativeTrainer(tiny_config(epochs=1, warm_start_classifier=False), dataset).fit()
        b = CollaborativeTrainer(tiny_config(epochs=1), dataset).fit()
        wa = a.network.params["classifier.out.W"].values
        wb = b.network.params["classifier.out.W"].values
        assert not np.array_equal(wa, wb)
