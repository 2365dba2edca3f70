"""Command-line entry point: exit codes and the files each command leaves."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import collabsc.autodiff as ad
import collabsc.trainer as trainer_module
from collabsc import cli
from collabsc.affinity import class_affinity_tensor, clip_overshoot, subspace_affinity_tensor
from collabsc.checkpoint import load_checkpoint, save_checkpoint
from collabsc.config import config_to_text, parse_config_file
from collabsc.data import load_dataset_csv, write_idx_images, write_idx_labels
from collabsc.network import LayerSpec, NetworkConfig
from collabsc.trainer import CollaborativeTrainer, pretrain_log_csv

from test_trainer import OVERFLOWS, poison_last_step, tiny_config


def write_inputs(tmp_path, **overrides):
    prefix = tmp_path / "toy"
    assert cli.main(["synth", "--k", "2", "--d", "2", "--D", "12", "--n-per", "20",
                     "--nonlinearity", "tanh-warp", "--seed", "0", "--out", str(prefix)]) == 0
    config = tiny_config(**overrides)
    config_path = tmp_path / "config.txt"
    config_path.write_text(config_to_text(config))
    data = [f"{prefix}_features.csv", f"{prefix}_labels.csv"]
    dataset = load_dataset_csv(*data)
    return config, dataset, ["--data", data[0], "--labels", data[1],
                             "--config", str(config_path)]


def train_checkpoint(tmp_path):
    """Train the tiny config in 4 batches of 10 points; the CLI arguments
    for its data and config, and the checkpoint ``train`` wrote."""
    _, _, args = write_inputs(tmp_path, batch_size=10)
    ckpt = tmp_path / "trained.ckpt"
    assert cli.main(["train", *args, "--checkpoint", str(ckpt)]) == 0
    return args, ckpt


def assert_holds_state_before_first_round(ckpt, config, dataset):
    """``ckpt`` holds the pretrained, warm-started network and batch 0's C
    at its zero start (batches of 10 points)."""
    trainer = CollaborativeTrainer(config, dataset)
    trainer.pretrain()
    trainer.warm_start_classifier()
    expected = trainer.checkpoint_params()
    expected["selfexpr.batch_0.C"] = np.zeros((10, 10))
    params = load_checkpoint(ckpt)
    assert params.keys() == expected.keys()
    for name, values in params.items():
        np.testing.assert_array_equal(values, expected[name], err_msg=name)


class TestPretrain:
    def test_writes_checkpoint_and_log(self, tmp_path):
        config, dataset, args = write_inputs(tmp_path, pretrain_epochs=4)
        ckpt, log = tmp_path / "model.ckpt", tmp_path / "pretrain.csv"
        assert cli.main(["pretrain", *args, "--checkpoint", str(ckpt), "--log", str(log)]) == 0
        assert len(log.read_text().splitlines()) == 1 + 4
        initial = CollaborativeTrainer(config, dataset).checkpoint_params()
        params = load_checkpoint(ckpt)
        assert params.keys() == initial.keys()
        assert not np.array_equal(params["encoder.0.W"], initial["encoder.0.W"])

    def test_log_bytes_equal_pretrain_log_csv(self, tmp_path):
        config, dataset, args = write_inputs(tmp_path, pretrain_epochs=4)
        log = tmp_path / "pretrain.csv"
        assert cli.main(["pretrain", *args, "--checkpoint", str(tmp_path / "model.ckpt"),
                         "--log", str(log)]) == 0
        history = CollaborativeTrainer(config, dataset).pretrain()
        assert log.read_bytes() == pretrain_log_csv(history).encode()

    def test_runaway_loss_exits_2_with_restored_checkpoint(self, tmp_path, capsys):
        # the loss grows by ~1e77 within the first epoch but stays finite
        config, dataset, args = write_inputs(tmp_path, pretrain_epochs=50)
        ckpt = tmp_path / "model.ckpt"
        code = cli.main(["pretrain", *args, "--checkpoint", str(ckpt), "--lr-pretrain", "1e9"])
        assert code == 2
        assert "diverged" in capsys.readouterr().err
        initial = CollaborativeTrainer(config, dataset).checkpoint_params()
        params = load_checkpoint(ckpt)
        assert params.keys() == initial.keys()
        for name, values in params.items():
            np.testing.assert_array_equal(values, initial[name], err_msg=name)

    def test_non_finite_parameter_exits_2_with_a_checkpoint_that_loads(self, tmp_path, capsys,
                                                                       monkeypatch):
        # the last step of 2 epochs of 2 batches leaves decoder.0.b NaN
        config, dataset, args = write_inputs(tmp_path, pretrain_epochs=2)
        poison_last_step(monkeypatch, 4)
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["pretrain", *args, "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == ("error: pretraining epoch 2: parameter decoder.0.b "
                                           "went non-finite\n")
        monkeypatch.undo()
        reference = CollaborativeTrainer(dataclasses.replace(config, pretrain_epochs=1), dataset)
        reference.pretrain()
        trainer = CollaborativeTrainer(config, dataset)
        trainer.load_checkpoint_params(load_checkpoint(ckpt))
        for name, p in trainer.network.params.items():
            np.testing.assert_array_equal(p.values, reference.network.params[name].values,
                                          err_msg=name)


class TestTrainDivergence:
    @OVERFLOWS
    def test_diverged_train_exits_2_with_restored_checkpoint(self, tmp_path, capsys):
        # one stage-1 step at this rate leaves the first batch's coefficients
        # non-finite; train_batch restores them to their zero start
        config, dataset, args = write_inputs(tmp_path, batch_size=10)
        ckpt = tmp_path / "model.ckpt"
        code = cli.main(["train", *args, "--checkpoint", str(ckpt),
                         "--inner-se-steps", "1", "--lr-other", "1e308"])
        assert code == 2
        assert capsys.readouterr().err == ("error: batch 0 at step 1: stage-1 coefficients "
                                           "went non-finite\n")
        assert_holds_state_before_first_round(ckpt, config, dataset)


    def test_failed_value_check_exits_2_with_restored_checkpoint(self, tmp_path, capsys,
                                                                monkeypatch):
        # a range check that fails inside the first batch round is divergence,
        # not bad input: the round is undone and its checkpoint saved
        config, dataset, args = write_inputs(tmp_path, batch_size=10)

        def failing_negative_teacher(*args, **kwargs):
            raise ValueError("class affinity entries must lie in [0, 1]")

        monkeypatch.setattr(trainer_module, "negative_teacher", failing_negative_teacher)
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", *args, "--checkpoint", str(ckpt)]) == 2
        assert "batch 0 at step 1 failed a value check" in capsys.readouterr().err
        assert_holds_state_before_first_round(ckpt, config, dataset)


class TestTrainedCheckpoint:
    def test_eval_prints_the_metrics_row_of_train(self, tmp_path, capsys):
        args, ckpt = train_checkpoint(tmp_path)
        train_lines = capsys.readouterr().out.splitlines()
        assert cli.main(["eval", *args, "--checkpoint", str(ckpt)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == train_lines[-2]
        # eval reports epoch 0; every other column matches train's last epoch
        assert row.split(",")[1:] == train_lines[-1].split(",")[1:]

    def test_export_affinity_writes_both_affinities(self, tmp_path, capsys):
        args, ckpt = train_checkpoint(tmp_path)
        out = tmp_path / "batch2"
        assert cli.main(["export-affinity", *args, "--checkpoint", str(ckpt), "--batch", "2",
                         "--out", str(out)]) == 0
        assert f"wrote {out}_subspace.csv/.pgm and {out}_class.csv/.pgm" in \
            capsys.readouterr().out
        # off the diagonal, the values of the formulas training reads; on it, 1
        params = load_checkpoint(ckpt)
        trainer = CollaborativeTrainer(
            parse_config_file(args[args.index("--config") + 1]),
            load_dataset_csv(args[args.index("--data") + 1], args[args.index("--labels") + 1]))
        trainer.load_checkpoint_params(params)
        x = trainer.dataset.features[trainer.batches[2]]
        frozen = trainer.network.frozen()
        expected = {
            "subspace": subspace_affinity_tensor(ad.constant(params["selfexpr.batch_2.C"])).values,
            "class": clip_overshoot(class_affinity_tensor(
                frozen.classify(frozen.encode(x))).values)}
        off = ~np.eye(10, dtype=bool)
        for name in ("subspace", "class"):
            a = np.loadtxt(f"{out}_{name}.csv", delimiter=",")
            assert a.shape == (10, 10) and (np.diag(a) == 1.0).all()
            np.testing.assert_array_equal(a[off], expected[name][off])
            pixels = np.clip(np.rint(255.0 * a), 0, 255).astype(np.uint8)
            assert Path(f"{out}_{name}.pgm").read_bytes() == b"P5\n10 10\n255\n" + pixels.tobytes()

    @pytest.mark.parametrize("key", ["selfexpr.batch_99.C", "selfexpr.batch_-1.C"])
    def test_init_checkpoint_key_of_no_batch_exits_1(self, tmp_path, capsys, key):
        args, ckpt = train_checkpoint(tmp_path)
        params = load_checkpoint(ckpt)
        params[key] = np.zeros((10, 10))
        save_checkpoint(ckpt, params)
        code = cli.main(["train", *args, "--init-checkpoint", str(ckpt),
                         "--checkpoint", str(tmp_path / "resumed.ckpt")])
        assert code == 1
        assert key in capsys.readouterr().err

    def test_eval_checkpoint_missing_a_parameter_exits_1(self, tmp_path, capsys):
        args, ckpt = train_checkpoint(tmp_path)
        params = load_checkpoint(ckpt)
        del params["encoder.0.W"]
        save_checkpoint(ckpt, params)
        assert cli.main(["eval", *args, "--checkpoint", str(ckpt)]) == 1
        assert "encoder.0.W" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["classifier.0.W", "encoder.0.W_typo"])
    def test_eval_checkpoint_with_an_unknown_key_exits_1(self, tmp_path, capsys, key):
        # tiny_config's head has no hidden layer, so classifier.0.W is foreign
        args, ckpt = train_checkpoint(tmp_path)
        params = load_checkpoint(ckpt)
        params[key] = np.zeros((8, 4))
        save_checkpoint(ckpt, params)
        assert cli.main(["eval", *args, "--checkpoint", str(ckpt)]) == 1
        assert f"checkpoint key {key!r} names no network parameter" in capsys.readouterr().err

    def test_eval_checkpoint_with_a_mis_shaped_key_exits_1(self, tmp_path, capsys):
        args, ckpt = train_checkpoint(tmp_path)
        params = load_checkpoint(ckpt)
        params["encoder.0.W"] = np.zeros((8, 4))
        save_checkpoint(ckpt, params)
        assert cli.main(["eval", *args, "--checkpoint", str(ckpt)]) == 1
        assert "checkpoint key 'encoder.0.W' has shape (8, 4), expected (12, 16)" in \
            capsys.readouterr().err

    def test_export_misshapen_coefficients_exits_1(self, tmp_path, capsys):
        args, ckpt = train_checkpoint(tmp_path)
        params = load_checkpoint(ckpt)
        params["selfexpr.batch_0.C"] = np.zeros((5, 5))
        save_checkpoint(ckpt, params)
        out = tmp_path / "batch0"
        code = cli.main(["export-affinity", *args, "--checkpoint", str(ckpt),
                         "--out", str(out)])
        assert code == 1
        assert "selfexpr.batch_0.C" in capsys.readouterr().err
        assert not Path(f"{out}_subspace.csv").exists()

    @pytest.mark.parametrize("command", ["train", "export-affinity"])
    def test_non_zero_coefficient_diagonal_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                                      command):
        args, ckpt = train_checkpoint(tmp_path)
        params = load_checkpoint(ckpt)
        params["selfexpr.batch_2.C"][3, 3] = 0.25
        save_checkpoint(ckpt, params)
        out = tmp_path / "out"
        extra = {"train": ["--init-checkpoint", str(ckpt), "--checkpoint", str(out),
                           "--train-log", f"{out}.csv"],
                 "export-affinity": ["--checkpoint", str(ckpt), "--batch", "2",
                                     "--out", str(out)]}[command]
        files = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main([command, *args, *extra]) == 1
        captured = capsys.readouterr()
        assert "checkpoint key 'selfexpr.batch_2.C' has a non-zero diagonal" in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("command, key, value", [
        ("eval", "classifier.out.b", np.nan),
        ("train", "decoder.0.W", np.inf),
        ("export-affinity", "selfexpr.batch_2.C", -np.inf)],
        ids=["eval", "train", "export-affinity"])
    def test_non_finite_checkpoint_value_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                                   command, key, value):
        args, ckpt = train_checkpoint(tmp_path)
        params = load_checkpoint(ckpt)
        params[key].flat[0] = value
        save_checkpoint(ckpt, params)
        out = tmp_path / "out"
        extra = {"eval": ["--checkpoint", str(ckpt)],
                 "train": ["--init-checkpoint", str(ckpt), "--checkpoint", str(out),
                           "--train-log", f"{out}.csv", "--metrics-log", f"{out}.metrics"],
                 "export-affinity": ["--checkpoint", str(ckpt), "--batch", "2",
                                     "--out", str(out)]}[command]
        files = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main([command, *args, *extra]) == 1
        captured = capsys.readouterr()
        assert f"checkpoint key {key!r} holds NaN or inf values" in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == files


class TestInputValidation:
    def test_train_without_labels_exits_1_and_writes_nothing(self, tmp_path, capsys):
        _, _, args = write_inputs(tmp_path)
        at = args.index("--labels")
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", *args[:at], *args[at + 2:], "--checkpoint", str(ckpt)]) == 1
        assert "--labels" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_removed_override_flags_exit_1(self, tmp_path, capsys):
        _, _, args = write_inputs(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        for flag, value in (("--u", "0.8"), ("--alpha-mode", "fixed"), ("--alpha-fixed", "0.5")):
            assert cli.main(["train", *args, "--checkpoint", str(ckpt), flag, value]) == 1, flag
            assert flag in capsys.readouterr().err
        assert not ckpt.exists()

    def test_non_positive_feature_dimension_exits_1_and_writes_nothing(self, tmp_path, capsys):
        prefix = tmp_path / "toy"
        assert cli.main(["synth", "--k", "2", "--d", "2", "--D", "64", "--n-per", "20",
                         "--out", str(prefix)]) == 0
        network = NetworkConfig(encoder=(LayerSpec("conv", 2, kernel_size=3, stride=2),),
                                classifier_head=(), num_clusters=2, intrinsic_dim_guess=2)
        config_path = tmp_path / "config.txt"
        config_path.write_text(config_to_text(tiny_config(network=network)))
        args = ["pretrain", "--data", f"{prefix}_features.csv", "--labels",
                f"{prefix}_labels.csv", "--config", str(config_path)]
        ckpt = tmp_path / "model.ckpt"
        assert cli.main([*args, "--feature-shape", "1,-8,-8", "--checkpoint", str(ckpt)]) == 1
        assert "dimension >= 1" in capsys.readouterr().err
        assert not ckpt.exists()
        # the same data and config train under a valid shape
        assert cli.main([*args, "--feature-shape", "1,8,8", "--checkpoint", str(ckpt)]) == 0

    @pytest.mark.parametrize("flag", ["--lambda1", "--lambda-cl", "--lr-pretrain", "--lr-ae",
                                      "--lr-other"])
    def test_non_finite_override_exits_1_and_writes_nothing(self, tmp_path, capsys, flag):
        _, _, args = write_inputs(tmp_path)
        ckpt, log = tmp_path / "model.ckpt", tmp_path / "train.csv"
        for value in ("nan", "inf"):
            assert cli.main(["train", *args, "--checkpoint", str(ckpt), "--train-log", str(log),
                             flag, value]) == 1, value
            assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_synth_non_finite_noise_exits_1_and_writes_nothing(self, tmp_path, capsys, value):
        prefix = tmp_path / "toy"
        assert cli.main(["synth", "--k", "2", "--d", "2", "--D", "12", "--n-per", "20",
                         "--noise-sigma", value, "--out", str(prefix)]) == 1
        assert "noise_sigma" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_synth_negative_seed_exits_1_and_writes_nothing(self, tmp_path, capsys):
        assert cli.main(["synth", "--k", "2", "--d", "2", "--D", "12", "--n-per", "5",
                         "--seed", "-1", "--out", str(tmp_path / "toy")]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_feature_shape_with_idx_input_exits_1_and_writes_nothing(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(images, np.arange(40 * 16, dtype=np.uint8).reshape(40, 4, 4))
        write_idx_labels(labels, np.arange(40) % 2)
        network = NetworkConfig(encoder=(LayerSpec("conv", 2, kernel_size=3, stride=2),),
                                classifier_head=(), num_clusters=2, intrinsic_dim_guess=2)
        config_path = tmp_path / "config.txt"
        config_path.write_text(config_to_text(tiny_config(network=network)))
        args = ["pretrain", "--idx-images", str(images), "--idx-labels", str(labels),
                "--config", str(config_path)]
        ckpt = tmp_path / "model.ckpt"
        assert cli.main([*args, "--feature-shape", "2,2,4", "--checkpoint", str(ckpt)]) == 1
        assert "--feature-shape" in capsys.readouterr().err
        assert not ckpt.exists()
        # the same images and config pretrain without the flag
        assert cli.main([*args, "--checkpoint", str(ckpt)]) == 0

    @OVERFLOWS
    def test_non_finite_warm_start_features_exit_1_and_write_nothing(self, tmp_path, capsys):
        # the checkpoint is finite (a non-finite one is refused on load), but
        # its head weights overflow the warm start's features
        network = NetworkConfig(
            encoder=(LayerSpec("dense", 16), LayerSpec("dense", 8, activation="none")),
            classifier_head=(LayerSpec("dense", 4),), num_clusters=2, intrinsic_dim_guess=2)
        _, _, args = write_inputs(tmp_path, network=network)
        pretrained = tmp_path / "pretrained.ckpt"
        assert cli.main(["pretrain", *args, "--checkpoint", str(pretrained)]) == 0
        params = load_checkpoint(pretrained)
        for name in ("classifier.0.W", "classifier.0.b"):
            params[name] = np.full_like(params[name], 1e308)
        save_checkpoint(pretrained, params)
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", *args, "--init-checkpoint", str(pretrained),
                         "--checkpoint", str(ckpt)]) == 1
        assert "kmeans needs finite points" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("flag, bad_value, message", [
        ("--data", "nan", "row 5 holds a NaN or infinite feature"),
        ("--labels", "-1", "row 5 holds negative label -1"),
        ("--data", None, "the features file holds no data"),
        ("--labels", None, "the labels file holds no data")],
        ids=["feature", "label", "empty-features", "empty-labels"])
    def test_bad_csv_row_exits_1_and_writes_nothing(self, tmp_path, capsys, command, flag,
                                                    bad_value, message):
        # bad_value None empties the file: refused before numpy warns of it
        args, ckpt = train_checkpoint(tmp_path)
        path = Path(args[args.index(flag) + 1])
        rows = path.read_text().splitlines()
        if bad_value is None:
            rows = []
        else:
            rows[4] = ",".join([bad_value, *rows[4].split(",")[1:]])
        path.write_text("".join(row + "\n" for row in rows))
        out = tmp_path / "out"
        extra = {"train": ["--checkpoint", str(out), "--train-log", f"{out}.csv",
                           "--metrics-log", f"{out}.metrics"],
                 "eval": ["--checkpoint", str(ckpt)]}[command]
        files = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main([command, *args, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["eval-pred", "train"])
    def test_unparsable_csv_line_exits_1_naming_its_file(self, tmp_path, capsys, command):
        if command == "eval-pred":  # a label that is not an integer
            pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
            pred.write_text("0\n1.5\n")
            true.write_text("0\n1\n")
            argv, path = ["eval", "--pred", str(pred), "--true", str(true)], pred
            loadtxt_args = {"dtype": np.int64}
        else:  # a features row with one column fewer
            _, _, args = write_inputs(tmp_path)
            path = Path(args[args.index("--data") + 1])
            rows = path.read_text().splitlines()
            rows[1] = rows[1].rpartition(",")[0]
            path.write_text("".join(row + "\n" for row in rows))
            out = tmp_path / "out"
            argv = ["train", *args, "--checkpoint", str(out), "--train-log", f"{out}.csv"]
            loadtxt_args = {"delimiter": ",", "dtype": np.float64}
        with pytest.raises(ValueError) as numpy_error:  # numpy's own words
            np.loadtxt(path, **loadtxt_args)
        files = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {numpy_error.value}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("text", ["0 1\n", "0 1\n1 0\n"], ids=["one-line", "two-line"])
    def test_eval_pred_with_several_labels_on_a_line_exits_1_naming_its_file(
            self, tmp_path, capsys, text):
        pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
        pred.write_text(text)
        true.write_text("0\n1\n")
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--true", str(true)]) == 1
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: {pred}: expected one label per line, got 2 values on a line\n"
        assert captured.out == ""

    def test_train_with_two_column_labels_exits_1_naming_its_file(self, tmp_path, capsys):
        _, _, args = write_inputs(tmp_path)
        path = Path(args[args.index("--labels") + 1])
        path.write_text("".join(f"{row} {row}\n" for row in path.read_text().split()))
        out = tmp_path / "out"
        files = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main(["train", *args, "--checkpoint", str(out),
                         "--train-log", f"{out}.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: {path}: expected one label per line, got 2 values on a line\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == files

    def test_train_with_a_short_labels_file_exits_1_naming_both_files(self, tmp_path, capsys):
        _, _, args = write_inputs(tmp_path)
        features = Path(args[args.index("--data") + 1])
        labels = Path(args[args.index("--labels") + 1])
        rows = len(features.read_text().splitlines())
        labels.write_text("".join(line + "\n" for line in labels.read_text().split()[:3]))
        out = tmp_path / "out"
        files = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main(["train", *args, "--checkpoint", str(out),
                         "--train-log", f"{out}.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {features} has {rows} rows but {labels} has 3 labels\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == files


class TestCommandPaths:
    def test_eval_pred_true_prints_the_metrics_line(self, tmp_path, capsys):
        pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
        pred.write_text("0\n0\n1\n1\n2\n2\n")
        true.write_text("1\n1\n0\n0\n2\n0\n")
        assert cli.main(["eval", "--pred", str(pred), "--true", str(true)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "n,k,acc,nmi,ari,size_0,size_1,size_2",
            "6,3,0.8333333333333334,0.7402999407999733,0.4444444444444444,2,2,2"]

    def test_eval_pred_without_true_exits_1(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("0\n1\n")
        assert cli.main(["eval", "--pred", str(pred)]) == 1
        assert "--true" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pred_text, true_text", [
        ("0\n1\n2\n", "0\n1\n2\n0\n"),  # 3 predictions for 4 labels
        ("0\n1\n2\n", "0\n-1\n2\n"),  # a negative label
        pytest.param("", "0\n1\n", id="empty-pred"),
        pytest.param("0\n1\n", "", id="empty-true"),
        pytest.param("0\n1\n", "\n# no labels\n  \n", id="comments-only-true"),
    ])
    def test_eval_pred_bad_labels_exit_1_and_print_nothing(self, tmp_path, capsys,
                                                             pred_text, true_text):
        pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
        pred.write_text(pred_text)
        true.write_text(true_text)
        assert cli.main(["eval", "--pred", str(pred), "--true", str(true)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        for path, text in ((pred, pred_text), (true, true_text)):
            if "0" not in text:  # a file without labels (each case's labels hold a 0)
                assert captured.err == f"error: {path}: the labels file holds no data\n"

    def test_export_affinity_of_a_pretrain_checkpoint_exits_1(self, tmp_path, capsys):
        _, _, args = write_inputs(tmp_path, batch_size=10)
        ckpt = tmp_path / "pretrained.ckpt"
        assert cli.main(["pretrain", *args, "--checkpoint", str(ckpt)]) == 0
        out = tmp_path / "batch0"
        assert cli.main(["export-affinity", *args, "--checkpoint", str(ckpt),
                         "--out", str(out)]) == 1
        assert "selfexpr.batch_0.C" in capsys.readouterr().err
        assert not Path(f"{out}_subspace.csv").exists()

    def test_export_affinity_batch_out_of_range_exits_1(self, tmp_path, capsys):
        args, ckpt = train_checkpoint(tmp_path)
        capsys.readouterr()
        assert cli.main(["export-affinity", *args, "--checkpoint", str(ckpt), "--batch", "99",
                         "--out", str(tmp_path / "batch99")]) == 1
        assert "--batch 99" in capsys.readouterr().err

    def test_gradcheck_passes(self, capsys):
        assert cli.main(["gradcheck", "--trials", "1"]) == 0
        assert "overall max relative error" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_gradcheck_without_trials_exits_1(self, capsys, trials):
        # zero trials would check no op and report an error of 0
        assert cli.main(["gradcheck", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "trials must be >= 1" in captured.err
        assert captured.out == ""

    def test_no_command_exits_1(self, capsys):
        assert cli.main([]) == 1
        assert capsys.readouterr().err.startswith("error: ")
