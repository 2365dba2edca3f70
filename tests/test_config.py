"""Experiment config validation and key-value file round-trips."""

import argparse
import dataclasses

import pytest
from hypothesis import given, strategies as st

from collabsc import cli
from collabsc.config import ExperimentConfig, config_to_text, parse_config_text
from collabsc.network import ConfigError, LayerSpec, NetworkConfig


def small_network():
    return NetworkConfig(
        encoder=(LayerSpec("dense", 32), LayerSpec("dense", 20, activation="none")),
        classifier_head=(LayerSpec("dense", 16),),
        num_clusters=2, intrinsic_dim_guess=3)


SAMPLE = """
# synthetic experiment
network.encoder.0.kind = dense
network.encoder.0.channels_or_units = 32
network.encoder.1.kind = dense
network.encoder.1.channels_or_units = 20
network.encoder.1.activation = none
network.classifier_head.0.kind = dense
network.classifier_head.0.channels_or_units = 16
network.num_clusters = 2
network.intrinsic_dim_guess = 3
lambda1 = 10.0
lambda_cl = 2.5
l = 0.1
u_schedule.initial = 0.8
u_schedule.after_first_epoch = 0.9
batch_size = 50
epochs = 3
pretrain_epochs = 4
seed = 11
soft_mask = false
"""

# config_to_text's output for a conv encoder and a dense head before the
# writer was derived from the dataclasses; such files must keep their meaning
OLD_WRITER_TEXT = """\
network.encoder.0.kind = conv
network.encoder.0.channels_or_units = 4
network.encoder.0.kernel_size = 3
network.encoder.0.stride = 2
network.encoder.0.padding = same
network.encoder.0.activation = relu
network.encoder.1.kind = conv
network.encoder.1.channels_or_units = 6
network.encoder.1.kernel_size = 5
network.encoder.1.stride = 1
network.encoder.1.padding = valid
network.encoder.1.activation = none
network.classifier_head.0.kind = dense
network.classifier_head.0.channels_or_units = 16
network.classifier_head.0.activation = relu
network.num_clusters = 3
network.intrinsic_dim_guess = 2
lambda1 = 10.0
lambda_cl = 0.5
l = 0.1
lr_pretrain = 0.001
lr_ae = 2e-05
lr_other = 0.001
u_schedule.initial = 0.75
u_schedule.after_first_epoch = 0.8
batch_size = 150
epochs = 30
pretrain_epochs = 60
inner_se_steps = 20
classifier_steps = 1
seed = 7
soft_mask = false
warm_start_classifier = true
"""

# each override flag: a value, the field it sets and that field's value on SAMPLE
FLAG_CASES = {
    "--lambda1": ("20.5", "lambda1", 20.5),
    "--lambda-cl": ("0", "lambda_cl", 0.0),
    "--l": ("0.2", "l", 0.2),
    "--batch-size": ("30", "batch_size", 30),
    "--epochs": ("7", "epochs", 7),
    "--pretrain-epochs": ("0", "pretrain_epochs", 0),
    "--lr-pretrain": ("2e-3", "lr_pretrain", 2e-3),
    "--lr-ae": ("3e-6", "lr_ae", 3e-6),
    "--lr-other": ("0.5", "lr_other", 0.5),
    "--inner-se-steps": ("4", "inner_se_steps", 4),
    "--classifier-steps": ("2", "classifier_steps", 2),
    "--seed": ("99", "seed", 99),
    "--u-initial": ("0.75", "u_schedule", (0.75, 0.9)),
    "--u-after": ("0.95", "u_schedule", (0.8, 0.95)),
    "--soft-mask": ("true", "soft_mask", True),
}

# every flag of every subcommand
OVERRIDE_FLAGS = set(FLAG_CASES)
DATA_FLAGS = {"--data", "--labels", "--idx-images", "--idx-labels", "--feature-shape"}
COMMAND_FLAGS = {
    "synth": {"--k", "--d", "--D", "--n-per", "--noise-sigma", "--nonlinearity", "--seed",
              "--out"},
    "pretrain": OVERRIDE_FLAGS | DATA_FLAGS | {"--config", "--checkpoint", "--log"},
    "train": OVERRIDE_FLAGS | DATA_FLAGS | {"--config", "--checkpoint", "--init-checkpoint",
                                            "--train-log", "--metrics-log"},
    "eval": OVERRIDE_FLAGS | DATA_FLAGS | {"--pred", "--true", "--checkpoint", "--config"},
    "export-affinity": OVERRIDE_FLAGS | DATA_FLAGS | {"--config", "--checkpoint", "--batch",
                                                      "--out"},
    "gradcheck": {"--seed", "--trials"},
}


def train_args(*flags):
    return cli._build_parser().parse_args(["train", "--config", "c.txt", "--checkpoint",
                                           "c.ckpt", *flags])


# keys of deleted knobs, each with a value the knob used to take
REMOVED_KEYS = {"teacher_grad": "true", "u": "0.8", "alpha_mode": "fixed", "alpha_fixed": "0.5",
                "reinit_coeffs_each_epoch": "true", "network.decoder.0.kind": "dense"}


@st.composite
def layer_specs(draw):
    kind = draw(st.sampled_from(["conv", "dense"]))
    conv = {} if kind == "dense" else dict(
        kernel_size=draw(st.integers(1, 7)), stride=draw(st.integers(1, 3)),
        padding=draw(st.sampled_from(["same", "valid"])))
    return LayerSpec(kind, draw(st.integers(1, 64)),
                     activation=draw(st.sampled_from(["relu", "none"])), **conv)


@st.composite
def experiment_configs(draw):
    positive = st.floats(1e-8, 1e8)
    network = NetworkConfig(
        encoder=tuple(draw(st.lists(layer_specs(), min_size=1, max_size=3))),
        classifier_head=tuple(draw(st.lists(layer_specs(), max_size=2))),
        num_clusters=draw(st.integers(2, 50)), intrinsic_dim_guess=draw(st.integers(1, 20)))
    upper = st.floats(0.5, 1.0, exclude_max=True)
    return ExperimentConfig(
        network=network, lambda1=draw(positive), lambda_cl=draw(st.floats(0.0, 1e8)),
        l=draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
        u_schedule=(draw(upper), draw(upper)), batch_size=draw(st.integers(2, 10_000)),
        epochs=draw(st.integers(0, 1000)), pretrain_epochs=draw(st.integers(0, 1000)),
        lr_pretrain=draw(positive), lr_ae=draw(positive), lr_other=draw(positive),
        inner_se_steps=draw(st.integers(1, 100)), classifier_steps=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**63)), soft_mask=draw(st.booleans()),
        warm_start_classifier=draw(st.booleans()))


class TestParse:
    def test_parses_sample(self):
        cfg = parse_config_text(SAMPLE)
        assert cfg.lambda_cl == 2.5
        assert cfg.u_schedule == (0.8, 0.9)
        assert cfg.soft_mask is False
        assert cfg.network.num_clusters == 2
        assert len(cfg.network.encoder) == 2
        assert cfg.network.encoder[1].activation == "none"

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config_text(SAMPLE + "\nfrobnicate = 1\n")

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            parse_config_text(SAMPLE + f"\n{key} = {REMOVED_KEYS[key]}\n")

    def test_bad_number_named_in_error(self):
        with pytest.raises(ConfigError, match="lambda1"):
            parse_config_text(SAMPLE.replace("lambda1 = 10.0", "lambda1 = ten"))

    @pytest.mark.parametrize("index", ["00", "01"])
    def test_non_canonical_layer_index_is_unknown(self, index):
        # "00" would otherwise overwrite layer 0's width without a duplicate-key error
        key = f"network.encoder.{index}.channels_or_units"
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            parse_config_text(SAMPLE + f"{key} = 64\n")

    def test_missing_layer_index_rejected(self):
        broken = SAMPLE.replace("network.encoder.1.", "network.encoder.2.")
        with pytest.raises(ConfigError, match="contiguous"):
            parse_config_text(broken)

    def test_round_trip(self):
        cfg = parse_config_text(SAMPLE)
        text = config_to_text(cfg)
        again = parse_config_text(text)
        assert again == cfg

    @given(experiment_configs())
    def test_any_valid_config_round_trips(self, cfg):
        assert parse_config_text(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("initial, after, expected", [
        (0.5, None, (0.5, 0.9)), (0.95, None, (0.95, 0.95)), (None, 0.8, (0.7, 0.8)),
        (0.5, 0.6, (0.5, 0.6))])
    def test_partial_u_schedule_completes_as_the_cli_flags_do(self, initial, after, expected):
        # an unset side keeps the default; an unset after never falls below initial
        base = "".join(line + "\n" for line in SAMPLE.splitlines()
                       if not line.startswith("u_schedule."))
        text, flags = base, []
        for key, flag, value in (("initial", "--u-initial", initial),
                                 ("after_first_epoch", "--u-after", after)):
            if value is not None:
                text += f"u_schedule.{key} = {value}\n"
                flags += [flag, str(value)]
        args = cli._build_parser().parse_args(
            ["train", "--config", "c.txt", "--checkpoint", "c.ckpt", *flags])
        assert parse_config_text(text).u_schedule == expected
        assert cli._apply_overrides(parse_config_text(base), args).u_schedule == expected

    def test_old_writer_text_keeps_its_meaning(self):
        network = NetworkConfig(
            encoder=(LayerSpec("conv", 4, kernel_size=3, stride=2),
                     LayerSpec("conv", 6, kernel_size=5, padding="valid", activation="none")),
            classifier_head=(LayerSpec("dense", 16),), num_clusters=3, intrinsic_dim_guess=2)
        assert parse_config_text(OLD_WRITER_TEXT) == ExperimentConfig(
            network=network, lambda_cl=0.5, u_schedule=(0.75, 0.8), seed=7, soft_mask=False,
            lr_ae=2e-5)

    def test_dense_kernel_size_refused(self):
        text = SAMPLE.replace("network.encoder.0.kind = dense\n",
                              "network.encoder.0.kind = dense\nnetwork.encoder.0.kernel_size = 3\n")
        with pytest.raises(ConfigError, match="dense layer takes no kernel_size"):
            parse_config_text(text)


class TestOverrideFlags:
    @pytest.mark.parametrize("flag", FLAG_CASES)
    def test_each_flag_sets_its_field(self, flag):
        raw, field, expected = FLAG_CASES[flag]
        config = parse_config_text(SAMPLE)
        assert getattr(config, field) != expected
        overridden = cli._apply_overrides(config, train_args(flag, raw))
        assert overridden == dataclasses.replace(config, **{field: expected})

    @pytest.mark.parametrize("flag, raw, message", [
        ("--lr-other", "abc", "lr_other: expected a number, got 'abc'"),
        ("--batch-size", "1.5", "batch_size: expected an integer, got '1.5'"),
        ("--soft-mask", "maybe", "soft_mask: expected a boolean, got 'maybe'"),
        ("--u-after", "high", "u_after: expected a number, got 'high'")])
    def test_flag_values_read_as_config_values(self, flag, raw, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            cli._apply_overrides(parse_config_text(SAMPLE), train_args(flag, raw))

    def test_no_flag_changes_nothing(self):
        config = parse_config_text(SAMPLE)
        assert cli._apply_overrides(config, train_args()) == config

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_each_command_keeps_its_flags(self, command):
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        flags = {flag for action in sub.choices[command]._actions
                 for flag in action.option_strings}
        assert flags == COMMAND_FLAGS[command] | {"-h", "--help"}


class TestValidation:
    def test_rejects_nonpositive_lambda1(self):
        with pytest.raises(ConfigError, match="lambda1"):
            ExperimentConfig(network=small_network(), lambda1=0.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["lambda1", "lambda_cl", "lr_pretrain", "lr_ae", "lr_other"])
    def test_rejects_non_finite_number_in_config_text(self, key, value):
        text = config_to_text(ExperimentConfig(network=small_network()))
        text = text.replace(f"\n{key} = ", f"\n{key} = {value}  # was ")
        with pytest.raises(ConfigError, match=key):
            parse_config_text(text)

    def test_allows_zero_lambda_cl(self):
        cfg = ExperimentConfig(network=small_network(), lambda_cl=0.0)
        assert cfg.lambda_cl == 0.0

    def test_rejects_thresholds_out_of_order(self):
        with pytest.raises(ConfigError, match="l < u"):
            ExperimentConfig(network=small_network(), l=0.5, u_schedule=(0.2, 0.3))

    def test_rejects_threshold_outside_unit_interval(self):
        with pytest.raises(ConfigError, match="inside"):
            ExperimentConfig(network=small_network(), u_schedule=(1.0, 1.0))

    def test_rejects_tiny_batch(self):
        with pytest.raises(ConfigError, match="batch_size"):
            ExperimentConfig(network=small_network(), batch_size=1)


class TestNetworkConfigValidation:
    def test_rejects_k_below_two(self):
        with pytest.raises(ConfigError, match="num_clusters"):
            NetworkConfig(encoder=(LayerSpec("dense", 8),),
                          classifier_head=(), num_clusters=1)

    def test_rejects_empty_encoder(self):
        with pytest.raises(ConfigError, match="encoder"):
            NetworkConfig(encoder=(), classifier_head=(), num_clusters=2)

    def test_layer_spec_validation(self):
        with pytest.raises(ConfigError, match="kind"):
            LayerSpec("pooling", 8)
        with pytest.raises(ConfigError, match="kernel_size"):
            LayerSpec("conv", 8, kernel_size=0)
        with pytest.raises(ConfigError, match="stride"):
            LayerSpec("dense", 8, stride=0)
        with pytest.raises(ConfigError, match="activation"):
            LayerSpec("dense", 8, activation="gelu")
