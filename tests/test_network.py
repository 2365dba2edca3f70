"""Network assembly: shape closure, classifier output law, decoder mirror."""

import hashlib

import numpy as np
import pytest

import collabsc.autodiff as ad
from collabsc.checkpoint import CheckpointError
from collabsc.config import ExperimentConfig
from collabsc.data import SyntheticSpec, generate_synthetic
from collabsc.network import ConfigError, LayerSpec, Network, NetworkConfig
from collabsc.rng import Xorshift64Star
from collabsc.trainer import CollaborativeTrainer


def dense_config(latent=20, k=2, guess=3):
    return NetworkConfig(
        encoder=(LayerSpec("dense", 32), LayerSpec("dense", latent, activation="none")),
        classifier_head=(LayerSpec("dense", 16),),
        num_clusters=k, intrinsic_dim_guess=guess)


def conv_dense_head_config():
    # the conv case of test_log_bytes: conv encoder, dense head
    return NetworkConfig(
        encoder=(LayerSpec("conv", 3, kernel_size=3, stride=2),
                 LayerSpec("conv", 4, kernel_size=3, stride=2, activation="none")),
        classifier_head=(LayerSpec("dense", 6),), num_clusters=2, intrinsic_dim_guess=2)


def conv_config():
    return NetworkConfig(
        encoder=(LayerSpec("conv", 10, kernel_size=5, stride=2),
                 LayerSpec("conv", 20, kernel_size=3, stride=2),
                 LayerSpec("conv", 30, kernel_size=3, stride=2, activation="none")),
        classifier_head=(LayerSpec("conv", 10, kernel_size=2),),
        num_clusters=10, intrinsic_dim_guess=9)


class TestBuildValidation:
    def test_latent_dimension_rule_enforced(self):
        with pytest.raises(ConfigError, match="latent_dim"):
            Network(dense_config(latent=5, k=2, guess=3), (8,))

    def test_mnist_style_latent_dimension(self):
        net = Network(conv_config(), (1, 28, 28))
        assert net.latent_feature_shape == (30, 4, 4)
        assert net.latent_dim == 480
        assert net.latent_dim >= 9 * 10

    def test_conv_encoder_rejects_flat_input(self):
        with pytest.raises(ConfigError, match=r"\(C, H, W\)"):
            Network(conv_config(), (784,))

    @pytest.mark.parametrize("part", ["encoder", "classifier_head"])
    def test_conv_transpose_outside_the_decoder_rejected(self, part):
        layers = {"encoder": (LayerSpec("conv", 4, kernel_size=3),), "classifier_head": ()}
        layers[part] += (LayerSpec("conv-transpose", 2, kernel_size=3, stride=2),)
        with pytest.raises(ConfigError, match=rf"{part}\.\d is conv-transpose"):
            NetworkConfig(num_clusters=2, **layers)


class TestForward:
    def test_end_to_end_shape_closure_dense(self):
        net = Network(dense_config(), (8,), seed=0)
        x = Xorshift64Star(1).normals((5, 8))
        z = net.encode(x)
        assert z.shape == (5, 20)
        recon = net.decode(z)
        assert recon.shape == (5, 8)

    def test_end_to_end_shape_closure_conv(self):
        net = Network(conv_config(), (1, 28, 28), seed=0)
        x = Xorshift64Star(2).normals((3, 784))
        z = net.encode(x)
        assert z.shape == (3, 480)
        recon = net.decode(z)
        assert recon.shape == (3, 784)

    def test_zero_input_through_zero_weights(self):
        net = Network(dense_config(), (8,), seed=0)
        for name, p in net.params.items():
            if name.startswith("encoder."):
                p.values[:] = 0.0
        z = net.encode(np.zeros((3, 8)))
        np.testing.assert_array_equal(z.values, np.zeros((3, 20)))

    def test_identity_dense_encoder_passes_input_through(self):
        config = NetworkConfig(
            encoder=(LayerSpec("dense", 8, activation="none"),),
            classifier_head=(),
            num_clusters=2, intrinsic_dim_guess=3)
        net = Network(config, (8,), seed=0)
        net.params["encoder.0.W"].values = np.eye(8)
        net.params["encoder.0.b"].values[:] = 0.0
        x = Xorshift64Star(3).normals((4, 8))
        np.testing.assert_allclose(net.encode(x).values, x)

    def test_classifier_rows_unit_norm_positive(self):
        net = Network(dense_config(k=4), (8,), seed=5)
        x = Xorshift64Star(4).normals((6, 8))
        frozen = net.frozen()
        nu = frozen.classify(frozen.encode(x)).values
        assert nu.shape == (6, 4)
        assert (nu > 0).all()
        np.testing.assert_allclose(np.sqrt((nu * nu).sum(axis=1)), 1.0, atol=1e-12)

    def test_uniform_logits_give_uniform_predictions(self):
        net = Network(dense_config(k=10, latent=90, guess=9), (8,), seed=0)
        for name in ("classifier.0.W", "classifier.0.b", "classifier.out.W",
                     "classifier.out.b"):
            net.params[name].values[:] = 0.0
        frozen = net.frozen()
        nu = frozen.classify(frozen.encode(np.ones((2, 8)))).values
        np.testing.assert_allclose(nu, 1.0 / np.sqrt(10), atol=1e-12)

    def test_saturated_logit_gives_one_hot(self):
        net = Network(dense_config(k=3), (8,), seed=0)
        net.params["classifier.out.W"].values[:] = 0.0
        net.params["classifier.out.b"].values[:] = [1000.0, 0.0, 0.0]
        frozen = net.frozen()
        nu = frozen.classify(frozen.encode(np.ones((2, 8)))).values
        np.testing.assert_allclose(nu[:, 0], 1.0, atol=1e-12)
        assert nu[:, 1].max() < 1e-12

    def test_batch_of_one_rejected(self):
        net = Network(dense_config(), (8,), seed=0)
        with pytest.raises(ad.ShapeError, match="at least 2"):
            net.encode(np.ones((1, 8)))

    def test_deterministic_init_per_seed(self):
        a = Network(dense_config(), (8,), seed=7)
        b = Network(dense_config(), (8,), seed=7)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].values, b.params[name].values)
        c = Network(dense_config(), (8,), seed=8)
        assert any((a.params[n].values != c.params[n].values).any() for n in a.params)


class TestForwardOnly:
    @pytest.mark.parametrize("which", ["dense", "conv"])
    def test_frozen_view_builds_no_tape_and_matches_the_taped_pass(self, which):
        if which == "dense":
            net, x = Network(dense_config(), (8,), seed=2), Xorshift64Star(5).normals((5, 8))
        else:
            net = Network(conv_config(), (1, 28, 28), seed=2)
            x = Xorshift64Star(5).normals((3, 784))
        frozen = net.frozen()
        out = frozen.classify(frozen.encode(x))
        assert not out.requires_grad and out._backward_fn is None
        taped = net.classify(net.encode(x))
        assert taped.requires_grad and taped._backward_fn is not None
        assert np.array_equal(out.values, taped.values)
        reused = frozen.classify(frozen.encode(x))
        assert not reused.requires_grad and np.array_equal(reused.values, taped.values)

    def test_frozen_view_params_are_constant_views(self):
        net = Network(dense_config(), (8,), seed=2)
        frozen = net.frozen()
        assert frozen.params.keys() == net.params.keys()
        for name, p in net.params.items():
            assert not frozen.params[name].requires_grad
            assert frozen.params[name].values is p.values
        # the view leaves the network's own parameters trainable
        assert all(p.requires_grad for p in net.params.values())


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestInitPins:
    # sha256 of each group's flat buffer and of classify(encode(x)) for a
    # fresh network (seed 11) on 4 rows of Xorshift64Star(12) normals. The
    # train-log pins cover no conv-head network; these hold every
    # initializer draw and forward op of all three to their bytes. Captured
    # on the BLAS build named in test_log_bytes.
    CASES = {
        "dense": (dense_config, (8,), {
            "autoencoder": "2864abfff7f9c1aaf7621c37d12321c88f42445f02ba0ad9ffb968930d5e6fa3",
            "classifier": "04d3f37df916ed499918bfb9686af84a8b846bf0d26ef485d4420e34be7ca6e7",
            "classify": "0620f3f86688bbd794c1a9bd036a2796017d8b7c72b454ad2699bf3b7338c9e6"}),
        "conv": (conv_dense_head_config, (1, 8, 8), {
            "autoencoder": "81dfe4d5b67106c76d958bf869dc1d999483dbe9443d3eed37939d377b5ae273",
            "classifier": "f6f1af2fb967f6d9752ed037aec2daa5c5aa383812078915ba3011c878d156b0",
            "classify": "dfcb1242fd7667aac81b45523cf79bb0fd229eb8cd16cd0c87b07d48158b725d"}),
        "conv-head": (conv_config, (1, 28, 28), {
            "autoencoder": "d8b796099f0bbc356df8703e5c9d70551b58a3a769e418c9ff0ec2d221efc3e8",
            "classifier": "81598549a56979eb03391eca7791e713e9dfa3bbef85c5ee36957c7bbfea83c6",
            "classify": "d87a80bbe94e53696cc3c82a594e857acf7cce85749c4f4a5f3e314734a8ffb1"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fresh_parameters_and_predictions_pinned(self, case):
        config, shape, expected = self.CASES[case]
        net = Network(config(), shape, seed=11)
        x = Xorshift64Star(12).normals((4, int(np.prod(shape))))
        got = {name: sha256(buffer) for name, (buffer, _) in net.groups.items()}
        got["classify"] = sha256(net.classify(net.encode(x)).values)
        assert got == expected
        assert list(net.groups["classifier"][1]) == [
            "classifier.0.W", "classifier.0.b", "classifier.out.W", "classifier.out.b"]


class TestDecoderMirror:
    def test_mirrored_decoder_ends_linear(self):
        net = Network(dense_config(), (8,), seed=0)
        assert net.decoder_plans[-1].spec.activation == "none"

    @pytest.mark.parametrize("case", ["conv-dense", "odd-7x7", "valid"])
    def test_decoder_plans_pinned(self, case):
        encoder, input_shape, expected = {
            "conv-dense": (
                (LayerSpec("conv", 4, kernel_size=3, stride=2),
                 LayerSpec("dense", 24, activation="none")),
                (1, 8, 8),
                [("dense", 64, 0, 1, "same", "relu", (24,), (64,)),
                 ("conv-transpose", 1, 3, 2, "same", "none", (4, 4, 4), (1, 8, 8))]),
            "odd-7x7": (
                (LayerSpec("conv", 4, kernel_size=3, stride=2),
                 LayerSpec("conv", 8, kernel_size=3, stride=2, activation="none")),
                (1, 7, 7),
                [("conv-transpose", 4, 3, 2, "same", "relu", (8, 2, 2), (4, 4, 4)),
                 ("conv-transpose", 1, 3, 2, "same", "none", (4, 4, 4), (1, 7, 7))]),
            "valid": (
                (LayerSpec("conv", 3, kernel_size=3, stride=2, padding="valid"),
                 LayerSpec("conv", 5, kernel_size=2, padding="valid", activation="none")),
                (2, 9, 9),
                [("conv-transpose", 3, 2, 1, "valid", "relu", (5, 3, 3), (3, 4, 4)),
                 ("conv-transpose", 2, 3, 2, "valid", "none", (3, 4, 4), (2, 9, 9))]),
        }[case]
        config = NetworkConfig(encoder=encoder, classifier_head=(),
                               num_clusters=2, intrinsic_dim_guess=3)
        plans = Network(config, input_shape, seed=0).decoder_plans
        assert [(p.spec.kind, p.spec.channels_or_units, p.spec.kernel_size, p.spec.stride,
                 p.spec.padding, p.spec.activation, p.in_shape, p.out_shape)
                for p in plans] == expected
        assert [p.name for p in plans] == ["decoder.0", "decoder.1"]

    def test_mirrored_conv_decoder_restores_odd_sizes(self):
        config = NetworkConfig(
            encoder=(LayerSpec("conv", 4, kernel_size=3, stride=2),
                     LayerSpec("conv", 8, kernel_size=3, stride=2, activation="none")),
            classifier_head=(),
            num_clusters=2, intrinsic_dim_guess=3)
        net = Network(config, (1, 7, 7), seed=0)  # 7 -> 4 -> 2 and back
        x = Xorshift64Star(5).normals((2, 49))
        recon = net.decode(net.encode(x))
        assert recon.shape == (2, 49)

    def test_mixed_conv_dense_encoder_mirrors(self):
        config = NetworkConfig(
            encoder=(LayerSpec("conv", 4, kernel_size=3, stride=2),
                     LayerSpec("dense", 24, activation="none")),
            classifier_head=(),
            num_clusters=2, intrinsic_dim_guess=3)
        net = Network(config, (1, 8, 8), seed=0)
        x = Xorshift64Star(6).normals((2, 64))
        recon = net.decode(net.encode(x))
        assert recon.shape == (2, 64)


class TestParameterGroups:
    def test_groups_partition_parameters(self):
        net = Network(dense_config(), (8,), seed=0)
        ae = set(net.groups["autoencoder"][1])
        cls = set(net.groups["classifier"][1])
        assert ae.isdisjoint(cls)
        assert ae | cls == set(net.params)
        assert "classifier.out.W" in cls

    # the network's groups are saved and loaded by the trainer that owns them
    @staticmethod
    def trainer():
        data = generate_synthetic(SyntheticSpec(k=2, d=2, D=8, n_per=20, seed=0))
        config = ExperimentConfig(network=dense_config(), batch_size=20, epochs=1,
                                  pretrain_epochs=1, inner_se_steps=1, seed=0)
        return CollaborativeTrainer(config, data)

    def test_snapshot_and_load_round_trip(self):
        trainer = self.trainer()
        net = trainer.network
        snap = trainer.checkpoint_params()
        assert snap.keys() == net.params.keys()
        for p in net.params.values():
            p.values += 1.0
        trainer.load_checkpoint_params(snap)
        for name, p in net.params.items():
            np.testing.assert_array_equal(p.values, snap[name])

    def test_load_rejects_missing_parameter(self):
        trainer = self.trainer()
        snap = trainer.checkpoint_params()
        del snap["classifier.out.W"]
        with pytest.raises(CheckpointError, match="classifier.out.W"):
            trainer.load_checkpoint_params(snap)

    @pytest.mark.parametrize("bad", ["missing", "mis-shaped", "unknown"])
    def test_refused_load_writes_nothing(self, bad):
        # the last parameter is bad, so every other one would be written first
        trainer = self.trainer()
        net = trainer.network
        before = trainer.checkpoint_params()
        values = {name: v + 1.0 for name, v in before.items()}
        last = list(net.params)[-1]
        if bad == "missing":
            del values[last]
        elif bad == "mis-shaped":
            del values[last]
            values[last] = np.ones(3)
        else:
            last = "decoder.9.W"  # an extra key after every parameter
            values[last] = np.ones(3)
        with pytest.raises(CheckpointError, match=last):
            trainer.load_checkpoint_params(values)
        for name, p in net.params.items():
            np.testing.assert_array_equal(p.values, before[name], err_msg=name)
