"""Network assembly: encoder, decoder, classifier.

Every layer is a plan: a layer spec placed against a concrete input shape,
with a name and its per-sample input and output shapes. The decoder is
always the encoder's mirror, plan for plan: decoder layer i runs encoder
layer L-1-i's shapes backwards (a conv becomes a conv-transpose, a dense
layer stays dense) and only its last layer is linear. The classifier is the
head's plans plus a linear dense output plan, ``classifier.out``, with one
unit per cluster. One initializer sets every plan's weights (He before a
relu, Glorot for a linear layer), and one runner drives every stack. Each
layer passes its relu to the op that adds its bias (a dense layer's bias
add, a conv or a conv-transpose), which applies it in the same call and
keeps only the mask, not the pre-activation. A forward-only pass runs on
``Network.frozen()``, the same network with constant views of its
parameters. Batches are rows everywhere. There is deliberately no batch
normalization anywhere: normalizing activations across the batch would
corrupt the subspace structure the latent space is supposed to carry.

The self-expressive step between encoder and decoder has no layer here: its
only weights, each batch's coefficient matrix, belong to the trainer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .optim import flat_parameters
from .rng import Xorshift64Star, mix_seed

LAYER_KINDS = ("conv", "conv-transpose", "dense")
ACTIVATIONS = ("relu", "none")
PADDINGS = ("same", "valid")


class ConfigError(ValueError):
    """A network or experiment configuration violates its contract."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    channels_or_units: int
    kernel_size: int = 0
    stride: int = 1
    activation: str = "relu"
    padding: str = "same"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}, choose from {LAYER_KINDS}")
        if self.channels_or_units < 1:
            raise ConfigError(f"channels_or_units must be >= 1, got {self.channels_or_units}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, choose from {ACTIVATIONS}")
        if self.kind == "dense":
            if (self.kernel_size, self.stride, self.padding) != (0, 1, "same"):
                raise ConfigError(
                    f"dense layer takes no kernel_size, stride or padding, got kernel_size="
                    f"{self.kernel_size}, stride={self.stride}, padding={self.padding!r}")
        elif self.kernel_size < 1:
            raise ConfigError(f"{self.kind} layer needs kernel_size >= 1, got {self.kernel_size}")
        elif self.padding not in PADDINGS:
            raise ConfigError(f"unknown padding {self.padding!r}, choose from {PADDINGS}")


@dataclass(frozen=True)
class NetworkConfig:
    """Encoder and classifier-head layers, the cluster count, and the
    latent-dimension rule input.

    The decoder is not configured: it is always the encoder's mirror (see
    ``Network``), and ``conv-transpose`` layers exist only there, so the
    encoder and head refuse them. The latent dimension is computed from the
    encoder and must be at least intrinsic_dim_guess * num_clusters.
    """

    encoder: tuple[LayerSpec, ...]
    classifier_head: tuple[LayerSpec, ...]
    num_clusters: int
    intrinsic_dim_guess: int = 9

    def __post_init__(self):
        object.__setattr__(self, "encoder", tuple(self.encoder))
        object.__setattr__(self, "classifier_head", tuple(self.classifier_head))
        if self.num_clusters < 2:
            raise ConfigError(f"num_clusters must be >= 2, got {self.num_clusters}")
        if self.intrinsic_dim_guess < 1:
            raise ConfigError(f"intrinsic_dim_guess must be >= 1, got {self.intrinsic_dim_guess}")
        if not self.encoder:
            raise ConfigError("encoder needs at least one layer")
        for part, specs in (("encoder", self.encoder), ("classifier_head", self.classifier_head)):
            for i, spec in enumerate(specs):
                if spec.kind == "conv-transpose":
                    raise ConfigError(f"{part}.{i} is conv-transpose; only the mirrored "
                                      f"decoder has that kind")


@dataclass
class _LayerPlan:
    spec: LayerSpec
    name: str
    in_shape: tuple  # per-sample shape, (D,) or (C, H, W)
    out_shape: tuple


def _plans(prefix: str, specs, in_shape: tuple) -> list[_LayerPlan]:
    """Chain ``specs`` from ``in_shape``; a dense layer flattens its input."""
    plans = []
    cur = in_shape
    for i, spec in enumerate(specs):
        if spec.kind == "dense":
            cur, out = (int(np.prod(cur)),), (spec.channels_or_units,)
        elif len(cur) != 3:
            raise ConfigError(
                f"{spec.kind} layer needs a (C, H, W) input, got per-sample shape {cur}")
        else:
            out = (spec.channels_or_units,) + tuple(
                ad.conv_output_size(s, spec.kernel_size, spec.stride, spec.padding)
                for s in cur[1:])
        plans.append(_LayerPlan(spec, f"{prefix}.{i}", cur, out))
        cur = out
    return plans


def _init(plan: _LayerPlan, rng) -> dict[str, np.ndarray]:
    """A plan's weights and zero biases: He init before a relu, Glorot for a
    linear layer. Dense kernels are (in, out), conv kernels (out, in, f, f)
    and conv-transpose kernels (in, out, f, f)."""
    spec, out_c = plan.spec, plan.spec.channels_or_units
    if spec.kind == "dense":
        fan_in, fan_out = int(np.prod(plan.in_shape)), out_c
        shape = (fan_in, fan_out)
    else:
        in_c, f = plan.in_shape[0], spec.kernel_size
        fan_in, fan_out = in_c * f * f, out_c * f * f
        shape = (out_c, in_c, f, f) if spec.kind == "conv" else (in_c, out_c, f, f)
    std = np.sqrt(2.0 / fan_in) if spec.activation == "relu" else np.sqrt(
        2.0 / (fan_in + fan_out))
    return {f"{plan.name}.W": rng.normals(shape) * std, f"{plan.name}.b": np.zeros(out_c)}


class Network:
    """Encoder/decoder/classifier plans, their parameters and forward passes.

    Owned by a single trainer; all forward methods are pure functions of
    ``params`` and their input. ``groups`` holds the two optimizer groups,
    each the ``(buffer, params)`` pair ``optim.flat_parameters`` builds from
    its plans: ``autoencoder`` from the encoder and decoder plans,
    ``classifier`` from the classifier plans. ``params`` names every
    parameter of both. The trainer's optimizers step, save and load them, so
    code that sets parameter values writes into their arrays, never rebinds
    them. ``frozen()`` gives the forward-only view: the same plans on
    constant views of the same arrays, so its passes build no backward tape.
    """

    def __init__(self, config: NetworkConfig, input_shape: tuple, seed: int = 0):
        if len(input_shape) not in (1, 3):
            raise ConfigError(f"input shape must be (D,) or (C, H, W), got {input_shape}")
        self.config = config
        self.input_shape = tuple(int(s) for s in input_shape)
        self.input_dim = int(np.prod(self.input_shape))
        rng = Xorshift64Star(mix_seed(seed, 1))

        self.encoder_plans = _plans("encoder", config.encoder, self.input_shape)
        self.latent_feature_shape = self.encoder_plans[-1].out_shape
        self.latent_dim = int(np.prod(self.latent_feature_shape))
        required = config.intrinsic_dim_guess * config.num_clusters
        if self.latent_dim < required:
            raise ConfigError(
                f"latent dimension {self.latent_dim} violates the rule latent_dim >= "
                f"intrinsic_dim_guess * num_clusters = {config.intrinsic_dim_guess} * "
                f"{config.num_clusters} = {required}")

        # decoder layer i undoes encoder layer L-1-i, so it runs that layer's
        # shapes backwards; only the last decoder layer is linear
        last = len(self.encoder_plans) - 1
        self.decoder_plans = [
            _LayerPlan(replace(e.spec, kind="conv-transpose" if e.spec.kind == "conv" else "dense",
                               channels_or_units=e.in_shape[0],
                               activation="none" if i == last else "relu"),
                       f"decoder.{i}", e.out_shape, e.in_shape)
            for i, e in enumerate(reversed(self.encoder_plans))]

        # classifier: head layers on encoder features, then a linear dense
        # output layer projecting to num_clusters logits
        out = LayerSpec("dense", config.num_clusters, activation="none")
        self.classifier_plans = _plans("classifier", config.classifier_head + (out,),
                                       self.latent_feature_shape)
        self.classifier_plans[-1].name = "classifier.out"

        # each group's flat buffer and its parameters, views into it; the
        # draws run encoder, decoder, head, output
        self.groups = {
            name: flat_parameters({k: v for plan in plans for k, v in _init(plan, rng).items()})
            for name, plans in (("autoencoder", self.encoder_plans + self.decoder_plans),
                                ("classifier", self.classifier_plans))}
        self.params: dict[str, ad.Tensor] = {
            name: p for _, group in self.groups.values() for name, p in group.items()}

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------

    def _apply(self, plan: _LayerPlan, x: ad.Tensor) -> ad.Tensor:
        spec = plan.spec
        w, b = self.params[f"{plan.name}.W"], self.params[f"{plan.name}.b"]
        relu = spec.activation == "relu"
        if x.shape[1:] != plan.in_shape:  # rows into images, or images into rows
            x = ad.reshape(x, x.shape[:1] + plan.in_shape)
        if spec.kind == "dense":
            return ad.add(ad.matmul(x, w), b, relu=relu)
        if spec.kind == "conv":
            return ad.conv2d(x, w, b, stride=spec.stride, padding=spec.padding, relu=relu)
        return ad.conv2d_transpose(x, w, b, stride=spec.stride, padding=spec.padding,
                                   output_hw=plan.out_shape[1:], relu=relu)

    def _as_input(self, x) -> ad.Tensor:
        t = x if isinstance(x, ad.Tensor) else ad.constant(np.asarray(x, dtype=np.float64))
        if t.ndim != 2 or t.shape[1] != self.input_dim:
            raise ad.ShapeError(
                f"input must be (n, {self.input_dim}) row-flattened, got {t.shape}")
        if t.shape[0] < 2:
            raise ad.ShapeError(f"batches need at least 2 rows, got {t.shape[0]}")
        return t

    def frozen(self) -> Network:
        """This network with constant views of its parameters (no copy).

        Forward passes on the view build no backward tape. The views see
        later in-place optimizer steps, so take the view right before use.
        """
        view = copy.copy(self)
        view.params = {name: ad.constant(p.values) for name, p in self.params.items()}
        return view

    def _run(self, plans: list[_LayerPlan], t: ad.Tensor) -> ad.Tensor:
        """Rows through ``plans``, returned as (n, features) rows."""
        for plan in plans:
            t = self._apply(plan, t)
        return t if t.ndim == 2 else ad.reshape(t, (t.shape[0], int(np.prod(t.shape[1:]))))

    def _check_latent(self, latent: ad.Tensor) -> ad.Tensor:
        if latent.ndim != 2 or latent.shape[1] != self.latent_dim:
            raise ad.ShapeError(
                f"expected (n, {self.latent_dim}) latent rows, got {latent.shape}")
        return latent

    def encode(self, x) -> ad.Tensor:
        """Input rows to latent rows (n, latent_dim)."""
        return self._run(self.encoder_plans, self._as_input(x))

    def decode(self, latent: ad.Tensor) -> ad.Tensor:
        """Latent rows back to input-shaped rows (n, input_dim)."""
        return self._run(self.decoder_plans, self._check_latent(latent))

    def classifier_features(self, latent: ad.Tensor) -> ad.Tensor:
        """Latent rows through the classifier head: the output layer's input rows."""
        return self._run(self.classifier_plans[:-1], self._check_latent(latent))

    def classify(self, latent: ad.Tensor) -> ad.Tensor:
        """Latent rows to prediction rows: every classifier plan, then softmax
        and row l2 normalization.

        Every entry is positive and every row has unit l2 norm.
        """
        logits = self._run(self.classifier_plans, self._check_latent(latent))
        return ad.l2_normalize_rows(ad.softmax_rows(logits))
