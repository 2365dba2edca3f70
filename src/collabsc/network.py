"""Network assembly: encoder, self-expressive layer, decoder, classifier.

Four parts, built from layer specs against a concrete input shape. Batches
are rows everywhere. There is deliberately no batch normalization anywhere:
normalizing activations across the batch would corrupt the subspace
structure the latent space is supposed to carry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError
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
        if self.kind != "dense":
            if self.kernel_size < 1:
                raise ConfigError(f"{self.kind} layer needs kernel_size >= 1, got {self.kernel_size}")
            if self.padding not in PADDINGS:
                raise ConfigError(f"unknown padding {self.padding!r}, choose from {PADDINGS}")


@dataclass(frozen=True)
class NetworkConfig:
    """Layer lists plus the cluster count and the latent-dimension rule input.

    ``decoder=None`` mirrors the encoder automatically (reversed layers,
    transposed convolutions targeting the recorded encoder shapes, linear
    final layer). The latent dimension is computed from the encoder and must
    be at least intrinsic_dim_guess * num_clusters.
    """

    encoder: tuple[LayerSpec, ...]
    classifier_head: tuple[LayerSpec, ...]
    num_clusters: int
    decoder: tuple[LayerSpec, ...] | None = None
    intrinsic_dim_guess: int = 9

    def __post_init__(self):
        object.__setattr__(self, "encoder", tuple(self.encoder))
        object.__setattr__(self, "classifier_head", tuple(self.classifier_head))
        if self.decoder is not None:
            object.__setattr__(self, "decoder", tuple(self.decoder))
        if self.num_clusters < 2:
            raise ConfigError(f"num_clusters must be >= 2, got {self.num_clusters}")
        if self.intrinsic_dim_guess < 1:
            raise ConfigError(f"intrinsic_dim_guess must be >= 1, got {self.intrinsic_dim_guess}")
        if not self.encoder:
            raise ConfigError("encoder needs at least one layer")


@dataclass
class _LayerPlan:
    spec: LayerSpec
    name: str
    in_shape: tuple  # per-sample shape, (D,) or (C, H, W)
    out_shape: tuple


def _shape_after(spec: LayerSpec, in_shape: tuple, target_hw=None) -> tuple:
    if spec.kind == "dense":
        return (spec.channels_or_units,)
    if len(in_shape) != 3:
        raise ConfigError(
            f"{spec.kind} layer needs a (C, H, W) input, got per-sample shape {in_shape}")
    _, h, w = in_shape
    if spec.kind == "conv":
        oh = ad.conv_output_size(h, spec.kernel_size, spec.stride, spec.padding)
        ow = ad.conv_output_size(w, spec.kernel_size, spec.stride, spec.padding)
    else:
        oh, ow = target_hw if target_hw is not None else (h * spec.stride, w * spec.stride)
        back = (ad.conv_output_size(oh, spec.kernel_size, spec.stride, spec.padding),
                ad.conv_output_size(ow, spec.kernel_size, spec.stride, spec.padding))
        if back != (h, w):
            raise ConfigError(
                f"conv-transpose target {(oh, ow)} is inconsistent with input {(h, w)} "
                f"under kernel {spec.kernel_size}, stride {spec.stride}, {spec.padding} padding")
    return (spec.channels_or_units, oh, ow)


def mirror_decoder(encoder: tuple[LayerSpec, ...], shapes: list[tuple]
                   ) -> tuple[list[LayerSpec], list[tuple], list[tuple]]:
    """Reverse an encoder into a decoder hitting the recorded shapes.

    Returns (specs, output targets, input shapes); the shapes are needed
    because strided shape arithmetic is not invertible and because a dense
    layer followed by a transposed convolution has to unflatten to the
    recorded feature-map shape.
    """
    specs: list[LayerSpec] = []
    targets: list[tuple] = []
    in_shapes: list[tuple] = []
    for i in range(len(encoder) - 1, -1, -1):
        src = encoder[i]
        target = shapes[i]
        activation = "none" if i == 0 else "relu"
        if src.kind == "dense":
            specs.append(LayerSpec("dense", int(np.prod(target)), activation=activation))
        elif src.kind == "conv":
            specs.append(LayerSpec("conv-transpose", target[0], kernel_size=src.kernel_size,
                                   stride=src.stride, activation=activation, padding=src.padding))
        else:
            specs.append(LayerSpec("conv", target[0], kernel_size=src.kernel_size,
                                   stride=src.stride, activation=activation, padding=src.padding))
        targets.append(target)
        in_shapes.append(shapes[i + 1])
    return specs, targets, in_shapes


class SelfExpressiveLayer:
    """Linear, bias-free, activation-free mixing of batch rows.

    The weights are a square coefficient matrix with a zero diagonal,
    re-projected after every optimizer step. Output row i is the
    coeffs[j, i]-weighted combination of latent rows j.
    """

    def __init__(self, batch_n: int):
        if batch_n < 2:
            raise ConfigError(f"self-expressive layer needs a batch of >= 2, got {batch_n}")
        self.coeffs = ad.parameter(np.zeros((batch_n, batch_n)))

    @property
    def batch_n(self) -> int:
        return self.coeffs.shape[0]

    def project_diagonal(self) -> None:
        np.fill_diagonal(self.coeffs.values, 0.0)

    def apply(self, latent: ad.Tensor) -> ad.Tensor:
        if latent.shape[0] != self.batch_n:
            raise ad.ShapeError(
                f"latent batch {latent.shape[0]} != coefficient side {self.batch_n}")
        if np.count_nonzero(np.diag(self.coeffs.values)):
            raise ValueError("coefficient diagonal is not zero; run the projection first")
        return ad.matmul(ad.transpose(self.coeffs), latent)


class Network:
    """Encoder/decoder/classifier parameter store and forward passes.

    Owned by a single trainer; all forward methods are pure functions of the
    current parameters and their input.
    """

    def __init__(self, config: NetworkConfig, input_shape: tuple, seed: int = 0):
        if len(input_shape) not in (1, 3):
            raise ConfigError(f"input shape must be (D,) or (C, H, W), got {input_shape}")
        self.config = config
        self.input_shape = tuple(int(s) for s in input_shape)
        self.input_dim = int(np.prod(self.input_shape))
        self.params: dict[str, ad.Tensor] = {}
        rng = Xorshift64Star(mix_seed(seed, 1))

        # encoder plan
        self.encoder_plans: list[_LayerPlan] = []
        shapes = [self.input_shape]
        cur = self.input_shape
        for i, spec in enumerate(config.encoder):
            if spec.kind == "dense" and len(cur) == 3:
                cur = (int(np.prod(cur)),)
            out = _shape_after(spec, cur)
            self.encoder_plans.append(_LayerPlan(spec, f"encoder.{i}", cur, out))
            cur = out
            shapes.append(cur)
        self.latent_feature_shape = cur
        self.latent_dim = int(np.prod(cur))
        required = config.intrinsic_dim_guess * config.num_clusters
        if self.latent_dim < required:
            raise ConfigError(
                f"latent dimension {self.latent_dim} violates the rule latent_dim >= "
                f"intrinsic_dim_guess * num_clusters = {config.intrinsic_dim_guess} * "
                f"{config.num_clusters} = {required}")

        # decoder plan (mirrored when unspecified)
        self.decoder_plans: list[_LayerPlan] = []
        if config.decoder is None:
            specs, targets, known_ins = mirror_decoder(config.encoder, shapes)
        else:
            specs = list(config.decoder)
            targets = [None] * len(specs)
            known_ins = [None] * len(specs)
        cur = self.latent_feature_shape
        for i, (spec, target, known_in) in enumerate(zip(specs, targets, known_ins)):
            if spec.kind == "dense" and len(cur) == 3:
                cur = (int(np.prod(cur)),)
            if spec.kind != "dense" and len(cur) == 1:
                if known_in is not None and len(known_in) == 3 \
                        and int(np.prod(known_in)) == cur[0]:
                    cur = known_in
                else:
                    raise ConfigError(
                        f"decoder layer {i} ({spec.kind}) cannot consume the flat shape {cur}; "
                        f"use the mirrored decoder or precede it with a dense layer sized to a "
                        f"known feature map")
            hw = target[1:] if (target is not None and len(target) == 3) else None
            out = _shape_after(spec, cur, target_hw=hw)
            self.decoder_plans.append(_LayerPlan(spec, f"decoder.{i}", cur, out))
            cur = out
        if int(np.prod(cur)) != self.input_dim:
            raise ConfigError(
                f"decoder output shape {cur} does not reproduce the input shape "
                f"{self.input_shape}")
        self.decoder_output_shape = cur

        # classifier plan: head layers on encoder features, then a dense
        # output layer projecting to num_clusters logits
        self.classifier_plans: list[_LayerPlan] = []
        cur = self.latent_feature_shape
        for i, spec in enumerate(config.classifier_head):
            if spec.kind == "dense" and len(cur) == 3:
                cur = (int(np.prod(cur)),)
            out = _shape_after(spec, cur)
            self.classifier_plans.append(_LayerPlan(spec, f"classifier.{i}", cur, out))
            cur = out
        self.classifier_out_in_dim = int(np.prod(cur))

        for plan in self.encoder_plans + self.decoder_plans + self.classifier_plans:
            self._init_layer(plan, rng)
        self._init_dense("classifier.out", self.classifier_out_in_dim, config.num_clusters,
                         "none", rng)

    def _init_dense(self, name, fan_in, fan_out, activation, rng):
        std = np.sqrt(2.0 / fan_in) if activation == "relu" else np.sqrt(2.0 / (fan_in + fan_out))
        self.params[f"{name}.W"] = ad.parameter(rng.normals((fan_in, fan_out)) * std)
        self.params[f"{name}.b"] = ad.parameter(np.zeros(fan_out))

    def _init_layer(self, plan: _LayerPlan, rng):
        spec = plan.spec
        if spec.kind == "dense":
            self._init_dense(plan.name, int(np.prod(plan.in_shape)), spec.channels_or_units,
                             spec.activation, rng)
            return
        f = spec.kernel_size
        in_c = plan.in_shape[0]
        out_c = spec.channels_or_units
        fan_in = in_c * f * f
        std = np.sqrt(2.0 / fan_in) if spec.activation == "relu" else np.sqrt(
            2.0 / (fan_in + out_c * f * f))
        if spec.kind == "conv":
            w_shape = (out_c, in_c, f, f)
        else:
            w_shape = (in_c, out_c, f, f)
        self.params[f"{plan.name}.W"] = ad.parameter(rng.normals(w_shape) * std)
        self.params[f"{plan.name}.b"] = ad.parameter(np.zeros(out_c))

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------

    def _apply(self, plan: _LayerPlan, x: ad.Tensor, params=None) -> ad.Tensor:
        spec = plan.spec
        n = x.shape[0]
        params = self.params if params is None else params
        w, b = params[f"{plan.name}.W"], params[f"{plan.name}.b"]
        if spec.kind == "dense":
            if x.ndim == 4:
                x = ad.reshape(x, (n, int(np.prod(x.shape[1:]))))
            out = ad.add(ad.matmul(x, w), b)
        else:
            if x.ndim == 2:
                x = ad.reshape(x, (n,) + plan.in_shape)
            if spec.kind == "conv":
                out = ad.conv2d(x, w, b, stride=spec.stride, padding=spec.padding)
            else:
                out = ad.conv2d_transpose(x, w, b, stride=spec.stride, padding=spec.padding,
                                          output_hw=plan.out_shape[1:])
        if spec.activation == "relu":
            out = ad.relu(out)
        return out

    def _as_input(self, x) -> ad.Tensor:
        t = x if isinstance(x, ad.Tensor) else ad.constant(np.asarray(x, dtype=np.float64))
        if t.ndim != 2 or t.shape[1] != self.input_dim:
            raise ad.ShapeError(
                f"input must be (n, {self.input_dim}) row-flattened, got {t.shape}")
        if t.shape[0] < 2:
            raise ad.ShapeError(f"batches need at least 2 rows, got {t.shape[0]}")
        return t

    def frozen_params(self) -> dict[str, ad.Tensor]:
        """Constant views of the parameters (no copy).

        Forward passes given these build no backward tape. The views see
        later in-place optimizer steps, so take them right before use.
        """
        return {name: ad.constant(p.values) for name, p in self.params.items()}

    def encode(self, x, params=None) -> ad.Tensor:
        """Input rows to latent rows (n, latent_dim).

        ``params`` (default: the trainable parameters) may be
        ``frozen_params()`` for a forward-only pass.
        """
        t = self._as_input(x)
        for plan in self.encoder_plans:
            t = self._apply(plan, t, params=params)
        if t.ndim != 2:
            t = ad.reshape(t, (t.shape[0], self.latent_dim))
        return t

    def decode(self, latent: ad.Tensor) -> ad.Tensor:
        """Latent rows back to input-shaped rows (n, input_dim)."""
        if latent.ndim != 2 or latent.shape[1] != self.latent_dim:
            raise ad.ShapeError(
                f"decoder expects (n, {self.latent_dim}) latent rows, got {latent.shape}")
        t = latent
        for plan in self.decoder_plans:
            t = self._apply(plan, t)
        if t.ndim != 2:
            t = ad.reshape(t, (t.shape[0], self.input_dim))
        return t

    def classifier_features(self, latent: ad.Tensor, params=None) -> ad.Tensor:
        """Latent rows through the classifier head: the output layer's input rows."""
        if latent.ndim != 2 or latent.shape[1] != self.latent_dim:
            raise ad.ShapeError(
                f"classifier expects (n, {self.latent_dim}) latent rows, got {latent.shape}")
        t = latent
        for plan in self.classifier_plans:
            t = self._apply(plan, t, params=params)
        if t.ndim != 2:
            t = ad.reshape(t, (t.shape[0], self.classifier_out_in_dim))
        return t

    def classify(self, latent: ad.Tensor, params=None) -> ad.Tensor:
        """Latent rows to prediction rows: softmax then row l2 normalization.

        Every entry is positive and every row has unit l2 norm. ``params``
        as for ``encode``.
        """
        params = self.params if params is None else params
        t = self.classifier_features(latent, params=params)
        logits = ad.add(ad.matmul(t, params["classifier.out.W"]), params["classifier.out.b"])
        return ad.l2_normalize_rows(ad.softmax_rows(logits))

    def predictions(self, x, params=None) -> ad.Tensor:
        """Inference path: encode then classify; decoder and coefficients untouched.

        Forward only: it runs on ``params`` (default: fresh
        ``frozen_params()``, which callers predicting many chunks build once),
        so the result is a constant with no backward tape.
        """
        params = self.frozen_params() if params is None else params
        return self.classify(self.encode(x, params=params), params=params)

    # ------------------------------------------------------------------
    # parameter groups
    # ------------------------------------------------------------------

    def autoencoder_params(self) -> dict[str, ad.Tensor]:
        return {k: v for k, v in self.params.items()
                if k.startswith("encoder.") or k.startswith("decoder.")}

    def classifier_params(self) -> dict[str, ad.Tensor]:
        return {k: v for k, v in self.params.items() if k.startswith("classifier.")}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            if name not in values:
                raise CheckpointError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != p.shape:
                raise ad.ShapeError(
                    f"checkpoint parameter {name!r} has shape {arr.shape}, expected {p.shape}")
            p.values = arr.copy()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy() for name, p in self.params.items()}
