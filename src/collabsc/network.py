"""Network assembly: encoder, decoder, classifier.

Layer specs become plans against a concrete input shape: each plan names a
layer and records its per-sample input and output shapes. The decoder is
always the encoder's mirror, plan for plan: decoder layer i runs encoder
layer L-1-i's shapes backwards (a conv becomes a conv-transpose, a dense
layer stays dense) and only its last layer is linear. One runner drives
every stack. Batches are rows everywhere. There is deliberately no batch
normalization anywhere: normalizing activations across the batch would
corrupt the subspace structure the latent space is supposed to carry.

The self-expressive step between encoder and decoder has no layer here: its
only weights, each batch's coefficient matrix, belong to the trainer.
"""

from __future__ import annotations

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


class Network:
    """Encoder/decoder/classifier parameters and forward passes.

    Owned by a single trainer; all forward methods are pure functions of the
    current parameters and their input. ``groups`` holds the two optimizer
    groups, ``autoencoder`` and ``classifier``, each the ``(buffer, params)``
    pair ``optim.flat_parameters`` builds; ``params`` names every parameter
    of both. The trainer's optimizers step, save and load them, so code that
    sets parameter values writes into their arrays, never rebinds them.
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

        # classifier: head layers on encoder features, then a dense output
        # layer projecting to num_clusters logits
        self.classifier_plans = _plans("classifier", config.classifier_head,
                                       self.latent_feature_shape)
        self.classifier_out_in_dim = int(np.prod(
            (self.classifier_plans or self.encoder_plans)[-1].out_shape))

        initial: dict[str, np.ndarray] = {}
        for plan in self.encoder_plans + self.decoder_plans + self.classifier_plans:
            self._init_layer(initial, plan, rng)
        self._init_dense(initial, "classifier.out", self.classifier_out_in_dim,
                         config.num_clusters, "none", rng)
        classifier = {k: initial.pop(k) for k in list(initial) if k.startswith("classifier.")}
        # each group's flat buffer and its parameters, views into it
        self.groups = {"autoencoder": flat_parameters(initial),
                       "classifier": flat_parameters(classifier)}
        self.params: dict[str, ad.Tensor] = {
            name: p for _, group in self.groups.values() for name, p in group.items()}

    def _init_dense(self, initial, name, fan_in, fan_out, activation, rng):
        std = np.sqrt(2.0 / fan_in) if activation == "relu" else np.sqrt(2.0 / (fan_in + fan_out))
        initial[f"{name}.W"] = rng.normals((fan_in, fan_out)) * std
        initial[f"{name}.b"] = np.zeros(fan_out)

    def _init_layer(self, initial, plan: _LayerPlan, rng):
        spec = plan.spec
        if spec.kind == "dense":
            self._init_dense(initial, plan.name, int(np.prod(plan.in_shape)),
                             spec.channels_or_units, spec.activation, rng)
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
        initial[f"{plan.name}.W"] = rng.normals(w_shape) * std
        initial[f"{plan.name}.b"] = np.zeros(out_c)

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

    def _run(self, plans: list[_LayerPlan], t: ad.Tensor, out_dim: int,
             params=None) -> ad.Tensor:
        """Rows through ``plans``, returned as (n, out_dim) rows."""
        for plan in plans:
            t = self._apply(plan, t, params=params)
        return t if t.ndim == 2 else ad.reshape(t, (t.shape[0], out_dim))

    def _check_latent(self, latent: ad.Tensor) -> ad.Tensor:
        if latent.ndim != 2 or latent.shape[1] != self.latent_dim:
            raise ad.ShapeError(
                f"expected (n, {self.latent_dim}) latent rows, got {latent.shape}")
        return latent

    def encode(self, x, params=None) -> ad.Tensor:
        """Input rows to latent rows (n, latent_dim).

        ``params`` (default: the trainable parameters) may be
        ``frozen_params()`` for a forward-only pass.
        """
        return self._run(self.encoder_plans, self._as_input(x), self.latent_dim, params)

    def decode(self, latent: ad.Tensor) -> ad.Tensor:
        """Latent rows back to input-shaped rows (n, input_dim)."""
        return self._run(self.decoder_plans, self._check_latent(latent), self.input_dim)

    def classifier_features(self, latent: ad.Tensor, params=None) -> ad.Tensor:
        """Latent rows through the classifier head: the output layer's input rows."""
        return self._run(self.classifier_plans, self._check_latent(latent),
                         self.classifier_out_in_dim, params)

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
