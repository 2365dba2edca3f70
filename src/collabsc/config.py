"""Experiment configuration: validated dataclass plus flat key-value files.

The file format is one ``key = value`` per line, ``#`` comments, with dotted
keys for nesting (``network.encoder.0.kind = conv``). Keys are exactly the
config field names, so files round-trip through ``config_to_text``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import ConfigError, LayerSpec, NetworkConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a training run in one validated record."""

    network: NetworkConfig
    lambda1: float = 10.0
    lambda_cl: float = 1.0
    l: float = 0.1
    u_schedule: tuple[float, float] = (0.7, 0.9)  # threshold u: epoch 1, later epochs
    batch_size: int = 150
    epochs: int = 30
    pretrain_epochs: int = 60
    lr_pretrain: float = 1e-3
    lr_ae: float = 1e-5
    lr_other: float = 1e-3
    inner_se_steps: int = 20
    classifier_steps: int = 1
    seed: int = 0
    soft_mask: bool = True
    warm_start_classifier: bool = True

    def __post_init__(self):
        # isfinite rejects the NaN and +-inf that a bare range check lets through
        if not (math.isfinite(self.lambda1) and self.lambda1 > 0):
            raise ConfigError(f"lambda1 must be finite and > 0, got {self.lambda1}")
        # lambda_cl = 0 is allowed: it disables the collaborative term in the
        # joint objective (the no-collaboration ablation)
        if not (math.isfinite(self.lambda_cl) and self.lambda_cl >= 0):
            raise ConfigError(f"lambda_cl must be finite and >= 0, got {self.lambda_cl}")
        thresholds = (("u_schedule.initial", self.u_schedule[0]),
                      ("u_schedule.after_first_epoch", self.u_schedule[1]))
        for name, value in (("l", self.l),) + thresholds:
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie strictly inside (0, 1), got {value}")
        for name, value in thresholds:
            if value <= self.l:
                raise ConfigError(f"need l < u: l={self.l} is not below {name}={value}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ConfigError("epochs and pretrain_epochs must be >= 0")
        for name, value in (("lr_pretrain", self.lr_pretrain), ("lr_ae", self.lr_ae),
                            ("lr_other", self.lr_other)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.inner_se_steps < 1:
            raise ConfigError(f"inner_se_steps must be >= 1, got {self.inner_se_steps}")
        if self.classifier_steps < 1:
            raise ConfigError(f"classifier_steps must be >= 1, got {self.classifier_steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def complete_u_schedule(base: tuple[float, float], initial: float | None = None,
                        after: float | None = None) -> tuple[float, float]:
    """``base`` with the given sides of the u schedule replaced. An unset
    side keeps its base value, except that an unset ``after`` never falls
    below ``initial``."""
    initial = base[0] if initial is None else initial
    return initial, max(initial, base[1]) if after is None else after


_LAYER_FIELDS = ("kind", "channels_or_units", "kernel_size", "stride", "activation", "padding")
_BOOL_KEYS = ("soft_mask", "warm_start_classifier")
_INT_KEYS = ("batch_size", "epochs", "pretrain_epochs", "inner_se_steps",
             "classifier_steps", "seed")
_FLOAT_KEYS = ("lambda1", "lambda_cl", "l", "lr_pretrain", "lr_ae", "lr_other")


def _parse_bool(key, raw):
    if raw in ("true", "True", "1", "yes"):
        return True
    if raw in ("false", "False", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_layers(prefix: str, entries: dict) -> tuple[LayerSpec, ...]:
    by_index: dict[int, dict] = {}
    for key, raw in entries.items():
        parts = key.split(".")
        if len(parts) != 2 or not parts[0].isdigit() or parts[1] not in _LAYER_FIELDS:
            raise ConfigError(f"unknown config key {prefix}.{key}")
        by_index.setdefault(int(parts[0]), {})[parts[1]] = raw
    layers = []
    for i in range(len(by_index)):
        if i not in by_index:
            raise ConfigError(f"{prefix}: layer indices must be contiguous, missing {prefix}.{i}")
        fields = by_index[i]
        if "kind" not in fields:
            raise ConfigError(f"{prefix}.{i}.kind is required")
        kwargs = {"kind": fields["kind"]}
        for name in ("channels_or_units", "kernel_size", "stride"):
            if name in fields:
                try:
                    kwargs[name] = int(fields[name])
                except ValueError:
                    raise ConfigError(f"{prefix}.{i}.{name}: expected an integer, "
                                      f"got {fields[name]!r}") from None
        for name in ("activation", "padding"):
            if name in fields:
                kwargs[name] = fields[name]
        if "channels_or_units" not in kwargs:
            raise ConfigError(f"{prefix}.{i}.channels_or_units is required")
        layers.append(LayerSpec(**kwargs))
    return tuple(layers)


def parse_config_text(text: str) -> ExperimentConfig:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key, raw = key.strip(), raw.strip()
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        entries[key] = raw

    network_entries: dict[str, str] = {}
    kwargs: dict = {}
    u_sched: dict[str, float] = {}
    for key, raw in entries.items():
        if key.startswith("network."):
            network_entries[key[len("network."):]] = raw
        elif key in _BOOL_KEYS:
            kwargs[key] = _parse_bool(key, raw)
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(raw)
            except ValueError:
                raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(raw)
            except ValueError:
                raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
        elif key in ("u_schedule.initial", "u_schedule.after_first_epoch"):
            try:
                u_sched[key.split(".", 1)[1]] = float(raw)
            except ValueError:
                raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
        else:
            raise ConfigError(f"unknown config key {key}")

    encoder_entries = {k[len("encoder."):]: v for k, v in network_entries.items()
                       if k.startswith("encoder.")}
    head_entries = {k[len("classifier_head."):]: v for k, v in network_entries.items()
                    if k.startswith("classifier_head.")}
    scalar_net = {k: v for k, v in network_entries.items()
                  if not (k.startswith("encoder.") or k.startswith("classifier_head."))}
    net_kwargs: dict = {}
    for key, raw in scalar_net.items():
        if key in ("num_clusters", "intrinsic_dim_guess"):
            try:
                net_kwargs[key] = int(raw)
            except ValueError:
                raise ConfigError(f"network.{key}: expected an integer, got {raw!r}") from None
        else:
            raise ConfigError(f"unknown config key network.{key}")
    if "num_clusters" not in net_kwargs:
        raise ConfigError("network.num_clusters is required")
    if not encoder_entries:
        raise ConfigError("network.encoder.0.* is required")
    network = NetworkConfig(
        encoder=_parse_layers("network.encoder", encoder_entries),
        classifier_head=_parse_layers("network.classifier_head", head_entries),
        **net_kwargs,
    )

    kwargs["u_schedule"] = complete_u_schedule(
        ExperimentConfig.u_schedule, u_sched.get("initial"), u_sched.get("after_first_epoch"))
    return ExperimentConfig(network=network, **kwargs)


def parse_config_file(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config_text(f.read())


def _layer_lines(prefix: str, layers) -> list[str]:
    lines = []
    for i, layer in enumerate(layers):
        lines.append(f"{prefix}.{i}.kind = {layer.kind}")
        lines.append(f"{prefix}.{i}.channels_or_units = {layer.channels_or_units}")
        if layer.kind != "dense":
            lines.append(f"{prefix}.{i}.kernel_size = {layer.kernel_size}")
            lines.append(f"{prefix}.{i}.stride = {layer.stride}")
            lines.append(f"{prefix}.{i}.padding = {layer.padding}")
        lines.append(f"{prefix}.{i}.activation = {layer.activation}")
    return lines


def config_to_text(config: ExperimentConfig) -> str:
    lines = _layer_lines("network.encoder", config.network.encoder)
    lines += _layer_lines("network.classifier_head", config.network.classifier_head)
    lines.append(f"network.num_clusters = {config.network.num_clusters}")
    lines.append(f"network.intrinsic_dim_guess = {config.network.intrinsic_dim_guess}")
    for key in _FLOAT_KEYS:
        lines.append(f"{key} = {getattr(config, key)!r}")
    lines.append(f"u_schedule.initial = {config.u_schedule[0]!r}")
    lines.append(f"u_schedule.after_first_epoch = {config.u_schedule[1]!r}")
    for key in _INT_KEYS:
        lines.append(f"{key} = {getattr(config, key)}")
    for key in _BOOL_KEYS:
        lines.append(f"{key} = {'true' if getattr(config, key) else 'false'}")
    return "\n".join(lines) + "\n"
