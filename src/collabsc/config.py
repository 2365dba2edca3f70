"""Experiment configuration: validated dataclasses plus flat key-value files.

The file format is one ``key = value`` per line, ``#`` comments, with dotted
keys for nesting (``network.encoder.0.kind = conv``). The dataclasses are the
schema: a key is a field's dotted path, its value is read by the field's
declared type (bool, int, float or str), and ``config_to_text`` writes every
field of every record, so a file is a full dump whose meaning never depends
on the reader's defaults. ``u_schedule`` is the one field spelled as two keys,
``u_schedule.initial`` and ``u_schedule.after_first_epoch``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from typing import get_type_hints

from .network import ConfigError, LayerSpec, NetworkConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a training run in one validated record.

    ``lambda_cl`` weighs the collaborative term in stage 3's joint objective
    only. At 0 the joint step ignores it, but stage 2 still takes
    ``classifier_steps`` classifier steps on the positive term, so the run is
    not a no-collaboration ablation.
    """

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
        # lambda_cl = 0 is allowed: it drops the collaborative term from stage
        # 3's joint objective, but stage 2 still trains the classifier on the
        # positive term, so it is not a no-collaboration ablation
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


_TRUE = ("true", "True", "1", "yes")
_FALSE = ("false", "False", "0", "no")
_U_SIDES = ("initial", "after_first_epoch")


def parse_value(key: str, raw: str, kind: type):
    """``raw`` read as ``kind`` (bool, int, float or str); a ConfigError
    naming ``key`` if it does not read as one."""
    if kind is bool:
        if raw in _TRUE or raw in _FALSE:
            return raw in _TRUE
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None


@cache  # get_type_hints evaluates each annotation string anew on every call
def scalar_fields(cls) -> dict[str, type]:
    """The bool, int, float and str fields of dataclass ``cls``, name to type."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)
            if hints[f.name] in (bool, int, float, str)}


def _take_fields(cls, prefix: str, entries: dict[str, str]) -> dict:
    """Pop ``prefix + name`` from ``entries`` for each scalar field of
    ``cls`` that is there, parsed by the field's type."""
    return {name: parse_value(prefix + name, entries.pop(prefix + name), kind)
            for name, kind in scalar_fields(cls).items() if prefix + name in entries}


def _take_layers(prefix: str, entries: dict[str, str]) -> list[dict]:
    """Pop the layer fields ``prefix.<i>.<name>``, i counting up from 0 in
    canonical form (``1``, not ``01``); any other index stays behind as an
    unknown key."""
    indices = {key[len(prefix) + 1:].split(".")[0] for key in entries
               if key.startswith(prefix + ".")}
    layers = []
    while str(len(layers)) in indices:
        layers.append(_take_fields(LayerSpec, f"{prefix}.{len(layers)}.", entries))
    if any(i.isdecimal() and str(int(i)) == i and int(i) > len(layers) for i in indices):
        raise ConfigError(f"{prefix}: layer indices must be contiguous, "
                          f"missing {prefix}.{len(layers)}")
    return layers


def _build(cls, prefix: str, values: dict):
    """``cls(**values)``, or a ConfigError naming a missing required field."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"{prefix}{f.name} is required")
    return cls(**values)


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

    network = _take_fields(NetworkConfig, "network.", entries)
    stacks = {name: _take_layers(f"network.{name}", entries)
              for name in ("encoder", "classifier_head")}
    top = _take_fields(ExperimentConfig, "", entries)
    u_sides = [parse_value(f"u_schedule.{side}", entries.pop(f"u_schedule.{side}"), float)
               if f"u_schedule.{side}" in entries else None for side in _U_SIDES]
    if entries:
        raise ConfigError(f"unknown config key {next(iter(entries))}")

    for name, layers in stacks.items():
        network[name] = tuple(_build(LayerSpec, f"network.{name}.{i}.", layer)
                              for i, layer in enumerate(layers))
    top["network"] = _build(NetworkConfig, "network.", network)
    top["u_schedule"] = complete_u_schedule(ExperimentConfig.u_schedule, *u_sides)
    return ExperimentConfig(**top)


def parse_config_file(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config_text(f.read())


def _record_lines(record, prefix: str = "") -> list[str]:
    """One ``key = value`` line for every field of dataclass ``record``,
    nested records and layer stacks included."""
    lines = []
    for f in fields(record):
        key, value = prefix + f.name, getattr(record, f.name)
        if is_dataclass(value):
            lines += _record_lines(value, f"{key}.")
        elif key == "u_schedule":
            lines += [f"{key}.{side} = {side_value}" for side, side_value in zip(_U_SIDES, value)]
        elif isinstance(value, tuple):
            for i, layer in enumerate(value):
                lines += _record_lines(layer, f"{key}.{i}.")
        else:
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
    return lines


def config_to_text(config: ExperimentConfig) -> str:
    return "\n".join(_record_lines(config)) + "\n"
