"""Adam optimizer with bias correction, keyed by parameter name."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment estimates and step counter for one parameter group."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


class Adam:
    """Standard Adam over a named set of parameters.

    A parameter whose grad is None is treated as having a zero gradient:
    its moments decay but a fresh (all-zero) state leaves it untouched.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.state = AdamState(lr=lr)
        for name, p in self.params.items():
            self.state.m[name] = np.zeros(p.shape)
            self.state.v[name] = np.zeros(p.shape)

    def step(self) -> None:
        s = self.state
        s.step += 1
        bc1 = 1.0 - BETA1 ** s.step
        bc2 = 1.0 - BETA2 ** s.step
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = 0.0
            elif np.shape(g) != p.shape:
                raise ShapeError(
                    f"adam: gradient shape {np.shape(g)} != parameter {name!r} shape {p.shape}")
            s.m[name] = BETA1 * s.m[name] + (1.0 - BETA1) * g
            s.v[name] = BETA2 * s.v[name] + (1.0 - BETA2) * np.square(g)
            m_hat = s.m[name] / bc1
            v_hat = s.v[name] / bc2
            p.values -= s.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def state_copy(self) -> AdamState:
        """A copy of the state for restoring into ``self.state`` later.

        ``step`` binds fresh moment arrays instead of writing into them, so
        copying the two dicts is enough; no array is copied.
        """
        s = self.state
        return replace(s, m=dict(s.m), v=dict(s.v))
