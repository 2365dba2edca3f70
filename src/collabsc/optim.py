"""Adam optimizer with bias correction, one flat chain per parameter group.

A group of several parameters lives as views, in order, into one contiguous
float64 buffer (``flat_parameters`` builds it), so one step is one chain of
array operations over the whole group rather than one per parameter. A lone
parameter, such as a batch's coefficient matrix, is its own buffer. Code that
sets a parameter's values writes into its array; rebinding ``values`` would
detach the parameter from the buffer its optimizer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def group_views(buffer: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of contiguous ``buffer``, one per shape, in order."""
    flat, start, views = buffer.reshape(-1), 0, []
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def flat_parameters(values: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, Tensor]]:
    """One new contiguous float64 buffer, and parameters holding copies of
    ``values`` as views in order into it."""
    buffer = np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in values.values()])
    views = group_views(buffer, [np.shape(v) for v in values.values()])
    return buffer, {name: Tensor(view, requires_grad=True) for name, view in zip(values, views)}


def group_buffer(params: dict[str, Tensor]) -> np.ndarray:
    """The array a step over ``params`` writes: a lone parameter's values, or
    the flat buffer that several parameters tile in order (``ValueError`` if
    they do not)."""
    arrays = [p.values for p in params.values()]
    if len(arrays) == 1:
        return arrays[0]
    buffer, start = arrays[0].base, 0
    for a in arrays:
        if not (isinstance(buffer, np.ndarray) and a.base is buffer and a.flags.c_contiguous
                and a.ctypes.data == buffer.ctypes.data + start * buffer.itemsize):
            raise ValueError("adam: a group of several parameters must tile one flat "
                             "buffer in order; build it with flat_parameters")
        start += a.size
    if buffer.ndim != 1 or start != buffer.size:
        raise ValueError("adam: the group's parameters do not cover their flat buffer")
    return buffer


@dataclass
class AdamState:
    """Step counter and moment estimates for one parameter group.

    ``m`` and ``v`` are one array each, shaped like the group's buffer (see
    ``group_buffer``): the parameters' moments in the group's order.
    """

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


class Adam:
    """Standard Adam over a named group of parameters.

    A parameter whose grad is None is treated as having a zero gradient:
    its moments decay but a fresh (all-zero) state leaves it untouched.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.buffer = group_buffer(self.params)
        self.state = AdamState(lr=lr, m=np.zeros(self.buffer.shape),
                               v=np.zeros(self.buffer.shape))
        self._grads = None
        if len(self.params) > 1:  # several parameters gather their gradients here
            self._grads = np.empty(self.buffer.shape)
            self._grad_views = group_views(self._grads, [p.shape for p in self.params.values()])

    def _gradient(self):
        """The group's gradient, shaped like ``buffer``, or 0.0 for a lone
        parameter without one; every shape is checked before anything is read."""
        for name, p in self.params.items():
            if p.grad is not None and np.shape(p.grad) != p.shape:
                raise ShapeError(
                    f"adam: gradient shape {np.shape(p.grad)} != parameter {name!r} shape "
                    f"{p.shape}")
        if self._grads is None:
            (p,) = self.params.values()
            return 0.0 if p.grad is None else p.grad
        for view, p in zip(self._grad_views, self.params.values()):
            view[...] = 0.0 if p.grad is None else p.grad
        return self._grads

    def step(self) -> None:
        g = self._gradient()
        s = self.state
        s.step += 1
        bc1 = 1.0 - BETA1 ** s.step
        bc2 = 1.0 - BETA2 ** s.step
        s.m = BETA1 * s.m + (1.0 - BETA1) * g
        s.v = BETA2 * s.v + (1.0 - BETA2) * np.square(g)
        self.buffer -= s.lr * (s.m / bc1) / (np.sqrt(s.v / bc2) + EPS)

    def state_copy(self) -> AdamState:
        """A copy of the state for restoring into ``self.state`` later.

        ``step`` binds fresh moment arrays instead of writing into them, so
        a shallow copy is enough; no array is copied.
        """
        return replace(self.state)
