"""Adam optimizer with bias correction, one flat chain per parameter group.

A group is the pair ``flat_parameters`` builds: one contiguous float64
buffer and its parameters, views in order into it. One step is one chain of
array operations over the whole buffer rather than one per parameter, and a
group's state is that buffer plus one ``m`` and one ``v``. Code that sets a
parameter's values writes into its array; rebinding ``values`` would detach
the parameter from the buffer its optimizer steps.

A step updates ``m`` and ``v`` in place and builds the update in two
buffer-sized temporaries. It rounds each operation of the plain Adam
expressions in their order, so its bits equal theirs. It writes only into
the optimizer's own arrays and the buffer, never into a gradient: a
gradient may be a read-only broadcast view.
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


@dataclass
class AdamState:
    """Step counter and moment estimates for one parameter group.

    ``m`` and ``v`` are one array each holding the parameters' moments in
    the group's order: shaped like the group's buffer, or like its parameter
    if it has only one.
    """

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


class Adam:
    """Standard Adam over a group ``(buffer, params)`` from ``flat_parameters``.

    A parameter whose grad is None is treated as having a zero gradient:
    its moments decay but a fresh (all-zero) state leaves it untouched. A
    group of one parameter steps the buffer in that parameter's shape, so
    its gradient is read as it is, never gathered into a copy.
    """

    def __init__(self, group: tuple[np.ndarray, dict[str, Tensor]], lr: float):
        self.buffer, params = group
        self.params = dict(params)
        shapes = [p.shape for p in self.params.values()]
        self._grads = None
        if len(shapes) == 1:
            self._stepped = self.buffer.reshape(shapes[0])
        else:  # several parameters gather their gradients here
            self._stepped = self.buffer
            self._grads = np.empty(self.buffer.shape)
            self._grad_views = group_views(self._grads, shapes)
        self.state = AdamState(lr=lr, m=np.zeros(self._stepped.shape),
                               v=np.zeros(self._stepped.shape))

    def _gradient(self):
        """The group's gradient, shaped like ``m``, or 0.0 for a lone
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
        """m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2 in place, then
        buffer -= lr (m / bc1) / (sqrt(v / bc2) + eps); ``g`` may be the
        scalar 0.0 of a lone parameter without a gradient."""
        g = self._gradient()
        s = self.state
        s.step += 1
        bc1 = 1.0 - BETA1 ** s.step
        bc2 = 1.0 - BETA2 ** s.step
        m, v, t = s.m, s.v, np.empty(s.m.shape)
        np.multiply(BETA1, m, out=m)
        np.multiply(1.0 - BETA1, g, out=t)
        m += t
        np.multiply(BETA2, v, out=v)
        np.square(g, out=t)
        np.multiply(1.0 - BETA2, t, out=t)
        v += t
        np.divide(v, bc2, out=t)
        np.sqrt(t, out=t)
        t += EPS
        update = np.divide(m, bc1)
        np.multiply(s.lr, update, out=update)
        update /= t
        self._stepped -= update

    def state_copy(self) -> AdamState:
        """A copy of the state for restoring into ``self.state`` later.

        ``step`` writes into ``m`` and ``v``, so both are copied; a shallow
        copy would change with every later step.
        """
        return replace(self.state, m=self.state.m.copy(), v=self.state.v.copy())
