"""Reverse-mode automatic differentiation over dense float64 arrays.

The operator set is exactly what the clustering networks run: matmul, add,
subtract, scale, transpose and reshape; strided convolution and its adjoint;
row softmax and row l2 normalization; the squared Frobenius norm of the
reconstruction and self-expression losses; and one node each for the
subspace affinity and the collaborative term. The three layer ops, the bias
mode of add and the two conv ops, each apply their layer's relu in the same
call when asked. There is no broadcasting beyond the bias add, no mixed
precision, and no graph rewriting. ``collabsc.gradcheck.CASES`` lists the op
kinds.

A forward pass builds an implicit DAG: every op output records its parent
tensors and a closure computing parent gradients. ``backward`` topologically
sorts the DAG and walks it in exact reverse order, accumulating gradients
into every tensor that (transitively) requires them. Op closures skip the
gradient of a constant parent. The walk consumes the graph: once a node has
passed its gradient on, it drops that gradient, its closure and its links
to its parents, so what it kept for its backward is freed as the walk
passes it, and only leaf gradients outlive the call. A loss is therefore
walked once; a walk that would reach a node an earlier walk consumed raises
``AutodiffError``. A name on an op output keeps only that node's own values.

A node keeps only what its backward reads. Its closure holds an operand's
values only when the other operand's gradient reads them, and anything a
backward can rebuild cheaply from its parents (the sign of C in
``subspace-affinity``, the clamped student in ``collaborative``) is rebuilt
there rather than kept from forward time. Each of the two n x n formulas
of collaborative training is one node for this reason: as a chain of
elementwise ops it would keep every intermediate n x n value, although no
backward reads them. For the same reason ``collaborative`` takes the
negative term's 1 - A_s inside its node (``complement``) instead of from a
subtract node. Constants may be read-only broadcast views: consumers only
read them. Nothing writes into a value between a node's forward and its
backward; ``matmul``, ``subspace-affinity`` and ``collaborative`` read their
operands' live arrays in backward instead of copies. Convolutions keep the
patch matrix of their forward pass for the kernel gradient instead of
rebuilding it. A layer op called with ``relu`` keeps relu's bool mask and
frees its pre-activation, which a separate relu node would keep as its
parent's output. One tail, `_bias_relu`, adds every layer op's bias and
applies its relu, and builds the matching backward.

The strided conv ops move data by index: im2col gathers each image's
patches through flat offsets built once per layer geometry. On the col2im
side one GEMM per image writes its taps in (c, ki, kj, i, j) order, and a
forward `np.bincount` per cache-sized block of images sums them into their
pixels through the same offsets, giving every pixel its taps in (ki, kj)
order starting from +0.0. GEMM operands, and the layouts of their results,
are part of the bit contract: a different layout sums the same floats in
another order and moves the train logs. Relu masks the bit patterns as
integers (`_masked_relu`), so it has no branch per element and keeps its
input's layout.
"""

from __future__ import annotations

import functools

import numpy as np


class AutodiffError(ValueError):
    """Structural misuse of the engine (unknown op, non-scalar loss, ...)."""


class ShapeError(AutodiffError):
    """Operand shapes do not conform to an op's contract."""


class Tensor:
    """Dense float64 array with optional gradient tracking.

    ``requires_grad`` on a leaf marks a trainable parameter; on an op output
    it means some ancestor is trainable and the backward pass must flow
    through this node.
    """

    __slots__ = ("values", "requires_grad", "grad", "op_kind", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad=False, op_kind="leaf", parents=(), backward_fn=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op_kind = op_kind
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.shape != ():
            raise AutodiffError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op_kind!r}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def _make(values, parents, kind, backward_fn) -> Tensor:
    if not any(p.requires_grad for p in parents):
        return Tensor(values, False, kind)
    return Tensor(values, True, kind, parents, backward_fn)


def _check_2d(t: Tensor, kind: str) -> None:
    if t.ndim != 2:
        raise ShapeError(f"{kind}: expected a 2-d operand, got shape {t.shape}")


def topological_order(root: Tensor) -> list[Tensor]:
    """Nodes ordered so every input precedes its consumers (iterative DFS)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _consumed(g):
    """The backward of a node a walk consumed; ``backward`` refuses to reach one."""
    raise AutodiffError("this node's graph was consumed by an earlier backward walk")


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dT into ``grad`` of every tracked leaf under loss,
    consuming the graph on the way.

    The loss must be scalar. Leaf gradients accumulate across calls; callers
    zero parameter grads between steps. The walk pops each node in reverse
    topological order, and once the node's gradient is passed to its
    parents it drops that gradient, its closure and its parent links. So
    what a node keeps for its backward is freed as the walk passes it, and
    after the call only leaves hold gradients. A loss is walked once: if a
    walk would reach a node an earlier walk consumed (the same loss again,
    or a subgraph two losses share), it raises ``AutodiffError`` before it
    touches any gradient. Ops compute no gradient for a parent that does not
    require one (a constant); they return None in its slot.
    """
    if loss.values.shape != ():
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = topological_order(loss)
    if any(node._backward_fn is _consumed for node in order):
        raise AutodiffError("backward reached a node an earlier walk consumed: "
                            "a loss is walked once")
    if loss.grad is None:
        loss.grad = np.ones((), dtype=np.float64)
    while order:
        node = order.pop()
        fn, parents, grad = node._backward_fn, node._parents, node.grad
        if fn is None:
            continue  # a leaf keeps its gradient
        node._backward_fn, node._parents, node.grad = _consumed, (), None
        if grad is not None:
            _pass_on(parents, fn(grad))


def _pass_on(parents, grads) -> None:
    """Add each parent's gradient to what it holds, in the parents' order;
    no name here outlives the call, so no gradient outlives its use."""
    for parent, g in zip(parents, grads):
        if g is None or not parent.requires_grad:
            continue
        parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# elementwise / linear algebra ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_2d(a, "matmul")
    _check_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    # each operand's values are kept only for the other operand's gradient
    av = a.values if b.requires_grad else None
    bv = b.values if a.requires_grad else None

    def bwd(g):
        return (None if bv is None else g @ bv.T), (None if av is None else av.T @ g)

    return _make(a.values @ b.values, (a, b), "matmul", bwd)


def add(a: Tensor, b: Tensor, *, relu: bool = False) -> Tensor:
    """Same-shape add, or a dense layer's bias add of shape (m,) to (n, m)
    rows, with its relu if ``relu`` (see `_bias_relu`)."""
    if a.shape == b.shape:
        if relu:
            raise AutodiffError("add: relu applies only to a bias add")
        return _make(a.values + b.values, (a, b), "add", lambda g: (g, g))
    if a.ndim != 2 or b.shape != (a.shape[1],):
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} are not addable")
    out, bwd = _bias_relu("add", a.values, b, relu, lambda g: (g,))
    return _make(out, (a, b), "add", bwd)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"subtract: shapes differ, {a.shape} vs {b.shape}")

    def bwd(g):
        return g, -g

    return _make(a.values - b.values, (a, b), "subtract", bwd)


def _masked_relu(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """relu of ``values`` and its bool mask ``values > 0`` (subgradient 0 at exactly 0).

    The result is x where x > 0, else +0.0 (also for -0.0, NaN and -inf),
    in the memory layout of ``values``. It multiplies the bit pattern by the
    0/1 mask as integers, which gives the same bits as
    ``np.where(values > 0, values, 0.0)`` without a data-dependent branch
    per element. A backward multiplies its upstream gradient by the mask.
    """
    mask = values > 0.0
    return (values.view(np.int64) * mask.astype(np.int64)).view(np.float64), mask


def _bias_relu(kind: str, out: np.ndarray, b: Tensor | None, relu: bool, op_bwd):
    """A layer op's unbiased output ``out`` plus its bias ``b`` (or None)
    along axis 1, then relu if asked, keeping only relu's bool mask; and the
    op's backward. That masks its upstream gradient, asks ``op_bwd`` for the
    other parents' gradients and appends the bias gradient, summed over
    every axis but 1, for the op's last parent. A conv op passes ``out``
    unnamed, so the bias add frees it."""
    if b is not None:
        if b.shape != (out.shape[1],):
            raise ShapeError(f"{kind}: bias shape {b.shape} != ({out.shape[1]},)")
        out = out + b.values.reshape(b.shape + (1,) * (out.ndim - 2))
    out, mask = _masked_relu(out) if relu else (out, None)

    def bwd(g):
        if mask is not None:
            g = g * mask
        grads = op_bwd(g)
        return grads if b is None else (*grads, g.sum(axis=(0, *range(2, g.ndim))))

    return out, bwd


def softmax_rows(x: Tensor) -> Tensor:
    _check_2d(x, "softmax-rows")
    shifted = x.values - x.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return _make(s, (x,), "softmax-rows", bwd)


_L2_ZERO_GUARD = 1e-12
_L2_ZERO_ROW = 1e-30


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Rows scaled to unit l2 norm; essentially-zero rows map to zero rows.

    Rows with norm > 1e-30 divide by their exact norm (unit output norm);
    only vanishing rows get the +1e-12 guard that keeps the op total.
    """
    _check_2d(x, "l2-normalize-rows")
    norms = np.sqrt((x.values * x.values).sum(axis=1, keepdims=True))
    denom = np.where(norms > _L2_ZERO_ROW, norms, norms + _L2_ZERO_GUARD)
    y = x.values / denom

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return ((g - y * dot) / denom,)

    return _make(y, (x,), "l2-normalize-rows", bwd)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape

    def bwd(g):
        return (g.reshape(old),)

    return _make(x.values.reshape(shape), (x,), "reshape", bwd)


def frobenius_sq(x: Tensor) -> Tensor:
    """Sum of squared entries (squared Frobenius norm), a scalar."""
    xv = x.values

    def bwd(g):
        return (2.0 * float(g) * xv,)

    return _make(np.asarray((xv * xv).sum()), (x,), "frobenius-norm-squared", bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (c * g,)

    return _make(c * x.values, (x,), "scalar-multiply", bwd)


def transpose(x: Tensor) -> Tensor:
    _check_2d(x, "transpose")

    def bwd(g):
        return (g.T,)

    return _make(x.values.T.copy(), (x,), "transpose", bwd)


# ---------------------------------------------------------------------------
# the two n x n formulas of collaborative training, one node each
# ---------------------------------------------------------------------------

def subspace_affinity(c: Tensor, row_scales) -> Tensor:
    """Row-scaled symmetrized magnitudes ``0.5 * (|C| + |C|^T) * scales[:, None]``.

    ``row_scales`` maps the symmetrized magnitudes to one scale per row;
    the scales are constants for differentiation. C is listed twice as a
    parent, for |C| and for |C|^T, and the node keeps only the scales:
    backward rebuilds sign(C) from C's values and, with
    ``g2 = 0.5 * (g * scales)``, hands C ``g2 * sign(C)`` first and
    ``g2.T * sign(C)`` second (subgradient 0 at exactly 0). That order is
    part of the bit contract: ``backward`` adds the two to C's gradient in
    it, and the other order rounds that gradient differently. Value and
    gradients equal, bit for bit, those of the elementwise chain it
    replaced: abs, transpose, add, scale and a product (the test oracle
    ``reference_subspace_affinity``).
    """
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"subspace-affinity: expected a square matrix, got shape {c.shape}")
    cv = c.values
    sym = np.abs(cv)
    sym = sym + sym.T
    np.multiply(0.5, sym, out=sym)
    scales = row_scales(sym)[:, None]
    np.multiply(sym, scales, out=sym)

    def bwd(g):
        g2 = g * scales
        np.multiply(0.5, g2, out=g2)
        sign = np.sign(cv)
        first = g2 * sign
        np.multiply(g2.T, sign, out=sign)
        return first, sign

    return _make(sym, (c, c), "subspace-affinity", bwd)


def _clamped(sv: np.ndarray, floor: float, complement: bool) -> np.ndarray:
    """A fresh ``max(s, floor)``, with ``s = 1 - sv`` if ``complement`` else
    ``sv``. With ``floor > 0`` and no NaN in ``sv`` it has the bits of
    ``np.where(s > floor, s, floor)``: both give s above the floor, and the
    floor elsewhere (an s equal to it is the floor's bits)."""
    out = np.empty_like(sv)  # in sv's layout, as np.where gives, and 0-d too
    if complement:
        sv = np.subtract(1.0, sv, out=out)
    return np.maximum(sv, floor, out=out)


def collaborative(student: Tensor, weights: np.ndarray, floor: float, factor: float, *,
                  complement: bool = False) -> Tensor:
    """``factor * sum(weights * log(max(s, floor)))``, a scalar, with ``floor > 0``.

    ``s`` is the student's values, or with ``complement`` one minus them
    (the negative term's 1 - A_s, taken inside the node, so no n x n
    tensor of 1 - A_s is built or kept). ``weights`` is a constant array of
    the student's shape. Entries of s at or below the floor are clamped to
    it and get zero gradient (the subgradient of the max). The gradient
    with respect to s is formed as ``((factor * g) * weights) / clamped *
    above``, with ``above`` the bool mask of entries above the floor, which
    multiplies as 0.0 or 1.0; with ``complement`` the student's gradient is
    its negation. The node keeps only that mask; backward rebuilds the
    clamped s from its parent and reads the caller's weights. NaN input
    raises. Value and gradient equal, bit for bit, those of the chains it
    replaced: a clamped log, a product, a sum and a scale, after a subtract
    from a view of ones with ``complement`` (the test oracle
    ``reference_collaborative``).
    """
    floor, factor = float(floor), float(factor)
    if not floor > 0.0:
        raise AutodiffError(f"collaborative: the floor must be positive, got {floor}")
    sv = student.values
    if np.shape(weights) != sv.shape:
        raise ShapeError(f"collaborative: weights shape {np.shape(weights)} != student shape "
                         f"{sv.shape}")
    if np.isnan(sv).any():
        raise AutodiffError("collaborative: NaN input")
    terms = _clamped(sv, floor, complement)
    above = terms > floor
    np.log(terms, out=terms)
    np.multiply(weights, terms, out=terms)

    def bwd(g):
        grad = _clamped(sv, floor, complement)
        np.divide(np.float64(factor * g) * weights, grad, out=grad)
        np.multiply(grad, above, out=grad)
        if complement:
            np.negative(grad, out=grad)
        return (grad,)

    return _make(np.asarray(factor * terms.sum()), (student,), "collaborative", bwd)


# ---------------------------------------------------------------------------
# strided convolution and its adjoint
# ---------------------------------------------------------------------------

def same_padding(in_size: int, kernel: int, stride: int) -> tuple[int, int]:
    """Zero padding (lo, hi) giving output ceil(in/stride), TF-style."""
    out = -(-in_size // stride)
    total = max((out - 1) * stride + kernel - in_size, 0)
    lo = total // 2
    return lo, total - lo


def conv_output_size(in_size: int, kernel: int, stride: int, padding: str) -> int:
    if padding == "same":
        return -(-in_size // stride)
    if padding == "valid":
        if in_size < kernel:
            raise ShapeError(f"conv: kernel {kernel} larger than unpadded input {in_size}")
        return (in_size - kernel) // stride + 1
    raise AutodiffError(f"conv: unknown padding mode {padding!r}")


def _pads(in_hw, kernel, stride, padding):
    if padding == "same":
        return same_padding(in_hw[0], kernel, stride), same_padding(in_hw[1], kernel, stride)
    return (0, 0), (0, 0)


@functools.lru_cache(maxsize=64)
def _patch_index(c, hp, wp, kernel, stride, out_hw):
    """Read-only flat offsets into one padded (c, hp, wp) image, in (oh, ow, c, ki, kj) order.

    Memoised per layer geometry, never per batch size: both `_im2col` and
    `_col2im` of one geometry share the entry.
    """
    oh, ow = out_hw
    rows = np.arange(oh)[:, None, None, None, None] * stride + np.arange(kernel)[:, None]
    cols = np.arange(ow)[:, None, None, None] * stride + np.arange(kernel)
    idx = np.arange(c)[:, None, None] * (hp * wp) + rows * wp + cols
    idx.flags.writeable = False
    return idx


def _im2col(x, kernel, stride, pads, out_hw):
    """(n*oh*ow, c*k*k) patch matrix of the zero-padded input, one row per output pixel.

    One gather per image through the geometry's `_patch_index`. The result
    is always a fresh row-major matrix: its layout sets the GEMM's
    summation order.
    """
    (plo_h, phi_h), (plo_w, phi_w) = pads
    n, c, h, w = x.shape
    oh, ow = out_hw
    if plo_h or phi_h or plo_w or phi_w:
        xp = np.zeros((n, c, h + plo_h + phi_h, w + plo_w + phi_w), dtype=np.float64)
        xp[:, :, plo_h:plo_h + h, plo_w:plo_w + w] = x
    else:
        xp = x
    # every window lies inside xp: (oh - 1) * stride + kernel <= padded height
    idx = _patch_index(c, xp.shape[2], xp.shape[3], kernel, stride, out_hw)
    return np.take(xp.reshape(n, -1), idx, axis=1).reshape(n * oh * ow, c * kernel * kernel)


# A scatter block holds as many images as fit in about this many taps, so its
# bins and weights stay in cache while `np.bincount` reads them.
_SCATTER_BLOCK_TAPS = 1 << 14


def _col2im(taps, in_hw, kernel, stride, pads, out_hw):
    """Adjoint of `_im2col`: scatter-add each image's taps into its pixels.

    ``taps`` is (n, c*k*k, oh*ow), each image's taps in (c, ki, kj, i, j)
    order. A forward `np.bincount` per block of images sums them into a
    padded NCHW buffer: it adds its weights one by one in input order,
    starting from +0.0. Each kernel offset (ki, kj) gives a pixel at most one
    tap, so in this order every pixel gets its taps in (ki, kj) order,
    exactly as one strided add per kernel offset would give them. The
    per-image offsets are the geometry's `_patch_index` in the same order.
    The returned crop view's NCHW layout is part of the bit contract: later
    sums (the bias gradient, Frobenius norms) reduce in memory order.
    """
    (plo_h, phi_h), (plo_w, phi_w) = pads
    n, c = taps.shape[0], taps.shape[1] // (kernel * kernel)
    hp, wp = in_hw[0] + plo_h + phi_h, in_hw[1] + plo_w + phi_w
    size = c * hp * wp
    idx = _patch_index(c, hp, wp, kernel, stride, out_hw).transpose(2, 3, 4, 0, 1).reshape(-1)
    per = idx.size
    block = max(1, min(n, _SCATTER_BLOCK_TAPS // per))
    # one block's bins, built per call: no batch-sized array outlives it
    bins = (np.arange(block)[:, None] * size + idx).reshape(-1)
    weights = taps.reshape(n, per)
    xp = np.empty((n, size), dtype=np.float64)
    for i in range(0, n, block):
        m = min(block, n - i)
        xp[i:i + m] = np.bincount(bins[:m * per], weights=weights[i:i + m].reshape(-1),
                                  minlength=m * size).reshape(m, size)
    xp = xp.reshape(n, c, hp, wp)
    return xp[:, :, plo_h:plo_h + in_hw[0], plo_w:plo_w + in_hw[1]]


def _pixel_rows(t):
    """(n, c, h, w) -> (n*h*w, c), one row per pixel."""
    n, c, h, w = t.shape
    return t.transpose(0, 2, 3, 1).reshape(n * h * w, c)


def _patch_gemm(mat, w, n, out_hw):
    """Conv output (n, co, oh, ow) from a patch matrix and a (co, ci, k, k) kernel."""
    co = w.shape[0]
    out = mat @ w.reshape(co, -1).T
    return out.reshape(n, out_hw[0], out_hw[1], co).transpose(0, 3, 1, 2)


def _rows_col2im(x, w, stride, pads, in_hw):
    """Image (n, ci, *in_hw) that images x (n, co, h, w) map to through a (co, ci, k, k) kernel.

    One GEMM per image writes its taps in the order `_col2im` sums them,
    with the same bits as the row GEMM ``_pixel_rows(x) @ w.reshape(co, -1)``.
    When h*w or ci*k*k is 1, numpy hands the per-image product to gemv,
    whose bits differ, so those shapes take the row GEMM and transpose it.
    """
    n, co, h, wd = x.shape
    kernel = w.shape[2]
    wmat = w.reshape(co, -1)
    if h * wd == 1 or wmat.shape[1] == 1:
        taps = (_pixel_rows(x) @ wmat).reshape(n, h * wd, -1).transpose(0, 2, 1)
    else:
        taps = np.matmul(wmat.T, x.reshape(n, co, h * wd))
    return _col2im(taps, in_hw, kernel, stride, pads, (h, wd))


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1,
           padding: str = "same", *, relu: bool = False) -> Tensor:
    """Strided 2-d convolution; x is (N, C, H, W), w is (Cout, Cin, f, f).

    ``b`` is a (Cout,) bias or None. With ``relu`` the op applies its
    layer's relu to the biased output in the same call (see `_bias_relu`).
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input and kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: input channels {x.shape[1]} != kernel channels {w.shape[1]}")
    if w.shape[2] != w.shape[3]:
        raise ShapeError(f"conv2d: only square kernels supported, got {w.shape}")
    kernel, stride = int(w.shape[2]), int(stride)
    in_hw = (x.shape[2], x.shape[3])
    out_hw = (conv_output_size(in_hw[0], kernel, stride, padding),
              conv_output_size(in_hw[1], kernel, stride, padding))
    pads = _pads(in_hw, kernel, stride, padding)
    mat = _im2col(x.values, kernel, stride, pads, out_hw)
    wv = w.values
    x_grad, w_grad = x.requires_grad, w.requires_grad

    def conv_bwd(g):
        dx = _rows_col2im(g, wv, stride, pads, in_hw) if x_grad else None
        dw = (_pixel_rows(g).T @ mat).reshape(wv.shape) if w_grad else None
        return dx, dw

    out, bwd = _bias_relu("conv2d", _patch_gemm(mat, wv, x.shape[0], out_hw), b, relu,
                          conv_bwd)
    mat = mat if w_grad else None  # only the kernel gradient reads the patch matrix
    return _make(out, (x, w) if b is None else (x, w, b), "conv2d-strided", bwd)


def conv2d_transpose(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1,
                     padding: str = "same", *, output_hw: tuple[int, int],
                     relu: bool = False) -> Tensor:
    """Adjoint of `conv2d`: x is (N, Cin, H, W), w is (Cin, Cout, f, f).

    The output spatial size must be given explicitly (strided shape
    arithmetic is not invertible); it is validated by running the forward
    conv shape rule in reverse. ``b`` is a (Cout,) bias or None, and
    ``relu`` works as in `conv2d`.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d-transpose: need 4-d input and kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"conv2d-transpose: input channels {x.shape[1]} != kernel channels {w.shape[0]}")
    if w.shape[2] != w.shape[3]:
        raise ShapeError(f"conv2d-transpose: only square kernels supported, got {w.shape}")
    kernel, stride = int(w.shape[2]), int(stride)
    out_hw = (int(output_hw[0]), int(output_hw[1]))
    check = (conv_output_size(out_hw[0], kernel, stride, padding),
             conv_output_size(out_hw[1], kernel, stride, padding))
    x_hw = (x.shape[2], x.shape[3])
    if check != x_hw:
        raise ShapeError(
            f"conv2d-transpose: output size {out_hw} maps to {check} under the forward "
            f"shape rule, but the input is {x_hw}")
    pads = _pads(out_hw, kernel, stride, padding)
    wv = w.values
    x_grad, w_grad = x.requires_grad, w.requires_grad

    def conv_bwd(g):
        gmat = _im2col(g, kernel, stride, pads, x_hw)
        dx = _patch_gemm(gmat, wv, g.shape[0], x_hw) if x_grad else None
        dw = (xrows.T @ gmat).reshape(wv.shape) if w_grad else None
        return dx, dw

    out, bwd = _bias_relu("conv2d-transpose", _rows_col2im(x.values, wv, stride, pads, out_hw),
                          b, relu, conv_bwd)
    # only the kernel gradient reads the input's pixel rows
    xrows = _pixel_rows(x.values) if w_grad else None
    return _make(out, (x, w) if b is None else (x, w, b), "conv2d-transpose-strided", bwd)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def zero_grads(params) -> None:
    for p in (params.values() if isinstance(params, dict) else params):
        p.grad = None


def grad_check(loss_fn, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the forward graph from the *current* values of
    ``params`` and return a scalar Tensor. Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|). Parameter grads are left
    zeroed on exit.
    """
    if eps <= 0:
        raise ValueError("grad_check needs eps > 0")
    params = list(params)
    zero_grads(params)
    loss = loss_fn()
    backward(loss)
    analytic = [np.zeros(p.shape) if p.grad is None else np.array(p.grad, dtype=np.float64)
                for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.values.reshape(-1)
        aflat = np.asarray(a).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn().item()
            flat[i] = orig - eps
            f_minus = loss_fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]))
            if err > worst:
                worst = err
    zero_grads(params)
    return worst
