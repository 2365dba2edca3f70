"""Independent reference implementations used as test oracles.

Most of these are deliberately naive: exhaustive enumeration and direct
formulas, sized for n <= 8, and loop-by-loop spellings of the conv ops, of
k-means' centroid update, of the Adam step and of the normal draw, relu as
``np.where`` gives it, and the array-keeping forms of the subspace affinity
and the collaborative term.
The last section holds a
reference pipeline instead: the closed-form ridge self-expression solver and
normalized-Laplacian spectral clustering, the post-processing that
collaborative training replaces, used to check the synthetic generator and
the subspace affinity. The production code must agree with these, never the
other way around.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from collabsc.affinity import DUST_TOLERANCE, KMEANS_MAX_ITER, KMEANS_RESTARTS, kmeans
from collabsc.autodiff import ShapeError
from collabsc.optim import BETA1, BETA2, EPS
from collabsc.rng import Xorshift64Star


def brute_force_assignment(cost: np.ndarray) -> float:
    """Minimum assignment cost by enumerating all permutations."""
    n = cost.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        best = min(best, total)
    return best


def brute_force_accuracy(y_true, y_pred) -> float:
    """Max fraction correct over all injective cluster-to-label mappings."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    true_labels = sorted(set(int(v) for v in y_true))
    pred_labels = sorted(set(int(v) for v in y_pred))
    side = max(len(true_labels), len(pred_labels))
    true_pad = true_labels + [-1] * (side - len(true_labels))
    best = 0
    for perm in itertools.permutations(range(side)):
        correct = 0
        for i, p in enumerate(pred_labels):
            target = true_pad[perm[i]]
            if target >= 0:
                correct += int(np.sum((y_pred == p) & (y_true == target)))
        best = max(best, correct)
    return best / y_true.size


def pair_counts(y_true, y_pred) -> tuple[int, int, int, int]:
    """(both same, true same only, pred same only, both different) pair counts."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    n = y_true.size
    s11 = s10 = s01 = s00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_t = y_true[i] == y_true[j]
            same_p = y_pred[i] == y_pred[j]
            if same_t and same_p:
                s11 += 1
            elif same_t:
                s10 += 1
            elif same_p:
                s01 += 1
            else:
                s00 += 1
    return s11, s10, s01, s00


def brute_force_ari(y_true, y_pred) -> float:
    s11, s10, s01, s00 = pair_counts(y_true, y_pred)
    total = s11 + s10 + s01 + s00
    a = s11 + s10  # same-cluster pairs in truth
    b = s11 + s01  # same-cluster pairs in prediction
    expected = a * b / total
    max_index = (a + b) / 2.0
    if max_index == expected:
        return 1.0
    return (s11 - expected) / (max_index - expected)


def brute_force_nmi(y_true, y_pred) -> float:
    """MI / sqrt(H_t * H_p) from scratch with explicit loops."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    n = y_true.size
    ts = sorted(set(int(v) for v in y_true))
    ps = sorted(set(int(v) for v in y_pred))
    mi = 0.0
    for t in ts:
        for p in ps:
            nij = int(np.sum((y_true == t) & (y_pred == p)))
            if nij == 0:
                continue
            ni = int(np.sum(y_true == t))
            nj = int(np.sum(y_pred == p))
            mi += (nij / n) * math.log(n * nij / (ni * nj))
    h_t = -sum((int(np.sum(y_true == t)) / n) * math.log(int(np.sum(y_true == t)) / n)
               for t in ts)
    h_p = -sum((int(np.sum(y_pred == p)) / n) * math.log(int(np.sum(y_pred == p)) / n)
               for p in ps)
    if h_t <= 0 or h_p <= 0:
        return 0.0
    return mi / math.sqrt(h_t * h_p)


def central_difference_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Numeric gradient of a scalar function of a flat numpy array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return g


# ---------------------------------------------------------------------------
# strided convolution, one kernel offset at a time
# ---------------------------------------------------------------------------
# The conv oracles spell out im2col/col2im with one slice per kernel offset
# and feed the GEMMs the same operands, in the same layout, as the engine.
# The engine's conv ops must match them bit for bit, not just to a tolerance:
# any reordered float sum would change the training logs.

def reference_im2col(x, kernel, stride, pads, out_hw):
    """(n, c, k, k, oh, ow) patches of the zero-padded input."""
    (plo_h, phi_h), (plo_w, phi_w) = pads
    n, c = x.shape[0], x.shape[1]
    oh, ow = out_hw
    xp = np.pad(x, ((0, 0), (0, 0), (plo_h, phi_h), (plo_w, phi_w)))
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=np.float64)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, :, ki, kj] = xp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
    return cols


def reference_col2im(cols, in_hw, kernel, stride, pads, out_hw):
    """Adjoint of `reference_im2col`: scatter-add patches in (ki, kj) order."""
    (plo_h, phi_h), (plo_w, phi_w) = pads
    n, c = cols.shape[0], cols.shape[1]
    oh, ow = out_hw
    xp = np.zeros((n, c, in_hw[0] + plo_h + phi_h, in_hw[1] + plo_w + phi_w), dtype=np.float64)
    for ki in range(kernel):
        for kj in range(kernel):
            xp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += cols[:, :, ki, kj]
    return xp[:, :, plo_h:plo_h + in_hw[0], plo_w:plo_w + in_hw[1]]


def _reference_patch_matrix(x, kernel, stride, pads, out_hw):
    """Row-major (n*oh*ow, c*k*k) patch matrix, the layout the engine's GEMMs read.

    For a single image the reshape alone would return a column-major view,
    which BLAS sums in another order, so the copy is explicit.
    """
    n, c = x.shape[0], x.shape[1]
    cols = reference_im2col(x, kernel, stride, pads, out_hw)
    return np.ascontiguousarray(cols.transpose(0, 4, 5, 1, 2, 3)).reshape(
        n * out_hw[0] * out_hw[1], c * kernel * kernel)


def _reference_rows(t):
    """(n, c, h, w) -> (n*h*w, c) rows, one per pixel."""
    return t.transpose(0, 2, 3, 1).reshape(-1, t.shape[1])


def reference_conv_forward(x, w, stride, pads, out_hw):
    n, co = x.shape[0], w.shape[0]
    mat = _reference_patch_matrix(x, w.shape[2], stride, pads, out_hw)
    out = mat @ w.reshape(co, -1).T
    return out.reshape(n, out_hw[0], out_hw[1], co).transpose(0, 3, 1, 2)


def reference_conv_dweight(x, grad_out, stride, pads, out_hw, kernel):
    co, ci = grad_out.shape[1], x.shape[1]
    mat = _reference_patch_matrix(x, kernel, stride, pads, out_hw)
    return (_reference_rows(grad_out).T @ mat).reshape(co, ci, kernel, kernel)


def reference_conv_dinput(grad_out, w, stride, pads, in_hw):
    n = grad_out.shape[0]
    co, ci, kernel = w.shape[0], w.shape[1], w.shape[2]
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    dcols = _reference_rows(grad_out) @ w.reshape(co, -1)
    dcols = dcols.reshape(n, oh, ow, ci, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    return reference_col2im(dcols, in_hw, kernel, stride, pads, (oh, ow))


def reference_conv2d(x, w, b, stride, pads, out_hw):
    """Output and backward closure g -> (dx, dw, db) of a strided conv; b may be None."""
    in_hw, kernel = (x.shape[2], x.shape[3]), w.shape[2]
    out = reference_conv_forward(x, w, stride, pads, out_hw)
    if b is not None:
        out = out + b[None, :, None, None]

    def bwd(g):
        return (reference_conv_dinput(g, w, stride, pads, in_hw),
                reference_conv_dweight(x, g, stride, pads, out_hw, kernel),
                g.sum(axis=(0, 2, 3)))

    return out, bwd


def reference_conv2d_transpose(x, w, b, stride, pads, out_hw):
    """Output and backward closure g -> (dx, dw, db) of the adjoint conv; b may be None."""
    x_hw, kernel = (x.shape[2], x.shape[3]), w.shape[2]
    out = reference_conv_dinput(x, w, stride, pads, out_hw)
    if b is not None:
        out = out + b[None, :, None, None]

    def bwd(g):
        return (reference_conv_forward(g, w, stride, pads, x_hw),
                reference_conv_dweight(g, x, stride, pads, x_hw, kernel),
                g.sum(axis=(0, 2, 3)))

    return out, bwd


def reference_relu(x):
    """relu of ``x`` as ``np.where(x > 0, x, 0.0)`` gives it, in x's memory
    layout, and its backward closure g -> g * (x > 0) (subgradient 0 at
    exactly 0): a relu node of its own, which every layer op's ``relu``
    must match bit for bit.

    ``np.where`` lays its result out as any ufunc does. ``np.empty_like``
    would also copy the strides of x's length-1 axes, which a ufunc's
    result does not keep.
    """
    return np.where(x > 0.0, x, 0.0), lambda g: g * (x > 0.0)


# ---------------------------------------------------------------------------
# the subspace affinity and the collaborative term, keeping every array
# ---------------------------------------------------------------------------
# The forms ``collabsc.autodiff`` replaced with leaner nodes. The subspace
# affinity and the collaborative term were chains of elementwise ops that
# kept every intermediate n x n array (abs, transpose, add, scale and
# multiply; log, multiply, sum and scale), the log kept its clamped input and
# a float copy of its mask, and abs its sign. Each node's value and gradient
# must keep these bits.

def reference_subspace_affinity(c, g):
    """Value of (|C| + |C|^T) / 2 with its rows scaled as
    ``collabsc.affinity`` scales them, and the two gradients it hands C for
    upstream ``g``, in the order the chain's backward added them."""
    sym = 0.5 * (np.abs(c) + np.abs(c).T.copy())
    row_max = sym.max(axis=1)
    scales = np.where(row_max > DUST_TOLERANCE, 1.0 / np.where(row_max > 0, row_max, 1.0), 0.0)
    scale_matrix = np.broadcast_to(scales[:, None], sym.shape)
    g2 = 0.5 * (g * scale_matrix)
    sign = np.sign(c)
    return sym * scale_matrix, (g2 * sign, g2.T * sign)


def reference_collaborative(x, w, floor, factor, g, complement=False):
    """Value of factor * sum(w * log(max(s, floor))), and its gradient with
    respect to x for upstream ``g``. s is x, or with ``complement`` the
    negative term's 1 - x as the trainer once built it: a subtract from a
    read-only view of ones, whose backward negates the gradient."""
    s = np.broadcast_to(1.0, np.shape(x)) - x if complement else x
    above = s > floor
    clamped = np.where(above, s, floor)
    keep = above.astype(np.float64)
    value = np.asarray(factor * np.asarray((w * np.log(clamped)).sum()))
    upstream = np.broadcast_to(np.float64(factor * g), np.shape(x)) * w
    grad = (upstream / clamped) * keep
    return value, -grad if complement else grad


# ---------------------------------------------------------------------------
# k-means, one cluster mask at a time
# ---------------------------------------------------------------------------
# The mask-and-mean Lloyd loop that ``collabsc.affinity.kmeans`` replaced with
# one sorted centroid pass, kept as it was. The engine must return its labels
# bit for bit: a centroid summed in another order would move the warm start.

def loop_kmeans(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means with k-means++ initialization; the lowest-inertia
    result of KMEANS_RESTARTS restarts."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"kmeans needs 1 <= k <= n, got k={k}, n={n}")
    rng = Xorshift64Star(seed)
    sq_norms = (x * x).sum(axis=1)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _loop_kmeans_pp_init(x, k, rng, sq_norms)
        labels = None
        for _ in range(KMEANS_MAX_ITER):
            d2 = sq_norms[:, None] - 2.0 * (x @ centers.T) + (centers * centers).sum(axis=1)[None, :]
            new_labels = d2.argmin(axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                members = labels == c
                if members.any():
                    centers[c] = x[members].mean(axis=0)
                else:  # re-seed an empty cluster at the farthest point
                    centers[c] = x[d2.min(axis=1).argmax()]
        d2 = sq_norms[:, None] - 2.0 * (x @ centers.T) + (centers * centers).sum(axis=1)[None, :]
        inertia = float(np.maximum(d2.min(axis=1), 0.0).sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels.copy()
    return best_labels.astype(np.int64)


def _loop_kmeans_pp_init(x, k, rng, sq_norms):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.below(n)]
    d2 = np.maximum(sq_norms - 2.0 * (x @ centers[0]) + (centers[0] * centers[0]).sum(), 0.0)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = x[rng.below(n)]
        else:
            r = rng.uniform() * total
            centers[c] = x[int(np.searchsorted(np.cumsum(d2), r, side="right").clip(0, n - 1))]
        d2 = np.minimum(
            d2, np.maximum(sq_norms - 2.0 * (x @ centers[c]) + (centers[c] * centers[c]).sum(), 0.0))
    return centers


# ---------------------------------------------------------------------------
# Adam, one parameter at a time
# ---------------------------------------------------------------------------
# The per-parameter step that ``collabsc.optim.Adam`` replaced with one flat
# chain per group, kept as it was. The flat step must move parameters and
# moments bit for bit like this one: elementwise IEEE operations round the
# same whatever the array layout, so any difference is a changed operation.

def loop_adam_step(params: dict, state) -> None:
    """One Adam step over ``params`` (name to parameter tensor).

    ``state`` has ``lr``, ``step`` and the name-keyed moment dicts ``m`` and
    ``v``; the step rebinds their arrays and moves the parameters in place.
    A None gradient counts as zero.
    """
    s = state
    s.step += 1
    bc1 = 1.0 - BETA1 ** s.step
    bc2 = 1.0 - BETA2 ** s.step
    for name, p in params.items():
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


# ---------------------------------------------------------------------------
# normals, one Box-Muller draw at a time
# ---------------------------------------------------------------------------
# The scalar draw that ``Xorshift64Star.normals`` replaced with jumped state
# blocks and array arithmetic, kept as it was. The block path must return
# every value, and leave the state and the spare, bit for bit like this one.

def loop_normals(rng: Xorshift64Star, shape) -> np.ndarray:
    """``shape`` standard normals from ``rng``, one Box-Muller value at a
    time: the spare first, then r cos(theta) of a fresh pair, whose
    r sin(theta) becomes the spare."""
    n = int(np.prod(shape))
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        if rng._spare_normal is not None:
            out[i] = rng._spare_normal
            rng._spare_normal = None
            continue
        # u1 in (0, 1] so the log is finite
        u1 = ((rng.next_u64() >> 11) + 1) * (2.0 ** -53)
        u2 = rng.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        rng._spare_normal = r * math.sin(theta)
        out[i] = r * math.cos(theta)
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# reference pipeline: ridge self-expression, then spectral clustering
# ---------------------------------------------------------------------------

def unscale(dataset, features: np.ndarray | None = None) -> np.ndarray:
    """Invert the [0, 1] scaling of a synthetic dataset (for model checks)."""
    prov = dataset.provenance
    if "scale_min" not in prov:
        raise ValueError("dataset carries no scaling provenance")
    x = dataset.features if features is None else features
    return x * (prov["scale_max"] - prov["scale_min"]) + prov["scale_min"]


def ridge_self_expression(latent: np.ndarray, lambda1: float,
                          project_diagonal: bool = True) -> np.ndarray:
    """Closed-form minimizer of ||C||_F^2 + (lambda1/2)||Z - CZ||_F^2.

    With Gram matrix G = Z Z^T the solution is G (G + (2/lambda1) I)^{-1}.
    The diagonal is zeroed by projection afterwards (same projection the
    trained layer uses) unless ``project_diagonal`` is False.
    """
    z = np.asarray(latent, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError(f"latent must be (n >= 2, d), got shape {z.shape}")
    if lambda1 <= 0:
        raise ValueError(f"lambda1 must be > 0, got {lambda1}")
    n = z.shape[0]
    if n > 5000:
        raise ValueError(f"dense solve rejected for n={n} > 5000")
    gram = z @ z.T
    coeffs = np.linalg.solve(gram + (2.0 / lambda1) * np.eye(n), gram)
    if project_diagonal:
        np.fill_diagonal(coeffs, 0.0)
    return coeffs


def spectral_cluster(affinity_matrix: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Normalized-Laplacian spectral clustering.

    Embeds points by the k smallest eigenvectors of I - D^{-1/2} A D^{-1/2}
    (equivalently the k largest of the normalized affinity), row-normalizes,
    and runs seeded multi-restart k-means. Zero-degree nodes embed at the
    origin and land with the nearest centroid.
    """
    a = np.asarray(affinity_matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"affinity must be square, got shape {a.shape}")
    n = a.shape[0]
    if k > n:
        raise ValueError(f"cannot cut {n} points into k={k} clusters")
    if (a < 0).any():
        raise ValueError("affinity must be non-negative")
    if float(np.abs(a - a.T).max()) > 1e-10:
        raise ValueError("affinity must be symmetric")
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    normalized = a * inv_sqrt[:, None] * inv_sqrt[None, :]
    normalized = (normalized + normalized.T) / 2.0  # keep eigh input exactly symmetric
    _, vecs = np.linalg.eigh(normalized)
    embedding = vecs[:, -k:]
    row_norms = np.sqrt((embedding * embedding).sum(axis=1, keepdims=True))
    embedding = np.where(row_norms > 1e-30, embedding / np.where(row_norms > 0, row_norms, 1.0), 0.0)
    return kmeans(embedding, k, seed=seed)
