"""Finite-difference gradient checks over the whole operator set.

Each op kind gets seeded random instances; the scalar loss is a fixed
random-weighted sum of the op output, so transposition and indexing errors
cannot cancel. Kinked ops (relu, abs, the clamped log) are sampled with
every coordinate at least 10*eps away from the kink.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .rng import Xorshift64Star, mix_seed

EPS = 1e-5
KINK_MARGIN = 10 * EPS


def _weighted(out: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    return ad.tensor_sum(ad.multiply(out, ad.constant(weights)))


def _away_from_zero(values: np.ndarray) -> np.ndarray:
    return values + np.where(values >= 0, KINK_MARGIN, -KINK_MARGIN)


def _check_case(kind: str, rng: Xorshift64Star) -> float:
    if kind == "matmul":
        a = ad.parameter(rng.normals((3, 4)))
        b = ad.parameter(rng.normals((4, 2)))
        w = rng.normals((3, 2))
        return ad.grad_check(lambda: _weighted(ad.matmul(a, b), w), [a, b], EPS)
    if kind == "add":
        a = ad.parameter(rng.normals((3, 4)))
        bias = ad.parameter(rng.normals((4,)))
        w = rng.normals((3, 4))
        err1 = ad.grad_check(lambda: _weighted(ad.add(a, bias), w), [a, bias], EPS)
        b2 = ad.parameter(rng.normals((3, 4)))
        err2 = ad.grad_check(lambda: _weighted(ad.add(a, b2), w), [a, b2], EPS)
        return max(err1, err2)
    if kind == "subtract":
        a = ad.parameter(rng.normals((3, 4)))
        b = ad.parameter(rng.normals((3, 4)))
        w = rng.normals((3, 4))
        return ad.grad_check(lambda: _weighted(ad.subtract(a, b), w), [a, b], EPS)
    if kind == "elementwise-multiply":
        a = ad.parameter(rng.normals((3, 4)))
        b = ad.parameter(rng.normals((3, 4)))
        w = rng.normals((3, 4))
        return ad.grad_check(lambda: _weighted(ad.multiply(a, b), w), [a, b], EPS)
    if kind == "relu":
        x = ad.parameter(_away_from_zero(rng.normals((3, 4))))
        w = rng.normals((3, 4))
        return ad.grad_check(lambda: _weighted(ad.relu(x), w), [x], EPS)
    if kind == "softmax-rows":
        x = ad.parameter(rng.normals((3, 5)))
        w = rng.normals((3, 5))
        return ad.grad_check(lambda: _weighted(ad.softmax_rows(x), w), [x], EPS)
    if kind == "l2-normalize-rows":
        x = ad.parameter(rng.normals((3, 5)))
        w = rng.normals((3, 5))
        return ad.grad_check(lambda: _weighted(ad.l2_normalize_rows(x), w), [x], EPS)
    if kind == "conv2d-strided":
        x = ad.parameter(rng.normals((2, 2, 4, 4)))
        kernel = ad.parameter(rng.normals((3, 2, 3, 3)) * 0.5)
        bias = ad.parameter(rng.normals((3,)))
        padding = "same" if rng.below(2) == 0 else "valid"
        stride = 1 + int(rng.below(2))
        oh = ad.conv_output_size(4, 3, stride, padding)
        w = rng.normals((2, 3, oh, oh))
        return ad.grad_check(
            lambda: _weighted(ad.conv2d(x, kernel, bias, stride=stride, padding=padding), w),
            [x, kernel, bias], EPS)
    if kind == "conv2d-transpose-strided":
        x = ad.parameter(rng.normals((2, 3, 2, 2)))
        kernel = ad.parameter(rng.normals((3, 2, 3, 3)) * 0.5)
        bias = ad.parameter(rng.normals((2,)))
        w = rng.normals((2, 2, 4, 4))
        return ad.grad_check(
            lambda: _weighted(
                ad.conv2d_transpose(x, kernel, bias, stride=2, padding="same", output_hw=(4, 4)), w),
            [x, kernel, bias], EPS)
    if kind == "reshape":
        x = ad.parameter(rng.normals((3, 4)))
        w = rng.normals((2, 6))
        return ad.grad_check(lambda: _weighted(ad.reshape(x, (2, 6)), w), [x], EPS)
    if kind == "sum":
        x = ad.parameter(rng.normals((3, 4)))
        return ad.grad_check(lambda: ad.tensor_sum(x), [x], EPS)
    if kind == "frobenius-norm-squared":
        x = ad.parameter(rng.normals((3, 4)))
        return ad.grad_check(lambda: ad.frobenius_sq(x), [x], EPS)
    if kind == "log":
        # entries on both sides of the floor, each at least 10*eps from it
        floor = 1.0
        x = ad.parameter(floor + _away_from_zero(0.5 * rng.normals((3, 4))))
        w = rng.normals((3, 4))
        return ad.grad_check(lambda: _weighted(ad.log(x, floor), w), [x], EPS)
    if kind == "scalar-multiply":
        x = ad.parameter(rng.normals((3, 4)))
        c = rng.normals(())
        w = rng.normals((3, 4))
        return ad.grad_check(lambda: _weighted(ad.scale(x, c), w), [x], EPS)
    if kind == "transpose":
        x = ad.parameter(rng.normals((3, 4)))
        w = rng.normals((4, 3))
        return ad.grad_check(lambda: _weighted(ad.transpose(x), w), [x], EPS)
    if kind == "abs":
        x = ad.parameter(_away_from_zero(rng.normals((3, 4))))
        w = rng.normals((3, 4))
        return ad.grad_check(lambda: _weighted(ad.absolute(x), w), [x], EPS)
    raise ValueError(f"no gradient-check case for op kind {kind!r}")


def run_gradient_checks(seed: int = 0, trials: int = 20) -> dict[str, float]:
    """Max relative finite-difference error per op kind over seeded trials."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results: dict[str, float] = {}
    for i, kind in enumerate(ad.OP_KINDS):
        worst = 0.0
        for trial in range(trials):
            rng = Xorshift64Star(mix_seed(seed, 10_000 * (i + 1) + trial))
            worst = max(worst, _check_case(kind, rng))
        results[kind] = worst
    return results
