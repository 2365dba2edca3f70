"""Finite-difference gradient checks over the whole operator set.

``CASES`` is the one list of op kinds: each maps a seeded generator to the
op, as a function of its trainable inputs, and the values of those inputs.
One runner wraps the values as parameters and checks a fixed random-weighted
sum of the op output, with weights drawn in the output's own shape, so
transposition and indexing errors cannot cancel. The weighted sum is built
from ops the model itself runs (reshape and matmul). Kinked ops are sampled
with every coordinate at least 10*eps away from the kink: the three layer
ops (the bias add and the two conv ops), which run with their relu as the
network's hidden layers do, the |C| of the subspace affinity, and the
clamped log of the collaborative term, checked on its input and on the
input's complement. The subspace affinity's row scales are constants for
differentiation, so its case fixes them.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .rng import Xorshift64Star, mix_seed

EPS = 1e-5
KINK_MARGIN = 10 * EPS


def weighted_sum(out: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    """``sum(out * weights)``, a scalar, as the row of ``out`` times the column of ``weights``."""
    column = ad.constant(np.reshape(weights, (-1, 1)))
    return ad.reshape(ad.matmul(ad.reshape(out, (1, out.size)), column), ())


def _away_from_zero(values: np.ndarray) -> np.ndarray:
    return values + np.where(values >= 0, KINK_MARGIN, -KINK_MARGIN)


def _relu_layer(op, draw, rng):
    """``op`` with its relu, and values from ``draw(rng)``, drawn again until
    every pre-activation lies at least 10*eps from relu's kink."""
    while True:
        values = draw(rng)
        pre = op(*map(ad.constant, values), relu=False).values
        if (np.abs(pre) >= KINK_MARGIN).all():
            return functools.partial(op, relu=True), values


def _conv2d(rng):
    padding = "same" if rng.below(2) == 0 else "valid"
    stride = 1 + int(rng.below(2))
    return _relu_layer(
        functools.partial(ad.conv2d, stride=stride, padding=padding),
        lambda rng: [rng.normals((2, 2, 4, 4)), rng.normals((3, 2, 3, 3)) * 0.5,
                     rng.normals((3,))], rng)


def _conv2d_transpose(rng):
    return _relu_layer(
        functools.partial(ad.conv2d_transpose, stride=2, padding="same", output_hw=(4, 4)),
        lambda rng: [rng.normals((2, 3, 2, 2)), rng.normals((3, 2, 3, 3)) * 0.5,
                     rng.normals((2,))], rng)


def _add(rng):
    # the same-shape add, then the bias add with its relu
    return _relu_layer(lambda a, b, bias, relu: ad.add(ad.add(a, b), bias, relu=relu),
                       lambda rng: [rng.normals((3, 4)), rng.normals((3, 4)), rng.normals((4,))],
                       rng)


def _scale(rng):
    c = rng.normals(())
    return lambda x: ad.scale(x, c), [rng.normals((3, 4))]


def _subspace_affinity(rng):
    # every entry of C is at least 10*eps from the kink of |C|
    c = _away_from_zero(rng.normals((4, 4)))
    scales = 0.5 + np.abs(rng.normals((4,)))
    return lambda c: ad.subspace_affinity(c, lambda sym: scales), [c]


def _collaborative(rng):
    # the term on x plus the term on 1 - x (the negative term's complement);
    # with the floor at 0.5, x and 1 - x have entries on both sides of it,
    # each at least 10*eps from it
    floor = 0.5
    x = floor + _away_from_zero(0.5 * rng.normals((3, 4)))
    w, w_neg, factor, factor_neg = (rng.normals((3, 4)), rng.normals((3, 4)), rng.normals(()),
                                    rng.normals(()))
    return lambda x: ad.add(ad.collaborative(x, w, floor, factor),
                            ad.collaborative(x, w_neg, floor, factor_neg, complement=True)), [x]


# op kind -> case(rng) -> (op over parameters, the parameters' values)
CASES = {
    "matmul": lambda rng: (ad.matmul, [rng.normals((3, 4)), rng.normals((4, 2))]),
    "add": _add,
    "subtract": lambda rng: (ad.subtract, [rng.normals((3, 4)), rng.normals((3, 4))]),
    "softmax-rows": lambda rng: (ad.softmax_rows, [rng.normals((3, 5))]),
    "l2-normalize-rows": lambda rng: (ad.l2_normalize_rows, [rng.normals((3, 5))]),
    "conv2d-strided": _conv2d,
    "conv2d-transpose-strided": _conv2d_transpose,
    "reshape": lambda rng: (lambda x: ad.reshape(x, (2, 6)), [rng.normals((3, 4))]),
    "frobenius-norm-squared": lambda rng: (ad.frobenius_sq, [rng.normals((3, 4))]),
    "scalar-multiply": _scale,
    "transpose": lambda rng: (ad.transpose, [rng.normals((3, 4))]),
    "subspace-affinity": _subspace_affinity,
    "collaborative": _collaborative,
}


def _check(case, rng: Xorshift64Star) -> float:
    op, values = case(rng)
    params = [ad.parameter(v) for v in values]
    weights = rng.normals(op(*params).shape)
    return ad.grad_check(lambda: weighted_sum(op(*params), weights), params, EPS)


def run_gradient_checks(seed: int = 0, trials: int = 20) -> dict[str, float]:
    """Max relative finite-difference error per op kind over seeded trials."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results: dict[str, float] = {}
    for i, (kind, case) in enumerate(CASES.items()):
        worst = 0.0
        for trial in range(trials):
            rng = Xorshift64Star(mix_seed(seed, 10_000 * (i + 1) + trial))
            worst = max(worst, _check(case, rng))
        results[kind] = worst
    return results
