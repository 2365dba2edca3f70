"""Adam optimizer behavior."""

import numpy as np
import pytest

import collabsc.autodiff as ad
from collabsc.optim import Adam


def test_zero_gradient_leaves_fresh_params_unchanged():
    p = ad.parameter(np.array([1.0, 2.0]))
    adam = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    adam.step()
    np.testing.assert_array_equal(p.values, [1.0, 2.0])
    assert adam.state.step == 1


def test_first_step_magnitude_is_learning_rate():
    # with g=1 and defaults, the bias-corrected first update is -lr/(1+eps)
    p = ad.parameter(np.array([0.0]))
    adam = Adam({"p": p}, lr=0.1)
    p.grad = np.array([1.0])
    adam.step()
    assert p.values[0] == pytest.approx(-0.1, abs=1e-8)


def test_two_zero_grad_steps_decay_moments_and_freeze_params():
    p = ad.parameter(np.array([5.0]))
    adam = Adam({"p": p}, lr=0.1)
    p.grad = np.array([0.0])
    adam.step()
    m1, v1 = adam.state.m["p"].copy(), adam.state.v["p"].copy()
    adam.step()
    np.testing.assert_allclose(adam.state.m["p"], 0.9 * m1)
    np.testing.assert_allclose(adam.state.v["p"], 0.999 * v1)
    assert p.values[0] == 5.0
    assert adam.state.step == 2


def test_none_grad_treated_as_zero():
    p = ad.parameter(np.array([1.0]))
    adam = Adam({"p": p}, lr=0.5)
    p.grad = None
    adam.step()
    assert p.values[0] == 1.0


def test_shape_mismatch_rejected():
    p = ad.parameter(np.ones(3))
    adam = Adam({"p": p}, lr=0.1)
    p.grad = np.ones(4)
    with pytest.raises(ad.ShapeError, match="shape"):
        adam.step()


def test_descends_a_quadratic():
    p = ad.parameter(np.array([3.0, -2.0]))
    adam = Adam({"p": p}, lr=0.05)
    for _ in range(500):
        p.grad = None
        loss = ad.frobenius_sq(p)
        ad.backward(loss)
        adam.step()
    assert float(np.abs(p.values).max()) < 1e-2
