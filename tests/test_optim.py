"""Adam optimizer behavior."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collabsc.autodiff as ad
from collabsc.optim import Adam, flat_parameters
from collabsc.rng import Xorshift64Star
from oracles import loop_adam_step


def lone_group(values):
    """A one-parameter group built as the trainer builds a batch's C, and
    its parameter."""
    group = flat_parameters({"p": np.asarray(values, dtype=np.float64)})
    return group, group[1]["p"]


def test_zero_gradient_leaves_fresh_params_unchanged():
    group, p = lone_group(np.array([1.0, 2.0]))
    adam = Adam(group, lr=0.1)
    p.grad = np.zeros(2)
    adam.step()
    np.testing.assert_array_equal(p.values, [1.0, 2.0])
    assert adam.state.step == 1


def test_first_step_magnitude_is_learning_rate():
    # with g=1 and defaults, the bias-corrected first update is -lr/(1+eps)
    group, p = lone_group(np.array([0.0]))
    adam = Adam(group, lr=0.1)
    p.grad = np.array([1.0])
    adam.step()
    assert p.values[0] == pytest.approx(-0.1, abs=1e-8)


def test_two_zero_grad_steps_decay_moments_and_freeze_params():
    group, p = lone_group(np.array([5.0]))
    adam = Adam(group, lr=0.1)
    p.grad = np.array([0.0])
    adam.step()
    m1, v1 = adam.state.m.copy(), adam.state.v.copy()
    adam.step()
    np.testing.assert_allclose(adam.state.m, 0.9 * m1)
    np.testing.assert_allclose(adam.state.v, 0.999 * v1)
    assert p.values[0] == 5.0
    assert adam.state.step == 2


def test_none_grad_treated_as_zero():
    group, p = lone_group(np.array([1.0]))
    adam = Adam(group, lr=0.5)
    p.grad = None
    adam.step()
    assert p.values[0] == 1.0


def test_shape_mismatch_rejected():
    group, p = lone_group(np.ones(3))
    adam = Adam(group, lr=0.1)
    p.grad = np.ones(4)
    with pytest.raises(ad.ShapeError, match="shape"):
        adam.step()


def test_wrong_shaped_gradient_changes_nothing():
    # every gradient's shape is checked before the step counter, a moment or
    # a parameter moves, even one that comes before the bad gradient
    group = flat_parameters({"a": np.ones(3), "b": np.full((2, 2), 2.0)})
    params = group[1]
    adam = Adam(group, lr=0.1)
    params["a"].grad = np.ones(3)
    params["b"].grad = np.ones(3)
    with pytest.raises(ad.ShapeError, match="'b'"):
        adam.step()
    np.testing.assert_array_equal(params["a"].values, np.ones(3))
    np.testing.assert_array_equal(params["b"].values, np.full((2, 2), 2.0))
    np.testing.assert_array_equal(adam.state.m, np.zeros(7))
    np.testing.assert_array_equal(adam.state.v, np.zeros(7))
    assert adam.state.step == 0


SPECIAL_ENTRIES = (-0.0, 0.0, 5e-324, -2.5e-320, 1e-310, 1e150, -1e150)


def with_specials(rng, values):
    """``values`` with about a quarter of its entries replaced by signed
    zeros, subnormals or +-1e150."""
    flat = values.reshape(-1)
    for i in range(flat.size):
        if rng.below(4) == 0:
            flat[i] = SPECIAL_ENTRIES[rng.below(len(SPECIAL_ENTRIES))]
    return values


@settings(max_examples=1000 if settings.get_current_profile_name() == "ci" else 40,
          deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
                       min_size=1, max_size=8),
       coeff_side=st.integers(0, 6), lr=st.sampled_from([1e-3, 0.1, 1.0]),
       seed=st.integers(1, 2**32))
def test_flat_step_matches_the_loop_oracle(shapes, coeff_side, lr, seed):
    # coeff_side > 0 draws a one-parameter group, built as the trainer builds
    # a batch's C, instead
    rng = Xorshift64Star(seed)
    if coeff_side:
        shapes = [(coeff_side, coeff_side)]
    initial = {f"p{i}": with_specials(rng, rng.normals(shape)) for i, shape in enumerate(shapes)}
    group = flat_parameters({"coeffs": initial["p0"]} if coeff_side else initial)
    params = group[1]
    oracle_params = {name: ad.parameter(v) for name, v in zip(params, initial.values())}
    adam = Adam(group, lr=lr)
    oracle = SimpleNamespace(lr=lr, step=0,
                             m={name: np.zeros(p.shape) for name, p in oracle_params.items()},
                             v={name: np.zeros(p.shape) for name, p in oracle_params.items()})
    for _ in range(50):
        for p, q in zip(params.values(), oracle_params.values()):
            grad = (None if rng.below(5) == 0
                    else with_specials(rng, rng.normals(p.shape) * 10.0 ** (3 * rng.below(3) - 3)))
            p.grad, q.grad = grad, grad
        adam.step()
        loop_adam_step(oracle_params, oracle)
    assert adam.state.step == oracle.step == 50
    for name, moment in (("m", adam.state.m), ("v", adam.state.v)):
        expected = np.concatenate([a.reshape(-1) for a in getattr(oracle, name).values()])
        assert moment.reshape(-1).tobytes() == expected.tobytes(), name
    for name, p in params.items():
        assert p.values.tobytes() == oracle_params[name].values.tobytes(), name


def moment_bytes(state):
    return state.step, state.m.tobytes(), state.v.tobytes()


@pytest.mark.parametrize("shapes", [[(3, 3)], [(2,), (2, 3)]], ids=["lone", "group"])
def test_state_copy_is_unchanged_by_later_steps(shapes):
    # step writes into m and v, so the copy must own its moments
    rng = Xorshift64Star(11)
    group = flat_parameters({f"p{i}": rng.normals(shape) for i, shape in enumerate(shapes)})
    adam = Adam(group, lr=0.1)
    for p in group[1].values():
        p.grad = rng.normals(p.shape)
    adam.step()
    saved = adam.state_copy()
    before = moment_bytes(saved)
    for _ in range(3):
        adam.step()
    assert moment_bytes(saved) == before
    assert moment_bytes(adam.state) != before


@pytest.mark.parametrize("shapes", [[(3, 3)], [(2,), (2, 3)]], ids=["lone", "group"])
def test_steps_read_a_read_only_gradient_without_writing_it(shapes):
    # a gradient may be a read-only broadcast view (the sum op's), which
    # raises if the step writes into it; the step reads it as the oracle does
    rng = Xorshift64Star(12)
    initial = {f"p{i}": rng.normals(shape) for i, shape in enumerate(shapes)}
    group = flat_parameters(initial)
    oracle_params = {name: ad.parameter(v) for name, v in initial.items()}
    oracle = SimpleNamespace(lr=0.1, step=0,
                             m={name: np.zeros(p.shape) for name, p in oracle_params.items()},
                             v={name: np.zeros(p.shape) for name, p in oracle_params.items()})
    adam = Adam(group, lr=0.1)
    for value in (0.5, -2.0):
        for p, q in zip(group[1].values(), oracle_params.values()):
            p.grad = q.grad = np.broadcast_to(value, p.shape)
        adam.step()
        loop_adam_step(oracle_params, oracle)
    for name, p in group[1].items():
        assert p.values.tobytes() == oracle_params[name].values.tobytes(), name


def test_descends_a_quadratic():
    group, p = lone_group(np.array([3.0, -2.0]))
    adam = Adam(group, lr=0.05)
    for _ in range(500):
        p.grad = None
        loss = ad.frobenius_sq(p)
        ad.backward(loss)
        adam.step()
    assert float(np.abs(p.values).max()) < 1e-2
