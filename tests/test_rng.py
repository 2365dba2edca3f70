"""The block normal draw against the one-value-at-a-time oracle.

``Xorshift64Star.normals`` jumps the generator over GF(2) and runs Box-Muller
on arrays; every value, the state it leaves and the spare normal must equal
``oracles.loop_normals`` bit for bit, however draws of other kinds are
interleaved with it. A sha256 pin holds a conv-28-sized synthetic set, whose
noise is one 235,200-value draw, to the bytes of the scalar draw."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collabsc.data import SyntheticSpec, generate_synthetic
from collabsc.rng import Xorshift64Star
from oracles import loop_normals

SEEDS = st.integers(0, 2**64 - 1)

# empty, single and odd counts, both sides of the doubling boundaries, and
# shapes of more than one axis
SHAPES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 4097, (), (0, 5), (3, 5), (2, 3, 7)]),
    st.integers(0, 300))

DRAWS = st.lists(st.one_of(st.tuples(st.just("normals"), SHAPES),
                           st.tuples(st.just("below"), st.integers(1, 1000)),
                           st.tuples(st.just("uniform"), st.none())),
                 min_size=1, max_size=8)


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@given(seed=SEEDS, draws=DRAWS)
def test_interleaved_draws_match_the_scalar_oracle(seed, draws):
    block, scalar = Xorshift64Star(seed), Xorshift64Star(seed)
    for kind, arg in draws:
        if kind == "normals":
            got, want = block.normals(arg), loop_normals(scalar, arg)
            assert got.shape == want.shape
            assert bits(got) == bits(want)
        elif kind == "below":
            assert block.below(arg) == scalar.below(arg)
        else:
            assert bits(block.uniform()) == bits(scalar.uniform())
        assert block._state == scalar._state
        assert (block._spare_normal is None) == (scalar._spare_normal is None)
        if scalar._spare_normal is not None:
            assert bits(block._spare_normal) == bits(scalar._spare_normal)


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 127, 128, 129, 1000, 4097])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_states_equal_that_many_scalar_steps(seed, count):
    block, scalar = Xorshift64Star(seed), Xorshift64Star(seed)
    states = []
    for _ in range(count):
        scalar.next_u64()
        states.append(scalar._state)
    got = block._states(count)
    assert got.dtype == np.uint64
    assert got.tolist() == states
    assert block._state == scalar._state


def test_a_scalar_normal_is_a_zero_d_array_that_leaves_the_spare():
    rng, oracle = Xorshift64Star(5), Xorshift64Star(5)
    first = rng.normals(())
    assert first.shape == ()
    assert bits(first) == bits(loop_normals(oracle, ()))
    assert bits(rng._spare_normal) == bits(oracle._spare_normal)
    assert bits(rng.normals(())) == bits(loop_normals(oracle, ()))
    assert rng._spare_normal is None and rng._state == oracle._state


# sha256 of the features of conv-28's synthetic set (300 points, D = 784),
# captured with the scalar draw on the BLAS build named in test_log_bytes
CONV28_FEATURES_SHA256 = {
    0: "97ce7bd617f15ad672f61b76238b822b67e1c05ef3000c9eedd66ae76fc085de",
    8: "611c04a41a06bf2c2c8dd9b23df9e1b855fd635a33a3d48c5cf94d0d7be0f969",
}


@pytest.mark.parametrize("seed", sorted(CONV28_FEATURES_SHA256))
def test_conv28_synthetic_features_pinned(seed):
    spec = SyntheticSpec(k=4, d=6, D=784, n_per=75, noise_sigma=0.02, concentration=8.0,
                         seed=seed)
    features = generate_synthetic(spec).features
    assert features.shape == (300, 784)
    assert hashlib.sha256(features.tobytes()).hexdigest() == CONV28_FEATURES_SHA256[seed]
