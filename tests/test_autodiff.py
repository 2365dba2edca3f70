"""Operator semantics, backward correctness, and engine-level properties."""

import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collabsc.autodiff as ad
from collabsc.affinity import DUST_TOLERANCE, subspace_affinity_tensor
from collabsc.gradcheck import CASES, run_gradient_checks, weighted_sum
from collabsc.rng import Xorshift64Star

from oracles import (central_difference_gradient, reference_col2im, reference_collaborative,
                     reference_conv2d, reference_conv2d_transpose, reference_relu,
                     reference_subspace_affinity)


class TestForwardSemantics:
    def test_matmul_identity(self):
        m = ad.constant(np.arange(9.0).reshape(3, 3))
        out = ad.matmul(ad.constant(np.eye(3)), m)
        np.testing.assert_array_equal(out.values, m.values)

    def test_softmax_uniform_on_zero_row(self):
        out = ad.softmax_rows(ad.constant(np.zeros((1, 4))))
        np.testing.assert_allclose(out.values, 0.25)

    def test_relu_definition(self):
        out = ad.add(ad.constant(np.array([[-1.0, 0.0, 2.0]])), ad.constant(np.zeros(3)),
                     relu=True)
        np.testing.assert_array_equal(out.values, [[0.0, 0.0, 2.0]])

    def test_same_shape_add_refuses_relu(self):
        # a layer's relu follows its bias add; silently ignoring it would drop it
        a = ad.constant(np.ones((2, 3)))
        with pytest.raises(ad.AutodiffError, match="relu applies only to a bias add"):
            ad.add(a, a, relu=True)

    @pytest.mark.parametrize("layout", ["nchw", "nhwc", "sliced"])
    def test_relu_bits_match_where(self, layout):
        # the integer-mask forward gives np.where's bits: +0.0 for -0.0, NaN and -inf
        a = Xorshift64Star(5).normals((3, 8, 5, 4))
        a.reshape(-1)[:8] = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]
        x = {"nchw": a, "nhwc": a.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2),
             "sliced": a[:, ::2, :, ::-1]}[layout]
        out, mask = ad._masked_relu(x)
        value, relu_bwd = reference_relu(x)
        assert_same_array(out, value)
        assert out.strides == np.empty_like(x).strides  # the input's layout
        assert not np.signbit(out[x <= 0.0]).any() and not np.isnan(out).any()
        g = Xorshift64Star(6).normals(x.shape)
        g.reshape(-1)[:2] = -0.0
        assert_same_array(g * mask, relu_bwd(g))

    def test_softmax_rows_sum_to_one_and_positive(self):
        rng = Xorshift64Star(3)
        x = ad.constant(rng.normals((5, 7)) * 10)
        s = ad.softmax_rows(x).values
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert (s > 0).all()

    def test_l2_normalize_rows_unit_norm(self):
        rng = Xorshift64Star(4)
        x = ad.constant(rng.normals((6, 5)))
        y = ad.l2_normalize_rows(x).values
        np.testing.assert_allclose(np.sqrt((y * y).sum(axis=1)), 1.0, atol=1e-12)

    def test_l2_normalize_rows_tiny_row_unit_norm(self):
        x = ad.constant(np.full((1, 4), 1e-20))
        y = ad.l2_normalize_rows(x).values
        assert np.sqrt((y * y).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_l2_normalize_zero_row_stays_zero(self):
        y = ad.l2_normalize_rows(ad.constant(np.zeros((1, 3)))).values
        np.testing.assert_array_equal(y, np.zeros((1, 3)))

    def test_log_rejects_nonpositive(self):
        # the collaborative term's log floor must be positive; inputs at or
        # below a positive floor are clamped
        for floor in (0.0, -1e-12, np.nan):
            with pytest.raises(ad.AutodiffError, match="floor must be positive"):
                ad.collaborative(ad.constant(np.array([1.0, 2.0])), np.ones(2), floor, -1.0)

    def test_log_rejects_nan(self):
        with pytest.raises(ad.AutodiffError, match="NaN"):
            ad.collaborative(ad.constant(np.array([1.0, np.nan])), np.ones(2), 1e-12, -1.0)

    def test_log_clamp_matches_the_masked_tape_bit_for_bit(self):
        # log(x * keep + floor * (1 - keep)), differentiated through the mask
        floor = 1e-12
        xv = np.array([[0.5, 1e-12, 0.0, -0.0], [-3.0, 2e-12, 1e-13, 7.0]])
        g = np.array([[1.5, -2.0, 0.25, -1.0], [-0.5, 3.0, -4.0, 0.0]])
        keep = (xv > floor).astype(np.float64)
        clamped = xv * keep + floor * (1.0 - keep)
        x = ad.parameter(xv)
        out = ad.collaborative(x, g, floor, 1.0)
        np.testing.assert_array_equal(out.values, (g * np.log(clamped)).sum())
        ad.backward(out)
        expected = (g / clamped) * keep
        np.testing.assert_array_equal(x.grad, expected)
        assert (np.signbit(x.grad) == np.signbit(expected)).all()
        assert np.signbit(x.grad[0, 1])  # -2.0 / floor * 0 is -0.0

    def test_collaborative_rejects_mismatched_weights(self):
        with pytest.raises(ad.ShapeError, match="weights shape"):
            ad.collaborative(ad.parameter(np.ones((2, 3))), np.ones((3, 2)), 1e-12, -1.0)

    def test_subspace_affinity_rejects_a_non_square_operand(self):
        with pytest.raises(ad.ShapeError, match="square"):
            ad.subspace_affinity(ad.parameter(np.ones((2, 3))), lambda sym: np.ones(2))

    def test_forward_determinism(self):
        rng = Xorshift64Star(5)
        x = rng.normals((4, 4))
        w = rng.normals((3, 4))
        a = ad.matmul(ad.constant(x), ad.transpose(ad.constant(w))).values
        b = ad.matmul(ad.constant(x), ad.transpose(ad.constant(w))).values
        assert (a == b).all()


class TestShapeErrors:
    def test_matmul_mismatch_names_dimensions(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\) @ \(2, 3\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_add_mismatch(self):
        with pytest.raises(ad.ShapeError, match="not addable"):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))))

    def test_conv_channel_mismatch(self):
        x = ad.constant(np.ones((1, 3, 4, 4)))
        w = ad.constant(np.ones((2, 4, 3, 3)))
        with pytest.raises(ad.ShapeError, match="channels"):
            ad.conv2d(x, w)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ad.ShapeError, match="reshape"):
            ad.reshape(ad.constant(np.ones((2, 3))), (4, 2))

    def test_backward_rejects_non_scalar(self):
        x = ad.parameter(np.ones((2, 2)))
        y = ad.scale(x, 2.0)
        with pytest.raises(ad.AutodiffError, match="scalar"):
            ad.backward(y)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = ad.parameter(np.array([1.0, -2.0]))
        # the trace of x x^T
        loss = weighted_sum(ad.matmul(ad.reshape(x, (2, 1)), ad.reshape(x, (1, 2))), np.eye(2))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, -4.0])

    def test_unused_parameter_gets_no_gradient(self):
        x = ad.parameter(np.ones(3))
        unused = ad.parameter(np.ones(3))
        loss = weighted_sum(x, np.ones(3))
        ad.backward(loss)
        assert unused.grad is None  # semantically a zero gradient

    def test_self_expression_residual_gradient_matches_finite_differences(self):
        # d/dC ||Z - C^T Z||_F^2 at C = 0 is -2 Z Z^T under the row layout
        rng = Xorshift64Star(9)
        z_values = rng.normals((5, 3))
        z = ad.constant(z_values)
        coeffs = ad.parameter(np.zeros((5, 5)))

        def loss_fn():
            mixed = ad.matmul(ad.transpose(coeffs), z)
            return ad.frobenius_sq(ad.subtract(z, mixed))

        loss = loss_fn()
        ad.backward(loss)
        analytic = coeffs.grad.copy()
        np.testing.assert_allclose(analytic, -2.0 * (z_values @ z_values.T), atol=1e-10)
        numeric = central_difference_gradient(lambda: loss_fn().item(), coeffs.values)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_gradient_accumulates_across_uses(self):
        x = ad.parameter(np.array([3.0]))
        loss = weighted_sum(ad.matmul(ad.reshape(x, (1, 1)), ad.reshape(x, (1, 1))),
                            np.ones(1))  # x used twice
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_visits_reverse_topological_order(self):
        x = ad.parameter(np.ones((2, 2)))
        a = ad.scale(x, 2.0)
        b = ad.add(a, ad.parameter(np.ones(2)), relu=True)
        loss = weighted_sum(b, np.ones((2, 2)))
        order = ad.topological_order(loss)
        positions = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert positions[id(parent)] < positions[id(node)]


class TestBackwardSemantics:
    @staticmethod
    def conv_net(seed):
        """Conv with its relu, then conv-transpose, on a constant input; each
        parameter is used once."""
        rng = Xorshift64Star(seed)
        x = ad.constant(rng.normals((2, 1, 6, 5)))
        w1, b1 = ad.parameter(rng.normals((3, 1, 3, 3))), ad.parameter(rng.normals((3,)))
        w2 = ad.parameter(rng.normals((3, 2, 2, 2)))
        h = ad.conv2d(x, w1, b1, stride=2, padding="same", relu=True)
        out = ad.conv2d_transpose(h, w2, None, stride=1, padding="valid", output_hw=(4, 4))
        return x, [w1, b1, w2], ad.frobenius_sq(out)

    def test_only_leaves_keep_gradients(self):
        # the walk drops each node's parent links, so take the nodes first
        _, params, loss = self.conv_net(31)
        nodes = ad.topological_order(loss)
        interior = [node for node in nodes if node._backward_fn is not None]
        assert len(interior) == 3
        ad.backward(loss)
        for node in interior:
            assert node.grad is None, node.op_kind
            assert node._parents == (), node.op_kind
        assert all(p.grad is not None for p in params)

    def test_leaf_gradients_match_the_reference_chain(self):
        x, (w1, b1, w2), loss = self.conv_net(32)
        ad.backward(loss)
        pre, conv_bwd = reference_conv2d(x.values, w1.values, b1.values, 2,
                                         ad._pads((6, 5), 3, 2, "same"), (3, 3))
        mask = pre > 0.0
        out, tconv_bwd = reference_conv2d_transpose(np.where(mask, pre, 0.0), w2.values, None, 1,
                                                    ad._pads((4, 4), 2, 1, "valid"), (4, 4))
        dh, dw2, _ = tconv_bwd(2.0 * out)
        _, dw1, db1 = conv_bwd(dh * mask)
        for p, expected in ((w1, dw1), (b1, db1), (w2, dw2)):
            assert np.array_equal(p.grad, expected)

    def test_second_backward_on_one_loss_raises(self):
        # the first walk consumed the graph; a second one is refused, and the
        # leaf gradients keep what the first walk gave them
        _, params, loss = self.conv_net(33)
        ad.backward(loss)
        first = [p.grad.copy() for p in params]
        with pytest.raises(ad.AutodiffError, match="earlier walk consumed"):
            ad.backward(loss)
        for p, g in zip(params, first):
            np.testing.assert_array_equal(p.grad, g)

    def test_walk_into_a_consumed_subgraph_raises(self):
        # two losses over one shared intermediate, walked one after the
        # other: the second walk reaches the subgraph the first consumed,
        # and is refused before it touches any gradient
        rng = Xorshift64Star(35)
        a, b = ad.parameter(rng.normals((3, 4))), ad.parameter(rng.normals((4, 2)))
        other = ad.parameter(rng.normals((3, 2)))
        shared = ad.matmul(a, b)
        first = ad.frobenius_sq(shared)
        second = ad.frobenius_sq(ad.add(shared, other))
        ad.backward(first)
        held = [a.grad.copy(), b.grad.copy()]
        with pytest.raises(ad.AutodiffError, match="earlier walk consumed"):
            ad.backward(second)
        np.testing.assert_array_equal(a.grad, held[0])
        np.testing.assert_array_equal(b.grad, held[1])
        assert other.grad is None

    def test_constant_parents_get_no_gradient(self):
        rng = Xorshift64Star(34)
        x = ad.constant(rng.normals((1, 2, 5, 5)))
        w = ad.parameter(rng.normals((3, 2, 3, 3)))
        out = ad.conv2d(x, w, stride=2)
        dx, dw = out._backward_fn(rng.normals(out.shape))
        assert dx is None and dw.shape == w.shape
        a = ad.constant(rng.normals((2, 3)))
        b = ad.parameter(rng.normals((3, 2)))
        op = ad.matmul(a, b)
        da, db = op._backward_fn(rng.normals(op.shape))
        assert da is None and db is not None


LOG_FLOORS = (1e-12, 5e-324, 1.0, 1e300)
# signed zeros, every floor, neighbours of the loss's floor, subnormals,
# infinities and huge values (NaN input to the collaborative term is
# refused, see test_log_rejects_nan)
SPECIAL_ENTRIES = (-0.0, 0.0, *LOG_FLOORS, *(-f for f in LOG_FLOORS),
                   np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0), 1e-320, -2.5e-310,
                   np.inf, -np.inf, 1e300, -1e300)
entries = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(allow_nan=False))
# entries of a row the subspace affinity scales to zero: every |C| in it, and
# its symmetric partner, at or under the dust tolerance
DUST_ENTRIES = (0.0, -0.0, DUST_TOLERANCE, -DUST_TOLERANCE, np.nextafter(DUST_TOLERANCE, 0.0),
                3e-16, -7e-16, 1e-320, -5e-324)


def assert_same_bits(actual, expected):
    """The same bytes, NaN payloads included, in the same shape and layout."""
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()
    assert actual.strides == expected.strides


def arrays_of(shape, values=entries):
    size = int(np.prod(shape))
    return st.lists(values, min_size=size, max_size=size).map(
        lambda drawn: np.array(drawn, dtype=np.float64).reshape(shape))


def kept_arrays(node):
    """The arrays a node's backward closure holds, also through the closures
    it calls (a layer op's own backward, under the shared bias-and-relu tail)."""
    kept, closures = [], [node._backward_fn]
    while closures:
        for cell in closures.pop().__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                kept.append(value)
            elif isinstance(value, types.FunctionType):
                closures.append(value)
    return kept


class TestKeptArrays:
    """The subspace-affinity and collaborative nodes keep, or rebuild, only
    what their backward reads; each value and gradient keeps the bits of
    the forms that kept every array (``tests/oracles.py``)."""

    @settings(max_examples=1000 if settings.get_current_profile_name() == "ci" else 100)
    @given(data=st.data(), shape=st.lists(st.integers(1, 5), max_size=3).map(tuple),
           floor=st.sampled_from(LOG_FLOORS), complement=st.booleans())
    def test_collaborative_matches_its_array_keeping_form(self, data, shape, floor, complement):
        x, w = data.draw(arrays_of(shape)), data.draw(arrays_of(shape))
        factor, g = data.draw(entries), np.asarray(data.draw(entries))
        with np.errstate(all="ignore"):  # inf - inf, 0 * inf and the like are meant
            out = ad.collaborative(ad.parameter(x), w, floor, factor, complement=complement)
            value, grad = reference_collaborative(x, w, floor, factor, g, complement)
            assert_same_bits(out.values, value)
            (dx,) = out._backward_fn(g)
            assert_same_bits(dx, grad)

    @settings(max_examples=1000 if settings.get_current_profile_name() == "ci" else 100)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_subspace_affinity_matches_its_array_keeping_form(self, data, n):
        c, g = data.draw(arrays_of((n, n))), data.draw(arrays_of((n, n)))
        for i in data.draw(st.sets(st.integers(0, n - 1))):  # rows under the dust tolerance
            c[i] = data.draw(arrays_of((n,), st.sampled_from(DUST_ENTRIES)))
            c[:, i] = data.draw(arrays_of((n,), st.sampled_from(DUST_ENTRIES)))
        with np.errstate(all="ignore"):  # inf * 0 and the like are meant
            out = subspace_affinity_tensor(ad.parameter(c))
            value, grads = reference_subspace_affinity(c, g)
            assert_same_bits(out.values, value)
            for actual, expected in zip(out._backward_fn(g), grads, strict=True):
                assert_same_bits(actual, expected)

    def test_subspace_affinity_adds_the_untransposed_gradient_first(self):
        # backward adds the node's two contributions to C's gradient in one
        # order: a gradient C already holds, then g2 * sign(C), then
        # g2.T * sign(C); the other order rounds differently and moves the
        # train-log pins
        rng = Xorshift64Star(3)
        c, g, held = rng.normals((6, 6)), rng.normals((6, 6)), rng.normals((6, 6))
        np.fill_diagonal(c, 0.0)
        coeffs = ad.parameter(c)
        coeffs.grad = held.copy()
        ad.backward(weighted_sum(subspace_affinity_tensor(coeffs), g))
        _, (first, second) = reference_subspace_affinity(c, g)
        assert_same_bits(coeffs.grad, (held + first) + second)
        assert coeffs.grad.tobytes() != ((held + second) + first).tobytes()

    def test_nodes_keep_no_array_their_backward_does_not_read(self):
        # the fused nodes keep no float n x n array but their inputs' own:
        # the subspace affinity its row scales, the collaborative term one
        # bool mask
        c = ad.parameter(np.array([[0.0, -2.0, 1e-13], [3.0, 0.0, 0.5], [-1.0, 4.0, 0.0]]))
        w = np.array([[0.0, 0.9, 0.0], [0.8, 0.0, 1.0], [0.0, 0.0, 0.0]])
        for out, inputs in ((subspace_affinity_tensor(c), (c.values,)),
                            (ad.collaborative(c, w, 1e-12, -0.25), (c.values, w)),
                            (ad.collaborative(c, w, 1e-12, -0.25, complement=True),
                             (c.values, w))):
            for a in kept_arrays(out):
                if not any(a is v for v in inputs):
                    assert a.dtype == np.bool_ or a.size < c.size, out.op_kind
        # a constant operand's partner is not kept for the constant's gradient
        ones = ad.constant(np.ones((3, 3)))
        assert not any(a is c.values for a in kept_arrays(ad.matmul(ones, c)))


class TestConvSemantics:
    def test_same_padding_output_sizes_mnist_chain(self):
        # 28 -> 14 -> 7 -> 4 with stride 2
        assert ad.conv_output_size(28, 5, 2, "same") == 14
        assert ad.conv_output_size(14, 3, 2, "same") == 7
        assert ad.conv_output_size(7, 3, 2, "same") == 4

    def test_valid_padding_formula(self):
        # floor((H - f) / s) + 1
        assert ad.conv_output_size(10, 3, 2, "valid") == 4

    def test_conv_matches_explicit_loops(self):
        rng = Xorshift64Star(21)
        x = rng.normals((1, 1, 5, 5))
        w = rng.normals((1, 1, 3, 3))
        out = ad.conv2d(ad.constant(x), ad.constant(w), stride=1, padding="valid").values
        expected = np.zeros((1, 1, 3, 3))
        for i in range(3):
            for j in range(3):
                expected[0, 0, i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_transpose_conv_is_adjoint_of_conv(self):
        # <conv(a), b> == <a, conv_transpose(b)> for all a, b
        rng = Xorshift64Star(22)
        a = rng.normals((2, 3, 6, 6))
        w = rng.normals((4, 3, 3, 3))
        conv_out = ad.conv2d(ad.constant(a), ad.constant(w), stride=2, padding="same").values
        b = rng.normals(conv_out.shape)
        back = ad.conv2d_transpose(ad.constant(b), ad.constant(w), stride=2,
                                   padding="same", output_hw=(6, 6)).values
        lhs = float((conv_out * b).sum())
        rhs = float((a * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_transpose_conv_output_shape_validation(self):
        x = ad.constant(np.ones((1, 2, 4, 4)))
        w = ad.constant(np.ones((2, 3, 3, 3)))
        with pytest.raises(ad.ShapeError, match="forward"):
            ad.conv2d_transpose(x, w, stride=2, padding="same", output_hw=(9, 9))


# pre-activations a conv op's relu must map as relu does: signed zeros, NaN,
# infinities and subnormals
RELU_SPECIALS = (-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310,
                 -2.5e-310)
CONV_ENTRIES = st.one_of(st.sampled_from(RELU_SPECIALS + (1e300, -1e300)),
                         st.floats(-4.0, 4.0))


def planting(fn):
    """``fn`` with ``RELU_SPECIALS`` written over the first entries of its result."""
    def planted(*args):
        out = fn(*args)
        k = min(out.size, len(RELU_SPECIALS))
        out.flat[:k] = RELU_SPECIALS[:k]
        return out
    return planted


def assert_same_array(actual, expected):
    """Bit-identical values in the same memory layout (layout fixes later sum orders).

    The bytes are compared too: `np.array_equal` takes -0.0 for +0.0.
    """
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()
    assert actual.strides == expected.strides


def check_conv_against_reference(transpose, x, w, b, stride, padding, hw, g=None):
    """Forward and every backward output of a conv op equal the reference's bit for bit.

    ``hw`` is the conv's output size, or for the transpose its output_hw.
    """
    kernel = w.shape[2]
    if transpose:
        out = ad.conv2d_transpose(ad.parameter(x), ad.parameter(w), ad.parameter(b), stride=stride,
                                  padding=padding, output_hw=hw)
        ref_out, ref_bwd = reference_conv2d_transpose(x, w, b, stride,
                                                      ad._pads(hw, kernel, stride, padding), hw)
    else:
        in_hw = (x.shape[2], x.shape[3])
        out = ad.conv2d(ad.parameter(x), ad.parameter(w), ad.parameter(b), stride=stride,
                        padding=padding)
        ref_out, ref_bwd = reference_conv2d(x, w, b, stride,
                                            ad._pads(in_hw, kernel, stride, padding), hw)
    assert_same_array(out.values, ref_out)
    if g is None:
        g = Xorshift64Star(x.size + w.size).normals(out.shape)
    for actual, expected in zip(out._backward_fn(g), ref_bwd(g)):
        assert_same_array(actual, expected)


class TestConvBitIdentity:
    # (transpose, input shape, kernel shape, output size): the conv-28 encoder and decoder
    CONV28_LAYERS = (
        (False, (150, 1, 28, 28), (4, 1, 3, 3), (14, 14)),
        (False, (150, 4, 14, 14), (8, 4, 3, 3), (7, 7)),
        (True, (150, 8, 7, 7), (8, 4, 3, 3), (14, 14)),
        (True, (150, 4, 14, 14), (4, 1, 3, 3), (28, 28)),
    )

    @pytest.mark.parametrize("layer", range(4))
    def test_conv28_layers(self, layer):
        transpose, x_shape, w_shape, hw = self.CONV28_LAYERS[layer]
        rng = Xorshift64Star(40 + layer)
        b = rng.normals((w_shape[1] if transpose else w_shape[0],))
        check_conv_against_reference(transpose, rng.normals(x_shape), rng.normals(w_shape), b,
                                     2, "same", hw)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4])
    def test_grid(self, kernel, stride, padding):
        # 7x10 input: valid padding leaves rows or columns over at stride 2 and 3
        in_hw = (7, 10)
        out_hw = tuple(ad.conv_output_size(s, kernel, stride, padding) for s in in_hw)
        rng = Xorshift64Star(100 * kernel + 10 * stride + (padding == "valid"))
        for n, ci, co in ((1, 1, 1), (2, 3, 2), (1, 2, 3)):
            w = rng.normals((co, ci, kernel, kernel))
            check_conv_against_reference(False, rng.normals((n, ci) + in_hw), w,
                                         rng.normals((co,)), stride, padding, out_hw)
            check_conv_against_reference(True, rng.normals((n, co) + out_hw), w,
                                         rng.normals((ci,)), stride, padding, in_hw)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_non_contiguous_operands(self, padding):
        rng = Xorshift64Star(50)
        x = rng.normals((2, 3, 9, 8)).transpose(0, 1, 3, 2)  # (2, 3, 8, 9) view
        w = rng.normals((2, 3, 3, 3))
        out_hw = tuple(ad.conv_output_size(s, 3, 2, padding) for s in (8, 9))
        g = rng.normals((2, out_hw[1], out_hw[0], 2)).transpose(0, 3, 2, 1)
        assert not x.flags.c_contiguous and not g.flags.c_contiguous
        check_conv_against_reference(False, x, w, rng.normals((2,)), 2, padding, out_hw, g)
        xt = rng.normals((2, out_hw[1], out_hw[0], 2)).transpose(0, 3, 2, 1)
        gt = rng.normals((2, 3, 9, 8)).transpose(0, 1, 3, 2)
        check_conv_against_reference(True, xt, w, rng.normals((3,)), 2, padding, (8, 9), gt)

    @staticmethod
    def signed_zeros(rng, shape):
        """Normals with every third entry -0.0 and the first image all -0.0."""
        a = rng.normals(shape)
        a.reshape(-1)[::3] = -0.0
        a[0] = -0.0
        return a

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_signed_zero_operands(self, padding):
        # a -0.0 bias keeps the sign of a zero output visible through the bias add
        rng = Xorshift64Star(70)
        in_hw = (7, 6)
        out_hw = tuple(ad.conv_output_size(s, 3, 2, padding) for s in in_hw)
        w = rng.normals((2, 3, 3, 3))
        check_conv_against_reference(False, self.signed_zeros(rng, (3, 3) + in_hw), w,
                                     np.full(2, -0.0), 2, padding, out_hw,
                                     self.signed_zeros(rng, (3, 2) + out_hw))
        check_conv_against_reference(True, self.signed_zeros(rng, (3, 2) + out_hw), w,
                                     np.full(3, -0.0), 2, padding, in_hw,
                                     self.signed_zeros(rng, (3, 3) + in_hw))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_col2im_sums_signed_zeros_from_positive_zero(self, stride):
        # every pixel starts at +0.0, so taps that are all -0.0 sum to +0.0
        rng = Xorshift64Star(80 + stride)
        n, c, kernel, in_hw = 2, 2, 3, (7, 8)
        pads = ad._pads(in_hw, kernel, stride, "same")
        out_hw = tuple(ad.conv_output_size(s, kernel, stride, "same") for s in in_hw)
        mat = self.signed_zeros(rng, (n * out_hw[0] * out_hw[1], c * kernel * kernel))
        mat[: out_hw[0] * out_hw[1]] = -0.0  # the first image's taps are all -0.0
        cols = mat.reshape(n, *out_hw, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
        taps = mat.reshape(n, out_hw[0] * out_hw[1], c * kernel * kernel).transpose(0, 2, 1)
        actual = ad._col2im(taps, in_hw, kernel, stride, pads, out_hw)
        assert_same_array(actual, reference_col2im(cols, in_hw, kernel, stride, pads, out_hw))
        assert not np.signbit(actual[0]).any()

    # (kernel, stride, padding, in_hw, n, ci, co) with one output pixel or ci*k*k == 1:
    # numpy sends those per-image tap products to gemv, so they take the row-GEMM fallback
    DEGENERATE = (
        (1, 1, "same", (1, 1), 2, 1, 2),  # both at once; the case the fuzz found
        (1, 1, "valid", (1, 1), 1, 1, 1),
        (3, 2, "valid", (3, 3), 3, 2, 3),  # one output pixel, ci*k*k = 18
        (3, 2, "same", (2, 2), 2, 1, 2),
        (2, 1, "valid", (2, 2), 1, 3, 2),
        (1, 1, "same", (5, 6), 2, 1, 3),  # ci*k*k = 1, many pixels
        (1, 2, "valid", (5, 6), 3, 1, 2),
        (1, 3, "same", (4, 4), 1, 1, 4),
    )

    @pytest.mark.parametrize("case", range(len(DEGENERATE)))
    def test_degenerate_gemm_shapes(self, case):
        kernel, stride, padding, in_hw, n, ci, co = self.DEGENERATE[case]
        out_hw = tuple(ad.conv_output_size(s, kernel, stride, padding) for s in in_hw)
        assert out_hw == (1, 1) or ci * kernel * kernel == 1
        rng = Xorshift64Star(200 + case)
        wk = rng.normals((co, ci, kernel, kernel))
        check_conv_against_reference(False, rng.normals((n, ci) + in_hw), wk, rng.normals((co,)),
                                     stride, padding, out_hw)
        check_conv_against_reference(True, rng.normals((n, co) + out_hw), wk, rng.normals((ci,)),
                                     stride, padding, in_hw)

    # the ci profile widens this fuzz: tap-order bit identity rests on numpy's
    # BLAS dispatch for each shape
    @settings(max_examples=1000 if settings.get_current_profile_name() == "ci" else 40,
              deadline=None)
    @given(kernel=st.integers(1, 5), stride=st.integers(1, 4),
           padding=st.sampled_from(["same", "valid"]), h=st.integers(1, 12), w=st.integers(1, 12),
           n=st.integers(1, 3), ci=st.integers(1, 3), co=st.integers(1, 3),
           seed=st.integers(1, 2**32))
    def test_any_geometry_matches_the_loop_oracles(self, kernel, stride, padding, h, w, n, ci,
                                                    co, seed):
        if padding == "valid":
            h, w = max(h, kernel), max(w, kernel)
        out_hw = tuple(ad.conv_output_size(s, kernel, stride, padding) for s in (h, w))
        rng = Xorshift64Star(seed)
        wk = rng.normals((co, ci, kernel, kernel))
        check_conv_against_reference(False, rng.normals((n, ci, h, w)), wk, rng.normals((co,)),
                                     stride, padding, out_hw)
        check_conv_against_reference(True, rng.normals((n, co) + out_hw), wk, rng.normals((ci,)),
                                     stride, padding, (h, w))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_relu_keeps_its_mask_not_the_pre_activation(self, transpose):
        # of the output's shape, the node keeps only relu's bool mask
        rng = Xorshift64Star(93)
        w = ad.parameter(rng.normals((3, 2, 3, 3)))
        if transpose:
            out = ad.conv2d_transpose(ad.parameter(rng.normals((2, 3, 5, 4))), w,
                                      ad.parameter(rng.normals((2,))), stride=2, padding="same",
                                      output_hw=(9, 8), relu=True)
        else:
            out = ad.conv2d(ad.parameter(rng.normals((2, 2, 9, 8))), w,
                            ad.parameter(rng.normals((3,))), stride=2, padding="same", relu=True)
        (mask,) = [a for a in kept_arrays(out) if a.shape == out.shape]
        assert mask.dtype == np.bool_
        assert_same_bits(mask, out.values > 0.0)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_index_memo_holds_one_entry_per_geometry(self, transpose):
        # a memo keyed by the batch size would grow with every chunk size
        rng = Xorshift64Star(90)
        w = rng.normals((3, 2, 3, 3))
        ad._patch_index.cache_clear()
        for n in (1, 2, 7):
            if transpose:
                check_conv_against_reference(True, rng.normals((n, 3, 5, 4)), w,
                                             rng.normals((2,)), 2, "same", (9, 8))
            else:
                check_conv_against_reference(False, rng.normals((n, 2, 9, 8)), w,
                                             rng.normals((3,)), 2, "same", (5, 4))
            assert ad._patch_index.cache_info().currsize == 1

    def test_im2col_and_tap_scatter_share_one_memo_entry(self):
        # conv forward gathers, its input gradient and the transpose's forward
        # scatter, all through the one entry of this geometry, at every batch size
        rng = Xorshift64Star(91)
        w = rng.normals((3, 2, 3, 3))
        ad._patch_index.cache_clear()
        for n in (1, 2, 7):
            x = rng.normals((n, 2, 9, 8))
            out = ad.conv2d(ad.parameter(x), ad.constant(w), stride=2, padding="same")
            g = rng.normals(out.shape)
            ref_out, ref_bwd = reference_conv2d(x, w, None, 2, ad._pads((9, 8), 3, 2, "same"),
                                                (5, 4))
            assert_same_array(out.values, ref_out)
            assert_same_array(out._backward_fn(g)[0], ref_bwd(g)[0])
            xt = rng.normals((n, 3, 5, 4))
            back = ad.conv2d_transpose(ad.constant(xt), ad.constant(w), stride=2, padding="same",
                                       output_hw=(9, 8))
            ref_back, _ = reference_conv2d_transpose(xt, w, None, 2,
                                                     ad._pads((9, 8), 3, 2, "same"), (9, 8))
            assert_same_array(back.values, ref_back)
            info = ad._patch_index.cache_info()
            assert (info.currsize, info.misses) == (1, 1)

    def test_grad_check_stride_3_valid(self):
        # 8x7 input at stride 3, valid: the last two rows and the last column are never read
        rng = Xorshift64Star(60)
        x = ad.parameter(rng.normals((2, 2, 8, 7)))
        kernel = ad.parameter(rng.normals((3, 2, 3, 3)) * 0.5)
        bias = ad.parameter(rng.normals((3,)))
        weights = rng.normals((2, 3, 2, 2))
        err = ad.grad_check(lambda: weighted_sum(
            ad.conv2d(x, kernel, bias, stride=3, padding="valid"), weights), [x, kernel, bias])
        assert err < 1e-4
        xt = ad.parameter(rng.normals((2, 3, 2, 2)))
        tkernel = ad.parameter(rng.normals((3, 2, 3, 3)) * 0.5)
        tbias = ad.parameter(rng.normals((2,)))
        tweights = rng.normals((2, 2, 8, 7))
        err = ad.grad_check(lambda: weighted_sum(
            ad.conv2d_transpose(xt, tkernel, tbias, stride=3, padding="valid", output_hw=(8, 7)),
            tweights), [xt, tkernel, tbias])
        assert err < 1e-4


class TestLayerRelu:
    """Each layer op, the bias add and both conv ops, with ``relu=True``
    against relu's ``np.where`` oracle, byte for byte."""

    # the ci profile widens this fuzz too
    @settings(max_examples=1000 if settings.get_current_profile_name() == "ci" else 60,
              deadline=None)
    @given(data=st.data(), layer=st.sampled_from(["dense", "conv", "conv-transpose"]),
           kernel=st.integers(1, 3), stride=st.integers(1, 3),
           padding=st.sampled_from(["same", "valid"]), h=st.integers(1, 6), w=st.integers(1, 6),
           n=st.integers(1, 2), ci=st.integers(1, 2), co=st.integers(1, 2), bias=st.booleans(),
           plant=st.booleans())
    def test_relu_keyword_matches_the_reference_relu(self, data, layer, kernel, stride, padding,
                                                     h, w, n, ci, co, bias, plant):
        # value, every gradient and strides of op(..., relu=True) are relu's
        # of op(...), then op(...)'s backward of relu's gradient. The GEMM and
        # the tap scatter sum from +0.0 and never return -0.0, so with
        # ``plant`` the special pre-activations are written over their first
        # results; a dense layer's rows get them directly, with a -0.0 bias,
        # which adds every one of them unchanged.
        if padding == "valid":
            h, w = max(h, kernel), max(w, kernel)
        out_hw = tuple(ad.conv_output_size(s, kernel, stride, padding) for s in (h, w))
        kernels = arrays_of((co, ci, kernel, kernel), CONV_ENTRIES)
        if layer == "dense":
            op = ad.add
            rows = data.draw(arrays_of((n * h, w), CONV_ENTRIES))
            drawn = ([planting(np.copy)(rows), np.full(w, -0.0)] if plant
                     else [rows, data.draw(arrays_of((w,), CONV_ENTRIES))])
        elif layer == "conv-transpose":
            op = functools.partial(ad.conv2d_transpose, stride=stride, padding=padding,
                                   output_hw=(h, w))
            drawn = [data.draw(arrays_of((n, co) + out_hw, CONV_ENTRIES)), data.draw(kernels)]
            drawn += [data.draw(arrays_of((ci,), CONV_ENTRIES))] if bias else []
        else:
            op = functools.partial(ad.conv2d, stride=stride, padding=padding)
            drawn = [data.draw(arrays_of((n, ci, h, w), CONV_ENTRIES)), data.draw(kernels)]
            drawn += [data.draw(arrays_of((co,), CONV_ENTRIES))] if bias else []
        params = [ad.parameter(v) for v in drawn]
        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
            if plant:
                for name in ("_patch_gemm", "_rows_col2im"):
                    mp.setattr(ad, name, planting(getattr(ad, name)))
            fused = op(*params, relu=True)
            pre = op(*params)
            if plant and (layer == "dense" or not bias):  # the plant reaches the relu unchanged
                k = min(pre.size, len(RELU_SPECIALS))
                assert pre.values.reshape(-1)[:k].tobytes() == np.array(RELU_SPECIALS[:k]).tobytes()
            value, relu_bwd = reference_relu(pre.values)
            # np.where may stride a length-1 axis otherwise than the
            # integer-mask product; such a stride addresses nothing
            long = [i for i, size in enumerate(value.shape) if size > 1]
            assert fused.shape == value.shape and fused.values.tobytes() == value.tobytes()
            assert [fused.values.strides[i] for i in long] == [value.strides[i] for i in long]
            g = data.draw(arrays_of(fused.shape, CONV_ENTRIES))
            for actual, want in zip(fused._backward_fn(g), pre._backward_fn(relu_bwd(g)),
                                    strict=True):
                assert_same_bits(actual, want)

    def test_bias_add_keeps_its_mask_not_the_pre_activation(self):
        # a dense layer's relu, as a conv layer's, keeps only relu's bool mask
        rng = Xorshift64Star(94)
        out = ad.add(ad.parameter(rng.normals((5, 4))), ad.parameter(rng.normals((4,))),
                     relu=True)
        (mask,) = kept_arrays(out)
        assert mask.dtype == np.bool_
        assert_same_bits(mask, out.values > 0.0)


class TestGradCheckSuite:
    def test_every_op_passes_finite_difference_checks(self):
        results = run_gradient_checks(seed=0, trials=20)
        assert list(results) == list(CASES)
        for kind, err in results.items():
            assert err < 1e-4, f"{kind} gradient check failed with error {err}"

    def test_quadratic_loss_high_precision(self):
        x = ad.parameter(np.array([1.0, 2.0, 3.0]))
        err = ad.grad_check(lambda: ad.frobenius_sq(x), [x], eps=1e-5)
        assert err < 1e-7

    def test_grad_check_rejects_bad_eps(self):
        x = ad.parameter(np.ones(2))
        with pytest.raises(ValueError, match="eps"):
            ad.grad_check(lambda: weighted_sum(x, np.ones(2)), [x], eps=0.0)
