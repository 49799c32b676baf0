"""Tests for activation functions and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor
from repro.nn.functional import (
    dropout,
    elu,
    elu_array,
    leaky_relu,
    leaky_relu_array,
    log_softmax,
    relu,
    relu_array,
    sigmoid,
    sigmoid_array,
    softmax,
    softmax_array,
    tanh,
)
from tests.test_nn_tensor import check_gradient


class TestForwardValues:
    def test_relu_zeroes_negatives(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_leaky_relu_keeps_scaled_negatives(self):
        out = leaky_relu(Tensor([-2.0, 3.0]), negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])

    def test_elu_negative_branch(self):
        out = elu(Tensor([-1.0]), alpha=1.0)
        np.testing.assert_allclose(out.data, [np.exp(-1.0) - 1.0])

    def test_elu_positive_identity(self):
        out = elu(Tensor([2.5]))
        np.testing.assert_allclose(out.data, [2.5])

    def test_sigmoid_at_zero(self):
        np.testing.assert_allclose(sigmoid(Tensor([0.0])).data, [0.5])

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(tanh(Tensor(x)).data, np.tanh(x))

    def test_softmax_rows_sum_to_one(self):
        out = softmax(Tensor(np.random.default_rng(0).normal(size=(4, 5))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_softmax_is_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(Tensor(x)).data, softmax(Tensor(x + 100)).data)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        np.testing.assert_allclose(log_softmax(x).data, np.log(softmax(x).data), atol=1e-12)

    def test_softmax_handles_large_values(self):
        out = softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])


class TestGradients:
    def test_relu_gradient(self, rng):
        x = rng.normal(size=(3, 3))
        x[np.abs(x) < 1e-3] = 0.5  # avoid the kink
        check_gradient(relu, x)

    def test_leaky_relu_gradient(self, rng):
        x = rng.normal(size=(3, 3))
        x[np.abs(x) < 1e-3] = 0.5
        check_gradient(lambda t: leaky_relu(t, 0.1), x)

    def test_elu_gradient(self, rng):
        x = rng.normal(size=(3, 3))
        x[np.abs(x) < 1e-3] = 0.5
        check_gradient(elu, x)

    def test_softmax_gradient(self, rng):
        weights = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: softmax(t, axis=1) * weights, rng.normal(size=(3, 4)))

    def test_log_softmax_gradient(self, rng):
        weights = Tensor(rng.normal(size=(2, 5)))
        check_gradient(lambda t: log_softmax(t, axis=1) * weights, rng.normal(size=(2, 5)))


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = dropout(x, p=0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_probability_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = dropout(x, p=0.0, training=True)
        np.testing.assert_allclose(out.data, x.data)

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), p=1.0)

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000,)))
        out = dropout(x, p=0.5, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_some_units_are_dropped(self):
        rng = np.random.default_rng(0)
        out = dropout(Tensor(np.ones(100)), p=0.5, training=True, rng=rng)
        assert (out.data == 0.0).any()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=10))
def test_softmax_outputs_are_probabilities(values):
    probs = softmax(Tensor([values]), axis=1).data
    assert np.all(probs >= 0.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=10))
def test_relu_is_idempotent(values):
    once = relu(Tensor(values)).data
    twice = relu(Tensor(once)).data
    np.testing.assert_allclose(once, twice)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=10))
def test_sigmoid_bounded(values):
    out = sigmoid(Tensor(values)).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5), st.integers(0, 1))
def test_array_kernels_equal_the_tensor_forward_bit_for_bit(seed, rows, cols, axis):
    # No-grad inference runs the array kernels; its scores must match the
    # Tensor forward exactly, softmax (composed from Tensor ops) included.
    x = np.random.default_rng(seed).normal(scale=4.0, size=(rows, cols))
    pairs = [(relu(Tensor(x)), relu_array(x)),
             (leaky_relu(Tensor(x), 0.2), leaky_relu_array(x, 0.2)),
             (elu(Tensor(x)), elu_array(x)),
             (sigmoid(Tensor(x)), sigmoid_array(x)),
             (softmax(Tensor(x), axis=axis), softmax_array(x, axis=axis))]
    for tensor, array in pairs:
        assert np.array_equal(tensor.data, array)
