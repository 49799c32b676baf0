"""Autograd engine tests: correctness of every op's gradient."""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Linear, Tensor, concat, stack, no_grad
from repro.nn.tensor import sigmoid_array


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradient of ``build(Tensor).sum()`` against finite differences."""
    tensor = Tensor(x.copy(), requires_grad=True)
    out = build(tensor).sum()
    out.backward()
    numeric = numerical_gradient(lambda arr: float(build(Tensor(arr)).sum().data), x.copy())
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol)


class TestBasicProperties:
    def test_shape_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4)
        assert t.ndim == 2
        assert t.size == 12
        assert len(t) == 3

    def test_repr_mentions_shape(self):
        assert "(2, 2)" in repr(Tensor(np.zeros((2, 2))))

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_detach_breaks_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_no_grad_context(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad

    def test_no_grad_in_one_thread_leaves_other_threads_recording(self):
        inside, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with no_grad():
                inside.set()
                release.wait(10)

        holder = threading.Thread(target=hold_no_grad)
        holder.start()
        assert inside.wait(10)
        seen = {}

        def train_step():
            layer = Linear(3, 1, rng=np.random.default_rng(0))
            loss = (layer(Tensor(np.ones((2, 3)))) * 2.0).sum()
            loss.backward()
            seen["requires_grad"] = loss.requires_grad
            seen["grad"] = layer.weight.grad

        try:
            trainer = threading.Thread(target=train_step)
            trainer.start()
            trainer.join(10)
        finally:
            release.set()
            holder.join(10)
        assert seen["requires_grad"]
        np.testing.assert_array_equal(seen["grad"], np.full((3, 1), 4.0))
        # The holder's block has ended and this thread was never inside it.
        assert (Tensor(np.ones(2), requires_grad=True) * 2).requires_grad

    def test_zero_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(3, 4.0))


class TestArithmeticGradients:
    def test_add(self, rng):
        check_gradient(lambda t: t + 3.0, rng.normal(size=(3, 4)))

    def test_add_broadcast(self, rng):
        other = Tensor(rng.normal(size=(1, 4)))
        check_gradient(lambda t: t + other, rng.normal(size=(3, 4)))

    def test_sub(self, rng):
        check_gradient(lambda t: 5.0 - t, rng.normal(size=(2, 3)))

    def test_mul(self, rng):
        other = Tensor(rng.normal(size=(2, 3)))
        check_gradient(lambda t: t * other, rng.normal(size=(2, 3)))

    def test_div(self, rng):
        other = Tensor(rng.normal(size=(2, 3)) + 3.0)
        check_gradient(lambda t: t / other, rng.normal(size=(2, 3)))

    def test_rdiv(self, rng):
        check_gradient(lambda t: 2.0 / t, rng.normal(size=(2, 3)) + 3.0)

    def test_pow(self, rng):
        check_gradient(lambda t: t ** 3, rng.normal(size=(2, 3)))

    def test_neg(self, rng):
        check_gradient(lambda t: -t, rng.normal(size=(4,)))

    def test_matmul(self, rng):
        other = Tensor(rng.normal(size=(4, 2)))
        check_gradient(lambda t: t @ other, rng.normal(size=(3, 4)))

    def test_matmul_gradient_flows_to_both_sides(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad is not None and a.grad.shape == (3, 4)
        assert b.grad is not None and b.grad.shape == (4, 2)


class TestReductionGradients:
    def test_sum_all(self, rng):
        check_gradient(lambda t: t.sum(), rng.normal(size=(3, 4)))

    def test_sum_axis(self, rng):
        check_gradient(lambda t: t.sum(axis=1), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        check_gradient(lambda t: t.sum(axis=0, keepdims=True), rng.normal(size=(3, 4)))

    def test_mean(self, rng):
        check_gradient(lambda t: t.mean(axis=1), rng.normal(size=(3, 4)))

    def test_max(self, rng):
        # Use well-separated values so finite differences do not cross ties.
        x = np.arange(12, dtype=float).reshape(3, 4) * 0.7
        check_gradient(lambda t: t.max(axis=1), x)

    def test_max_gradient_splits_ties(self):
        t = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestElementwiseGradients:
    def test_exp(self, rng):
        check_gradient(lambda t: t.exp(), rng.normal(size=(2, 3)))

    def test_log(self, rng):
        check_gradient(lambda t: t.log(), rng.random((2, 3)) + 0.5)

    def test_sqrt(self, rng):
        check_gradient(lambda t: t.sqrt(), rng.random((2, 3)) + 0.5)

    def test_tanh(self, rng):
        check_gradient(lambda t: t.tanh(), rng.normal(size=(2, 3)))

    def test_sigmoid(self, rng):
        check_gradient(lambda t: t.sigmoid(), rng.normal(size=(2, 3)))

    def test_sigmoid_saturates_without_warning(self):
        """``exp(800)`` overflows; the logistic function is still 0 there."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid_array(np.array([-800.0, 0.0, 800.0]))
            x = Tensor(np.array([-800.0]), requires_grad=True)
            y = x.sigmoid()
            y.sum().backward()
        assert out.tolist() == [0.0, 0.5, 1.0]
        assert y.data.tolist() == [0.0]
        assert x.grad.tolist() == [0.0]

    def test_clip(self, rng):
        x = rng.normal(size=(3, 3)) * 2
        x = x[np.abs(np.abs(x) - 1.0) > 1e-2]  # keep away from the clip boundary
        check_gradient(lambda t: t.clip(-1.0, 1.0), x)


class TestShapeOps:
    def test_reshape(self, rng):
        check_gradient(lambda t: t.reshape(6, 2), rng.normal(size=(3, 4)))

    def test_transpose(self, rng):
        check_gradient(lambda t: t.T, rng.normal(size=(3, 4)))

    def test_getitem_rows(self, rng):
        check_gradient(lambda t: t[1:3], rng.normal(size=(4, 3)))

    def test_getitem_fancy(self, rng):
        idx = np.array([0, 2])
        check_gradient(lambda t: t[idx], rng.normal(size=(4, 3)))

    def test_concat(self, rng):
        other = Tensor(rng.normal(size=(2, 3)))
        check_gradient(lambda t: concat([t, other], axis=0), rng.normal(size=(2, 3)))

    def test_concat_axis1(self, rng):
        other = Tensor(rng.normal(size=(2, 3)))
        check_gradient(lambda t: concat([t, other], axis=1), rng.normal(size=(2, 2)))

    def test_stack(self, rng):
        other = Tensor(rng.normal(size=(2, 3)))
        check_gradient(lambda t: stack([t, other], axis=0), rng.normal(size=(2, 3)))


class TestGraphTraversal:
    def test_diamond_graph_gradient_counted_once_per_path(self):
        # y = x*x + x*x should give dy/dx = 4x, exercising shared subexpressions.
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_long_chain(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.01
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.01 ** 50], rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8),
       st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_add_commutes(a, b):
    n = min(len(a), len(b))
    ta, tb = Tensor(a[:n]), Tensor(b[:n])
    np.testing.assert_allclose((ta + tb).data, (tb + ta).data)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=10))
def test_exp_log_roundtrip(values):
    t = Tensor(values)
    np.testing.assert_allclose(t.exp().log().data, t.data, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6))
def test_matmul_shape(n, m):
    a = Tensor(np.ones((n, m)))
    b = Tensor(np.ones((m, 3)))
    assert (a @ b).shape == (n, 3)
