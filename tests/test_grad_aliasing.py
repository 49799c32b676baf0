"""Regression tests for gradient-buffer ownership.

The autograd engine lets backward functions that allocate a fresh gradient
buffer hand it over with ``_accumulate(..., owned=True)`` instead of being
defensively copied.  These tests pin the aliasing contracts that adoption
must not break: shared buffers (``__add__``), views of a node's gradient
(``reshape``/``concat``/broadcasting ``sum``), and tensors consumed multiple
times in one graph.
"""

import numpy as np

from repro.nn import Tensor, concat


class TestOwnedGradAliasing:
    def test_add_shares_buffer_without_corruption(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        ((x + y) * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        np.testing.assert_array_equal(y.grad, [2.0, 2.0])
        # __add__ forwards one shared buffer to both parents — the stored
        # gradients must be private copies, not two references to it.
        assert x.grad is not y.grad
        x.grad[0] = 99.0
        assert y.grad[0] == 2.0

    def test_tensor_used_twice_accumulates_both_paths(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()            # both mul parents are x itself
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])

    def test_concat_diamond_keeps_grads_independent(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        s = concat([x, x], axis=0)
        (s * s).sum().backward()
        # d/dx of sum(concat(x, x)^2) accumulates 2x from each copy.
        np.testing.assert_array_equal(x.grad, [4.0, -8.0])

    def test_reshape_view_grad_is_private(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        y = x.reshape(2, 2)
        z = y * 3.0
        z.sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 3.0))
        np.testing.assert_array_equal(y.grad, np.full((2, 2), 3.0))
        x.grad[0] = 0.0                     # must not write through to y.grad
        assert y.grad[0, 0] == 3.0

    def test_broadcast_sum_grad_is_private(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        out = x.sum(axis=0, keepdims=True)  # backward broadcasts its grad
        two = out * 2.0
        two.sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 2), 2.0))
        assert x.grad.flags.writeable
        x.grad[0, 0] = -1.0                 # in-place edits stay local
        np.testing.assert_array_equal(out.grad, np.full((1, 2), 2.0))

    def test_getitem_with_repeated_indices(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_swapaxes_and_node_mean_on_shared_input(self):
        x = Tensor(np.arange(6.0).reshape(1, 3, 2), requires_grad=True)
        total = x.swapaxes(-1, -2).sum(axis=-1) + x.mean(axis=-2)
        total.sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 3, 2), 1.0 + 1.0 / 3))
        # swapaxes hands back a view of its gradient: the stored one is private.
        assert x.grad.flags.writeable and x.grad.base is None
