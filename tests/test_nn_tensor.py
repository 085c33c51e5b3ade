"""Gradient and semantics checks for the autodiff engine the reference
paths (``tests/reference/``) build their graphs on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import numeric_gradient

from reference.tensor import (Tensor, add_constant, concatenate, ones, stack,
                              where, zeros)

RNG = np.random.default_rng(0)


def check_gradient(build, *shapes, tol=2e-2, positive=False):
    """Compare analytic and numeric gradients of ``build(*tensors).sum()``."""
    arrays = []
    for shape in shapes:
        a = RNG.standard_normal(shape)
        if positive:
            a = np.abs(a) + 0.5
        arrays.append(a)

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    loss = out.sum()
    loss.backward()

    for i, (arr, ten) in enumerate(zip(arrays, tensors)):
        def scalar_fn(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            return build(*args).sum().item()

        numeric = numeric_gradient(scalar_fn, arr.copy())
        assert ten.grad is not None, f"input {i} missing grad"
        np.testing.assert_allclose(ten.grad, numeric, atol=tol, rtol=tol)


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_gradient(lambda a, b: a + b, (3, 4), (4,))

    def test_sub(self):
        check_gradient(lambda a, b: a - b, (2, 5), (2, 5))

    def test_mul(self):
        check_gradient(lambda a, b: a * b, (3, 3), (3, 3))

    def test_mul_broadcast_scalar_shape(self):
        check_gradient(lambda a, b: a * b, (4, 2), (1, 2))

    def test_div(self):
        check_gradient(lambda a, b: a / b, (3, 4), (3, 4), positive=True)

    def test_pow(self):
        check_gradient(lambda a: a ** 3, (3, 3))

    def test_neg(self):
        check_gradient(lambda a: -a, (2, 2))

    def test_matmul(self):
        check_gradient(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_matmul_batched(self):
        check_gradient(lambda a, b: a @ b, (2, 3, 4), (2, 4, 2))


class TestElementwiseGradients:
    def test_exp(self):
        check_gradient(lambda a: a.exp(), (3, 4))

    def test_log(self):
        check_gradient(lambda a: a.log(), (3, 4), positive=True)

    def test_relu(self):
        check_gradient(lambda a: a.relu(), (5, 5))

    def test_sigmoid(self):
        check_gradient(lambda a: a.sigmoid(), (3, 4))

    def test_tanh(self):
        check_gradient(lambda a: a.tanh(), (3, 4))

    def test_abs(self):
        check_gradient(lambda a: a.abs(), (4, 4))

    def test_sqrt(self):
        check_gradient(lambda a: a.sqrt(), (3, 3), positive=True)

    def test_clamp(self):
        check_gradient(lambda a: a.clamp(low=-0.5, high=0.5) * a, (4, 4))

    def test_maximum(self):
        check_gradient(lambda a, b: a.maximum(b), (3, 4), (3, 4))


class TestReductionsAndShapes:
    def test_sum_all(self):
        check_gradient(lambda a: a.sum() * a.sum(), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda a: (a.sum(axis=0) ** 2), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda a: a - a.sum(axis=1, keepdims=True), (3, 4))

    def test_mean(self):
        check_gradient(lambda a: a.mean(axis=1) * 3.0, (4, 5))

    def test_max_reduction(self):
        check_gradient(lambda a: a.max(axis=1), (4, 5))

    def test_reshape(self):
        check_gradient(lambda a: (a.reshape(2, 6) ** 2), (3, 4))

    def test_transpose(self):
        check_gradient(lambda a: a.T @ a, (3, 4))

    def test_getitem(self):
        check_gradient(lambda a: a[1:3] * 2.0, (5, 4))

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_gradient(lambda a: a[idx], (4, 3))

    def test_take_along_last(self):
        idx = RNG.integers(0, 4, size=(5, 2))
        check_gradient(lambda a: a.take_along_last(idx), (5, 4))

    def test_take_along_last_duplicates(self):
        idx = np.zeros((3, 3), dtype=np.int64)  # all point to column 0
        a = Tensor(RNG.standard_normal((3, 5)), requires_grad=True)
        a.take_along_last(idx).sum().backward()
        np.testing.assert_allclose(a.grad[:, 0], 3.0, atol=1e-6)
        np.testing.assert_allclose(a.grad[:, 1:], 0.0, atol=1e-6)


class TestCombinators:
    def test_concatenate(self):
        check_gradient(lambda a, b: concatenate([a, b], axis=-1) ** 2,
                       (3, 2), (3, 4))

    def test_stack(self):
        check_gradient(lambda a, b: stack([a, b], axis=0) * 2.0,
                       (3, 2), (3, 2))

    def test_where(self):
        cond = RNG.random((4, 4)) > 0.5
        check_gradient(lambda a, b: where(cond, a, b), (4, 4), (4, 4))

    def test_add_constant(self):
        const = RNG.standard_normal((3, 3))
        check_gradient(lambda a: add_constant(a, const) ** 2, (3, 3))


class TestGraphMechanics:
    def test_detach_blocks_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (a.detach() * a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))

    def test_grad_accumulates_across_uses(self):
        a = Tensor(np.full((3,), 2.0), requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, 4.0)

    def test_backward_twice_accumulates(self):
        a = Tensor(np.ones(4), requires_grad=True)
        loss = (a * 3.0).sum()
        loss.backward()
        first = a.grad.copy()
        a.zero_grad()
        loss2 = (a * 3.0).sum()
        loss2.backward()
        np.testing.assert_allclose(a.grad, first)

    def test_no_grad_for_constants(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is None
        assert b.grad is not None

    def test_diamond_graph(self):
        a = Tensor(np.full((2,), 3.0), requires_grad=True)
        b = a * 2.0
        c = a * 5.0
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, 7.0)

    def test_deep_chain_does_not_recurse(self):
        a = Tensor(np.ones(2), requires_grad=True)
        x = a
        for _ in range(3000):  # would blow Python's stack if recursive
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, 1.0)

    def test_repr_and_props(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2

    def test_zeros_ones_helpers(self):
        assert zeros((2, 2)).data.sum() == 0
        assert ones((2, 2)).data.sum() == 4


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_unbroadcast_roundtrip(rows, cols):
    """Broadcast add then sum gradient equals the broadcast multiplicity."""
    a = Tensor(np.zeros((rows, cols)), requires_grad=True)
    b = Tensor(np.zeros((1, cols)), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, 1.0)
    np.testing.assert_allclose(b.grad, rows)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=10))
def test_max_matches_numpy(values):
    arr = np.array(values, dtype=np.float32)
    t = Tensor(arr)
    assert t.max().item() == pytest.approx(arr.max(), rel=1e-5)
