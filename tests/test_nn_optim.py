"""Optimizer tests: descent on quadratics, Adam bias correction, clipping.

Losses are built on the reference graph over ``leaf(p)``, so each
``backward()`` fills the :class:`Parameter`'s ``.grad`` as a shipped
kernel would.
"""

import numpy as np
import pytest

from repro.nn import Adam, Parameter

from reference.tensor import Tensor, leaf


def quadratic_loss(param: Parameter) -> Tensor:
    return ((leaf(param) - 3.0) ** 2).sum()


class TestAdam:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_converges_on_quadratic(self):
        p = Parameter(np.full(4, -5.0))
        opt = Adam([p], lr=0.3)
        for _ in range(300):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-2)

    def test_first_step_size_close_to_lr(self):
        """Bias correction makes the first Adam step ~lr in magnitude."""
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.5)
        loss = (leaf(p) * 1.0).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert abs(10.0 - p.data[0]) == pytest.approx(0.5, rel=1e-3)

    def test_grad_clip_limits_update(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.1, grad_clip=1.0)
        loss = (leaf(p) * 1e6).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert np.isfinite(p.data).all()
        assert abs(p.data[0]) <= 0.2

    def test_skips_params_without_grad(self):
        used = Parameter(np.zeros(1))
        unused = Parameter(np.ones(1))
        opt = Adam([used, unused], lr=0.1)
        loss = quadratic_loss(used)
        opt.zero_grad()
        loss.backward()
        opt.step()
        np.testing.assert_allclose(unused.data, 1.0)

    def test_grad_clip_uses_global_norm(self):
        """Clipping scales every gradient by one shared factor, so the
        relative step sizes between parameters are preserved (per-tensor
        clipping would silently rebalance layer learning rates)."""
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        opt = Adam([a, b], lr=0.1, grad_clip=1.0)
        # Global norm 50.
        loss = (leaf(a) * 30.0).sum() + (leaf(b) * 40.0).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        # After scaling by 1/50 the gradient ratio 30:40 must survive.
        np.testing.assert_allclose(a.grad, 30.0 / 50.0, rtol=1e-5)
        np.testing.assert_allclose(b.grad, 40.0 / 50.0, rtol=1e-5)

    def test_grad_clip_noop_below_threshold(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1, grad_clip=10.0)
        loss = (leaf(p) * 1.0).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        np.testing.assert_allclose(p.grad, 1.0)

    def test_state_dict_roundtrip(self):
        p = Parameter(np.full(3, 5.0))
        opt = Adam([p], lr=0.1)
        for _ in range(3):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        snap = opt.state_dict()
        weights = p.data.copy()
        for _ in range(4):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert opt._t == 7
        opt.load_state_dict(snap)
        p.data = weights
        p.bump_version()
        assert opt._t == 3
        np.testing.assert_array_equal(opt._m[0], snap["m"][0])
        np.testing.assert_array_equal(opt._v[0], snap["v"][0])
        # The snapshot is detached: stepping after restore must not
        # mutate the caller's copy.
        loss = quadratic_loss(p)
        opt.zero_grad()
        loss.backward()
        opt.step()
        np.testing.assert_array_equal(snap["m"][0], snap["m"][0].copy())
