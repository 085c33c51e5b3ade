"""Tests for the module system: parameters, layers, parameter tracking,
state dicts.  Layer forwards run on the reference graph
(``reference.modules``), the oracle of every hand-written layer
gradient."""

import numpy as np
import pytest

from repro.nn import (Adam, Embedding, Linear, MaskedLinear, Module,
                      Parameter)

from reference.modules import embedding, linear, masked_linear, soft_lookup
from reference.tensor import Tensor, leaf

RNG = np.random.default_rng(3)


class TestParameter:
    def test_gradient_buffer_is_pooled(self):
        p = Parameter(np.zeros((2, 2)))
        p._accumulate(np.ones((2, 2)))
        p._accumulate(np.ones((2, 2)))
        first = p.grad
        np.testing.assert_array_equal(first, 2.0)
        p.zero_grad()
        assert p.grad is None
        p._accumulate(np.full((2, 2), 5.0))
        assert p.grad is first            # the same array, reused
        assert p.grad.dtype == np.float32

    def test_leaf_passes_every_contribution_to_parameter(self):
        p = Parameter(np.full(3, 2.0))
        x = leaf(p)
        assert x.data is p.data
        (x * leaf(p)).sum().backward()    # two leaves over one parameter
        np.testing.assert_allclose(p.grad, 4.0)
        assert x.grad is None


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 7, RNG)
        out = linear(layer, Tensor(RNG.standard_normal((5, 4))))
        assert out.shape == (5, 7)

    def test_matches_manual_affine(self):
        layer = Linear(3, 2, RNG)
        x = RNG.standard_normal((4, 3)).astype(np.float32)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(linear(layer, Tensor(x)).data, expected,
                                   atol=1e-5)

    def test_no_bias(self):
        layer = Linear(3, 2, RNG, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1


class TestMaskedLinear:
    def test_mask_blocks_connections(self):
        layer = MaskedLinear(4, 3, RNG)
        mask = np.zeros((3, 4), dtype=np.float32)
        mask[:, 0] = 1.0  # only input 0 connects
        layer.set_mask(mask)
        x1 = np.zeros((1, 4), dtype=np.float32)
        x2 = np.zeros((1, 4), dtype=np.float32)
        x2[0, 1:] = 5.0  # change blocked inputs only
        np.testing.assert_allclose(masked_linear(layer, Tensor(x1)).data,
                                   masked_linear(layer, Tensor(x2)).data)

    def test_mask_shape_validation(self):
        layer = MaskedLinear(4, 3, RNG)
        with pytest.raises(ValueError):
            layer.set_mask(np.ones((4, 3)))

    def test_gradient_respects_mask(self):
        layer = MaskedLinear(3, 2, RNG)
        mask = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.float32)
        layer.set_mask(mask)
        out = masked_linear(layer, Tensor(RNG.standard_normal((4, 3))))
        out.sum().backward()
        assert np.all(layer.weight.grad[mask == 0] == 0)


class TestContainers:
    def test_num_parameters_and_size(self):
        net = Linear(10, 5, RNG)
        assert net.num_parameters() == 10 * 5 + 5
        assert net.size_bytes() == 4 * net.num_parameters()


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(6, 3, RNG)
        codes = np.array([0, 5, 2])
        out = embedding(emb, codes)
        np.testing.assert_allclose(out.data, emb.weight.data[codes])

    def test_soft_lookup_matches_hard_for_onehot(self):
        emb = Embedding(4, 3, RNG)
        onehot = np.zeros((2, 4), dtype=np.float32)
        onehot[0, 1] = 1.0
        onehot[1, 3] = 1.0
        soft = soft_lookup(emb, Tensor(onehot)).data
        hard = embedding(emb, np.array([1, 3])).data
        np.testing.assert_allclose(soft, hard, atol=1e-6)

    def test_gradient_flows_to_table(self):
        emb = Embedding(4, 3, RNG)
        embedding(emb, np.array([1, 1, 2])).sum().backward()
        assert emb.weight.grad is not None
        np.testing.assert_allclose(emb.weight.grad[1], 2.0)
        np.testing.assert_allclose(emb.weight.grad[0], 0.0)


class _TwoLayer(Module):
    """Parameters reached through a list of submodules."""

    def __init__(self, rng):
        self.layers = [Linear(4, 6, rng), Linear(6, 2, rng)]

    def forward(self, x: Tensor) -> Tensor:
        return linear(self.layers[1], linear(self.layers[0], x).relu())


class TestStateDict:
    def test_roundtrip(self):
        net1 = _TwoLayer(RNG)
        net2 = _TwoLayer(RNG)
        assert list(net1.state_dict()) == [
            "layers.0.weight", "layers.0.bias",
            "layers.1.weight", "layers.1.bias"]
        x = Tensor(RNG.standard_normal((3, 4)))
        assert not np.allclose(net1.forward(x).data, net2.forward(x).data)
        net2.load_state_dict(net1.state_dict())
        np.testing.assert_allclose(net1.forward(x).data, net2.forward(x).data)

    def test_missing_key_raises(self):
        net = Linear(3, 3, RNG)
        with pytest.raises(KeyError):
            net.load_state_dict({})

    def test_state_dict_is_copy(self):
        net = Linear(2, 2, RNG)
        state = net.state_dict()
        for arr in state.values():
            arr += 100.0
        fresh = net.state_dict()
        for key in state:
            assert not np.allclose(state[key], fresh[key])


class TestTrainingLoop:
    def test_linear_regression_convergence(self):
        """The substrate can actually fit y = Wx + b."""
        rng = np.random.default_rng(0)
        true_w = rng.standard_normal((3, 1)).astype(np.float32)
        x = rng.standard_normal((256, 3)).astype(np.float32)
        y = x @ true_w
        model = Linear(3, 1, rng)
        opt = Adam(model.parameters(), lr=5e-2)
        for _ in range(300):
            pred = linear(model, Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.weight.data.T, true_w, atol=0.05)
