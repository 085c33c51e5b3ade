"""Tests for MADE/ResMADE mask construction and the autoregressive property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import ResMADE
from repro.nn.encoders import (BinaryEncoder, EmbeddingEncoder, OneHotEncoder,
                               binary_code_matrix, make_encoder)
from repro.nn.made import (hidden_degrees, input_degrees, mask_between,
                           output_degrees)
from repro.train import FusedDataLoss

from reference import made as ref
from reference.tensor import Tensor

RNG = np.random.default_rng(5)


class TestMaskConstruction:
    def test_input_degrees(self):
        deg = input_degrees([2, 3, 1])
        np.testing.assert_array_equal(deg, [0, 0, 1, 1, 1, 2])

    def test_hidden_degrees_balanced_and_sorted(self):
        deg = hidden_degrees(7, 4)
        assert set(deg) <= {0, 1, 2}
        # Balanced coverage (same multiset as the classic cycling
        # assignment) laid out ascending, so each sampling position
        # depends on a contiguous hidden-unit prefix — the property the
        # fused training kernels' width-restricted GEMMs rely on.
        np.testing.assert_array_equal(deg, [0, 0, 0, 1, 1, 2, 2])
        assert np.all(np.diff(deg) >= 0)

    def test_output_degrees(self):
        deg = output_degrees([2, 4])
        np.testing.assert_array_equal(deg, [0, 0, 1, 1, 1, 1])

    def test_mask_rules(self):
        in_deg = np.array([0, 1])
        out_deg = np.array([0, 1])
        hidden = mask_between(in_deg, out_deg)
        np.testing.assert_array_equal(hidden, [[1, 0], [1, 1]])
        output = mask_between(in_deg, out_deg, is_output=True)
        np.testing.assert_array_equal(output, [[0, 0], [1, 0]])


class TestEncoders:
    def test_binary_code_matrix(self):
        m = binary_code_matrix(5)
        assert m.shape == (5, 3)
        np.testing.assert_array_equal(m[3], [1, 1, 0])  # 3 = 0b011, LSB first

    def test_binary_encoder_roundtrip_distinctness(self):
        enc = BinaryEncoder(10)
        codes = np.arange(10)
        encoded = enc.encode_hard(codes)
        assert len(np.unique(encoded[:, :-1], axis=0)) == 10

    def test_wildcard_zeroes_values(self):
        enc = BinaryEncoder(8)
        out = enc.encode_hard(np.array([5, 5]), np.array([False, True]))
        assert out[0, -1] == 0 and out[1, -1] == 1
        assert out[1, :-1].sum() == 0
        assert out[0, :-1].sum() > 0

    def test_soft_encode_matches_hard_for_onehot(self):
        enc = BinaryEncoder(6)
        y = np.zeros((2, 6), dtype=np.float32)
        y[0, 3] = 1.0
        y[1, 5] = 1.0
        soft = ref.encode_soft(enc, Tensor(y)).data
        hard = enc.encode_hard(np.array([3, 5]))
        np.testing.assert_allclose(soft, hard, atol=1e-6)

    def test_onehot_encoder(self):
        enc = OneHotEncoder(4)
        out = enc.encode_hard(np.array([2]))
        np.testing.assert_array_equal(out[0], [0, 0, 1, 0, 0])

    def test_embedding_encoder_soft_hard_agree(self):
        enc = EmbeddingEncoder(5, 3, RNG)
        y = np.zeros((1, 5), dtype=np.float32)
        y[0, 2] = 1.0
        np.testing.assert_allclose(ref.encode_soft(enc, Tensor(y)).data,
                                   enc.encode_hard(np.array([2])), atol=1e-5)

    def test_make_encoder_dispatch(self):
        assert isinstance(make_encoder(10, RNG, "binary"), BinaryEncoder)
        assert isinstance(make_encoder(10, RNG, "onehot"), OneHotEncoder)
        assert isinstance(make_encoder(10_000, RNG, "binary",
                                       embedding_threshold=100),
                          EmbeddingEncoder)
        with pytest.raises(ValueError):
            make_encoder(10, RNG, "bogus")


class TestAutoregressiveProperty:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(2, 9), min_size=2, max_size=5),
           st.integers(0, 4))
    def test_no_forward_leakage(self, domains, perturb_seed):
        """Changing column j must not affect logits of columns <= j."""
        model = ResMADE(domains, hidden=24, num_blocks=1,
                        rng=np.random.default_rng(0))
        rng = np.random.default_rng(perturb_seed)
        n = len(domains)
        codes = np.stack([rng.integers(0, d, size=4) for d in domains], axis=1)
        target = rng.integers(0, n)
        altered = codes.copy()
        altered[:, target] = (altered[:, target] + 1) % domains[target]
        base = ref.forward_np(model, model.encode_tuples(codes))
        pert = ref.forward_np(model, model.encode_tuples(altered))
        for col in range(target + 1):
            np.testing.assert_allclose(
                ref.logits_for(model, base, col),
                ref.logits_for(model, pert, col), atol=1e-5,
                err_msg=f"col {col} leaked from col {target}")

    def test_later_columns_do_depend_on_earlier(self):
        model = ResMADE([4, 4, 4], hidden=32, num_blocks=2,
                        rng=np.random.default_rng(1))
        codes = np.array([[0, 0, 0], [3, 0, 0]])
        out = ref.forward_np(model, model.encode_tuples(codes))
        col1 = ref.logits_for(model, out, 1)
        assert np.abs(col1[0] - col1[1]).max() > 1e-6

    def test_first_column_is_constant(self):
        """Column 0's logits are the unconditional marginal (bias only)."""
        model = ResMADE([5, 3], hidden=16, num_blocks=1,
                        rng=np.random.default_rng(2))
        codes = np.array([[0, 0], [4, 2], [2, 1]])
        out = ref.forward_np(model, model.encode_tuples(codes))
        col0 = ref.logits_for(model, out, 0)
        assert np.abs(col0 - col0[0]).max() < 1e-6


class TestForwardPaths:
    def test_tensor_and_numpy_forward_agree(self):
        model = ResMADE([4, 6, 3], hidden=24, num_blocks=2,
                        rng=np.random.default_rng(3))
        codes = RNG.integers(0, [4, 6, 3], size=(7, 3))
        x = model.encode_tuples(codes)
        np.testing.assert_allclose(ref.forward(model, Tensor(x)).data,
                                   ref.forward_np(model, x), atol=1e-4)

    def test_column_sliced_forward_agrees(self):
        model = ResMADE([4, 6, 3], hidden=24, num_blocks=1,
                        rng=np.random.default_rng(4))
        codes = RNG.integers(0, [4, 6, 3], size=(5, 3))
        x = model.encode_tuples(codes)
        full = ref.forward_np(model, x)
        h = ref.hidden_np(model, x)
        for col in range(3):
            np.testing.assert_allclose(ref.column_logits_np(model, h, col),
                                       ref.logits_for(model, full, col),
                                       atol=1e-4)

    def test_column_sliced_tensor_path_agrees(self):
        model = ResMADE([4, 5], hidden=16, num_blocks=1,
                        rng=np.random.default_rng(5))
        codes = RNG.integers(0, [4, 5], size=(3, 2))
        x = Tensor(model.encode_tuples(codes))
        full = ref.forward(model, x)
        h = ref.hidden_tensor(model, x)
        for col in range(2):
            np.testing.assert_allclose(
                ref.column_logits_from_hidden(model, h, col).data,
                ref.logits_for(model, full, col).data, atol=1e-4)

    def test_nll_matches_manual(self):
        model = ResMADE([3, 4], hidden=16, num_blocks=1,
                        rng=np.random.default_rng(6))
        codes = np.array([[1, 2], [0, 3]])
        nll = ref.nll_np(model, codes)
        logits = ref.forward_np(model, model.encode_tuples(codes))
        manual = np.zeros(2)
        for c, domain in enumerate([3, 4]):
            lg = ref.logits_for(model, logits, c)
            lg = lg - lg.max(axis=1, keepdims=True)
            logp = lg - np.log(np.exp(lg).sum(axis=1, keepdims=True))
            manual -= logp[np.arange(2), codes[:, c]]
        np.testing.assert_allclose(nll, manual, atol=1e-6)
        # The shipped NLL forward (the data loss's) on the same rows.
        mean_nll, _ = FusedDataLoss(model).forward(codes)
        assert mean_nll == pytest.approx(manual.mean(), rel=1e-5)

    def test_rejects_empty_domain_list(self):
        with pytest.raises(ValueError):
            ResMADE([], hidden=8)
