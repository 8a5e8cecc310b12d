import math

import numpy as np
import pytest

from delta_ctr import eeo as eeo_mod
from delta_ctr import numerics as nm
from delta_ctr.eeo import CrossLayerParams, EeoBranch
from delta_ctr.numerics import DimensionError, Rng, Tensor


def eeo_reference(e_flat, branch):
    """Straight-line reimplementation of the cross-net branch in raw numpy,
    independent of the autodiff path."""
    x0 = e_flat
    x = e_flat
    for p in branch.layers:
        x = x0 * (x @ p.weight.value)[:, None] + p.bias.value + x
    return x @ branch.head_weight.value[:, 0] + branch.head_bias.value[0]


def make_branch(m, depth, rng):
    """Cross layers (weight, then bias), then the head weight, drawn uniform
    in +-1/sqrt(m) one after the other from rng; the head bias is 0."""
    s = 1.0 / math.sqrt(m)
    layers = [CrossLayerParams(*(Tensor(rng.uniform(-s, s, (m,))) for _ in "wb")) for _ in range(depth)]
    return EeoBranch(layers, Tensor(rng.uniform(-s, s, (m, 1))), Tensor([0.0]))


class TestCrossLayer:
    def test_zero_params_residual_identity(self):
        m = 5
        x0 = Tensor(Rng(0).normal(size=(2, m)))
        xl = Tensor(Rng(1).normal(size=(2, m)))
        p = CrossLayerParams(weight=Tensor(np.zeros(m)), bias=Tensor(np.zeros(m)))
        out = nm.cross(x0, xl, p.weight, p.bias)
        assert np.array_equal(out.value, xl.value)

    def test_ones_hand_arithmetic(self):
        m = 4
        ones = Tensor(np.ones((1, m)))
        p = CrossLayerParams(weight=Tensor(np.ones(m)), bias=Tensor(np.zeros(m)))
        out = nm.cross(ones, ones, p.weight, p.bias)
        # inner product = m, so x0 * m + 0 + x = (m + 1) * ones
        np.testing.assert_allclose(out.value, (m + 1) * np.ones((1, m)))

    def test_length_mismatch(self):
        p = CrossLayerParams(weight=Tensor(np.zeros(3)), bias=Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            nm.cross(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))), p.weight, p.bias)

    def test_gradient_fd(self):
        rng = Rng(2)
        m = 4
        x0 = Tensor(rng.normal(size=(2, m)))
        xl = Tensor(rng.normal(size=(2, m)))
        p = CrossLayerParams(weight=Tensor(rng.normal(size=(m,))), bias=Tensor(rng.normal(size=(m,))))
        weights = rng.normal(size=(2, m))

        def f():
            return nm.tsum(nm.mul(nm.cross(x0, xl, p.weight, p.bias), weights))

        params = [x0, xl, p.weight, p.bias]
        analytic = nm.grad_of(f, params)
        numeric = nm.finite_difference_grad(f, params)
        assert nm.max_relative_error(analytic, numeric) < 1e-4


class TestEeoForward:
    def test_all_zero_input_zero_bias_gives_head_bias(self):
        m = 6
        branch = make_branch(m, 2, Rng(3).split("b"))
        for p in branch.layers:
            p.bias.value = np.zeros(m)
        branch.head_bias.value = np.array([0.37])
        out = eeo_mod.eeo_forward(Tensor(np.zeros((2, m))), branch)
        np.testing.assert_allclose(out.value, 0.37)

    def test_depth1_zero_weight_residual_only(self):
        m = 4
        rng = Rng(4)
        branch = make_branch(m, 1, rng.split("b"))
        branch.layers[0].weight.value = np.zeros(m)
        branch.layers[0].bias.value = np.zeros(m)
        x = rng.normal(size=(3, m))
        out = eeo_mod.eeo_forward(Tensor(x), branch)
        expected = x @ branch.head_weight.value[:, 0] + branch.head_bias.value[0]
        np.testing.assert_allclose(out.value, expected, atol=1e-12)

    def test_matches_straight_line_reference(self):
        m = 8
        rng = Rng(5)
        branch = make_branch(m, 3, rng.split("b"))
        x = rng.normal(size=(4, m))
        out = eeo_mod.eeo_forward(Tensor(x), branch)
        np.testing.assert_allclose(out.value, eeo_reference(x, branch), atol=1e-12)


class TestEeoFm:
    def test_two_fields_dim1_is_product(self):
        a, b = 0.7, -1.3
        emb = Tensor(np.array([[[a], [b]]]))
        bias = Tensor([0.25])
        out = eeo_mod.eeo_fm_forward(emb, bias)
        np.testing.assert_allclose(out.value, [a * b + 0.25], atol=1e-14)

    def test_zero_embeddings_give_bias(self):
        out = eeo_mod.eeo_fm_forward(Tensor(np.zeros((3, 4, 2))), Tensor([1.5]))
        np.testing.assert_allclose(out.value, 1.5)

    def test_matches_pairwise_double_loop(self):
        rng = Rng(6)
        e = rng.normal(size=(2, 3, 2))
        bias = 0.1
        out = eeo_mod.eeo_fm_forward(Tensor(e), Tensor([bias]))
        for r in range(2):
            expected = bias
            for i in range(3):
                for j in range(i + 1, 3):
                    expected += float(e[r, i] @ e[r, j])
            np.testing.assert_allclose(out.value[r], expected, atol=1e-12)

    def test_needs_two_fields(self):
        with pytest.raises(DimensionError):
            eeo_mod.eeo_fm_forward(Tensor(np.zeros((1, 1, 3))), Tensor([0.0]))
