import math

import numpy as np
import pytest

from delta_ctr import layers as layers_mod
from delta_ctr import numerics as nm
from delta_ctr.layers import CtmHeadParams, EmbeddingTable
from delta_ctr.numerics import DimensionError, ParameterError, Rng, Tensor


def make_emb(vocab_sizes=(5, 4, 6), d=3, seed=0):
    s = 1.0 / math.sqrt(d)
    table = Tensor(Rng(seed).split("emb").uniform(-s, s, (sum(vocab_sizes), d)))
    return EmbeddingTable(table, list(vocab_sizes))


def make_head(d, rng):
    """Q, K, V drawn uniform in +-1/sqrt(d), one after the other from rng."""
    s = 1.0 / math.sqrt(d)
    return CtmHeadParams(*(Tensor(rng.uniform(-s, s, (d, d))) for _ in "qkv"))


class TestEmbedLookup:
    def test_exact_rows(self):
        emb = make_emb()
        idx = np.array([[2, 0, 3]])
        out = layers_mod.embed_lookup(emb, idx).value
        assert np.array_equal(out[0, 0], emb.table.value[2])
        assert np.array_equal(out[0, 1], emb.table.value[5 + 0])
        assert np.array_equal(out[0, 2], emb.table.value[5 + 4 + 3])

    def test_shared_index_identical_rows(self):
        emb = make_emb()
        out = layers_mod.embed_lookup(emb, np.array([[1, 2, 0], [1, 2, 5]])).value
        assert np.array_equal(out[0, 0], out[1, 0])
        assert np.array_equal(out[0, 1], out[1, 1])

    def test_gradient_scatter(self):
        emb = make_emb()
        idx = np.array([[1, 2, 0]])
        nm.tsum(layers_mod.embed_lookup(emb, idx)).backward()
        g = emb.table.grad
        touched = {1, 5 + 2, 9 + 0}
        for r in range(g.shape[0]):
            expected = 1.0 if r in touched else 0.0
            assert np.all(g[r] == expected)

    def test_out_of_range(self):
        emb = make_emb()
        with pytest.raises(DimensionError, match="field 1"):
            layers_mod.embed_lookup(emb, np.array([[0, 4, 0]]))


class TestCtmForward:
    def test_k_equals_n_matches_soft_attention_bitwise(self):
        rng = Rng(3)
        emb = Tensor(rng.normal(size=(4, 5, 3)))
        head = make_head(3, rng.split("h"))
        trunc, _ = layers_mod.ctm_forward(emb, head, k=5)
        soft, _ = layers_mod.soft_attention_forward(emb, head)
        assert np.array_equal(trunc.value, soft.value)

    def test_zero_projections_give_uniform_attention(self):
        rng = Rng(4)
        n, d = 4, 3
        emb = Tensor(rng.normal(size=(1, n, d)))
        head = make_head(d, rng.split("h"))
        head.w_q.value = np.zeros((d, d))
        head.w_k.value = np.zeros((d, d))
        out, state = layers_mod.ctm_forward(emb, head, k=n)
        np.testing.assert_allclose(state.weights, 1.0 / n, atol=1e-15)
        # uniform theta x V = column mean of V replicated per row
        v = emb.value[0] @ head.w_v.value
        expected = np.tile(v.mean(axis=0), n)
        np.testing.assert_allclose(out.value[0], expected, atol=1e-12)

    def test_crafted_row_truncation(self):
        # n=3, d=1: row weights [0.5, 0.3, 0.2], k=2 -> [0.5, 0.3, 0]
        w = Tensor(np.array([[0.5, 0.3, 0.2]]))
        theta, mask = nm.topk_truncate(w, 2)
        np.testing.assert_allclose(theta.value, [[0.5, 0.3, 0.0]])
        assert np.array_equal(mask, [[True, True, False]])

    def test_bad_k(self):
        rng = Rng(5)
        emb = Tensor(rng.normal(size=(1, 3, 2)))
        head = make_head(2, rng.split("h"))
        with pytest.raises(ParameterError):
            layers_mod.ctm_forward(emb, head, k=0)
        with pytest.raises(ParameterError):
            layers_mod.ctm_forward(emb, head, k=4)

    def test_gradients_vs_finite_differences(self):
        rng = Rng(6)
        emb = Tensor(rng.normal(size=(2, 4, 3)))
        head = make_head(3, rng.split("h"))
        weights = rng.normal(size=(2, 12))

        def f():
            out, _ = layers_mod.ctm_forward(emb, head, k=2)
            return nm.tsum(nm.mul(out, weights))

        params = [emb, head.w_q, head.w_k, head.w_v]
        analytic = nm.grad_of(f, params)
        numeric = nm.finite_difference_grad(f, params)
        assert nm.max_relative_error(analytic, numeric) < 1e-4


class TestTopkTruncate:
    def test_k_equals_n_identity(self):
        w = nm.softmax_rows(Tensor(Rng(7).normal(size=(5, 5)))).value
        theta, _ = nm.topk_truncate(Tensor(w), 5)
        assert np.array_equal(theta.value, w)

    def test_k_one_keeps_row_max(self):
        w = nm.softmax_rows(Tensor(Rng(8).normal(size=(6, 6)))).value
        theta, mask = nm.topk_truncate(Tensor(w), 1)
        for i in range(6):
            j = w[i].argmax()
            assert mask[i, j]
            assert mask[i].sum() == 1
            assert theta.value[i, j] == w[i, j]

    def test_tie_break_lower_column(self):
        w = Tensor(np.full((1, 4), 0.25))
        theta, mask = nm.topk_truncate(w, 2)
        assert np.array_equal(mask, [[True, True, False, False]])

    def test_truncation_mass(self):
        w = nm.softmax_rows(Tensor(Rng(9).normal(size=(5, 5)))).value
        for k in range(1, 6):
            theta, _ = nm.topk_truncate(Tensor(w), k)
            sums = theta.value.sum(axis=-1)
            if k == 5:
                np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            else:
                assert np.all(sums < 1.0)

    def test_sparsity_exact_k(self):
        w = nm.softmax_rows(Tensor(Rng(10).normal(size=(7, 7)))).value
        for k in (1, 3, 7):
            theta, _ = nm.topk_truncate(Tensor(w), k)
            assert np.all((theta.value != 0).sum(axis=-1) == k)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_containment(self, seed):
        w = nm.softmax_rows(Tensor(Rng(seed).normal(size=(6, 6)))).value
        prev = None
        for k in range(1, 7):
            _, mask = nm.topk_truncate(Tensor(w), k)
            if prev is not None:
                assert np.all(mask | ~prev)  # prev subset of mask
            prev = mask

    def test_global_scope(self):
        w = nm.softmax_rows(Tensor(Rng(11).normal(size=(1, 3, 3)))).value
        theta, mask = layers_mod.topk_truncate(Tensor(w), 2, scope="global")
        assert mask.sum() == 6  # k*n survivors over the whole matrix
        kept = np.sort(w.reshape(-1))[-6:]
        assert np.allclose(np.sort(theta.value[theta.value != 0]), kept)


class TestEfgFuse:
    def test_zero_logits_equal_mix(self):
        rng = Rng(12)
        e = Tensor(rng.normal(size=(2, 6)))
        enh = Tensor(rng.normal(size=(2, 6)))
        out = layers_mod.efg_fuse(e, enh, Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.value, 0.5 * e.value + 0.5 * enh.value, atol=1e-15)

    def test_saturated_gate_selects_original(self):
        rng = Rng(13)
        e = Tensor(rng.normal(size=(2, 6)))
        enh = Tensor(rng.normal(size=(2, 6)))
        out = layers_mod.efg_fuse(e, enh, Tensor(np.full(6, 20.0)))
        np.testing.assert_allclose(out.value, e.value, atol=1e-8)

    def test_saturated_gate_selects_enhanced(self):
        rng = Rng(14)
        e = Tensor(rng.normal(size=(2, 6)))
        enh = Tensor(rng.normal(size=(2, 6)))
        out = layers_mod.efg_fuse(e, enh, Tensor(np.full(6, -20.0)))
        np.testing.assert_allclose(out.value, enh.value, atol=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            layers_mod.efg_fuse(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))), Tensor(np.zeros(5)))

    def test_gate_gradient_fd(self):
        rng = Rng(15)
        e = Tensor(rng.normal(size=(2, 6)))
        enh = Tensor(rng.normal(size=(2, 6)))
        gate = Tensor(rng.normal(size=(6,)))
        weights = rng.normal(size=(2, 6))

        def f():
            return nm.tsum(nm.mul(layers_mod.efg_fuse(e, enh, gate), weights))

        analytic = nm.grad_of(f, [gate, e, enh])
        numeric = nm.finite_difference_grad(f, [gate, e, enh])
        assert nm.max_relative_error(analytic, numeric) < 1e-4


class TestSparseAggregation:
    def test_matches_dense(self):
        rng = Rng(16)
        b, n, d, k = 3, 6, 4, 2
        w = nm.softmax_rows(Tensor(rng.normal(size=(b, n, n)))).value
        theta, mask = nm.topk_truncate(Tensor(w), k)
        v = rng.normal(size=(b, n, d))
        dense = theta.value @ v
        order = np.argsort(-w, axis=-1, kind="stable")[..., :k]
        vals = np.take_along_axis(w, order, axis=-1)
        sparse, ops = layers_mod.truncated_aggregate_sparse(vals, order, v)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)
        assert ops == 2 * b * n * k * d

    def test_op_count_linear_in_k(self):
        n, d, h = 39, 10, 2
        counts = []
        for k in (5, 10, 20, 39):
            rng = Rng(k)
            w = nm.softmax_rows(Tensor(rng.normal(size=(1, n, n)))).value
            order = np.argsort(-w, axis=-1, kind="stable")[..., :k]
            vals = np.take_along_axis(w, order, axis=-1)
            total = 0
            for _ in range(h):
                _, ops = layers_mod.truncated_aggregate_sparse(vals, order, rng.normal(size=(1, n, d)))
                total += ops
            counts.append(total)
        ks = np.array([5, 10, 20, 39], dtype=float)
        fit = np.polyfit(ks, counts, 1)
        resid = counts - np.polyval(fit, ks)
        r2 = 1 - resid.var() / np.var(counts)
        assert r2 > 0.95
