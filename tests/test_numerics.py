import hashlib
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from delta_ctr import layers as layers_mod
from delta_ctr import numerics as nm
from delta_ctr.numerics import (
    DimensionError,
    GraphError,
    ParameterError,
    Rng,
    Tensor,
)


def matmul_oracle(a, b):
    """Brute-force triple loop."""
    m, k = a.shape
    k2, p = b.shape
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        b = np.arange(6.0).reshape(2, 3)
        out = nm.matmul(Tensor(np.eye(2)), Tensor(b))
        assert np.array_equal(out.value, b)

    def test_hand_example(self):
        out = nm.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.value, [[17.0], [39.0]])

    def test_against_triple_loop(self):
        rng = Rng(11)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = nm.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.value, matmul_oracle(a, b), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_1d_right_operand_rejected(self):
        # numpy's forward takes it, and the backward then fails on its axes
        with pytest.raises(DimensionError, match=r"at least 2-D, got \(3, 4\) x \(4,\)"):
            nm.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones(4)))

    def test_1d_left_operand_rejected(self):
        with pytest.raises(DimensionError, match=r"at least 2-D, got \(4,\) x \(4, 2\)"):
            nm.matmul(Tensor(np.ones(4)), Tensor(np.ones((4, 2))))

    def test_backward_formula(self):
        a = Tensor(Rng(1).normal(size=(3, 4)))
        b = Tensor(Rng(2).normal(size=(4, 2)))
        out = nm.tsum(nm.matmul(a, b))
        out.backward()
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.value.T)
        np.testing.assert_allclose(b.grad, a.value.T @ g)


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = nm.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]])

    def test_shift_invariance(self):
        x = Rng(5).normal(size=(4, 6))
        a = nm.softmax_rows(Tensor(x)).value
        b = nm.softmax_rows(Tensor(x + 123.456)).value
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_direct_formula(self):
        x = np.array([[1.0, 2.0, 3.0]])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(nm.softmax_rows(Tensor(x)).value, expected, rtol=1e-15)

    def test_rows_sum_to_one(self):
        for seed in range(20):
            x = Rng(seed).normal(scale=10, size=(5, 7))
            out = nm.softmax_rows(Tensor(x)).value
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
            assert np.all(out > 0) and np.all(out <= 1)


class TestSigmoid:
    def test_zero(self):
        assert nm.sigmoid(Tensor([0.0])).value[0] == 0.5

    def test_symmetry(self):
        x = Rng(3).normal(size=(10,))
        s = nm.sigmoid(Tensor(x)).value + nm.sigmoid(Tensor(-x)).value
        np.testing.assert_allclose(s, 1.0, atol=1e-14)

    def test_direct_formula(self):
        np.testing.assert_allclose(
            nm.sigmoid(Tensor([2.0])).value[0], 1.0 / (1.0 + np.exp(-2.0)), rtol=1e-15
        )

    def test_open_interval(self):
        out = nm.sigmoid(Tensor([-500.0, 500.0])).value
        assert np.all(out > 0) and np.all(out < 1)


class TestRelu:
    def test_values(self):
        out = nm.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.value, [0.0, 0.0, 2.0])

    def test_nonnegative_identity(self):
        x = np.abs(Rng(4).normal(size=(8,)))
        assert np.array_equal(nm.relu(Tensor(x)).value, x)

    def test_gradient(self):
        x = Tensor([3.0, -3.0, 0.0])
        nm.tsum(nm.relu(x)).backward()
        assert np.array_equal(x.grad, [1.0, 0.0, 0.0])


class TestDropout:
    def test_rate_zero_identity(self):
        x = Rng(6).normal(size=(100,))
        out = nm.dropout(Tensor(x), 0.0, Rng(0), training=True)
        assert np.array_equal(out.value, x)

    def test_inference_identity(self):
        x = Rng(6).normal(size=(100,))
        out = nm.dropout(Tensor(x), 0.9, Rng(0), training=False)
        assert np.array_equal(out.value, x)

    def test_statistics(self):
        x = np.ones(10**6)
        out = nm.dropout(Tensor(x), 0.5, Rng(123), training=True).value
        survivors = np.count_nonzero(out) / x.size
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.mean() - 1.0) < 0.01  # inverted scaling preserves the mean

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            nm.dropout(Tensor([1.0]), 1.0, Rng(0), training=True)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.7])
    def test_bool_mask_bitwise_equal_to_float_mask(self, rate):
        # signed zeros, infinities, NaN and a value whose scaled survivor
        # overflows, among ordinary values, in the input and the upstream
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 2.5])
        x = np.concatenate([np.tile(special, 12), Rng(60).normal(size=(40,))])
        upstream = np.roll(x, 3)
        m = (Rng(61).random(x.shape) >= rate) / (1.0 - rate)  # the float mask
        a = Tensor(x.copy())
        with np.errstate(over="ignore", invalid="ignore"):
            out = nm.dropout(a, rate, Rng(61), training=True)
            assert_same_bits(out.value, x * m)
            nm.tsum(nm.mul(out, upstream)).backward()
            assert_same_bits(a.grad, upstream * m)


class TestGradOf:
    def test_square(self):
        x = Tensor([3.0])
        (g,) = nm.grad_of(lambda: nm.tsum(nm.mul(x, x)), [x])
        np.testing.assert_allclose(g, [6.0])

    def test_softmax_sum_constant(self):
        m = Tensor(Rng(8).normal(size=(3, 5)))
        (g,) = nm.grad_of(lambda: nm.tsum(nm.softmax_rows(m)), [m])
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_three_layer_composition_fd(self):
        rng = Rng(9)
        w1 = Tensor(rng.normal(size=(4, 5)))
        w2 = Tensor(rng.normal(size=(5, 3)))
        w3 = Tensor(rng.normal(size=(3, 1)))
        x = rng.normal(size=(2, 4))

        def f():
            h = nm.relu(nm.matmul(Tensor(x, requires_grad=False), w1))
            h = nm.sigmoid(nm.matmul(h, w2))
            return nm.tsum(nm.matmul(h, w3))

        analytic = nm.grad_of(f, [w1, w2, w3])
        numeric = nm.finite_difference_grad(f, [w1, w2, w3])
        assert nm.max_relative_error(analytic, numeric) < 1e-4

    def test_non_tensor_rejected(self):
        with pytest.raises(GraphError):
            nm.grad_of(lambda: 3.0, [Tensor([1.0])])
        with pytest.raises(GraphError):
            nm.grad_of(lambda: Tensor([1.0]), [np.zeros(2)])


class TestBackwardConsumesGraph:
    def build(self):
        rng = Rng(10)
        a, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)))
        hidden = [nm.matmul(a, b)]
        hidden.append(nm.relu(hidden[0]))
        hidden.append(nm.mul(hidden[1], hidden[1]))
        return a, b, hidden, nm.tsum(hidden[2])

    def test_intermediates_released_leaves_and_root_keep_gradients(self):
        a, b, hidden, loss = self.build()
        loss.backward()
        for t in hidden + [loss]:
            assert t._parents == () and t._backward is nm._consumed
        assert all(t.grad is None for t in hidden)
        assert loss.grad == 1.0 and a.grad is not None and b.grad is not None

    def test_backward_through_a_consumed_node_raises(self):
        _, _, hidden, loss = self.build()
        other = nm.tsum(hidden[1])  # shares the consumed relu and matmul nodes
        loss.backward()
        with pytest.raises(GraphError, match="consumed"):
            other.backward()


@pytest.mark.parametrize("seed", range(100))
def test_backward_matches_finite_differences(seed):
    """Property: analytic backward agrees with central differences within
    1e-4 relative error over random shapes and seeds."""
    rng = Rng(seed).split("prop")
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, 5))
    p = int(rng.integers(1, 4))
    a = Tensor(rng.normal(size=(m, k)))
    b = Tensor(rng.normal(size=(k, p)))
    weights = rng.normal(size=(m, p))

    def f():
        h = nm.matmul(a, b)
        h = nm.softmax_rows(nm.add(h, nm.relu(h)))
        return nm.tsum(nm.mul(nm.sigmoid(h), weights))

    analytic = nm.grad_of(f, [a, b])
    numeric = nm.finite_difference_grad(f, [a, b])
    assert nm.max_relative_error(analytic, numeric) < 1e-4


class TestConcat:
    def test_pieces_are_views_of_the_gradient_and_meet_again(self):
        # concat([x, x]): the first piece becomes x's gradient uncopied,
        # and the second is added into it
        rng = Rng(73)
        x = Tensor(rng.normal(size=(3, 2)))
        upstream = rng.normal(size=(3, 4))
        nm.tsum(nm.mul(nm.concat([x, x], axis=-1), upstream)).backward()
        assert_same_bits(x.grad, upstream[:, :2] + upstream[:, 2:])
        assert x.grad.base is not None and x.grad.base.shape == (3, 4)

    def test_a_root_concat_keeps_its_gradient(self):
        x = Tensor([2.0])
        root = nm.concat([x])
        root.backward()
        x.grad += 5.0  # x's gradient is no view of the root's
        assert root.grad.tolist() == [1.0] and x.grad.tolist() == [6.0]


def test_concurrently_on_the_worker_raises():
    """The one worker would wait on itself. The call runs on a fresh pool,
    so a hang stays out of the pool the other tests use, and cancelling
    what is queued there frees a worker that waits on itself."""
    pool = nm._branch_pool
    nm._branch_pool = None
    errors = []

    def nested():
        try:
            nm.concurrently(lambda: None, lambda: nm.concurrently(lambda: 1, lambda: 2))
        except GraphError as e:
            errors.append(e)

    try:
        caller = threading.Thread(target=nested, daemon=True)
        caller.start()
        caller.join(timeout=10)
        hung = caller.is_alive()
    finally:
        nm._branch_pool.shutdown(wait=False, cancel_futures=True)
        nm._branch_pool = pool
    assert not hung, "concurrently() on the worker hung"
    assert len(errors) == 1 and "worker" in str(errors[0])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's malloc arenas")
def test_the_worker_allocates_from_the_callers_heap():
    """A fresh process that has run work on the worker reports one malloc
    arena, so where a freed array of either thread sits does not depend on
    how the two interleave."""
    probe = (
        "import ctypes, numpy as np\n"
        "from delta_ctr import numerics as nm\n"
        "nm.concurrently(lambda: np.ones((400, 1000)).sum(), lambda: np.ones((400, 1000)).sum())\n"
        "ctypes.CDLL(None).malloc_stats()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nm.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.count("Arena ") == 1, out.stderr


@pytest.mark.parametrize("case", ["add_self", "reshape", "concat"])
def test_passed_on_gradients_that_meet_again_match_finite_differences(case):
    """A first gradient that passes the incoming one on whole is copied, so
    a later accumulation into the same node cannot write into another's:
    add(x, x) and a reshape that meets x again each still give the
    gradcheck-correct gradient, and so does a concat whose pieces, views
    that do not overlap, meet again."""
    rng = Rng(7)
    x = Tensor(rng.normal(size=(3, 4)))
    v = Tensor(rng.normal(size=(4, 4)))
    width = {"add_self": 4, "reshape": 4, "concat": 12}[case]
    w = Tensor(rng.normal(size=(width, 5)))
    weights = rng.normal(size=(3, 5))

    def f():
        if case == "add_self":
            z = nm.add(nm.add(x, x), x)
        elif case == "reshape":
            z = nm.add(nm.reshape(nm.reshape(x, (12,)), (3, 4)), x)
        else:
            z = nm.concat([x, nm.matmul(x, v), x], axis=-1)
        return nm.tsum(nm.mul(nm.relu(nm.matmul(z, w)), weights))

    analytic = nm.grad_of(f, [x, v, w])
    numeric = nm.finite_difference_grad(f, [x, v, w])
    assert nm.max_relative_error(analytic, numeric) < 1e-6


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).split("x").normal(size=(10,))
        b = Rng(42).split("x").normal(size=(10,))
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = Rng(42).split("x").normal(size=(10,))
        b = Rng(42).split("y").normal(size=(10,))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("draw", [
        lambda g: g.uniform(-0.5, 0.5, (3, 4)),
        lambda g: g.random((5,)),
        lambda g: g.permutation(17),
        lambda g: g.integers(0, 9, (2, 6)),
        lambda g: g.normal(scale=3.0, size=(4, 2)),
    ], ids=["uniform", "random", "permutation", "integers", "normal"])
    def test_draws_what_a_philox_generator_keyed_by_seed_and_path_draws(self, draw):
        rng = Rng(42).split(("epoch", 3)).split(("batch", 1))  # as fit keys a batch
        digest = hashlib.sha256(repr((42, (("epoch", 3), ("batch", 1)))).encode()).digest()
        bare = np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16], dtype=np.uint64)))
        assert isinstance(rng, np.random.Generator)
        assert draw(rng).tobytes() == draw(bare).tobytes()


def test_topk_mask_bad_k():
    with pytest.raises(ParameterError):
        nm.topk_mask(np.ones((2, 3)), 4)
    with pytest.raises(ParameterError):
        nm.topk_mask(np.ones((2, 3)), 0)


def topk_oracle(w, k):
    """The stable-argsort selection: ties to the lower index, NaN last."""
    mask = np.zeros(w.shape, dtype=bool)
    np.put_along_axis(mask, np.argsort(-w, axis=-1, kind="stable")[..., :k], True, axis=-1)
    return mask


# few distinct values, so that ties at the cutoff are common
TIED_VALUES = [0.0, -0.0, 0.125, 0.25, 0.5, 1.0, np.inf, -np.inf]


@st.composite
def tied_weights(draw, n, lead):
    """An array of shape lead + (n,) drawn from TIED_VALUES, with some rows
    set all equal and some rows given a NaN."""
    w = draw(hnp.arrays(np.float64, lead + (n,), elements=st.sampled_from(TIED_VALUES)))
    rows = w.reshape(-1, n)
    flags = st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))
    for i, (flat, nan) in enumerate(zip(draw(flags), draw(flags))):
        if flat:
            rows[i] = draw(st.sampled_from(TIED_VALUES))
        if nan:
            rows[i, draw(st.integers(0, n - 1))] = np.nan
    return w


@st.composite
def row_case(draw):
    n = draw(st.integers(1, 40))
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    return draw(tied_weights(n, lead))


@st.composite
def square_case(draw):
    n = draw(st.integers(1, 6))
    return draw(tied_weights(n, (draw(st.integers(1, 3)), n)))


class TestTopkMaskProperty:
    @settings(max_examples=200, deadline=None)
    @given(row_case())
    def test_matches_stable_argsort(self, w):
        n = w.shape[-1]
        for k in range(1, n + 1):
            mask = nm.topk_mask(w, k)
            assert mask.shape == w.shape and mask.dtype == bool
            assert np.array_equal(mask, topk_oracle(w, k)), k
            assert np.all(mask.sum(axis=-1) == k)

    @settings(max_examples=100, deadline=None)
    @given(row_case())
    def test_k_equals_n_passes_weights_through(self, w):
        n = w.shape[-1]
        theta, mask = nm.topk_truncate(Tensor(w), n)
        assert mask.all()
        assert theta.value.tobytes() == w.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(square_case())
    def test_global_scope_matches_flat_oracle(self, w):
        b, n, _ = w.shape
        flat = w.reshape(b, n * n)
        for k in range(1, n + 1):
            theta, mask = layers_mod.topk_truncate(Tensor(w), k, scope="global")
            expected = topk_oracle(flat, k * n)
            assert np.array_equal(mask.reshape(b, n * n), expected), k
            assert theta.value.tobytes() == np.where(expected, flat, 0.0).reshape(w.shape).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    )
)
def test_softmax_rows_matches_three_temporary_formula(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    expected = e / e.sum(axis=-1, keepdims=True)
    before = x.copy()
    assert nm.softmax_rows(Tensor(x)).value.tobytes() == expected.tobytes()
    assert x.tobytes() == before.tobytes()  # the input is not overwritten


# -- fused primitives against the composed primitives they replace --


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def composed_head(emb, head, k, scope):
    b, n, d = emb.shape
    w = layers_mod.attention_weights(emb, head)
    theta, mask = layers_mod.topk_truncate(w, k, scope)
    out = nm.reshape(nm.matmul(theta, nm.matmul(emb, head.w_v)), (b, n * d))
    return out, w.value, theta.value, mask


def fused_head(emb, head, k, scope):
    """The fused head's (out, weights, truncated weights, mask), θ derived
    from the weights and the mask."""
    out, w, mask = nm.ctm_head(emb, head.w_q, head.w_k, head.w_v, k, scope)
    return out, w, np.where(mask, w, 0.0), mask


def make_head(d, rng):
    """Q, K, V drawn uniform in +-1/sqrt(d), one after the other from rng."""
    s = 1.0 / math.sqrt(d)
    return layers_mod.CtmHeadParams(*(Tensor(rng.uniform(-s, s, (d, d))) for _ in "qkv"))


def compare_heads(emb, head, k, scope, reference=composed_head):
    """Fused and reference heads agree bit for bit in value, weights, mask
    and every gradient."""
    params = [emb, head.w_q, head.w_k, head.w_v]
    upstream = np.arange(emb.value[0].size, dtype=np.float64).reshape(1, -1) / 7.0 - 1.0
    got = fused_head(emb, head, k, scope)
    want = reference(emb, head, k, scope)
    for a, b in zip(got[:3], want[:3]):
        assert_same_bits(a if isinstance(a, np.ndarray) else a.value,
                         b if isinstance(b, np.ndarray) else b.value)
    assert np.array_equal(got[3], want[3])
    g_got = nm.grad_of(lambda: nm.tsum(nm.mul(fused_head(emb, head, k, scope)[0], upstream)), params)
    g_want = nm.grad_of(lambda: nm.tsum(nm.mul(reference(emb, head, k, scope)[0], upstream)), params)
    for a, b in zip(g_got, g_want):
        assert_same_bits(a, b)
    return got


class TestCtmHead:
    @pytest.mark.parametrize("scope", ["row", "global"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bitwise_equal_to_composed_primitives(self, k, scope):
        # batches within one of the head's slices, one instance into a
        # second, and ending inside a third
        size = nm.head_slice(6)
        for b in (5, size + 1, 2 * size + 100):
            rng = Rng(20 + k)
            emb = Tensor(rng.normal(size=(b, 6, 3)))
            head = make_head(3, rng.split("h"))
            _, _, theta, mask = compare_heads(emb, head, k, scope)
            if scope == "row":
                assert np.all(mask.sum(axis=-1) == k)
            else:
                assert np.all(mask.sum(axis=(-2, -1)) == k * 6)
            assert np.all(theta[~mask] == 0)

    @pytest.mark.parametrize("scope", ["row", "global"])
    def test_nan_instance_in_the_second_slice(self, scope, monkeypatch):
        # the second slice holds only the NaN instance, and the first none
        b = nm.head_slice(6) + 1
        rng = Rng(50)
        emb = Tensor(rng.normal(size=(b, 6, 3)))
        emb.value[-1, 2, 0] = np.nan
        head = make_head(3, rng.split("h"))
        flags, truncated = [], nm._truncated
        monkeypatch.setattr(nm, "_truncated", lambda ws, mask, nan: flags.append(nan) or truncated(ws, mask, nan))
        _, w, theta, mask = compare_heads(emb, head, 2, scope)
        assert np.isnan(w[-1]).all() and not np.isnan(w[:-1]).any()
        assert np.all(theta[~mask] == 0)
        # np.where in the NaN slice only: two forwards and one backward
        assert flags == [False, True] * 3

    def test_row_max_equals_max_over_the_last_axis(self):
        # rows with NaN, +-inf and ties of +0.0 and -0.0 at every position
        rng = Rng(72)
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1.0])
        for n in (1, 3, 39):
            ws = values[rng.integers(0, len(values), (4, n, n))]
            ws[0] = np.where(rng.random((n, n)) < 0.5, 0.0, -0.0)
            got, want = nm._row_max(ws), ws.max(axis=-1, keepdims=True)
            assert np.array_equal(got, want, equal_nan=True)
            with np.errstate(invalid="ignore"):  # the softmax reads the max only this way
                assert_same_bits(np.exp(ws - got), np.exp(ws - want))

    def test_truncated_weights_are_np_where(self):
        w = np.array([[[0.25, 0.0, 0.75], [np.nan, np.nan, np.nan]]])
        mask = np.array([[[True, True, False], [True, False, False]]])
        assert_same_bits(nm._truncated(w, mask, True), np.where(mask, w, 0.0))
        assert_same_bits(nm._truncated(w[:, :1], mask[:, :1], False), np.where(mask[:, :1], w[:, :1], 0.0))

    @pytest.mark.parametrize("scope", ["row", "global"])
    def test_k_equals_n_bitwise_equal_to_soft_attention(self, scope):
        rng = Rng(30)
        emb = Tensor(rng.normal(size=(4, 5, 3)))
        head = make_head(3, rng.split("h"))

        def soft(emb, head, k, scope):
            out, state = layers_mod.soft_attention_forward(emb, head)
            return out, state.weights, state.weights, state.kept_mask

        _, w, theta, mask = compare_heads(emb, head, 5, scope, reference=soft)
        assert mask.all()
        assert_same_bits(theta, w)

    @pytest.mark.parametrize("scope", ["row", "global"])
    def test_backward_keeps_weights_and_mask_but_not_truncated_weights(self, scope):
        rng = Rng(40)
        emb = Tensor(rng.normal(size=(3, 5, 2)))
        head = make_head(2, rng.split("h"))
        out, w, mask = nm.ctm_head(emb, head.w_q, head.w_k, head.w_v, 2, scope)
        kept, todo = [], [out._backward]
        while todo:  # the closure's cells, and those of the functions it holds
            for cell in getattr(todo.pop(), "__closure__", None) or ():
                kept.append(cell.cell_contents)
                if callable(cell.cell_contents):
                    todo.append(cell.cell_contents)
        assert any(v is w for v in kept) and any(v is mask for v in kept)
        # no other (B, n, n) array, such as the truncated weights
        assert not any(isinstance(v, np.ndarray) and v.shape == w.shape and v is not w and v is not mask
                       for v in kept)

    def test_unknown_scope(self):
        w = Tensor(np.eye(2))
        with pytest.raises(ParameterError, match="colum"):
            nm.ctm_head(Tensor(np.zeros((1, 3, 2))), w, w, w, 2, scope="colum")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tied_and_nan_weights_match_composed_and_stable_sort(self, data):
        # few distinct entries give tied scores; zero projections give
        # all-equal rows; a NaN entry turns every weight of its instance NaN
        b, n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        entries = st.sampled_from([0.0, 0.5, 1.0, -1.0])
        x = data.draw(hnp.arrays(np.float64, (b, n, d), elements=entries))
        if data.draw(st.booleans()):
            x[data.draw(st.integers(0, b - 1)), data.draw(st.integers(0, n - 1)), 0] = np.nan
        mats = [data.draw(hnp.arrays(np.float64, (d, d), elements=entries)) for _ in range(3)]
        if data.draw(st.booleans()):
            mats[0][:] = 0.0
        head = layers_mod.CtmHeadParams(*(Tensor(m) for m in mats))
        k = data.draw(st.integers(1, n))
        scope = data.draw(st.sampled_from(["row", "global"]))
        _, w, theta, mask = compare_heads(Tensor(x), head, k, scope)
        flat = w.reshape(b, n * n) if scope == "global" else w
        want = topk_oracle(flat, k * n if scope == "global" else k)
        assert np.array_equal(mask, want.reshape(w.shape))
        assert_same_bits(theta, np.where(mask, w, 0.0))


SPECIAL_VALUES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0, -2.0]


class TestDense:
    def test_bitwise_equal_to_composed_primitives(self):
        rng = Rng(40)
        x, w, b = Tensor(rng.normal(size=(6, 5))), Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(4,)))
        x.value[0, :] = 0.0  # preactivations of exactly the bias, one of them 0 below
        b.value[1] = 0.0
        upstream = rng.normal(size=(6, 4))

        def composed():
            return nm.relu(nm.add(nm.matmul(x, w), b))

        assert_same_bits(nm.dense(x, w, b).value, composed().value)
        assert nm.dense(x, w, b).value[0, 1] == 0.0
        for a, c in zip(nm.grad_of(lambda: nm.tsum(nm.mul(nm.dense(x, w, b), upstream)), [x, w, b]),
                        nm.grad_of(lambda: nm.tsum(nm.mul(composed(), upstream)), [x, w, b])):
            assert_same_bits(a, c)

    def test_special_preactivations_bitwise_equal_to_composed_primitives(self):
        # x @ w + b with x = 1 and b = -0.0 gives w's entries as preactivations
        # (but +0.0 for -0.0: the product sums from +0.0)
        x = Tensor(np.ones((3, 1)))
        w = Tensor(np.array([SPECIAL_VALUES]))
        b = Tensor(np.full(len(SPECIAL_VALUES), -0.0))
        upstream = np.arange(3 * len(SPECIAL_VALUES), dtype=np.float64).reshape(3, -1) - 7.0

        def composed():
            return nm.relu(nm.add(nm.matmul(x, w), b))

        out = nm.dense(x, w, b).value
        assert_same_bits(out, composed().value)
        want = np.array([0.0, 0.0, np.inf, 0.0, 0.0, 0.0, 5e-324, 0.0, 2.0, 0.0])
        assert_same_bits(out, np.broadcast_to(want, out.shape).copy())  # every zero +0.0
        with np.errstate(invalid="ignore"):  # x's gradient reads w's NaN and inf
            got = nm.grad_of(lambda: nm.tsum(nm.mul(nm.dense(x, w, b), upstream)), [x, w, b])
            expected = nm.grad_of(lambda: nm.tsum(nm.mul(composed(), upstream)), [x, w, b])
        for a, c in zip(got, expected):
            assert_same_bits(a, c)

    def test_relu_bitwise_equal_to_relu_primitive_at_every_position(self):
        # dense cannot be fed a -0.0 preactivation; np.fmax keeps -0.0 at
        # some positions of an array and not at others
        for length in range(1, 20):
            for v in SPECIAL_VALUES:
                a = np.full(length, v)
                a[length // 2] = -v
                want = nm.relu(Tensor(a)).value
                nm._relu_inplace(a)
                assert_same_bits(a, want)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nm.dense(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))

    @pytest.mark.parametrize("rate, training", [(0.0, True), (0.3, True), (0.5, True), (0.5, False)])
    def test_with_dropout_bitwise_equal_to_dense_then_dropout(self, rate, training):
        # One row, so b's and w's gradients are the dense node's incoming
        # gradient entry by entry. With x = 1 the preactivations are w's
        # entries: 1e308 overflows when scaled by 2, and an inf turns NaN
        # when dropped. The upstream gradient holds NaN, +-inf, +-0 and
        # +-1e308, in every pairing with w's entries, kept and dropped.
        x = Tensor(np.ones((1, 1)))
        w = Tensor(np.resize([1e308, np.inf, -np.inf, 0.0, 1.0, 2.5, -2.5, -1.0], (1, 480)))
        b = Tensor(np.zeros(480))
        upstream = np.resize(SPECIAL_VALUES + [1e308, -1e308], (1, 480))

        def composed():
            return nm.dropout(nm.dense(x, w, b), rate, Rng(71), training)

        def fused():
            return nm.dense(x, w, b, rate if training else 0.0, Rng(71))

        with np.errstate(over="ignore", invalid="ignore"):
            out = fused().value
            assert_same_bits(out, composed().value)
            got = nm.grad_of(lambda: nm.tsum(nm.mul(fused(), upstream)), [x, w, b])
            want = nm.grad_of(lambda: nm.tsum(nm.mul(composed(), upstream)), [x, w, b])
        for a, c in zip(got, want):
            assert_same_bits(a, c)
        if rate == 0.5 and training:  # a kept 1e308 overflowed, a dropped inf is NaN
            assert np.isposinf(out[0, ::8]).any() and np.isnan(out[0, 1::8]).any()

    @pytest.mark.parametrize("copy_bytes", [1 << 20, 0])
    def test_strided_gradient_bitwise_equal_to_dense_then_dropout(self, copy_bytes, monkeypatch):
        # the dense output is a concat's first piece, so its gradient is a
        # strided view: written to a new array below STRIDED_COPY_BYTES and
        # updated in place from it on
        monkeypatch.setattr(nm, "STRIDED_COPY_BYTES", copy_bytes)
        rng = Rng(74)
        x, w, b, side = (Tensor(rng.normal(size=shape)) for shape in ((6, 5), (5, 4), (4,), (6, 3)))
        upstream = rng.normal(size=(6, 7))
        for rate in (0.0, 0.5):
            def loss(fused):
                h = nm.dense(x, w, b, rate, Rng(75)) if fused else nm.dropout(nm.dense(x, w, b), rate, Rng(75), True)
                return nm.tsum(nm.mul(nm.concat([h, side], axis=-1), upstream))

            got = nm.grad_of(lambda: loss(True), [x, w, b, side])
            want = nm.grad_of(lambda: loss(False), [x, w, b, side])
            for a, c in zip(got, want):
                assert_same_bits(a, c)

    def test_bad_dropout_rate(self):
        with pytest.raises(ParameterError):
            nm.dense(np.ones((1, 1)), np.ones((1, 1)), np.zeros(1), 1.0, Rng(0))


class TestGateMix:
    def test_bitwise_equal_to_composed_primitives(self):
        rng = Rng(41)
        e, enh = Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(3, 6)))
        gate = Tensor(np.array([0.0, 1.5, -2.0, 40.0, -40.0, 0.3]))  # both saturations
        upstream = rng.normal(size=(3, 6))

        def composed():
            s = nm.sigmoid(gate)
            return nm.add(nm.mul(s, e), nm.mul(nm.sub(1.0, s), enh))

        assert_same_bits(nm.gate_mix(e, enh, gate).value, composed().value)
        params = [e, enh, gate]
        for a, c in zip(nm.grad_of(lambda: nm.tsum(nm.mul(nm.gate_mix(e, enh, gate), upstream)), params),
                        nm.grad_of(lambda: nm.tsum(nm.mul(composed(), upstream)), params)):
            assert_same_bits(a, c)


def composed_cross(x0, x_l, w, b):
    proj = nm.matmul(x_l, nm.reshape(w, (w.shape[0], 1)))
    return nm.add(nm.add(nm.mul(x0, proj), b), x_l)


class TestCross:
    @pytest.mark.parametrize("shared", [False, True])
    def test_bitwise_equal_to_composed_primitives(self, shared):
        # two stacked layers from one x0, as in the cross-net; with shared,
        # the first layer's x_l is x0 itself
        rng = Rng(42)
        x0 = Tensor(rng.normal(size=(7, 5)))
        x_l = x0 if shared else Tensor(rng.normal(size=(7, 5)))
        layers = [(Tensor(rng.normal(size=(5,))), Tensor(rng.normal(size=(5,)))) for _ in range(2)]
        upstream = rng.normal(size=(7, 5))
        params = [x0, x_l] + [t for layer in layers for t in layer]

        def net(layer_fn):
            x = x_l
            for w, b in layers:
                x = layer_fn(x0, x, w, b)
            return x

        assert_same_bits(net(nm.cross).value, net(composed_cross).value)
        got = nm.grad_of(lambda: nm.tsum(nm.mul(net(nm.cross), upstream)), params)
        want = nm.grad_of(lambda: nm.tsum(nm.mul(net(composed_cross), upstream)), params)
        for a, c in zip(got, want):
            assert_same_bits(a, c)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nm.cross(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3), np.zeros(4))


class TestBce:
    # 0 and 1 sit in the clip; 1e-7 and 1 - 1e-7 sit on its edges, where
    # the gradient is 0 too; the next two sit just inside it
    EDGES = np.array([0.0, 1.0, 1e-7, 1.0 - 1e-7, 1e-7 * (1 + 1e-9), 1.0 - 1e-7 * (1 + 1e-6), 0.5, 0.25])

    @staticmethod
    def composed(y, labels):
        labels = np.asarray(labels, dtype=np.float64)
        p = nm.clip(y, 1e-7, 1.0 - 1e-7)
        pos = nm.mul(labels, nm.log(p))
        neg = nm.mul(1.0 - labels, nm.log(nm.sub(1.0, p)))
        return nm.scale(nm.tmean(nm.add(pos, neg)), -1.0)

    @pytest.mark.parametrize("labels", [[1, 0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1, 0, 1]])
    def test_bitwise_equal_to_composed_primitives_at_the_clip(self, labels):
        y = Tensor(self.EDGES.copy())
        assert nm.bce(y, labels).value.tobytes() == self.composed(y, labels).value.tobytes()
        got = nm.grad_of(lambda: nm.bce(y, labels), [y])[0]
        assert_same_bits(got, nm.grad_of(lambda: self.composed(y, labels), [y])[0])
        assert np.all(got[:4] == 0) and np.all(got[4:] != 0)

    def test_exact_values_at_zero_and_one(self):
        # a confident wrong answer costs -log(1e-7), a confident right one -log(1 - 1e-7)
        wrong, right = -np.log(1.0 - (1.0 - 1e-7)), -np.log(1.0 - 1e-7)
        assert nm.bce(Tensor([0.0]), [1]).value == -np.log(1e-7)
        assert nm.bce(Tensor([1.0]), [0]).value == wrong
        assert nm.bce(Tensor([0.0]), [0]).value == right
        assert nm.bce(Tensor([1.0]), [1]).value == right

    def test_empty_batch(self):
        with pytest.raises(ParameterError):
            nm.bce(Tensor(np.zeros(0)), [])


class TestNoGrad:
    def test_primitives_record_nothing_and_recording_resumes(self):
        x = Tensor(Rng(50).normal(size=(2, 3, 2)))
        eye = Tensor(np.eye(2))
        with pytest.raises(RuntimeError), nm.no_grad():
            out = nm.ctm_head(x, eye, eye, eye, 2)[0]
            y = nm.dense(out, Tensor(np.ones((6, 1))), Tensor([0.0]))
            assert y._parents == () and y._backward is None and out._parents == ()
            raise RuntimeError("leave the block by an exception")
        assert nm.dense(x, eye, Tensor([0.0, 0.0]))._parents != ()
