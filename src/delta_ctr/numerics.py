"""Reverse-mode autodiff over dense numpy arrays.

Every differentiable layer in the model is built from the primitives
registered here. The graph is built eagerly: each op returns a Tensor that
remembers its parents and a closure that routes the incoming gradient to
them. Calling ``backward()`` on a scalar output walks the graph in reverse
topological order and consumes it, so a graph is backpropagated once.

The model's hot layers are fused primitives (``dense``, ``ctm_head``,
``gate_mix``, ``cross``, ``bce``): one node each, with a hand-written
backward that keeps only the arrays it reads. The small primitives they
replace stay as the oracles the fused ones are tested against. Inside
``no_grad()`` every primitive computes its value only and records no graph.

Only the registered primitives may appear in a graph; there is no general
tape for arbitrary user code.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class ParameterError(ValueError):
    """An op was called with an out-of-range parameter."""


class GraphError(RuntimeError):
    """The computation graph is malformed (non-scalar root, foreign node) or
    was already consumed by backward()."""


# names of all registered differentiable primitives, for gradcheck reports
PRIMITIVES = [
    "matmul",
    "add",
    "sub",
    "mul",
    "relu",
    "sigmoid",
    "softmax_rows",
    "dropout",
    "reshape",
    "concat",
    "tsum",
    "tmean",
    "log",
    "clip",
    "gather",
    "transpose_last",
    "topk_truncate",
    "dense",
    "ctm_head",
    "gate_mix",
    "cross",
    "bce",
]

# False inside no_grad(): primitives then return Tensors with no parents
# and no backward closure
_recording = contextvars.ContextVar("recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no graph in this block: the Tensors primitives return keep no
    parents and no closure, so each intermediate array is freed as soon as
    the next op has read it."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Rng:
    """Splittable counter-based generator (Philox).

    Children derived via ``split`` get statistically independent streams
    keyed by (seed, path); identical seed + identical call sequence gives an
    identical stream on every platform.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(path)
        digest = hashlib.sha256(repr((self.seed, self.path)).encode()).digest()
        key = np.frombuffer(digest[:16], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, tag):
        return Rng(self.seed, self.path + (tag,))

    def uniform(self, low, high, shape):
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape):
        return self._gen.random(size=shape)

    def permutation(self, n):
        return self._gen.permutation(n)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high, size=shape)

    def normal(self, shape, scale=1.0):
        return self._gen.normal(0.0, scale, size=shape)


class Tensor:
    """Node in the autodiff graph wrapping a row-major numpy array."""

    __slots__ = ("value", "grad", "_parents", "_backward", "requires_grad", "name")

    def __init__(self, value, parents=(), backward=None, requires_grad=True, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if not _recording.get():
            parents, backward = (), None
        self._parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Backpropagate from this scalar, consuming the graph on the way.

        Once a node's closure has run, the node drops its gradient (the
        root keeps its own), its parents and its closure with the arrays the
        closure kept, so each intermediate is freed as soon as nothing
        upstream needs it. Leaves, the nodes built without a closure, keep
        their gradients. A later backward through a consumed node raises
        GraphError.
        """
        if self.value.size != 1:
            raise GraphError(f"backward() requires a scalar root, got shape {self.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents = _consumed, ()
            if node is not self:
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, name={self.name})"


def _consumed(g):
    """The closure of a node that backward() has already run through."""
    raise GraphError("graph already consumed by backward()")


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=False)


def _accum(node, g):
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = np.empty_like(node.value)
        node.grad[...] = g
    else:
        node.grad += g


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward op."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape[-1] != b.value.shape[-2 if b.value.ndim > 1 else 0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    out_val = np.matmul(a.value, b.value)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.value, -1, -2))
            _accum(a, _unbroadcast(ga, a.value.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.value, -1, -2), g)
            _accum(b, _unbroadcast(gb, b.value.shape))

    return Tensor(out_val, (a, b), backward)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value + b.value

    def backward(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(g, b.value.shape))

    return Tensor(out_val, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value - b.value

    def backward(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(-g, b.value.shape))

    return Tensor(out_val, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value * b.value

    def backward(g):
        _accum(a, _unbroadcast(g * b.value, a.value.shape))
        _accum(b, _unbroadcast(g * a.value, b.value.shape))

    return Tensor(out_val, (a, b), backward)


def scale(a, c):
    a = as_tensor(a)
    c = float(c)
    return Tensor(a.value * c, (a,), lambda g: _accum(a, g * c))


def relu(a):
    a = as_tensor(a)
    mask = a.value > 0  # gradient is 0 at exactly 0
    return Tensor(np.where(mask, a.value, 0.0), (a,), lambda g: _accum(a, g * mask))


def _logistic(x):
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    # keep the output strictly inside (0,1) even where float64 saturates
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def sigmoid(a):
    a = as_tensor(a)
    out_val = _logistic(a.value)
    return Tensor(out_val, (a,), lambda g: _accum(a, g * out_val * (1.0 - out_val)))


def softmax_rows(a):
    """Softmax along the last axis, stabilized by row-max subtraction."""
    a = as_tensor(a)
    out_val = a.value - a.value.max(axis=-1, keepdims=True)
    np.exp(out_val, out=out_val)
    out_val /= out_val.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_val).sum(axis=-1, keepdims=True)
        _accum(a, out_val * (g - dot))

    return Tensor(out_val, (a,), backward)


def dropout(a, rate, rng, training):
    """Inverted dropout: survivors scaled by 1/(1-rate); identity at inference.

    Backward keeps the boolean mask and the scalar scale. Masking first and
    scaling second gives the bits of a product with the float mask
    keep/(1-rate): a dropped entry is a * 0.0 (a signed zero, or NaN for an
    infinite or NaN a) even where a * scale would overflow.
    """
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return Tensor(a.value, (a,), lambda g: _accum(a, g))
    keep = rng.random(a.value.shape) >= rate
    s = 1.0 / (1.0 - rate)

    def apply(x):
        out = x * keep
        out *= s
        return out

    return Tensor(apply(a.value), (a,), lambda g: _accum(a, apply(g)))


def reshape(a, shape):
    a = as_tensor(a)
    orig = a.value.shape
    return Tensor(a.value.reshape(shape), (a,), lambda g: _accum(a, g.reshape(orig)))


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return Tensor(out_val, tuple(tensors), backward)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_val = a.value.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.value.shape))

    return Tensor(out_val, (a,), backward)


def tmean(a):
    a = as_tensor(a)
    n = a.value.size
    return Tensor(a.value.mean(), (a,), lambda g: _accum(a, np.broadcast_to(g / n, a.value.shape)))


def log(a):
    a = as_tensor(a)
    return Tensor(np.log(a.value), (a,), lambda g: _accum(a, g / a.value))


def clip(a, lo, hi):
    """Clamp values; gradient passes only through unclipped entries."""
    a = as_tensor(a)
    inside = (a.value > lo) & (a.value < hi)
    return Tensor(np.clip(a.value, lo, hi), (a,), lambda g: _accum(a, g * inside))


def gather(table, idx):
    """Row lookup table[idx]; backward scatters into the touched rows only."""
    table = as_tensor(table)
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= table.value.shape[0]):
        raise DimensionError(
            f"gather: index out of range for table with {table.value.shape[0]} rows"
        )
    out_val = table.value[idx]

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.value)
            np.add.at(table.grad, idx, g)

    return Tensor(out_val, (table,), backward)


def transpose_last(a):
    """Swap the last two axes."""
    a = as_tensor(a)
    return Tensor(
        np.swapaxes(a.value, -1, -2), (a,), lambda g: _accum(a, np.swapaxes(g, -1, -2))
    )


def topk_mask(w_val, k):
    """Boolean mask keeping the k largest entries of each last-axis row.

    The mask is the one a stable sort on descending values gives: ties at
    the k-th weight break toward the lower column index, and NaN ranks
    below every number. k=n keeps everything without a selection pass.
    Otherwise each row's k-th largest value comes from a partition (O(n)
    per row) and the row keeps every entry at or above it. A row that
    keeps exactly k entries that way keeps the stable sort's k (nothing
    it drops is equal to what it keeps, and NaN compares false). The rare
    rows that keep another count (extra ties at the cutoff, or a NaN that
    the partition ranks on top) are sorted instead.
    """
    n = w_val.shape[-1]
    if not 1 <= k <= n:
        raise ParameterError(f"bottleneck k={k} outside [1, {n}]")
    if k == n:
        return np.ones(w_val.shape, dtype=bool)
    rows = w_val.reshape(-1, n)
    mask = rows >= np.partition(rows, n - k, axis=-1)[:, n - k, None]
    redo = np.flatnonzero(mask.sum(axis=-1) != k)
    if redo.size:
        order = np.argsort(-rows[redo], axis=-1, kind="stable")
        mask[redo] = False
        mask[redo[:, None], order[:, :k]] = True
    return mask.reshape(w_val.shape)


def topk_truncate(w, k):
    """Keep the per-row top-k weights verbatim, zero the rest.

    The selection mask is treated as constant during backward: gradient
    flows only through the kept entries. At k=n the weights pass through
    unchanged.
    """
    w = as_tensor(w)
    mask = topk_mask(w.value, k)
    if k == w.value.shape[-1]:
        return Tensor(w.value, (w,), lambda g: _accum(w, g)), mask
    out = Tensor(np.where(mask, w.value, 0.0), (w,), lambda g: _accum(w, g * mask))
    return out, mask


def dense(x, w, b):
    """relu(x @ w + b) as one node. Backward keeps x, w and the output,
    whose positive entries are the ones the ReLU passed."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.value.shape[-1] != w.value.shape[-2]:
        raise DimensionError(f"dense: inner dims differ, {x.shape} x {w.shape}")
    out_val = np.matmul(x.value, w.value)
    out_val += b.value
    np.copyto(out_val, 0.0, where=~(out_val > 0))  # gradient is 0 at exactly 0

    def backward(g):
        g = g * (out_val > 0)
        _accum(b, _unbroadcast(g, b.value.shape))
        if x.requires_grad:
            _accum(x, _unbroadcast(np.matmul(g, np.swapaxes(w.value, -1, -2)), x.value.shape))
        if w.requires_grad:
            _accum(w, _unbroadcast(np.matmul(np.swapaxes(x.value, -1, -2), g), w.value.shape))

    return Tensor(out_val, (x, w, b), backward)


def ctm_head(emb, w_q, w_k, w_v, k, scope="row"):
    """One truncated attention head over emb (B, n, d) as one node.

    Computes w = softmax(Q K^T / sqrt(d)) with Q, K, V = emb @ w_q, w_k,
    w_v; keeps the top-k weights of each row (scope="row") or the k*n
    largest of each whole matrix (scope="global", ties toward the lower
    flat index) without renormalizing; aggregates theta @ V and flattens
    to (B, n*d). At k=n every weight is kept and nothing is selected.

    Returns (output Tensor, weights, truncated weights, kept mask). The
    mask is constant in backward: gradient flows through kept weights only.
    Backward keeps emb's value, the weights and the mask, and recomputes
    the three projections from emb and the truncated weights from the
    weights and the mask.
    """
    emb, w_q, w_k, w_v = as_tensor(emb), as_tensor(w_q), as_tensor(w_k), as_tensor(w_v)
    x = emb.value
    b, n, d = x.shape
    if not 1 <= k <= n:
        raise ParameterError(f"bottleneck k={k} outside [1, {n}]")
    if scope not in ("row", "global"):
        raise ParameterError(f"unknown truncation scope {scope!r}")
    c = 1.0 / math.sqrt(d)
    q = np.matmul(x, w_q.value)
    key = np.matmul(x, w_k.value)
    w = np.matmul(q, np.swapaxes(key, -1, -2))
    w *= c
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    if scope == "row":
        mask = topk_mask(w, k)
    else:
        mask = topk_mask(w.reshape(b, n * n), k * n).reshape(w.shape)
    theta = w if k == n else np.where(mask, w, 0.0)
    out_val = np.matmul(theta, np.matmul(x, w_v.value)).reshape(b, n * d)

    # The products below, the batched weight-gradient matmuls summed by
    # _unbroadcast and the q, k, v order of the sums into emb are those of
    # the composed graph (attention_weights, topk_truncate, matmul), so the
    # gradients equal its bit for bit; a 2D GEMM for the weight gradients,
    # or another order, moves the low bits.
    def project_back(g, weight):
        # the gradient of one projection emb @ weight, given its output's
        # gradient g, which reaches the products C-contiguous as it did there
        g = np.ascontiguousarray(g)
        if emb.requires_grad:
            _accum(emb, np.matmul(g, np.swapaxes(weight.value, -1, -2)))
        if weight.requires_grad:
            _accum(weight, _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), weight.value.shape))

    def backward(g):
        g = g.reshape(b, n, d)
        g_w = np.matmul(g, np.swapaxes(np.matmul(x, w_v.value), -1, -2))
        g_v = np.matmul(np.swapaxes(w if k == n else np.where(mask, w, 0.0), -1, -2), g)
        if k < n:
            g_w *= mask
        g_w -= (g_w * w).sum(axis=-1, keepdims=True)
        g_w *= w
        g_w *= c  # now the gradient of the scores Q K^T
        project_back(np.matmul(g_w, np.matmul(x, w_k.value)), w_q)
        q = np.matmul(x, w_q.value)
        project_back(np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_w), -1, -2), w_k)
        project_back(g_v, w_v)

    return Tensor(out_val, (emb, w_q, w_k, w_v), backward), w, theta, mask


def gate_mix(e, enhanced, gate):
    """sigma(gate) * e + (1 - sigma(gate)) * enhanced, elementwise, as one node."""
    e, enhanced, gate = as_tensor(e), as_tensor(enhanced), as_tensor(gate)
    s = _logistic(gate.value)
    one_minus = 1.0 - s
    out_val = s * e.value + one_minus * enhanced.value

    def backward(g):
        _accum(e, g * s)
        _accum(enhanced, g * one_minus)
        g_s = _unbroadcast(g * e.value, s.shape) - _unbroadcast(g * enhanced.value, s.shape)
        _accum(gate, g_s * s * one_minus)

    return Tensor(out_val, (e, enhanced, gate), backward)


def cross(x0, x_l, w, b):
    """DCN-style cross layer with residual, x0 * (x_l @ w) + b + x_l, for
    x0, x_l (B, m) and w, b (m,), as one node. Backward keeps only the
    projection x_l @ w (B, 1)."""
    x0, x_l, w, b = as_tensor(x0), as_tensor(x_l), as_tensor(w), as_tensor(b)
    m = w.value.shape[0]
    if x0.value.shape[-1] != m or x_l.value.shape[-1] != m or b.value.shape != (m,):
        raise DimensionError(f"cross: lengths differ {x0.shape} / {x_l.shape} / {w.shape} / {b.shape}")
    proj = np.matmul(x_l.value, w.value.reshape(m, 1))
    out_val = x0.value * proj
    out_val += b.value
    out_val += x_l.value

    # The products and the order of the sums (x_l, b, x0, x_l again, w)
    # are those of the composed matmul/reshape/mul/add layer, so the
    # gradients equal its bit for bit
    def backward(g):
        _accum(x_l, g)
        _accum(b, _unbroadcast(g, b.value.shape))
        _accum(x0, g * proj)
        g_proj = _unbroadcast(g * x0.value, proj.shape)
        if x_l.requires_grad:
            _accum(x_l, np.matmul(g_proj, np.swapaxes(w.value.reshape(m, 1), -1, -2)))
        if w.requires_grad:
            _accum(w, np.matmul(np.swapaxes(x_l.value, -1, -2), g_proj).reshape(m))

    # parents in the order the graph walk visited the composed layer's
    return Tensor(out_val, (x0, w, b, x_l), backward)


def bce(y, labels):
    """Mean binary cross-entropy of probabilities y against 0/1 labels, as
    one node; y is clipped to [1e-7, 1 - 1e-7] and gets no gradient where
    the clip is active."""
    y = as_tensor(y)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise ParameterError("empty batch")
    p = np.clip(y.value, 1e-7, 1.0 - 1e-7)
    off = 1.0 - labels
    one_minus = 1.0 - p
    out_val = (labels * np.log(p) + off * np.log(one_minus)).mean() * -1.0

    def backward(g):
        g = (g * -1.0) / p.size
        g_p = (g * labels) / p - (g * off) / one_minus
        _accum(y, g_p * ((y.value > 1e-7) & (y.value < 1.0 - 1e-7)))

    return Tensor(out_val, (y,), backward)


def grad_of(f, params):
    """Gradients of a scalar-valued composition w.r.t. a list of Tensors."""
    for p in params:
        if not isinstance(p, Tensor):
            raise GraphError("grad_of params must be Tensors")
        p.zero_grad()
    out = f()
    if not isinstance(out, Tensor):
        raise GraphError("function must return a Tensor built from registered primitives")
    out.backward()
    return [np.zeros_like(p.value) if p.grad is None else p.grad for p in params]


def finite_difference_grad(f, params, eps=1e-5):
    """Central-difference gradients of a scalar function; the independent
    oracle for every analytic backward in this module."""
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f().value)
            flat[i] = orig - eps
            fm = float(f().value)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    """Worst-entry relative error between two gradient lists."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)) if a.size else 0.0)
    return worst
