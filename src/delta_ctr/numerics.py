"""Reverse-mode autodiff over dense numpy arrays.

Every differentiable layer in the model is composed from the primitives
registered here. The graph is built eagerly: each op returns a Tensor that
remembers its parents and a closure that routes the incoming gradient to
them. Calling ``backward()`` on a scalar output walks the graph in reverse
topological order.

Only the registered primitives may appear in a graph; there is no general
tape for arbitrary user code.
"""

from __future__ import annotations

import hashlib

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class ParameterError(ValueError):
    """An op was called with an out-of-range parameter."""


class GraphError(RuntimeError):
    """The computation graph is malformed (non-scalar root, foreign node)."""


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
]


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
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, name={self.name})"


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=False)


def _accum(node, g):
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
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


def sigmoid(a):
    a = as_tensor(a)
    x = a.value
    e = np.exp(-np.abs(x))
    out_val = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    # keep the output strictly inside (0,1) even where float64 saturates
    out_val = np.clip(out_val, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
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
    """Inverted dropout: survivors scaled by 1/(1-rate); identity at inference."""
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return Tensor(a.value, (a,), lambda g: _accum(a, g))
    keep = rng.random(a.value.shape) >= rate
    m = keep / (1.0 - rate)
    return Tensor(a.value * m, (a,), lambda g: _accum(a, g * m))


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
