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

Nodes made inside ``on_path(i)`` are tagged as path 1 or 2. The model tags
its two tower paths, which share nothing until their outputs are joined;
``backward()`` runs path 2's part of the graph on one worker thread while
path 1's runs on the caller (see ``concurrently``), bit for bit as the
serial walk.

Only the registered primitives may appear in a graph; there is no general
tape for arbitrary user code.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import functools
import hashlib
import math
import os
import threading

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class ParameterError(ValueError):
    """An op was called with an out-of-range parameter."""


class GraphError(RuntimeError):
    """The computation graph is malformed (non-scalar root, foreign node) or
    was already consumed by backward()."""


# names of the registered differentiable primitives, for gradcheck reports.
# scale is one too: the model runs it and `delta gradcheck` checks it. It is
# left out only because bench/spans.py appends it itself; listed here, its
# metric names would appear twice in the bench.
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

# the path number new nodes are tagged with: 0 outside on_path()
_path = contextvars.ContextVar("path", default=0)

# set inside path 2's block of a concurrent backward: the list that holds
# the accumulations into nodes outside path 2 (see _accum)
_held = contextvars.ContextVar("held", default=None)


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


@contextlib.contextmanager
def on_path(i):
    """Tag the nodes made in this block as path i (1 or 2). A path's nodes
    may read untagged nodes and nodes of their own path, never the other
    path's; backward() then runs the two paths concurrently."""
    token = _path.set(i)
    try:
        yield
    finally:
        _path.reset(token)


_branch_pool = None  # the one worker thread, made on first use
_branch_pool_lock = threading.Lock()
_worker_thread = threading.local()  # .marked is True on the worker thread only


def _mark_worker():
    _worker_thread.marked = True


def _drop_branch_pool():
    global _branch_pool
    _branch_pool = None  # a forked child has no worker thread; make a new pool there


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_branch_pool)


def _branch_worker():
    global _branch_pool
    with _branch_pool_lock:
        if _branch_pool is None:
            _branch_pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="delta-tower2", initializer=_mark_worker
            )
        return _branch_pool


def concurrently(first, second):
    """Run second() on the one worker thread, in a copy of this context (so
    no_grad() holds there), while first() runs here; return both results.
    Numpy and BLAS release the GIL, so the two overlap. Whichever raises,
    the other has ended before the error leaves. Called on the worker
    itself, which would wait on itself, it raises GraphError."""
    if getattr(_worker_thread, "marked", False):
        raise GraphError("concurrently() called on the worker thread, which would wait on itself")
    future = _branch_worker().submit(contextvars.copy_context().run, second)
    try:
        a = first()
    except BaseException:
        future.exception()
        raise
    return a, future.result()


class Rng(np.random.Generator):
    """Splittable counter-based generator: a numpy Generator on Philox.

    Children derived via ``split`` get statistically independent streams
    keyed by (seed, path); identical seed + identical call sequence gives an
    identical stream on every platform.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(path)
        digest = hashlib.sha256(repr((self.seed, self.path)).encode()).digest()
        super().__init__(np.random.Philox(key=np.frombuffer(digest[:16], dtype=np.uint64)))

    def split(self, tag):
        return Rng(self.seed, self.path + (tag,))


class Tensor:
    """Node in the autodiff graph wrapping a row-major numpy array."""

    __slots__ = ("value", "grad", "_parents", "_backward", "_path", "requires_grad", "name")

    def __init__(self, value, parents=(), backward=None, requires_grad=True, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if not _recording.get():
            parents, backward = (), None
        self._parents = tuple(parents)
        self._backward = backward
        self._path = _path.get()
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

        When the walk reaches the run of nodes tagged by on_path(), path 2's
        nodes run on the worker thread while path 1's run here (see
        _split_paths). Path 2's accumulations into nodes outside path 2 are
        held and applied after both blocks end, in the order they were made,
        which is the order of the serial walk, so every gradient keeps its
        bits. A graph without tagged nodes is walked serially.
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
        split = _split_paths(order)
        if split is None:
            _walk(order, self)
            return
        lo, hi, path1, path2 = split
        before = order[hi:]
        del order[lo:]  # each node is now in one list, which drops it once run
        _walk(before, self)
        _, held = concurrently(lambda: _walk(path1, self), lambda: _walk_path2(path2, self))
        for apply in held:
            apply()
        _walk(order, self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, name={self.name})"


def _consumed(g):
    """The closure of a node that backward() has already run through."""
    raise GraphError("graph already consumed by backward()")


def _run(node, root):
    """Run one node's closure, then consume the node. The closure owns the
    gradient it is given: it may write into it or hand pieces of it on
    (see _accum), since the node drops it once the closure has run. The
    root keeps its gradient, so its closure is given a copy."""
    if node._backward is None:
        return
    if node.grad is not None:
        node._backward(node.grad.copy() if node is root else node.grad)
    node._backward, node._parents = _consumed, ()
    if node is not root:
        node.grad = None


def _walk(nodes, root):
    """Run nodes popped from the end of the list, which drops each."""
    while nodes:
        _run(nodes.pop(), root)


def _split_paths(order):
    """Split the run of tagged nodes out of a walk order (walked from its
    end): (lo, hi, path1, path2) with the run at order[lo:hi], path 1's
    nodes in path1 and the rest of the run in path2, which are path 2's
    nodes and the untagged ones the walk reaches among them, such as the
    reshape both paths read. Leaves run nothing and are left out.

    The split keeps the serial walk's bits only if, in walk order, every
    path 1 node comes before every other node of the run, and each node
    reads only untagged nodes and those of its own path (an untagged one
    only untagged nodes). None when that does not hold or nothing is
    tagged: the graph is then walked serially.
    """
    tagged = [i for i, node in enumerate(order) if node._path]
    if not tagged:
        return None
    lo, hi = tagged[0], tagged[-1] + 1
    path1, path2 = [], []
    for node in order[lo:hi]:  # the walk's last node first
        if node._backward is None:
            continue
        if any(p._path not in (0, node._path) for p in node._parents):
            return None
        if node._path == 1:
            path1.append(node)
        elif path1:
            return None  # the walk would reach it before a path 1 node
        else:
            path2.append(node)
    return lo, hi, path1, path2


def _walk_path2(nodes, root):
    """Walk path 2's block, holding each accumulation into a node outside
    path 2 (see _accum) and each untagged node of the block; return the
    held calls in the order they were made."""
    held = []
    token = _held.set(held)
    try:
        while nodes:
            node = nodes.pop()
            if node._path == 2:
                _run(node, root)
            else:
                held.append(functools.partial(_run, node, root))
    finally:
        _held.reset(token)
    return held


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=False)


def _accum(node, g, rows=None, fresh=False):
    """Add g into node.grad, or into its given rows (gather's scatter).
    A node's first gradient is a copy of g, unless g is fresh: an array of
    the node's shape that the closure has just made, or a piece of the
    gradient it owns (see _run) that it hands to this node alone, and
    reads no more; g then becomes node.grad itself. A g that passes the
    incoming gradient on whole (a view, a broadcast) is copied.
    Inside path 2's block of a concurrent backward a node outside path 2
    is not touched: the call is held for the caller to make later."""
    if not node.requires_grad:
        return
    held = _held.get()
    if held is not None and node._path != 2:
        held.append(functools.partial(_accum, node, g, rows, fresh))
    elif rows is not None:
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
        np.add.at(node.grad, rows, g)
    elif node.grad is None and fresh:
        node.grad = g
    elif node.grad is None:
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
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least 2-D, got {a.shape} x {b.shape}")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    return Tensor(np.matmul(a.value, b.value), (a, b), lambda g: _product_back(a, b, g))


def _product_back(a, b, g):
    """Route the gradient g of a @ b to a, then to b, each a new array
    summed over the axes the product broadcast."""
    if a.requires_grad:
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.value, -1, -2)), a.value.shape), fresh=True)
    if b.requires_grad:
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.value, -1, -2), g), b.value.shape), fresh=True)


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

    return Tensor(apply(a.value), (a,), lambda g: _accum(a, apply(g), fresh=True))


def reshape(a, shape):
    a = as_tensor(a)
    orig = a.value.shape
    return Tensor(a.value.reshape(shape), (a,), lambda g: _accum(a, g.reshape(orig), fresh=True))


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    # each piece is a view of the g the node owns, and no two overlap:
    # concat([x, x]) keeps the first as x's gradient and adds the second in
    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece, fresh=True)

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

    return Tensor(out_val, (table,), lambda g: _accum(table, g, idx))


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
    Otherwise each row keeps every entry at or above its k-th largest
    value. A row that keeps exactly k entries that way keeps the stable
    sort's k (nothing it drops is equal to what it keeps, and NaN compares
    false); the rare other rows, with a tie at the cutoff or a NaN, take
    the stable sort itself.

    The k-th value and the one below it come from a sorted copy of each
    row (np.sort puts NaN last). A row is redone when those two are equal
    or when it has a NaN: a superset of the rows that keep another count.
    """
    n = w_val.shape[-1]
    if not 1 <= k <= n:
        raise ParameterError(f"bottleneck k={k} outside [1, {n}]")
    if k == n:
        return np.ones(w_val.shape, dtype=bool)
    rows = w_val.reshape(-1, n)
    srt = np.sort(rows, axis=-1)
    mask = rows >= srt[:, n - k, None]
    redo = np.flatnonzero((srt[:, n - k - 1] == srt[:, n - k]) | np.isnan(srt[:, -1]))
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


def _relu_inplace(a):
    """Set a to relu(a), bit for bit as np.where(a > 0, a, 0.0) but
    cheaper: np.fmax sends NaN and negatives to 0, and adding +0.0 turns
    a -0.0 it keeps (in some positions of an array) into +0.0."""
    np.fmax(a, 0.0, out=a)
    a += 0.0


# Below this size dense's backward writes its first product of a strided
# gradient to a new array, which the next two products then update in
# place. numpy's loops run at half speed or less on a strided array, and on
# a concat's short rows both threads update cache lines the two pieces
# share: a train-synth step (pieces of 128 and 256 KiB) took 5.4-5.7 ms
# updating them in place and 5.2 ms with new arrays. On paper-size pieces
# (12.5 and 25 MiB) a new array is dearer than the slow loops:
# train-paper trained x1.122 over the parent updating in place, x1.078
# with new arrays, and peaked 23 MB higher.
STRIDED_COPY_BYTES = 1 << 20


def dense(x, w, b, rate=0.0, rng=None):
    """relu(x @ w + b) as one node, followed, at a rate above 0, by inverted
    dropout drawn from rng: the bits of dense at rate 0 followed by the
    dropout primitive, with the same draws. Backward keeps x, w, the output
    and dropout's boolean mask. An entry the ReLU passed is positive after
    dropout if it was kept (1/(1-rate) >= 1 keeps it positive) and +0.0 or
    NaN if dropped, so the output's positive entries are the kept ones the
    ReLU passed; the gradient of a dropped entry is g * 0.0 either way, the
    same signed zero or NaN as the composed pair gives. Backward applies
    keep, scale and that mask, in that order, to the gradient the node
    owns."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.value.shape[-1] != w.value.shape[-2]:
        raise DimensionError(f"dense: inner dims differ, {x.shape} x {w.shape}")
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
    out_val = np.matmul(x.value, w.value)
    out_val += b.value
    _relu_inplace(out_val)  # gradient is 0 at exactly 0
    keep = None
    if rate > 0.0:
        keep = rng.random(out_val.shape) >= rate
        s = 1.0 / (1.0 - rate)
        out_val *= keep
        out_val *= s

    # in place on the gradient the node owns, unless it is a small strided
    # one (a piece of a concat's gradient; see STRIDED_COPY_BYTES)
    def backward(g):
        own = g if g.flags.c_contiguous or g.nbytes >= STRIDED_COPY_BYTES else None
        if keep is not None:
            g = np.multiply(g, keep, out=own)
            g *= s
            g *= out_val > 0
        else:
            g = np.multiply(g, out_val > 0, out=own)
        _accum(b, _unbroadcast(g, b.value.shape))
        _product_back(x, w, g)

    return Tensor(out_val, (x, w, b), backward)


# attention weights per pass of ctm_head (see head_slice). On 2 vCPUs with
# one BLAS thread, a paper-size train step (n=39, B=4096) took 410-418 ms
# fwd+bwd at 2^15, 394-401 ms at 2^16, 398-400 ms at 2^17 and 404-406 ms at
# 2^18, and its inference forward 157, 139, 134 and 135 ms; at n=10, B=512,
# every budget from 2^16 on is one slice, and 2^12 (40 instances) cost a
# step 30% more.
HEAD_WEIGHTS = 1 << 17


def head_slice(n):
    """Instances per pass of ctm_head at n fields: as many as HEAD_WEIGHTS
    attention weights hold, and at least one. The budget bounds the head's
    (slice, n, n) temporaries."""
    return max(1, HEAD_WEIGHTS // (n * n))


def _slices(b, n):
    size = head_slice(n)
    return [slice(lo, min(lo + size, b)) for lo in range(0, b, size)]


def _row_max(ws):
    """ws.max(axis=-1, keepdims=True), taken one column at a time with
    np.maximum, which is cheaper on short rows. A maximum is exact in any
    order and np.maximum keeps NaN as max does; of a tie of +0.0 and -0.0
    either may come out, and the softmax reads the row max only through
    exp(ws - max), where exp(+0.0) and exp(-0.0) are both 1."""
    top = ws[..., :1].copy()
    for j in range(1, ws.shape[-1]):
        np.maximum(top, ws[..., j : j + 1], out=top)
    return top


def _truncated(ws, mask, nan):
    """np.where(mask, ws, 0.0) for softmax weights ws, as the cheaper
    product ws * mask unless ws holds a NaN, the one value it differs on."""
    return np.where(mask, ws, 0.0) if nan else ws * mask


def ctm_head(emb, w_q, w_k, w_v, k, scope="row"):
    """One truncated attention head over emb (B, n, d) as one node.

    Computes w = softmax(Q K^T / sqrt(d)) with Q, K, V = emb @ w_q, w_k,
    w_v; keeps the top-k weights of each row (scope="row") or the k*n
    largest of each whole matrix (scope="global", ties toward the lower
    flat index) without renormalizing; aggregates theta @ V and flattens
    to (B, n*d). At k=n every weight is kept and nothing is selected.

    Returns (output Tensor, weights, kept mask); the truncated weights are
    np.where(mask, weights, 0), which the head builds one slice at a time
    and keeps none of. It builds them as weights * mask, which has the same
    bits wherever no weight is NaN (weights are in [0, 1], so w * False is
    +0.0); a slice with a NaN row (a NaN or infinite score) keeps np.where.
    The mask is constant in backward: gradient flows through kept weights
    only. Backward keeps emb's value, the weights, the mask and one NaN flag
    per slice, and recomputes the three projections from emb and the
    truncated weights from the weights and the mask.

    Forward and backward run over head_slice(n) instances at a time. Every op
    works per instance, so the bits do not depend on the slicing, except
    the three weight-gradient sums over the batch, which backward takes
    over the whole assembled projection gradients.
    """
    emb, w_q, w_k, w_v = as_tensor(emb), as_tensor(w_q), as_tensor(w_k), as_tensor(w_v)
    x = emb.value
    b, n, d = x.shape
    if not 1 <= k <= n:
        raise ParameterError(f"bottleneck k={k} outside [1, {n}]")
    if scope not in ("row", "global"):
        raise ParameterError(f"unknown truncation scope {scope!r}")
    c = 1.0 / math.sqrt(d)
    w = np.empty((b, n, n))
    mask = np.ones(w.shape, dtype=bool) if k == n else np.empty(w.shape, dtype=bool)
    out_val = np.empty((b, n, d))
    slices = _slices(b, n)
    has_nan = []  # per slice: does a weight row hold NaN
    for s in slices:
        xs, ws = x[s], w[s]
        np.matmul(np.matmul(xs, w_q.value), np.swapaxes(np.matmul(xs, w_k.value), -1, -2), out=ws)
        ws *= c
        ws -= _row_max(ws)
        np.exp(ws, out=ws)
        sums = ws.sum(axis=-1, keepdims=True)  # NaN exactly where its row holds a NaN
        ws /= sums
        has_nan.append(bool(np.isnan(sums).any()))
        theta = ws
        if k < n:
            if scope == "row":
                mask[s] = topk_mask(ws, k)
            else:
                mask[s] = topk_mask(ws.reshape(-1, n * n), k * n).reshape(ws.shape)
            theta = _truncated(ws, mask[s], has_nan[-1])
        np.matmul(theta, np.matmul(xs, w_v.value), out=out_val[s])

    # The products below, the batched weight-gradient matmuls summed by
    # _unbroadcast and the q, k, v order of the sums into emb are those of
    # the composed graph (attention_weights, topk_truncate, matmul), so the
    # gradients equal its bit for bit; a 2D GEMM for the weight gradients,
    # or another order, moves the low bits.
    def backward_slice(s, nan, g, g_q, g_k, g_v):
        # one slice's projection gradients, each temporary freed on return
        xs, ws, gs = x[s], w[s], g[s]
        kept = ws if k == n else _truncated(ws, mask[s], nan)
        np.matmul(np.swapaxes(kept, -1, -2), gs, out=g_v[s])
        del kept
        g_w = np.matmul(gs, np.swapaxes(np.matmul(xs, w_v.value), -1, -2))
        if k < n:
            g_w *= mask[s]
        g_w -= (g_w * ws).sum(axis=-1, keepdims=True)
        g_w *= ws
        g_w *= c  # now the gradient of the scores Q K^T
        np.matmul(g_w, np.matmul(xs, w_k.value), out=g_q[s])
        g_k[s] = np.swapaxes(np.matmul(np.swapaxes(np.matmul(xs, w_q.value), -1, -2), g_w), -1, -2)

    def backward(g):
        g = g.reshape(b, n, d)
        g_q, g_k, g_v = np.empty((b, n, d)), np.empty((b, n, d)), np.empty((b, n, d))
        for s, nan in zip(slices, has_nan):
            backward_slice(s, nan, g, g_q, g_k, g_v)
        _product_back(emb, w_q, g_q)
        del g_q
        _product_back(emb, w_k, g_k)
        del g_k
        _product_back(emb, w_v, g_v)

    return Tensor(out_val.reshape(b, n * d), (emb, w_q, w_k, w_v), backward), w, mask


def gate_mix(e, enhanced, gate):
    """sigma(gate) * e + (1 - sigma(gate)) * enhanced, elementwise, as one node."""
    e, enhanced, gate = as_tensor(e), as_tensor(enhanced), as_tensor(gate)
    s = _logistic(gate.value)
    one_minus = 1.0 - s
    out_val = s * e.value + one_minus * enhanced.value

    def backward(g):
        _accum(e, g * s, fresh=True)
        _accum(enhanced, g * one_minus, fresh=True)
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
        _accum(x0, g * proj, fresh=True)
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
