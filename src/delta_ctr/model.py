"""Full DELTA network assembly: embeddings -> two truncated-attention heads
-> fusion gates -> two MLP towers -> scalar head, plus the auxiliary
explicit-crossing branch and the training losses."""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import eeo as eeo_mod
from . import layers as layers_mod
from . import numerics as nm
from .layers import CtmHeadParams, EmbeddingTable
from .numerics import ParameterError, Rng, Tensor

CKPT_MAGIC = b"DLTC"
CKPT_VERSION = 2


class Variant(NamedTuple):  # what one model variant is built from
    attention: str | None  # "truncated", "soft" or None (towers read raw embeddings)
    gate: bool  # a learned gate fuses attended and raw embeddings
    aux: str | None  # training-only auxiliary head: "cross", "fm" or None
    concat_cross: bool  # the cross-net output joins the towers' outputs


VARIANTS = {
    "full": Variant("truncated", gate=True, aux="cross", concat_cross=False),
    "ctm_soft": Variant("soft", gate=True, aux="cross", concat_cross=False),
    "no_efg": Variant("truncated", gate=False, aux="cross", concat_cross=False),
    "eeo_concat": Variant("truncated", gate=True, aux=None, concat_cross=True),
    "eeo_fm": Variant("truncated", gate=True, aux="fm", concat_cross=False),
    "mlp_only": Variant(None, gate=False, aux=None, concat_cross=False),
}


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """A model's settings, checked once when built, so nothing checks them again."""

    n_fields: int
    embed_dim: int = 10
    tower1_layers: list[int] = field(default_factory=lambda: [400, 400, 400])
    tower2_layers: list[int] = field(default_factory=lambda: [800])
    dropout_rate: float = 0.5
    cross_depth: int = 3
    lam: float = 0.5  # weight of the auxiliary loss
    variant: str = "full"
    truncation_scope: str = "row"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}; choose from {tuple(VARIANTS)}")
        if self.truncation_scope not in ("row", "global"):
            raise ParameterError(f"unknown truncation scope {self.truncation_scope!r}")
        for name in ("n_fields", "embed_dim", "cross_depth"):
            if not is_count(getattr(self, name)):
                raise ParameterError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if not is_real(self.lam) or self.lam < 0:
            raise ParameterError(f"lambda must be a number >= 0, got {self.lam!r}")
        if not is_real(self.dropout_rate) or not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must be in [0, 1), got {self.dropout_rate!r}")
        for name in ("tower1_layers", "tower2_layers"):
            sizes = getattr(self, name)
            if not isinstance(sizes, (list, tuple)) or not sizes or not all(is_count(s) for s in sizes):
                raise ParameterError(f"{name} must be a nonempty list of positive layer sizes, got {sizes!r}")

    @property
    def flat_dim(self):
        return self.n_fields * self.embed_dim


def is_count(x):
    """x is an integer >= 1, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 1


def is_real(x):
    """x is a finite real number, not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


class ParamRow(NamedTuple):  # one learnable tensor of a variant
    name: str
    shape: tuple[int, ...]
    stream: tuple | None  # RNG stream path under ("params",); None: zeros
    bound: float  # drawn uniform in [-bound, bound)
    aux: bool  # belongs to the training-only auxiliary head


def param_table(config, vocab_sizes):
    """The variant's tensors in checkpoint order, the main branch first and
    then the aux head. Rows that share a stream draw from it in table order;
    each dense weight is drawn with bound 1/sqrt(fan_in), biases and gates
    start at zero."""
    if len(vocab_sizes) != config.n_fields:
        raise ParameterError(f"{len(vocab_sizes)} vocab sizes for {config.n_fields} fields")
    spec = VARIANTS[config.variant]
    d, m = config.embed_dim, config.flat_dim

    def drawn(name, shape, stream, fan_in, aux=False):
        return ParamRow(name, shape, stream, 1.0 / math.sqrt(fan_in), aux)

    def zeros(name, shape, aux=False):
        return ParamRow(name, shape, None, 0.0, aux)

    rows = [drawn("embedding", (int(sum(vocab_sizes)), d), ("embedding",), d)]
    if spec.attention:
        rows += [drawn(f"head{h}.w_{p}", (d, d), (f"head{h}",), d) for h in (1, 2) for p in "qkv"]
    if spec.gate:
        rows += [zeros("gate1", (m,)), zeros("gate2", (m,))]
    for tag, sizes in (("tower1", config.tower1_layers), ("tower2", config.tower2_layers)):
        for i, (fan_in, size) in enumerate(zip([m, *sizes], sizes)):
            rows += [drawn(f"{tag}.dense{i}.w", (fan_in, size), (tag, i), fan_in),
                     zeros(f"{tag}.dense{i}.b", (size,))]
    final_in = config.tower1_layers[-1] + config.tower2_layers[-1] + (m if spec.concat_cross else 0)
    rows += [drawn("final.w", (final_in, 1), ("final",), final_in), zeros("final.b", (1,))]
    if spec.aux == "cross" or spec.concat_cross:
        aux = spec.aux == "cross"  # else the cross-net output joins the towers'
        for i in range(config.cross_depth):
            rows += [drawn(f"eeo.cross{i}.{p}", (m,), ("eeo",), m, aux) for p in ("weight", "bias")]
        if aux:
            rows += [drawn("eeo.head_weight", (m, 1), ("eeo",), m, True), zeros("eeo.head_bias", (1,), True)]
    if spec.aux == "fm":
        rows.append(zeros("fm_bias", (1,), True))
    return rows


@dataclass
class Mlp:
    layers: list[tuple[Tensor, Tensor]]

    def forward(self, x, dropout_rate, rng, training):
        """Each layer is one dense node, with its dropout in training; layer
        i draws its mask from rng.split(("drop", i))."""
        rate = dropout_rate if training else 0.0
        for i, (w, b) in enumerate(self.layers):
            x = nm.dense(x, w, b, rate, rng.split(("drop", i)) if rate > 0 else None)
        return x


class ModelParams:
    """Learnable tensors of one variant, by name in param_table order, with
    views of them by component for the forward; components the variant
    does not read are None."""

    def __init__(self, config, vocab_sizes, values):
        """values maps each of param_table's names to an array of its shape;
        the tensors hold those arrays, uncopied."""
        self.config = config
        self._rows = param_table(config, vocab_sizes)
        differ = sorted(values.keys() ^ {r.name for r in self._rows})
        if differ:
            raise ParameterError(f"tensors {differ} not shared with a {config.variant} model")
        for r in self._rows:
            if np.shape(values[r.name]) != r.shape:
                raise ParameterError(f"shape mismatch for {r.name}")
        self._tensors = [Tensor(values[r.name], name=r.name) for r in self._rows]
        t = dict(self.named_params())

        def head(tag):
            if f"{tag}.w_q" not in t:
                return None
            return CtmHeadParams(t[f"{tag}.w_q"], t[f"{tag}.w_k"], t[f"{tag}.w_v"])

        def tower(tag, sizes):
            return Mlp([(t[f"{tag}.dense{i}.w"], t[f"{tag}.dense{i}.b"]) for i in range(len(sizes))])

        self.embedding = EmbeddingTable(t["embedding"], list(vocab_sizes))
        self.head1, self.head2 = head("head1"), head("head2")
        self.gate1, self.gate2 = t.get("gate1"), t.get("gate2")
        self.tower1 = tower("tower1", config.tower1_layers)
        self.tower2 = tower("tower2", config.tower2_layers)
        self.final_w, self.final_b = t["final.w"], t["final.b"]
        self.eeo = None  # the cross-net, with a head when it is the aux branch
        if "eeo.cross0.weight" in t:
            cross = [eeo_mod.CrossLayerParams(t[f"eeo.cross{i}.weight"], t[f"eeo.cross{i}.bias"])
                     for i in range(config.cross_depth)]
            self.eeo = eeo_mod.EeoBranch(cross, t.get("eeo.head_weight"), t.get("eeo.head_bias"))
        self.fm_bias = t.get("fm_bias")

    @classmethod
    def init(cls, config, vocab_sizes, seed):
        """Draw each param_table row from the stream ("params",) + its stream
        path of seed, so the draws for any one component do not depend on
        which others exist."""
        streams, values = {}, {}
        for r in param_table(config, vocab_sizes):
            if r.stream is None:
                values[r.name] = np.zeros(r.shape)
                continue
            if r.stream not in streams:
                streams[r.stream] = Rng(seed, ("params",) + r.stream)
            values[r.name] = streams[r.stream].uniform(-r.bound, r.bound, r.shape)
        return cls(config, vocab_sizes, values)

    def named_params(self):
        """Every learnable tensor by name, in checkpoint order."""
        return [(r.name, p) for r, p in zip(self._rows, self._tensors)]

    def main_branch_params(self):
        """named_params without the aux head: what the inference path reads."""
        return [(r.name, p) for r, p in zip(self._rows, self._tensors) if not r.aux]

    def zero_grads(self):
        for p in self._tensors:
            p.zero_grad()

    def copy_values(self):
        return {n: p.value.copy() for n, p in self.named_params()}

    def load_values(self, values):
        """Make each tensor hold values[name], uncopied, as __init__ does."""
        for n, p in self.named_params():
            p.value = values[n]


@dataclass
class ForwardOutput:
    y_main: Tensor  # (B,) probabilities
    y_eeo: Tensor | None  # (B,) probabilities, train mode only
    state1: layers_mod.AttentionState | None
    state2: layers_mod.AttentionState | None


def delta_forward(indices, params, k, mode="infer", rng=None):
    """Run the network on a batch of encoded instances.

    indices: (B, n_fields) int array. In train mode dropout is active and
    the auxiliary branch is evaluated (unless lambda is 0, in which case the
    branch is skipped entirely and contributes nothing to the graph). In
    infer mode the auxiliary branch and dropout are never evaluated, no
    graph is built and no random number is drawn; rng is not read.
    """
    if mode not in ("train", "infer"):
        raise ParameterError(f"unknown mode {mode!r}; choose 'train' or 'infer'")
    if mode == "train":
        if rng is None:
            raise ParameterError("train mode requires an rng")
        return _forward(indices, params, k, True, rng)[0]
    with nm.no_grad():
        return _forward(indices, params, k, False, None)[0]


def _tower_path(emb, e_flat, head, gate, tower, k, cfg, rng, training):
    """One tower's path: its CTM head, then its EFG gate, then the tower
    (the tower alone on the raw embeddings when the variant has no head).
    Returns (tower output, AttentionState or None)."""
    x, state = e_flat, None
    if head is not None:
        x, state = layers_mod.ctm_forward(emb, head, k, cfg.truncation_scope)
        if gate is not None:
            x = layers_mod.efg_fuse(e_flat, x, gate)
    return tower.forward(x, cfg.dropout_rate, rng, training), state


def _forward(indices, params, k, training, rng, labels=None):
    """(ForwardOutput, aux term): given labels in training, the aux term is
    the aux branch's share of the loss, lambda * bce(y_eeo), else None."""
    cfg = params.config
    spec = VARIANTS[cfg.variant]
    b = indices.shape[0]
    emb = layers_mod.embed_lookup(params.embedding, indices)  # (B, n, d)
    e_flat = nm.reshape(emb, (b, cfg.flat_dim))
    if spec.attention == "soft":  # k=n keeps every weight and selects nothing
        k = cfg.n_fields

    def path(i, head, gate, tower):
        with nm.on_path(i):
            path_rng = rng.split(f"tower{i}") if training else None
            return _tower_path(emb, e_flat, head, gate, tower, k, cfg, path_rng, training)

    def aux_head():
        # (y_eeo, aux term): the training-only head, which reads only emb
        # and e_flat and feeds nothing but the loss
        if spec.aux == "fm":
            y = nm.sigmoid(eeo_mod.eeo_fm_forward(emb, params.fm_bias))
        else:
            y = nm.sigmoid(eeo_mod.eeo_forward(e_flat, params.eeo))
        return y, None if labels is None else nm.scale(bce_loss(y, labels), cfg.lam)

    def second():
        t2 = path(2, params.head2, params.gate2, params.tower2)
        if not (training and spec.aux and cfg.lam > 0):
            return t2, (None, None)
        with nm.on_path(2):
            return t2, aux_head()

    # The two paths share nothing until the concat below, so tower 2's path,
    # then the aux head, runs on the worker thread while tower 1's runs
    # here; the graph, the RNG draws and the values are those of running
    # them one after the other. Their nodes are tagged, so backward runs
    # them concurrently too.
    (t1, state1), ((t2, state2), (y_eeo, aux)) = nm.concurrently(
        lambda: path(1, params.head1, params.gate1, params.tower1), second
    )
    pieces = [t1, t2]
    if spec.concat_cross:
        pieces.append(eeo_mod.cross_net(e_flat, params.eeo.layers))
    joint = nm.concat(pieces, axis=-1)
    logit = nm.reshape(nm.add(nm.matmul(joint, params.final_w), params.final_b), (b,))
    y_main = nm.sigmoid(logit)
    return ForwardOutput(y_main=y_main, y_eeo=y_eeo, state1=state1, state2=state2), aux


def bce_loss(y_hat, labels):
    """Mean binary cross-entropy with probabilities clipped to
    [1e-7, 1 - 1e-7]."""
    return nm.bce(y_hat, labels)


def train_loss(indices, labels, params, k, rng):
    """One batch's training loss as a graph, bce(y_main) + lambda * bce(y_eeo);
    the aux term is built inside path 2, so backward runs it on the worker too."""
    out, aux = _forward(indices, params, k, True, rng, labels)
    l_main = bce_loss(out.y_main, labels)
    return l_main if aux is None else nm.add(l_main, aux)


def backward_and_accumulate(indices, labels, params, k, rng):
    """Train-mode forward + backward; returns (loss value, grads by name).

    The auxiliary branch reaches only the embedding table and its own
    parameters. Tensors the loss did not reach get a zero gradient. The
    forward's outputs are dropped before backward, which then frees each
    node's arrays as soon as it has been run through.
    """
    params.zero_grads()
    loss = train_loss(indices, labels, params, k, rng)
    loss.backward()
    grads = {}
    for name, p in params.named_params():
        grads[name] = np.zeros_like(p.value) if p.grad is None else p.grad
    return float(loss.value), grads


def save_checkpoint(path, params, extra=None):
    """Versioned binary: magic "DLTC", version u16, JSON header (config +
    extra), then each tensor as (name, shape, row-major float64 payload)."""
    named = params.named_params()
    header = json.dumps(
        {"config": asdict(params.config), "extra": extra or {}, "n_tensors": len(named)}
    ).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<HI", CKPT_VERSION, len(header)))
        f.write(header)
        for name, p in named:
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", p.value.ndim))
            f.write(struct.pack(f"<{p.value.ndim}Q", *p.value.shape))
            f.write(np.ascontiguousarray(p.value, dtype="<f8"))  # the array's own bytes, uncopied


def load_checkpoint(path, vocab_sizes):
    """Any unreadable or mismatched checkpoint raises CheckpointError, and
    so does a header whose extra is not a JSON object or whose k (the
    bottleneck the model was trained at, optional) is not in [1, n_fields].
    Each tensor's name and shape are checked against param_table before its
    payload is read; nothing is drawn."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    version = int.from_bytes(buf[4:6], "little")
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}, expected {CKPT_VERSION}")
    try:
        (hlen,) = struct.unpack_from("<I", buf, 6)
        pos = 10 + hlen
        header = json.loads(buf[10:pos])
        config = ModelConfig(**header["config"])
        shapes = {r.name: r.shape for r in param_table(config, vocab_sizes)}
        values = {}
        for _ in range(header["n_tensors"]):
            (nlen,) = struct.unpack_from("<H", buf, pos)
            name = buf[pos + 2 : pos + 2 + nlen].decode()
            pos += 2 + nlen
            (ndim,) = struct.unpack_from("<B", buf, pos)
            shape = struct.unpack_from(f"<{ndim}Q", buf, pos + 1)
            pos += 1 + 8 * ndim
            if name not in shapes or name in values:
                raise ValueError(f"tensor {name!r} is not a {config.variant} model's, or repeats")
            if shape != shapes[name]:
                raise ValueError(f"shape mismatch for {name}: {shape}, expected {shapes[name]}")
            count = math.prod(shape)
            values[name] = np.frombuffer(buf, "<f8", count, pos).reshape(shape).copy()
            pos += 8 * count
        if pos != len(buf):
            raise ValueError(f"{len(buf) - pos} stray bytes after the last tensor")
        params = ModelParams(config, vocab_sizes, values)
        extra = header["extra"]
        if not isinstance(extra, dict):
            raise ValueError(f"header extra must be a JSON object, got {json.dumps(extra)}")
        k = extra.get("k", config.n_fields)
        if not is_count(k) or k > config.n_fields:
            raise ValueError(f"k must be an integer in [1, {config.n_fields}], got {json.dumps(k)}")
        return params, extra
    except (struct.error, ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: unreadable or mismatched checkpoint: {e}") from e
