"""Full DELTA network assembly: embeddings -> two truncated-attention heads
-> fusion gates -> two MLP towers -> scalar head, plus the auxiliary
explicit-crossing branch and the training losses."""

from __future__ import annotations

import concurrent.futures
import contextvars
import io
import json
import math
import os
import struct
import threading
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


@dataclass
class ModelConfig:
    n_fields: int
    embed_dim: int
    tower1_layers: list[int] = field(default_factory=lambda: [400, 400, 400])
    tower2_layers: list[int] = field(default_factory=lambda: [800])
    dropout_rate: float = 0.5
    cross_depth: int = 3
    lam: float = 0.5  # weight of the auxiliary loss
    variant: str = "full"
    truncation_scope: str = "row"

    def validate(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}; choose from {tuple(VARIANTS)}")
        if self.truncation_scope not in ("row", "global"):
            raise ParameterError(f"unknown truncation scope {self.truncation_scope!r}")
        if self.lam < 0:
            raise ParameterError("lambda must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError("dropout_rate must be in [0, 1)")
        if any(s <= 0 for s in self.tower1_layers + self.tower2_layers):
            raise ParameterError("tower layer sizes must be positive")
        if self.cross_depth < 1:
            raise ParameterError("cross_depth must be >= 1")
        return self

    @property
    def flat_dim(self):
        return self.n_fields * self.embed_dim

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d).validate()


def _dense_init(fan_in, fan_out, rng, name):
    s = 1.0 / math.sqrt(fan_in)
    w = Tensor(rng.uniform(-s, s, (fan_in, fan_out)), name=f"{name}.w")
    b = Tensor(np.zeros(fan_out), name=f"{name}.b")
    return w, b


@dataclass
class Mlp:
    layers: list[tuple[Tensor, Tensor]]

    @classmethod
    def init(cls, in_dim, sizes, rng, name):
        layers = []
        prev = in_dim
        for i, size in enumerate(sizes):
            layers.append(_dense_init(prev, size, rng.split(i), f"{name}.dense{i}"))
            prev = size
        return cls(layers=layers)

    @property
    def out_dim(self):
        return self.layers[-1][0].shape[1]

    def forward(self, x, dropout_rate, rng, training):
        for i, (w, b) in enumerate(self.layers):
            x = nm.dense(x, w, b)
            if dropout_rate > 0:
                x = nm.dropout(x, dropout_rate, rng.split(("drop", i)), training)
        return x


@dataclass
class ModelParams:
    """Learnable tensors of one variant; components it does not read are None."""

    config: ModelConfig
    embedding: EmbeddingTable
    head1: CtmHeadParams | None
    head2: CtmHeadParams | None
    gate1: Tensor | None
    gate2: Tensor | None
    tower1: Mlp
    tower2: Mlp
    final_w: Tensor
    final_b: Tensor
    eeo: eeo_mod.EeoBranch | None  # cross-net, with a head when it is the aux branch
    fm_bias: Tensor | None

    @classmethod
    def init(cls, config, vocab_sizes, seed):
        """Build the variant's learnable tensors from per-component RNG streams,
        so the draws for any one component do not depend on which others exist."""
        config.validate()
        if len(vocab_sizes) != config.n_fields:
            raise ParameterError(
                f"{len(vocab_sizes)} vocab sizes for {config.n_fields} fields"
            )
        spec = VARIANTS[config.variant]
        root = Rng(seed).split("params")
        d, m = config.embed_dim, config.flat_dim
        tower1 = Mlp.init(m, config.tower1_layers, root.split("tower1"), "tower1")
        tower2 = Mlp.init(m, config.tower2_layers, root.split("tower2"), "tower2")
        final_in = tower1.out_dim + tower2.out_dim + (m if spec.concat_cross else 0)
        final_w, final_b = _dense_init(final_in, 1, root.split("final"), "final")
        eeo = None
        if spec.aux == "cross" or spec.concat_cross:
            head = spec.aux == "cross"
            eeo = eeo_mod.EeoBranch.init(m, config.cross_depth, root.split("eeo"), head=head)
        return cls(
            config=config,
            embedding=EmbeddingTable.init(vocab_sizes, d, root.split("embedding")),
            head1=CtmHeadParams.init(d, root.split("head1"), "head1") if spec.attention else None,
            head2=CtmHeadParams.init(d, root.split("head2"), "head2") if spec.attention else None,
            gate1=Tensor(np.zeros(m), name="gate1") if spec.gate else None,
            gate2=Tensor(np.zeros(m), name="gate2") if spec.gate else None,
            tower1=tower1,
            tower2=tower2,
            final_w=final_w,
            final_b=final_b,
            eeo=eeo,
            fm_bias=Tensor([0.0], name="fm_bias") if spec.aux == "fm" else None,
        )

    def _eeo_params(self):
        eeo = self.eeo
        out = []
        for i, p in enumerate(eeo.layers):
            out += [(f"eeo.cross{i}.weight", p.weight), (f"eeo.cross{i}.bias", p.bias)]
        if eeo.head_weight is not None:
            out += [("eeo.head_weight", eeo.head_weight), ("eeo.head_bias", eeo.head_bias)]
        return out

    def main_branch_params(self):
        """(name, Tensor) pairs the inference path reads, in checkpoint order."""
        spec = VARIANTS[self.config.variant]
        out = [("embedding", self.embedding.table)]
        if spec.attention:
            for tag, h in (("head1", self.head1), ("head2", self.head2)):
                out += [(f"{tag}.w_q", h.w_q), (f"{tag}.w_k", h.w_k), (f"{tag}.w_v", h.w_v)]
        if spec.gate:
            out += [("gate1", self.gate1), ("gate2", self.gate2)]
        for tag, tower in (("tower1", self.tower1), ("tower2", self.tower2)):
            for i, (w, b) in enumerate(tower.layers):
                out += [(f"{tag}.dense{i}.w", w), (f"{tag}.dense{i}.b", b)]
        out += [("final.w", self.final_w), ("final.b", self.final_b)]
        if spec.concat_cross:
            out += self._eeo_params()
        return out

    def named_params(self):
        """Every learnable tensor by name: the main branch, then the aux head."""
        spec = VARIANTS[self.config.variant]
        out = self.main_branch_params()
        if spec.aux == "cross":
            out += self._eeo_params()
        elif spec.aux == "fm":
            out += [("fm_bias", self.fm_bias)]
        return out

    def zero_grads(self):
        for _, p in self.named_params():
            p.zero_grad()

    def copy_values(self):
        return {n: p.value.copy() for n, p in self.named_params()}

    def load_values(self, values):
        named = dict(self.named_params())
        if named.keys() != values.keys():
            differ = sorted(named.keys() ^ values.keys())
            raise CheckpointError(f"tensors {differ} not shared with a {self.config.variant} model")
        for n, p in named.items():
            if p.value.shape != values[n].shape:
                raise CheckpointError(f"shape mismatch for {n}")
            p.value = values[n].copy()


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
    infer mode the auxiliary branch and dropout are never evaluated, and no
    graph is built.
    """
    training = mode == "train"
    if training and rng is None:
        raise ParameterError("train mode requires an rng")
    if training:
        return _forward(indices, params, k, True, rng)
    with nm.no_grad():
        return _forward(indices, params, k, False, Rng(0) if rng is None else rng)


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


_branch_pool = None  # one worker thread for tower 2's path, made on first use
_branch_pool_lock = threading.Lock()


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
                max_workers=1, thread_name_prefix="delta-tower2"
            )
        return _branch_pool


def _forward(indices, params, k, training, rng):
    cfg = params.config
    spec = VARIANTS[cfg.variant]
    b = indices.shape[0]
    emb = layers_mod.embed_lookup(params.embedding, indices)  # (B, n, d)
    e_flat = nm.reshape(emb, (b, cfg.flat_dim))
    if spec.attention == "soft":  # k=n keeps every weight and selects nothing
        k = cfg.n_fields

    # The two paths share nothing until the concat below. Their numpy and
    # BLAS work releases the GIL, so tower 2's path runs on the worker thread
    # while tower 1's runs here; the graph, the RNG draws and the values are
    # those of running them one after the other. The worker runs in a copy
    # of this context, so no_grad() holds there too.
    def path(i, head, gate, tower):
        return _tower_path(emb, e_flat, head, gate, tower, k, cfg, rng.split(f"tower{i}"), training)

    second = _branch_worker().submit(
        contextvars.copy_context().run, path, 2, params.head2, params.gate2, params.tower2
    )
    try:
        t1, state1 = path(1, params.head1, params.gate1, params.tower1)
    except BaseException:
        second.exception()  # tower 2's path ends before the error leaves
        raise
    t2, state2 = second.result()
    pieces = [t1, t2]
    if spec.concat_cross:
        x = e_flat
        for p in params.eeo.layers:
            x = eeo_mod.cross_layer(e_flat, x, p)
        pieces.append(x)
    joint = nm.concat(pieces, axis=-1)
    logit = nm.reshape(nm.add(nm.matmul(joint, params.final_w), params.final_b), (b,))
    y_main = nm.sigmoid(logit)

    y_eeo = None
    if training and spec.aux and cfg.lam > 0:
        if spec.aux == "fm":
            aux_logit = eeo_mod.eeo_fm_forward(emb, params.fm_bias)
        else:
            aux_logit = eeo_mod.eeo_forward(e_flat, params.eeo)
        y_eeo = nm.sigmoid(aux_logit)
    return ForwardOutput(y_main=y_main, y_eeo=y_eeo, state1=state1, state2=state2)


def bce_loss(y_hat, labels):
    """Mean binary cross-entropy with probabilities clipped to
    [1e-7, 1 - 1e-7]."""
    return nm.bce(y_hat, labels)


def total_loss(l_main, l_eeo, lam):
    if lam < 0:
        raise ParameterError("lambda must be >= 0")
    if l_eeo is None or lam == 0:
        return l_main
    return nm.add(l_main, nm.scale(l_eeo, lam))


def backward_and_accumulate(indices, labels, params, k, rng):
    """Train-mode forward + backward; returns (loss value, grads by name).

    The auxiliary branch reaches only the embedding table and its own
    parameters. Tensors the loss did not reach get a zero gradient. The
    forward's outputs are dropped before backward, which then frees each
    node's arrays as soon as it has been run through.
    """
    params.zero_grads()
    out = delta_forward(indices, params, k, mode="train", rng=rng)
    l_main = bce_loss(out.y_main, labels)
    l_eeo = None if out.y_eeo is None else bce_loss(out.y_eeo, labels)
    del out
    loss = total_loss(l_main, l_eeo, params.config.lam)
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
        {"config": params.config.to_dict(), "extra": extra or {}, "n_tensors": len(named)}
    ).encode()
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<HI", CKPT_VERSION, len(header)))
    buf.write(header)
    for name, p in named:
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", p.value.ndim))
        buf.write(struct.pack(f"<{p.value.ndim}Q", *p.value.shape))
        buf.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path, vocab_sizes):
    """Any unreadable or mismatched checkpoint raises CheckpointError, and
    so does a header whose extra is not a JSON object or whose k (the
    bottleneck the model was trained at, optional) is not in [1, n_fields]."""
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
        config = ModelConfig.from_dict(header["config"])
        params = ModelParams.init(config, vocab_sizes, seed=0)
        values = {}
        for _ in range(header["n_tensors"]):
            (nlen,) = struct.unpack_from("<H", buf, pos)
            name = buf[pos + 2 : pos + 2 + nlen].decode()
            pos += 2 + nlen
            (ndim,) = struct.unpack_from("<B", buf, pos)
            shape = struct.unpack_from(f"<{ndim}Q", buf, pos + 1)
            pos += 1 + 8 * ndim
            count = int(np.prod(shape)) if ndim else 1
            values[name] = np.frombuffer(buf, "<f8", count, pos).reshape(shape)
            pos += 8 * count
        if pos != len(buf):
            raise ValueError(f"{len(buf) - pos} stray bytes after the last tensor")
        params.load_values(values)
        extra = header["extra"]
        if not isinstance(extra, dict):
            raise ValueError(f"header extra must be a JSON object, got {json.dumps(extra)}")
        k = extra.get("k", config.n_fields)
        if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= config.n_fields:
            raise ValueError(f"k must be an integer in [1, {config.n_fields}], got {json.dumps(k)}")
        return params, extra
    except (struct.error, ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: unreadable or mismatched checkpoint: {e}") from e
