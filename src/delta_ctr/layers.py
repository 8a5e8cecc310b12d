"""Architecture-specific layers: embedding lookup, the two-head truncated
attention (CTM), and the element-wise fusion gate (EFG)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import DimensionError, ParameterError, Tensor


@dataclass
class EmbeddingTable:
    """Per-field embedding rows stored as one stacked matrix.

    Field i's rows live at [offsets[i], offsets[i] + vocab_sizes[i]); row 0
    of each field is the shared OOV row.
    """

    table: Tensor  # (sum(vocab_sizes), d)
    vocab_sizes: list[int]

    def __post_init__(self):
        # (n_fields,): the first row of each field
        self.offsets = np.concatenate([[0], np.cumsum(self.vocab_sizes[:-1])]).astype(np.int64)


def embed_lookup(emb, indices):
    """Batch lookup: indices (B, n) per-field -> Tensor (B, n, d)."""
    idx = np.asarray(indices)
    for i, v in enumerate(emb.vocab_sizes):
        col = idx[..., i]
        if col.size and (col.min() < 0 or col.max() >= v):
            raise DimensionError(f"field {i}: index out of vocabulary range [0, {v})")
    flat = idx + emb.offsets
    return nm.gather(emb.table, flat)


@dataclass
class CtmHeadParams:
    """Square d x d projections; no dimension reduction."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor


@dataclass
class AttentionState:
    """Diagnostics from one CTM head on one batch."""

    weights: np.ndarray  # (B, n, n) softmax attention
    kept_mask: np.ndarray  # (B, n, n) bool; the truncated weights are np.where(kept_mask, weights, 0)


def attention_weights(emb_batch, head):
    """Scaled dot-product attention weights w = softmax(Q K^T / sqrt(d))."""
    d = emb_batch.shape[-1]
    q = nm.matmul(emb_batch, head.w_q)
    key = nm.matmul(emb_batch, head.w_k)
    scores = nm.scale(nm.matmul(q, nm.transpose_last(key)), 1.0 / math.sqrt(d))
    return nm.softmax_rows(scores)


def topk_truncate(w, k, scope="row"):
    """Zero all but the k strongest attention weights; no renormalization.

    scope="row": each query row keeps its own top-k (default).
    scope="global": the k*n largest weights of the whole matrix survive
    (alternative reading of the truncation rule, kept for experimentation).
    Ties at the cutoff break toward the lower flat index.
    """
    n = w.shape[-1]
    if scope == "row":
        return nm.topk_truncate(w, k)
    if scope != "global":
        raise ParameterError(f"unknown truncation scope {scope!r}")
    flat = nm.reshape(w, w.shape[:-2] + (n * n,))
    theta_flat, mask_flat = nm.topk_truncate(flat, k * n)
    return nm.reshape(theta_flat, w.shape), mask_flat.reshape(w.shape)


def ctm_forward(emb_batch, head, k, scope="row"):
    """Truncated attention over a batch of field embeddings.

    emb_batch: Tensor (B, n, d). Computes scaled dot-product attention,
    keeps the top-k weights per query row (surviving weights are NOT
    renormalized), aggregates values, and flattens to enhanced embeddings
    of shape (B, n*d), all in the one node ``numerics.ctm_head``. Returns
    (enhanced, AttentionState).
    """
    out, w, mask = nm.ctm_head(emb_batch, head.w_q, head.w_k, head.w_v, k, scope)
    return out, AttentionState(weights=w, kept_mask=mask)


def soft_attention_forward(emb_batch, head):
    """Plain soft attention composed from the small primitives, coded
    independently of the fused head (no top-k machinery at all): the oracle
    that ``ctm_forward`` at k=n is checked against."""
    b, n, d = emb_batch.shape
    w = attention_weights(emb_batch, head)
    v = nm.matmul(emb_batch, head.w_v)
    out = nm.reshape(nm.matmul(w, v), (b, n * d))
    return out, AttentionState(weights=w.value, kept_mask=np.ones(w.value.shape, dtype=bool))


def truncated_aggregate_sparse(theta_vals, kept_idx, v_vals):
    """Value aggregation touching only the kept weights.

    theta_vals: (B, n, k) surviving weights; kept_idx: (B, n, k) their
    column indices; v_vals: (B, n, d) value rows. Cost is O(B * n * k * d),
    linear in the bottleneck size. Returns (output (B, n, d), multiply-add
    count actually performed).
    """
    b, n, k = theta_vals.shape
    d = v_vals.shape[-1]
    gathered = np.take_along_axis(
        v_vals[:, None, :, :], kept_idx[..., None].repeat(d, axis=-1), axis=2
    )  # (B, n, k, d)
    out = (theta_vals[..., None] * gathered).sum(axis=2)
    return out, 2 * b * n * k * d


def efg_fuse(e_flat, enhanced, gate):
    """sigma(gate) * original + (1 - sigma(gate)) * enhanced, elementwise."""
    if e_flat.shape[-1] != enhanced.shape[-1] or e_flat.shape[-1] != gate.shape[-1]:
        raise DimensionError(
            f"efg_fuse: lengths differ {e_flat.shape} / {enhanced.shape} / {gate.shape}"
        )
    return nm.gate_mix(e_flat, enhanced, gate)
