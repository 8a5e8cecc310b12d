"""Explicit embedding optimization branch: a cross-net over the flattened
original embeddings producing an auxiliary logit. Training-only; the main
branch never consumes its output."""

from __future__ import annotations

from dataclasses import dataclass

from . import numerics as nm
from .numerics import DimensionError, Tensor


@dataclass
class CrossLayerParams:
    weight: Tensor  # (m,)
    bias: Tensor  # (m,)


@dataclass
class EeoBranch:
    layers: list[CrossLayerParams]
    head_weight: Tensor | None  # (m, 1); None when the cross output feeds the main branch
    head_bias: Tensor | None  # (1,)


def cross_net(e_flat, layers):
    """Stacked DCN-style cross layers (``numerics.cross``) from x0 = the
    flattened original embeddings (B, m): x <- x0 * <w, x> + b + x."""
    x = e_flat
    for p in layers:
        x = nm.cross(e_flat, x, p.weight, p.bias)
    return x


def eeo_forward(e_flat, branch):
    """The cross-net, then a scalar head. Returns the pre-sigmoid logit,
    shape (B,)."""
    x = cross_net(e_flat, branch.layers)
    logit = nm.add(nm.matmul(x, branch.head_weight), branch.head_bias)
    return nm.reshape(logit, (e_flat.shape[0],))


def eeo_fm_forward(emb_batch, bias):
    """Factorization-machine ablation of the explicit branch.

    Second-order FM score over the field embeddings (B, n, d):
    0.5 * sum_d [(sum_i e_id)^2 - sum_i e_id^2] + bias, as a logit.
    """
    if emb_batch.shape[1] < 2:
        raise DimensionError("FM needs at least 2 fields")
    summed = nm.tsum(emb_batch, axis=1)  # (B, d)
    sq_of_sum = nm.mul(summed, summed)
    sum_of_sq = nm.tsum(nm.mul(emb_batch, emb_batch), axis=1)
    pair = nm.scale(nm.tsum(nm.sub(sq_of_sum, sum_of_sq), axis=1), 0.5)  # (B,)
    return nm.add(pair, bias)
