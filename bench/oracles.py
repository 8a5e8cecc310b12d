"""Computations the benchmark checks the program against, written apart
from ``delta_ctr``: file readers for the cache and checkpoint formats, the
documented vocabulary and bucketing rule, a numpy-only DELTA forward pass,
and the AUC and logloss definitions. Only numpy and the file formats'
documented layouts are shared with the program.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter

import numpy as np

MISSING = "MISSING"
PROB_CLIP = 1e-7  # the clip the README's logloss uses


# ---- metrics -------------------------------------------------------------


def auc(scores, labels):
    """Rank-statistic (Mann-Whitney) AUC with ties counted one half."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)  # 1-based mean rank
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores, labels):
    p = np.clip(np.asarray(scores, dtype=np.float64), PROB_CLIP, 1.0 - PROB_CLIP)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


# ---- data path ------------------------------------------------------------


def bucket(token):
    """Criteo log bucketing: empty or negative -> MISSING, v <= 2 -> v,
    otherwise floor(ln(v)^2)."""
    if token.strip() == "":
        return MISSING
    v = float(token)
    if math.isnan(v) or v < 0:
        return MISSING
    if v <= 2:
        return str(int(v))
    return str(int(math.log(v) ** 2))


def read_columns(path):
    """(header, labels, columns) of a comma-separated file the benchmark
    wrote; it quotes nothing, so a plain split is exact."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    cols = list(zip(*rows))
    li = header.index("label")
    labels = np.array([int(v) for v in cols[li]], dtype=np.uint8)
    names = [h for i, h in enumerate(header) if i != li]
    return names, labels, [list(c) for i, c in enumerate(cols) if i != li]


def encode_column(tokens, min_freq):
    """Documented vocabulary rule for one field: tokens seen at least
    min_freq times, ordered by frequency descending then lexicographically,
    take indices 1, 2, ...; every other token is index 0.
    Returns (indices, vocabulary size including index 0)."""
    counts = Counter(tokens)
    kept = sorted((t for t, c in counts.items() if c >= min_freq), key=lambda t: (-counts[t], t))
    index = {t: i + 1 for i, t in enumerate(kept)}
    return np.array([index.get(t, 0) for t in tokens], dtype=np.int64), len(kept) + 1


def read_cache(path):
    """Cache layout: b"DLTA", u16 version, u16 n_fields, n_fields x u32
    vocabulary sizes, u64 rows, then rows of n_fields int32 indices, u8
    label, u8 split tag; all little-endian."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"DLTA":
        raise ValueError("not a cache file")
    _, nf = struct.unpack_from("<HH", buf, 4)
    vocab = list(struct.unpack_from(f"<{nf}I", buf, 8))
    (n,) = struct.unpack_from("<Q", buf, 8 + 4 * nf)
    row = np.dtype([("idx", "<i4", (nf,)), ("label", "u1"), ("split", "u1")])
    recs = np.frombuffer(buf, dtype=row, count=n, offset=16 + 4 * nf)
    return vocab, recs["idx"].astype(np.int64), recs["label"].copy(), recs["split"].copy()


def read_checkpoint(path):
    """Checkpoint layout: b"DLTC", u16 version, u32 header length, JSON
    header, then per tensor u16 name length, name, u8 ndim, ndim x u64
    shape, float64 payload. Returns (header, {name: array})."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"DLTC":
        raise ValueError("not a checkpoint")
    _, hlen = struct.unpack_from("<HI", buf, 4)
    pos = 10
    header = json.loads(buf[pos : pos + hlen])
    pos += hlen
    arrays = {}
    for _ in range(header["n_tensors"]):
        (nlen,) = struct.unpack_from("<H", buf, pos)
        name = buf[pos + 2 : pos + 2 + nlen].decode()
        pos += 2 + nlen
        ndim = buf[pos]
        shape = struct.unpack_from(f"<{ndim}Q", buf, pos + 1)
        pos += 1 + 8 * ndim
        count = int(np.prod(shape)) if ndim else 1
        arrays[name] = np.frombuffer(buf, "<f8", count, pos).reshape(shape)
        pos += 8 * count
    return header, arrays


# ---- model ----------------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _truncated_attention(e, wq, wk, wv, k):
    """softmax(QK^T / sqrt(d)) keeping each row's k largest weights (ties to
    the lower column), not renormalized, times V."""
    d = e.shape[-1]
    w = (e @ wq) @ np.swapaxes(e @ wk, -1, -2) / math.sqrt(d)
    w = np.exp(w - w.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    keep = np.argsort(-w, axis=-1, kind="stable")[..., :k]
    theta = np.zeros_like(w)
    np.put_along_axis(theta, keep, np.take_along_axis(w, keep, axis=-1), axis=-1)
    return (theta @ (e @ wv)).reshape(e.shape[0], -1)


def _tower(x, p, tag):
    i = 0
    while f"{tag}.dense{i}.w" in p:
        x = np.maximum(x @ p[f"{tag}.dense{i}.w"] + p[f"{tag}.dense{i}.b"], 0.0)
        i += 1
    return x


def delta_scores(p, vocab_sizes, indices, k):
    """Infer-mode click probabilities of the `full` variant with row-scope
    truncation: embedding -> two truncated attention heads -> gated fusion
    with the raw embedding -> two ReLU towers -> concat -> dense -> sigmoid.
    `p` maps the checkpoint's tensor names to arrays."""
    offsets = np.concatenate([[0], np.cumsum(vocab_sizes)[:-1]])
    e = p["embedding"][np.asarray(indices) + offsets]  # (B, n, d)
    e_flat = e.reshape(e.shape[0], -1)
    fused = []
    for h in ("1", "2"):
        enh = _truncated_attention(e, p[f"head{h}.w_q"], p[f"head{h}.w_k"], p[f"head{h}.w_v"], k)
        g = _sigmoid(p[f"gate{h}"])
        fused.append(g * e_flat + (1.0 - g) * enh)
    joint = np.concatenate([_tower(fused[0], p, "tower1"), _tower(fused[1], p, "tower2")], axis=1)
    return _sigmoid((joint @ p["final.w"] + p["final.b"])[:, 0])
