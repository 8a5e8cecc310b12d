"""Categorical CTR data pipeline.

Reads header-bearing delimited text (tab or comma, auto-detected), builds
per-field vocabularies with a frequency threshold, encodes instances as
dense index rows, splits 8:1:1, and serves shuffled batches. A binary
cache format ("DLTA") avoids re-encoding between runs.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .numerics import Rng

CACHE_MAGIC = b"DLTA"
CACHE_VERSION = 1

MISSING_TOKEN = "MISSING"


class DataError(ValueError):
    pass


@dataclass
class FieldSchema:
    name: str


@dataclass
class Vocabulary:
    """Per-field token -> index maps; index 0 is reserved for OOV/rare."""

    maps: list[dict[str, int]]

    @property
    def sizes(self):
        return [len(m) + 1 for m in self.maps]

    def to_json(self):
        return json.dumps({"maps": self.maps})


@dataclass
class Dataset:
    """Encoded instances: one int index per field plus a binary label."""

    schema: list[FieldSchema]
    indices: np.ndarray  # (N, n_fields) int32
    labels: np.ndarray  # (N,) uint8
    vocab_sizes: list[int]
    bayes_scores: np.ndarray | None = None  # synthetic data only

    def __len__(self):
        return len(self.labels)

    @property
    def n_fields(self):
        return self.indices.shape[1]

    def subset(self, idx):
        return Dataset(
            schema=self.schema,
            indices=self.indices[idx],
            labels=self.labels[idx],
            vocab_sizes=self.vocab_sizes,
            bayes_scores=None if self.bayes_scores is None else self.bayes_scores[idx],
        )


def bucketize_numeric(v):
    """Criteo-style squared-log bucketing of a numeric value into a token."""
    if v is None or (isinstance(v, str) and v.strip() == ""):
        return MISSING_TOKEN
    v = float(v)
    if math.isnan(v) or v < 0:
        return MISSING_TOKEN
    if v <= 2:
        return str(int(v))
    return str(int(math.floor(math.log(v) ** 2)))


def _detect_delimiter(header_line):
    return "\t" if "\t" in header_line else ","


def read_raw(path):
    """Parse a delimited file into (schema, label list, token columns).

    The header must contain a `label` column; every other column is a field,
    returned as one tuple of its tokens in file order.
    """
    with open(path, newline="") as f:
        first = f.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        delim = _detect_delimiter(first)
        header = next(csv.reader([first], delimiter=delim))
        if "label" not in header:
            raise DataError(f"{path}: no 'label' column in header {header}")
        label_col = header.index("label")
        labels, rows = [], []
        for lineno, row in enumerate(csv.reader(f, delimiter=delim), start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                y = float(row[label_col])
            except ValueError:
                y = None
            if y not in (0.0, 1.0):  # so neither 0.7, 1.5 nor inf passes
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {row[label_col]!r}")
            labels.append(int(y))
            rows.append(row)
    columns = list(zip(*rows)) or [()] * len(header)
    del columns[label_col]
    schema = [FieldSchema(name) for i, name in enumerate(header) if i != label_col]
    return schema, labels, columns


def build_vocab(columns, min_freq=1):
    """Deterministic vocabulary per column: tokens seen at least min_freq
    times take indices 1, 2, ... by count descending, then by token; every
    other token folds to index 0. Columns with rows of which no token is
    kept, in any column, are a DataError: every row would encode alike."""
    if min_freq < 1:
        raise DataError(f"min_freq must be >= 1, got {min_freq}")
    maps = []
    for col in columns:
        counts = Counter(col)
        kept = sorted(tok for tok, n in counts.items() if n >= min_freq)
        kept.sort(key=counts.__getitem__, reverse=True)  # stable: ties stay in token order
        maps.append({tok: j for j, tok in enumerate(kept, start=1)})
    if any(len(col) for col in columns) and not any(maps):
        raise DataError(f"no token of any field appears {min_freq} times (min_freq): "
                        "every field would keep only its OOV row")
    return Vocabulary(maps=maps)


def encode(schema, labels, columns, vocab):
    indices = np.zeros((len(labels), len(schema)), dtype=np.int32)
    for i, (col, index) in enumerate(zip(columns, vocab.maps)):
        indices[:, i] = np.fromiter(map(index.get, col, repeat(0)), np.int32, len(col))
    return Dataset(
        schema=schema,
        indices=indices,
        labels=np.asarray(labels, dtype=np.uint8),
        vocab_sizes=vocab.sizes,
    )


def split_indices(n, seed):
    """Train, val and test indices: a disjoint 8:1:1 cover of range(n) fixed by seed."""
    perm = Rng(seed).split("split").permutation(n)
    n_val = n_test = round(n * 0.1)
    n_train = n - n_val - n_test
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def split_dataset(d, seed):
    """The three split_indices subsets of a dataset of at least 10 rows."""
    if len(d) < 10:
        raise DataError(f"need at least 10 instances to split, got {len(d)}")
    return tuple(d.subset(idx) for idx in split_indices(len(d), seed))


def batch_iter(d, batch_size, seed=0, shuffle=True):
    """Yield (indices, labels) batches covering the dataset exactly once."""
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    n = len(d)
    order = Rng(seed).split("batches").permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        sel = order[start : start + batch_size]
        yield d.indices[sel], d.labels[sel]


def generate_synthetic(n_fields, n_informative, vocab_size, n_rows, seed):
    """Planted-interaction dataset for end-to-end verification.

    Labels come from a logistic model over the first ``n_informative``
    fields only; the remaining fields are pure noise. Each informative
    (field, value) pair carries a latent scalar; the planted signal is the
    sum of pairwise products of those latents (for a single informative
    field, the latent itself). The Bayes-optimal score per instance is
    recorded so tests can compute the achievable-AUC ceiling.
    """
    if not 0 <= n_informative <= n_fields:
        raise DataError("n_informative must be in [0, n_fields]")
    rng = Rng(seed).split("synthetic")
    indices = rng.integers(1, vocab_size, (n_rows, n_fields)).astype(np.int32)
    logit = np.zeros(n_rows)
    if n_informative > 0:
        latents = rng.normal((n_informative, vocab_size))
        z = [latents[i, indices[:, i]] for i in range(n_informative)]
        if n_informative == 1:
            interaction = z[0]
        else:
            interaction = np.zeros(n_rows)
            for i in range(n_informative):
                for j in range(i + 1, n_informative):
                    interaction = interaction + z[i] * z[j]
        logit = 2.5 * interaction
    p = 1.0 / (1.0 + np.exp(-logit))
    labels = (rng.random((n_rows,)) < p).astype(np.uint8)
    schema = [FieldSchema(f"f{i}") for i in range(n_fields)]
    return Dataset(
        schema=schema,
        indices=indices,
        labels=labels,
        vocab_sizes=[vocab_size] * n_fields,
        bayes_scores=p,
    )


def _cache_row(nf):
    return np.dtype([("idx", "<i4", (nf,)), ("label", "u1"), ("split", "u1")])


def save_cache(path, d, splits=None):
    """Binary cache: magic "DLTA", version u16, n_fields u16, vocab sizes
    u32 each, row count u64, then packed rows (n int32 indices, label u8,
    split tag u8)."""
    n, nf = d.indices.shape
    rows = np.zeros(n, dtype=_cache_row(nf))
    rows["idx"] = d.indices
    rows["label"] = d.labels
    rows["split"] = 0 if splits is None else splits
    with open(path, "wb") as f:
        f.write(struct.pack(f"<4sHH{nf}IQ", CACHE_MAGIC, CACHE_VERSION, nf, *d.vocab_sizes, n))
        f.write(rows.tobytes())


def load_cache(path):
    """The dataset and split tags a save_cache file holds; DataError if
    the file is not one, or a row's values are out of range."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != CACHE_MAGIC:
        raise DataError(f"{path}: bad magic {buf[:4]!r}")
    try:
        version, nf = struct.unpack_from("<HH", buf, 4)
        if version != CACHE_VERSION:
            raise DataError(f"{path}: unsupported cache version {version}")
        *vocab_sizes, n = struct.unpack_from(f"<{nf}IQ", buf, 8)
    except struct.error:
        raise DataError(f"{path}: header cut short") from None
    row = _cache_row(nf)
    start = 16 + 4 * nf
    if len(buf) - start != n * row.itemsize:
        raise DataError(f"{path}: {len(buf) - start} bytes of rows, expected {n} x {row.itemsize}")
    rows = np.frombuffer(buf, dtype=row, count=n, offset=start)
    d = Dataset(
        schema=[FieldSchema(f"f{i}") for i in range(nf)],
        indices=rows["idx"].astype(np.int32),
        labels=rows["label"].copy(),
        vocab_sizes=vocab_sizes,
    )
    splits = rows["split"].copy()
    _check_rows(path, d, splits)
    return d, splits


def _check_rows(path, d, splits):
    """Raise DataError unless every index is in [0, vocab size) of its
    field, every label 0 or 1 and every split tag 0, 1 or 2."""
    if not len(d):
        return
    # read as unsigned, a negative index is 2**31 or more: at or above
    # every size, once sizes are capped at 2**31
    sizes = np.minimum(d.vocab_sizes, 2**31).astype(np.uint32)
    as_unsigned = d.indices.view(np.uint32)
    bad = np.flatnonzero(as_unsigned.max(axis=0) >= sizes)
    if bad.size:
        f = bad[0]
        r = np.flatnonzero(as_unsigned[:, f] >= sizes[f])[0]
        raise DataError(f"{path}: row {r}: index {d.indices[r, f]} of field {f} "
                        f"outside [0, {d.vocab_sizes[f]})")
    for name, values, top in (("label", d.labels, 1), ("split tag", splits, 2)):
        if values.max() > top:
            r = np.flatnonzero(values > top)[0]
            raise DataError(f"{path}: row {r}: {name} {values[r]} is not in 0..{top}")
