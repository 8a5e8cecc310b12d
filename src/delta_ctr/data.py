"""Categorical CTR data pipeline.

Reads header-bearing delimited text (tab or comma, auto-detected), builds
per-field vocabularies with a frequency threshold, encodes instances as
dense index rows, splits 8:1:1, and serves shuffled batches. A binary
cache format ("DLTA") avoids re-encoding between runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from dataclasses import dataclass, field
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
    """Per-field kept tokens in index order: tokens[i][j] has index j + 1
    in field i, and index 0 is reserved for OOV/rare."""

    tokens: list[list[str]]
    # set by build_vocab: per field, the token list of the Column it read
    # and where in it tokens[i] lie, so encode can index that Column
    # without a dict
    origin: list[tuple[list[str], np.ndarray]] | None = field(default=None, init=False, repr=False,
                                                              compare=False)

    @property
    def maps(self):
        """Per-field token -> index dicts, built on each call."""
        return [_index_of(t) for t in self.tokens]

    @property
    def sizes(self):
        return [len(t) + 1 for t in self.tokens]

    def to_json(self):
        return json.dumps({"tokens": self.tokens})


def _index_of(kept_tokens):
    """token -> index dict of one field's kept tokens."""
    return dict(zip(kept_tokens, range(1, len(kept_tokens) + 1)))


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


@dataclass(eq=False)
class Column:
    """One field factorized: its distinct tokens in code-point order, how
    many rows hold each, and each row's index into them."""

    tokens: list[str]
    counts: np.ndarray  # (n_distinct,) intp
    codes: np.ndarray  # (n_rows,) intp

    @classmethod
    def of(cls, tokens):
        """The column of a sequence of token strings, one per row."""
        enc = [t.encode() for t in tokens]
        buf = b"".join(enc)
        if b"\0" in buf:
            raise DataError("a token holds a NUL byte")
        lengths = np.fromiter(map(len, enc), np.intp, len(enc))
        return _factorize(np.frombuffer(buf, np.uint8), np.cumsum(lengths) - lengths, lengths)

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        return (isinstance(other, Column) and self.tokens == other.tokens
                and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.codes, other.codes))


# _PREFIX[n] keeps the first n bytes of a big-endian 8-byte word
_PREFIX = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], np.uint64)


def _factorize(buf, starts, lengths):
    """The Column of the tokens buf[s : s + n] for s, n in zip(starts,
    lengths), whose distinct tokens sort as their bytes, which is their
    strings' order: UTF-8 byte order is code-point order. Tokens of at most
    8 bytes, zero-padded to 8, are one key compared big-endian, which sorts
    them alike as no token holds a NUL byte; wider ones are factorized by a
    dict over their bytes, as padding each to the widest costs rows x width."""
    if lengths.max(initial=0) > 8:
        mv = memoryview(buf)
        keys = [mv[s:e].tobytes() for s, e in zip(starts.tolist(), (starts + lengths).tolist())]
        found = sorted(dict.fromkeys(keys))
        code_of = dict(zip(found, range(len(found))))
        codes = np.fromiter(map(code_of.__getitem__, keys), np.intp, len(keys))
        return Column(b"\0".join(found).decode().split("\0"), np.bincount(codes), codes)
    if buf.size < 8:
        buf = np.concatenate([buf, np.zeros(8, np.uint8)])
    words = np.ndarray((buf.size - 7,), ">u8", buf, strides=(1,))  # one word at each byte
    at = np.minimum(starts, buf.size - 8)  # a token in the last 7 bytes is read from the last word
    keys = (words[at] << (8 * (starts - at)).astype(np.uint64)) & _PREFIX[lengths]
    distinct, codes, counts = np.unique(keys, return_inverse=True, return_counts=True)
    tokens = b"\0".join(distinct.astype(">u8").view("S8").tolist()).decode().split("\0")
    return Column(tokens if len(distinct) else [], counts, codes)


def _check_bytes(path, raw):
    """DataError at the line of a NUL byte, or else of the first byte
    that is not UTF-8."""
    at, what = raw.find(b"\0"), "a NUL byte is not allowed"
    if at < 0 and not raw.isascii():
        try:
            raw.decode()
        except UnicodeDecodeError as e:
            at, what = e.start, f"not UTF-8 (byte 0x{raw[e.start]:02x} at offset {e.start}: {e.reason})"
    if at >= 0:
        head = raw[:at]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1  # LF, CR or CRLF, as csv
        raise DataError(f"{path}:{line}: {what}")


def _header(path, f):
    """(delimiter, reader, header, label column) of the text stream f: a tab
    delimits if f's first line holds one, else a comma; the header, which
    may span lines, is the first row of a strict csv reader of f."""
    first = f.readline()
    if not first:
        raise DataError(f"{path}: empty file")
    f.seek(0)
    delim = "\t" if "\t" in first else ","
    reader = csv.reader(f, delimiter=delim, strict=True)
    try:
        header = next(reader)
    except csv.Error as e:
        raise DataError(f"{path}:1: {e}") from None
    if "label" not in header:
        raise DataError(f"{path}: no 'label' column in header {header}")
    return delim, reader, header, header.index("label")


def _label(tok):
    """0 or 1 of a label token; None unless it parses to exactly 0 or 1."""
    try:
        y = float(tok)
    except ValueError:
        return None
    return int(y) if y in (0.0, 1.0) else None  # so neither 0.7, 1.5 nor inf passes


def _split_bytes(path, raw):
    """Tokenizer of a file with no quote, split at delimiter and LF bytes
    once CRLF, then any other CR, is rewritten to LF: csv's line ends."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    body = raw.find(b"\n") + 1 or len(raw)
    delim, _, header, label_col = _header(path, io.StringIO(raw[:body].decode(), newline=""))
    buf = np.frombuffer(raw, np.uint8)
    is_cut = buf == ord(delim)
    is_cut |= buf == 10
    is_cut[:body] = False
    cuts = np.flatnonzero(is_cut)  # where each token ends
    del is_cut
    if len(raw) > body and raw[-1] != 10:
        cuts = np.append(cuts, len(raw))  # the last line has no newline
    is_end = buf.take(cuts, mode="clip") == 10
    is_end[-1:] = True
    last = np.flatnonzero(is_end)  # each line's last token, as an index into cuts
    first = np.append(0, last + 1)[:-1]  # and its first
    start = np.append(body, cuts[last] + 1)[:-1]  # each line's first byte
    kept = np.flatnonzero((first != last) | (cuts[last] != start))  # the lines that are not blank
    first, last, start = first[kept], last[kept], start[kept]

    def column(j):
        starts = start if j == 0 else cuts[first + j - 1] + 1
        return _factorize(buf, starts, cuts[first + j] - starts)

    return header, label_col, kept + 2, last - first + 1, column


def _read_csv(path, raw):
    """Tokenizer of a file read by csv, strictly, row by row; a DataError
    names the line where a row csv cannot read starts."""
    _, reader, header, label_col = _header(path, io.StringIO(raw.decode(), newline=""))
    lines, rows, lineno = [], [], reader.line_num + 1
    try:
        for row in reader:
            if row:
                lines.append(lineno)
                rows.append(row)
            lineno = reader.line_num + 1  # where the next row starts
    except csv.Error as e:
        raise DataError(f"{path}:{lineno}: {e}") from None
    return header, label_col, lines, list(map(len, rows)), lambda j: Column.of([row[j] for row in rows])


def _rows(path, header, label_col, lines, widths, column):
    """The label list of what a tokenizer returns: the header, its label
    column, the line where each row that is not blank starts, its cell count,
    and column(j), field j's Column, once every row has the header's cell
    count. DataError at the first row whose cell count is not the header's,
    or else at the first label not 0 or 1."""
    bad = np.flatnonzero(np.not_equal(widths, len(header)))
    if bad.size:
        raise DataError(f"{path}:{lines[bad[0]]}: expected {len(header)} columns, got {widths[bad[0]]}")
    col = column(label_col)
    values = [_label(tok) for tok in col.tokens]
    if None in values:
        r = np.flatnonzero(np.equal(values, None)[col.codes])[0]
        raise DataError(f"{path}:{lines[r]}: label must be 0 or 1, got {col.tokens[col.codes[r]]!r}")
    return np.array(values, np.uint8)[col.codes].tolist()


def read_raw(path):
    """Parse a delimited UTF-8 file into (schema, label list, columns).

    The header must contain a `label` column; every other column is a
    field, returned as one Column of its tokens in file order. A file with
    a `"` is read by csv, strictly; any other is split at its bytes.
    """
    with open(path, "rb") as f:
        raw = f.read()
    _check_bytes(path, raw)
    tokenize = _read_csv if b'"' in raw else _split_bytes
    header, label_col, lines, widths, column = tokenize(path, raw)
    labels = _rows(path, header, label_col, lines, widths, column)
    schema = [FieldSchema(name) for i, name in enumerate(header) if i != label_col]
    return schema, labels, [column(j) for j in range(len(header)) if j != label_col]


def build_vocab(columns, min_freq=1):
    """Deterministic vocabulary per Column: tokens seen at least min_freq
    times take indices 1, 2, ... by count descending, then by token; every
    other token folds to index 0. Columns with rows of which no token is
    kept, in any column, are a DataError: every row would encode alike."""
    if min_freq < 1:
        raise DataError(f"min_freq must be >= 1, got {min_freq}")
    tokens, origin = [], []
    for col in columns:
        kept = np.flatnonzero(col.counts >= min_freq)
        kept = kept[np.argsort(-col.counts[kept], kind="stable")]  # ties stay in token order
        tokens.append(np.array(col.tokens, dtype=object)[kept].tolist())
        origin.append((col.tokens, kept))
    if any(len(col) for col in columns) and not any(tokens):
        raise DataError(f"no token of any field appears {min_freq} times (min_freq): "
                        "every field would keep only its OOV row")
    vocab = Vocabulary(tokens=tokens)
    vocab.origin = origin
    return vocab


def encode(schema, labels, columns, vocab):
    """Dataset of Columns: each distinct token's index, taken by each row's
    code. A Column the vocabulary was built from is indexed by the
    positions build_vocab kept; any other is looked up token by token."""
    indices = np.zeros((len(labels), len(schema)), dtype=np.int32)
    origin = vocab.origin or repeat((None, None))
    for i, (col, kept_tokens, (source, kept)) in enumerate(zip(columns, vocab.tokens, origin)):
        if col.tokens is source:
            known = np.zeros(len(source), np.int32)
            known[kept] = np.arange(1, kept.size + 1)
        else:
            index = _index_of(kept_tokens)
            known = np.fromiter(map(index.get, col.tokens, repeat(0)), np.int32, len(col.tokens))
        indices[:, i] = known[col.codes]
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
        latents = rng.normal(size=(n_informative, vocab_size))
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
