"""Seeded input generators for the benchmark workloads.

Each workload has a fixed planted model (its latents do not depend on the
seed) and draws its rows from a numpy Generator keyed by (seed, workload). It
writes a header-bearing comma-separated file that ``delta prep`` reads, and
returns the Bayes-optimal click probability of every row, so model quality is
judged against a ceiling computed apart from ``delta_ctr.data``. The program
only ever sees the written file.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# train-synth: the acceptance-test shape (10 fields, 20 tokens per field)
SYNTH_FIELDS = 10
SYNTH_VOCAB = 20
SYNTH_ROWS = 25_000

# train-paper: 39 categorical fields, Zipf-skewed over a large universe
PAPER_FIELDS = 39
PAPER_ROWS = 20_480
ZIPF_S = 1.1
ZIPF_UNIVERSE = 1_000_000
PAPER_SIGNAL = 2.0
PAPER_HEAD = 50

# prep-eval: Criteo layout (label, I1..I13 integer counts, C1..C26 hashed)
CRITEO_INT = 13
CRITEO_CAT = 26
CRITEO_ROWS = 24_576
# categorical universe per C column: every fourth tiny, the rest large
CRITEO_UNIVERSE = [1_000_000 if i % 4 else 500 for i in range(CRITEO_CAT)]
# seed-independent leading rows; their integer columns alternate 1000 and
# 1001, two values the documented log-bucketing puts in one bucket
CANARY_ROWS = 16
CRITEO_HEAD = 50
CRITEO_SIGNAL = 2.0


@dataclass
class RawInput:
    path: str
    header: list[str]
    numeric: list[str]  # columns the documented rule log-buckets
    labels: np.ndarray  # (N,) uint8, file order
    bayes: np.ndarray  # (N,) float64 Bayes-optimal P(click)

    @property
    def n_rows(self):
        return len(self.labels)


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _world(tag):
    """Stream for a workload's planted latents: the same for every seed."""
    return np.random.default_rng(np.random.SeedSequence([2305_04891, tag]))


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _hex_token(field, rank):
    """8-hex-digit token from a bijective 32-bit hash of the rank, so
    lexicographic order is unrelated to frequency order."""
    h = (rank.astype(np.uint64) * np.uint64(2654435761) + np.uint64(40503 * (field + 1))) % np.uint64(
        1 << 32
    )
    nibbles = (h[:, None] >> np.arange(28, -1, -4, dtype=np.uint64)) & np.uint64(15)
    return _HEX_DIGITS[nibbles.astype(np.intp)].view("S8").ravel().astype(str)


@functools.lru_cache(maxsize=4)
def _zipf_cdf(universe):
    cdf = np.cumsum(np.arange(1, universe + 1, dtype=np.float64) ** -ZIPF_S)
    return cdf / cdf[-1]


def _zipf(rng, universe, n):
    """n ranks from a finite Zipf(ZIPF_S) over 0..universe-1 (inverse CDF)."""
    cdf = _zipf_cdf(universe)
    return np.minimum(np.searchsorted(cdf, rng.random(n)), universe - 1)


def _write(path, header, columns, labels):
    cols = [labels.astype(str).tolist()] + [c.tolist() for c in columns]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.write("\n".join(",".join(row) for row in zip(*cols)))
        f.write("\n")


def _labels(rng, logit):
    p = 1.0 / (1.0 + np.exp(-logit))
    return (rng.random(len(p)) < p).astype(np.uint8), p


def synth(path, seed):
    """Planted interaction over fields 0 and 1; the other 8 fields are noise.

    logit = 2 * (a0[t0] + a1[t1]) + 0.5 * z0[t0] * z1[t1], all latents N(0, 1).
    """
    world, rng = _world(1), _rng(seed, 1)
    a = world.normal(size=(2, SYNTH_VOCAB))
    z = world.normal(size=(2, SYNTH_VOCAB))
    tok = rng.integers(0, SYNTH_VOCAB, (SYNTH_ROWS, SYNTH_FIELDS))
    logit = 2.0 * (a[0, tok[:, 0]] + a[1, tok[:, 1]]) + 0.5 * z[0, tok[:, 0]] * z[1, tok[:, 1]]
    labels, bayes = _labels(rng, logit)
    header = ["label"] + [f"f{i}" for i in range(SYNTH_FIELDS)]
    columns = [np.char.add(f"v{i}_", tok[:, i].astype(str)) for i in range(SYNTH_FIELDS)]
    _write(path, header, columns, labels)
    return RawInput(path, header, [], labels, bayes)


def _head_latent(world, ranks, head, scale):
    """N(0, scale) latent for the `head` most frequent ranks, 0 for the tail."""
    lat = world.normal(scale=scale, size=head)
    return np.where(ranks < head, lat[np.minimum(ranks, head - 1)], 0.0)


def paper(path, seed):
    """39 Zipf(1.1) categorical fields; fields 0-3 carry additive signal on
    their PAPER_HEAD most frequent tokens, fields 0 and 1 a pairwise
    interaction on their 500 most frequent."""
    world, rng = _world(2), _rng(seed, 2)
    ranks = np.stack([_zipf(rng, ZIPF_UNIVERSE, PAPER_ROWS) for _ in range(PAPER_FIELDS)], axis=1)
    logit = -1.0 + sum(_head_latent(world, ranks[:, f], PAPER_HEAD, PAPER_SIGNAL) for f in range(4))
    logit = logit + _head_latent(world, ranks[:, 0], 500, 1.0) * _head_latent(
        world, ranks[:, 1], 500, 1.0
    )
    labels, bayes = _labels(rng, logit)
    header = ["label"] + [f"c{i}" for i in range(PAPER_FIELDS)]
    columns = [_hex_token(i, ranks[:, i]) for i in range(PAPER_FIELDS)]
    _write(path, header, columns, labels)
    return RawInput(path, header, [], labels, bayes)


def _criteo_block(world, rng, n):
    """Integer columns: floor(lognormal) counts with 10% empty; categorical
    columns: Zipf ranks with 5% empty. Signal sits on the CRITEO_HEAD most
    frequent tokens of C1-C4, plus a C1 x C2 interaction."""
    ints = np.floor(rng.lognormal(mean=1.0, sigma=1.0, size=(n, CRITEO_INT))).astype(np.int64)
    int_missing = rng.random((n, CRITEO_INT)) < 0.10
    ranks = np.stack([_zipf(rng, u, n) for u in CRITEO_UNIVERSE], axis=1)
    cat_missing = rng.random((n, CRITEO_CAT)) < 0.05
    logit = -1.0 + sum(
        _head_latent(world, ranks[:, f], CRITEO_HEAD, CRITEO_SIGNAL) for f in range(4)
    )
    logit = logit + _head_latent(world, ranks[:, 0], CRITEO_HEAD, 1.0) * _head_latent(
        world, ranks[:, 1], CRITEO_HEAD, 1.0
    )
    labels, bayes = _labels(rng, logit)
    return ints, int_missing, ranks, cat_missing, labels, bayes


def criteo(path, seed):
    """Criteo-shaped file: label, I1..I13, C1..C26. The first CANARY_ROWS
    rows come from a fixed stream, whatever the seed."""
    canary = _criteo_block(_world(3), _rng(0, 3), CANARY_ROWS)
    canary[0][:] = np.where(np.arange(CANARY_ROWS)[:, None] % 2 == 0, 1000, 1001)
    canary[1][:] = False
    body = _criteo_block(_world(3), _rng(seed, 4), CRITEO_ROWS - CANARY_ROWS)
    ints, int_missing, ranks, cat_missing, labels, bayes = (
        np.concatenate([c, b]) for c, b in zip(canary, body)
    )
    header = (
        ["label"]
        + [f"I{i + 1}" for i in range(CRITEO_INT)]
        + [f"C{i + 1}" for i in range(CRITEO_CAT)]
    )
    columns = [np.where(int_missing[:, i], "", ints[:, i].astype(str)) for i in range(CRITEO_INT)]
    columns += [
        np.where(cat_missing[:, i], "", _hex_token(100 + i, ranks[:, i])) for i in range(CRITEO_CAT)
    ]
    _write(path, header, columns, labels)
    return RawInput(path, header, header[1 : 1 + CRITEO_INT], labels, bayes)


GENERATORS = {"train-synth": synth, "train-paper": paper, "prep-eval": criteo}
