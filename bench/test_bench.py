"""Tests of the benchmark's own oracles, generators and tracer.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

import gen
import oracles
import run
from delta_ctr import data, model, numerics, trainer
from spans import SPANS, Tracer, metric_names


def test_auc_matches_pairwise_count_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 6, 80) / 5.0
    labels = rng.integers(0, 2, 80)
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
    assert oracles.auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)


def test_logloss_clips_like_the_readme_says():
    scores = np.array([0.0, 1.0, 0.25, 0.9])
    labels = np.array([1, 0, 0, 1])
    want = 0.0
    for s, y in zip(scores, labels):
        s = min(max(s, 1e-7), 1 - 1e-7)
        want -= math.log(s) if y else math.log(1 - s)
    assert oracles.logloss(scores, labels) == pytest.approx(want / 4, rel=1e-12)


def test_bucket_rule():
    assert oracles.bucket("1000") == oracles.bucket("1001") == "47"
    assert [oracles.bucket(t) for t in ("", " ", "-3", "0", "2", "3")] == [
        "MISSING", "MISSING", "MISSING", "0", "2", "1"]


def test_encode_column_orders_by_count_then_token_and_folds_rare():
    tokens = ["b", "a", "b", "c", "a", "b", "d"]
    idx, size = oracles.encode_column(tokens, min_freq=1)
    assert list(idx) == [1, 2, 1, 3, 2, 1, 4] and size == 5
    idx, size = oracles.encode_column(tokens, min_freq=2)
    assert list(idx) == [1, 2, 1, 0, 2, 1, 0] and size == 3


def test_cache_reader_reads_what_the_program_writes(tmp_path):
    rng = np.random.default_rng(1)
    ds = data.Dataset(schema=[data.FieldSchema(f"f{i}") for i in range(3)],
                      indices=rng.integers(0, 7, (50, 3)).astype(np.int32),
                      labels=rng.integers(0, 2, 50).astype(np.uint8), vocab_sizes=[7, 8, 9])
    tags = rng.integers(0, 3, 50).astype(np.uint8)
    data.save_cache(str(tmp_path / "c.bin"), ds, tags)
    vocab, idx, labels, splits = oracles.read_cache(tmp_path / "c.bin")
    assert vocab == [7, 8, 9]
    assert np.array_equal(idx, ds.indices) and np.array_equal(labels, ds.labels)
    assert np.array_equal(splits, tags)


def _small_model(k_fields=6):
    cfg = model.ModelConfig(n_fields=k_fields, embed_dim=4, tower1_layers=[16, 8],
                            tower2_layers=[12], dropout_rate=0.3, cross_depth=2)
    vocab = [5 + i for i in range(k_fields)]
    params = model.ModelParams.init(cfg, vocab, seed=3)
    rng = np.random.default_rng(2)
    params.gate1.value = rng.normal(size=params.gate1.shape)
    params.gate2.value = rng.normal(size=params.gate2.shape)
    idx = np.stack([rng.integers(0, v, 64) for v in vocab], axis=1)
    return params, vocab, idx


@pytest.mark.parametrize("k", [1, 3, 6])
def test_reference_forward_matches_the_program(tmp_path, k):
    params, vocab, idx = _small_model()
    model.save_checkpoint(str(tmp_path / "m.ckpt"), params, extra={"k": k})
    header, arrays = oracles.read_checkpoint(tmp_path / "m.ckpt")
    assert header["extra"]["k"] == k
    ref = oracles.delta_scores(arrays, vocab, idx, k)
    got = model.delta_forward(idx, params, k, mode="infer").y_main.value
    assert np.max(np.abs(ref - got)) < 1e-12


def test_generators_are_seeded(tmp_path):
    for name, make in gen.GENERATORS.items():
        a = make(str(tmp_path / f"{name}-a"), 5)
        b = make(str(tmp_path / f"{name}-b"), 5)
        c = make(str(tmp_path / f"{name}-c"), 6)
        assert (tmp_path / f"{name}-a").read_bytes() == (tmp_path / f"{name}-b").read_bytes()
        assert (tmp_path / f"{name}-a").read_bytes() != (tmp_path / f"{name}-c").read_bytes()
        assert np.array_equal(a.bayes, b.bayes) and 0 < a.bayes.min() and a.bayes.max() < 1


def test_criteo_canary_rows_do_not_depend_on_the_seed(tmp_path):
    heads = []
    for seed in (1, 2):
        raw = gen.criteo(str(tmp_path / f"c{seed}"), seed)
        with open(raw.path) as f:
            heads.append([next(f) for _ in range(gen.CANARY_ROWS + 1)])
    assert heads[0] == heads[1]
    assert {row.split(",")[1] for row in heads[0][1:]} == {"1000", "1001"}


def _tiny_fit():
    ds = data.generate_synthetic(4, 2, 6, 300, seed=1)
    tr, va, _ = data.split_dataset(ds, seed=1)
    cfg = model.ModelConfig(n_fields=4, embed_dim=3, tower1_layers=[8], tower2_layers=[8],
                            dropout_rate=0.2, cross_depth=2)
    params, _, k = trainer.fit(cfg, trainer.TrainSettings(batch_size=64, lr=1e-2, t_max=2),
                               tr, va, seed=0)
    return trainer.predict(params, va, k)


def test_tracer_changes_no_value_and_restores_every_attribute():
    before = {(owner, attr): owner.__dict__[attr] for _, owner, attr in SPANS}
    prims = {p: getattr(numerics, p) for p in numerics.PRIMITIVES + ["scale"]}
    plain = _tiny_fit()
    tracer = Tracer()
    traced, wall, covered = tracer.run(_tiny_fit)
    assert np.array_equal(plain, traced)
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
    assert all(getattr(numerics, p) is fn for p, fn in prims.items())
    # self times partition the covered time
    assert sum(tracer.self_s.values()) == pytest.approx(covered, rel=1e-9)
    assert 0 < covered <= wall
    assert tracer.counts["trainer.steps"] > 0 and tracer.counts["numerics.infer_nodes"] > 0
    assert len(metric_names()) == len(set(metric_names()))


def test_rate_is_total_work_over_total_time():
    assert run._rate([(10, 2.0), (30, 2.0)]) == 10.0
    assert run._rate([]) == 0.0


def test_scaling_keeps_ratios_between_samples():
    out, short = run._scaled(lambda: time.sleep(0.02) or "done")
    _, long = run._scaled(lambda: time.sleep(0.06))
    assert out == "done"
    assert 1.5 < long / short < 6


def _round(eval_text):
    return run.Round(1.0, [0.1], 0.5, [0.1], 100, 10, "prep", eval_text, "cache", "ckpt")


def test_a_failed_check_fails_its_operations(tmp_path):
    bench = run.Bench("prep-eval", 1, tmp_path)
    bench.ops = [("prep", 0), ("field", "I1"), ("fit",), ("eval", 0), ("eval", 1)]
    bench._fail("eval", "scores off")
    assert bench.failed_ops == {("eval", 0), ("eval", 1)} and bench.problems == ["scores off"]
    assert bench.check_repeat(1, _round("AUC: 0.6"), _round("AUC: 0.6")) == bench.failed_ops
    assert bench.check_repeat(2, _round("AUC: 0.7"), _round("AUC: 0.6")) == set(bench.ops)
    assert len(bench.problems) == 2
