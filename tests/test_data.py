import math
import struct

import numpy as np
import pytest

from delta_ctr import data as data_mod
from delta_ctr import metrics, model
from delta_ctr.data import DataError


def write_toy(path, rows, delim=","):
    header = delim.join(["label", "color", "brand"])
    lines = [header] + [delim.join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


TOY_ROWS = [
    (1, "red", "acme"),
    (0, "red", "bolt"),
    (1, "blue", "acme"),
    (0, "red", "acme"),
    (1, "green", "acme"),
    (0, "blue", "bolt"),
    (1, "red", "acme"),
    (0, "blue", "acme"),
    (1, "red", "bolt"),
    (0, "green", "acme"),
]


class TestBuildVocab:
    def test_threshold(self):
        rows = [["a"]] * 5 + [["b"]] * 3 + [["c"]]
        v = data_mod.build_vocab(rows, 1, min_freq=2)
        assert v.maps[0] == {"a": 1, "b": 2}
        assert v.encode_token(0, "c") == 0  # folds to OOV

    def test_min_freq_one_keeps_all(self):
        rows = [["a"], ["b"], ["c"]]
        v = data_mod.build_vocab(rows, 1, min_freq=1)
        assert set(v.maps[0]) == {"a", "b", "c"}

    def test_deterministic(self):
        rows = [["b"], ["a"], ["b"], ["a"], ["c"]]
        v1 = data_mod.build_vocab(rows, 1)
        v2 = data_mod.build_vocab(rows, 1)
        assert v1.maps == v2.maps

    def test_frequency_then_lexicographic_order(self):
        rows = [["b"], ["b"], ["a"], ["a"], ["c"]]
        v = data_mod.build_vocab(rows, 1)
        assert v.maps[0] == {"a": 1, "b": 2, "c": 3}


class TestBucketize:
    def test_missing(self):
        assert data_mod.bucketize_numeric("") == "MISSING"
        assert data_mod.bucketize_numeric(None) == "MISSING"
        assert data_mod.bucketize_numeric(-3) == "MISSING"

    def test_small_values_verbatim(self):
        assert data_mod.bucketize_numeric(1) == "1"
        assert data_mod.bucketize_numeric(2) == "2"
        assert data_mod.bucketize_numeric(0) == "0"

    def test_squared_log_oracle(self):
        assert data_mod.bucketize_numeric(100) == str(int(math.floor(math.log(100) ** 2)))


class TestSplit:
    def test_exact_811(self):
        d = data_mod.generate_synthetic(3, 1, 5, 10, seed=0)
        tr, va, te = data_mod.split_dataset(d, seed=1)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_same_seed_identical(self):
        d = data_mod.generate_synthetic(3, 1, 5, 100, seed=0)
        a = data_mod.split_dataset(d, seed=7)
        b = data_mod.split_dataset(d, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)

    def test_partition_property(self):
        d = data_mod.generate_synthetic(3, 1, 5, 53, seed=0)
        tr, va, te = data_mod.split_dataset(d, seed=2)
        assert len(tr) + len(va) + len(te) == len(d)
        combined = np.concatenate([tr.indices, va.indices, te.indices])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, d.indices))

    def test_too_small(self):
        d = data_mod.generate_synthetic(3, 1, 5, 9, seed=0)
        with pytest.raises(DataError):
            data_mod.split_dataset(d, seed=0)

    def test_dataset_split_is_the_index_split(self):
        d = data_mod.generate_synthetic(3, 1, 5, 53, seed=0)
        for part, idx in zip(data_mod.split_dataset(d, seed=4), data_mod.split_indices(53, seed=4)):
            assert np.array_equal(part.indices, d.indices[idx])


class TestBatchIter:
    def test_sizes(self):
        d = data_mod.generate_synthetic(3, 1, 5, 10, seed=0)
        sizes = [len(y) for _, y in data_mod.batch_iter(d, 4, shuffle=False)]
        assert sizes == [4, 4, 2]

    def test_no_shuffle_original_order(self):
        d = data_mod.generate_synthetic(3, 1, 5, 12, seed=0)
        batches = list(data_mod.batch_iter(d, 5, shuffle=False))
        got = np.concatenate([b[0] for b in batches])
        assert np.array_equal(got, d.indices)

    def test_shuffle_reproducible_and_complete(self):
        d = data_mod.generate_synthetic(3, 1, 5, 17, seed=0)
        a = np.concatenate([b[0] for b in data_mod.batch_iter(d, 4, seed=3, shuffle=True)])
        b = np.concatenate([b[0] for b in data_mod.batch_iter(d, 4, seed=3, shuffle=True)])
        assert np.array_equal(a, b)
        assert sorted(map(tuple, a)) == sorted(map(tuple, d.indices))

    def test_bad_batch_size(self):
        d = data_mod.generate_synthetic(3, 1, 5, 10, seed=0)
        with pytest.raises(DataError):
            list(data_mod.batch_iter(d, 0))


class TestSynthetic:
    def test_same_seed_identical(self):
        a = data_mod.generate_synthetic(5, 2, 10, 200, seed=9)
        b = data_mod.generate_synthetic(5, 2, 10, 200, seed=9)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.bayes_scores, b.bayes_scores)

    def test_no_signal_auc_half(self):
        d = data_mod.generate_synthetic(5, 0, 10, 4000, seed=1)
        cfg = model.ModelConfig(
            n_fields=5, embed_dim=4, tower1_layers=[8], tower2_layers=[8], dropout_rate=0.0
        )
        params = model.ModelParams.init(cfg, d.vocab_sizes, seed=0)
        out = model.delta_forward(d.indices, params, k=5, mode="infer")
        assert abs(metrics.auc(out.y_main.value, d.labels) - 0.5) < 0.02

    def test_bayes_ceiling_well_defined(self):
        d = data_mod.generate_synthetic(6, 2, 10, 5000, seed=4)
        ceiling = metrics.auc(d.bayes_scores, d.labels)
        assert 0.6 < ceiling < 1.0

    def test_indices_in_range(self):
        d = data_mod.generate_synthetic(4, 2, 7, 500, seed=2)
        assert d.indices.min() >= 0
        assert all(d.indices[:, i].max() < d.vocab_sizes[i] for i in range(4))


class TestRawIO:
    def test_read_and_encode_stable(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_toy(p, TOY_ROWS)
        schema, labels, rows = data_mod.read_raw(p)
        assert [f.name for f in schema] == ["color", "brand"]
        vocab = data_mod.build_vocab(rows, len(schema))
        d1 = data_mod.encode(schema, labels, rows, vocab)
        d2 = data_mod.encode(schema, labels, rows, vocab)
        assert np.array_equal(d1.indices, d2.indices)
        assert d1.indices.max() < max(vocab.sizes)

    def test_tab_autodetect(self, tmp_path):
        p = tmp_path / "toy.tsv"
        write_toy(p, TOY_ROWS, delim="\t")
        schema, labels, rows = data_mod.read_raw(p)
        assert len(labels) == 10

    def test_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("label,color\n1,red\n0\n")
        with pytest.raises(DataError, match="3"):
            data_mod.read_raw(p)

    def test_bad_label(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("label,color\n2,red\n")
        with pytest.raises(DataError, match="label"):
            data_mod.read_raw(p)


class TestCache:
    def test_roundtrip(self, tmp_path):
        d = data_mod.generate_synthetic(4, 2, 7, 50, seed=5)
        splits = np.array([i % 3 for i in range(50)], dtype=np.uint8)
        p = tmp_path / "cache.bin"
        data_mod.save_cache(p, d, splits)
        loaded, loaded_splits = data_mod.load_cache(p)
        assert np.array_equal(loaded.indices, d.indices)
        assert np.array_equal(loaded.labels, d.labels)
        assert np.array_equal(loaded_splits, splits)
        assert loaded.vocab_sizes == d.vocab_sizes

    def test_rerun_byte_identical(self, tmp_path):
        d = data_mod.generate_synthetic(4, 2, 7, 50, seed=5)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        data_mod.save_cache(p1, d)
        data_mod.save_cache(p2, d)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataError, match="magic"):
            data_mod.load_cache(p)

    def test_layout_matches_row_by_row_packing(self, tmp_path):
        """The documented layout, packed one row at a time with struct."""
        d = data_mod.generate_synthetic(3, 2, 7, 23, seed=6)
        splits = np.array([i % 3 for i in range(23)], dtype=np.uint8)
        expected = b"DLTA" + struct.pack("<HH3IQ", 1, 3, *d.vocab_sizes, 23)
        for r in range(23):
            expected += struct.pack("<3iBB", *d.indices[r], d.labels[r], splits[r])
        p = tmp_path / "cache.bin"
        data_mod.save_cache(p, d, splits)
        assert p.read_bytes() == expected

    def test_cut_cache_raises_data_error(self, tmp_path):
        d = data_mod.generate_synthetic(4, 2, 7, 30, seed=5)
        p = tmp_path / "cache.bin"
        data_mod.save_cache(p, d)
        raw = p.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in (4, 6, 8, 15, 24, 31, 32, 33, len(raw) // 2, len(raw) - 100, len(raw) - 1):
            cut.write_bytes(raw[:size])
            with pytest.raises(DataError):
                data_mod.load_cache(cut)
        cut.write_bytes(raw + b"\x00")
        with pytest.raises(DataError):
            data_mod.load_cache(cut)
