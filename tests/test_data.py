import csv
import io
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from delta_ctr import data as data_mod
from delta_ctr import cli, metrics, model
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


def rowwise_rows(path):
    """The file's field count, and each row's label and field tokens, parsed by csv."""
    text = path.read_text()
    delim = "\t" if "\t" in text.split("\n", 1)[0] else ","
    header, *rows = [r for r in csv.reader(io.StringIO(text), delimiter=delim) if r]
    li = header.index("label")
    labels = [int(r[li]) for r in rows]
    return len(header) - 1, labels, [[tok for i, tok in enumerate(r) if i != li] for r in rows]


def rowwise_prep(path, min_freq=1):
    """Per-row oracle: parse the rows with csv, count every token with one
    dict update, order by count descending then token, and encode one cell
    at a time. Returns (labels, vocabulary maps, index matrix)."""
    n_fields, labels, rows = rowwise_rows(path)
    counts = [dict() for _ in range(n_fields)]
    for row in rows:
        for i, tok in enumerate(row):
            counts[i][tok] = counts[i].get(tok, 0) + 1
    maps = []
    for c in counts:
        kept = sorted((t for t, n in c.items() if n >= min_freq), key=lambda t: (-c[t], t))
        maps.append({t: j + 1 for j, t in enumerate(kept)})
    indices = np.zeros((len(rows), n_fields), dtype=np.int32)
    for r, row in enumerate(rows):
        for i, tok in enumerate(row):
            indices[r, i] = maps[i].get(tok, 0)
    return labels, maps, indices


class TestBuildVocab:
    def test_threshold(self):
        col = ("a",) * 5 + ("b",) * 3 + ("c",)
        v = data_mod.build_vocab([data_mod.Column.of(col)], min_freq=2)
        assert v.maps[0] == {"a": 1, "b": 2}
        d = data_mod.encode([data_mod.FieldSchema("f")], [0] * len(col), [data_mod.Column.of(col)], v)
        assert d.indices[-1, 0] == 0  # "c" folds to OOV

    def test_min_freq_one_keeps_all(self):
        v = data_mod.build_vocab([data_mod.Column.of(("a", "b", "c"))], min_freq=1)
        assert set(v.maps[0]) == {"a", "b", "c"}

    def test_deterministic(self):
        cols = [("b", "a", "b", "a", "c"), ("z", "y", "z", "x", "z")]
        v1 = data_mod.build_vocab([data_mod.Column.of(c) for c in cols])
        v2 = data_mod.build_vocab([data_mod.Column.of(tuple(reversed(c))) for c in cols])
        assert v1.maps == v2.maps  # independent of row order
        assert v1.maps[1] == {"z": 1, "x": 2, "y": 3}

    def test_frequency_then_lexicographic_order(self):
        v = data_mod.build_vocab([data_mod.Column.of(("b", "b", "a", "a", "c"))])
        assert v.maps[0] == {"a": 1, "b": 2, "c": 3}

    def test_min_freq_above_every_count_rejected(self):
        cols = [data_mod.Column.of(("a", "b", "a")), data_mod.Column.of(("x", "y", "z"))]
        assert data_mod.build_vocab(cols, min_freq=2).sizes == [2, 1]  # one field keeps a token
        with pytest.raises(DataError, match="no token of any field appears 3 times"):
            data_mod.build_vocab(cols, min_freq=3)
        assert data_mod.build_vocab([data_mod.Column.of(()), data_mod.Column.of(())], min_freq=3).sizes == [1, 1]  # no rows: nothing to fold

    def test_bad_min_freq(self):
        with pytest.raises(DataError, match="min_freq"):
            data_mod.build_vocab([data_mod.Column.of(("a",))], min_freq=0)


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
        schema, labels, columns = data_mod.read_raw(p)
        assert [f.name for f in schema] == ["color", "brand"]
        assert labels == [r[0] for r in TOY_ROWS]
        assert columns == [data_mod.Column.of(tuple(r[1] for r in TOY_ROWS)),
                           data_mod.Column.of(tuple(r[2] for r in TOY_ROWS))]
        vocab = data_mod.build_vocab(columns)
        assert vocab.maps == [{"red": 1, "blue": 2, "green": 3}, {"acme": 1, "bolt": 2}]
        d1 = data_mod.encode(schema, labels, columns, vocab)
        d2 = data_mod.encode(schema, labels, columns, vocab)
        assert np.array_equal(d1.indices, d2.indices)
        assert d1.indices[:3].tolist() == [[1, 1], [1, 2], [2, 1]]
        assert d1.indices.max() < max(vocab.sizes)

    def test_tab_autodetect(self, tmp_path):
        p = tmp_path / "toy.tsv"
        write_toy(p, TOY_ROWS, delim="\t")
        schema, labels, columns = data_mod.read_raw(p)
        assert len(labels) == 10
        assert [len(c) for c in columns] == [10, 10]

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

    @pytest.mark.parametrize("label", ["1.5", "0.7", "inf", "-inf", "nan", "-1", "1e400", "x", ""])
    def test_label_not_exactly_0_or_1_reports_line(self, tmp_path, label):
        p = tmp_path / "bad.csv"
        p.write_text(f"label,color\n1,red\n{label},blue\n")
        with pytest.raises(DataError, match=f":3: label must be 0 or 1, got {label!r}"):
            data_mod.read_raw(p)

    @pytest.mark.parametrize("delim", [",", "\t"])
    def test_header_with_a_quoted_newline(self, tmp_path, delim):
        p = tmp_path / "raw.csv"
        p.write_text(f'label{delim}"a\nb"\n1{delim}x\n0{delim}y\n')
        schema, labels, columns = data_mod.read_raw(p)
        assert [f.name for f in schema] == ["a\nb"] and labels == [1, 0]
        assert columns == [data_mod.Column.of(("x", "y"))]
        p.write_text(f'label{delim}"a\nb"\n1{delim}x\n0.5{delim}y\n')
        with pytest.raises(DataError, match=":4: label must be 0 or 1, got '0.5'"):
            data_mod.read_raw(p)

    def test_labels_that_parse_to_0_or_1_accepted(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text("label,color\n0.0,a\n1.0,b\n1e0,c\n-0,d\n 1,e\n")
        assert data_mod.read_raw(p)[1] == [0, 1, 1, 0, 1]


PREP_CASES = {
    # three tokens with two occurrences each, so order falls to the token
    "count_ties": "label,a,b\n1,y,q\n0,x,q\n1,z,p\n0,y,p\n1,x,r\n0,z,r\n1,w,q\n",
    "under_min_freq": "label,a\n1,a\n0,a\n1,b\n0,c\n1,c\n0,d\n",
    "empty_cells": "label,a,b\n1,,x\n0,,\n1,v,\n0,v,x\n",
    "quoted_delimiter": 'label,a,b\n1,"x,y",p\n0,x,"p"\n1,"x,y",q\n',
    "blank_line": "label,a\n1,x\n\n0,y\n1,x\n",
    "tsv": "a\tlabel\tb\nx y\t1\tp,q\nx\t0\tp,q\nx y\t1\tp\n",
    "header_only": "label,a,b\n",
    "crlf": "label,a,b\r\n1,x,p\r\n0,y,p\r\n\r\n1,x,q\r\n",
    "no_final_newline": "label,a,b\n1,x,p\n0,y,p\n1,x,q",
    "outer_blank_lines": "label,a,b\n\n\n1,x,p\n0,y,\n1,x,q\n\n\n",
    "non_ascii": "label,a,b\n1,caf\u00e9,\u20ac\n0,cafe,\u20ac\n1,caf\u00e9,\u65e5\u672c\n0,\u00fc,\U0001f600\n",
    # 8, 9 and 10 bytes, and a 3-character token of 9 bytes
    "long_tokens": "label,a\n1,abcdefghij\n0,abcdefghi\n1,abcdefghij\n0,abcdefgh\n1,a\n0,\u65e5\u672c\u8a9e\n",
    "prefix_token": "label,a,b\n1,ab,abcdefghi\n0,a,abcdefgh\n1,abc,abcdefghi\n0,ab,abcdefgh\n1,b,a\n",
}


@pytest.mark.parametrize("case", sorted(PREP_CASES))
@pytest.mark.parametrize("min_freq", [1, 2])
def test_columnar_prep_equals_rowwise_oracle(tmp_path, case, min_freq):
    p = tmp_path / "raw.txt"
    p.write_text(PREP_CASES[case])
    want_labels, want_maps, want = rowwise_prep(p, min_freq)
    schema, labels, columns = data_mod.read_raw(p)
    assert labels == want_labels
    vocab = data_mod.build_vocab(columns, min_freq)
    assert vocab.maps == want_maps
    assert [list(m) for m in vocab.maps] == [list(m) for m in want_maps]  # same .vocab.json order
    d = data_mod.encode(schema, labels, columns, vocab)
    assert d.indices.dtype == np.int32
    assert np.array_equal(d.indices, want)
    assert d.labels.tolist() == labels


@st.composite
def raw_files(draw, bad=False):
    """A small delimited file: 1-3 fields around a label column, comma or
    tab, cells quoted never, as needed or always, empty cells, newlines in
    quoted cells, LF, CRLF or CR line ends and blank lines anywhere after
    the header. With bad, one row has a cell too few or too many or a
    label not 0 or 1, and the draw is (file, that row's line, the error)."""
    delim = draw(st.sampled_from([",", "\t"]))
    quoting = draw(st.sampled_from(["never", "as needed", "always"]))
    alphabet = "ab \u00e9\u65e5\U0001f600" + ("" if quoting == "never" else ',\t"\n')
    n_fields = draw(st.integers(1, 3))
    label_col = draw(st.integers(0, n_fields))
    tokens = st.lists(st.text(st.sampled_from(alphabet), max_size=10),
                      min_size=n_fields, max_size=n_fields)
    rows = [[*toks[:label_col], label, *toks[label_col:]]
            for label, toks in draw(st.lists(st.tuples(st.sampled_from("01"), tokens), max_size=12))]
    if bad:
        at = draw(st.integers(0, len(rows)))
        row = [*draw(tokens), draw(st.sampled_from("01"))]
        kind = draw(st.sampled_from(["short", "long", "label"]))
        if kind == "label":
            row[-1] = draw(st.sampled_from(["2", "0.5", "-1", "nan", "x", ""]))
            says = f"label must be 0 or 1, got {row[-1]!r}"
        else:
            row = row[1:] if kind == "short" else [draw(tokens)[0], *row]
            says = f"expected {n_fields + 1} columns, got {len(row)}"
        toks, label = row[:-1], row[-1]
        rows.insert(at, [*toks[:label_col], label, *toks[label_col:]])
    blank_after = draw(st.lists(st.booleans(), min_size=len(rows) + 1, max_size=len(rows) + 1))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    def cell(tok):
        if quoting == "always" or delim in tok or '"' in tok or "\n" in tok:
            return '"' + tok.replace('"', '""') + '"'
        return tok

    header = [f"f{i}" for i in range(n_fields)]
    out = [delim.join(header[:label_col] + ["label"] + header[label_col:]) + end]
    line = 2  # where the next row starts
    for r, (row, blank) in enumerate(zip(rows, blank_after)):
        out.append(end if blank else "")
        line += blank
        if bad and r == at:
            bad_line = line
        out.append(delim.join(map(cell, row)) + end)
        line += 1 + sum(tok.count("\n") for tok in row)
    out.append(end if blank_after[-1] else "")
    return ("".join(out), bad_line, says) if bad else "".join(out)


@pytest.mark.parametrize("min_freq", [1, 2])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=raw_files())
def test_random_file_prep_equals_rowwise_oracle(tmp_path, min_freq, text):
    p = tmp_path / "raw.txt"
    p.write_bytes(text.encode())
    want_labels, want_maps, want = rowwise_prep(p, min_freq)
    schema, labels, columns = data_mod.read_raw(p)
    assert labels == want_labels
    if want.size and not any(want_maps):
        with pytest.raises(DataError, match="no token of any field"):
            data_mod.build_vocab(columns, min_freq)
        return
    vocab = data_mod.build_vocab(columns, min_freq)
    assert [list(m.items()) for m in vocab.maps] == [list(m.items()) for m in want_maps]
    assert np.array_equal(data_mod.encode(schema, labels, columns, vocab).indices, want)


@pytest.mark.parametrize("case", sorted(PREP_CASES))
@pytest.mark.parametrize("min_freq", [1, 2])
def test_prep_sidecar_holds_each_fields_tokens_in_index_order(tmp_path, case, min_freq):
    p = tmp_path / "raw.txt"
    p.write_text(PREP_CASES[case])
    out = tmp_path / "cache.bin"
    assert cli.main(["prep", "--input", str(p), "--output", str(out), "--min-freq", str(min_freq)]) == 0
    sidecar = json.loads((tmp_path / "cache.bin.vocab.json").read_text())
    _, want_maps, _ = rowwise_prep(p, min_freq)
    assert sidecar == {"tokens": [list(m) for m in want_maps]}
    assert sidecar["tokens"] == data_mod.build_vocab(data_mod.read_raw(p)[2], min_freq).tokens
    d, _ = data_mod.load_cache(out)
    _, _, rows = rowwise_rows(p)
    assert len(d) == len(rows)
    for r, row in enumerate(rows):  # a cell's index names its token in the list, and 0 one not in it
        for i, (tok, kept) in enumerate(zip(row, sidecar["tokens"])):
            assert d.indices[r, i] == (kept.index(tok) + 1 if tok in kept else 0)


def test_encode_with_a_vocabulary_of_other_columns(tmp_path):
    """Tokens a second file shares with the first take the first file's
    indices; tokens the first never kept fold to 0."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_toy(a, TOY_ROWS)
    write_toy(b, [(1, "red", "zeta"), (0, "blue", "acme"), (1, "mauve", "bolt"), (0, "green", "acme")])
    _, want_maps, _ = rowwise_prep(a, min_freq=3)  # not green, which a holds twice
    vocab = data_mod.build_vocab(data_mod.read_raw(a)[2], min_freq=3)
    schema, labels, columns = data_mod.read_raw(b)
    d = data_mod.encode(schema, labels, columns, vocab)
    _, _, rows = rowwise_rows(b)
    assert d.indices.tolist() == [[m.get(tok, 0) for m, tok in zip(want_maps, row)] for row in rows]
    assert d.indices.tolist() == [[1, 0], [2, 1], [0, 2], [0, 1]]
    assert d.vocab_sizes == vocab.sizes == [3, 3]


@pytest.mark.parametrize("case", sorted(PREP_CASES))
@pytest.mark.parametrize("min_freq", [1, 2])
def test_encode_by_token_equals_encode_by_kept_position(tmp_path, case, min_freq):
    """Equal Columns that are not the ones the vocabulary was built from, and
    a Vocabulary built from its token lists alone, encode alike."""
    p = tmp_path / "raw.txt"
    p.write_text(PREP_CASES[case])
    schema, labels, columns = data_mod.read_raw(p)
    vocab = data_mod.build_vocab(columns, min_freq)
    want = data_mod.encode(schema, labels, columns, vocab).indices
    assert np.array_equal(data_mod.encode(schema, labels, data_mod.read_raw(p)[2], vocab).indices, want)
    by_token = data_mod.Vocabulary(tokens=vocab.tokens)
    assert by_token == vocab and by_token.maps == vocab.maps
    assert np.array_equal(data_mod.encode(schema, labels, columns, by_token).indices, want)


def _no_call(name):
    def fail(*args):
        raise AssertionError(f"{name} was called")
    return fail


QUOTE_FREE_CASES = [PREP_CASES[c].replace("\r\n", "\n") for c in sorted(PREP_CASES) if '"' not in PREP_CASES[c]]


@pytest.mark.parametrize("text", [
    *(t.replace("\n", "\r\n") for t in QUOTE_FREE_CASES),
    *(t.replace("\n", "\r") for t in QUOTE_FREE_CASES),
    "label,a,b\r\n1,x,p\n0,y,p\r\n\n1,x,q\r\n",  # LF and CRLF mixed
    "label,a,b\r1,x,p\r0,y,p\r\r1,x,q\r",  # CR line ends
    "label,a,b\r\n1,x,p\r0,y,p\n1,x,q\r\n",  # CR, LF and CRLF
    "label,a,b\r\n1,x,p\r\r\n0,y,p\r\n",  # a CR before a CRLF
])
def test_quote_free_file_is_split_at_its_bytes_whatever_its_line_ends(tmp_path, monkeypatch, text):
    """With CRLF, then any other CR, read as LF, the byte split reads the
    file as csv does."""
    p = tmp_path / "raw.txt"
    p.write_bytes(text.encode())
    monkeypatch.setattr(data_mod, "_read_csv", _no_call("_read_csv"))
    want_labels, want_maps, want = rowwise_prep(p)
    schema, labels, columns = data_mod.read_raw(p)
    assert labels == want_labels
    vocab = data_mod.build_vocab(columns)
    assert vocab.maps == want_maps
    assert np.array_equal(data_mod.encode(schema, labels, columns, vocab).indices, want)


@pytest.mark.parametrize("delim", [",", "\t"])
@pytest.mark.parametrize("line, says", [
    ("0{d}x", "expected 3 columns, got 2"),
    ("0{d}x{d}y{d}z", "expected 3 columns, got 4"),
    ("0.5{d}x{d}y", "label must be 0 or 1, got '0.5'"),
    ("{d}x{d}y", "label must be 0 or 1, got ''"),
])
def test_quote_free_file_errors_as_csv_reads_them(tmp_path, monkeypatch, delim, line, says):
    """A bad line after a blank one in a file split at its bytes: csv's message and line."""
    p = tmp_path / "bad.txt"
    p.write_text("\n".join(["label{d}a{d}b", "1{d}x{d}y", "", line, "1{d}x{d}y"]).replace("{d}", delim) + "\n")
    monkeypatch.setattr(data_mod, "_read_csv", _no_call("_read_csv"))
    with pytest.raises(DataError) as e:
        data_mod.read_raw(p)
    assert str(e.value) == f"{p}:4: {says}"


@pytest.mark.parametrize("delim", [",", "\t"])
def test_quote_free_file_names_a_bad_cell_count_before_an_earlier_bad_label(tmp_path, monkeypatch, delim):
    p = tmp_path / "bad.txt"
    p.write_text("label{d}a{d}b\n1{d}x{d}y\n0.5{d}x{d}y\n\n0{d}x\n".replace("{d}", delim))
    monkeypatch.setattr(data_mod, "_read_csv", _no_call("_read_csv"))
    with pytest.raises(DataError) as e:
        data_mod.read_raw(p)
    assert str(e.value) == f"{p}:5: expected 3 columns, got 2"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=raw_files(bad=True))
@example(case=('label,a\n1,"x\ny"\n0,z\n0.5,w\n', 5, "label must be 0 or 1, got '0.5'"))
def test_error_names_the_line_its_row_starts_on(tmp_path, case):
    """One bad row, after blank lines and rows with quoted newlines, is
    reported at the physical line where it starts, by either reader."""
    text, line, says = case
    p = tmp_path / "bad.txt"
    p.write_bytes(text.encode())
    with pytest.raises(DataError) as e:
        data_mod.read_raw(p)
    assert str(e.value) == f"{p}:{line}: {says}"


@pytest.mark.parametrize("delim", [",", "\t"])
@pytest.mark.parametrize("quote", ["", '"'])
def test_nul_byte_raises_naming_its_line(tmp_path, delim, quote):
    p = tmp_path / "nul.txt"
    p.write_bytes(f"label{delim}a\n1{delim}{quote}x{quote}\n\n0{delim}a\0b\n1{delim}c\n".encode())
    with pytest.raises(DataError) as e:
        data_mod.read_raw(p)
    assert str(e.value) == f"{p}:4: a NUL byte is not allowed"


def test_column_of_a_token_holding_nul_raises():
    with pytest.raises(DataError, match="NUL"):
        data_mod.Column.of(("a", "a\0"))


def column_oracle(tokens):
    """The Column of tokens by its definition: distinct tokens in code-point
    order, each one's row count, and each row's index into them."""
    distinct = sorted(set(tokens))
    code = {t: i for i, t in enumerate(distinct)}
    return distinct, [tokens.count(t) for t in distinct], [code[t] for t in tokens]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(st.sampled_from("ab\x01\x7f\u00e9\u65e5\U0001f600"), max_size=12), max_size=30))
@example(["a" * 9, "a" * 8, "a" * 9 + "\x01", "b", "a" * 9])  # one token over 8 bytes and its prefixes
def test_column_of_any_tokens_is_its_definition(tokens):
    col = data_mod.Column.of(tokens)
    distinct, counts, codes = column_oracle(tokens)
    assert (col.tokens, col.counts.tolist(), col.codes.tolist()) == (distinct, counts, codes)


def test_a_wide_token_costs_prep_its_bytes_not_rows_times_its_width(tmp_path):
    """One 5,000-character cell among 5,000 rows: a column padded to its
    widest token would hold 25 MB of cells and eight times that in indices."""
    import tracemalloc

    p = tmp_path / "wide.csv"
    rows = [f"{i % 2},t{i % 7},{'w' * 5000 if i == 1234 else f'v{i % 13}'}" for i in range(5000)]
    p.write_text("label,a,b\n" + "\n".join(rows) + "\n")
    assert p.stat().st_size < 48 * 1024
    tracemalloc.start()
    try:
        schema, labels, columns = data_mod.read_raw(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert columns[1] == data_mod.Column.of([f"v{i % 13}" if i != 1234 else "w" * 5000 for i in range(5000)])
    assert columns[1].tokens[-1] == "w" * 5000 and columns[1].counts[-1] == 1


@pytest.mark.parametrize("raw, line", [
    (b"label,a\n1,x\n0,caf\xe9\n", 3),
    (b"label,a\r\n1,x\r\n0,\xff\r\n", 3),
    (b"label,a\n1,\"x\"\n0,\xc3\n", 3),
    (b"label,\xe9\n1,x\n", 1),
])
def test_invalid_utf8_raises_naming_its_line(tmp_path, raw, line):
    p = tmp_path / "bad.txt"
    p.write_bytes(raw)
    with pytest.raises(DataError, match=re.escape(f"{p}:{line}: not UTF-8")):
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

    @pytest.mark.parametrize("field, value, says", [
        (1, 7, "row 4: index 7 of field 1 outside [0, 7)"),
        (2, -1, "row 4: index -1 of field 2 outside [0, 7)"),
        (0, -2**31, "index -2147483648 of field 0"),
    ])
    def test_index_outside_its_vocabulary_raises(self, tmp_path, field, value, says):
        d = data_mod.generate_synthetic(3, 2, 7, 10, seed=6)
        d.indices[4, field] = value
        p = tmp_path / "cache.bin"
        data_mod.save_cache(p, d)
        with pytest.raises(DataError, match=re.escape(says)):
            data_mod.load_cache(p)

    @pytest.mark.parametrize("value", [2, 128, 255])
    def test_label_not_0_or_1_raises(self, tmp_path, value):
        d = data_mod.generate_synthetic(3, 2, 7, 10, seed=6)
        d.labels[9] = value
        p = tmp_path / "cache.bin"
        data_mod.save_cache(p, d)
        with pytest.raises(DataError, match=f"row 9: label {value} is not in 0..1"):
            data_mod.load_cache(p)

    @pytest.mark.parametrize("value", [3, 255])
    def test_split_tag_not_0_1_or_2_raises(self, tmp_path, value):
        d = data_mod.generate_synthetic(3, 2, 7, 10, seed=6)
        splits = np.zeros(10, dtype=np.uint8)
        splits[0] = value
        p = tmp_path / "cache.bin"
        data_mod.save_cache(p, d, splits)
        with pytest.raises(DataError, match=f"row 0: split tag {value} is not in 0..2"):
            data_mod.load_cache(p)

    def test_empty_cache_loads(self, tmp_path):
        d = data_mod.generate_synthetic(3, 2, 7, 10, seed=6).subset(np.arange(0))
        p = tmp_path / "cache.bin"
        data_mod.save_cache(p, d)
        loaded, splits = data_mod.load_cache(p)
        assert len(loaded) == 0 and splits.size == 0

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

    def test_every_strict_prefix_raises_data_error(self, tmp_path):
        d = data_mod.generate_synthetic(3, 2, 7, 12, seed=5)
        p = tmp_path / "cache.bin"
        data_mod.save_cache(p, d, np.arange(12, dtype=np.uint8) % 3)
        raw = p.read_bytes()
        assert len(raw) == 196
        cut = tmp_path / "cut.bin"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(DataError):
                data_mod.load_cache(cut)
