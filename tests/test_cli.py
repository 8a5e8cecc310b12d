import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from delta_ctr import cli, data as data_mod, model as model_mod, trainer as trainer_mod


@pytest.fixture
def toy_raw(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["label,color,brand,size"]
    colors = ["red", "blue", "green"]
    brands = ["acme", "bolt"]
    sizes = ["s", "m", "l", "xl"]
    for i in range(60):
        lines.append(
            f"{rng.integers(0, 2)},{colors[rng.integers(0, 3)]},"
            f"{brands[rng.integers(0, 2)]},{sizes[rng.integers(0, 4)]}"
        )
    p = tmp_path / "raw.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


@pytest.fixture
def prepped(toy_raw, tmp_path):
    cache = tmp_path / "data.bin"
    assert cli.main(["prep", "--input", str(toy_raw), "--output", str(cache)]) == 0
    return cache


@pytest.fixture
def config_file(prepped, tmp_path):
    cfg = {
        "seed": 0,
        "data": {"cache": str(prepped)},
        "model": {
            "embed_dim": 3,
            "tower1_layers": [8],
            "tower2_layers": [8],
            "dropout_rate": 0.0,
            "cross_depth": 2,
        },
        "trainer": {"batch_size": 16, "lr": 0.01, "t_max": 2},
        "out_prefix": str(tmp_path / "run"),
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


class TestPrep:
    def test_reports_fields_and_split(self, toy_raw, tmp_path, capsys):
        cache = tmp_path / "out.bin"
        rc = cli.main(["prep", "--input", str(toy_raw), "--output", str(cache)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "fields: 3" in captured
        assert "train 48 / val 6 / test 6" in captured
        d, splits = data_mod.load_cache(cache)
        assert len(d) == 60
        assert [int((splits == t).sum()) for t in (0, 1, 2)] == [48, 6, 6]

    def test_rerun_byte_identical(self, toy_raw, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        cli.main(["prep", "--input", str(toy_raw), "--output", str(a)])
        cli.main(["prep", "--input", str(toy_raw), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seven_rows(self, tmp_path, capsys):
        raw = tmp_path / "seven.csv"
        raw.write_text("label,a\n" + "".join(f"{i % 2},t{i % 3}\n" for i in range(7)))
        rc = cli.main(["prep", "--input", str(raw), "--output", str(tmp_path / "o.bin")])
        assert rc == 0
        assert "instances: 7 (train 5 / val 1 / test 1)" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,a\n1,x\noops\n")
        rc = cli.main(["prep", "--input", str(bad), "--output", str(tmp_path / "o.bin")])
        assert rc == 1
        assert "3" in capsys.readouterr().err  # line number


    @pytest.mark.parametrize("label", ["1.5", "0.7", "inf"])
    def test_label_not_0_or_1_exit_1(self, tmp_path, capsys, label):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"label,a\n1,x\n0,y\n{label},z\n")
        rc = cli.main(["prep", "--input", str(bad), "--output", str(tmp_path / "o.bin")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:4: label must be 0 or 1, got {label!r}\n"
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize("body, says", [
        (b"1,x\n0,caf\xe9\n", "not UTF-8 (byte 0xe9 at offset 17: invalid continuation byte)"),
        (b"1,x\n0,a\0b\n", "a NUL byte is not allowed"),
    ])
    def test_undecodable_byte_exit_1(self, tmp_path, capsys, body, says):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"label,a\n" + body)
        rc = cli.main(["prep", "--input", str(bad), "--output", str(tmp_path / "o.bin")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:3: {says}\n"
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize("body, says", [
        ('0,"abc\n0,x\n', ":4: unexpected end of data"),
        ('0,"x"y\n', ":4: ',' expected after '\"'"),
        ('0,"' + "x" * 200_000 + '"\n', ":4: field larger than field limit (131072)"),
    ], ids=["unclosed_quote", "text_after_quote", "long_quoted_cell"])
    def test_csv_error_exit_1(self, tmp_path, capsys, body, says):
        """A file with a quote is read by csv, strictly; each csv error names
        the line where its row starts."""
        bad = tmp_path / "bad.csv"
        bad.write_text('label,a\n1,"x\ny"\n' + body)
        rc = cli.main(["prep", "--input", str(bad), "--output", str(tmp_path / "o.bin")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}{says}\n"
        assert not (tmp_path / "o.bin").exists()

    def test_long_header_cell_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label," + "x" * 200_000 + "\n1,y\n")
        assert cli.main(["prep", "--input", str(bad), "--output", str(tmp_path / "o.bin")]) == 1
        assert capsys.readouterr().err == f"error: {bad}:1: field larger than field limit (131072)\n"

    def test_long_unquoted_cell_preps(self, tmp_path, capsys):
        raw = tmp_path / "long.csv"
        raw.write_text("label,a\n" + "".join(f"{i % 2},{'x' * 200_000 if i == 3 else i % 3}\n" for i in range(10)))
        assert cli.main(["prep", "--input", str(raw), "--output", str(tmp_path / "o.bin")]) == 0
        assert "instances: 10" in capsys.readouterr().out

    def test_min_freq_folding_every_token_exit_1(self, toy_raw, tmp_path, capsys):
        cache = tmp_path / "o.bin"
        rc = cli.main(["prep", "--input", str(toy_raw), "--output", str(cache), "--min-freq", "1000"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: no token of any field appears 1000 times (min_freq): "
            "every field would keep only its OOV row\n"
        )
        assert not cache.exists()

    def test_missing_input_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        rc = cli.main(["prep", "--input", str(missing), "--output", str(tmp_path / "o.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


class TestTrain:
    def test_smoke_and_artifacts(self, config_file, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(config_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "val AUC:" in out
        assert (tmp_path / "run.ckpt").exists()
        hist = (tmp_path / "run.history.tsv").read_text().strip().split("\n")
        assert len(hist) == 3  # header + 2 epochs

    @pytest.mark.parametrize("t_max", [2, 6])
    def test_validation_line_is_the_best_history_row(self, config_file, tmp_path, capsys, t_max):
        raw = json.loads(config_file.read_text())
        raw["trainer"]["t_max"] = t_max
        config_file.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(config_file)]) == 0
        line = capsys.readouterr().out.split("\n")[0]
        rows = [r.split("\t") for r in (tmp_path / "run.history.tsv").read_text().strip().split("\n")[1:]]
        best = min(rows, key=lambda r: float(r[2]))
        assert line == f"val AUC: {best[3]}  val logloss: {best[2]}"
        # the same line as scoring the saved model on the validation split
        d, splits = data_mod.load_cache(raw["data"]["cache"])
        params, extra = model_mod.load_checkpoint(tmp_path / "run.ckpt", d.vocab_sizes)
        val = trainer_mod.evaluate(params, d.subset(splits == 1), extra["k"])
        assert line == f"val AUC: {val.auc:.6f}  val logloss: {val.logloss:.6f}"

    def test_deterministic_given_seed(self, config_file, capsys):
        cli.main(["train", "--config", str(config_file), "--seed", "3"])
        a = capsys.readouterr().out
        cli.main(["train", "--config", str(config_file), "--seed", "3"])
        b = capsys.readouterr().out
        assert a == b

    def test_unknown_config_key_rejected(self, config_file, tmp_path, capsys):
        raw = json.loads(config_file.read_text())
        raw["model"]["bogus_knob"] = 1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        rc = cli.main(["train", "--config", str(p)])
        assert rc == 1
        assert "bogus_knob" in capsys.readouterr().err

    def test_unknown_truncation_scope_exit_1(self, config_file, tmp_path, capsys):
        raw = json.loads(config_file.read_text())
        raw["model"]["truncation_scope"] = "colum"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        rc = cli.main(["train", "--config", str(p)])
        assert rc == 1
        assert "colum" in capsys.readouterr().err

    def test_empty_validation_split_exit_1(self, config_file, tmp_path, capsys):
        raw = tmp_path / "five.csv"
        raw.write_text("label,a\n" + "".join(f"{i % 2},t{i % 3}\n" for i in range(5)))
        cache = tmp_path / "five.bin"
        assert cli.main(["prep", "--input", str(raw), "--output", str(cache)]) == 0
        assert "instances: 5 (train 5 / val 0 / test 0)" in capsys.readouterr().out
        cfg = json.loads(config_file.read_text())
        cfg["data"]["cache"] = str(cache)
        p = tmp_path / "five.json"
        p.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(p)])
        assert rc == 1
        assert "validation split is empty" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert cli.main(["train", "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_config_not_utf8_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"seed": 1, "x": "\xff"}')
        assert cli.main(["train", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {p} is not UTF-8: ") and "0xff" in err

    @pytest.mark.parametrize(
        "raw, where", [({"model": 5}, "section 'model'"), ([1, 2], "file"), ({"data": [1]}, "section 'data'")]
    )
    def test_config_part_not_an_object_exit_1(self, tmp_path, capsys, raw, where):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(p)]) == 1
        assert f"error: config {where} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [("trainer", "fixed_k", 0), ("trainer", "fixed_k", 99), ("trainer", "lr_decay", 2),
         ("trainer", "delta", 0), ("trainer", "c_min", 0), ("trainer", "t_max", 0), ("trainer", "lr", -1),
         ("model", "embed_dim", 0), ("model", "embed_dim", -2), ("model", "tower1_layers", []),
         ("model", "lambda", "x")],
    )
    @pytest.mark.parametrize("command", [["train"], ["ablate", "--variants", "full,mlp_only"]], ids=["train", "ablate"])
    def test_bad_trainer_or_model_value_exit_1(self, config_file, tmp_path, capsys, section, key, value, command):
        raw = json.loads(config_file.read_text())
        raw[section][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        assert cli.main([*command, "--config", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and key in err and json.dumps(value) in err.replace("'", '"')
        assert not (tmp_path / "run.ckpt").exists()

    def test_one_train_run_checks_each_config_once(self, config_file, monkeypatch):
        checked = []
        for cls in (model_mod.ModelConfig, trainer_mod.TrainSettings):
            def counted(self, check=cls.__post_init__):
                checked.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        assert cli.main(["train", "--config", str(config_file)]) == 0
        assert sorted(checked) == ["ModelConfig", "TrainSettings"]

    @pytest.mark.parametrize("raw, says", [
        ({"seed": "x"}, 'config seed must be an integer, got "x"'),
        ({"seed": None}, "config seed must be an integer, got null"),
        ({"seed": [1]}, "config seed must be an integer, got [1]"),
        ({"seed": 1.5}, "config seed must be an integer, got 1.5"),
        ({"seed": True}, "config seed must be an integer, got true"),
        ({"out_prefix": 5}, "config out_prefix must be a string, got 5"),
        ({"data": {"cache": 0}}, "config data.cache must be a string, got 0"),
        ({"data": {"cache": 1}}, "config data.cache must be a string, got 1"),
        ({"data": {"min_freq": 50}}, "unknown config keys: data.min_freq"),
    ])
    def test_bad_top_level_value_exit_1(self, config_file, tmp_path, capsys, raw, says):
        cfg = json.loads(config_file.read_text())
        for key, value in raw.items():
            cfg[key] = {**cfg[key], **value} if key == "data" else value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {says}\n"
        assert not list(tmp_path.glob("*.ckpt"))

    def test_every_key_reaches_its_field(self, config_file, tmp_path, monkeypatch):
        model = {"embed_dim": 3, "tower1_layers": [8, 4], "tower2_layers": [6], "dropout_rate": 0.25,
                 "cross_depth": 1, "lambda": 0.75, "variant": "ctm_soft", "truncation_scope": "global"}
        trainer = {"batch_size": 16, "lr": 0.02, "t_max": 4, "delta": 3, "lr_decay": 0.5, "c_min": 1,
                   "lr_floor": 1e-5, "fixed_k": 2}
        for section, values in (("model", model), ("trainer", trainer)):
            assert values.keys() == cli.CONFIG_DEFAULTS[section].keys()
            assert all(v != cli.CONFIG_DEFAULTS[section][k] for k, v in values.items())
        cfg = json.loads(config_file.read_text())
        cfg["model"], cfg["trainer"] = model, trainer
        config_file.write_text(json.dumps(cfg))
        built = []
        real_fit = trainer_mod.fit

        def spy(config, settings, *args):
            built.append(settings)
            return real_fit(config, settings, *args)

        monkeypatch.setattr(trainer_mod, "fit", spy)
        assert cli.main(["train", "--config", str(config_file)]) == 0
        assert built == [trainer_mod.TrainSettings(**trainer)]
        raw = (tmp_path / "run.ckpt").read_bytes()
        header = json.loads(raw[10:10 + int.from_bytes(raw[6:10], "little")])
        lam = model.pop("lambda")
        assert header["config"] == {"n_fields": 3, **model, "lam": lam}
        assert list(header["config"]) == [f.name for f in fields(model_mod.ModelConfig)]

    def test_lambda_default_half(self):
        assert cli.CONFIG_DEFAULTS["model"]["lambda"] == 0.5
        assert cli.CONFIG_DEFAULTS["trainer"]["batch_size"] == 4096
        assert cli.CONFIG_DEFAULTS["trainer"]["lr"] == 0.0001


class TestEval:
    def test_prints_metrics(self, config_file, prepped, tmp_path, capsys):
        cli.main(["train", "--config", str(config_file)])
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "run.ckpt"), "--data", str(prepped)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "AUC: " in out and "logloss: " in out

    def test_no_test_split_evaluates_all_rows_and_says_so(self, config_file, prepped, tmp_path, capsys):
        cli.main(["train", "--config", str(config_file)])
        d, _ = data_mod.load_cache(prepped)
        whole = tmp_path / "whole.bin"
        data_mod.save_cache(whole, d)  # every row tagged train
        capsys.readouterr()
        args = ["eval", "--checkpoint", str(tmp_path / "run.ckpt")]
        assert cli.main(args + ["--data", str(whole)]) == 0
        out, err = capsys.readouterr()
        assert err == f"note: {whole} has no test split; evaluating all 60 rows\n"
        lines = out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("AUC: ") and lines[1].startswith("logloss: ")
        assert cli.main(args + ["--data", str(prepped)]) == 0
        assert capsys.readouterr().err == ""

    def test_schema_mismatch(self, config_file, tmp_path, capsys):
        cli.main(["train", "--config", str(config_file)])
        capsys.readouterr()
        other = data_mod.generate_synthetic(5, 2, 9, 30, seed=1)
        cache2 = tmp_path / "other.bin"
        data_mod.save_cache(cache2, other)
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "run.ckpt"), "--data", str(cache2)])
        assert rc == 1

    def test_field_count_mismatch_exit_1(self, tmp_path, capsys):
        cfg = model_mod.ModelConfig(n_fields=4, embed_dim=2, tower1_layers=[4], tower2_layers=[4])
        ckpt = tmp_path / "four.ckpt"
        model_mod.save_checkpoint(ckpt, model_mod.ModelParams.init(cfg, [3] * 4, seed=0))
        cache = tmp_path / "one.bin"
        data_mod.save_cache(cache, data_mod.generate_synthetic(1, 1, 3, 30, seed=1))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(cache)])
        assert rc == 1
        assert "vocab sizes" in capsys.readouterr().err

    def test_cut_checkpoint_exit_1(self, config_file, prepped, tmp_path, capsys):
        cli.main(["train", "--config", str(config_file)])
        ckpt = tmp_path / "run.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-50])
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(prepped)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_trailing_checkpoint_bytes_exit_1(self, config_file, prepped, tmp_path, capsys):
        cli.main(["train", "--config", str(config_file)])
        ckpt = tmp_path / "run.ckpt"
        ckpt.write_bytes(ckpt.read_bytes() + b"\x00" * 7)
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(prepped)])
        assert rc == 1
        assert "stray bytes" in capsys.readouterr().err

    def test_corrupt_tensor_shape_exit_1(self, prepped, tmp_path, capsys):
        d, _ = data_mod.load_cache(prepped)
        cfg = model_mod.ModelConfig(n_fields=3, embed_dim=2, tower1_layers=[4], tower2_layers=[4])
        ckpt = tmp_path / "shape.ckpt"
        model_mod.save_checkpoint(ckpt, model_mod.ModelParams.init(cfg, d.vocab_sizes, seed=0))
        raw = bytearray(ckpt.read_bytes())
        pos = 10 + int.from_bytes(raw[6:10], "little")  # the first tensor, "embedding"
        high = pos + 2 + len(b"embedding") + 1 + 7  # the high byte of its first dimension
        raw[high] ^= 0x80
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(prepped)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "shape mismatch for embedding" in err

    def test_missing_cache_or_checkpoint_exit_1(self, config_file, prepped, tmp_path, capsys):
        cli.main(["train", "--config", str(config_file)])
        ckpt, missing = tmp_path / "run.ckpt", tmp_path / "absent"
        capsys.readouterr()
        for args in (["--checkpoint", str(ckpt), "--data", str(missing)],
                     ["--checkpoint", str(missing), "--data", str(prepped)]):
            assert cli.main(["eval"] + args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(missing) in err

    def test_cut_cache_exit_1(self, config_file, prepped, tmp_path):
        cli.main(["train", "--config", str(config_file)])
        prepped.write_bytes(prepped.read_bytes()[:-100])
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "run.ckpt"), "--data", str(prepped)])
        assert rc == 1


    @pytest.mark.parametrize("column, value, says", [
        ("idx", 99, "index 99 of field 0"),
        ("label", 128, "label 128 is not in 0..1"),
        ("split", 7, "split tag 7 is not in 0..2"),
    ])
    def test_out_of_range_cache_value_exit_1(self, config_file, prepped, tmp_path, capsys,
                                              column, value, says):
        cli.main(["train", "--config", str(config_file)])
        raw = bytearray(prepped.read_bytes())
        nf = int.from_bytes(raw[6:8], "little")
        row = 16 + 4 * nf  # the first row: nf int32 indices, a label byte, a split byte
        offset = {"idx": row, "label": row + 4 * nf, "split": row + 4 * nf + 1}[column]
        raw[offset] = value
        prepped.write_bytes(bytes(raw))
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "run.ckpt"), "--data", str(prepped)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prepped}: row 0: ") and says in err

    @pytest.mark.parametrize("extra, says", [
        ({"k": 0}, "k must be an integer in [1, 3], got 0"),
        ({"k": 4}, "got 4"),
        ({"k": "x"}, 'got "x"'),
        ({"k": None}, "got null"),
        ({"k": True}, "got true"),
        ({"k": 2.0}, "got 2.0"),
        ([1], "header extra must be a JSON object, got [1]"),
    ])
    def test_bad_checkpoint_k_exit_1(self, prepped, tmp_path, capsys, extra, says):
        d, _ = data_mod.load_cache(prepped)
        cfg = model_mod.ModelConfig(n_fields=3, embed_dim=2, tower1_layers=[4], tower2_layers=[4])
        ckpt = tmp_path / "bad_k.ckpt"
        model_mod.save_checkpoint(ckpt, model_mod.ModelParams.init(cfg, d.vocab_sizes, seed=0), extra)
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(prepped)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err

    def test_one_class_split_exit_1(self, toy_raw, tmp_path, capsys):
        lines = toy_raw.read_text().splitlines()
        one_class = tmp_path / "zeros.csv"
        one_class.write_text("\n".join([lines[0]] + ["0" + l[1:] for l in lines[1:]]) + "\n")
        cache = tmp_path / "zeros.bin"
        assert cli.main(["prep", "--input", str(one_class), "--output", str(cache)]) == 0
        d, _ = data_mod.load_cache(cache)
        cfg = model_mod.ModelConfig(n_fields=3, embed_dim=2, tower1_layers=[4], tower2_layers=[4])
        ckpt = tmp_path / "zeros.ckpt"
        model_mod.save_checkpoint(ckpt, model_mod.ModelParams.init(cfg, d.vocab_sizes, seed=0))
        config = tmp_path / "zeros.json"
        config.write_text(json.dumps({
            "data": {"cache": str(cache)},
            "model": {"embed_dim": 2, "tower1_layers": [4], "tower2_layers": [4]},
            "trainer": {"batch_size": 16, "t_max": 1},
            "out_prefix": str(tmp_path / "zeros"),
        }))
        capsys.readouterr()
        for argv in (["eval", "--checkpoint", str(ckpt), "--data", str(cache)],
                     ["train", "--config", str(config)]):
            assert cli.main(argv) == 1
            assert capsys.readouterr().err.startswith("error: AUC undefined"), argv

    def test_empty_cache_exit_1(self, toy_raw, tmp_path, capsys):
        header_only = tmp_path / "header.csv"
        header_only.write_text(toy_raw.read_text().splitlines()[0] + "\n")
        cache = tmp_path / "empty.bin"
        assert cli.main(["prep", "--input", str(header_only), "--output", str(cache)]) == 0
        cfg = model_mod.ModelConfig(n_fields=3, embed_dim=2, tower1_layers=[4], tower2_layers=[4])
        ckpt = tmp_path / "empty.ckpt"
        model_mod.save_checkpoint(ckpt, model_mod.ModelParams.init(cfg, [1, 1, 1], seed=0))
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(cache)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {cache}: the cache has no rows to evaluate\n"


class TestAblate:
    def test_two_variants(self, config_file, capsys):
        rc = cli.main(["ablate", "--config", str(config_file), "--variants", "full,ctm_soft"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("variant")
        assert {l.split("\t")[0] for l in lines[1:]} == {"full", "ctm_soft"}

    def test_multi_seed_columns(self, config_file, capsys):
        rc = cli.main(
            ["ablate", "--config", str(config_file), "--variants", "mlp_only", "--seeds", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        row = out.strip().split("\n")[1].split("\t")
        assert len(row) == 5  # variant, auc mean/std, logloss mean/std

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_exit_1(self, config_file, capsys, seeds):
        rc = cli.main(["ablate", "--config", str(config_file), "--variants", "full", "--seeds", seeds])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --seeds must be at least 1, got {seeds}\n"

    def test_unknown_variant(self, config_file, capsys):
        rc = cli.main(["ablate", "--config", str(config_file), "--variants", "nope"])
        assert rc == 1
        assert "nope" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_all_pass(self, capsys):
        rc = cli.main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        from delta_ctr.numerics import PRIMITIVES

        for prim in PRIMITIVES:
            assert prim in out  # report covers every registered primitive
        # and scale, which is not registered, and every tensor of every
        # variant's whole network
        ok = {line.split()[1] for line in out.splitlines() if line.startswith("ok")}
        assert "scale" in ok
        for variant in model_mod.VARIANTS:
            cfg = model_mod.ModelConfig(n_fields=4, embed_dim=3, tower1_layers=[8], tower2_layers=[8],
                                        cross_depth=2, variant=variant)
            for row in model_mod.param_table(cfg, [5] * 4):
                assert f"model/{variant}/{row.name}" in ok

    def test_fault_injection_names_gate(self, monkeypatch, capsys):
        import delta_ctr.layers as layers_mod
        from delta_ctr import numerics as nm
        from delta_ctr.numerics import Tensor

        def broken(e_flat, enhanced, gate):
            # gate detached from the graph: analytic gradient is zero while
            # the forward value still depends on it
            g = nm.sigmoid(Tensor(gate.value))
            return nm.add(nm.mul(g, e_flat), nm.mul(nm.sub(1.0, g), enhanced))

        monkeypatch.setattr(layers_mod, "efg_fuse", broken)
        rc = cli.main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 2
        failing = [l for l in out.split("\n") if l.startswith("FAIL")]
        assert any("gate" in l for l in failing)

    def test_fault_injection_names_fm_bias(self, monkeypatch, capsys):
        import delta_ctr.eeo as eeo_mod
        from delta_ctr.numerics import Tensor

        fm_forward = eeo_mod.eeo_fm_forward
        # the bias detached from the graph, as in the gate case above
        monkeypatch.setattr(eeo_mod, "eeo_fm_forward", lambda emb, bias: fm_forward(emb, Tensor(bias.value)))
        rc = cli.main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 2
        failing = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert failing == ["model/eeo_fm/fm_bias"]


class TestMisc:
    def test_dump_config(self, capsys):
        rc = cli.main(["--dump-config"])
        out = capsys.readouterr().out
        assert rc == 0
        defaults = {
            "seed": 0,
            "data": {"cache": ""},
            "model": {"embed_dim": 10, "tower1_layers": [400, 400, 400], "tower2_layers": [800],
                      "dropout_rate": 0.5, "cross_depth": 3, "lambda": 0.5, "variant": "full",
                      "truncation_scope": "row"},
            "trainer": {"batch_size": 4096, "lr": 0.0001, "t_max": 20, "delta": None, "lr_decay": 0.1,
                        "c_min": 2, "lr_floor": 1e-06, "fixed_k": None},
            "out_prefix": "delta_run",
        }
        assert out == json.dumps(defaults, indent=2) + "\n"

    def test_usage_error_exit_1(self):
        assert cli.main(["train"]) == 1  # missing --config


# Records OPENBLAS_NUM_THREADS at the moment numpy is first imported, then
# imports the CLI module the way the `delta` entry point does.
PIN_PROBE = """
import importlib.abc, os, sys
seen = []

class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import delta_ctr.cli
print(seen[0], os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
"""


def test_deterministic_mode_pins_blas_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["DELTA_DETERMINISTIC"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run(
        [sys.executable, "-c", PIN_PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["1", "1", "1"]
