import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delta_ctr import cli, data as data_mod, model as model_mod


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

    @pytest.mark.parametrize(
        "raw, where", [({"model": 5}, "section 'model'"), ([1, 2], "file"), ({"data": [1]}, "section 'data'")]
    )
    def test_config_part_not_an_object_exit_1(self, tmp_path, capsys, raw, where):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(p)]) == 1
        assert f"error: config {where} must be a JSON object" in capsys.readouterr().err

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


class TestMisc:
    def test_dump_config(self, capsys):
        rc = cli.main(["--dump-config"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out) == cli.CONFIG_DEFAULTS

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
