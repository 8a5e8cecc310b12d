"""Command-line entry point: data prep, training, evaluation, ablations,
and the gradient-check suite.

Exit codes: 0 success, 1 usage/config/data/checkpoint error, a split whose
metrics are undefined (one label class) or a file that cannot be read or
written, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import data as data_mod
from . import gradcheck as gradcheck_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import trainer as trainer_mod
from .numerics import ParameterError

CONFIG_DEFAULTS = {
    "seed": 0,
    "data": {
        "cache": "",
        "min_freq": 1,
    },
    "model": {
        "embed_dim": 10,
        "tower1_layers": [400, 400, 400],
        "tower2_layers": [800],
        "dropout_rate": 0.5,
        "cross_depth": 3,
        "lambda": 0.5,
        "variant": "full",
        "truncation_scope": "row",
    },
    "trainer": {
        "batch_size": 4096,
        "lr": 0.0001,
        "t_max": 20,
        "delta": None,
        "lr_decay": 0.1,
        "c_min": 2,
        "lr_floor": 1e-6,
        "fixed_k": None,
    },
    "out_prefix": "delta_run",
}


class ConfigError(ValueError):
    pass


def _merge_strict(defaults, given, path=""):
    """Overlay a user config onto defaults, rejecting unknown keys and
    sections that are not JSON objects."""
    if not isinstance(given, dict):
        where = f"section {path[:-1]!r}" if path else "file"
        raise ConfigError(f"config {where} must be a JSON object, got {json.dumps(given)}")
    unknown = [f"{path}{k}" for k in given if k not in defaults]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {}
    for k, dv in defaults.items():
        if k in given and isinstance(dv, dict):
            merged[k] = _merge_strict(dv, given[k], f"{path}{k}.")
        elif k in given:
            merged[k] = given[k]
        else:
            merged[k] = dv
    return merged


def load_config(path, seed_override=None):
    with open(path) as f:
        raw = json.load(f)
    cfg = _merge_strict(CONFIG_DEFAULTS, raw)
    if seed_override is not None:
        cfg["seed"] = seed_override
    return cfg


def _model_config(cfg, n_fields, variant=None):
    m = cfg["model"]
    try:
        return model_mod.ModelConfig(
            n_fields=n_fields,
            embed_dim=m["embed_dim"],
            tower1_layers=m["tower1_layers"],
            tower2_layers=m["tower2_layers"],
            dropout_rate=m["dropout_rate"],
            cross_depth=m["cross_depth"],
            lam=m["lambda"],
            variant=variant or m["variant"],
            truncation_scope=m["truncation_scope"],
        ).validate()
    except ParameterError as e:
        raise ConfigError(str(e)) from e


def _train_settings(cfg, n_fields):
    t = cfg["trainer"]
    try:
        return trainer_mod.TrainSettings(
            batch_size=t["batch_size"],
            lr=t["lr"],
            t_max=t["t_max"],
            delta=t["delta"],
            lr_decay=t["lr_decay"],
            c_min=t["c_min"],
            lr_floor=t["lr_floor"],
            fixed_k=t["fixed_k"],
        ).validate(n_fields)
    except ParameterError as e:
        raise ConfigError(str(e)) from e


def _load_splits(cache_path):
    """Train, validation and test splits of a cache; training needs the first two."""
    d, splits = data_mod.load_cache(cache_path)
    parts = d.subset(splits == 0), d.subset(splits == 1), d.subset(splits == 2)
    for name, part in zip(("train", "validation"), parts):
        if len(part) == 0:
            raise data_mod.DataError(
                f"{cache_path}: the {name} split is empty ({len(d)} rows in the cache); "
                "a cache of 10 or more rows has every split"
            )
    return parts


def cmd_prep(args):
    schema, labels, columns = data_mod.read_raw(args.input)
    vocab = data_mod.build_vocab(columns, args.min_freq)
    ds = data_mod.encode(schema, labels, columns, vocab)
    n = len(ds)
    tr, va, te = data_mod.split_indices(n, args.seed)
    tags = np.zeros(n, dtype=np.uint8)
    tags[va] = 1
    tags[te] = 2
    data_mod.save_cache(args.output, ds, tags)
    with open(args.output + ".vocab.json", "w") as f:
        f.write(vocab.to_json())
    print(f"fields: {len(schema)}")
    print("vocab sizes:", " ".join(str(v) for v in vocab.sizes))
    print(f"instances: {n} (train {len(tr)} / val {len(va)} / test {len(te)})")
    return 0


def cmd_train(args):
    cfg = load_config(args.config, args.seed)
    train_ds, val_ds, test_ds = _load_splits(cfg["data"]["cache"])
    mc = _model_config(cfg, train_ds.n_fields)
    settings = _train_settings(cfg, train_ds.n_fields)
    params, history, best_k = trainer_mod.fit(mc, settings, train_ds, val_ds, cfg["seed"])
    prefix = cfg["out_prefix"]
    history.write(prefix + ".history.tsv")
    model_mod.save_checkpoint(prefix + ".ckpt", params, extra={"k": best_k, "seed": cfg["seed"]})
    val = trainer_mod.evaluate(params, val_ds, best_k)
    print(f"val AUC: {val.auc:.6f}  val logloss: {val.logloss:.6f}")
    if len(test_ds):
        test = trainer_mod.evaluate(params, test_ds, best_k)
        print(f"test AUC: {test.auc:.6f}  test logloss: {test.logloss:.6f}")
    return 0


def cmd_eval(args):
    d, splits = data_mod.load_cache(args.data)
    if (splits == 2).any():
        ds = d.subset(splits == 2)
    else:
        ds = d
        print(f"note: {args.data} has no test split; evaluating all {len(d)} rows", file=sys.stderr)
    params, extra = model_mod.load_checkpoint(args.checkpoint, ds.vocab_sizes)
    res = trainer_mod.evaluate(params, ds, extra.get("k", ds.n_fields))
    print(f"AUC: {res.auc:.6f}")
    print(f"logloss: {res.logloss:.6f}")
    return 0


def cmd_ablate(args):
    cfg = load_config(args.config, args.seed)
    variants = args.variants.split(",")
    for v in variants:
        if v not in model_mod.VARIANTS:
            raise ConfigError(f"unknown variant {v!r}; choose from {tuple(model_mod.VARIANTS)}")
    train_ds, val_ds, test_ds = _load_splits(cfg["data"]["cache"])
    eval_ds = test_ds if len(test_ds) else val_ds
    seeds = [cfg["seed"] + i for i in range(args.seeds)]
    settings = _train_settings(cfg, train_ds.n_fields)
    print("variant\tauc_mean\tauc_std\tlogloss_mean\tlogloss_std")
    for v in variants:
        mc = _model_config(cfg, train_ds.n_fields, variant=v)
        aucs, lls = [], []
        for s in seeds:
            params, _, best_k = trainer_mod.fit(mc, settings, train_ds, val_ds, s)
            res = trainer_mod.evaluate(params, eval_ds, best_k)
            aucs.append(res.auc)
            lls.append(res.logloss)
        print(
            f"{v}\t{np.mean(aucs):.6f}\t{np.std(aucs):.6f}"
            f"\t{np.mean(lls):.6f}\t{np.std(lls):.6f}"
        )
    return 0


def cmd_gradcheck(args):
    results = gradcheck_mod.run_all()
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s}  {r.name:30s}  worst rel err {r.worst_rel_err:.3e}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 2


def build_parser():
    p = argparse.ArgumentParser(prog="delta", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prep", help="encode a raw delimited dataset")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--min-freq", type=int, default=1, dest="min_freq")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_prep)

    sp = sub.add_parser("train", help="train with the curriculum schedule")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ablate", help="train and compare model variants")
    sp.add_argument("--config", required=True)
    sp.add_argument("--variants", required=True)
    sp.add_argument("--seeds", type=int, default=1)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    sp.set_defaults(func=cmd_gradcheck)

    p.add_argument("--dump-config", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--dump-config" in argv:
        print(json.dumps(CONFIG_DEFAULTS, indent=2))
        return 0
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, data_mod.DataError, model_mod.CheckpointError, metrics_mod.MetricError,
            json.JSONDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime errors
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
