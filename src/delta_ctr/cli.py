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
from dataclasses import MISSING, fields

import numpy as np

from . import data as data_mod
from . import gradcheck as gradcheck_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import trainer as trainer_mod
from .numerics import ParameterError

# Config keys that differ from the ModelConfig or TrainSettings field they set.
_FIELD = {"lambda": "lam"}


def _section_defaults(cls):
    """A config section's keys and defaults: the fields of ModelConfig or
    TrainSettings in order, without n_fields, which the cache sets."""
    key = {f: k for k, f in _FIELD.items()}
    return {
        key.get(f.name, f.name): f.default_factory() if f.default is MISSING else f.default
        for f in fields(cls)
        if f.name != "n_fields"
    }


CONFIG_DEFAULTS = {
    "seed": 0,
    "data": {"cache": ""},
    "model": _section_defaults(model_mod.ModelConfig),
    "trainer": _section_defaults(trainer_mod.TrainSettings),
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
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8: {e}") from None
    cfg = _merge_strict(CONFIG_DEFAULTS, raw)
    if seed_override is not None:
        cfg["seed"] = seed_override
    if not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool):
        raise ConfigError(f"config seed must be an integer, got {json.dumps(cfg['seed'])}")
    for name, value in (("data.cache", cfg["data"]["cache"]), ("out_prefix", cfg["out_prefix"])):
        if not isinstance(value, str):
            raise ConfigError(f"config {name} must be a string, got {json.dumps(value)}")
    return cfg


def _build(cls, section, **override):
    """A ModelConfig or TrainSettings (each checks itself) from its merged config
    section; `override` adds or replaces fields (n_fields, an ablation's variant)."""
    return cls(**({_FIELD.get(k, k): v for k, v in section.items()} | override))


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
    mc = _build(model_mod.ModelConfig, cfg["model"], n_fields=train_ds.n_fields)
    settings = _build(trainer_mod.TrainSettings, cfg["trainer"])
    params, history, best_k = trainer_mod.fit(mc, settings, train_ds, val_ds, cfg["seed"])
    prefix = cfg["out_prefix"]
    history.write(prefix + ".history.tsv")
    model_mod.save_checkpoint(prefix + ".ckpt", params, extra={"k": best_k, "seed": cfg["seed"]})
    # the best epoch's record holds the returned parameters' validation scores
    best = min(history.records, key=lambda r: r.val_logloss)
    print(f"val AUC: {best.val_auc:.6f}  val logloss: {best.val_logloss:.6f}")
    if len(test_ds):
        test = trainer_mod.evaluate(params, test_ds, best_k)
        print(f"test AUC: {test.auc:.6f}  test logloss: {test.logloss:.6f}")
    return 0


def cmd_eval(args):
    d, splits = data_mod.load_cache(args.data)
    if len(d) == 0:
        raise data_mod.DataError(f"{args.data}: the cache has no rows to evaluate")
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
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    cfg = load_config(args.config, args.seed)
    train_ds, val_ds, test_ds = _load_splits(cfg["data"]["cache"])
    eval_ds = test_ds if len(test_ds) else val_ds
    seeds = [cfg["seed"] + i for i in range(args.seeds)]
    configs = [_build(model_mod.ModelConfig, cfg["model"], n_fields=train_ds.n_fields, variant=v)
               for v in args.variants.split(",")]
    settings = _build(trainer_mod.TrainSettings, cfg["trainer"])
    settings.check_fixed_k(train_ds.n_fields)  # fit checks it too, but after the header
    print("variant\tauc_mean\tauc_std\tlogloss_mean\tlogloss_std")
    for mc in configs:
        aucs, lls = [], []
        for s in seeds:
            params, _, best_k = trainer_mod.fit(mc, settings, train_ds, val_ds, s)
            res = trainer_mod.evaluate(params, eval_ds, best_k)
            aucs.append(res.auc)
            lls.append(res.logloss)
        print(
            f"{mc.variant}\t{np.mean(aucs):.6f}\t{np.std(aucs):.6f}"
            f"\t{np.mean(lls):.6f}\t{np.std(lls):.6f}"
        )
    return 0


def cmd_gradcheck(args):
    results = gradcheck_mod.run_all()
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s}  {r.name:36s}  worst rel err {r.worst_rel_err:.3e}")
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
    except (ConfigError, ParameterError, data_mod.DataError, model_mod.CheckpointError,
            metrics_mod.MetricError, json.JSONDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime errors
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
