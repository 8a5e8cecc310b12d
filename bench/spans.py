"""Span tracer installed from outside the program.

``Tracer.install`` replaces the module functions and methods named in
``SPANS`` with wrappers that time each call, and wraps the backward closure
of every Tensor a numerics primitive returns, so the backward pass is timed
per primitive too. ``uninstall`` puts every original back. A span's self
time is its duration minus the time of the spans it encloses; time that no
span covers stays with the caller (the benchmark's round) and is reported
as the uncovered share. The tracer only reads arguments and results: it
draws from no random stream and changes no value.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

from delta_ctr import cli, data, eeo, layers, metrics, model, numerics, trainer

# numerics.tsum is left out: only the eeo_fm variant calls it, and no
# workload trains that variant, so its figures would read 0 everywhere
PRIMITIVES = [p for p in numerics.PRIMITIVES if p != "tsum"] + ["scale"]

# (metric prefix, owner, attribute)
SPANS = [
    ("numerics.backward", numerics.Tensor, "backward"),
    ("layers.embed_lookup", layers, "embed_lookup"),
    ("layers.attention_weights", layers, "attention_weights"),
    ("layers.topk_truncate", layers, "topk_truncate"),
    ("layers.ctm_forward", layers, "ctm_forward"),
    ("layers.efg_fuse", layers, "efg_fuse"),
    ("eeo.eeo_forward", eeo, "eeo_forward"),
    ("model.delta_forward", model, "delta_forward"),
    ("model.tower_forward", model.Mlp, "forward"),
    ("model.bce_loss", model, "bce_loss"),
    ("model.backward_and_accumulate", model, "backward_and_accumulate"),
    ("model.params_init", model.ModelParams, "init"),
    ("model.save_checkpoint", model, "save_checkpoint"),
    ("model.load_checkpoint", model, "load_checkpoint"),
    ("trainer.fit", trainer, "fit"),
    ("trainer.optimizer_step", trainer, "optimizer_step"),
    ("trainer.predict", trainer, "predict"),
    ("metrics.auc", metrics, "auc"),
    ("metrics.logloss", metrics, "logloss"),
    ("data.read_raw", data, "read_raw"),
    ("data.build_vocab", data, "build_vocab"),
    ("data.encode", data, "encode"),
    ("data.save_cache", data, "save_cache"),
    ("data.load_cache", data, "load_cache"),
    ("data.batch_iter", data, "batch_iter"),
    ("cli.prep", cli, "cmd_prep"),
    ("cli.eval", cli, "cmd_eval"),
]


def metric_names():
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for p in PRIMITIVES:
        names += [f"numerics.{p}.fwd_s", f"numerics.{p}.bwd_s", f"numerics.{p}.calls"]
    names += [f"{prefix}_s" for prefix, _, _ in SPANS]
    names += ["numerics.nodes", "numerics.infer_nodes", "trainer.steps"]
    names += ["trainer.embedding_rows_touched_share", "trace.overhead", "trace.uncovered_share"]
    return names


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.rows_touched = []  # unique embedding rows / sum(V), per step
        self._child = [0.0]  # time covered by spans, one slot per open span
        self._in_predict = 0
        self._saved = []

    # -- spans --

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.self_s[name] += dur - self._child.pop()
                self._child[-1] += dur

        return wrapper

    def _timed_generator(self, name, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._child.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = time.perf_counter() - t0
                    self.self_s[name] += dur - self._child.pop()
                    self._child[-1] += dur
                yield item

        return wrapper

    def _primitive(self, name, fn):
        timed = self._timed(f"numerics.{name}.fwd", fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            t = out[0] if isinstance(out, tuple) else out
            self.counts[f"numerics.{name}.calls"] += 1
            self.counts["numerics.infer_nodes" if self._in_predict else "numerics.nodes"] += 1
            if t._backward is not None:
                t._backward = self._timed(f"numerics.{name}.bwd", t._backward)
            return out

        return wrapper

    def _predict(self, fn):
        timed = self._timed("trainer.predict", fn)

        def wrapper(*args, **kwargs):
            self._in_predict += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._in_predict -= 1

        return wrapper

    def _step(self, fn):
        timed = self._timed("model.backward_and_accumulate", fn)

        def wrapper(indices, labels, params, *args, **kwargs):
            # bookkeeping runs outside the step's span and is not a layer
            emb = params.embedding
            t0 = time.perf_counter()
            touched = np.unique(np.asarray(indices) + emb.offsets).size
            self.rows_touched.append(touched / emb.table.value.shape[0])
            spent = time.perf_counter() - t0
            self.self_s["trace.bookkeeping"] += spent
            self._child[-1] += spent
            self.counts["trainer.steps"] += 1
            return timed(indices, labels, params, *args, **kwargs)

        return wrapper

    # -- install / uninstall --

    def _replace(self, owner, attr, make):
        static = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, static))
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(make(static.__func__)))
        else:
            setattr(owner, attr, make(static))

    def install(self):
        for p in PRIMITIVES:
            self._replace(numerics, p, lambda fn, p=p: self._primitive(p, fn))
        for prefix, owner, attr in SPANS:
            if prefix == "trainer.predict":
                make = self._predict
            elif prefix == "model.backward_and_accumulate":
                make = self._step
            elif inspect.isgeneratorfunction(inspect.getattr_static(owner, attr)):
                make = lambda fn, n=prefix: self._timed_generator(n, fn)
            else:
                make = lambda fn, n=prefix: self._timed(n, fn)
            self._replace(owner, attr, make)

    def uninstall(self):
        while self._saved:
            owner, attr, static = self._saved.pop()
            setattr(owner, attr, static)

    def run(self, fn):
        """Call fn() traced; returns (result, wall seconds, covered seconds)."""
        self._child = [0.0]
        self.install()
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            self.uninstall()
        return result, wall, self._child[0]
