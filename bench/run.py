"""delta-ctr benchmark: one workload per process, prep -> fit -> eval.

    python3 bench/run.py --workload train-synth --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload's inputs are generated from
--seed; the program sees only the written file. Set-up generates the file,
builds the dataset with ``delta prep`` and creates the initial checkpoint,
SETUP_REPEATS times. Each round runs ``delta prep`` on the raw file,
``trainer.fit`` on the cached train split, saves the checkpoint and runs
``delta eval`` on the test split, all in this process. Rounds repeat until
--seconds have passed, and at least MIN_ROUNDS run. The first round's
outputs are checked against the benchmark's own oracles; every later round
must reproduce them byte for byte.

--trace 0 prints the end-to-end metrics (throughputs over the warm rounds,
every round after the first). --trace 1 alternates untraced and traced
rounds and prints per-layer self times per traced round, from wrappers
installed around the program's functions. The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

MIN_ROUNDS = 3  # the first round runs cold and is checked, not timed
SETUP_REPEATS = 3
SAMPLED_ROWS = 256  # test rows the reference forward recomputes
SCORE_TOL = 1e-9  # |program - reference| on a probability
PRINT_TOL = 5.01e-7  # `delta eval` prints 6 decimals
BAYES_GAP = 0.03  # train-synth: test AUC within this of the Bayes ceiling
# paper-size fits: test AUC at least 0.5 + this. Ten seeds gave 0.609-0.636
# (train-paper) and 0.596-0.680 (prep-eval); an Adam without its first-moment
# bias correction gave 0.537-0.541 on train-paper
CHANCE_MARGIN = 0.07
LOSS_ROWS = 1024  # fit rows on which the training loss must fall
REF_SECONDS = 0.01  # nominal time of _reference_task; timings are scaled to it
REUSE_SECONDS = 0.5

SYNTH_MODEL = dict(embed_dim=8, tower1_layers=[64, 32], tower2_layers=[64],
                   dropout_rate=0.3, cross_depth=2, lam=0.5)
PAPER_MODEL = dict(embed_dim=10, tower1_layers=[400, 400, 400], tower2_layers=[800],
                   dropout_rate=0.5, cross_depth=3, lam=0.5)
PAPER_FIT = dict(batch_size=4096, lr=1e-2, t_max=1, fixed_k=16)


@dataclass(frozen=True)
class Workload:
    min_freq: int  # `delta prep --min-freq`
    preps: int  # `delta prep` runs per round
    evals: int  # `delta eval` runs per round
    model: dict  # ModelConfig fields besides n_fields
    settings: dict  # TrainSettings fields
    fit_rows: int | None  # leading train-split rows fit trains on (None: all)
    val_rows: int | None  # leading val-split rows fit validates on (None: all)
    quality: str  # "bayes_gap" or "chance_margin"


# what each workload stresses, and why: bench/README.md
WORKLOADS = {
    "train-synth": Workload(1, 3, 6, SYNTH_MODEL,
                            dict(batch_size=512, lr=3e-3, t_max=2, c_min=2), None, None,
                            "bayes_gap"),
    "train-paper": Workload(1, 1, 6, PAPER_MODEL, PAPER_FIT, 8192, 1024, "chance_margin"),
    "prep-eval": Workload(2, 2, 6, PAPER_MODEL, PAPER_FIT, 8192, 1024, "chance_margin"),
}

UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "test_auc": "AUC",
    "prep_rows_per_s": "rows/s",
    "eval_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def _pin_blas_threads():
    """One BLAS thread, as under DELTA_DETERMINISTIC=1: on a 2-core machine
    a second thread made no phase faster, and its spinning worker competes
    with the single-threaded Python phases."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _printed(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return float(line.split(":", 1)[1])
    raise ValueError(f"`delta eval` printed no {key!r}")


@functools.lru_cache(maxsize=1)
def _reference_operands():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.normal(size=(256, 400)), rng.normal(scale=0.05, size=(400, 400))


def _reference_task():
    """Fixed work timed around every measured phase, in two parts of about
    equal time: interpreter work (a 30,000-entry dict of strings) and BLAS
    work (three 256x400 @ 400x400 products). Never change it: the timing
    metrics are scaled by it."""
    import numpy as np

    d = {}
    for i in range(30_000):
        d[str(i)] = i
    x, w = _reference_operands()
    for _ in range(3):
        x = np.maximum(x @ w, 0.0)
    return float(x.sum()) + len(d)


def _reference_seconds():
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_task()
        best = min(best, time.perf_counter() - t0)
    return best


_last_reference = [-float("inf"), 0.0]  # (perf_counter when taken, seconds)


def _scaled(fn):
    """Run fn() and return its result and its seconds, rescaled to a machine
    on which the reference task takes REF_SECONDS. A shared 2-core VM was
    seen to slow by up to 1.7x for seconds to minutes at a time, and not
    every kind of work alike: interpreter work slowed more than BLAS work.
    Timing the reference task just before and just after the phase cancels
    much of that; a reference taken at most REUSE_SECONDS ago serves as the
    next phase's "before"."""
    taken, before = _last_reference
    if time.perf_counter() - taken > REUSE_SECONDS:
        before = _reference_seconds()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    after = _reference_seconds()
    _last_reference[:] = [time.perf_counter(), after]
    return out, seconds * REF_SECONDS / ((before + after) / 2)


def _rate(samples):
    """Work per second over all (work, seconds) samples of the run: the
    machine's speed drifts between two levels over seconds, and a total
    moves smoothly with the share of time at each, where a median jumps."""
    seconds = sum(t for _, t in samples)
    return sum(w for w, _ in samples) / seconds if seconds else 0.0


@dataclass
class Round:
    wall_s: float
    prep_s: list[float]
    fit_s: float
    eval_s: list[float]
    examples: int  # training rows x epochs run
    test_rows: int
    prep_text: str
    eval_text: str
    cache_digest: str
    ckpt_digest: str

    def outputs(self):
        return (self.prep_text, self.eval_text, self.cache_digest, self.ckpt_digest)


class Bench:
    """One workload's set-up, pipeline and checks."""

    def __init__(self, name, seed, work):
        from delta_ctr import cli, data, model, trainer

        self.cli, self.data, self.model, self.trainer = cli, data, model, trainer
        self.name, self.w, self.seed, self.work = name, WORKLOADS[name], seed, work
        self.raw = None
        self.cache = work / "data.bin"
        self.ckpt = work / "model.ckpt"
        self.init_ckpt = work / "init.ckpt"
        self.ops = []  # a round's operations, set once the input exists
        self.failed_ops = set()  # those the first round's checks failed
        self.problems = []
        self.test_auc = None
        self.scores = None

    # ---- set-up ----

    def _config(self, n_fields):
        return self.model.ModelConfig(n_fields=n_fields, **self.w.model)

    def _set_up_once(self):
        import gen

        self.raw = gen.GENERATORS[self.name](str(self.work / "raw.csv"), self.seed)
        self._cli(self._prep_argv())
        d, _ = self.data.load_cache(str(self.cache))
        params = self.model.ModelParams.init(self._config(d.n_fields), d.vocab_sizes, self.seed)
        self.model.save_checkpoint(str(self.init_ckpt), params, extra={"seed": self.seed})

    def set_up(self):
        """Generate the input, build the dataset with `delta prep` and create
        the initial checkpoint SETUP_REPEATS times; every repeat must write
        the same files. Returns each repeat's scaled seconds."""
        times, files = [], set()
        for _ in range(SETUP_REPEATS):
            times.append(_scaled(self._set_up_once)[1])
            files.add((_digest(self.raw.path), _digest(self.cache), _digest(self.init_ckpt)))
        if len(files) != 1:
            self.problems.append("set-up wrote different files for one seed")
        self.ops = ([("prep", j) for j in range(self.w.preps)]
                    + [("field", name) for name in self.raw.header[1:]]
                    + [("fit",)]
                    + [("eval", j) for j in range(self.w.evals)])
        return times

    def _fail(self, kind, problem):
        """Record a problem, and mark every operation of `kind` in a round failed."""
        self.failed_ops.update(op for op in self.ops if op[0] == kind)
        self.problems.append(problem)

    # ---- one round through the program ----

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"delta {argv[0]} exited with {rc}")
        return buf.getvalue()

    def _load(self):
        d, splits = self.data.load_cache(str(self.cache))
        train = d.subset(splits == 0).subset(slice(0, self.w.fit_rows))
        val = d.subset(splits == 1).subset(slice(0, self.w.val_rows))
        return d, splits, train, val

    def _timed_cli(self, argv, n):
        """Run a command n times, each timed; every run must print the same."""
        texts, times = set(), []
        for _ in range(n):
            text, t = _scaled(lambda: self._cli(argv))
            texts.add(text)
            times.append(t)
        if len(texts) != 1:
            raise RuntimeError(f"`delta {argv[0]}` printed different output on a rerun")
        return texts.pop(), times

    def _prep_argv(self):
        return ["prep", "--input", self.raw.path, "--output", self.cache,
                "--min-freq", self.w.min_freq, "--seed", self.seed]

    def round(self):
        t0 = time.perf_counter()
        prep_text, prep_s = self._timed_cli(self._prep_argv(), self.w.preps)
        d, splits, train, val = self._load()
        cfg = self._config(train.n_fields)
        settings = self.trainer.TrainSettings(**self.w.settings)
        (params, history, k), fit_s = _scaled(
            lambda: self.trainer.fit(cfg, settings, train, val, self.seed))
        self.model.save_checkpoint(str(self.ckpt), params, extra={"k": k, "seed": self.seed})
        eval_argv = ["eval", "--checkpoint", self.ckpt, "--data", self.cache]
        eval_text, eval_s = self._timed_cli(eval_argv, self.w.evals)
        return Round(time.perf_counter() - t0, prep_s, fit_s, eval_s,
                     len(train) * len(history.records), int((splits == 2).sum()),
                     prep_text, eval_text, _digest(self.cache), _digest(self.ckpt))

    def test_scores(self):
        """Scores on the test split by the calls `delta eval` makes."""
        d, splits = self.data.load_cache(str(self.cache))
        params, extra = self.model.load_checkpoint(str(self.ckpt), d.vocab_sizes)
        return self.trainer.predict(params, d.subset(splits == 2), extra["k"])

    # ---- checks ----

    def check_first(self, r):
        """Check a round's files and printout against the oracles; a failed
        check fails the operations that made the output it looked at."""
        import numpy as np

        import oracles

        names, labels, cols = oracles.read_columns(self.raw.path)
        vocab, idx, cache_labels, splits = oracles.read_cache(self.cache)
        if not np.array_equal(cache_labels, labels):
            self._fail("prep", "cache labels differ from the raw file")
        n = len(labels)
        sizes = [int((splits == t).sum()) for t in (0, 1, 2)]
        if sum(sizes) != n or any(abs(s - n / 10) >= 1 for s in sizes[1:]):
            self._fail("prep", f"split sizes {sizes} are not 8:1:1 of {n}")
        numeric_mismatches = 0
        for i, (name, col) in enumerate(zip(names, cols)):
            numeric = name in self.raw.numeric
            want, size = oracles.encode_column(
                [oracles.bucket(t) for t in col] if numeric else col, self.w.min_freq
            )
            if size == vocab[i] and np.array_equal(want, idx[:, i]):
                continue
            self.failed_ops.add(("field", name))
            if numeric:  # the kept fault: counted failed, not a problem
                numeric_mismatches += 1
            else:
                self.problems.append(f"field {name} differs from the documented vocabulary rule")

        header, arrays = oracles.read_checkpoint(self.ckpt)
        cfg, k = header["config"], header["extra"]["k"]
        if (cfg["variant"], cfg["truncation_scope"]) != ("full", "row"):
            self._fail("fit", f"checkpoint holds {cfg['variant']}/{cfg['truncation_scope']}")
        test = splits == 2
        self.scores = self.test_scores()
        self.test_auc = oracles.auc(self.scores, labels[test])
        test_ll = oracles.logloss(self.scores, labels[test])
        for key, ours in (("AUC", self.test_auc), ("logloss", test_ll)):
            if abs(_printed(r.eval_text, key) - ours) > PRINT_TOL:
                self._fail("eval", f"`delta eval` printed {key} {_printed(r.eval_text, key)}, "
                                   f"the rank statistic gives {ours:.9f}")
        pick = np.random.default_rng([self.seed, 7]).choice(
            int(test.sum()), min(SAMPLED_ROWS, int(test.sum())), replace=False
        )
        ref = oracles.delta_scores(arrays, vocab, idx[test][pick], k)
        worst = float(np.max(np.abs(ref - self.scores[pick])))
        if worst > SCORE_TOL:
            self._fail("eval", f"eval scores differ from the reference forward by {worst:.3e}")

        if self.w.quality == "bayes_gap":
            ceiling = oracles.auc(self.raw.bayes[test], labels[test])
            if ceiling - self.test_auc > BAYES_GAP:
                self._fail("fit", f"test AUC {self.test_auc:.4f} is more than {BAYES_GAP} "
                                  f"under the Bayes ceiling {ceiling:.4f}")
        elif self.test_auc < 0.5 + CHANCE_MARGIN:
            self._fail("fit", f"test AUC {self.test_auc:.4f} is under 0.5 + {CHANCE_MARGIN}")

        # fit starts from the parameters set-up saved: same config, vocabulary, seed
        rows = np.flatnonzero(splits == 0)[: self.w.fit_rows][:LOSS_ROWS]
        _, init = oracles.read_checkpoint(self.init_ckpt)
        before = oracles.logloss(oracles.delta_scores(init, vocab, idx[rows], k), labels[rows])
        after = oracles.logloss(oracles.delta_scores(arrays, vocab, idx[rows], k), labels[rows])
        if not after < before:
            self._fail("fit", f"training loss did not fall: {before:.5f} -> {after:.5f}")
        print(f"checks: test AUC {self.test_auc:.6f}, logloss {test_ll:.6f}, reference forward "
              f"max diff {worst:.2e} on {len(pick)} rows, train loss {before:.5f} -> {after:.5f}, "
              f"numeric fields off the documented rule {numeric_mismatches}")

    def check_repeat(self, i, r, first):
        """The operations of round i that failed: those of the first round,
        or all of them if round i did not reproduce its outputs."""
        if r.outputs() != first.outputs():
            self.problems.append(f"round {i} did not reproduce round 0's files and printout")
            return set(self.ops)
        return set(self.failed_ops)


def measure(name, seed, seconds, traced, work):
    import numpy as np

    from spans import Tracer, metric_names

    bench = Bench(name, seed, work)
    setup_times = bench.set_up()
    raw = bench.raw
    tracer = Tracer() if traced else None
    rounds, plain_walls, traced_walls, covered = [], [], [], 0.0
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        i = len(rounds)
        trace_this = traced and i % 2 == 1
        try:
            if trace_this:
                r, wall, cov = tracer.run(bench.round)
                traced_walls.append(wall)
                covered += cov
            else:
                r = bench.round()
                if i:
                    plain_walls.append(r.wall_s)
            if i == 0:
                bench.check_first(r)
                round_failed = set(bench.failed_ops)
            else:
                round_failed = bench.check_repeat(i, r, rounds[0])
            if trace_this:
                again, _, _ = Tracer().run(bench.test_scores)
                if not np.array_equal(again, bench.scores):
                    bench.problems.append(f"traced round {i} changed the eval scores")
                    round_failed.update(op for op in bench.ops if op[0] == "eval")
        except Exception as e:  # a program operation failed: report it, stop
            bench.problems.append(f"round {i}: {type(e).__name__}: {e}")
            attempted += len(bench.ops)
            failed += len(bench.ops)
            break
        attempted += len(bench.ops)
        failed += len(round_failed)
        rounds.append(r)
        print(f"round {i}{' traced' if trace_this else ''}: wall {r.wall_s:.3f} s; scaled: prep "
              f"{' '.join(f'{t:.3f}' for t in r.prep_s)} s, fit {r.fit_s:.3f} s, eval "
              f"{' '.join(f'{t:.3f}' for t in r.eval_s)} s")
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + r.wall_s > seconds:
            break

    med = statistics.median
    if not traced:
        warm = rounds[1:]
        metrics = {
            "setup_s": med(setup_times),
            "train_examples_per_s": _rate([(r.examples, r.fit_s) for r in warm]),
            "test_auc": bench.test_auc or 0.0,
            "prep_rows_per_s": _rate([(raw.n_rows, t) for r in warm for t in r.prep_s]),
            "eval_rows_per_s": _rate([(r.test_rows, t) for r in warm for t in r.eval_s]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
    else:
        n = max(len(traced_walls), 1)
        metrics, units = {}, {}
        for m in metric_names():
            units[m] = "s" if m.endswith("_s") else "count"
            if m.endswith("_s"):
                metrics[m] = tracer.self_s[m[:-2]] / n
            else:
                metrics[m] = tracer.counts[m] / n
        share = tracer.rows_touched
        metrics["trainer.embedding_rows_touched_share"] = sum(share) / len(share) if share else 0.0
        wall = sum(traced_walls)
        metrics["trace.overhead"] = (
            med(traced_walls) / med(plain_walls) if traced_walls and plain_walls else 0.0
        )
        metrics["trace.uncovered_share"] = (wall - covered) / wall if wall else 0.0
        for m in ("trainer.embedding_rows_touched_share", "trace.overhead",
                  "trace.uncovered_share"):
            units[m] = "ratio"
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{name}-seed{seed}.json", "w") as f:
            json.dump({"workload": name, "seed": seed, "traced_rounds": len(traced_walls),
                       "metrics": metrics}, f, indent=1)
    for p in bench.problems:
        print(f"FAIL: {p}")
    for m, v in metrics.items():
        print(f"{m} {v:.6g} {units[m]}")
    return {
        "correct": not bench.problems and bool(rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = ROOT / "src"
    if not (src / "delta_ctr").is_dir():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    work = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
