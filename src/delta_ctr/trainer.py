"""Training loop: curriculum-scheduled attention bottleneck, Adam-style
optimizer, best-checkpoint selection, and evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as data_mod
from . import model as model_mod
from . import numerics as nm
from .metrics import EvalResult, evaluate_scores
from .model import is_count, is_real
from .numerics import ParameterError, Rng


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainSettings:
    """A training run's settings, checked once when built, but for check_fixed_k's bound."""

    batch_size: int = 4096
    lr: float = 1e-4
    t_max: int = 20
    delta: int | None = None  # default ceil(n_fields / 8)
    lr_decay: float = 0.1
    c_min: int = 2
    lr_floor: float = 1e-6
    fixed_k: int | None = None  # disable the curriculum, train at this k

    def __post_init__(self):
        checks = [
            ("batch_size", is_count(self.batch_size), "an integer >= 1"),
            ("lr", is_real(self.lr) and self.lr > 0, "a number > 0"),
            ("t_max", is_count(self.t_max), "an integer >= 1"),
            ("delta", self.delta is None or is_count(self.delta), "null or an integer >= 1"),
            ("lr_decay", is_real(self.lr_decay) and 0 < self.lr_decay < 1, "a number in (0, 1)"),
            ("c_min", is_count(self.c_min), "an integer >= 1"),
            ("lr_floor", is_real(self.lr_floor) and self.lr_floor >= 0, "a number >= 0"),
            ("fixed_k", self.fixed_k is None or is_count(self.fixed_k), "null or an integer >= 1"),
        ]
        for name, ok, want in checks:
            if not ok:
                raise ParameterError(f"trainer {name} must be {want}, got {getattr(self, name)!r}")

    def check_fixed_k(self, n_fields):
        """ParameterError unless a model of n_fields can train at fixed_k."""
        if self.fixed_k is not None and self.fixed_k > n_fields:
            raise ParameterError(f"trainer fixed_k must be null or an integer in [1, {n_fields}], got {self.fixed_k}")


@dataclass(frozen=True)
class CurriculumState:
    """State of the bottleneck schedule.

    Flag records whether the bottleneck already shrank at the current
    learning rate; the schedule alternates one bottleneck decrement and one
    learning-rate decay across consecutive bad epochs.
    """

    c: int  # current bottleneck size
    lr: float
    delta: int  # bottleneck decrement on plateau
    lr_decay: float
    c_min: int
    best_loss: float = math.inf
    flag: bool = False

    @classmethod
    def initial(cls, c_max, settings):
        """The schedule a TrainSettings starts from at bottleneck c_max."""
        delta = settings.delta if settings.delta is not None else max(1, math.ceil(c_max / 8))
        return cls(c=c_max, lr=settings.lr, delta=delta, lr_decay=settings.lr_decay, c_min=min(settings.c_min, c_max))


def curriculum_step(s, new_val_loss):
    """One epoch-end transition of the bottleneck schedule.

    If validation loss worsened: first bad epoch at this lr shrinks the
    bottleneck (floored at c_min) and raises the flag; a second consecutive
    bad epoch decays the learning rate and clears the flag. If it improved,
    the flag is cleared (a no-op on most paths, harmless) and the reference
    loss updates. The reference is the best loss seen so far, not the last
    epoch's, to avoid double-triggering on oscillation.
    """
    worse = new_val_loss > s.best_loss
    if worse:
        if not s.flag:
            new = replace(s, c=max(s.c_min, s.c - s.delta), flag=True)
        else:
            new = replace(s, lr=s.lr_decay * s.lr, flag=False)
    else:
        new = replace(s, flag=False)
    return replace(new, best_loss=min(s.best_loss, new_val_loss))


@dataclass
class OptimizerState:
    """Adam moments, one pair per parameter."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init(cls, params):
        return cls(
            m={n: np.zeros_like(p.value) for n, p in params.named_params()},
            v={n: np.zeros_like(p.value) for n, p in params.named_params()},
        )


# parameter elements below which an Adam step runs on the calling thread
# alone: under it, handing half of the update to the worker costs more than
# it saves. On 2 vCPUs a split step took 1.13x the serial time at 29k
# elements, 0.96x at 45k and 0.85x at 61k. Any floor between train-synth's
# 15k elements and paper size's millions gives the same benchmark result.
ADAM_SPLIT = 1 << 16

# Adam's moment decay rates and the floor of its denominator
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def optimizer_step(params, grads, state, lr):
    """In-place Adam update with bias correction, or none if a gradient is NaN/Inf.

    Each parameter, m and v are updated in place, through one scratch array
    and the step, by the operations of m = b1 * m + (1 - b1) * g,
    v = b2 * v + (1 - b2) * g * g and p -= lr * (m / c1) / (sqrt(v / c2) + eps)
    in the same order, so the bits are those of that formula, which would
    allocate a temporary the size of the parameter for every operation.
    From ADAM_SPLIT elements on, the caller updates the first len(a) // 2
    rows of every tensor a and the worker thread the rest; each element
    sees the same operations either way.
    """
    named = params.named_params()
    for name, _ in named:
        if not np.all(np.isfinite(grads[name])):
            raise TrainingError(f"NaN/Inf gradient in {name}")
    state.step += 1
    c1 = 1.0 - BETA1**state.step
    c2 = 1.0 - BETA2**state.step

    def update(share):
        for p, g, m, v in share:
            scratch = np.multiply(g, 1 - BETA1)
            m *= BETA1
            m += scratch
            np.multiply(g, 1 - BETA2, out=scratch)
            scratch *= g
            v *= BETA2
            v += scratch
            np.divide(v, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPS
            step = np.divide(m, c1)
            step *= lr
            step /= scratch
            p -= step

    share = [(p.value, grads[n], state.m[n], state.v[n]) for n, p in named]
    if sum(p.size for p, *_ in share) < ADAM_SPLIT:
        update(share)
    else:
        first = [tuple(a[: len(a) // 2] for a in arrays) for arrays in share]
        second = [tuple(a[len(a) // 2 :] for a in arrays) for arrays in share]
        nm.concurrently(lambda: update(first), lambda: update(second))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_logloss: float
    val_auc: float
    c: int
    lr: float
    flag: bool


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def write(self, path):
        with open(path, "w") as f:
            f.write("epoch\ttrain_loss\tval_logloss\tval_auc\tC\tR\tFlag\n")
            for r in self.records:
                f.write(
                    f"{r.epoch}\t{r.train_loss:.6f}\t{r.val_logloss:.6f}\t"
                    f"{r.val_auc:.6f}\t{r.c}\t{r.lr:.8g}\t{int(r.flag)}\n"
                )


def predict(params, dataset, k):
    """Infer-mode scores over a dataset in 4096-row batches (pure function of params)."""
    scores = []
    for idx, _ in data_mod.batch_iter(dataset, 4096, shuffle=False):
        out = model_mod.delta_forward(idx, params, k, mode="infer")
        scores.append(out.y_main.value)
    return np.concatenate(scores) if scores else np.zeros(0)


def evaluate(params, dataset, k):
    if len(dataset) == 0:
        raise ParameterError("empty dataset")
    return evaluate_scores(predict(params, dataset, k), dataset.labels)


def fit(config, settings, train_ds, val_ds, seed):
    """Train with the curriculum bottleneck schedule.

    Each epoch trains at the current (bottleneck, lr), evaluates validation
    logloss, and advances the schedule. Returns the parameters of the
    best-validation-logloss epoch together with the history; training stops
    after t_max epochs or when the lr decays below lr_floor. Settings whose
    fixed_k the model cannot train at raise ParameterError first.
    """
    settings.check_fixed_k(config.n_fields)
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ParameterError("datasets must be nonempty")
    params = model_mod.ModelParams.init(config, train_ds.vocab_sizes, seed)
    opt = OptimizerState.init(params)
    n = config.n_fields
    sched = CurriculumState.initial(n, settings)
    history = TrainHistory()
    root = Rng(seed)
    # the best epoch's values, copied only where a later epoch could
    # overwrite them; None: the parameters as they stand are the best (from
    # epoch 0 on, whose logloss, of clipped scores, is finite)
    best_loss, best_k, best_values = math.inf, n, None
    for epoch in range(settings.t_max):
        k = settings.fixed_k if settings.fixed_k is not None else sched.c
        epoch_rng = root.split(("epoch", epoch))
        losses = []
        batches = data_mod.batch_iter(
            train_ds, settings.batch_size, seed=seed + 7919 * epoch, shuffle=True
        )
        for bi, (idx, labels) in enumerate(batches):
            loss, grads = model_mod.backward_and_accumulate(
                idx, labels, params, k, epoch_rng.split(("batch", bi))
            )
            # a non-finite loss leaves a non-finite gradient, which this rejects
            optimizer_step(params, grads, opt, sched.lr)
            losses.append(loss)
        val = evaluate(params, val_ds, k)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                val_logloss=val.logloss,
                val_auc=val.auc,
                c=k,
                lr=sched.lr,
                flag=sched.flag,
            )
        )
        sched = curriculum_step(sched, val.logloss)
        last = epoch + 1 == settings.t_max or sched.lr < settings.lr_floor
        if val.logloss < best_loss:
            best_loss, best_k = val.logloss, k
            best_values = None if last else params.copy_values()
        if last:
            break
    if best_values is not None:
        params.load_values(best_values)
    return params, history, best_k
