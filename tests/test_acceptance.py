"""End-to-end acceptance checks.

Each test trains or exercises the real system and prints a single
pass/fail line (run with `pytest -s` to see them). The heavy tests train
actual models on synthetic data and take several minutes each.
"""

import math
import os

import numpy as np
import pytest

from delta_ctr import data as data_mod
from delta_ctr import gradcheck as gradcheck_mod
from delta_ctr import layers as layers_mod
from delta_ctr import metrics
from delta_ctr import model as model_mod
from delta_ctr import trainer as trainer_mod
from delta_ctr.model import ModelConfig, ModelParams
from delta_ctr.numerics import Rng, Tensor


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(f"\n{line}")
    assert ok, line


@pytest.fixture(scope="module")
def synth50k():
    ds = data_mod.generate_synthetic(10, 2, 20, 50000, seed=3)
    return data_mod.split_dataset(ds, seed=1)


def synth_model_config(**kw):
    base = dict(
        n_fields=10, embed_dim=8, tower1_layers=[64, 32], tower2_layers=[64],
        dropout_rate=0.3, cross_depth=2, lam=0.5, variant="full",
    )
    base.update(kw)
    return ModelConfig(**base)


def test_criterion_01_gradient_suite():
    results = gradcheck_mod.run_all(tol=1e-4)
    bad = [(r.name, r.worst_rel_err) for r in results if not r.passed]
    worst = max(r.worst_rel_err for r in results)
    report(1, "gradient suite", not bad,
           f"{len(results)} checks, worst rel err {worst:.2e}" + (f", failing: {bad}" if bad else ""))


def test_criterion_02_truncation_identity():
    n, vocab = 6, 50
    vocabs = [vocab] * n
    idx = Rng(11).integers(0, vocab, (1000, n))
    cfg = dict(n_fields=n, embed_dim=4, tower1_layers=[16], tower2_layers=[16],
               dropout_rate=0.0, cross_depth=2, lam=0.5)
    full = ModelParams.init(ModelConfig(variant="full", **cfg), vocabs, seed=4)
    soft = ModelParams.init(ModelConfig(variant="ctm_soft", **cfg), vocabs, seed=4)
    a = model_mod.delta_forward(idx, full, k=n, mode="infer")
    b = model_mod.delta_forward(idx, soft, k=n, mode="infer")
    ok = np.array_equal(a.y_main.value, b.y_main.value)
    report(2, "k=n equals dense attention", ok, "1000 instances bitwise")


def curriculum_oracle(losses, c_max, delta, lr0, lr_decay, c_min=2):
    """Hand-executable transliteration of the schedule."""
    c, lr, flag, best = c_max, lr0, False, math.inf
    trace = []
    for loss in losses:
        if loss > best:
            if not flag:
                c, flag = max(c_min, c - delta), True
            else:
                lr, flag = lr_decay * lr, False
        else:
            flag = False
        best = min(best, loss)
        trace.append((c, round(lr, 12), flag))
    return trace


def test_criterion_03_curriculum_state_machine():
    def run(losses, c_max, **kw):
        s = trainer_mod.CurriculumState.initial(c_max, trainer_mod.TrainSettings(**kw))
        out = []
        for loss in losses:
            s = trainer_mod.curriculum_step(s, loss)
            out.append((s.c, round(s.lr, 12), s.flag))
        return out

    failures = []
    # two fully hand-written traces: shrink/decay alternation and the floor
    seq = [0.50, 0.60, 0.60, 0.60, 0.60]
    want = [(39, 1e-4, False), (34, 1e-4, True), (34, 1e-5, False),
            (29, 1e-5, True), (29, 1e-6, False)]
    if run(seq, 39, lr=1e-4, delta=5) != want:
        failures.append("alternation")
    seq = [0.5, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
    want = [(5, 1e-4, False), (3, 1e-4, True), (3, 1e-5, False),
            (2, 1e-5, True), (2, 1e-6, False), (2, 1e-6, True), (2, 1e-7, False)]
    if run(seq, 5, lr=1e-4, delta=2, c_min=2) != want:
        failures.append("floor")
    # eight scripted random sequences against the transliterated oracle
    for seed in range(8):
        losses = list(0.4 + 0.2 * Rng(seed).random((25,)))
        if run(losses, 39, lr=1e-4, delta=5) != curriculum_oracle(losses, 39, 5, 1e-4, 0.1):
            failures.append(f"seq{seed}")
    report(3, "curriculum state machine", not failures,
           "10 scripted sequences" + (f", failing: {failures}" if failures else ""))


def test_criterion_04_aux_branch_independence():
    ds = data_mod.generate_synthetic(4, 2, 8, 600, seed=9)
    tr, va, _ = data_mod.split_dataset(ds, seed=0)

    # (a) the auxiliary head is absent at inference and does not move y_main:
    # train mode (which evaluates it) and infer mode agree bitwise with
    # dropout disabled
    cfg = ModelConfig(n_fields=4, embed_dim=3, tower1_layers=[8], tower2_layers=[8],
                      dropout_rate=0.0, cross_depth=2, lam=0.5, variant="full")
    params = ModelParams.init(cfg, tr.vocab_sizes, seed=1)
    with_aux = model_mod.delta_forward(tr.indices[:256], params, 2, mode="train", rng=Rng(0))
    without = model_mod.delta_forward(tr.indices[:256], params, 2, mode="infer")
    ok_a = with_aux.y_eeo is not None and without.y_eeo is None \
        and np.array_equal(with_aux.y_main.value, without.y_main.value)

    # (b) lambda=0 training equals aux-deleted training bitwise over 3
    # epochs: poison the aux parameters with NaN (any read would propagate)
    def train3(poison):
        c = ModelConfig(n_fields=4, embed_dim=3, tower1_layers=[8], tower2_layers=[8],
                        dropout_rate=0.0, cross_depth=2, lam=0.0, variant="full")
        p = ModelParams.init(c, tr.vocab_sizes, seed=2)
        if poison:
            for name, t in p.named_params():
                if name.startswith(("eeo.", "fm_bias")):
                    t.value = np.full_like(t.value, np.nan)
        opt = trainer_mod.OptimizerState.init(p)
        root = Rng(2)
        for epoch in range(3):
            erng = root.split(("epoch", epoch))
            batches = data_mod.batch_iter(tr, 64, seed=epoch, shuffle=True)
            for bi, (idx, labels) in enumerate(batches):
                _, grads = model_mod.backward_and_accumulate(
                    idx, labels, p, 2, erng.split(("batch", bi)))
                trainer_mod.optimizer_step(p, grads, opt, 1e-2)
        return p

    clean, deleted = train3(False), train3(True)
    ok_b = all(
        np.array_equal(t1.value, t2.value)
        for (_, t1), (_, t2) in zip(clean.main_branch_params(), deleted.main_branch_params())
    )
    ok_b = ok_b and np.array_equal(
        trainer_mod.predict(clean, va, 2), trainer_mod.predict(deleted, va, 2))
    report(4, "aux branch independence", ok_a and ok_b,
           f"inference bitwise: {ok_a}, 3-epoch trajectory bitwise: {ok_b}")


def auc_pairwise(scores, labels):
    scores, labels = np.asarray(scores, dtype=float), np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    total = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return total / (len(pos) * len(neg))


def test_criterion_05_metric_oracles():
    bad = 0
    checked = 0
    for seed in range(520):
        if checked == 500:
            break
        r = Rng(seed)
        n = int(r.integers(2, 201, (1,))[0])
        scores = np.round(r.random((n,)), 2)  # rounding forces ties
        labels = r.integers(0, 2, (n,))
        if labels.sum() in (0, n):
            continue
        checked += 1
        if abs(metrics.auc(scores, labels) - auc_pairwise(scores, labels)) > 0:
            bad += 1
    r = Rng(999)
    p = r.random((200,)) * 0.98 + 0.01
    y = r.integers(0, 2, (200,))
    direct = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    ll_ok = abs(metrics.logloss(p, y) - direct) < 1e-12
    report(5, "metric oracles", checked == 500 and bad == 0 and ll_ok,
           f"{checked} AUC cases exact, logloss within 1e-12: {ll_ok}")


def informative_share(params, dset, k, n_informative=2):
    """Fraction of surviving (truncated) attention mass on informative fields."""
    out = model_mod.delta_forward(dset.indices[:5000], params, k, mode="infer")
    num = den = 0.0
    for s in (out.state1, out.state2):
        theta = np.where(s.kept_mask, s.weights, 0.0)
        num += theta[:, :, :n_informative].sum(axis=-1).mean()
        den += theta.sum(axis=-1).mean()
    return float(num / den)


@pytest.mark.slow
def test_criterion_06_planted_feature_recovery(synth50k):
    tr, va, te = synth50k
    ceiling = metrics.auc(va.bayes_scores, va.labels)
    st = trainer_mod.TrainSettings(batch_size=512, lr=3e-3, t_max=30, c_min=2)
    params, _, best_k = trainer_mod.fit(synth_model_config(), st, tr, va, seed=0)
    val = trainer_mod.evaluate(params, va, best_k)
    gap = ceiling - val.auc
    share = informative_share(params, te, best_k)
    ok = gap < 0.03 and share > 0.4
    report(6, "planted-feature recovery", ok,
           f"val AUC {val.auc:.4f}, ceiling {ceiling:.4f}, gap {gap:.4f} (<0.03); "
           f"informative share of truncated mass {share:.3f} (>0.4, uniform 0.2), k={best_k}")


@pytest.mark.slow
def test_criterion_07_ablation_direction(synth50k):
    tr, va, te = synth50k
    st = trainer_mod.TrainSettings(batch_size=512, lr=3e-3, t_max=15, c_min=2)

    def run(variant, lam):
        aucs = []
        for seed in range(5):
            cfg = synth_model_config(variant=variant, lam=lam)
            params, _, best_k = trainer_mod.fit(cfg, st, tr, va, seed=seed)
            aucs.append(trainer_mod.evaluate(params, te, best_k).auc)
        return np.mean(aucs), np.std(aucs)

    full_m, full_s = run("full", 0.5)
    soft_m, soft_s = run("ctm_soft", 0.5)
    lam0_m, lam0_s = run("full", 0.0)
    ok = full_m >= soft_m and full_m >= lam0_m
    report(7, "ablation direction", ok,
           f"full {full_m:.5f}±{full_s:.5f} vs dense-attention {soft_m:.5f}±{soft_s:.5f} "
           f"(gap {full_m - soft_m:+.5f}) vs no-aux {lam0_m:.5f}±{lam0_s:.5f} "
           f"(gap {full_m - lam0_m:+.5f}), 5 seeds")


def test_criterion_08_frappe(tmp_path):
    raw = os.environ.get("DELTA_FRAPPE")
    if not raw or not os.path.exists(raw):
        pytest.skip(
            "criterion  8 [frappe benchmark]: SKIP — dataset not available in this "
            "environment (no network beyond the package mirror); point DELTA_FRAPPE "
            "at the raw labeled file to run it"
        )
    from delta_ctr import cli

    cache = tmp_path / "frappe.bin"
    assert cli.main(["prep", "--input", raw, "--output", str(cache)]) == 0
    tr, va, te = cli._load_splits(str(cache))
    cfg = ModelConfig(
        n_fields=tr.n_fields, embed_dim=20, tower1_layers=[400, 400, 400],
        tower2_layers=[800], dropout_rate=0.5, cross_depth=3, lam=0.5, variant="full",
    )
    st = trainer_mod.TrainSettings(batch_size=4096, lr=1e-4, t_max=20)
    params, _, best_k = trainer_mod.fit(cfg, st, tr, va, seed=0)
    res = trainer_mod.evaluate(params, te, best_k)
    ok = res.auc >= 0.975 and res.logloss <= 0.20
    report(8, "frappe benchmark", ok, f"test AUC {res.auc:.4f} (>=0.975), logloss {res.logloss:.4f} (<=0.20)")


def test_criterion_09_complexity_linear_in_k():
    n, d, h, b = 39, 10, 2, 8
    ks = [5, 10, 20, 39]
    counts = []
    for k in ks:
        rng = Rng(k)
        w = np.exp(rng.normal(size=(b, n, n)))
        w = w / w.sum(axis=-1, keepdims=True)
        order = np.argsort(-w, axis=-1, kind="stable")[..., :k]
        vals = np.take_along_axis(w, order, axis=-1)
        total = 0
        for _ in range(h):
            v = rng.normal(size=(b, n, d))
            out, ops = layers_mod.truncated_aggregate_sparse(vals, order, v)
            total += ops
            if k == n:  # at k=n the sparse path must equal the dense product
                np.testing.assert_allclose(out, w @ v, atol=1e-12)
        counts.append(total)
    coeffs = np.polyfit(np.array(ks, dtype=float), counts, 1)
    resid = counts - np.polyval(coeffs, np.array(ks, dtype=float))
    r2 = 1 - resid.var() / np.var(counts)
    ok = r2 > 0.95 and counts == sorted(counts)
    report(9, "aggregation cost linear in k", ok,
           f"multiply-adds at k={ks}: {counts}, linear fit R^2 {r2:.6f}")


@pytest.mark.slow
def test_criterion_10_bottleneck_sweep():
    ds = data_mod.generate_synthetic(10, 2, 20, 20000, seed=3)
    tr, va, te = data_mod.split_dataset(ds, seed=1)
    # Whole-matrix truncation makes the bottleneck an information constraint
    # (per-row truncation always keeps each field's own row, so k barely
    # moves the metric there); see the sweep discussion in the README.
    cfg = synth_model_config(truncation_scope="global")
    ks = [2, 3, 4, 6, 10]
    means = {}
    for k in ks + [None]:
        st = trainer_mod.TrainSettings(batch_size=512, lr=3e-3, t_max=10, fixed_k=k)
        aucs = []
        for seed in range(5):
            params, _, best_k = trainer_mod.fit(cfg, st, tr, va, seed=seed)
            aucs.append(trainer_mod.evaluate(params, te, best_k).auc)
        means["curriculum" if k is None else k] = float(np.mean(aucs))
    interior = [k for k in ks if 1 < k < 10]
    best_interior = max(means[k] for k in interior)
    nonmono = best_interior > means[2] and best_interior > means[10]
    best_fixed = max(means[k] for k in ks)
    gap = best_fixed - means["curriculum"]
    ok = nonmono and gap <= 0.005
    detail = ", ".join(f"k={k}: {means[k]:.4f}" for k in ks)
    report(10, "bottleneck sweep", ok,
           f"{detail}; curriculum {means['curriculum']:.4f}, "
           f"gap to best fixed {gap:.4f} (<=0.005); interior max beats ends: {nonmono}")
