import concurrent.futures
import dataclasses
import hashlib
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from delta_ctr import data as data_mod
from delta_ctr import model as model_mod
from delta_ctr import numerics as nm
from delta_ctr import trainer as trainer_mod
from delta_ctr.model import CheckpointError, ModelConfig, ModelParams
from delta_ctr.numerics import GraphError, ParameterError, Rng, Tensor


def tiny_config(**kw):
    defaults = dict(
        n_fields=3,
        embed_dim=2,
        tower1_layers=[4],
        tower2_layers=[4],
        dropout_rate=0.0,
        cross_depth=2,
        lam=0.5,
        variant="full",
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


VOCABS = [5, 4, 6]


def make_batch(seed=0, b=8):
    rng = Rng(seed)
    idx = np.stack([rng.integers(0, v, (b,)) for v in VOCABS], axis=1)
    labels = rng.integers(0, 2, (b,)).astype(np.uint8)
    return idx, labels


class TestDeltaForward:
    def test_full_k_equals_n_matches_ctm_soft_bitwise(self):
        idx, _ = make_batch()
        full = ModelParams.init(tiny_config(variant="full"), VOCABS, seed=1)
        soft = ModelParams.init(tiny_config(variant="ctm_soft"), VOCABS, seed=1)
        a = model_mod.delta_forward(idx, full, k=3, mode="infer")
        b = model_mod.delta_forward(idx, soft, k=3, mode="infer")
        assert np.array_equal(a.y_main.value, b.y_main.value)

    def test_infer_is_pure(self):
        idx, _ = make_batch()
        params = ModelParams.init(tiny_config(), VOCABS, seed=2)
        a = model_mod.delta_forward(idx, params, k=2, mode="infer")
        b = model_mod.delta_forward(idx, params, k=2, mode="infer")
        assert np.array_equal(a.y_main.value, b.y_main.value)

    @pytest.mark.parametrize("variant", list(model_mod.VARIANTS))
    def test_infer_builds_no_graph(self, variant, monkeypatch):
        made = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                made.append(out[0] if isinstance(out, tuple) else out)
                return out

            return wrapper

        for name in nm.PRIMITIVES + ["scale"]:
            monkeypatch.setattr(nm, name, recording(getattr(nm, name)))
        idx, _ = make_batch()
        params = ModelParams.init(tiny_config(variant=variant), VOCABS, seed=2)
        model_mod.delta_forward(idx, params, k=2, mode="infer")
        assert made and all(t._parents == () and t._backward is None for t in made)
        made.clear()
        model_mod.delta_forward(idx, params, k=2, mode="train", rng=Rng(0))
        assert all(t._backward is not None for t in made)

    def test_unknown_mode_raises(self):
        idx, _ = make_batch()
        params = ModelParams.init(tiny_config(), VOCABS, seed=2)
        with pytest.raises(ParameterError, match="unknown mode 'training'"):
            model_mod.delta_forward(idx, params, k=2, mode="training", rng=Rng(0))

    def test_infer_never_evaluates_eeo(self):
        idx, _ = make_batch()
        params = ModelParams.init(tiny_config(), VOCABS, seed=2)
        out = model_mod.delta_forward(idx, params, k=2, mode="infer")
        assert out.y_eeo is None

    def test_probabilities_in_open_interval(self):
        idx, _ = make_batch()
        params = ModelParams.init(tiny_config(), VOCABS, seed=3)
        out = model_mod.delta_forward(idx, params, k=2, mode="infer")
        assert np.all(out.y_main.value > 0) and np.all(out.y_main.value < 1)

    def test_matches_straight_line_reference(self):
        """Independent raw-numpy recomputation of the whole forward pass on
        a tiny config (no autodiff machinery)."""
        cfg = tiny_config()
        params = ModelParams.init(cfg, VOCABS, seed=4)
        idx, _ = make_batch(b=2)
        out = model_mod.delta_forward(idx, params, k=2, mode="infer")

        n, d = cfg.n_fields, cfg.embed_dim
        for r in range(2):
            flat = idx[r] + params.embedding.offsets
            e = params.embedding.table.value[flat]  # (n, d)
            e_flat = e.reshape(-1)
            xs = []
            for head, gate in ((params.head1, params.gate1), (params.head2, params.gate2)):
                q = e @ head.w_q.value
                key = e @ head.w_k.value
                v = e @ head.w_v.value
                s = q @ key.T / np.sqrt(d)
                s = s - s.max(axis=-1, keepdims=True)
                w = np.exp(s) / np.exp(s).sum(axis=-1, keepdims=True)
                order = np.argsort(-w, axis=-1, kind="stable")
                theta = np.zeros_like(w)
                for i in range(n):
                    theta[i, order[i, :2]] = w[i, order[i, :2]]
                enh = (theta @ v).reshape(-1)
                g = 1 / (1 + np.exp(-gate.value))
                xs.append(g * e_flat + (1 - g) * enh)
            ts = []
            for x, tower in zip(xs, (params.tower1, params.tower2)):
                h = x
                for wgt, bias in tower.layers:
                    h = np.maximum(h @ wgt.value + bias.value, 0.0)
                ts.append(h)
            joint = np.concatenate(ts)
            logit = joint @ params.final_w.value[:, 0] + params.final_b.value[0]
            expected = 1 / (1 + np.exp(-logit))
            np.testing.assert_allclose(out.y_main.value[r], expected, rtol=1e-12)

    def test_eeo_concat_widens_final_layer(self):
        cfg = tiny_config(variant="eeo_concat")
        params = ModelParams.init(cfg, VOCABS, seed=5)
        assert params.final_w.shape[0] == 4 + 4 + cfg.flat_dim
        idx, _ = make_batch()
        out = model_mod.delta_forward(idx, params, k=2, mode="train", rng=Rng(0))
        assert out.y_eeo is None  # folded into the main branch instead

    def test_train_requires_rng(self):
        params = ModelParams.init(tiny_config(), VOCABS, seed=7)
        idx, _ = make_batch()
        with pytest.raises(ParameterError):
            model_mod.delta_forward(idx, params, k=2, mode="train")


VARIANT_NAMES = list(model_mod.VARIANTS)


def names_from_table(cfg):
    """(every tensor name, main-branch names) that the VARIANTS entry implies."""
    spec = model_mod.VARIANTS[cfg.variant]
    main = ["embedding"]
    if spec.attention:
        main += [f"head{h}.w_{p}" for h in (1, 2) for p in "qkv"]
    if spec.gate:
        main += ["gate1", "gate2"]
    for tag, sizes in (("tower1", cfg.tower1_layers), ("tower2", cfg.tower2_layers)):
        main += [f"{tag}.dense{i}.{p}" for i in range(len(sizes)) for p in "wb"]
    main += ["final.w", "final.b"]
    cross = [f"eeo.cross{i}.{p}" for i in range(cfg.cross_depth) for p in ("weight", "bias")]
    if spec.concat_cross:
        main += cross
    aux = {"cross": cross + ["eeo.head_weight", "eeo.head_bias"], "fm": ["fm_bias"], None: []}
    return main + aux[spec.aux], main


class TestVariantTable:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_named_params_follow_the_table(self, variant):
        cfg = tiny_config(variant=variant, cross_depth=3)
        params = ModelParams.init(cfg, VOCABS, seed=6)
        every, main = names_from_table(cfg)
        assert [n for n, _ in params.named_params()] == every
        assert [n for n, _ in params.main_branch_params()] == main
        rows = model_mod.param_table(cfg, VOCABS)
        assert [(r.name, r.shape) for r in rows] == [(n, p.shape) for n, p in params.named_params()]

    # sha256 of each tensor's name, shape and value bytes, in named_params
    # order, for n=3, d=2, towers [4, 3]/[4], cross depth 2, seed 7: any
    # change to a stream, a draw's order or bound, or the tensor order moves
    # them (full and ctm_soft hold the same tensors)
    INIT_SHA256 = {
        "full": "759fc65a75ae0c92b0ad603a7e165617e21d7cf90fd07300767a9687fbf1e63e",
        "ctm_soft": "759fc65a75ae0c92b0ad603a7e165617e21d7cf90fd07300767a9687fbf1e63e",
        "no_efg": "341ed5c849d7200a5e3e70867350bd9eef2e714e75a6cbfcc620edeb6d53740e",
        "eeo_concat": "6147009b593d9cfbc5fc69069b0fffafbaf33120c558c5ef7327904964efc965",
        "eeo_fm": "fb9b862da91a0140d06588c9b2dc4bc80baeac9b224359f28bd01485848dd7d4",
        "mlp_only": "6fa6b9a72dd3dd5ba91fe5930d98d16de44edfb6db88ec781393012bf4623208",
    }

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_init_bits_are_pinned(self, variant):
        cfg = tiny_config(variant=variant, tower1_layers=[4, 3])
        h = hashlib.sha256()
        for name, p in ModelParams.init(cfg, VOCABS, seed=7).named_params():
            h.update(f"{name} {p.value.shape} ".encode() + p.value.tobytes())
        assert h.hexdigest() == self.INIT_SHA256[variant]

    def test_variants_drop_what_they_never_read(self):
        """Tensors each variant lacks, out of all a variant can hold, at cross depth 3."""
        held = {}
        for v in VARIANT_NAMES:
            params = ModelParams.init(tiny_config(variant=v, cross_depth=3), VOCABS, seed=0)
            held[v] = {n for n, _ in params.named_params()}
        every = set().union(*held.values())
        dropped = {v: len(every - held[v]) for v in VARIANT_NAMES}
        assert dropped == {"full": 1, "ctm_soft": 1, "no_efg": 3, "eeo_concat": 3, "eeo_fm": 8,
                           "mlp_only": 17}

    def test_mlp_only_holds_embedding_towers_and_final(self, tmp_path):
        from delta_ctr import trainer as trainer_mod

        params = ModelParams.init(tiny_config(variant="mlp_only"), VOCABS, seed=6)
        names = [n for n, _ in params.named_params()]
        assert all(n == "embedding" or n.startswith(("tower", "final.")) for n in names)
        assert list(trainer_mod.OptimizerState.init(params).m) == names
        p = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(p, params)
        raw = p.read_bytes()
        assert not any(t in raw for t in (b"head", b"gate", b"eeo.", b"fm_bias"))
        assert model_mod.load_checkpoint(p, VOCABS)[0].copy_values().keys() == set(names)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_every_tensor_gets_a_gradient(self, variant):
        params = ModelParams.init(tiny_config(variant=variant, lam=0.5), VOCABS, seed=17)
        idx, labels = make_batch(b=16)
        params.zero_grads()
        out = model_mod.delta_forward(idx, params, 2, mode="train", rng=Rng(5))
        loss = model_mod.bce_loss(out.y_main, labels)
        if out.y_eeo is not None:
            loss = nm.add(loss, nm.scale(model_mod.bce_loss(out.y_eeo, labels), 0.5))
        loss.backward()
        missing = [n for n, p in params.named_params() if p.grad is None or not np.any(p.grad != 0)]
        assert not missing

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_shared_tensors_init_like_full(self, variant):
        full = dict(ModelParams.init(tiny_config(), VOCABS, seed=18).named_params())
        params = ModelParams.init(tiny_config(variant=variant), VOCABS, seed=18)
        checked = 0
        for n, p in params.named_params():
            if n in full and full[n].shape == p.shape:
                assert np.array_equal(p.value, full[n].value), n
                checked += 1
        assert checked >= 3


class TestNoEfgVariant:
    def test_enhanced_passes_through_alone(self):
        """no_efg equals a gate forced to sigma=0 (pure enhanced path)."""
        idx, _ = make_batch()
        plain = ModelParams.init(tiny_config(variant="no_efg"), VOCABS, seed=8)
        gated = ModelParams.init(tiny_config(variant="full"), VOCABS, seed=8)
        gated.gate1.value = np.full(gated.gate1.shape, -1e9)
        gated.gate2.value = np.full(gated.gate2.shape, -1e9)
        a = model_mod.delta_forward(idx, plain, k=2, mode="infer")
        b = model_mod.delta_forward(idx, gated, k=2, mode="infer")
        np.testing.assert_allclose(a.y_main.value, b.y_main.value, atol=1e-12)


class TestBceLoss:
    def test_half_probability(self):
        loss = model_mod.bce_loss(Tensor(np.array([0.5])), np.array([1]))
        np.testing.assert_allclose(loss.value, np.log(2), rtol=1e-12)

    def test_perfect_prediction_clipped(self):
        loss = model_mod.bce_loss(Tensor(np.array([1.0, 0.0])), np.array([1, 0]))
        assert float(loss.value) < 1.7e-6

    def test_direct_summation_oracle(self):
        rng = Rng(9)
        p = rng.random((20,)) * 0.98 + 0.01
        y = rng.integers(0, 2, (20,))
        loss = model_mod.bce_loss(Tensor(p), y)
        expected = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        np.testing.assert_allclose(float(loss.value), expected, rtol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ParameterError):
            model_mod.bce_loss(Tensor(np.zeros(0)), np.zeros(0))


class TestTrainLoss:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("variant", [v for v in VARIANT_NAMES if model_mod.VARIANTS[v].aux])
    def test_bit_equal_to_the_branch_losses_composed_outside(self, variant, lam):
        """bce(y_main) + lam * bce(y_eeo) from a train-mode forward with the
        same rng, and bce(y_main) alone at lam 0, where no aux head is built."""
        params = ModelParams.init(tiny_config(variant=variant, lam=lam, dropout_rate=0.3), VOCABS, seed=21)
        idx, labels = make_batch(seed=4)
        out = model_mod.delta_forward(idx, params, 2, mode="train", rng=Rng(6))
        want = model_mod.bce_loss(out.y_main, labels)
        if lam == 0:
            assert out.y_eeo is None
        else:
            want = nm.add(want, nm.scale(model_mod.bce_loss(out.y_eeo, labels), lam))
        got = model_mod.train_loss(idx, labels, params, 2, Rng(6))
        assert got.value.tobytes() == want.value.tobytes()

    def test_negative_lambda_rejected_by_the_config(self):
        with pytest.raises(ParameterError, match="lambda must be a number >= 0"):
            tiny_config(lam=-1.0)


class TestBranchSeparation:
    def test_lambda_zero_eeo_grads_zero(self):
        params = ModelParams.init(tiny_config(lam=0.0), VOCABS, seed=10)
        idx, labels = make_batch()
        _, grads = model_mod.backward_and_accumulate(idx, labels, params, 2, Rng(1))
        for name, g in grads.items():
            if name.startswith("eeo.") or name == "fm_bias":
                assert np.all(g == 0), name

    def test_eeo_loss_touches_only_embeddings_and_eeo(self):
        params = ModelParams.init(tiny_config(lam=0.5), VOCABS, seed=11)
        idx, labels = make_batch()
        params.zero_grads()
        out = model_mod.delta_forward(idx, params, 2, mode="train", rng=Rng(2))
        l_eeo = model_mod.bce_loss(out.y_eeo, labels)
        l_eeo.backward()
        for name, p in params.named_params():
            g = p.grad
            if name == "embedding" or name.startswith("eeo."):
                if name == "embedding":
                    assert g is not None and np.any(g != 0)
            else:
                assert g is None or np.all(g == 0), name

    def test_main_loss_never_touches_eeo(self):
        params = ModelParams.init(tiny_config(lam=0.5), VOCABS, seed=12)
        idx, labels = make_batch()
        params.zero_grads()
        out = model_mod.delta_forward(idx, params, 2, mode="train", rng=Rng(3))
        model_mod.bce_loss(out.y_main, labels).backward()
        for name, p in params.named_params():
            if name.startswith("eeo.") or name == "fm_bias":
                assert p.grad is None or np.all(p.grad == 0), name

    def test_frozen_embeddings_lambda_irrelevant_for_tower_grads(self):
        idx, labels = make_batch()
        g0 = None
        for lam in (0.0, 0.5):
            params = ModelParams.init(tiny_config(lam=lam), VOCABS, seed=13)
            _, grads = model_mod.backward_and_accumulate(idx, labels, params, 2, Rng(4))
            tower = {n: g for n, g in grads.items() if n.startswith(("tower", "final", "gate", "head"))}
            if g0 is None:
                g0 = tower
            else:
                for n in g0:
                    assert np.array_equal(g0[n], tower[n]), n


def record_outputs(monkeypatch):
    """The list that every Tensor a primitive returns from now on is appended to."""
    made = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            made.append(out[0] if isinstance(out, tuple) else out)
            return out

        return wrapper

    for name in nm.PRIMITIVES + ["scale"]:
        monkeypatch.setattr(nm, name, recording(getattr(nm, name)))
    return made


class TestBackwardConsumesGraph:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_train_backward_releases_every_node(self, variant, monkeypatch):
        made = record_outputs(monkeypatch)
        params = ModelParams.init(tiny_config(variant=variant, dropout_rate=0.3), VOCABS, seed=2)
        idx, labels = make_batch()
        model_mod.backward_and_accumulate(idx, labels, params, 2, Rng(0))
        *inner, root = made  # train_loss builds the root last
        assert inner and all(t.grad is None for t in inner) and root.grad == 1.0
        assert all(t._parents == () and t._backward is nm._consumed for t in made)
        assert all(p.grad is not None for _, p in params.named_params())

    def train_losses(self):
        params = ModelParams.init(tiny_config(), VOCABS, seed=2)
        idx, labels = make_batch()
        out = model_mod.delta_forward(idx, params, 2, mode="train", rng=Rng(0))
        return model_mod.bce_loss(out.y_main, labels), model_mod.bce_loss(out.y_eeo, labels)

    def test_second_backward_raises(self):
        l_main, l_eeo = self.train_losses()
        loss = nm.add(l_main, nm.scale(l_eeo, 0.5))
        loss.backward()
        with pytest.raises(GraphError, match="graph already consumed by backward"):
            loss.backward()

    def test_aux_loss_after_main_loss_raises(self):
        # both losses read the embedding lookup, which l_main's backward consumed
        l_main, l_eeo = self.train_losses()
        l_main.backward()
        with pytest.raises(GraphError, match="graph already consumed by backward"):
            l_eeo.backward()

    def test_backward_peak_stays_near_forward_end(self, monkeypatch):
        """tracemalloc on one step of the paper's towers and n=39, d=10 at
        B=512: the backward peak stays under 1.3 times what is live when
        backward starts. Keeping every node's gradient and arrays until
        backward returns gives 1.6 here."""
        n, b = 39, 512
        params = ModelParams.init(ModelConfig(n_fields=n, embed_dim=10), [50] * n, seed=1)
        rng = Rng(5)
        idx, labels = rng.integers(0, 50, (b, n)), rng.integers(0, 2, (b,))
        seen = {}
        backward = nm.Tensor.backward

        def measured(self):
            seen["forward_end"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(self)
            seen["peak"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(nm.Tensor, "backward", measured)
        tracemalloc.start()
        try:
            model_mod.backward_and_accumulate(idx, labels, params, 13, Rng(3))
        finally:
            tracemalloc.stop()
        assert seen["peak"] < 1.3 * seen["forward_end"], seen


class InlineExecutor:
    """Runs each submitted call at once on the calling thread: the branches
    one after the other, as before they ran concurrently."""

    def submit(self, fn, *args):
        f = concurrent.futures.Future()
        try:
            f.set_result(fn(*args))
        except BaseException as e:
            f.set_exception(e)
        return f


class Boom(RuntimeError):
    pass


class TestConcurrentBranches:
    def fit(self, variant, scope, tmp_path, tag):
        ds = data_mod.generate_synthetic(3, 2, 6, 240, seed=1)
        train, val, test = ds.subset(slice(0, 160)), ds.subset(slice(160, 200)), ds.subset(slice(200, 240))
        cfg = tiny_config(variant=variant, truncation_scope=scope, dropout_rate=0.3)
        st = trainer_mod.TrainSettings(batch_size=32, lr=1e-2, t_max=2, c_min=2)
        params, history, k = trainer_mod.fit(cfg, st, train, val, seed=3)
        history.write(tmp_path / f"{tag}.tsv")
        values = {n: v.tobytes() for n, v in params.copy_values().items()}
        return values, trainer_mod.predict(params, test, k).tobytes(), (tmp_path / f"{tag}.tsv").read_bytes()

    @pytest.mark.parametrize("scope", ["row", "global"])
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_bit_identical_to_the_branches_run_inline(self, variant, scope, tmp_path, monkeypatch):
        # forward and backward both run their paths inline, then backward
        # walks the whole graph serially
        concurrent_run = self.fit(variant, scope, tmp_path, "concurrent")
        monkeypatch.setattr(nm, "_branch_worker", InlineExecutor)
        assert self.fit(variant, scope, tmp_path, "inline") == concurrent_run
        monkeypatch.setattr(nm, "_split_paths", lambda order: None)
        assert self.fit(variant, scope, tmp_path, "serial") == concurrent_run

    def record_paths(self, monkeypatch, params, fail=None, slow=None):
        """Wrap _tower_path: record (thread, output) by tower once its path
        has run; tower `fail` raises Boom instead, tower `slow` sleeps first."""
        seen = {}
        path = model_mod._tower_path

        def recording(emb, e_flat, head, gate, tower, *args):
            i = 1 if tower is params.tower1 else 2
            if i == slow:
                time.sleep(0.2)
            if i == fail:
                raise Boom(f"tower {i}")
            out = path(emb, e_flat, head, gate, tower, *args)
            seen[i] = (threading.get_ident(), out[0])
            return out

        monkeypatch.setattr(model_mod, "_tower_path", recording)
        return seen

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_tower2_runs_on_the_worker_and_records_no_graph_in_infer(self, variant, monkeypatch):
        params = ModelParams.init(tiny_config(variant=variant), VOCABS, seed=2)
        seen = self.record_paths(monkeypatch, params)
        idx, _ = make_batch()
        model_mod.delta_forward(idx, params, k=2, mode="infer")
        assert seen[1][0] == threading.get_ident() != seen[2][0]
        t2 = seen[2][1]
        assert t2._parents == () and t2._backward is None
        model_mod.delta_forward(idx, params, k=2, mode="train", rng=Rng(0))
        assert seen[2][1]._parents != () and seen[2][1]._backward is not None

    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_exception_in_either_branch_propagates_after_both_end(self, mode, monkeypatch):
        params = ModelParams.init(tiny_config(), VOCABS, seed=2)
        idx, _ = make_batch()
        want = model_mod.delta_forward(idx, params, 2, mode=mode, rng=Rng(0)).y_main.value
        for fail, slow in ((2, None), (1, 2)):
            seen = self.record_paths(monkeypatch, params, fail=fail, slow=slow)
            with pytest.raises(Boom, match=f"tower {fail}"):
                model_mod.delta_forward(idx, params, 2, mode=mode, rng=Rng(0))
            assert list(seen) == [3 - fail]  # the other branch had finished
            monkeypatch.undo()
            got = model_mod.delta_forward(idx, params, 2, mode=mode, rng=Rng(0)).y_main.value
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_exception_in_a_path2_closure_propagates_after_path1_ends(self, variant, monkeypatch):
        params = ModelParams.init(tiny_config(variant=variant, dropout_rate=0.3), VOCABS, seed=2)
        idx, labels = make_batch()

        def step():
            loss, grads = model_mod.backward_and_accumulate(idx, labels, params, 2, Rng(0))
            return loss, {n: g.tobytes() for n, g in grads.items()}

        want = step()
        loss = model_mod.train_loss(idx, labels, params, 2, Rng(0))  # the graph backward_and_accumulate walks
        nodes, todo = {}, [loss]
        while todo:
            t = todo.pop()
            if id(t) not in nodes:
                nodes[id(t)] = t
                todo.extend(t._parents)
        path1 = [t for t in nodes.values() if t._path == 1]
        path2 = [t for t in nodes.values() if t._path == 2]
        assert path1 and path2

        def slow(closure):
            def run(g):
                time.sleep(0.02)  # path 1 is still running when path 2 raises
                closure(g)
            return run

        def boom(g):
            raise Boom("path 2")

        for t in path1:
            t._backward = slow(t._backward)
        for t in path2:
            t._backward = boom
        with pytest.raises(Boom, match="path 2"):
            loss.backward()
        assert all(t._backward is nm._consumed for t in path1)  # path 1's block had ended
        assert step() == want

    @pytest.mark.parametrize("variant", [v for v, spec in model_mod.VARIANTS.items() if spec.aux])
    def test_training_graph_splits_with_the_aux_head_on_path_2(self, variant, monkeypatch):
        # an untagged node of the aux head that reads a tagged one (its bce,
        # its lambda scale) makes _split_paths give up: the step then walks
        # serially, with the same bits, so only this test sees it
        made = {"bce": [], "scale": [], "cross": []}
        for name, nodes in made.items():
            def recording(*args, fn=getattr(nm, name), nodes=nodes):
                out = fn(*args)
                nodes.append(out)
                return out
            monkeypatch.setattr(nm, name, recording)
        splits = []
        split_paths = nm._split_paths
        monkeypatch.setattr(nm, "_split_paths", lambda order: splits.append(split_paths(order)) or splits[-1])
        params = ModelParams.init(tiny_config(variant=variant), VOCABS, seed=2)
        model_mod.backward_and_accumulate(*make_batch(), params, 2, Rng(0))
        assert len(splits) == 1 and splits[0] is not None
        main_bce, aux_bce = sorted(made["bce"], key=lambda t: t._path)
        assert (main_bce._path, aux_bce._path) == (0, 2)
        assert made["scale"] and all(t._path == 2 for t in made["scale"])  # lambda's, and FM's 0.5
        assert made["cross"] if variant != "eeo_fm" else not made["cross"]
        assert all(t._path == 2 for t in made["cross"])

    def test_callers_on_many_threads_share_the_worker(self, monkeypatch):
        """Six threads on two cores, the interpreter switching every
        microsecond: infer callers share one model, train callers each have
        their own; every result equals the serial one, and one pool is made."""
        shared = ModelParams.init(tiny_config(dropout_rate=0.3), VOCABS, seed=2)
        batches = [make_batch(seed=s) for s in range(3)]

        def infer(idx):
            return model_mod.delta_forward(idx, shared, 2).y_main.value.tobytes()

        def train(params, idx, labels):
            loss, grads = model_mod.backward_and_accumulate(idx, labels, params, 2, Rng(4))
            return loss, {n: g.tobytes() for n, g in grads.items()}

        own = [ModelParams.init(tiny_config(dropout_rate=0.3), VOCABS, seed=2) for _ in range(3)]
        want_infer = [infer(idx) for idx, _ in batches]
        want_train = [train(own[0], *batch) for batch in batches]
        pools = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(nm, "_branch_pool", None)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        wrong = []

        def caller(i):
            for rep in range(10):
                j = (i + rep) % 3
                if i < 3:
                    ok = infer(batches[j][0]) == want_infer[j]
                else:
                    ok = train(own[i - 3], *batches[j]) == want_train[j]
                if not ok:
                    wrong.append((i, rep))

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
            for pool in pools:
                pool.shutdown(wait=False)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and len(pools) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forward_in_a_forked_child(self):
        # the child inherits the pool but not its worker thread; without a
        # new pool there, its first forward waits forever
        params = ModelParams.init(tiny_config(), VOCABS, seed=2)
        idx, _ = make_batch()
        want = model_mod.delta_forward(idx, params, 2).y_main.value
        pid = os.fork()
        if pid == 0:
            got = model_mod.delta_forward(idx, params, 2).y_main.value
            os._exit(0 if got.tobytes() == want.tobytes() else 3)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's forward did not return")
        assert os.waitstatus_to_exitcode(done[1]) == 0


def test_no_two_gradients_of_a_step_share_memory():
    # a first gradient is kept uncopied only when its closure made it anew
    params = ModelParams.init(tiny_config(dropout_rate=0.3), VOCABS, seed=2)
    _, grads = model_mod.backward_and_accumulate(*make_batch(), params, 2, Rng(0))
    named = list(grads.items())
    for i, (a, ga) in enumerate(named):
        for b, gb in named[i + 1 :]:
            assert not np.shares_memory(ga, gb), (a, b)


@pytest.mark.parametrize("rate, training", [(0.0, True), (0.3, True), (0.3, False)])
def test_tower_is_one_node_per_layer_bitwise_equal_to_dense_then_dropout(rate, training):
    rng = Rng(8)
    x = Tensor(rng.normal(size=(16, 6)))
    tower = model_mod.Mlp([(Tensor(rng.normal(size=(a, b))), Tensor(rng.normal(size=(b,)))) for a, b in ((6, 5), (5, 4))])
    upstream = rng.normal(size=(16, 4))

    def composed():
        h = x
        for i, (w, b) in enumerate(tower.layers):
            h = nm.dropout(nm.dense(h, w, b), rate, Rng(9).split(("drop", i)), training)
        return h

    out = tower.forward(x, rate, Rng(9), training)
    assert out._parents[0]._parents[0] is x  # one node per layer
    assert out.value.tobytes() == composed().value.tobytes()
    params = [x] + [t for layer in tower.layers for t in layer]
    got = nm.grad_of(lambda: nm.tsum(nm.mul(tower.forward(x, rate, Rng(9), training), upstream)), params)
    want = nm.grad_of(lambda: nm.tsum(nm.mul(composed(), upstream)), params)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestFullModelGradients:
    @pytest.mark.parametrize("variant", ["full", "ctm_soft", "no_efg", "eeo_concat", "eeo_fm", "mlp_only"])
    def test_fd_agreement(self, variant):
        from delta_ctr import gradcheck

        results = gradcheck.check_full_model(variant=variant)
        bad = [r for r in results if not r.passed]
        assert not bad, [(r.name, r.worst_rel_err) for r in bad]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = ModelParams.init(tiny_config(), VOCABS, seed=14)
        p = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(p, params, extra={"k": 2})
        loaded, extra = model_mod.load_checkpoint(p, VOCABS)
        assert extra == {"k": 2}
        for (n1, t1), (n2, t2) in zip(params.named_params(), loaded.named_params()):
            assert n1 == n2
            assert np.array_equal(t1.value, t2.value)
        idx, _ = make_batch()
        a = model_mod.delta_forward(idx, params, 2, mode="infer")
        b = model_mod.delta_forward(idx, loaded, 2, mode="infer")
        assert np.array_equal(a.y_main.value, b.y_main.value)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_load_draws_nothing_and_saves_the_same_bytes(self, variant, tmp_path, monkeypatch):
        params = ModelParams.init(tiny_config(variant=variant), VOCABS, seed=4)
        path = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(path, params, extra={"k": 2})
        idx, _ = make_batch()
        want = model_mod.delta_forward(idx, params, 2).y_main.value

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        for name in ("uniform", "normal", "random", "integers", "permutation"):
            monkeypatch.setattr(Rng, name, draw)
        loaded, extra = model_mod.load_checkpoint(path, VOCABS)
        got = model_mod.delta_forward(idx, loaded, extra["k"]).y_main.value
        assert got.tobytes() == want.tobytes()
        model_mod.save_checkpoint(tmp_path / "again.ckpt", loaded, extra=extra)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        params = ModelParams.init(tiny_config(), VOCABS, seed=15)
        p = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(p, params)
        with pytest.raises((CheckpointError, ParameterError)):
            model_mod.load_checkpoint(p, [5, 4])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            model_mod.load_checkpoint(p, VOCABS)

    def test_version_1_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(p, ModelParams.init(tiny_config(), VOCABS, seed=19))
        raw = bytearray(p.read_bytes())
        raw[4:6] = (1).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version 1"):
            model_mod.load_checkpoint(p, VOCABS)

    @staticmethod
    def save_with(path, edit):
        """Save a `full` checkpoint whose tensor list is edit(named_params())."""
        params = ModelParams.init(tiny_config(), VOCABS, seed=20)
        named = edit(params.named_params())
        params.named_params = lambda: named
        model_mod.save_checkpoint(path, params)

    def test_missing_tensor_rejected(self, tmp_path):
        self.save_with(tmp_path / "m.ckpt", lambda named: named[:-1])
        with pytest.raises(CheckpointError, match="eeo.head_bias"):
            model_mod.load_checkpoint(tmp_path / "m.ckpt", VOCABS)

    def test_extra_tensor_rejected(self, tmp_path):
        self.save_with(tmp_path / "m.ckpt", lambda named: named + [("stray", Tensor(np.zeros(2)))])
        with pytest.raises(CheckpointError, match="stray"):
            model_mod.load_checkpoint(tmp_path / "m.ckpt", VOCABS)

    def test_field_count_mismatch_is_a_checkpoint_error(self, tmp_path):
        p = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(p, ModelParams.init(tiny_config(), VOCABS, seed=21))
        with pytest.raises(CheckpointError, match="vocab sizes"):
            model_mod.load_checkpoint(p, [5])

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(p, ModelParams.init(tiny_config(), VOCABS, seed=22))
        raw = p.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in (3, 5, 8, 12, 60, len(raw) // 2, len(raw) - 50, len(raw) - 1):
            cut.write_bytes(raw[:size])
            with pytest.raises(CheckpointError):
                model_mod.load_checkpoint(cut, VOCABS)


    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_every_prefix_and_high_bit_flip_loads_or_is_a_checkpoint_error(self, variant, tmp_path):
        """A cut file never loads; a byte with its top bit flipped either
        loads (a payload byte: v2 has no checksum) or raises CheckpointError,
        never another error, whatever it hits (a shape dimension included)."""
        p = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(p, ModelParams.init(tiny_config(variant=variant), VOCABS, seed=24), {"k": 2})
        raw = p.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for size in range(len(raw)):
            bad.write_bytes(raw[:size])
            with pytest.raises(CheckpointError):
                model_mod.load_checkpoint(bad, VOCABS)
        loaded = 0
        for i in range(len(raw)):
            bad.write_bytes(raw[:i] + bytes([raw[i] ^ 0x80]) + raw[i + 1 :])
            try:
                model_mod.load_checkpoint(bad, VOCABS)
                loaded += 1
            except CheckpointError:
                pass
        assert 0 < loaded < len(raw)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(p, ModelParams.init(tiny_config(), VOCABS, seed=23))
        p.write_bytes(p.read_bytes() + b"\x00" * 7)
        with pytest.raises(CheckpointError, match="7 stray bytes"):
            model_mod.load_checkpoint(p, VOCABS)


class TestConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            tiny_config(variant="bogus")

    def test_bad_dropout(self):
        with pytest.raises(ParameterError):
            tiny_config(dropout_rate=1.0)

    def test_bad_tower(self):
        with pytest.raises(ParameterError):
            tiny_config(tower1_layers=[0])

    def test_unknown_truncation_scope(self):
        with pytest.raises(ParameterError, match="colum"):
            tiny_config(truncation_scope="colum")

    def test_a_built_config_cannot_be_changed(self):
        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lam = -1.0
        assert cfg == tiny_config()
